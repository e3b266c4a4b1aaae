"""Synthetic pair generation and the binary dataset format."""

import struct

import numpy as np
import pytest

from topodesc import data
from topodesc.errors import DatasetFormatError, InvalidArgumentError

HEADER_SIZE = 40


class TestGenerate:
    def test_same_seed_reproduces_bitwise(self):
        a = data.generate(seed=3, scenes=20, dim=8, noise_sigma=0.1, distortion=0.2)
        b = data.generate(seed=3, scenes=20, dim=8, noise_sigma=0.1, distortion=0.2)
        np.testing.assert_array_equal(a.views_a, b.views_a)
        np.testing.assert_array_equal(a.views_p, b.views_p)
        np.testing.assert_array_equal(a.scene_ids, b.scene_ids)

    def test_different_seeds_differ(self):
        a = data.generate(seed=4, scenes=20, dim=8, noise_sigma=0.1, distortion=0.2)
        b = data.generate(seed=5, scenes=20, dim=8, noise_sigma=0.1, distortion=0.2)
        assert not np.array_equal(a.views_a, b.views_a)

    def test_clean_undistorted_views_coincide(self):
        ds = data.generate(seed=6, scenes=16, dim=5, noise_sigma=0.0, distortion=0.0)
        np.testing.assert_array_equal(ds.views_a, ds.views_p)

    def test_scene_ids_are_consecutive(self):
        ds = data.generate(seed=7, scenes=9, dim=3, noise_sigma=0.05, distortion=0.1)
        np.testing.assert_array_equal(ds.scene_ids, np.arange(9))
        assert np.all(np.isfinite(ds.views_a))
        assert np.all(np.isfinite(ds.views_p))

    def test_distortion_frobenius_norm_is_exact(self):
        # noise-free views satisfy views_p = views_a @ R.T up to float32
        # rounding, so least squares recovers R and ||R - I||_F = distortion
        dim = 6
        ds = data.generate(seed=8, scenes=96, dim=dim, noise_sigma=0.0, distortion=0.37)
        r_t, *_ = np.linalg.lstsq(ds.views_a, ds.views_p, rcond=None)
        frob = np.linalg.norm(r_t.T - np.eye(dim))
        assert frob == pytest.approx(0.37, abs=1e-3)

    def test_zero_distortion_skips_the_warp(self):
        noisy = data.generate(seed=9, scenes=12, dim=4, noise_sigma=0.1, distortion=0.0)
        # with sigma > 0 the views differ only by the two noise draws
        assert not np.array_equal(noisy.views_a, noisy.views_p)
        rng = np.random.default_rng(9)
        latents = rng.standard_normal((12, 4))
        noise_a = rng.standard_normal((12, 4))
        expect_a = (latents + 0.1 * noise_a).astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(noisy.views_a, expect_a)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            data.generate(seed=0, scenes=1, dim=4, noise_sigma=0.1, distortion=0.1)
        with pytest.raises(InvalidArgumentError):
            data.generate(seed=0, scenes=4, dim=0, noise_sigma=0.1, distortion=0.1)
        with pytest.raises(InvalidArgumentError):
            data.generate(seed=-1, scenes=4, dim=4, noise_sigma=0.1, distortion=0.1)
        with pytest.raises(InvalidArgumentError):
            data.generate(seed=0, scenes=4, dim=4, noise_sigma=-0.1, distortion=0.1)
        with pytest.raises(InvalidArgumentError):
            data.generate(seed=0, scenes=4, dim=4, noise_sigma=0.1, distortion=-0.1)

    @pytest.mark.parametrize("noise_sigma, distortion", [(1e39, 0.1), (0.1, 1e308)])
    def test_float32_overflow_rejected(self, noise_sigma, distortion):
        with pytest.raises(InvalidArgumentError, match="overflow float32"):
            data.generate(seed=0, scenes=4, dim=4, noise_sigma=noise_sigma, distortion=distortion)


class TestRoundTrip:
    def test_write_read_preserves_everything(self, tmp_path):
        ds = data.generate(seed=10, scenes=17, dim=7, noise_sigma=0.05, distortion=0.3)
        path = tmp_path / "pairs.tcpd"
        data.write_dataset(ds, str(path))
        back = data.read_dataset(str(path))
        assert back.version == ds.version
        assert back.dim == ds.dim
        assert back.seed == ds.seed
        assert back.noise_sigma == ds.noise_sigma
        assert back.distortion == ds.distortion
        np.testing.assert_array_equal(back.scene_ids, ds.scene_ids)
        np.testing.assert_array_equal(back.views_a, ds.views_a)
        np.testing.assert_array_equal(back.views_p, ds.views_p)

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds = data.generate(seed=11, scenes=13, dim=6, noise_sigma=0.02, distortion=0.1)
        p1 = tmp_path / "one.tcpd"
        p2 = tmp_path / "two.tcpd"
        data.write_dataset(ds, str(p1))
        data.write_dataset(data.read_dataset(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        ds = data.generate(seed=12, scenes=5, dim=3, noise_sigma=0.25, distortion=0.125)
        path = tmp_path / "pairs.tcpd"
        data.write_dataset(ds, str(path))
        blob = path.read_bytes()
        magic, version, scenes, dim, seed, sigma, distortion = struct.unpack_from(
            "<4sIIIQdd", blob, 0
        )
        assert magic == b"TCPD"
        assert (version, scenes, dim, seed) == (1, 5, 3, 12)
        assert (sigma, distortion) == (0.25, 0.125)
        record = 4 + 4 * 3 * 2
        assert len(blob) == HEADER_SIZE + 5 * record

    def test_loaded_views_are_float64(self, tmp_path):
        ds = data.generate(seed=13, scenes=4, dim=2, noise_sigma=0.1, distortion=0.0)
        path = tmp_path / "pairs.tcpd"
        data.write_dataset(ds, str(path))
        back = data.read_dataset(str(path))
        assert back.views_a.dtype == np.float64
        assert back.views_p.dtype == np.float64


class TestFormatErrors:
    def make_file(self, tmp_path):
        ds = data.generate(seed=14, scenes=4, dim=3, noise_sigma=0.1, distortion=0.1)
        path = tmp_path / "pairs.tcpd"
        data.write_dataset(ds, str(path))
        return path

    def test_bad_magic(self, tmp_path):
        path = self.make_file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"JUNK"
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError, match="offset 0"):
            data.read_dataset(str(path))

    def test_bad_version(self, tmp_path):
        path = self.make_file(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 4, 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError, match="version 9 at offset 4"):
            data.read_dataset(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.tcpd"
        path.write_bytes(b"TCPD\x01\x00")
        with pytest.raises(DatasetFormatError, match="truncated at offset 6"):
            data.read_dataset(str(path))

    def test_truncated_records(self, tmp_path):
        path = self.make_file(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(DatasetFormatError, match=f"truncated at offset {len(blob) - 5}"):
            data.read_dataset(str(path))

    def test_trailing_bytes(self, tmp_path):
        path = self.make_file(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x00\x00")
        with pytest.raises(DatasetFormatError, match=f"trailing bytes at offset {len(blob)}"):
            data.read_dataset(str(path))

    def test_zero_dim_header(self, tmp_path):
        path = self.make_file(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 12, 0)
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError, match="offset 12"):
            data.read_dataset(str(path))

    @pytest.mark.parametrize("dim, scenes", [(2**31, 0), (2**30, 1), (400_000_000, 3)])
    def test_huge_dim_header(self, tmp_path, dim, scenes):
        # a record of 4 + 8 * dim bytes past 2**31 - 1 that numpy cannot describe,
        # or whose size it would wrap negative
        path = tmp_path / "huge.tcpd"
        path.write_bytes(struct.pack("<4sIIIQdd", b"TCPD", 1, scenes, dim, 0, 0.0, 0.0))
        with pytest.raises(DatasetFormatError, match=f"header dim {dim} at offset 12"):
            data.read_dataset(str(path))

    def test_largest_dim_header_is_read_as_truncated(self, tmp_path):
        path = tmp_path / "huge.tcpd"
        dim = data.MAX_DIM
        path.write_bytes(struct.pack("<4sIIIQdd", b"TCPD", 1, 1, dim, 0, 0.0, 0.0))
        assert 4 + 8 * dim <= 2**31 - 1 < 4 + 8 * (dim + 1)
        need = HEADER_SIZE + 4 + 8 * dim
        with pytest.raises(DatasetFormatError, match=f"truncated at offset 40: 1 records need {need} bytes"):
            data.read_dataset(str(path))

    @pytest.mark.parametrize("value, scene, slot", [(np.nan, 0, 0), (np.inf, 2, 4), (-np.inf, 3, 5)])
    def test_non_finite_value_names_first_offset(self, tmp_path, value, scene, slot):
        path = self.make_file(tmp_path)
        blob = bytearray(path.read_bytes())
        # 40-byte header; records are a uint32 id then 3 + 3 float32 values.
        offset = 40 + 28 * scene + 4 + 4 * slot
        struct.pack_into("<f", blob, offset, value)
        struct.pack_into("<f", blob, 40 + 28 * 3 + 4 + 4 * 5, np.nan)
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError, match=f"non-finite patch value at offset {offset}$"):
            data.read_dataset(str(path))


class TestSplit:
    def test_default_fraction_sizes(self):
        ds = data.generate(seed=15, scenes=100, dim=3, noise_sigma=0.1, distortion=0.1)
        train, held = data.split_train_heldout(ds)
        assert train.scene_count == 80
        assert held.scene_count == 20

    def test_blocks_are_disjoint_and_ordered(self):
        ds = data.generate(seed=16, scenes=25, dim=3, noise_sigma=0.1, distortion=0.1)
        train, held = data.split_train_heldout(ds)
        np.testing.assert_array_equal(
            np.concatenate([train.scene_ids, held.scene_ids]), ds.scene_ids
        )
        assert not set(train.scene_ids) & set(held.scene_ids)

    def test_both_halves_stay_nonempty(self):
        # 2 scenes at the 0.2 hold-out fraction would round to no held-out scene
        ds = data.generate(seed=17, scenes=2, dim=3, noise_sigma=0.1, distortion=0.1)
        train, held = data.split_train_heldout(ds)
        assert train.scene_count == 1
        assert held.scene_count == 1

    def test_subset_copies(self):
        ds = data.generate(seed=19, scenes=6, dim=3, noise_sigma=0.1, distortion=0.1)
        sub = data.subset(ds, np.array([1, 3]))
        sub.views_a[0, 0] = 99.0
        assert ds.views_a[1, 0] != 99.0


class TestSampleBatch:
    def test_rows_are_distinct_scenes(self):
        ds = data.generate(seed=20, scenes=30, dim=4, noise_sigma=0.1, distortion=0.1)
        sids, va, vp = data.sample_batch(ds, 12, np.random.default_rng(0))
        assert len(set(sids.tolist())) == 12
        assert va.shape == (12, 4)
        assert vp.shape == (12, 4)

    def test_rows_match_source_scenes(self):
        ds = data.generate(seed=21, scenes=20, dim=4, noise_sigma=0.1, distortion=0.1)
        sids, va, vp = data.sample_batch(ds, 8, np.random.default_rng(1))
        for sid, a, p in zip(sids, va, vp):
            pos = int(np.flatnonzero(ds.scene_ids == sid)[0])
            np.testing.assert_array_equal(a, ds.views_a[pos])
            np.testing.assert_array_equal(p, ds.views_p[pos])

    def test_deterministic_given_generator_state(self):
        ds = data.generate(seed=22, scenes=20, dim=4, noise_sigma=0.1, distortion=0.1)
        a = data.sample_batch(ds, 8, np.random.default_rng(7))
        b = data.sample_batch(ds, 8, np.random.default_rng(7))
        np.testing.assert_array_equal(a[0], b[0])

    def test_full_batch_is_a_permutation(self):
        ds = data.generate(seed=23, scenes=10, dim=4, noise_sigma=0.1, distortion=0.1)
        sids, _, _ = data.sample_batch(ds, 10, np.random.default_rng(2))
        assert sorted(sids.tolist()) == list(range(10))

    def test_oversized_batch_rejected(self):
        ds = data.generate(seed=24, scenes=5, dim=4, noise_sigma=0.1, distortion=0.1)
        with pytest.raises(InvalidArgumentError, match=r"\[1, 5\]"):
            data.sample_batch(ds, 6, np.random.default_rng(3))
        with pytest.raises(InvalidArgumentError):
            data.sample_batch(ds, 0, np.random.default_rng(3))

    def test_scene_frequencies_are_unbiased(self):
        # 10k batches of 10 from 50 scenes: each scene expects 2000 hits,
        # sd = sqrt(10000 * 0.2 * 0.8) = 40, so a 5 sigma band is +-200
        ds = data.generate(seed=25, scenes=50, dim=2, noise_sigma=0.1, distortion=0.1)
        rng = np.random.default_rng(4)
        counts = np.zeros(50, dtype=int)
        for _ in range(10_000):
            sids, _, _ = data.sample_batch(ds, 10, rng)
            counts[sids] += 1
        assert np.all(np.abs(counts - 2000) <= 200)

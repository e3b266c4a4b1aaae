"""Embedding network: forward contract, SGD arithmetic, checkpoint format."""

import struct

import numpy as np
import pytest

from dataclasses import replace

from topodesc import autodiff as ad
from topodesc import config, data, train
from topodesc import loss as L
from topodesc import net as nm
from topodesc.config import RunConfig
from topodesc.errors import DatasetFormatError, DegenerateDescriptorError, InvalidInputError

from recorded_loss import mul, sub, sum_
from recorded_net import recorded_forward


def fresh_net(widths=(6, 10, 4), seed=0, dtype=np.float64):
    return nm.init_net(widths, np.random.default_rng(seed), dtype=dtype)


class TestForward:
    def test_output_rows_unit_norm_double(self):
        net = fresh_net()
        x = np.random.default_rng(1).standard_normal((32, 6))
        d = nm.embed(net, x)
        assert d.dtype == np.float64
        np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-6)

    def test_output_rows_unit_norm_single(self):
        net = fresh_net(dtype=np.float32)
        x = np.random.default_rng(2).standard_normal((32, 6)).astype(np.float32)
        d = nm.embed(net, x)
        assert d.dtype == np.float32
        np.testing.assert_allclose(np.linalg.norm(d.astype(np.float64), axis=1), 1.0, atol=1e-6)

    def test_single_linear_identity_layer_normalizes_input(self):
        net = nm.EmbeddingNet(
            weights=[np.eye(3)],
            biases=[np.zeros(3)],
        )
        x = np.array([[3.0, 0.0, 4.0], [0.0, -2.0, 0.0]])
        d = nm.embed(net, x)
        np.testing.assert_allclose(d, x / np.linalg.norm(x, axis=1, keepdims=True), rtol=1e-15)

    def test_zero_row_through_bias_free_linear_net_is_degenerate(self):
        net = nm.EmbeddingNet(
            weights=[np.eye(3)],
            biases=[np.zeros(3)],
        )
        x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateDescriptorError, match="row 1"):
            nm.embed(net, x)

    def test_net_built_without_tags_applies_its_layers(self):
        swap = nm.EmbeddingNet(weights=[np.array([[0.0, 1.0], [1.0, 0.0]])], biases=[np.zeros(2)])
        np.testing.assert_array_equal(nm.embed(swap, np.array([[3.0, 4.0]])), [[0.8, 0.6]])
        rng = np.random.default_rng(20)
        weights = [rng.standard_normal((5, 3)), rng.standard_normal((2, 5))]
        biases = [rng.standard_normal(5), rng.standard_normal(2)]
        net = nm.EmbeddingNet(weights=weights, biases=biases)
        assert net.widths == (3, 5, 2)
        assert repr(net) == "EmbeddingNet(widths=(3, 5, 2))"
        assert net.activations == ("tanh", "linear")
        x = rng.standard_normal((4, 3))
        want = np.tanh(x @ weights[0].T + biases[0]) @ weights[1].T + biases[1]
        want /= np.linalg.norm(want, axis=1, keepdims=True)
        np.testing.assert_allclose(nm.embed(net, x), want, rtol=1e-12, atol=1e-15)

    def test_input_width_mismatch(self):
        net = fresh_net()
        with pytest.raises(InvalidInputError, match="shape"):
            nm.embed(net, np.zeros((4, 5)))

    def test_non_finite_input(self):
        net = fresh_net()
        x = np.zeros((4, 6))
        x[2, 1] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            nm.embed(net, x)

    def test_descriptor_vjp_with_itself_vanishes(self):
        # unit-sphere outputs make the Jacobian orthogonal to the descriptor,
        # so seeding backward with the descriptor itself must return ~zero
        net = fresh_net(widths=(6, 12, 8, 4), seed=3)
        x = np.random.default_rng(4).standard_normal((16, 6))
        tape = ad.Tape()
        leaves = nm.make_leaves(net, tape)
        desc = nm.forward(net, x, tape, leaves)
        ad.backward(tape, desc, adjoint=desc.value)
        worst = max(float(np.max(np.abs(t.grad))) for t in leaves.values() if t.grad is not None)
        assert worst <= 1e-8

    def test_shared_leaves_tie_the_two_branches(self):
        net = fresh_net(seed=5)
        rng = np.random.default_rng(6)
        xa = rng.standard_normal((8, 6))
        xp = rng.standard_normal((8, 6))
        tape = ad.Tape()
        leaves = nm.make_leaves(net, tape)
        da = nm.forward(net, xa, tape, leaves)
        dp = nm.forward(net, xp, tape, leaves)
        out = sum_(mul(sub(da, dp), sub(da, dp)))
        ad.backward(tape, out)
        assert all(t.grad is not None for t in leaves.values())


def loss_step(forward, net, xa, xp, lam, mode):
    """Descriptors, node count and leaf gradients of one step whose views come from forward."""
    cfg = RunConfig(k=3, topology_gradient_mode=mode)
    tape = ad.Tape()
    leaves = nm.make_leaves(net, tape)
    da = forward(net, xa, tape, leaves)
    dp = forward(net, xp, tape, leaves)
    structure = L.select_structure(da.value, dp.value, cfg)
    graph = L.build_loss_graph(da, dp, lam, cfg, structure, tape)
    ad.backward(tape, graph.loss)
    return (da.value, dp.value), len(tape.nodes), {name: t.grad for name, t in leaves.items()}


class TestFusedNodes:
    """One dense node per layer and one normalize_rows node against the op-by-op forward."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("widths", [(6, 10, 4), (6, 12, 9, 5), (6, 3), (6, 8, 1)])
    @pytest.mark.parametrize("lam, mode", [(1.0, "off"), (0.5, "through-weights")])
    def test_values_and_every_leaf_gradient_are_bitwise_equal(self, dtype, widths, lam, mode):
        rng = np.random.default_rng(sum(widths))
        net = fresh_net(widths, seed=len(widths), dtype=dtype)
        xa = rng.standard_normal((12, 6)).astype(dtype)
        xp = (xa + 0.3 * rng.standard_normal((12, 6))).astype(dtype)
        views, nodes, grads = loss_step(nm.forward, net, xa, xp, lam, mode)
        want_views, want_nodes, want_grads = loss_step(recorded_forward, net, xa, xp, lam, mode)
        for got, want in zip(views, want_views):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        layers = len(widths) - 1
        # per view: transpose, matmul, add and tanh per layer (no tanh on the
        # last) and four nodes to normalize, against one node each
        assert want_nodes - nodes == 2 * ((4 * layers - 1 + 4) - (layers + 1))
        assert grads.keys() == want_grads.keys()
        for name, got in grads.items():
            want = want_grads[name]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_training_run_is_bitwise_equal(self, monkeypatch, precision):
        ds = data.generate(6, 120, 8, 0.6, 0.3)
        cfg = replace(
            config.resolve_config("desk", {}, {"seed": 6}),
            net_widths=(8, 16, 6), batch_size=16, k=3, iterations=8, lambda_n0=3, lambda_N=2,
            precision=precision,
        )
        fused = train.run_training(cfg, ds)
        monkeypatch.setattr(nm, "forward", recorded_forward)
        monkeypatch.setattr(train, "_untraced_forward", recorded_forward)  # the positive view's pass
        recorded = train.run_training(cfg, ds)
        assert fused.rows == recorded.rows
        for got, want in zip(nm.parameters(fused.net).values(), nm.parameters(recorded.net).values()):
            assert got.tobytes() == want.tobytes()


class TestInit:
    def test_same_seed_is_deterministic(self):
        a = fresh_net(seed=7)
        b = fresh_net(seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            np.testing.assert_array_equal(ba, bb)

    def test_different_seeds_differ(self):
        a = fresh_net(seed=8)
        b = fresh_net(seed=9)
        assert any(not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))

    def test_bound_scales_with_fan_in(self):
        net = fresh_net(widths=(100, 50, 4), seed=10)
        assert np.max(np.abs(net.weights[0])) <= 1.0 / np.sqrt(100)
        assert np.max(np.abs(net.weights[1])) <= 1.0 / np.sqrt(50)

    def test_too_few_widths(self):
        with pytest.raises(InvalidInputError):
            nm.init_net((4,), np.random.default_rng(0))

    def test_parameter_bookkeeping(self):
        net = fresh_net(widths=(3, 5, 2))
        params = nm.parameters(net)
        assert list(params) == [
            "layer0.weight",
            "layer0.bias",
            "layer1.weight",
            "layer1.bias",
        ]
        own = [net.weights[0], net.biases[0], net.weights[1], net.biases[1]]
        assert all(p is a for p, a in zip(params.values(), own))  # the net's arrays, not copies


class TestSgdStep:
    def test_plain_step(self):
        net = fresh_net(widths=(2, 2), seed=11)
        before = [w.copy() for w in net.weights]
        g = {"layer0.weight": np.ones((2, 2)), "layer0.bias": np.zeros(2)}
        nm.sgd_step(net, g, lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_array_equal(net.weights[0], before[0] - 0.1)

    def test_zero_lr_is_identity(self):
        net = fresh_net(widths=(2, 3), seed=12)
        before = [w.copy() for w in net.weights] + [b.copy() for b in net.biases]
        g = {
            "layer0.weight": np.ones((3, 2)),
            "layer0.bias": np.ones(3),
        }
        nm.sgd_step(net, g, lr=0.0, momentum=0.9, weight_decay=0.01)
        after = [w for w in net.weights] + [b for b in net.biases]
        for x, y in zip(before, after):
            np.testing.assert_array_equal(x, y)

    def test_momentum_compounds_displacement(self):
        # constant gradient g for two steps: v1 = g, v2 = 1.9 g, total 2.9 lr g
        net = nm.EmbeddingNet(
            weights=[np.array([[10.0]])],
            biases=[np.array([0.0])],
        )
        g = {"layer0.weight": np.array([[1.0]]), "layer0.bias": np.array([0.0])}
        state = nm.sgd_step(net, g, lr=0.1, momentum=0.9, weight_decay=0.0)
        nm.sgd_step(net, g, lr=0.1, momentum=0.9, weight_decay=0.0, state=state)
        np.testing.assert_allclose(net.weights[0], 10.0 - 0.1 * 2.9, rtol=1e-15)

    def test_weight_decay_shrinks_parameters(self):
        net = nm.EmbeddingNet(
            weights=[np.array([[2.0]])],
            biases=[np.array([4.0])],
        )
        zero = {"layer0.weight": np.zeros((1, 1)), "layer0.bias": np.zeros(1)}
        nm.sgd_step(net, zero, lr=0.1, momentum=0.0, weight_decay=0.1)
        np.testing.assert_array_equal(net.weights[0], np.array([[2.0 - 0.1 * (0.1 * 2.0)]]))
        np.testing.assert_array_equal(net.biases[0], np.array([4.0 - 0.1 * (0.1 * 4.0)]))

    def test_gradient_shape_mismatch(self):
        net = fresh_net(widths=(2, 2), seed=13)
        g = {"layer0.weight": np.zeros((3, 3)), "layer0.bias": np.zeros(2)}
        with pytest.raises(InvalidInputError, match="layer0.weight"):
            nm.sgd_step(net, g, lr=0.1, momentum=0.0, weight_decay=0.0)

    def test_small_step_does_not_increase_loss(self):
        # one plain gradient step at lr=1e-4 on a fixed batch
        net = fresh_net(widths=(8, 16, 4), seed=14)
        rng = np.random.default_rng(15)
        xa = rng.standard_normal((24, 8))
        xp = xa + 0.05 * rng.standard_normal((24, 8))
        cfg = RunConfig(k=4)

        def loss_and_grads(do_backward):
            tape = ad.Tape()
            leaves = nm.make_leaves(net, tape)
            da = nm.forward(net, xa, tape, leaves)
            dp = nm.forward(net, xp, tape, leaves)
            structure = L.select_structure(da.value, dp.value, cfg)
            graph = L.build_loss_graph(da, dp, 0.5, cfg, structure, tape)
            if not do_backward:
                return float(graph.loss.value), None
            ad.backward(tape, graph.loss)
            grads = {
                name: (t.grad if t.grad is not None else np.zeros_like(t.value))
                for name, t in leaves.items()
            }
            return float(graph.loss.value), grads

        before, grads = loss_and_grads(do_backward=True)
        nm.sgd_step(net, grads, lr=1e-4, momentum=0.0, weight_decay=0.0)
        after, _ = loss_and_grads(do_backward=False)
        assert after <= before + 1e-9


class TestCheckpoint:
    def test_three_layer_net_embeds_the_same_after_reload(self, tmp_path):
        rng = np.random.default_rng(21)
        widths = (4, 6, 5, 3)
        net = nm.EmbeddingNet(
            weights=[rng.standard_normal((o, i)) for i, o in zip(widths[:-1], widths[1:])],
            biases=[rng.standard_normal(o) for o in widths[1:]],
        )
        path = tmp_path / "model.tcd1"
        nm.save_checkpoint(net, str(path))
        loaded = nm.load_checkpoint(str(path))
        x = rng.standard_normal((7, 4))
        np.testing.assert_array_equal(nm.embed(loaded, x), nm.embed(net, x))

    def test_hand_built_net_round_trips(self, tmp_path):
        # the widths come from the weight shapes, so a saved net always reloads
        rng = np.random.default_rng(23)
        net = nm.EmbeddingNet(weights=[rng.standard_normal((3, 2))], biases=[rng.standard_normal(3)])
        assert net.widths == (2, 3)
        path = tmp_path / "model.tcd1"
        nm.save_checkpoint(net, str(path))
        loaded = nm.load_checkpoint(str(path))
        assert loaded.widths == (2, 3)
        np.testing.assert_array_equal(loaded.weights[0], net.weights[0])
        np.testing.assert_array_equal(loaded.biases[0], net.biases[0])
        x = rng.standard_normal((4, 2))
        np.testing.assert_array_equal(nm.embed(loaded, x), nm.embed(net, x))

    def test_round_trip_bitwise(self, tmp_path):
        net = fresh_net(widths=(5, 9, 3), seed=16)
        path = tmp_path / "model.tcd1"
        nm.save_checkpoint(net, str(path))
        loaded = nm.load_checkpoint(str(path))
        assert loaded.widths == net.widths
        assert loaded.activations == net.activations
        for a, b in zip(loaded.weights, net.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.biases, net.biases):
            np.testing.assert_array_equal(a, b)

    def test_round_trip_preserves_single_precision_values(self, tmp_path):
        net = fresh_net(widths=(4, 6, 2), seed=17, dtype=np.float32)
        path = tmp_path / "model.tcd1"
        nm.save_checkpoint(net, str(path))
        loaded = nm.cast_net(nm.load_checkpoint(str(path)), np.float32)
        assert loaded.dtype == np.float32
        for a, b in zip(loaded.weights, net.weights):
            np.testing.assert_array_equal(a, b)

    def test_header_layout(self, tmp_path):
        net = fresh_net(widths=(3, 4, 2), seed=18)
        path = tmp_path / "model.tcd1"
        nm.save_checkpoint(net, str(path))
        blob = path.read_bytes()
        assert blob[:4] == b"TCD1"
        assert struct.unpack_from("<I", blob, 4)[0] == 3
        assert struct.unpack_from("<3I", blob, 8) == (3, 4, 2)
        payload = (3 * 4 + 4) + (4 * 2 + 2)
        assert len(blob) == 8 + 12 + 8 * payload

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tcd1"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DatasetFormatError, match="offset 0"):
            nm.load_checkpoint(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.tcd1"
        path.write_bytes(b"TCD1\x02")
        with pytest.raises(DatasetFormatError, match="truncated at offset 5"):
            nm.load_checkpoint(str(path))

    def test_truncated_payload_names_offset(self, tmp_path):
        net = fresh_net(widths=(3, 2), seed=19)
        path = tmp_path / "model.tcd1"
        nm.save_checkpoint(net, str(path))
        blob = path.read_bytes()
        (tmp_path / "cut.tcd1").write_bytes(blob[:-8])
        with pytest.raises(DatasetFormatError, match=f"truncated at offset {len(blob) - 8}"):
            nm.load_checkpoint(str(tmp_path / "cut.tcd1"))

    def test_trailing_bytes_rejected(self, tmp_path):
        net = fresh_net(widths=(3, 2), seed=20)
        path = tmp_path / "model.tcd1"
        nm.save_checkpoint(net, str(path))
        blob = path.read_bytes()
        (tmp_path / "fat.tcd1").write_bytes(blob + b"\x00")
        with pytest.raises(DatasetFormatError, match=f"trailing bytes at offset {len(blob)}"):
            nm.load_checkpoint(str(tmp_path / "fat.tcd1"))

    def test_single_width_rejected(self, tmp_path):
        path = tmp_path / "bad.tcd1"
        path.write_bytes(b"TCD1" + struct.pack("<I", 1) + struct.pack("<I", 4))
        with pytest.raises(DatasetFormatError, match="need >= 2"):
            nm.load_checkpoint(str(path))

    def test_zero_width_rejected(self, tmp_path):
        path = tmp_path / "bad.tcd1"
        path.write_bytes(b"TCD1" + struct.pack("<I", 2) + struct.pack("<2I", 4, 0))
        with pytest.raises(DatasetFormatError, match="zero layer width"):
            nm.load_checkpoint(str(path))

    @pytest.mark.parametrize("value, index", [(np.inf, 0), (-np.inf, 13), (np.nan, 19)])
    def test_non_finite_parameter_names_first_offset(self, tmp_path, value, index):
        net = fresh_net(widths=(3, 4, 2), seed=22)
        path = tmp_path / "model.tcd1"
        nm.save_checkpoint(net, str(path))
        blob = bytearray(path.read_bytes())
        offset = 8 + 12 + 8 * index  # parameter index in file order: W0, b0, W1, b1
        struct.pack_into("<d", blob, offset, value)
        struct.pack_into("<d", blob, len(blob) - 8, np.inf)
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError, match=f"non-finite parameter at offset {offset}$"):
            nm.load_checkpoint(str(path))


class TestCast:
    def test_cast_round_trip(self):
        net = fresh_net(widths=(4, 4), seed=21)
        single = nm.cast_net(net, np.float32)
        assert single.dtype == np.float32
        back = nm.cast_net(single, np.float64)
        np.testing.assert_allclose(back.weights[0], net.weights[0], rtol=1e-7)

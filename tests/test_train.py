"""Training loop determinism, schedule plumbing, and the CSV log."""

import csv
import gc
from dataclasses import replace

import numpy as np
import pytest

from topodesc import autodiff, data, train
from topodesc.config import RunConfig
from topodesc.errors import InvalidArgumentError
from topodesc.loss import resolve_lambda
from topodesc.net import embed


def tiny_dataset(seed=0, scenes=40, dim=6):
    return data.generate(seed=seed, scenes=scenes, dim=dim, noise_sigma=0.05, distortion=0.2)


def tiny_config(**kw):
    base = dict(
        net_widths=(6, 16, 8),
        batch_size=8,
        iterations=12,
        k=3,
        lambda_n0=4,
        lambda_N=2,
        seed=1,
    )
    base.update(kw)
    return RunConfig(**base)


class TestLearningRate:
    def test_endpoints(self):
        cfg = RunConfig(lr_start=0.1, lr_end=0.0)
        assert train.learning_rate(0, cfg) == 0.1
        assert train.learning_rate(cfg.iterations, cfg) == 0.0

    def test_midpoint(self):
        cfg = RunConfig(lr_start=0.2, lr_end=0.1, iterations=100)
        assert train.learning_rate(50, cfg) == pytest.approx(0.15, abs=1e-15)

    def test_constant_when_equal(self):
        cfg = RunConfig(lr_start=0.05, lr_end=0.05)
        assert train.learning_rate(1234, cfg) == 0.05


class TestResolveLambda:
    """A run's lambda_mode is checked when its config is built, before any λ is resolved."""

    def test_fixed_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            tiny_config(lambda_mode="fixed:1.5")

    def test_unknown_mode(self):
        with pytest.raises(InvalidArgumentError, match="lambda_mode"):
            tiny_config(lambda_mode="sometimes")


class TestRunTraining:
    def test_produces_one_row_per_iteration(self):
        result = train.run_training(tiny_config(), dataset=tiny_dataset())
        assert len(result.rows) == 12
        assert all(np.isfinite(r.loss) for r in result.rows)
        assert result.net.widths == (6, 16, 8)

    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_repeat_run_is_bit_identical(self, precision):
        ds = tiny_dataset()
        cfg = tiny_config(precision=precision)
        a = train.run_training(cfg, dataset=ds)
        b = train.run_training(cfg, dataset=ds)
        assert a.net.weights[0].dtype == cfg.dtype()
        for wa, wb in zip(a.net.weights, b.net.weights):
            np.testing.assert_array_equal(wa, wb)
        assert [r.loss for r in a.rows] == [r.loss for r in b.rows]

    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_fixed_half_lambda_through_weights_is_bit_identical(self, precision):
        # lambda 0.5 from the first step: every update carries the gradient
        # through the fused affine fit
        ds = tiny_dataset()
        cfg = tiny_config(
            precision=precision, lambda_mode="fixed:0.5", topology_gradient_mode="through-weights"
        )
        a = train.run_training(cfg, dataset=ds)
        b = train.run_training(cfg, dataset=ds)
        for wa, wb in zip(a.net.weights + a.net.biases, b.net.weights + b.net.biases):
            np.testing.assert_array_equal(wa, wb)
        assert a.rows == b.rows
        detached = train.run_training(replace(cfg, topology_gradient_mode="detached"), dataset=ds)
        assert not np.array_equal(a.net.weights[0], detached.net.weights[0])

    def test_seed_changes_the_run(self):
        ds = tiny_dataset()
        a = train.run_training(tiny_config(seed=1), dataset=ds)
        b = train.run_training(tiny_config(seed=2), dataset=ds)
        assert [r.loss for r in a.rows] != [r.loss for r in b.rows]

    def test_lambda_column_follows_schedule(self):
        result = train.run_training(tiny_config(), dataset=tiny_dataset())
        cfg = tiny_config()
        from topodesc.loss import lambda_schedule

        for i, row in enumerate(result.rows):
            assert row.lam == lambda_schedule(i, cfg)

    def test_lambda_column_is_the_resolved_lambda(self):
        for cfg in (tiny_config(lambda_mode="fixed:0.5"), tiny_config(topology_gradient_mode="off")):
            result = train.run_training(cfg, dataset=tiny_dataset())
            assert [row.lam for row in result.rows] == [
                resolve_lambda(i, cfg) for i in range(cfg.iterations)
            ]

    def test_training_improves_the_loss(self):
        cfg = tiny_config(iterations=80, seed=3)
        result = train.run_training(cfg, dataset=tiny_dataset(seed=1, scenes=60))
        head = np.mean([r.loss for r in result.rows[:10]])
        tail = np.mean([r.loss for r in result.rows[-10:]])
        assert tail < head

    def test_trained_descriptors_stay_unit_norm(self):
        ds = tiny_dataset()
        result = train.run_training(tiny_config(), dataset=ds)
        d = embed(result.net, ds.views_a[:16])
        np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-6)

    def test_width_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError, match="dataset dim"):
            train.run_training(tiny_config(net_widths=(5, 8, 4)), dataset=tiny_dataset())

    def test_divergence_reports_last_good_iteration(self):
        cfg = tiny_config(lr_start=1e300, lr_end=1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(train.TrainingDivergenceError) as info:
                train.run_training(cfg, dataset=tiny_dataset())
        assert info.value.last_good_iteration == 0

    def test_each_step_frees_its_graph_without_the_collector(self):
        def live_tensors():
            return sum(isinstance(o, autodiff.Tensor) for o in gc.get_objects())

        gc.collect()
        before = live_tensors()
        gc.disable()
        try:
            train.run_training(tiny_config(iterations=3), dataset=tiny_dataset())
            after = live_tensors()
        finally:
            gc.enable()
        assert after == before

    def test_batch_larger_than_train_split_rejected(self):
        ds = tiny_dataset(scenes=10)  # train split keeps 8 scenes
        with pytest.raises(InvalidArgumentError, match="batch_size"):
            train.run_training(tiny_config(batch_size=9), dataset=ds)


class TestLog:
    def test_header_and_round_trip(self, tmp_path):
        result = train.run_training(tiny_config(), dataset=tiny_dataset())
        path = tmp_path / "train_log.csv"
        train.write_log(result.rows, str(path))
        first = path.read_text().splitlines()[0]
        assert first == "iteration,lambda,loss,mean_d_pos_euclid,mean_d_pos_topo,mean_d_neg,active_triplets"
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == len(result.rows)
        for i, (row, rep) in enumerate(zip(back, result.rows)):
            assert int(row["iteration"]) == i
            # repr-encoded floats survive the round trip exactly
            assert float(row["loss"]) == rep.loss
            assert float(row["lambda"]) == rep.lam
            assert float(row["mean_d_neg"]) == rep.mean_d_neg
            assert int(row["active_triplets"]) == rep.active_triplets

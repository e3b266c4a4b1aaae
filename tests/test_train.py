"""Training loop determinism, schedule plumbing, and the CSV log."""

import csv
import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from topodesc import _rows, autodiff, config, data, train
from topodesc import loss as lossmod
from topodesc import net as netmod
from topodesc.config import RunConfig
from topodesc.errors import DegenerateDescriptorError, InvalidArgumentError
from topodesc.loss import resolve_lambda
from topodesc.net import embed

from recorded_loss import recorded_fit_loss_graph
from recorded_net import recorded_step, swept_node_counts


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

    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_run_crossing_lambda_n0_matches_the_recorded_fit(self, precision, monkeypatch):
        # steps 0-4 run at lambda = 1 with the fit off the tape, steps 5-11 below
        # it with the fit recorded; the oracle records the fit at every step
        ds = tiny_dataset()
        cfg = tiny_config(precision=precision)
        assert [resolve_lambda(i, cfg) for i in (4, 5)] == [1.0, 1.0 - cfg.lambda_r]
        got = train.run_training(cfg, dataset=ds)
        monkeypatch.setattr(lossmod, "build_loss_graph", recorded_fit_loss_graph)
        want = train.run_training(cfg, dataset=ds)
        for a, b in zip(got.net.weights + got.net.biases, want.net.weights + want.net.biases):
            assert a.tobytes() == b.tobytes()
        assert got.rows == want.rows

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

    def test_non_finite_loss_ends_the_run_before_its_update(self, monkeypatch):
        build = lossmod.build_loss_graph
        built = []

        def nan_at_step_3(*args):
            graph = build(*args)
            if len(built) == 3:
                graph.loss.value = np.full_like(graph.loss.value, np.nan)
            built.append(graph.loss.value)
            return graph

        monkeypatch.setattr(lossmod, "build_loss_graph", nan_at_step_3)
        steps = recording_steps(monkeypatch)
        with pytest.raises(train.TrainingDivergenceError) as info:
            train.run_training(tiny_config(), dataset=tiny_dataset())
        assert str(info.value) == "loss is nan"
        assert isinstance(info.value.__cause__, FloatingPointError)
        assert info.value.last_good_iteration == 2
        assert len(built) == 4 and len(steps) == 3  # no SGD step for iteration 3

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

    @pytest.mark.parametrize("lambda_mode", ["dynamic", "fixed:0.5"])
    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_each_step_is_freed_before_the_next_one_selects(self, precision, lambda_mode, monkeypatch):
        # dynamic runs steps 0-4 at lambda = 1 and 5-11 below it; fixed:0.5 all below
        select, build = lossmod.select_structure, lossmod.build_loss_graph
        held = []  # weak references to the last step's structure and graph
        calls = []

        def selecting(va, vp, cfg):
            assert all(ref() is None for ref in held), f"step {len(calls) - 1} is still alive"
            calls.append(None)
            structure = select(va, vp, cfg)
            held[:] = [weakref.ref(structure)]
            return structure

        def building(*args):
            graph = build(*args)
            held.append(weakref.ref(graph))
            return graph

        monkeypatch.setattr(lossmod, "select_structure", selecting)
        monkeypatch.setattr(lossmod, "build_loss_graph", building)
        cfg = tiny_config(precision=precision, lambda_mode=lambda_mode)
        gc.collect()
        gc.disable()  # freed by reference counts alone, not by a collection
        try:
            train.run_training(cfg, dataset=tiny_dataset())
        finally:
            gc.enable()
        assert len(calls) == cfg.iterations

    @pytest.mark.parametrize(
        "lambda_mode, ceiling_mib",
        # traced peaks in this order on a 2-CPU x86_64 VM: 17.8 MiB (36.2 before each
        # step was freed before the next, with bool union indicators) and 38.7 MiB (82.2)
        [("dynamic", 24), ("fixed:0.5", 52)],
    )
    def test_paper_step_memory_ceiling(self, lambda_mode, ceiling_mib):
        ds = data.generate(2, 2048, 16, 0.6, 0.3)
        cfg = config.resolve_config(
            "paper", {},
            {"seed": 2, "iterations": 4, "net_widths": (16, 64, 64, 32), "lambda_mode": lambda_mode},
        )
        assert cfg.batch_size == 1024 and cfg.k == 20
        tracemalloc.start()
        try:
            train.run_training(cfg, dataset=ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ceiling_mib * 2**20, f"traced peak {peak / 2**20:.1f} MiB"

    def test_batch_larger_than_train_split_rejected(self):
        ds = tiny_dataset(scenes=10)  # train split keeps 8 scenes
        with pytest.raises(InvalidArgumentError, match="batch_size"):
            train.run_training(tiny_config(batch_size=9), dataset=ds)


def assert_same_weights(a, b):
    for wa, wb in zip(a.net.weights + a.net.biases, b.net.weights + b.net.biases):
        assert wa.tobytes() == wb.tobytes()


class TestTopologyReportEvery:
    """λ = 1 steps between d_T reports train as "off" steps, to the same bits."""

    @pytest.mark.parametrize("mode", ["through-weights", "detached"])
    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_skipped_steps_leave_weights_and_rows_unchanged(self, precision, mode):
        # steps 0-4 run at λ = 1, steps 5-11 below it; 1, 2 and 4 skip d_T
        ds = tiny_dataset()
        every = tiny_config(precision=precision, topology_gradient_mode=mode)
        sparse = replace(every, topology_report_every=3)
        assert [resolve_lambda(i, every) for i in (4, 5)] == [1.0, 1.0 - every.lambda_r]
        want = train.run_training(every, dataset=ds)
        got = train.run_training(sparse, dataset=ds)
        assert_same_weights(got, want)
        skipped = []
        for i, (g, w) in enumerate(zip(got.rows, want.rows)):
            if w.lam == 1.0 and i % 3 != 0:
                skipped.append(i)
                assert math.isnan(g.mean_d_pos_topo)
                assert replace(g, mean_d_pos_topo=w.mean_d_pos_topo) == w
            else:
                assert g == w
                assert math.isfinite(g.mean_d_pos_topo) and g.mean_d_pos_topo > 0.0
        assert skipped == [1, 2, 4]

    def test_off_mode_keeps_reporting_zero(self):
        cfg = tiny_config(topology_gradient_mode="off", topology_report_every=3)
        result = train.run_training(cfg, dataset=tiny_dataset())
        assert [r.mean_d_pos_topo for r in result.rows] == [0.0] * cfg.iterations

    @pytest.mark.parametrize("mode", ["through-weights", "detached"])
    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_off_and_fixed_one_train_identical_weights(self, precision, mode):
        ds = tiny_dataset()
        off = train.run_training(
            tiny_config(precision=precision, topology_gradient_mode="off"), dataset=ds
        )
        fixed = train.run_training(
            tiny_config(precision=precision, topology_gradient_mode=mode, lambda_mode="fixed:1.0"),
            dataset=ds,
        )
        assert_same_weights(off, fixed)
        assert [replace(r, mean_d_pos_topo=0.0) for r in fixed.rows] == off.rows


VIEW_BATCH = 2 * _rows.MIN_PART + 5  # the smallest batches that run the views side by side


def recording_steps(monkeypatch):
    """Copies of the gradients each step hands to sgd_step, in step order."""
    steps = []
    sgd_step = netmod.sgd_step

    def recording(net, grads, *args):
        steps.append({name: g.copy() for name, g in grads.items()})
        return sgd_step(net, grads, *args)

    monkeypatch.setattr(netmod, "sgd_step", recording)
    return steps


def trained_on_cpus(monkeypatch, cpus, cfg, ds, oracle=False):
    """(net, rows, each step's gradients) of a run with _rows seeing `cpus` CPUs."""
    with monkeypatch.context() as m:
        m.setattr(_rows, "_cpus", lambda: cpus)
        steps = recording_steps(m)
        if oracle:  # one op-by-op tape, whose shared leaves sum the two views' gradients
            m.setattr(train, "run_step", lambda *args: recorded_step(*args)[0])
        result = train.run_training(cfg, ds)
    return result.net, result.rows, steps


class TestViewPasses:
    """Each view's net forward and backward, side by side above the split threshold."""

    @pytest.mark.parametrize(
        "mode, lambda_mode",
        [("off", "dynamic"), ("through-weights", "fixed:0.5"), ("detached", "fixed:0.5")],
    )
    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_match_the_one_tape_sweep_bitwise(self, monkeypatch, precision, mode, lambda_mode):
        ds = data.generate(6, 2 * VIEW_BATCH, 6, 0.6, 0.3)
        cfg = tiny_config(
            precision=precision, topology_gradient_mode=mode, lambda_mode=lambda_mode,
            batch_size=VIEW_BATCH, k=5, iterations=8,
        )
        runs = [
            trained_on_cpus(monkeypatch, 2, cfg, ds),
            trained_on_cpus(monkeypatch, 1, cfg, ds),
            trained_on_cpus(monkeypatch, 1, cfg, ds, oracle=True),
        ]
        (net, rows, steps) = runs[0]
        assert len(steps) == cfg.iterations
        for other_net, other_rows, other_steps in runs[1:]:
            assert other_rows == rows
            for got, want in zip(steps, other_steps):
                assert got.keys() == want.keys() == set(netmod.parameters(net))
                for name in got:
                    assert got[name].dtype == want[name].dtype == cfg.dtype()
                    assert got[name].tobytes() == want[name].tobytes(), name
            for a, b in zip(net.weights + net.biases, other_net.weights + other_net.biases):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_the_anchor_views_error_wins_when_both_views_degenerate(self, monkeypatch, cpus):
        # through one linear layer, huge patches overflow the descriptors' squared
        # norms: the anchor view's first such row is 0, the positive view's row 1
        ds = data.generate(7, 2 * VIEW_BATCH, 6, 0.6, 0.3)
        sample_batch = data.sample_batch

        def degenerate(*args):
            ids, batch_a, batch_p = sample_batch(*args)
            batch_a[:] = 1e300
            batch_p[1:] = 1e300
            return ids, batch_a, batch_p

        monkeypatch.setattr(_rows, "_cpus", lambda: cpus)
        monkeypatch.setattr(data, "sample_batch", degenerate)
        cfg = tiny_config(net_widths=(6, 8), batch_size=VIEW_BATCH, k=5, iterations=2)
        with np.errstate(over="ignore"), pytest.raises(train.TrainingDivergenceError) as info:
            train.run_training(cfg, ds)
        assert str(info.value) == "non-finite descriptor at row 0"
        assert isinstance(info.value.__cause__, DegenerateDescriptorError)
        assert info.value.last_good_iteration == -1


class TestStepTape:
    """The step's tape records the loss head only; the net passes run off it."""

    @pytest.mark.parametrize(
        "settings, nodes",
        [
            ({"topology_gradient_mode": "off"}, 2),
            # lambda = 1 until iteration 4: the steps between reports run as "off" steps
            ({"topology_report_every": 3, "iterations": 4}, 2),
            ({"lambda_mode": "fixed:1.0"}, 2),
            ({"topology_gradient_mode": "detached", "lambda_mode": "fixed:0.5"}, 2),
            # pair distances, the two views' fits, d_T and the hinge
            ({"lambda_mode": "fixed:0.5"}, 5),
        ],
        ids=["off", "plain", "lambda-one", "detached", "through-weights"],
    )
    def test_node_count(self, monkeypatch, settings, nodes):
        cfg = tiny_config(**settings)
        counts = swept_node_counts(monkeypatch)
        train.run_training(cfg, dataset=tiny_dataset())
        assert counts == [nodes] * cfg.iterations


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
            assert float(row["mean_d_pos_topo"]) == rep.mean_d_pos_topo
            assert int(row["iteration"]) == i
            # repr-encoded floats survive the round trip exactly
            assert float(row["loss"]) == rep.loss
            assert float(row["lambda"]) == rep.lam
            assert float(row["mean_d_neg"]) == rep.mean_d_neg
            assert int(row["active_triplets"]) == rep.active_triplets

    def test_skipped_d_t_reads_back_as_nan(self, tmp_path):
        result = train.run_training(tiny_config(topology_report_every=3), dataset=tiny_dataset())
        path = tmp_path / "train_log.csv"
        train.write_log(result.rows, str(path))
        with open(path, newline="") as fh:
            back = [row["mean_d_pos_topo"] for row in csv.DictReader(fh)]
        assert back[1] == "nan" and math.isnan(float(back[1]))
        assert float(back[0]) == result.rows[0].mean_d_pos_topo

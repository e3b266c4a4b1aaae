"""What the benchmark under perfbench/ reads from the package, checked in process.

perfbench's tracer wraps package functions by module attribute and reads
fields of their arguments and results; its output check recomputes the
first step's mean topology distance on its own. This loads tracing.py and
checks.py as they are and runs one tiny traced training run, writing no
files.
"""

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import pytest

from topodesc import _rows, config, data, loss, train

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
checks = load("checks")


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracing.WRAPPED])
def test_every_wrapped_attribute_exists(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def traced_run_passes_the_checks(monkeypatch, ds, cfg):
    """Train cfg under the tracer: no span errors, and the scalar d_T check holds."""
    captured = []
    select = loss.select_structure

    def capture(va, vp, loss_cfg):
        captured.append((va.copy(), vp.copy()))
        return select(va, vp, loss_cfg)

    monkeypatch.setattr(loss, "select_structure", capture)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = train.run_training(cfg, ds)
    finally:
        tracer.uninstall()
    assert loss.select_structure is capture  # uninstall put back what it found

    names = [s.name for s in tracer.spans]
    assert names.count("train.step") == cfg.iterations
    for name in ("loss.select_structure", "loss.build_loss_graph", "autodiff.backward"):
        assert names.count(name) == cfg.iterations, name
    # the miner works on the dot products: a training step forms no distance matrix
    assert names.count("knn.pairwise_distances") == 0
    # one span per view of each step that reports d_T: no split part calls a wrapped name
    reporting = [
        i for i in range(cfg.iterations)
        if loss.resolve_lambda(i, cfg) < 1.0 or i % cfg.topology_report_every == 0
    ]
    assert [i for i, r in enumerate(result.rows) if not math.isnan(r.mean_d_pos_topo)] == reporting
    assert names.count("knn.neighbor_index_matrix") == 2 * len(reporting)
    assert not any(s.error for s in tracer.spans)

    va, vp = captured[0]
    want = result.rows[0].mean_d_pos_topo
    got = checks.scalar_mean_topology_distance(va, vp, cfg.k)
    assert want > 0.0
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (got, want)


def test_traced_run_and_scalar_topology_check(monkeypatch):
    ds = data.generate(3, 48, 6, 0.6, 0.3)
    cfg = replace(
        config.resolve_config("desk", {}, {"seed": 3}),
        net_widths=(6, 12, 8),
        batch_size=16,
        k=4,
        iterations=2,
    )
    traced_run_passes_the_checks(monkeypatch, ds, cfg)


def test_traced_run_split_across_threads(monkeypatch):
    """A batch above the split threshold runs its per-row kernels on two threads."""
    monkeypatch.setattr(_rows, "_cpus", lambda: 2)
    batch = 2 * _rows.MIN_PART + 5
    ds = data.generate(4, 2 * batch, 6, 0.6, 0.3)
    cfg = replace(
        config.resolve_config("desk", {}, {"seed": 4}),
        net_widths=(6, 12, 8),
        batch_size=batch,
        k=5,
        iterations=2,
        lambda_mode="fixed:0.5",
    )
    traced_run_passes_the_checks(monkeypatch, ds, cfg)


def test_traced_run_skipping_d_t_between_reports(monkeypatch):
    """perfbench's traced paper-step: λ = 1 steps that skip the topology term."""
    ds = data.generate(5, 48, 6, 0.6, 0.3)
    cfg = replace(
        config.resolve_config("paper", {}, {"seed": 5}),
        net_widths=(6, 12, 8),
        batch_size=16,
        k=4,
        iterations=4,
    )
    assert cfg.topology_report_every > cfg.iterations
    traced_run_passes_the_checks(monkeypatch, ds, cfg)

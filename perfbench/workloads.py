"""The benchmark workloads: set-up, timed loop and output checks.

Every input comes from the workload seed: the dataset through
``data.generate`` and the net through the training seed. A workload is a
closed loop with one caller: the next training step starts when the
previous one returns. Why each workload exists, with the sizing behind
it, is in ``WORKLOADS`` and in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from topodesc import cli, config, data, loss, net, train

import checks as ck
from tracing import StepClock, Tracer

# noise 0.6 keeps held-out FPR95 and mAP away from 0 and 1, so the eval
# oracle compares ranks that matter; at the README's 0.05 an untrained net
# already scores mAP = 1.
DIM, NOISE, DISTORTION = 16, 0.6, 0.3
NET_WIDTHS = (16, 64, 64, 32)
NEGATIVES_PER_POSITIVE = 10
SETUP_REPS = 5  # before the timed loop; SETUP_REPS_BETWEEN more follow every call
SETUP_REPS_BETWEEN = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenes: int
    preset: str  # training preset
    iterations: int  # iterations per run_training call
    tail_pct: float  # about the highest percentile with >= 10 samples beyond it


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-train",
            "n=64, k=8, 512 scenes, 12-20 ms/step: per-anchor scipy Cholesky (fwd+bwd ~9 ms) "
            "leads, kNN ~2.5 ms; where a batched affine-fit kernel shows.",
            scenes=512,
            preset="desk",
            iterations=100,
            tail_pct=99.5,
        ),
        Workload(
            "paper-step",
            "n=1024, k=20, 4096 scenes, ~600 ms/step: per-row argsort kNN ~260 ms, solve ~165 ms; "
            "~120 MB/step of tape waits for gen-2 GC (3 GB peak); where vectorized kNN shows.",
            scenes=4096,
            preset="paper",
            iterations=4,
            tail_pct=85.0,
        ),
    )
}


@dataclass
class Inputs:
    dataset_path: str
    dataset: data.DatasetFile
    cfg: config.RunConfig


@dataclass
class Outcome:
    """What the timed loop measured, plus the attempted and failed counts."""

    op_ms: list[float]
    loop_s: float
    pairs: int
    peak_rss_mb: float
    attempted: int
    failed: int
    details: dict


def setup(wl: Workload, seed: int, workdir: str) -> Inputs:
    """Write the workload's files and load what the timed loop needs."""
    ds_path = os.path.join(workdir, "data.tcpd")
    ds = data.generate(seed, wl.scenes, DIM, NOISE, DISTORTION)
    data.write_dataset(ds, ds_path)
    cfg = config.resolve_config(
        wl.preset,
        {},
        {"seed": seed, "iterations": wl.iterations, "net_widths": NET_WIDTHS, "dataset": ds_path},
    )
    return Inputs(ds_path, dataset=data.read_dataset(ds_path), cfg=cfg)


def timed_setup(wl: Workload, seed: int, workdir: str, tracer: Tracer | None, reps: int):
    """Run set-up reps times; return the last inputs and each rep's seconds."""
    times = []
    for _ in range(reps):
        with _traced(tracer, "setup"):
            t0 = perf_counter()
            inputs = setup(wl, seed, workdir)
            times.append(perf_counter() - t0)
    return inputs, times


@contextlib.contextmanager
def _traced(tracer: Tracer | None, phase: str):
    if tracer is None:
        yield
        return
    tracer.phase = phase
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_eval(argv: list[str], tracer: Tracer | None) -> tuple[int, str]:
    """In-process ``topodesc eval``; a tracer records the call as a cli.eval span."""
    out = io.StringIO()
    span = tracer.open("cli.eval") if tracer is not None else None
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    finally:
        if span is not None:
            tracer.close(span)
    return rc, out.getvalue()


def run_training_workload(
    wl: Workload, inputs: Inputs, seed: int, seconds: float, tracer: Tracer | None, workdir: str,
    between,
) -> Outcome:
    """Repeat run_training with the same config until the time is up.

    Every call trains the same net on the same batches, so all calls must end
    with bit-identical weights. With a tracer, odd-numbered calls are traced
    and even-numbered ones give the untraced comparison. ``between()`` runs
    after every call, outside the timed interval.
    """
    cfg, ds = inputs.cfg, inputs.dataset
    results = ck.Checks()

    # Untimed first: one iteration with the step's descriptors captured. It
    # also warms caches and lazy imports before timing starts.
    captured = []
    select = loss.select_structure

    def capture(va, vp, loss_cfg):
        captured.append((va.copy(), vp.copy()))
        return select(va, vp, loss_cfg)

    loss.select_structure = capture
    try:
        first = train.run_training(replace(cfg, iterations=1), ds)
    finally:
        loss.select_structure = select

    # Each run starts timing from the same collector state, whatever set-up
    # left behind; otherwise the step at which reference cycles of old tapes
    # are first collected, and with it peak memory, shifts between runs.
    gc.collect()
    clock = StepClock()
    op_ms, digests = [], set()
    loop_s, pairs, attempted, diverged, nonfinite = 0.0, 0, 0, 0, 0
    first_rows_match = True
    final = None
    deadline = perf_counter() + seconds
    try:
        calls = 0
        while perf_counter() < deadline or (tracer is not None and calls < 2):
            traced = tracer is not None and calls % 2 == 1
            calls += 1
            try:
                with _traced(tracer if traced else None, "timed"):
                    result, secs, steps = clock.run(train.run_training, cfg, ds)
            except train.TrainingDivergenceError:
                attempted += clock.started
                diverged += 1
                continue
            finally:
                between()
            attempted += len(steps)
            nonfinite += sum(1 for r in result.rows if not np.isfinite(r.loss))
            digests.add((ck.weights_digest(result.net), ck.rows_digest(result.rows)))
            first_rows_match &= result.rows[0] == first.rows[0]
            final = result
            if traced:
                continue
            op_ms.extend(1e3 * s for s in steps)
            loop_s += secs
            pairs += cfg.batch_size * len(steps)
    finally:
        clock.close()
    peak = _peak_rss_mb()

    results.check("every step's loss is finite", nonfinite == 0, f"{nonfinite} non-finite losses")
    results.check(
        "repeats give bit-identical weights and loss rows",
        len(digests) == 1 and first_rows_match,
        f"{len(digests)} distinct digests; first rows match: {first_rows_match}",
    )
    with _traced(tracer, "check"):
        va, vp = captured[0]
        ck.unit_norm_ok(results, "first-step descriptors are unit-norm (anchor)", va)
        ck.unit_norm_ok(results, "first-step descriptors are unit-norm (positive)", vp)
        want = first.rows[0].mean_d_pos_topo
        got = ck.scalar_mean_topology_distance(va, vp, cfg.k)
        results.check(
            "first-step mean_d_pos_topo matches the scalar topology path",
            abs(got - want) <= 1e-9 * max(1.0, abs(want)),
            f"graph {want!r} vs scalar {got!r}",
        )
        heldout = _heldout_eval(inputs, final, seed, workdir, results, tracer) if final else {}

    weights, rows = next(iter(digests)) if len(digests) == 1 else (None, None)
    return Outcome(
        op_ms=op_ms,
        loop_s=loop_s,
        pairs=pairs,
        peak_rss_mb=peak,
        attempted=attempted + len(results.results),
        failed=diverged + results.failed,
        details={
            "batch_size": cfg.batch_size,
            "k": cfg.k,
            "iterations_per_call": cfg.iterations,
            "weights_digest": weights,
            "loss_rows_digest": rows,
            "first_step_mean_d_pos_topo": first.rows[0].mean_d_pos_topo,
            **heldout,
            "checks": results.results,
        },
    )


def _heldout_eval(
    inputs: Inputs, result, seed: int, workdir: str, results: ck.Checks, tracer: Tracer | None
) -> dict:
    """Untimed ``eval --split heldout`` of the trained net, checked by the oracle."""
    ck_path = os.path.join(workdir, "trained.tcd1")
    net.save_checkpoint(result.net, ck_path)
    rc, text = _run_eval(
        ["eval", "--checkpoint", ck_path, "--dataset", inputs.dataset_path,
         "--split", "heldout", "--seed", str(seed)],
        tracer,
    )
    if not results.check("held-out eval exits 0", rc == 0, f"exit {rc}"):
        return {}
    fpr, mean_ap = ck.parse_eval_output(text)
    trained = net.load_checkpoint(ck_path)
    _, held = data.split_train_heldout(inputs.dataset)
    desc_a, desc_p = net.embed(trained, held.views_a), net.embed(trained, held.views_p)
    ck.unit_norm_ok(results, "held-out descriptors are unit-norm", np.vstack([desc_a, desc_p]))
    want_fpr, want_map = ck.eval_oracle(desc_a, desc_p, NEGATIVES_PER_POSITIVE, seed)
    results.check(
        "held-out fpr95 and mAP match the oracle",
        abs(fpr - want_fpr) <= 1e-12 and abs(mean_ap - want_map) <= 1e-12,
        f"eval ({fpr!r}, {mean_ap!r}) vs oracle ({want_fpr!r}, {want_map!r})",
    )
    return {"heldout_fpr95": fpr, "heldout_map": mean_ap}

"""Spans around topodesc's public functions, recorded from outside the package.

Wrapping works by replacing module attributes (for example
``topodesc.autodiff.solve_chol_batched``) with a function that opens a span,
calls the original and closes the span. Package code looks those names up in
the module namespace at call time, so the wrappers see every internal call.
A name bound with ``from x import y`` is a separate attribute of the importing
module and is wrapped there (``topodesc.metrics.pairwise_distances``).

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import bisect
import csv
import gc
import statistics
from time import perf_counter

from topodesc import autodiff, data, knn, loss, metrics, net, topology

# (module, attribute, span name). Order matters only for readability.
WRAPPED = (
    (data, "generate", "data.generate"),
    (data, "write_dataset", "data.write_dataset"),
    (data, "read_dataset", "data.read_dataset"),
    (net, "init_net", "net.init_net"),
    (net, "forward", "net.forward"),
    (net, "embed", "net.embed"),
    (net, "sgd_step", "net.sgd_step"),
    (net, "load_checkpoint", "net.load_checkpoint"),
    (net, "save_checkpoint", "net.save_checkpoint"),
    (knn, "pairwise_distances", "knn.pairwise_distances"),
    (knn, "neighbor_index_matrix", "knn.neighbor_index_matrix"),
    (metrics, "pairwise_distances", "knn.pairwise_distances"),
    (metrics, "verification_pairs", "metrics.verification_pairs"),
    (metrics, "fpr95", "metrics.fpr95"),
    (metrics, "retrieval_map", "metrics.retrieval_map"),
    (loss, "select_structure", "loss.select_structure"),
    (loss, "build_loss_graph", "loss.build_loss_graph"),
    (autodiff, "gram_batched", "autodiff.gram_batched"),
    (autodiff, "solve_chol_batched", "autodiff.solve_chol_batched"),
    (autodiff, "backward", "autodiff.backward"),
    (topology, "batch_topology_vectors", "topology.batch_topology_vectors"),
)

BOOKKEEPING = "bench.bookkeeping"
SOLVE_BWD = "autodiff.solve_chol_batched.bwd"


class Span:
    __slots__ = ("name", "start", "end", "parent", "step", "phase", "error", "attrs", "children")

    def __init__(self, name, start, parent, step, phase):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.step = step
        self.phase = phase
        self.error = False
        self.attrs = None
        self.children = []

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)

    def self_ms(self) -> float:
        """Duration minus the part of it that child spans cover."""
        covered = sum(min(c.end, self.end) - max(c.start, self.start) for c in self.children)
        return 1e3 * (self.end - self.start - covered)


class StepClock:
    """Entry times of ``data.sample_batch``: one training step starts at each.

    Installed for the whole timed loop, traced or not; its wrapper only reads
    the clock.
    """

    def __init__(self):
        self._orig = data.sample_batch
        self._entries: list[float] = []

        def sample_batch(*args, **kwargs):
            self._entries.append(perf_counter())
            return self._orig(*args, **kwargs)

        data.sample_batch = sample_batch

    @property
    def started(self) -> int:
        """Steps begun by the current or last call."""
        return len(self._entries)

    def run(self, fn, *args, **kwargs):
        """Call fn; return (result, call seconds, per-step seconds)."""
        self._entries = []
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        t1 = perf_counter()
        marks = self._entries + [t1]
        return out, t1 - t0, [b - a for a, b in zip(marks[:-1], marks[1:])]

    def close(self) -> None:
        data.sample_batch = self._orig


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.gc_pauses: list[tuple[float, float, int]] = []
        self.phase = "setup"
        self._stack: list[Span] = []
        self._step_span: Span | None = None
        self._steps = 0
        self._saved: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- span bookkeeping --------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        step = self._step_span.step if self._step_span is not None else None
        span = Span(name, perf_counter(), parent, step, self.phase)
        if parent is not None:
            parent.children.append(span)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order (open: {popped.name})")

    def begin_step(self, name: str) -> Span:
        """Open a top-level span for one operation, a training step."""
        self.end_step()
        if self._stack:
            raise RuntimeError(f"step {name} opened inside span {self._stack[-1].name}")
        span = self.open(name)
        span.step = self._steps
        self._steps += 1
        self._step_span = span
        return span

    def end_step(self) -> None:
        if self._step_span is not None:
            while self._stack:
                self.close(self._stack[-1])
            self._step_span = None

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            self._patch(module, attr, self._wrap(name, getattr(module, attr), AFTER.get(name)))
        inner = data.sample_batch

        def sample_batch(*args, **kwargs):
            self.begin_step("train.step")
            span = self.open("data.sample_batch")
            try:
                return inner(*args, **kwargs)
            finally:
                self.close(span)

        self._patch(data, "sample_batch", sample_batch)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        self.end_step()
        gc.callbacks.remove(self._on_gc)
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved = []

    def _patch(self, module, attr, fn) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, fn)

    def _wrap(self, name, fn, after):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                self.close(span)
            if after is not None:
                keep = self.open(BOOKKEEPING)
                try:
                    after(self, span, args, out)
                finally:
                    self.close(keep)
            return out

        return wrapper

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_pauses.append((self._gc_start, perf_counter(), info["generation"]))

    def write_csv(self, path: str) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "step", "phase", "error"])
            for i, s in enumerate(self.spans):
                parent = index[id(s.parent)] if s.parent is not None else ""
                step = "" if s.step is None else s.step
                out.writerow([i, s.name, repr(s.start), repr(s.end), parent, step, s.phase, int(s.error)])


# -- per-span counters, taken after the wrapped call returns -----------------


def _after_solve(tracer: Tracer, span: Span, args, out) -> None:
    span.attrs = {"systems": int(args[0].value.shape[0])}
    backward = out._backward
    if backward is None:
        return

    def traced_backward(g):
        bwd = tracer.open(SOLVE_BWD)
        try:
            backward(g)
        finally:
            tracer.close(bwd)

    out._backward = traced_backward


def _after_backward(tracer: Tracer, span: Span, args, out) -> None:
    nodes = args[0].nodes
    span.attrs = {"nodes": len(nodes), "bytes": sum(t.value.nbytes for t in nodes)}


def _after_select(tracer: Tracer, span: Span, args, out) -> None:
    if out.gather_a is None:
        span.attrs = {"union_fill": 0.0, "gather_bytes": 0}
        return
    # A union slot is used when either side's indicator row is non-zero.
    used = out.gather_a.any(axis=2) | out.gather_p.any(axis=2)
    span.attrs = {
        "union_fill": float(used.sum(axis=1).mean()) / (2 * out.k),
        "gather_bytes": out.gather_a.nbytes + out.gather_p.nbytes,
    }


def _after_graph(tracer: Tracer, span: Span, args, out) -> None:
    span.attrs = {"active": out.report.active_triplets, "n": args[4].n}


AFTER = {
    "autodiff.solve_chol_batched": _after_solve,
    "autodiff.backward": _after_backward,
    "loss.select_structure": _after_select,
    "loss.build_loss_graph": _after_graph,
}


# -- per-layer metrics ---------------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, step_name: str, untraced_step_ms: list[float]) -> dict:
    """Per-layer figures from the spans of one run.

    ``*_per_step`` and ``*_per_op`` figures are totals over the timed traced
    steps divided by their count; a step is one training iteration. Plain
    ``.ms`` figures are the median duration of one call over the whole run,
    setup and output checks included. A layer that never ran reports 0.
    """
    steps = [s for s in tracer.spans if s.name == step_name and s.phase == "timed"]
    timed = [s for s in tracer.spans if s.phase == "timed" and s.step is not None]
    n = max(len(steps), 1)
    by_name: dict[str, list[Span]] = {}
    for s in timed:
        by_name.setdefault(s.name, []).append(s)
    everywhere: dict[str, list[Span]] = {}
    for s in tracer.spans:
        everywhere.setdefault(s.name, []).append(s)

    def per_step(name, value=lambda s: s.ms):
        return sum(value(s) for s in by_name.get(name, ())) / n

    def per_call(name, value=lambda s: s.ms):
        return _median([value(s) for s in everywhere.get(name, ())])

    def attr(key):
        return lambda s: s.attrs[key]

    bookkeeping_by_step: dict[int, float] = {}
    for s in by_name.get(BOOKKEEPING, ()):
        bookkeeping_by_step[s.step] = bookkeeping_by_step.get(s.step, 0.0) + s.ms
    bookkeeping = [bookkeeping_by_step.get(s.step, 0.0) for s in steps]
    step_ms = [s.ms - b for s, b in zip(steps, bookkeeping)]
    unspanned = sum(s.self_ms() for s in steps)
    traced_total = sum(step_ms)
    selects = by_name.get("loss.select_structure", [])
    graphs = by_name.get("loss.build_loss_graph", [])
    starts = [s.start for s in steps]
    pauses = []
    for a, b, gen in tracer.gc_pauses:
        i = bisect.bisect_right(starts, a) - 1
        if i >= 0 and b <= steps[i].end:
            pauses.append((a, b, gen))
    traced_p50 = _median(step_ms)
    untraced_p50 = _median(untraced_step_ms)
    return {
        "autodiff.solve_chol_batched.fwd_ms_per_step": per_step("autodiff.solve_chol_batched"),
        "autodiff.solve_chol_batched.bwd_ms_per_step": per_step(SOLVE_BWD),
        "autodiff.solve_chol_batched.systems_per_step": per_step(
            "autodiff.solve_chol_batched", attr("systems")
        ),
        "autodiff.solve_chol_batched.failures": sum(
            1 for s in everywhere.get("autodiff.solve_chol_batched", ()) if s.error
        ),
        "autodiff.gram_batched.ms_per_step": per_step("autodiff.gram_batched"),
        "autodiff.backward.self_ms_per_step": per_step("autodiff.backward", Span.self_ms),
        "autodiff.tape.nodes_per_step": per_step("autodiff.backward", attr("nodes")),
        "autodiff.tape.bytes_per_step": per_step("autodiff.backward", attr("bytes")),
        "knn.neighbor_index_matrix.ms_per_step": per_step("knn.neighbor_index_matrix"),
        "knn.pairwise_distances.ms_per_op": per_step("knn.pairwise_distances"),
        "knn.pairwise_distances.calls_per_op": len(by_name.get("knn.pairwise_distances", ())) / n,
        "loss.select_structure.self_ms_per_step": per_step(
            "loss.select_structure", Span.self_ms
        ),
        "loss.build_loss_graph.self_ms_per_step": per_step(
            "loss.build_loss_graph", Span.self_ms
        ),
        "loss.active_triplet_frac": (
            sum(s.attrs["active"] for s in graphs) / sum(s.attrs["n"] for s in graphs)
            if graphs
            else 0.0
        ),
        "loss.union_fill": (
            sum(s.attrs["union_fill"] for s in selects) / len(selects) if selects else 0.0
        ),
        "loss.gather_bytes_per_step": per_step("loss.select_structure", attr("gather_bytes")),
        "net.forward.ms_per_step": per_step("net.forward"),
        "net.sgd_step.ms_per_step": per_step("net.sgd_step"),
        "net.embed.ms": per_call("net.embed"),
        "net.load_checkpoint.ms": per_call("net.load_checkpoint"),
        "net.save_checkpoint.ms": per_call("net.save_checkpoint"),
        "metrics.retrieval_map.ms": per_call("metrics.retrieval_map"),
        "metrics.verification_pairs.ms": per_call("metrics.verification_pairs"),
        "metrics.fpr95.ms": per_call("metrics.fpr95"),
        "data.generate.ms": per_call("data.generate"),
        "data.write_dataset.ms": per_call("data.write_dataset"),
        "data.read_dataset.ms": per_call("data.read_dataset"),
        "data.sample_batch.ms_per_step": per_step("data.sample_batch"),
        "cli.eval.self_ms": per_call("cli.eval", Span.self_ms),
        "topology.batch_topology_vectors.ms": per_call("topology.batch_topology_vectors"),
        "train.step.ms_traced": traced_p50,
        "train.unspanned_frac": unspanned / traced_total if traced_total else 0.0,
        "trace.overhead_frac": (traced_p50 - untraced_p50) / untraced_p50 if untraced_p50 else 0.0,
        "trace.bookkeeping_ms_per_step": sum(bookkeeping) / n,
        "gc.pause_ms_per_step": 1e3 * sum(b - a for a, b, _ in pauses) / n,
        "gc.gen2_per_step": sum(1 for _, _, gen in pauses if gen == 2) / n,
    }

"""Output checks and the benchmark's own oracles.

Checks run outside the timed loop. Every failed check counts as one failed
operation in the run's result.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from topodesc import knn, topology


class Checks:
    """Named pass/fail results of one run."""

    def __init__(self):
        self.results: list[dict] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        ok = bool(ok)
        self.results.append({"name": name, "ok": ok, "detail": detail})
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
        return ok

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r["ok"])


def unit_norm_error(desc: np.ndarray) -> float:
    """Largest deviation of a row norm from 1."""
    return float(np.max(np.abs(np.linalg.norm(desc, axis=1) - 1.0)))


def weights_digest(net) -> str:
    h = hashlib.sha256()
    for w, b in zip(net.weights, net.biases):
        h.update(np.ascontiguousarray(w).tobytes())
        h.update(np.ascontiguousarray(b).tobytes())
    return h.hexdigest()


def rows_digest(rows) -> str:
    h = hashlib.sha256()
    for r in rows:
        h.update(repr(r).encode())
    return h.hexdigest()


def scalar_mean_topology_distance(va: np.ndarray, vp: np.ndarray, k: int) -> float:
    """Mean d_T over matched pairs through the scalar per-anchor fit path."""
    ta = topology.batch_topology_vectors(va, k)
    tp = topology.batch_topology_vectors(vp, k)
    return float(np.mean([topology.topology_distance(a, p) for a, p in zip(ta, tp)]))


def eval_oracle(
    desc_a: np.ndarray, desc_p: np.ndarray, negatives_per_positive: int, seed: int
) -> tuple[float, float]:
    """FPR95 and retrieval mAP, vectorized, for ``eval`` on these descriptors.

    Non-matching pairs are drawn the way ``eval`` documents them: per anchor
    i, ``negatives_per_positive`` uniform draws over the other indices from a
    generator seeded with the eval seed. Distances use the unit-vector
    identity d = sqrt(max(0, 2 - 2 a.p)). The rank of a true match counts
    strictly closer gallery entries plus equal ones at a lower index.
    """
    n = desc_a.shape[0]
    dist = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.clip(desc_a @ desc_p.T, -1.0, 1.0)))
    rng = np.random.default_rng(seed)
    cols = np.empty((n, negatives_per_positive), dtype=np.int64)
    for i in range(n):
        draws = rng.integers(0, n - 1, size=negatives_per_positive)
        cols[i] = draws + (draws >= i)
    pos = np.diag(dist)
    neg = dist[np.arange(n)[:, None], cols]
    need = -((-19 * n) // 20)
    threshold = np.sort(pos)[need - 1]
    fpr = float(np.count_nonzero(neg <= threshold)) / neg.size
    closer = np.count_nonzero(dist < pos[:, None], axis=1)
    tied_before = np.count_nonzero(
        (dist == pos[:, None]) & (np.arange(n)[None, :] < np.arange(n)[:, None]), axis=1
    )
    mean_ap = float(np.mean(1.0 / (1 + closer + tied_before)))
    return fpr, mean_ap


def parse_eval_output(text: str) -> tuple[float, float]:
    """The fpr95 and mAP lines that ``topodesc eval`` prints."""
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key in ("fpr95", "mAP"):
            values[key] = float(value)
    return values["fpr95"], values["mAP"]


def unit_norm_ok(checks: Checks, name: str, desc: np.ndarray) -> None:
    err = unit_norm_error(desc)
    checks.check(name, err <= knn.UNIT_NORM_TOL, f"max |norm - 1| = {err!r}")

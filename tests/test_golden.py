"""Golden run digests: short seeded runs whose saved bytes pin every bit of training.

Each run digest is the first 16 hex digits of the sha256 of the run's saved
checkpoint and of its written log, joined by "/", after train.run_training
on data.generate(2, scenes, 16, 0.6, 0.3) at seed 2. The gradcheck values
are the error lines `topodesc gradcheck --seed 0` prints. Only the lambda < 1
runs differentiate through the affine fit.

The values hold for the numpy and BLAS build named in BUILD; on any other
build the tests skip and name both builds. A change that moves bits on
purpose regenerates the values in the same diff, and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --print
"""

import argparse
import contextlib
import functools
import hashlib
import io
import os
import tempfile

import numpy as np
import pytest

from topodesc import _rows, cli, data, net, train
from topodesc.config import resolve_config

BUILD = "numpy 2.4.6, scipy-openblas 0.3.31.188.0"

# name: (preset, scenes, iterations, settings, digest)
RUNS = {
    "desk dynamic": ("desk", 512, 60, {}, "e3464a5640d7e016/520507eb3d09044e"),
    "desk off": ("desk", 512, 60, {"topology_gradient_mode": "off"}, "e3464a5640d7e016/fa729a3ee6731589"),
    "desk fixed:0.5 double": (
        "desk", 512, 60, {"lambda_mode": "fixed:0.5"}, "becba9b3e74a5a16/fccdb6432e2e52a8"
    ),
    "desk fixed:0.5 single": (
        "desk", 512, 60, {"lambda_mode": "fixed:0.5", "precision": "single"},
        "f1b69b5b41f78ab1/a8f6d94aff05097d",
    ),
    "desk fixed:0.5 detached": (
        "desk", 512, 60, {"lambda_mode": "fixed:0.5", "topology_gradient_mode": "detached"},
        "c4196c284199ce23/0783caa013d13455",
    ),
    "paper dynamic": ("paper", 2048, 3, {}, "37baeeb8be521487/f340efc15fe42aa5"),
    "paper fixed:0.5": ("paper", 2048, 3, {"lambda_mode": "fixed:0.5"}, "b51ff27a099d9424/390b5c4a9767ede0"),
}

# gradcheck flags after --seed 0: the max_relative_error it prints
GRADCHECKS = {
    (): "1.5651340778966016e-09",
    ("--mode", "detached"): "1.4691653449361297e-10",
    ("--lam", "1.0"): "1.4789963698191855e-10",
}


def this_build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


@functools.lru_cache(maxsize=None)
def _dataset(scenes):
    return data.generate(2, scenes, 16, 0.6, 0.3)


def _sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def run_digest(preset, scenes, iterations, settings) -> str:
    cfg = resolve_config(preset, flag_values={"seed": 2, "iterations": iterations, **settings})
    result = train.run_training(cfg, _dataset(scenes))
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint, log = os.path.join(tmp, "net.bin"), os.path.join(tmp, "log.csv")
        net.save_checkpoint(result.net, checkpoint)
        train.write_log(result.rows, log)
        return f"{_sha(checkpoint)}/{_sha(log)}"


def gradcheck_error(flags) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["gradcheck", "--seed", "0", *flags]) == cli.EXIT_OK
    line = next(s for s in out.getvalue().splitlines() if s.startswith("max_relative_error = "))
    return line.removeprefix("max_relative_error = ")


@pytest.fixture(autouse=True)
def _same_build():
    if this_build() != BUILD:
        pytest.skip(f"golden values are for {BUILD}; this is {this_build()}")


@pytest.mark.parametrize("name", RUNS)
def test_run_digest(name):
    *run, want = RUNS[name]
    assert run_digest(*run) == want


@pytest.mark.parametrize("name", [name for name in RUNS if name.startswith("paper")])
def test_paper_digest_on_one_cpu(name, monkeypatch):
    # the row split is bitwise the same as one range
    monkeypatch.setattr(_rows, "_cpus", lambda: 1)
    *run, want = RUNS[name]
    assert run_digest(*run) == want


@pytest.mark.parametrize("flags", GRADCHECKS, ids=lambda flags: " ".join(flags) or "default")
def test_gradcheck_error(flags):
    assert gradcheck_error(flags) == GRADCHECKS[flags]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the golden values of this tree.")
    parser.add_argument("--print", action="store_true", required=True)
    parser.parse_args()
    print(f'BUILD = "{this_build()}"')
    for name, (*run, _) in RUNS.items():
        print(f'{name!r}: "{run_digest(*run)}"')
    for flags in GRADCHECKS:
        print(f'{flags!r}: "{gradcheck_error(flags)}"')

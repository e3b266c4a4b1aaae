"""The package's public names: every export resolves, removed ones stay gone; its import sets BLAS threads."""

import inspect
import os
import subprocess
import sys
from dataclasses import fields

import pytest

import topodesc
from topodesc import autodiff, config, data, loss, metrics, net, topology, train

TENSOR_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__"
)
# the op-by-op oracle's generic ops (tests/recorded_loss.py)
GENERIC_OPS = ("add", "sub", "mul", "matmul", "reshape", "sum_", "abs_", "sqrt_", "relu", "clip", "take")
REMOVED = [
    (topodesc, "LabeledDistance"),
    (topodesc, "PatchPair"),
    (metrics, "LabeledDistance"),
    (data, "PatchPair"),
    (data.DatasetFile, "pair"),
    (config, "config_as_dict"),
    (config.RunConfig, "loss_config"),
    (autodiff, "_wrap"),
    (autodiff, "where_mask"),
    (autodiff, "trace_batched"),
    (autodiff, "detach"),
    (loss, "positive_distance"),
    (topodesc, "positive_distance"),
    (topodesc, "TopologyVector"),
    (topology, "TopologyVector"),
    (topodesc, "topology_vector"),
    (topology, "topology_vector"),
    (net, "parameter_names"),
    (topodesc, "fit_weights"),
    (topology, "fit_weights"),
    (topodesc, "LleWeights"),
    (topology, "LleWeights"),
    (net.EmbeddingNet, "parameter_count"),
    (train, "read_log"),
    (topodesc, "LossConfig"),
    (loss, "LossConfig"),
    (train, "resolve_lambda"),
    (autodiff, "div"),
    (autodiff, "transpose"),
    (autodiff, "tanh_"),
    (config, "parse_net_widths"),
    (config, "_parse_value"),
    (topology, "DEFAULT_EPS"),
    (autodiff, "cholesky_failures"),
    *[(autodiff.Tensor, op) for op in TENSOR_OPERATORS],
    *[(autodiff, op) for op in GENERIC_OPS],
    (loss, "_row_euclidean"),
]


def test_all_exports_import_and_removed_names_are_gone():
    namespace = {}
    exec("from topodesc import *", namespace)
    missing = [name for name in topodesc.__all__ if name not in namespace]
    assert not missing, missing
    assert len(set(topodesc.__all__)) == len(topodesc.__all__)
    lingering = [f"{owner.__name__}.{name}" for owner, name in REMOVED if hasattr(owner, name)]
    assert not lingering, lingering
    # activation tags and layer widths are derived from the weights, not stored
    assert {"activations", "widths"}.isdisjoint(f.name for f in fields(net.EmbeddingNet))
    assert "dtype" not in inspect.signature(net.load_checkpoint).parameters
    dataset = inspect.signature(train.run_training).parameters["dataset"]
    assert dataset.default is inspect.Parameter.empty
    assert "fraction" not in inspect.signature(data.split_train_heldout).parameters
    leaves = inspect.signature(net.forward).parameters["leaves"]
    assert leaves.default is inspect.Parameter.empty
    # every fit uses the one regulariser topology.EPS
    fits = (topology.affine_weights, topology.affine_weight_values, topology.batch_topology_vectors)
    assert not [f.__name__ for f in fits if "eps" in inspect.signature(f).parameters]


@pytest.mark.parametrize("given, want", [(None, "1"), ("2", "2")])
def test_import_defaults_blas_to_one_thread(given, want):
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(topodesc.__file__))
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    out = subprocess.run(
        [sys.executable, "-c", "import os, topodesc; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == want

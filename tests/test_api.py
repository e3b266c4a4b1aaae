"""The package's public names: every export resolves, removed ones stay gone."""

import inspect
from dataclasses import fields

import topodesc
from topodesc import autodiff, config, data, loss, metrics, net, topology, train

TENSOR_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__"
)
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
    *[(autodiff.Tensor, op) for op in TENSOR_OPERATORS],
]


def test_all_exports_import_and_removed_names_are_gone():
    namespace = {}
    exec("from topodesc import *", namespace)
    missing = [name for name in topodesc.__all__ if name not in namespace]
    assert not missing, missing
    assert len(set(topodesc.__all__)) == len(topodesc.__all__)
    lingering = [f"{owner.__name__}.{name}" for owner, name in REMOVED if hasattr(owner, name)]
    assert not lingering, lingering
    # activation tags are derived from the layer count, not stored
    assert "activations" not in {f.name for f in fields(net.EmbeddingNet)}
    assert "fraction" not in inspect.signature(data.split_train_heldout).parameters
    leaves = inspect.signature(net.forward).parameters["leaves"]
    assert leaves.default is inspect.Parameter.empty

"""The package's public names: every export resolves, removed ones stay gone."""

import topodesc
from topodesc import autodiff, config, data, loss, metrics

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
    (autodiff, "_wrap"),
    (autodiff, "where_mask"),
    (autodiff, "trace_batched"),
    (autodiff, "detach"),
    (loss, "positive_distance"),
    (topodesc, "positive_distance"),
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

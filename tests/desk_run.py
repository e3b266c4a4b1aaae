"""One seeded desk-preset run and its held-out report, importable by worker processes."""

import time

import numpy as np

from topodesc import data, metrics, train
from topodesc.config import RunConfig
from topodesc.net import embed


def run_desk_seed(seed, dataset):
    """(TrainResult, MetricReport, seconds) of the default preset at seed on dataset."""
    t0 = time.perf_counter()
    result = train.run_training(RunConfig(seed=seed), dataset=dataset)
    _, heldout = data.split_train_heldout(dataset)
    desc_a = embed(result.net, heldout.views_a)
    desc_p = embed(result.net, heldout.views_p)
    report = metrics.evaluate_descriptors(desc_a, desc_p, 10, np.random.default_rng(0))
    return result, report, time.perf_counter() - t0

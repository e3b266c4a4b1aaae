"""Finite-difference verification harness, including a negative control."""

import numpy as np

from topodesc import autodiff as ad
from topodesc import gradcheck
from topodesc import net as netmod
from topodesc.config import RunConfig


def make_problem(mode, seed=0):
    rng = np.random.default_rng(seed)
    net = netmod.init_net((8, 10, 4), rng)
    xa = rng.standard_normal((6, 8))
    xp = xa + 0.1 * rng.standard_normal((6, 8))
    cfg = RunConfig(k=2, topology_gradient_mode=mode)
    return net, xa, xp, cfg


class TestGradCheck:
    def test_through_weights_blended(self):
        net, xa, xp, cfg = make_problem("through-weights")
        report = gradcheck.grad_check(net, xa, xp, cfg, lam=0.5)
        assert report.max_relative_error <= 1e-4
        assert report.step_size == 1e-5
        assert report.worst_parameter.startswith("layer")

    def test_detached_blended(self):
        net, xa, xp, cfg = make_problem("detached")
        report = gradcheck.grad_check(net, xa, xp, cfg, lam=0.5)
        assert report.max_relative_error <= 1e-5

    def test_pure_euclidean(self):
        net, xa, xp, cfg = make_problem("through-weights")
        report = gradcheck.grad_check(net, xa, xp, cfg, lam=1.0)
        assert report.max_relative_error <= 1e-5

    def test_pure_topology(self):
        net, xa, xp, cfg = make_problem("through-weights", seed=1)
        report = gradcheck.grad_check(net, xa, xp, cfg, lam=0.0)
        assert report.max_relative_error <= 1e-4

    def test_subsampling_is_seeded(self):
        net, xa, xp, cfg = make_problem("through-weights", seed=2)
        a = gradcheck.grad_check(net, xa, xp, cfg, lam=0.5, max_params=20, seed=7)
        b = gradcheck.grad_check(net, xa, xp, cfg, lam=0.5, max_params=20, seed=7)
        assert a == b

    def test_crooked_derivative_is_caught(self, monkeypatch):
        # the fused layer node that training records, with its tanh
        # derivative 2% off: the difference quotient probes the true
        # function, so the check must report an error well above tolerance
        real_dense = ad.dense
        crooked_layers = []

        def crooked(x, w, b, activation):
            out = real_dense(x, w, b, activation)
            if activation == "tanh" and out._backward is not None:
                back = out._backward
                out._backward = lambda g: back(1.02 * g)
                crooked_layers.append(out)
            return out

        monkeypatch.setattr(ad, "dense", crooked)
        net, xa, xp, cfg = make_problem("through-weights", seed=3)
        report = gradcheck.grad_check(net, xa, xp, cfg, lam=0.5)
        assert len(crooked_layers) == 2  # the hidden layer of both views
        assert report.max_relative_error > 1e-4

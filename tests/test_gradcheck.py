"""Finite-difference verification harness, including a negative control."""

import math

import numpy as np
import pytest

from topodesc import autodiff as ad
from topodesc import gradcheck, train
from topodesc import loss as lossmod
from topodesc import net as netmod
from topodesc.config import RunConfig
from topodesc.errors import InvalidArgumentError


def make_problem(mode, seed=0):
    rng = np.random.default_rng(seed)
    net = netmod.init_net((8, 10, 4), rng)
    xa = rng.standard_normal((6, 8))
    xp = xa + 0.1 * rng.standard_normal((6, 8))
    cfg = RunConfig(k=2, topology_gradient_mode=mode)
    return net, xa, xp, cfg


def crook_hidden_layers(monkeypatch, crook):
    """Patch ad.dense so each recorded tanh layer's backward gets crook(g); returns those layers."""
    real_dense = ad.dense
    crooked_layers = []

    def crooked(x, w, b, activation):
        out = real_dense(x, w, b, activation)
        if activation == "tanh" and out._backward is not None:
            back = out._backward
            out._backward = lambda g: back(crook(g))
            crooked_layers.append(out)
        return out

    monkeypatch.setattr(ad, "dense", crooked)
    return crooked_layers


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
        crooked_layers = crook_hidden_layers(monkeypatch, lambda g: 1.02 * g)
        net, xa, xp, cfg = make_problem("through-weights", seed=3)
        report = gradcheck.grad_check(net, xa, xp, cfg, lam=0.5)
        assert len(crooked_layers) == 2  # the hidden layer of both views
        assert report.max_relative_error > 1e-4

    def test_nan_gradient_is_the_worst_error(self, monkeypatch):
        crook_hidden_layers(monkeypatch, lambda g: np.full_like(g, np.nan))
        net, xa, xp, cfg = make_problem("through-weights")
        report = gradcheck.grad_check(net, xa, xp, cfg, lam=0.5)
        assert math.isnan(report.max_relative_error)
        assert report.worst_parameter.startswith("layer")

    @pytest.mark.parametrize("max_params", [0, -3])
    def test_max_params_below_one_rejected(self, max_params):
        net, xa, xp, cfg = make_problem("through-weights")
        with pytest.raises(InvalidArgumentError, match="max_params"):
            gradcheck.grad_check(net, xa, xp, cfg, lam=0.5, max_params=max_params)

    def test_non_finite_base_loss_raises(self, monkeypatch):
        build = lossmod.build_loss_graph

        def nan_loss(*args):
            graph = build(*args)
            graph.loss.value = np.full_like(graph.loss.value, np.nan)
            return graph

        monkeypatch.setattr(lossmod, "build_loss_graph", nan_loss)
        net, xa, xp, cfg = make_problem("through-weights")
        with pytest.raises(FloatingPointError, match="loss is nan"):
            gradcheck.grad_check(net, xa, xp, cfg, lam=0.5)

    @pytest.mark.parametrize("mode", ["through-weights", "detached"])
    def test_checks_the_gradients_training_sums(self, monkeypatch, mode):
        # the analytic gradients are training's own: a step that drops the
        # anchor view's share must fail the check
        monkeypatch.setattr(
            train, "_summed_grads", lambda leaves_a, leaves_p: {n: t.grad for n, t in leaves_p.items()}
        )
        net, xa, xp, cfg = make_problem(mode)
        report = gradcheck.grad_check(net, xa, xp, cfg, lam=0.5)
        assert report.max_relative_error > 1e-4

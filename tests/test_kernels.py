"""Log-domain kernels, the shared activation pass and the z sampler.

The kernels are checked against the numpy/scipy forms they replace; the
shared pass is checked by counting activation passes per update (and
evaluation passes per model ordering) and by running the same update with
the sharing stripped out, which must give bit-identical parameters.
"""

import inspect

import numpy as np
import pytest
from scipy.special import logsumexp

import oracles
from conftest import make_model, random_binary
import irbm.cli as cli
from irbm import evaluation, model, sampling, training
from irbm.model import (
    label_joint_log_weights,
    log_sum_exp,
    softplus,
    suffix_probs,
    z_posterior,
)
from irbm.rng import stream
from irbm.training import TrainConfig, Trainer

TOL = 1e-12


def _suffix_by_accumulate(head, tail, log_norm):
    """p(z >= k) through np.logaddexp.accumulate, in the log domain."""
    full = np.concatenate([head, tail[..., None]], axis=-1)
    suffix = np.logaddexp.accumulate(full[..., ::-1], axis=-1)[..., ::-1]
    return np.exp(suffix[..., :-1] - log_norm[..., None])


class TestKernelAgreement:
    def test_softplus_matches_logaddexp(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([np.linspace(-800, 800, 20001),
                            rng.normal(0.0, 30.0, 5000),
                            [0.0, -0.0, 1e-300, -1e-300, 36.0, 37.0, -745.0]])
        assert np.max(np.abs(softplus(x) - np.logaddexp(0.0, x))) <= TOL
        grid = x[:20000].reshape(100, 200)
        assert np.max(np.abs(softplus(grid) - np.logaddexp(0.0, grid))) <= TOL

    def test_softplus_of_scalars_and_infinities(self):
        assert float(softplus(0.0)) == pytest.approx(np.log(2.0), abs=TOL)
        assert float(softplus(np.inf)) == np.inf
        assert float(softplus(-np.inf)) == 0.0

    @pytest.mark.parametrize("shape", [(7, 1), (7, 2), (5, 3, 143), (1, 501)])
    def test_log_sum_exp_matches_scipy(self, shape):
        rng = np.random.default_rng(1)
        head = rng.uniform(-800, 800, shape)
        assert np.max(np.abs(log_sum_exp(head) - logsumexp(head, axis=-1))) <= TOL
        for tail in (head.max(axis=-1) - 700.0,        # far below the head
                     head.max(axis=-1) + 700.0,        # dominating
                     head[..., -1] + 4.97):            # the iRBM tail
            want = logsumexp(np.concatenate([head, tail[..., None]], axis=-1),
                             axis=-1)
            assert np.max(np.abs(log_sum_exp(head, tail) - want)) <= TOL

    @pytest.mark.parametrize("C, l", [(1, 1), (1, 6), (4, 1), (10, 50)])
    def test_log_sum_exp_over_classes(self, C, l):
        rng = np.random.default_rng(2)
        logw = rng.uniform(-800, 800, (6, C, l + 1))
        got = log_sum_exp(logw, axis=1)
        assert got.shape == (6, l + 1)
        assert np.max(np.abs(got - logsumexp(logw, axis=1))) <= TOL

    def test_log_sum_exp_infinite_rows(self):
        head = np.array([[-np.inf, -np.inf], [0.0, np.inf]])
        out = log_sum_exp(head)
        assert out[0] == -np.inf and out[1] == np.inf
        tail = np.array([-np.inf, 0.0])
        assert log_sum_exp(head, tail)[0] == -np.inf

    @pytest.mark.parametrize("shape", [(6, 2), (6, 1, 2), (4, 3, 40), (2, 10, 501)])
    def test_suffix_probs_match_logaddexp_accumulate(self, shape):
        rng = np.random.default_rng(3)
        head = rng.uniform(-800, 800, shape)
        for tail in (head.max(axis=-1) - 700.0, head[..., -1] + 4.97):
            log_norm = logsumexp(np.concatenate([head, tail[..., None]], axis=-1),
                                 axis=-1)
            got = suffix_probs(head, tail, log_norm)
            want = _suffix_by_accumulate(head, tail, log_norm)
            assert got.shape == head.shape
            assert np.max(np.abs(got - want)) <= TOL

    def test_suffix_probs_of_one_posterior(self):
        m = make_model(4, D=5, l=6, scale=3.0)
        zp = z_posterior(m, random_binary(4, 1, 5)[0])
        want = _suffix_by_accumulate(zp.head_log_weights, np.asarray(zp.tail_log_mass),
                                     np.asarray(zp.log_norm))
        assert np.max(np.abs(zp.p_z_geq() - want)) <= TOL
        assert zp.p_z_geq()[0] == pytest.approx(1.0, abs=TOL)

    @pytest.mark.parametrize("C, l", [(1, 1), (3, 1), (1, 5), (4, 7)])
    def test_label_weights_match_scipy_forms(self, C, l):
        m = make_model(5, D=6, l=l, C=C, scale=40.0)
        V = random_binary(5, 9, 6)
        logw, tail = label_joint_log_weights(m, V)
        want = np.logaddexp(logsumexp(logw, axis=-1), tail)
        assert np.max(np.abs(model.label_log_weights(m, V) - want)) <= TOL
        marg = model.marginal_z_posterior(m, V)
        head = logsumexp(logw, axis=1)
        assert np.max(np.abs(marg.head_log_weights - head)) <= TOL
        want_norm = np.logaddexp(logsumexp(head, axis=-1), logsumexp(tail, axis=1))
        assert np.max(np.abs(marg.log_norm - want_norm)) <= TOL


class TestZSampler:
    def test_batch_draws_match_the_reference_rule(self):
        m = make_model(6, D=8, l=12, C=3, scale=2.0)
        V = random_binary(6, 200, 8)
        Y = np.arange(200) % 3
        for zp in (z_posterior(m, V), z_posterior(m, V, Y)):
            a, b = stream(7, "z-rule"), stream(7, "z-rule")
            assert np.array_equal(zp.sample(a), oracles.sample_z_inverse_cdf(zp, b))
            assert a.random() == b.random()       # same number of uniforms

    def test_single_draws_match_the_reference_rule(self):
        m = make_model(8, D=5, l=4, scale=2.0)
        a, b = stream(9, "z-one"), stream(9, "z-one")
        for v in random_binary(8, 300, 5):
            zp = z_posterior(m, v)
            got = zp.sample(a)
            assert isinstance(got, int)
            assert got == oracles.sample_z_inverse_cdf(zp, b)
        assert a.random() == b.random()


# -- the shared activation pass -------------------------------------------------

SHARED_KWARGS = ("A", "joint", "zp", "ev")
MODULES = (model, sampling, training, evaluation)


def _count_calls(monkeypatch, name):
    """Count calls of model.<name> made through any irbm namespace, and
    record the number of rows of the batch each call gets."""
    original = getattr(model, name)
    counter = {"n": 0, "rows": []}

    def counted(*args, **kwargs):
        counter["n"] += 1
        counter["rows"].append(np.atleast_2d(args[1]).shape[0])
        return original(*args, **kwargs)

    for mod in MODULES:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return counter


def _strip_sharing(monkeypatch):
    """Make every consumer of a shared array recompute it."""
    for mod in MODULES:
        for name, fn in list(vars(mod).items()):
            if not inspect.isfunction(fn):
                continue
            if not set(SHARED_KWARGS) & set(inspect.signature(fn).parameters):
                continue

            def stripped(*args, _fn=fn, **kwargs):
                return _fn(*args, **{k: v for k, v in kwargs.items()
                                     if k not in SHARED_KWARGS})

            monkeypatch.setattr(mod, name, stripped)


def _trainer(labeled, **overrides):
    C = 3 if labeled else 0
    config = TrainConfig(minibatch_size=20, regroup_mode="fixed", regroup_rho=0.7,
                         global_lr=1.0, seed=11, **overrides)
    return Trainer(make_model(12, D=10, l=9, C=C), config, n_train=40)


def _batch(labeled):
    V = random_binary(13, 20, 10)
    return V, (np.arange(20) % 3 if labeled else None)


class TestActivationPasses:
    @pytest.mark.parametrize("overrides, labeled, inputs, joint", [
        (dict(cd_steps=1), False, 3, 0),
        (dict(cd_steps=3), False, 5, 0),
        (dict(objective="hybrid", alpha=0.01, cd_steps=1), True, 3, 2),
    ])
    def test_calls_per_update(self, monkeypatch, overrides, labeled, inputs, joint):
        trainer = _trainer(labeled, **overrides)
        V, Y = _batch(labeled)
        n_inputs = _count_calls(monkeypatch, "unit_inputs")
        n_joint = _count_calls(monkeypatch, "label_joint_log_weights")
        trainer.update_step(V, Y)
        assert n_inputs["n"] == inputs
        assert n_joint["n"] == joint

    @pytest.mark.parametrize("overrides, labeled", [
        (dict(cd_steps=1), False),
        (dict(cd_steps=3), False),
        (dict(cd_steps=2, use_pcd=True), False),
        (dict(objective="hybrid", alpha=0.01, cd_steps=1), True),
        (dict(objective="hybrid", alpha=0.5, cd_steps=2, dis_grad="sampled"), True),
        (dict(objective="discriminative"), True),
        (dict(objective="generative", cd_steps=1), True),
    ])
    def test_shared_update_equals_unshared(self, monkeypatch, overrides, labeled):
        V, Y = _batch(labeled)
        shared, plain = _trainer(labeled, **overrides), _trainer(labeled, **overrides)
        with monkeypatch.context() as patch:
            passes = _count_calls(patch, "unit_inputs")
            for _ in range(3):
                shared.update_step(V, Y)
            shared_passes = passes["n"]
        with monkeypatch.context() as patch:
            _strip_sharing(patch)
            passes = _count_calls(patch, "unit_inputs")
            for _ in range(3):
                plain.update_step(V, Y)
            assert passes["n"] > shared_passes
        for name in ("W", "b_v", "c", "U", "d"):
            a, b = getattr(shared.params, name), getattr(plain.params, name)
            assert (a is None and b is None) or np.array_equal(a, b), name
        assert np.array_equal(shared.opt.vel.W, plain.opt.vel.W)
        assert shared.regroup.mode_sum == plain.regroup.mode_sum

    @pytest.mark.parametrize("labeled", [False, True])
    def test_shared_report_equals_unshared(self, monkeypatch, labeled):
        m = make_model(14, D=6, l=5, C=3 if labeled else 0)
        X = random_binary(14, 30, 6)
        Y = np.arange(30) % 3 if labeled else None
        shared = evaluation.full_report(m, X, Y, rng=stream(15, "eval"))
        with monkeypatch.context() as patch:
            _strip_sharing(patch)
            plain = evaluation.full_report(m, X, Y, rng=stream(15, "eval"))
        assert shared.to_json() == plain.to_json()


class TestOrderPasses:
    """One evaluation pass per model ordering and dataset. The dataset has
    N rows, so its builds are told apart from those on the 2^6-row
    enumeration blocks of exact log Z."""

    N = 300

    def _data(self, labeled):
        m = make_model(16, D=6, l=4, C=3 if labeled else 0)
        return m, random_binary(16, self.N, 6), np.arange(self.N) % 3

    # the identity pass, plus, with m >= 2, one pass per ordering for the
    # log-likelihood and another per ordering for classification
    @pytest.mark.parametrize("n_perms, m, builds", [(1, 0, 1), (1, 3, 1), (3, 3, 7)])
    def test_full_report_label_weight_builds(self, monkeypatch, n_perms, m, builds):
        params, X, Y = self._data(labeled=True)
        joint = _count_calls(monkeypatch, "label_joint_log_weights")
        evaluation.full_report(params, X, Y, n_perms=n_perms, m=m,
                               rng=stream(17, "eval"))
        assert joint["rows"].count(self.N) == builds

    def test_epoch_metrics_build_the_label_weights_once(self, monkeypatch):
        params, X, Y = self._data(labeled=True)
        config = TrainConfig(objective="hybrid", alpha=0.1, minibatch_size=50)
        trainer = Trainer(params, config, n_train=self.N)
        trainer.regroup.M_t = 2
        joint = _count_calls(monkeypatch, "label_joint_log_weights")
        metrics = cli._epoch_metrics(trainer, X, Y, cli.RunConfig(dataset="x"))
        assert joint["rows"].count(self.N) == 1
        assert metrics["error"] is not None

    @pytest.mark.parametrize("labeled", [False, True])
    def test_invariance_builds_one_posterior_per_ordering(self, monkeypatch, labeled):
        params, X, _ = self._data(labeled)
        posteriors = _count_calls(monkeypatch, "marginal_z_posterior")
        evaluation.check_order_invariance(params, X, m=3, n_perms=3,
                                          rng=stream(18, "inv"))
        assert posteriors["rows"].count(self.N) == 3

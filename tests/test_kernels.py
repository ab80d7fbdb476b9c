"""Log-domain kernels, the shared activation pass and the z sampler.

The kernels are checked against the numpy/scipy forms they replace, and
the private cores behind them (the steps the evaluation workers call on
buffers of their own) against the public kernels, bit for bit; the
shared pass is checked by counting activation passes per update (and
evaluation passes per model ordering) and by running the same update with
the sharing stripped out, which must give bit-identical parameters.
"""

import inspect

import numpy as np
import pytest
from scipy.special import logsumexp

import oracles
from conftest import make_model, random_binary, same_bundle
import irbm.cli as cli
from irbm import evaluation, model, sampling, training
from irbm.model import (
    _clamped_probs,
    _cumulative_unit_terms,
    _log_sum_exp,
    _softplus,
    cumulative_unit_terms,
    label_joint_log_weights,
    log_sum_exp,
    softplus,
    suffix_probs,
    unit_inputs,
    z_posterior,
)
from irbm.sampling import (
    _categorical_rows,
    _draw_h,
    _draw_v,
    _draw_y,
    _softmax_rows,
    categorical_rows,
    draw_h,
    draw_v,
    draw_y,
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
        joint = label_joint_log_weights(m, V)
        logw, tail = joint.head_log_weights, joint.tail_log_mass
        want = np.logaddexp(logsumexp(logw, axis=-1), tail)
        assert np.max(np.abs(joint.log_norm - want)) <= TOL
        marg = model.marginal_z_posterior(m, V)
        head = logsumexp(logw, axis=1)
        assert np.max(np.abs(marg.head_log_weights - head)) <= TOL
        want_norm = np.logaddexp(logsumexp(head, axis=-1), logsumexp(tail, axis=1))
        assert np.max(np.abs(marg.log_norm - want_norm)) <= TOL


def _nan(shape):
    """A buffer whose every cell is NaN, so a cell read before it is
    written shows in the result."""
    return np.full(shape, np.nan)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _softplus_cases():
    rng = np.random.default_rng(50)
    x = np.concatenate([rng.normal(0.0, 30.0, 3000),
                        [0.0, -0.0, 1e-300, 36.0, 37.0, -745.0, np.inf, -np.inf]])
    for arg in (x, x.reshape(-1, 8), np.asfortranarray(x.reshape(8, -1))):
        want = softplus(arg)
        yield want, _softplus(arg, _nan(arg.shape), _nan(arg.shape))
        aliased = arg.copy()                # out may be x
        assert _softplus(aliased, aliased, _nan(arg.shape)) is aliased
        yield want, aliased


def _log_sum_exp_cases():
    rng = np.random.default_rng(51)
    head = rng.uniform(-800, 800, (5, 3, 143))
    head[0, 0, :] = -np.inf
    head[1, 1, 7] = np.inf
    for axis in (-1, -2, 0):
        rest = np.delete(head.shape, axis % head.ndim)
        for tail in (None, np.take(head, 0, axis=axis) + 4.97):
            want = log_sum_exp(head, tail, axis)
            yield want, _log_sum_exp(head, tail, axis, _nan(rest), _nan(rest),
                                     _nan(head.shape))
    # the enumeration workers' layout: a unit-major head read transposed
    # sums as a row-major head does, because w is row-major
    unit_major = rng.uniform(-50, 50, (62, 40))
    tail = unit_major[-1] - 3.0
    yield (log_sum_exp(np.ascontiguousarray(unit_major.T), tail),
           _log_sum_exp(unit_major.T, tail, -1, _nan(40), _nan(40), _nan((40, 62))))


def _cumulative_unit_terms_cases():
    for mode in ("constant", "dynamic"):
        m = make_model(52, D=9, l=13, C=3, scale=3.0, mode=mode)
        V = random_binary(52, 40, 9)
        for A in (unit_inputs(m, V), unit_inputs(m, V, np.arange(40) % 3),
                  unit_inputs(m, V)[:, None, :] + m.U.T):
            before = A.copy()
            want = cumulative_unit_terms(m, A)
            yield want, _cumulative_unit_terms(A, m.unit_penalties(),
                                               m.penalty.log_tail_ratio,
                                               _nan(want.shape), _nan(A.shape))
            yield before, A                 # the inputs are only read


def _clamped_probs_cases():
    m = make_model(53, D=9, l=13, C=3, scale=3.0)
    V = random_binary(53, 40, 9)
    for zp in (z_posterior(m, V), z_posterior(m, V[0]), label_joint_log_weights(m, V)):
        head = zp.head_log_weights
        yield zp.clamped_probs(), _clamped_probs(head, zp.tail_log_mass, zp.log_norm,
                                                 _nan(head.shape), _nan(head.shape[:-1]))


def _sampler_cases():
    """(public draw, core draw) on twin generators, then a draw from each
    twin, so the cores must also use the same number of uniforms."""
    m = make_model(54, D=9, l=13, C=3, scale=2.0)
    V = random_binary(54, 40, 9)
    A = unit_inputs(m, V)
    rng = np.random.default_rng(54)
    p = rng.uniform(0.0, 2.0, (40, 7))
    Z = rng.integers(1, m.l + 2, size=40)
    Z[:3] = m.l + 1                                # units up to the pool edge
    H = draw_h(m, V, Z, None, rng, A=A)
    shape = (40, m.l + 1)
    stale = np.ones(shape, dtype=bool)
    pairs = [
        (lambda r: categorical_rows(p, r),
         lambda r: _categorical_rows(p.copy(), _nan(40), r)),
        (lambda r: draw_h(m, V, Z, None, r, A=A),
         lambda r: _draw_h(A, Z, r, _nan(shape), _nan(shape), _nan(shape), stale)),
        (lambda r: draw_h(m, V, np.full(40, 2), None, r, A=A),
         lambda r: _draw_h(A, np.full(40, 2), r, _nan(shape), _nan(shape),
                           _nan(shape), stale)),
        (lambda r: draw_v(m, H, r),
         lambda r: _draw_v(H, m.W, m.b_v, r, _nan((40, m.D)), _nan((40, m.D)))),
        (lambda r: draw_y(m, H, r),
         lambda r: _draw_y(H, m.U, m.d, r, _nan((40, m.C)), _nan(40))),
        (lambda r: draw_y(m, H, r),
         lambda r: _softmax_rows(m.d + H[:, :m.l] @ m.U, _nan(40), r)),
    ]
    for i, (public, core) in enumerate(pairs):
        a, b = stream(55, "cores", i), stream(55, "cores", i)
        yield public(a), core(b)
        yield a.random(), b.random()


CORE_CASES = {
    "softplus": _softplus_cases,
    "log_sum_exp": _log_sum_exp_cases,
    "cumulative_unit_terms": _cumulative_unit_terms_cases,
    "clamped_probs": _clamped_probs_cases,
    "samplers": _sampler_cases,
}


class TestCores:
    """Each private core, called on buffers filled with NaN (and with out
    aliasing its input where its docstring allows that), gives the bits of
    its public kernel."""

    @pytest.mark.parametrize("name", sorted(CORE_CASES))
    def test_core_equals_its_kernel(self, name):
        with np.errstate(all="ignore"):
            cases = list(CORE_CASES[name]())
        assert cases
        for i, (want, got) in enumerate(cases):
            assert _same(want, got), (name, i)

    def test_cores_are_functions_of_their_own(self):
        # a tracer that wraps the public kernels by identity must leave
        # the cores unwrapped, so no core is a public kernel under another
        # name, and none lives in training
        cores = (_softplus, _log_sum_exp, _cumulative_unit_terms, _clamped_probs,
                 _categorical_rows, _draw_h, _draw_v, _draw_y, _softmax_rows)
        public = [fn for mod in MODULES for name, fn in vars(mod).items()
                  if not name.startswith("_") and inspect.isfunction(fn)]
        for core in cores:
            assert inspect.isfunction(core)
            assert core.__module__ in ("irbm.model", "irbm.sampling")
            assert all(core is not fn for fn in public), core.__name__


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

SHARED_KWARGS = ("A", "zp", "ev")
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


def _trainer(labeled, regroup_mode="fixed", **overrides):
    C = 3 if labeled else 0
    config = TrainConfig(minibatch_size=20, regroup_mode=regroup_mode, regroup_rho=0.7,
                         global_lr=1.0, seed=11, **overrides)
    return Trainer(make_model(12, D=10, l=9, C=C), config, n_train=40)


def _batch(labeled):
    V = random_binary(13, 20, 10)
    return V, (np.arange(20) % 3 if labeled else None)


ADAPTIVE = dict(regroup_mode="adaptive")


class TestActivationPasses:
    # CD-k makes k + 1 activation passes and one label pass per update under
    # off and fixed; the adaptive schedule adds one of each for the regroup
    # statistic
    @pytest.mark.parametrize("overrides, labeled, inputs, joint", [
        (dict(cd_steps=1, **ADAPTIVE), False, 3, 0),
        (dict(cd_steps=3, **ADAPTIVE), False, 5, 0),
        (dict(objective="hybrid", alpha=0.01, cd_steps=1, **ADAPTIVE), True, 3, 2),
        (dict(cd_steps=1), False, 2, 0),
        (dict(cd_steps=3), False, 4, 0),
        (dict(objective="hybrid", alpha=0.01, cd_steps=1), True, 2, 1),
    ])
    def test_calls_per_update(self, monkeypatch, overrides, labeled, inputs, joint):
        trainer = _trainer(labeled, **overrides)
        V, Y = _batch(labeled)
        n_inputs = _count_calls(monkeypatch, "unit_inputs")
        n_joint = _count_calls(monkeypatch, "label_joint_log_weights")
        trainer.update_step(V, Y)
        assert n_inputs["n"] == inputs
        assert n_joint["n"] == joint

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("mode, builds", [("off", 0), ("fixed", 0), ("adaptive", 1)])
    def test_regroup_statistic_only_under_adaptive(self, monkeypatch, labeled, mode,
                                                   builds):
        objective = dict(objective="hybrid", alpha=0.01) if labeled else {}
        trainer = _trainer(labeled, regroup_mode=mode, cd_steps=1, **objective)
        V, Y = _batch(labeled)
        posteriors = _count_calls(monkeypatch, "marginal_z_posterior")
        for _ in range(2):
            trainer.update_step(V, Y)
        assert posteriors["n"] == 2 * builds
        assert trainer.regroup.mode_count == 2 * builds * V.shape[0]
        assert (trainer.regroup.mode_sum > 0) == (builds > 0)

    @pytest.mark.parametrize("overrides, labeled", [
        (dict(cd_steps=1), False),
        (dict(cd_steps=3), False),
        (dict(cd_steps=2, use_pcd=True), False),
        (dict(objective="hybrid", alpha=0.01, cd_steps=1), True),
        (dict(objective="hybrid", alpha=0.5, cd_steps=2, dis_grad="sampled"), True),
        (dict(objective="discriminative"), True),
        (dict(objective="generative", cd_steps=1), True),
        (dict(cd_steps=1, **ADAPTIVE), False),
        (dict(objective="hybrid", alpha=0.01, cd_steps=1, **ADAPTIVE), True),
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
        # a labeled model's posterior is built from its label weights
        posteriors = _count_calls(monkeypatch, "label_joint_log_weights" if labeled
                                  else "marginal_z_posterior")
        evaluation.check_order_invariance(params, X, m=3, n_perms=3,
                                          rng=stream(18, "inv"))
        assert posteriors["rows"].count(self.N) == 3


# -- row blocks -------------------------------------------------------------------

# The test batch has 20 rows; the label blocks of the trainer's l=9, C=3 model
# hold (l+1) * C = 30 cells per row.
N_ROWS = 20
LABEL_CELLS = (9 + 1) * 3


def _trainer_label_probs(params, V, Y, overrides):
    """(ordered model, p(y | v)) as the positive label draw of each of two
    updates from params reads them."""
    config = TrainConfig(minibatch_size=V.shape[0], regroup_mode="fixed",
                         regroup_rho=0.7, global_lr=1.0, seed=11, **overrides)
    trainer = Trainer(params.copy(), config, n_train=2 * V.shape[0])
    seen = []
    draw = trainer._positive_generative

    def recorded(V, t, A, p_y):
        seen.append((trainer.params.copy(), p_y.copy()))
        return draw(V, t, A, p_y)

    trainer._positive_generative = recorded
    for _ in range(2):
        trainer.update_step(V, Y)
    assert len(seen) == 2
    return seen


class TestRowBlocks:
    """Blocking rows keeps every bit: label blocks of 1 row, of 7 rows (not a
    divisor of 20) and of all 20 rows give the same results, and so do
    optimizer blocks of 1 row, of 4 rows (not a divisor of l=9) and of all
    rows."""

    @pytest.mark.parametrize("mode", ["constant", "dynamic"])
    def test_label_pass_and_regroup_modes(self, monkeypatch, mode):
        m = make_model(21, D=10, l=9, C=3, scale=2.0, mode=mode)
        V, Y = random_binary(22, N_ROWS, 10), np.arange(N_ROWS) % 3
        results = []
        for rows in (1, 7, N_ROWS):
            monkeypatch.setattr(model, "BLOCK_CELLS", rows * LABEL_CELLS)
            assert next(model.row_blocks(N_ROWS, LABEL_CELLS)) == slice(0, rows)
            p_y = np.empty((N_ROWS, 3))
            g = training.grad_discriminative_exact(m, V, Y, p_y=p_y)
            # without the exact gradient the trainer reads p(y | v) alone
            for overrides in (dict(objective="generative"),
                              dict(objective="hybrid", alpha=0.5, dis_grad="sampled")):
                for ordered, p_trainer in _trainer_label_probs(m, V, Y, overrides):
                    assert np.array_equal(p_trainer, np.exp(model.log_cond_y_given_v(ordered, V)))
            modes = model.marginal_z_posterior(m, V).mode(pool_tail=True)
            results.append((p_y, g, modes))
        # the one-shot build of the full (n, C, l+1) array
        joint = label_joint_log_weights(m, V)
        assert np.array_equal(results[0][0], np.exp(joint.log_label_probs()))
        assert np.array_equal(results[0][0], np.exp(model.log_cond_y_given_v(m, V)))
        assert np.array_equal(results[0][2], joint.over_labels().mode(pool_tail=True))
        for p_y, g, modes in results[1:]:
            assert np.array_equal(p_y, results[0][0])
            assert same_bundle(g, results[0][1])
            assert np.array_equal(modes, results[0][2])

    @pytest.mark.parametrize("dis_grad", ["exact", "sampled"])
    def test_discriminative_update_builds_one_block_at_a_time(self, monkeypatch,
                                                              dis_grad):
        monkeypatch.setattr(model, "BLOCK_CELLS", 7 * LABEL_CELLS)
        trainer = _trainer(True, objective="discriminative", dis_grad=dis_grad,
                           cd_steps=2)
        V, Y = _batch(labeled=True)
        joint = _count_calls(monkeypatch, "label_joint_log_weights")
        trainer.update_step(V, Y)
        # three 7-row blocks per label pass: one for each of the label
        # chain's two sweeps, and with the exact gradient one more
        assert joint["n"] == 3 * (2 + (dis_grad == "exact"))
        assert max(joint["rows"]) <= 7

    @pytest.mark.parametrize("mode", ["constant", "dynamic"])
    def test_order_pass(self, monkeypatch, mode):
        m = make_model(25, D=10, l=9, C=3, scale=2.0, mode=mode)
        X = random_binary(26, N_ROWS, 10)
        joint = label_joint_log_weights(m, X)          # the one-shot build
        zp = joint.over_labels()
        log_pstar = evaluation.log_pstar(m, X, zp=zp)
        log_cond_y = joint.log_label_probs()
        for rows in (1, 7, N_ROWS):
            monkeypatch.setattr(model, "BLOCK_CELLS", rows * LABEL_CELLS)
            assert next(model.row_blocks(N_ROWS, LABEL_CELLS)) == slice(0, rows)
            ev = evaluation.order_pass(m, X)
            assert np.array_equal(ev.zp.head_log_weights, zp.head_log_weights)
            assert np.array_equal(ev.zp.tail_log_mass, zp.tail_log_mass)
            assert np.array_equal(ev.zp.log_norm, zp.log_norm)
            assert np.array_equal(ev.log_pstar, log_pstar)
            assert np.array_equal(ev.log_cond_y, log_cond_y)

    @pytest.mark.parametrize("overrides", [
        dict(objective="hybrid", alpha=0.01, cd_steps=1),
        dict(objective="hybrid", alpha=0.5, cd_steps=2, dis_grad="sampled"),
        dict(objective="discriminative"),
        dict(objective="generative", cd_steps=1),
        dict(objective="hybrid", alpha=0.01, cd_steps=1, **ADAPTIVE),
    ])
    def test_updates(self, monkeypatch, overrides):
        V, Y = _batch(labeled=True)
        trainers = []
        # 1 row everywhere; 7 label rows and whole optimizer blocks; one block
        for cells in (1, 7 * LABEL_CELLS, 2 ** 40):
            monkeypatch.setattr(model, "BLOCK_CELLS", cells)
            trainer = _trainer(True, **overrides)
            for _ in range(3):
                trainer.update_step(V, Y)
            trainers.append(trainer)
        ref = trainers[-1]
        for trainer in trainers[:-1]:
            assert same_bundle(trainer.params, ref.params)
            assert same_bundle(trainer.opt.acc, ref.opt.acc)
            assert same_bundle(trainer.opt.vel, ref.opt.vel)
            assert trainer.regroup.mode_sum == ref.regroup.mode_sum

    @pytest.mark.parametrize("lr_mode", ["adagrad", "decay"])
    def test_optimizer_and_max_norm(self, monkeypatch, lr_mode):
        runs = []
        for rows in (1, 4, 9):
            monkeypatch.setattr(model, "BLOCK_CELLS", rows * 10)   # D = 10
            trainer = _trainer(True, lr_mode=lr_mode, w_bound=1.5, u_bound=0.5)
            rng = np.random.default_rng(23)
            for _ in range(3):
                grad = training.Gradients.zeros(trainer.params)
                for _, arr in grad.blocks():
                    arr[...] = rng.normal(0.0, 1.0, arr.shape)
                trainer._apply_gradient(grad)
                training.max_norm_project(trainer.params, 1.5, 0.5)
                trainer.opt.t += 1
            runs.append(trainer)
        assert np.linalg.norm(runs[0].params.W, axis=1).max() <= 1.5 + 1e-12
        for trainer in runs[:-1]:
            assert same_bundle(trainer.params, runs[-1].params)
            assert same_bundle(trainer.opt.acc, runs[-1].opt.acc)
            assert same_bundle(trainer.opt.vel, runs[-1].opt.vel)

    def test_nonfinite_gradient_steps_nothing(self, monkeypatch):
        monkeypatch.setattr(model, "BLOCK_CELLS", 2 * 10)     # 2-row W blocks
        trainer = _trainer(True)
        assert len(list(model.row_blocks(*trainer.params.W.shape))) == 5
        rng = np.random.default_rng(24)
        grad = training.Gradients.zeros(trainer.params)
        for _, arr in grad.blocks():
            arr[...] = rng.normal(0.0, 1.0, arr.shape)
        trainer._apply_gradient(grad.copy())    # nonzero acc and vel
        before = [b.copy() for b in (trainer.params, trainer.opt.acc, trainer.opt.vel)]
        grad.W[-1, -1] = np.nan
        with pytest.raises(FloatingPointError, match="W"):
            trainer._apply_gradient(grad)
        for old, new in zip(before, (trainer.params, trainer.opt.acc, trainer.opt.vel)):
            assert same_bundle(old, new)

import collections
import copy
import itertools
import json
import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit, logsumexp

import oracles
from conftest import make_model, random_binary
from irbm.evaluation import (
    EXACT_D_CAP,
    PASS_CELLS,
    EvalReport,
    ais_log_partition,
    all_binary_vectors,
    base_log_partition,
    check_order_invariance,
    classification_metrics,
    converted_rbm_loglik,
    effective_hidden_size,
    exact_cond_loglik,
    exact_log_partition,
    exact_loglik,
    exact_visible_distribution,
    exact_generative_gradient,
    full_report,
    log_pstar,
    order_pass,
    permutation_averaged_loglik,
)
from irbm.evaluation import (
    _block_bits,
    _worker_count,
    _log_pstar_all,
    _pass_blocks,
    _pass_cache,
    _shares,
    _unit_major_log_pstar_all,
    _visible_blocks,
)
from irbm.model import (
    LN2,
    ModelParams,
    apply_permutation,
    free_energy,
    marginal_z_posterior,
    unit_inputs,
    zero_model,
    z_posterior,
)
from irbm.rng import skip_uniforms, stream
from irbm.sampling import gibbs_sweep
from irbm.training import sample_permutation

R = 2.0 ** (-0.01)


def invariance_model(seed, D, m, extra=2, strength=40.0):
    """Model whose first m + extra units all contribute large positive terms,
    pushing the posterior mass far beyond z = m for every input."""
    l = m + extra
    rng = np.random.default_rng(seed)
    return ModelParams(W=rng.normal(0, 0.3, (l, D)),
                       b_v=rng.normal(0, 0.3, D),
                       c=np.full(l, strength))


class TestExactPartition:
    def test_zero_model_closed_form(self):
        m = zero_model(D=2)
        want = 2 * LN2 + math.log(R / (1 - R))
        assert exact_log_partition(m) == pytest.approx(want, abs=1e-12)

    def test_penalty_shift_moves_partition_predictably(self):
        # on the zero model the whole z sum is geometric, so any beta gives
        # D*ln2 + log(r/(1-r)) with r = 2^(1-beta)
        for beta in (1.005, 1.02, 1.2):
            m = zero_model(D=3, beta=beta)
            r = 2.0 ** (1 - beta)
            want = 3 * LN2 + math.log(r / (1 - r))
            assert exact_log_partition(m) == pytest.approx(want, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        m = make_model(201, D=3, l=2)
        want = oracles.log_partition_by_double_loop(m)
        assert exact_log_partition(m) == pytest.approx(want, abs=1e-12)

    def test_labeled_partition_matches_oracle(self):
        m = make_model(202, D=3, l=2, C=3)
        want = oracles.log_partition_by_double_loop(m)
        assert exact_log_partition(m) == pytest.approx(want, abs=1e-12)

    def test_dimension_cap_enforced(self):
        with pytest.raises(ValueError):
            exact_log_partition(zero_model(D=15))

    def test_visible_distribution_normalizes(self):
        for seed, d, l in [(203, 5, 3), (204, 8, 6), (205, 10, 4)]:
            m = make_model(seed, D=d, l=l)
            p = exact_visible_distribution(m)
            assert abs(p.sum() - 1.0) < 1e-10


class TestExactLoglik:
    def test_zero_model_is_uniform(self):
        m = zero_model(D=4)
        X = random_binary(30, 10, 4)
        assert exact_loglik(m, X) == pytest.approx(-4 * LN2, abs=1e-12)

    def test_single_example_equals_its_own_term(self):
        m = make_model(206, D=4, l=2)
        v = random_binary(31, 1, 4)
        full = exact_loglik(m, v)
        from irbm.evaluation import log_pstar
        want = float(log_pstar(m, v)[0]) - exact_log_partition(m)
        assert full == pytest.approx(want, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        m = make_model(207, D=3, l=2)
        X = random_binary(32, 6, 3)
        want = oracles.loglik_by_double_loop(m, X)
        assert exact_loglik(m, X) == pytest.approx(want, abs=1e-10)

    def test_agrees_with_gibbs_empirical_distribution(self):
        m = make_model(208, D=3, l=2, scale=0.7)
        exact = exact_visible_distribution(m)
        rng = stream(33, "eval-gibbs")
        V = random_binary(34, 40, 3)
        counts = np.zeros(8)
        for step in range(3000):
            V, _, _ = gibbs_sweep(m, V, None, rng)
            if step >= 100:
                codes = (V.astype(np.int64) @ np.array([4, 2, 1])).astype(int)
                counts += np.bincount(codes, minlength=8)
        emp = counts / counts.sum()
        assert 0.5 * np.abs(emp - exact).sum() < 0.02


@pytest.mark.bitwise
class TestAis:
    def test_identity_anneal_is_exact(self):
        base = np.full(5, 0.3)
        from scipy.special import logit
        m = ModelParams(W=np.zeros((2, 5)), b_v=logit(base), c=np.zeros(2))
        res = ais_log_partition(m, n_temps=30, n_chains=8, rng=stream(35, "ais"),
                                base_means=base)
        assert res.log_z == pytest.approx(base_log_partition(m, logit(base)), abs=1e-10)

    def test_close_to_exact_on_tiny_models(self):
        hits = 0
        for seed in range(5):
            m = make_model(300 + seed, D=6, l=4, scale=0.6)
            exact = exact_log_partition(m)
            res = ais_log_partition(m, n_temps=100, n_chains=50,
                                    rng=stream(36, "ais-tiny", seed))
            assert abs(res.log_z - exact) < 0.1
            hits += res.within(exact, 3.0)
        assert hits >= 4

    def test_standard_error_shrinks_with_chains(self):
        m = make_model(310, D=5, l=3, scale=0.8)
        errs = []
        for n_chains in (10, 50, 250):
            res = ais_log_partition(m, n_temps=60, n_chains=n_chains,
                                    rng=stream(37, "ais-se", n_chains))
            errs.append(res.std_err)
        assert errs[0] > errs[1] > errs[2]

    def test_labeled_model_supported(self):
        m = make_model(311, D=4, l=2, C=3, scale=0.6)
        exact = exact_log_partition(m)
        res = ais_log_partition(m, n_temps=120, n_chains=60,
                                rng=stream(38, "ais-labeled"))
        assert abs(res.log_z - exact) < 0.15

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_weights_are_reported(self):
        m = make_model(312, D=3, l=2)
        m.W[0, :2] = 1e308   # overflows to inf once the ladder nears beta = 1
        with pytest.raises(FloatingPointError):
            ais_log_partition(m, n_temps=30, n_chains=4,
                              rng=stream(39, "ais-inf"),
                              base_means=np.full(3, 0.999))

    @pytest.mark.parametrize("C", [0, 3])
    @pytest.mark.parametrize("mode", ["constant", "dynamic"])
    @pytest.mark.parametrize("with_base", [False, True])
    def test_bitwise_equal_to_building_afresh(self, C, mode, with_base):
        self.check_bitwise_equal_to_building_afresh(C, mode, with_base, 7, 5)

    @pytest.mark.parametrize("C", [0, 3])
    @pytest.mark.parametrize("mode", ["constant", "dynamic"])
    @pytest.mark.parametrize("with_base", [False, True])
    def test_bitwise_equal_to_building_afresh_at_scale(self, C, mode, with_base):
        self.check_bitwise_equal_to_building_afresh(C, mode, with_base, 60, 40)

    @staticmethod
    def check_bitwise_equal_to_building_afresh(C, mode, with_base, D, l):
        m = make_model(314, D=D, l=l, C=C, scale=0.8, mode=mode)
        base = random_binary(41, 30, D).mean(axis=0) if with_base else None
        res = ais_log_partition(m, n_temps=25, n_chains=9,
                                rng=stream(41, "ais-ref"), base_means=base)
        log_z, std_err, log_w = oracles.ais_building_afresh(
            m, 25, 9, stream(41, "ais-ref"), base_means=base)
        assert res.log_z == log_z and res.std_err == std_err
        assert res.log_weights.tobytes() == log_w.tobytes()

    @pytest.mark.parametrize("C", [0, 3])
    def test_one_posterior_per_chain_state(self, monkeypatch, C):
        # n temperatures weigh n - 1 chain states (the first and n - 2 swept
        # ones), each under two adjacent models: 2n - 2 posteriors, the z
        # draw of a sweep reusing the one its state's weight was read from;
        # the AIS kernel reads each posterior's log_norm by one call of the
        # log-sum-exp core
        import irbm.evaluation as ev
        built = []
        step = ev._log_sum_exp

        def counted(*args, **kwargs):
            built.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(ev, "_log_sum_exp", counted)
        n = 10
        ais_log_partition(make_model(315, D=4, l=3, C=C), n_temps=n, n_chains=5,
                          rng=stream(42, "ais-count"))
        assert len(built) == 2 * n - 2

    def test_needs_two_temperatures(self):
        m = make_model(313, D=3, l=2)
        with pytest.raises(ValueError):
            ais_log_partition(m, n_temps=1, n_chains=4, rng=stream(40, "ais-k"))


class TestOrderInvariance:
    def test_satisfying_model_has_tiny_spread(self):
        m = invariance_model(401, D=5, m=3)
        X = random_binary(41, 12, 5)
        report = check_order_invariance(m, X, m=3, n_perms=10,
                                        rng=stream(42, "inv-sat"))
        assert report.max_log_mass < -30
        assert report.loglik_spread < 1e-10

    def test_violating_model_has_material_spread(self):
        rng = np.random.default_rng(402)
        m = ModelParams(W=rng.normal(0, 2.5, (4, 5)),
                        b_v=rng.normal(0, 0.5, 5),
                        c=np.array([2.0, 1.0, -1.0, -2.0]))
        X = random_binary(43, 12, 5)
        report = check_order_invariance(m, X, m=3, n_perms=10,
                                        rng=stream(44, "inv-vio"))
        assert report.max_log_mass > -5
        assert report.loglik_spread > 1e-3

    def test_zero_length_permutation_is_degenerate(self):
        m = make_model(403, D=4, l=3)
        X = random_binary(45, 6, 4)
        report = check_order_invariance(m, X, m=0, n_perms=5,
                                        rng=stream(46, "inv-zero"))
        assert report.loglik_spread == 0.0
        assert report.max_log_mass == -np.inf

    def test_labeled_model_matches_a_recomputation(self):
        m = make_model(408, D=4, l=4, C=3, scale=1.5)
        X = random_binary(56, 9, 4)
        report = check_order_invariance(m, X, m=3, n_perms=4,
                                        rng=stream(57, "inv-lab"))
        draws = stream(57, "inv-lab")
        masses, logliks = [], []
        for _ in range(4):
            pj = apply_permutation(m, sample_permutation(3, draws))
            masses.append(marginal_z_posterior(pj, X).mass_at_most(3))
            logliks.append(exact_loglik(pj, X))
        assert report.max_log_mass == pytest.approx(np.max(masses), abs=1e-12)
        assert report.mean_log_mass == pytest.approx(np.mean(masses), abs=1e-12)
        spread = max(logliks) - min(logliks)
        assert spread > 1e-6
        assert report.loglik_spread == pytest.approx(spread, abs=1e-12)

    def test_rejects_m_beyond_pool(self):
        m = make_model(404, D=4, l=2)
        with pytest.raises(ValueError):
            check_order_invariance(m, random_binary(47, 3, 4), m=3, n_perms=2,
                                   rng=stream(48, "inv-m"))


class TestPermutationAveragedLikelihood:
    def test_identity_reduces_to_plain_loglik(self):
        m = make_model(405, D=4, l=3)
        X = random_binary(49, 8, 4)
        got = permutation_averaged_loglik(m, X, n_perms=1, rng=stream(50, "pa"),
                                          m=0)
        assert got == pytest.approx(exact_loglik(m, X), abs=1e-12)

    def test_invariant_model_insensitive_to_n(self):
        m = invariance_model(406, D=4, m=3)
        X = random_binary(51, 6, 4)
        one = permutation_averaged_loglik(m, X, 1, stream(52, "pa1"), m=3)
        five = permutation_averaged_loglik(m, X, 5, stream(53, "pa5"), m=3)
        assert abs(one - five) < 1e-8

    def test_probability_domain_averaging_beats_log_domain(self):
        # Jensen: log of the averaged probability >= average of the logs
        m = make_model(407, D=4, l=4, scale=1.5)
        X = random_binary(54, 6, 4)
        rng1 = stream(55, "pa-jensen")
        rng2 = stream(55, "pa-jensen")
        from irbm.evaluation import log_pstar
        from irbm.training import sample_permutation
        per = []
        for _ in range(6):
            order = sample_permutation(3, rng2)
            pj = apply_permutation(m, order)
            per.append(log_pstar(pj, X) - exact_log_partition(pj))
        log_domain = float(np.mean(per))
        prob_domain = permutation_averaged_loglik(m, X, 6, rng1, m=3)
        assert prob_domain >= log_domain - 1e-12

    def test_far_class_keeps_a_finite_conditional_loglik(self):
        # a logit gap of ~800 nats underflows p(y | v) to 0 in the
        # probability domain
        m = zero_model(D=3, C=2)
        m.U[0] = [800.0, -800.0]
        v = np.array([1.0, 0.0, 1.0])
        per_class = []
        for y in range(2):
            per_class.append(oracles.log_pstar_truncated(m, v, m.l, y)
                             + oracles.tail_correction(m, v, y))
        want = per_class[1] - float(np.logaddexp(*per_class))
        assert want == pytest.approx(-800.0, abs=1.0)
        got = exact_cond_loglik(m, v[None, :], np.array([1]))
        assert got == pytest.approx(want, abs=1e-9)


class TestEffectiveSize:
    def test_zero_model_is_one(self):
        m = zero_model(D=4)
        X = random_binary(58, 30, 4)
        assert effective_hidden_size(m, X, minibatch_size=10) == 1

    def test_single_minibatch_equals_batch_max(self):
        m = make_model(409, D=4, l=4)
        X = random_binary(59, 7, 4)
        modes = z_posterior(m, X).mode()
        assert effective_hidden_size(m, X, minibatch_size=7) == int(modes.max())

    def test_matches_truncation_oracle_modes(self):
        m = make_model(410, D=4, l=3)
        X = random_binary(60, 9, 4)
        want = []
        for v in X:
            probs = oracles.z_posterior_by_truncation(m, v, 5000)
            want.append(int(np.argmax(probs[:4])) + 1)   # head support 1..l+1
        maxima = [max(want[i:i + 3]) for i in range(0, 9, 3)]
        expected = int(round(float(np.mean(maxima))))
        assert effective_hidden_size(m, X, minibatch_size=3) == expected

    def test_strong_new_unit_does_not_shrink_estimate(self):
        m = make_model(411, D=4, l=2, scale=0.5)
        X = random_binary(61, 12, 4)
        before = effective_hidden_size(m, X, 4)
        strong = ModelParams(
            W=np.vstack([m.W, 6.0 * (X.mean(axis=0) - 0.5)[None, :]]),
            b_v=m.b_v, c=np.append(m.c, 2.0), penalty=m.penalty)
        after = effective_hidden_size(strong, X, 4)
        assert after >= before


class TestConvertedRbm:
    def test_zero_model_uniform(self):
        m = zero_model(D=4)
        X = random_binary(62, 8, 4)
        for n_h in (1, 2, 5):
            assert converted_rbm_loglik(m, X, n_h) == pytest.approx(-4 * LN2, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        m = make_model(412, D=4, l=3)
        X = random_binary(63, 6, 4)
        got = converted_rbm_loglik(m, X, 2)
        want = oracles.classic_rbm_loglik_by_enumeration(m, X, 2)
        assert got == pytest.approx(want, abs=1e-10)

    def test_inert_zero_units_change_nothing(self):
        m = make_model(413, D=4, l=2)
        X = random_binary(64, 5, 4)
        padded = ModelParams(W=np.vstack([m.W, np.zeros((2, 4))]), b_v=m.b_v,
                             c=np.append(m.c, [0.0, 0.0]), penalty=m.penalty)
        assert converted_rbm_loglik(m, X, 2) == pytest.approx(
            converted_rbm_loglik(padded, X, 4), abs=1e-12)


class TestClassification:
    def test_zero_model_chance_error_with_tiebreak(self):
        m = zero_model(D=5, C=10)
        X = random_binary(65, 100, 5)
        Y = np.tile(np.arange(10), 10)
        error, preds, _, hist = classification_metrics(m, X, Y)
        assert np.all(preds == 0)        # ties break toward class 0
        assert error == pytest.approx(0.9)
        assert sum(hist.values()) == 100

    def test_separable_toy_model_is_perfect(self):
        m = ModelParams(
            W=np.array([[20.0, 0.0], [0.0, 20.0]]),
            b_v=np.zeros(2),
            c=np.array([-30.0, -30.0]),
            U=np.array([[20.0, -20.0], [-20.0, 20.0]]),
            d=np.zeros(2),
        )
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        Y = np.array([0, 1, 0])
        error, preds, _, _ = classification_metrics(m, X, Y)
        assert error == 0.0
        assert np.array_equal(preds, Y)

    def test_error_equals_one_minus_confusion_accuracy(self):
        m = make_model(414, D=4, l=3, C=3)
        X = random_binary(66, 30, 4)
        Y = (np.arange(30) % 3).astype(int)
        error, preds, _, _ = classification_metrics(m, X, Y)
        confusion = np.zeros((3, 3), dtype=int)
        for t, p in zip(Y, preds):
            confusion[t, p] += 1
        assert error == pytest.approx(1.0 - confusion.trace() / 30)

    def test_permutation_averaged_prediction(self):
        m = make_model(415, D=4, l=4, C=2)
        X = random_binary(67, 10, 4)
        Y = np.zeros(10, dtype=int)
        error, _, z_m, hist = classification_metrics(
            m, X, Y, n_perms=5, m=3, rng=stream(68, "cls-perm"))
        assert 0.0 <= error <= 1.0
        assert sum(hist.values()) == 10
        assert np.all((z_m >= 1) & (z_m <= m.l + 1))


class TestFullReport:
    def test_exact_path_flagged(self):
        m = make_model(416, D=4, l=2, C=2)
        X = random_binary(69, 12, 4)
        Y = (np.arange(12) % 2).astype(int)
        report = full_report(m, X, Y, rng=stream(70, "report"))
        assert report.method == "exact"
        assert report.avg_loglik is not None
        assert report.classification_error is not None
        payload = report.to_json()
        assert '"method": "exact"' in payload
        assert '"version": 1' in payload

    def test_cap_applies_to_the_permutation_average(self):
        # D=16 is above the default cap; cap=16 must hold for every
        # permuted model too
        m = make_model(417, D=16, l=3, scale=0.3)
        X = random_binary(71, 20, 16)
        report = full_report(m, X, n_perms=3, m=2, rng=stream(72, "report"),
                             cap=16)
        assert report.method == "exact"
        assert report.log_z == exact_log_partition(m, cap=16)
        assert report.log_z_std_err is None
        assert math.isfinite(report.avg_loglik)

    @pytest.mark.parametrize("n_perms,m,averaged", [
        (3, 0, 1), (3, 1, 1), (1, 3, 1), (3, 2, 3)])
    def test_n_perms_counts_the_orderings_averaged(self, n_perms, m, averaged):
        model = make_model(418, D=4, l=3, C=2)
        X = random_binary(73, 12, 4)
        Y = (np.arange(12) % 2).astype(int)
        report = full_report(model, X, Y, n_perms=n_perms, m=m,
                             rng=stream(74, "report"))
        assert report.n_perms == averaged
        if averaged == 1:
            single = float(np.mean(log_pstar(model, X))) - report.log_z
            assert report.avg_loglik == single

    def test_json_roundtrip(self):
        import json
        report = EvalReport(avg_loglik=-1.5, n_h=3, method="exact",
                            z_m_histogram={2: 5})
        data = json.loads(report.to_json())
        assert data["avg_loglik"] == -1.5
        assert data["z_m_histogram"]["2"] == 5


# -- block enumeration --------------------------------------------------------

# (C, penalty mode, l): unlabeled, labeled and dynamic-penalty models, plus
# one so wide that its blocks shrink to the row floor. For weight matrices
# that wide OpenBLAS may take another kernel path at the matrix edge when
# the row count changes, so its per-row values are only required to agree
# within 1e-12; the others keep their bits.
ENUM_KINDS = {
    "plain": (0, "constant", 61),
    "labeled": (3, "constant", 7),
    "dynamic": (0, "dynamic", 20),
    "wide": (0, "constant", 600),
}
ENUM_DIMS = (1, 2, 3, 9, 10, 11, 14, 16)
# the one-shot reference of the wide model grows past 100 MB above D=11
ENUM_CASES = [(D, kind) for kind in sorted(ENUM_KINDS) for D in ENUM_DIMS
              if kind != "wide" or D <= 11]
# memory an exact evaluation may use on top of its 8 * 2^D byte vector
BLOCK_ALLOWANCE = 8 * 2 ** 20


# unlabeled models the unit-major kernel must also agree with: the ENUM_CASES
# kinds without labels, one materialized unit, and weights so large that
# log weights differ by thousands of nats (scale 400) or overflow to +inf
# (scale 1e307)
KERNEL_EXTRA = {
    "one-unit": (0, "constant", 1, 0.5),
    "large": (0, "dynamic", 17, 400.0),
    "overflow": (0, "constant", 17, 1e307),
}
KERNEL_CASES = ([(D, kind) for D, kind in ENUM_CASES if ENUM_KINDS[kind][0] == 0]
                + [(D, kind) for kind in sorted(KERNEL_EXTRA) for D in (1, 9, 11)])


def enum_model(D, kind):
    if kind in KERNEL_EXTRA:
        C, mode, l, scale = KERNEL_EXTRA[kind]
    else:
        (C, mode, l), scale = ENUM_KINDS[kind], 0.5
    return make_model(900 + D, D=D, l=l, C=C, scale=scale, mode=mode)


def one_shot_log_pstar(m):
    return log_pstar(m, all_binary_vectors(m.D))


def peak_traced_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.bitwise
class TestBlockEnumeration:
    @pytest.mark.parametrize("D,kind", ENUM_CASES)
    def test_blocks_cover_every_vector_in_order(self, D, kind):
        m = enum_model(D, kind)
        rows = []
        for start, V in _visible_blocks(m):
            assert start == sum(r.shape[0] for r in rows)
            assert V.shape == (2 ** _block_bits(m), D)
            rows.append(V.copy())
        assert np.array_equal(np.vstack(rows), all_binary_vectors(D))

    @pytest.mark.parametrize("D,kind", KERNEL_CASES)
    def test_kernel_matches_generic_blocks_bitwise(self, D, kind):
        m = enum_model(D, kind)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.concatenate([log_pstar(m, V) for _, V in _visible_blocks(m)])
            got = _unit_major_log_pstar_all(m)
        assert np.array_equal(got, want, equal_nan=True)
        if kind == "overflow" and D > 1:
            assert np.isposinf(got).any() and np.isfinite(got).any()

    def test_unlabeled_enumeration_takes_the_kernel(self, monkeypatch):
        # so the one-shot comparisons below reach the kernel through
        # exact_log_partition; labeled models keep the per-block log_pstar
        kinds = set()
        kernel = _unit_major_log_pstar_all

        def traced(m):
            kinds.add(kind)
            return kernel(m)

        monkeypatch.setattr("irbm.evaluation._unit_major_log_pstar_all", traced)
        for D, kind in ENUM_CASES:
            exact_log_partition(enum_model(D, kind), cap=16)
        assert kinds == {k for k, (C, _, _) in ENUM_KINDS.items() if C == 0}

    def test_dims_straddle_the_block_width(self):
        # the cases above include D below the low-bit width and D that is
        # not a multiple of it, for every model kind
        for kind in ENUM_KINDS:
            lo = _block_bits(enum_model(16, kind))
            assert 1 < lo < 16
            dims = [D for D, k in ENUM_CASES if k == kind]
            assert any(D < lo for D in dims)
            assert any(D > lo and D % lo for D in dims)

    @pytest.mark.parametrize("D,kind", ENUM_CASES)
    def test_partition_and_distribution_match_one_shot(self, D, kind):
        m = enum_model(D, kind)
        lp = one_shot_log_pstar(m)
        log_z = float(logsumexp(lp))
        got = exact_log_partition(m, cap=16)
        assert got == pytest.approx(log_z, abs=1e-12)
        p = exact_visible_distribution(m, cap=16)
        want = np.exp(lp - logsumexp(lp))
        assert np.max(np.abs(p - want)) <= 1e-12
        if kind != "wide":
            assert got == log_z
            assert np.array_equal(p, want)

    @pytest.mark.parametrize("mode", ["constant", "dynamic"])
    @pytest.mark.parametrize("D", [3, 11])
    def test_generative_gradient_matches_one_shot(self, D, mode):
        m = make_model(930 + D, D=D, l=61, scale=0.5, mode=mode)
        X = random_binary(931, 9, D)
        all_v = all_binary_vectors(D)
        lp = log_pstar(m, all_v)
        p = np.exp(lp - logsumexp(lp))

        def term(V, w):
            A = unit_inputs(m, V)
            Pg = z_posterior(m, V).p_z_geq()[:, :m.l]
            R = Pg * expit(A) * w[:, None]
            c = -R.sum(axis=0)
            if mode == "dynamic":
                c += m.penalty.beta * expit(m.c) * (Pg * w[:, None]).sum(axis=0)
            return -R.T @ V, -(V * w[:, None]).sum(axis=0), c

        data = term(X, np.full(X.shape[0], 1.0 / X.shape[0]))
        model = term(all_v, p)
        got = exact_generative_gradient(m, X)
        for g, d, mo in zip((got.W, got.b_v, got.c), data, model):
            assert np.max(np.abs(g - (d - mo))) <= 1e-12

    @pytest.mark.parametrize("D", [3, 11, 14])
    def test_converted_rbm_matches_one_shot(self, D):
        m = make_model(940 + D, D=D, l=61, scale=0.5)
        X = random_binary(941, 7, D)
        for n_h in (1, 30, 61):
            want = (np.mean(-free_energy(m, X, n_h))
                    - logsumexp(-free_energy(m, all_binary_vectors(D), n_h)))
            got = converted_rbm_loglik(m, X, n_h, cap=16)
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("D,l,C", [(16, 61, 0), (20, 8, 0), (14, 30, 10)])
    def test_memory_stays_within_vector_plus_one_block(self, D, l, C):
        # a one-shot enumeration holds several 2^D x (l+1) [x C] arrays:
        # about 100 MB, 370 MB and 120 MB for these three
        m = make_model(950 + D, D=D, l=l, C=C, scale=0.3)
        budget = 8 * 2 ** D + BLOCK_ALLOWANCE
        assert budget <= 16 * 2 ** 20 + 8 * 2 ** D
        peak = peak_traced_bytes(exact_log_partition, m, D)
        assert peak <= budget, f"peak {peak / 2 ** 20:.1f} MB"


# worker counts forced on the unlabeled enumeration: serial, the default
# two, an uneven three and more workers than there are blocks
WORKER_COUNTS = (1, 2, 3, 1000)
WORKER_KINDS = sorted({kind for _, kind in KERNEL_CASES})
PERFBENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def split_model(kind):
    """The kind's enumeration model at the smallest D with four or more
    high-bit blocks, so that every forced worker count splits it."""
    for D in (11, 14, 16):
        m = enum_model(D, kind)
        if 2 ** (D - _block_bits(m)) >= 4:
            return m
    raise AssertionError(kind)


def force_workers(monkeypatch, k):
    monkeypatch.setattr("irbm.evaluation._worker_count", lambda tasks: k)


def pass_model(kind):
    """The kind's enumeration model at the smallest D with eight or more
    high-bit blocks, so that one share can take eight blocks a pass."""
    for D in (11, 14, 16, 17):
        m = enum_model(D, kind)
        if 2 ** (D - _block_bits(m)) >= 8:
            return m
    raise AssertionError(kind)


def block_cells(m):
    """Cells of one enumeration block in one pass buffer: rows x (l+2)."""
    return 2 ** _block_bits(m) * (m.l + 2)


def kept_bytes(m):
    """Enumerate m, then list the bytes of each pass-buffer set that the
    calling thread keeps."""
    with np.errstate(all="ignore"):
        _log_pstar_all(m)
    return [a.nbytes + b.nbytes for a, b in _pass_cache.sets]


def on_a_new_thread(fn):
    """fn() on a thread of its own, whose kept buffers start empty."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn).result()


@pytest.mark.bitwise
class TestEnumerationWorkers:
    @pytest.mark.parametrize("kind", WORKER_KINDS)
    def test_bits_do_not_depend_on_the_worker_count(self, monkeypatch, kind):
        # nor on the blocks a pass takes: PASS_CELLS sized for 1, 2, 4 and 8
        # blocks, and a share takes fewer when its block count is odd
        m = pass_model(kind)
        cells = block_cells(m)
        taken = set()

        def recorded(*args):
            taken.add(_pass_blocks(*args))
            return _pass_blocks(*args)

        monkeypatch.setattr("irbm.evaluation._pass_blocks", recorded)
        first = None
        for k, per_pass in itertools.product(WORKER_COUNTS, (1, 2, 4, 8)):
            force_workers(monkeypatch, k)
            monkeypatch.setattr("irbm.evaluation.PASS_CELLS", per_pass * cells)
            with np.errstate(all="ignore"):
                got = (_log_pstar_all(m), np.float64(exact_log_partition(m, cap=m.D)),
                       exact_visible_distribution(m, cap=m.D))
            if first is None:
                first = got
            for a, b in zip(got, first):
                assert np.array_equal(a, b, equal_nan=True)
        assert taken == {1, 2, 4, 8}

    def test_default_count_is_two_at_most_and_never_above_the_blocks(self):
        assert _worker_count(1) == 1
        assert 1 <= _worker_count(2 ** 10) <= 2

    def test_workers_keep_the_callers_errstate(self, monkeypatch):
        m = split_model("overflow")
        force_workers(monkeypatch, 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(all="ignore"):
                lp = _log_pstar_all(m)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        half = lp.shape[0] // 2
        # both shares overflow, so the worker's share is the one checked too
        assert np.isposinf(lp[:half]).any() and np.isposinf(lp[half:]).any()

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_an_error_is_raised_and_every_thread_joined(self, monkeypatch, failing):
        m = split_model("plain")
        force_workers(monkeypatch, 2)
        caller = threading.get_ident()
        log1p = np.log1p

        def flaky(*args, **kwargs):
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise RuntimeError(f"{failing} failed")
            return log1p(*args, **kwargs)

        monkeypatch.setattr(np, "log1p", flaky)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{failing} failed"):
            _log_pstar_all(m)
        assert threading.active_count() == before

    def test_traced_spans_do_not_depend_on_the_worker_count(self, monkeypatch):
        # perfbench's tracer keeps one span stack, so a worker must open no
        # span: every traced call stays on the calling thread
        import irbm
        monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
        import tracer as tracing
        m = make_model(960, D=16, l=60, scale=0.3)
        spans = []
        for k in (1, 2):
            force_workers(monkeypatch, k)
            tr = tracing.Tracer()
            with tr.installed(irbm):
                irbm.evaluation.exact_log_partition(m, 16)
            assert all(s[3] < i and s[1] <= s[2] for i, s in enumerate(tr.spans))
            spans.append(collections.Counter(s[0] for s in tr.spans))
        assert spans[0] == spans[1]
        assert spans[0]["evaluation.exact_log_partition"] == 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_pool_grown_unit_by_unit_keeps_the_bits(self, monkeypatch, k):
        # the bars pattern, one enumeration per pool size: the kept pass
        # buffers are reused, grown and cut to new shapes as blocks shrink
        force_workers(monkeypatch, k)
        rng = np.random.default_rng(980)
        m = make_model(980, D=12, l=1, scale=0.5)
        for l in range(1, 71):
            if l > 1:
                m.grow()
                m.W[-1] = rng.normal(0.0, 0.5, m.D)
                m.c[-1] = rng.normal(0.0, 0.5)
            want = np.concatenate([log_pstar(m, V) for _, V in _visible_blocks(m)])
            assert np.array_equal(_log_pstar_all(m), want), l

    def test_two_callers_at_once_each_get_their_serial_bits(self, monkeypatch):
        # each calling thread keeps its own buffers
        models = [make_model(985, D=14, l=12, scale=0.5),
                  make_model(986, D=14, l=45, scale=0.5)]
        force_workers(monkeypatch, 1)
        want = [_log_pstar_all(m) for m in models]
        force_workers(monkeypatch, 2)
        start = threading.Barrier(2)
        got = [[], []]

        def enumerate_repeatedly(i):
            start.wait(timeout=60)
            for _ in range(4):
                got[i].append(_log_pstar_all(models[i]))

        callers = [threading.Thread(target=enumerate_repeatedly, args=(i,))
                   for i in range(2)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
            assert not t.is_alive()
        for lps, w in zip(got, want):
            assert len(lps) == 4
            assert all(np.array_equal(lp, w) for lp in lps)

    def test_a_call_after_a_failed_worker_keeps_the_bits(self, monkeypatch):
        # the worker fails in its second pass, leaving its buffers mid-pass
        m = pass_model("plain")
        force_workers(monkeypatch, 1)
        want = _log_pstar_all(m)
        force_workers(monkeypatch, 2)
        caller = threading.get_ident()
        log1p = np.log1p
        worker_calls = []

        def flaky(*args, **kwargs):
            if threading.get_ident() != caller:
                worker_calls.append(1)
                if len(worker_calls) == 2:
                    raise RuntimeError("worker failed")
            return log1p(*args, **kwargs)

        monkeypatch.setattr(np, "log1p", flaky)
        with pytest.raises(RuntimeError, match="worker failed"):
            _log_pstar_all(m)
        monkeypatch.setattr(np, "log1p", log1p)
        assert np.array_equal(_log_pstar_all(m), want)

    @pytest.mark.parametrize("budget", [PASS_CELLS, 2 ** 10])
    @pytest.mark.parametrize("kind", WORKER_KINDS)
    def test_kept_buffers_stay_within_two_per_share(self, monkeypatch, kind, budget):
        # the small budget is below one block's cells for every kind
        monkeypatch.setattr("irbm.evaluation.PASS_CELLS", budget)
        m = pass_model(kind)
        shares = len(_shares(2 ** (m.D - _block_bits(m))))
        held = on_a_new_thread(lambda: kept_bytes(m))
        assert len(held) == shares
        assert sum(held) <= 2 * shares * max(budget, block_cells(m)) * 8

    def test_a_call_drops_the_buffers_of_shares_it_does_not_have(self, monkeypatch):
        m = pass_model("plain")
        blocks = 2 ** (m.D - _block_bits(m))
        force_workers(monkeypatch, 1000)

        def forced_then_default():
            assert len(kept_bytes(m)) == blocks
            monkeypatch.setattr("irbm.evaluation._worker_count", _worker_count)
            return kept_bytes(m)

        held = on_a_new_thread(forced_then_default)
        assert len(held) == len(_shares(blocks)) == _worker_count(blocks)
        assert sum(held) <= 2 * len(held) * max(PASS_CELLS, block_cells(m)) * 8

    def test_a_smaller_call_cuts_the_kept_buffers_back(self, monkeypatch):
        # a call at a raised budget leaves larger sets; the next call at the
        # default budget needs less than half of them and reallocates
        m = pass_model("plain")
        force_workers(monkeypatch, 1)
        want = _log_pstar_all(m)
        monkeypatch.setattr("irbm.evaluation._worker_count", _worker_count)
        shares = len(_shares(2 ** (m.D - _block_bits(m))))
        bound = 2 * shares * max(PASS_CELLS, block_cells(m)) * 8

        def raised_then_default():
            monkeypatch.setattr("irbm.evaluation.PASS_CELLS", 8 * block_cells(m))
            raised = kept_bytes(m)
            monkeypatch.setattr("irbm.evaluation.PASS_CELLS", PASS_CELLS)
            lp = _log_pstar_all(m)
            return raised, [a.nbytes + b.nbytes for a, b in _pass_cache.sets], lp

        raised, held, lp = on_a_new_thread(raised_then_default)
        assert sum(raised) > bound >= sum(held)
        assert np.array_equal(lp, want)


def ais_case(C):
    """A model, data and labels whose report takes AIS at cap=0."""
    model = make_model(970 + C, D=8, l=5, C=C, scale=0.7)
    X = random_binary(971, 20, 8)
    return model, X, (np.arange(20) % C if C else None)


def generator_state(rng):
    return json.dumps(rng.bit_generator.state, sort_keys=True,
                      default=lambda a: a.tolist())


@pytest.mark.bitwise
class TestAisWorkers:
    @pytest.mark.parametrize("C", [0, 3])
    @pytest.mark.parametrize("n_perms", [1, 2, 5])
    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_report_does_not_depend_on_the_worker_count(self, monkeypatch, C,
                                                        n_perms, m):
        model, X, Y = ais_case(C)
        outs = []
        for k in (1, 2, 3):
            force_workers(monkeypatch, k)
            for temps, chains in ((2, 1), (6, 1), (6, 4)):
                rng = stream(972, "ais-workers", C, n_perms, m, temps, chains)
                report = full_report(model, X, Y, n_perms=n_perms, m=m, rng=rng,
                                     cap=0, ais_temps=temps, ais_chains=chains)
                assert report.method == "ais"
                outs.append((k, report.to_json(), generator_state(rng)))
        ones = [out[1:] for out in outs if out[0] == 1]
        for k in (2, 3):
            assert [out[1:] for out in outs if out[0] == k] == ones

    @pytest.mark.parametrize("C", [0, 3])
    def test_report_matches_the_runs_made_one_by_one(self, monkeypatch, C):
        model, X, Y = ais_case(C)
        force_workers(monkeypatch, 2)
        rng = stream(973, "ais-serial", C)
        report = full_report(model, X, Y, n_perms=3, m=4, rng=rng, cap=0,
                             ais_temps=7, ais_chains=5)
        ref = stream(973, "ais-serial", C)
        base = X.mean(axis=0)
        own = ais_log_partition(model, 7, 5, ref, base_means=base)
        per = []
        for _ in range(3):
            p = apply_permutation(model, sample_permutation(4, ref))
            per.append(log_pstar(p, X)
                       - ais_log_partition(p, 7, 5, ref, base_means=base).log_z)
        if Y is not None:
            classification_metrics(model, X, Y, 3, 4, ref)
        assert (report.log_z, report.log_z_std_err) == (own.log_z, own.std_err)
        assert report.avg_loglik == float(np.mean(logsumexp(per, axis=0) - np.log(3)))
        assert generator_state(rng) == generator_state(ref)

    @pytest.mark.parametrize("pos", range(5))
    @pytest.mark.parametrize("pending_half", [False, True])
    def test_philox_skip_equals_drawing(self, pos, pending_half):
        for n in (0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 4096, 70001):
            drawn = stream(974, "skip")
            drawn.random(6)
            if pending_half:
                drawn.random(dtype=np.float32)      # keeps a 32-bit half
            state = drawn.bit_generator.state
            assert state["has_uint32"] == pending_half
            state["buffer_pos"] = pos
            drawn.bit_generator.state = state
            skipped = copy.deepcopy(drawn)
            drawn.random(n)
            skip_uniforms(skipped, n)
            assert generator_state(skipped) == generator_state(drawn), n
            assert skipped.random(dtype=np.float32) == drawn.random(dtype=np.float32)
            assert skipped.random(9).tobytes() == drawn.random(9).tobytes()

    def test_philox_skip_carries_across_counter_words(self):
        drawn = stream(975, "carry")
        state = drawn.bit_generator.state
        state["state"]["counter"] = np.array([2 ** 64 - 2, 2 ** 64 - 1, 7, 0],
                                             dtype=np.uint64)
        drawn.bit_generator.state = state
        skipped = copy.deepcopy(drawn)
        drawn.random(41)
        skip_uniforms(skipped, 41)
        assert generator_state(skipped) == generator_state(drawn)
        # 41 draws from an empty buffer make 11 blocks
        assert list(drawn.bit_generator.state["state"]["counter"]) == [9, 0, 8, 0]

    def test_other_generators_skip_by_drawing(self):
        for n in (0, 5, 2 ** 16 + 3):
            drawn = np.random.default_rng(976)
            drawn.random(dtype=np.float32)
            skipped = copy.deepcopy(drawn)
            drawn.random(n)
            skip_uniforms(skipped, n)
            assert generator_state(skipped) == generator_state(drawn)
        with pytest.raises(ValueError):
            skip_uniforms(drawn, -1)

    @pytest.mark.parametrize("off", [1, -1])
    @pytest.mark.parametrize("k", [1, 2])
    def test_a_miscounted_skip_raises(self, monkeypatch, off, k):
        import irbm.evaluation as ev
        model, X, _ = ais_case(0)
        skip = ev.skip_uniforms
        monkeypatch.setattr(ev, "skip_uniforms",
                            lambda rng, n: skip(rng, max(0, n + off)))
        force_workers(monkeypatch, k)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="reservation"):
            full_report(model, X, n_perms=2, m=4, rng=stream(977, "miscount"),
                        cap=0, ais_temps=5, ais_chains=3)
        assert threading.active_count() == before

    def test_nonfinite_weights_on_a_worker_raise_in_the_caller(self, monkeypatch):
        import irbm.evaluation as ev
        model, X, _ = ais_case(0)
        force_workers(monkeypatch, 2)
        caller = threading.get_ident()
        steps = ev._ais_steps
        threads = []

        def flaky(*args):
            # records the thread that starts each run; a step on the worker
            # spoils the first chain's running weight
            threads.append(threading.get_ident())
            for log_w in steps(*args):
                if threading.get_ident() != caller:
                    log_w[0] = np.nan
                yield log_w

        monkeypatch.setattr(ev, "_ais_steps", flaky)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="1/3 AIS weights"):
            full_report(model, X, n_perms=2, m=4, rng=stream(978, "nan"),
                        cap=0, ais_temps=5, ais_chains=3)
        assert threading.active_count() == before
        assert threads.count(caller) == 1 and len(threads) == 3

    def test_every_span_opens_on_the_calling_thread(self, monkeypatch):
        # perfbench's tracer keeps one span stack: the runs on the worker
        # open none, and every traced call stays on the calling thread
        import irbm
        import irbm.evaluation as ev
        monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
        import tracer as tracing
        model, X, _ = ais_case(0)
        force_workers(monkeypatch, 2)
        opened, ran = [], []
        open_span, steps = tracing.Tracer._open, ev._ais_steps

        def recording_open(self, name):
            opened.append(threading.get_ident())
            return open_span(self, name)

        def recording_steps(*args):
            for log_w in steps(*args):
                ran.append(threading.get_ident())
                yield log_w

        monkeypatch.setattr(tracing.Tracer, "_open", recording_open)
        monkeypatch.setattr(ev, "_ais_steps", recording_steps)
        tr = tracing.Tracer()
        with tr.installed(irbm):
            irbm.evaluation.full_report(model, X, n_perms=2, m=4,
                                        rng=stream(979, "traced"), cap=0,
                                        ais_temps=6, ais_chains=3)
        assert len(set(ran)) == 2            # the steps did use a worker
        assert set(opened) == {threading.get_ident()}
        assert all(s[3] < i and s[1] <= s[2] for i, s in enumerate(tr.spans))
        names = collections.Counter(s[0] for s in tr.spans)
        assert names["evaluation.full_report"] == 1
        assert names["evaluation.order_pass"] == 3

    @pytest.mark.parametrize("C", [0, 3])
    def test_memory_holds_one_buffer_set_per_worker(self, monkeypatch, C):
        # the three runs of n_perms=2 are all in flight on two workers; a
        # buffer set holding its own scaled copy of the model per run would
        # put three sets at once over the budget
        N, D, l = 3, 200, 300
        model = make_model(985 + C, D=D, l=l, C=C, scale=0.1)
        X = random_binary(986, 40, D)
        Y = np.arange(40) % C if C else None
        model_copy = sum(a.nbytes for _, a in model.blocks())
        # the scaled model with its unit penalties; the chains' scratch: six
        # arrays at most l + 1 wide, the visible means, the label logits,
        # eight vectors and the bool unit draws
        buffer_set = model_copy + 8 * l + N * (8 * (6 * (l + 1) + D + C + 8) + l + 1)
        run_state = 8 * N * (D + l + 3)         # V, G, prev, log_w and Y
        one_pass = peak_traced_bytes(order_pass, model, X, Y is not None)
        budget = 2 * model_copy + 2 * buffer_set + 3 * run_state + one_pass
        force_workers(monkeypatch, 2)
        peak = peak_traced_bytes(lambda: full_report(
            model, X, Y, n_perms=2, m=100, rng=stream(987, "memory", C), cap=0,
            ais_temps=4, ais_chains=3))
        assert peak <= budget, f"peak {peak / 2 ** 20:.2f} MB > {budget / 2 ** 20:.2f} MB"

    @pytest.mark.parametrize("runs", range(1, 7))
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("steps", [1, 4, 99])
    def test_step_plan(self, runs, workers, steps):
        from irbm.evaluation import _step_plan
        plan = _step_plan(runs, steps, workers)
        # at most one worker per run, so a run is never split in three
        share = -(-runs * steps // min(workers, runs))
        assert 1 <= len(plan) <= workers and plan[0][0][:2] == (0, 0)
        pieces = sorted(piece for pieces in plan for piece in pieces)
        for r in range(runs):
            # each run's steps once, in order: one piece, or two that meet
            cover = [piece[1:] for piece in pieces if piece[0] == r]
            assert [lo for lo, _ in cover] == [0] + [hi for _, hi in cover[:-1]]
            assert cover[-1][1] == steps and all(lo < hi for lo, hi in cover)
            assert len(cover) <= 2
        assert len(pieces) == len(set(pieces))
        for w, pieces in enumerate(plan):
            assert sum(hi - lo for _, lo, hi in pieces) <= share
            for i, (r, lo, hi) in enumerate(pieces):
                if lo:                       # the last part of a split run
                    assert i == len(pieces) - 1
                    assert plan[w + 1][0] == (r, 0, lo)
                elif hi < steps:             # its first part
                    assert i == 0 and plan[w - 1][-1] == (r, hi, steps)
                    # it ends before the last part starts on the other worker
                    assert hi <= sum(b - a for _, a, b in plan[w - 1][:-1])
        if workers >= runs:
            assert plan == [[(r, 0, steps)] for r in range(runs)]

    def test_split_runs_keep_their_bits_under_frequent_switches(self, monkeypatch):
        # three workers on two cores, every plan with split runs, and the
        # interpreter switching threads every microsecond
        from irbm.evaluation import _step_plan
        model, X, Y = ais_case(3)
        assert all(any(lo for pieces in _step_plan(runs, 7, 3) for _, lo, _ in pieces)
                   for runs in (4, 5, 7))
        outs = []

        def reports():
            for k in (1, 3):
                force_workers(monkeypatch, k)
                for n_perms in (3, 4, 6):
                    rng = stream(984, "switches", n_perms)
                    report = full_report(model, X, Y, n_perms=n_perms, m=4, rng=rng,
                                         cap=0, ais_temps=8, ais_chains=4)
                    outs.append((report.to_json(), generator_state(rng)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t = threading.Thread(target=reports, daemon=True)
            t.start()
            t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not t.is_alive() and len(outs) == 6
        assert outs[3:] == outs[:3]

    def test_a_failed_piece_stops_every_worker(self, monkeypatch):
        # the worker's first piece is the first part of a run whose last
        # part the calling thread waits for; it fails only once the calling
        # thread has started its own first run, so that thread goes on to
        # wait for the failed part
        import irbm.evaluation as ev
        model, X, _ = ais_case(0)
        force_workers(monkeypatch, 2)
        steps, out, started = ev._ais_steps, {}, threading.Event()

        class Boom(Exception):
            pass

        def failing(*args):
            if threading.get_ident() != out["caller"]:
                started.wait(timeout=30)
                raise Boom
            started.set()
            yield from steps(*args)

        def report():
            out["caller"] = threading.get_ident()
            try:
                full_report(model, X, n_perms=2, m=4, rng=stream(983, "boom"),
                            cap=0, ais_temps=9, ais_chains=3)
            except Exception as exc:
                out["error"] = exc

        monkeypatch.setattr(ev, "_ais_steps", failing)
        assert ev._step_plan(3, 8, 2)[1][0] == (1, 0, 4)
        before = threading.active_count()
        t = threading.Thread(target=report, daemon=True)
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()
        assert isinstance(out.get("error"), Boom)
        assert threading.active_count() == before


class TestLabelReads:
    @pytest.mark.parametrize("cap", [0, EXACT_D_CAP])
    def test_likelihood_passes_reduce_no_class_axis(self, monkeypatch, cap):
        from irbm.model import ZPosterior
        model, X, Y = ais_case(3)
        reduce = ZPosterior.log_label_probs
        calls = []

        def counted(self):
            calls.append(1)
            return reduce(self)

        monkeypatch.setattr(ZPosterior, "log_label_probs", counted)
        permutation_averaged_loglik(model, X, 3, stream(980, "pa"), m=4)
        check_order_invariance(model, X, 4, 3, stream(981, "inv"), cap=cap)
        full_report(model, X, None, n_perms=3, m=4, rng=stream(982, "report"),
                    cap=cap, ais_temps=5, ais_chains=3)
        assert calls == []
        # with labels: the model's own order and the 3 classification passes
        full_report(model, X, Y, n_perms=3, m=4, rng=stream(982, "report"),
                    cap=cap, ais_temps=5, ais_chains=3)
        assert len(calls) == 4

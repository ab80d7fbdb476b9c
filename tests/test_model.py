import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, softmax

import oracles
from conftest import make_model, random_binary
from irbm import model
from irbm.model import (
    LN2,
    ModelParams,
    PenaltyConfig,
    apply_permutation,
    free_energy,
    label_joint_log_weights,
    log_cond_y_given_v,
    marginal_z_posterior,
    unit_inputs,
    z_posterior,
    zero_model,
)
from irbm.rng import stream
from irbm.sampling import categorical_rows, draw_h, draw_v, draw_y

BETA = 1.01
R = math.exp(LN2 - BETA * LN2)


class TestFreeEnergy:
    def test_zero_model_value(self):
        m = zero_model(D=5)
        v = random_binary(1, 1, 5)[0]
        for z in (1, 2, 7):
            assert free_energy(m, v, z) == pytest.approx(z * 0.01 * LN2, abs=1e-12)

    def test_tail_units_add_constant(self):
        m = make_model(11, D=4, l=3)
        v = random_binary(2, 1, 4)[0]
        beta_zero = m.penalty.beta_zero
        f_l = free_energy(m, v, 3)
        for k in (1, 2, 5):
            assert free_energy(m, v, 3 + k) == pytest.approx(
                f_l + k * (beta_zero - LN2), abs=1e-12)

    def test_matches_hidden_enumeration(self):
        m = make_model(5, D=4, l=3)
        v = np.array([1.0, 1.0, 0.0, 1.0])
        got = free_energy(m, v, 2)
        want = oracles.free_energy_by_hidden_enumeration(m, v, 2)
        assert got == pytest.approx(want, abs=1e-10)
        assert got == pytest.approx(1.1501366576029146, abs=1e-10)

    @pytest.mark.parametrize("z", [1, 3, 5, 8, 12])
    def test_enumeration_consistency_through_tail(self, z):
        m = make_model(9, D=3, l=4)
        v = np.array([0.0, 1.0, 1.0])
        assert free_energy(m, v, z) == pytest.approx(
            oracles.free_energy_by_hidden_enumeration(m, v, z), abs=1e-10)

    def test_labeled_variant(self):
        m = make_model(6, D=4, l=3, C=2)
        v = np.array([1.0, 0.0, 0.0, 1.0])
        for y in (0, 1):
            assert free_energy(m, v, 2, y=y) == pytest.approx(
                oracles.free_energy_by_hidden_enumeration(m, v, 2, y=y), abs=1e-10)

    def test_dynamic_penalty_mode(self):
        m = make_model(8, D=3, l=2, mode="dynamic")
        v = np.array([1.0, 1.0, 0.0])
        assert free_energy(m, v, 2) == pytest.approx(
            oracles.free_energy_by_hidden_enumeration(m, v, 2), abs=1e-10)

    def test_g_form_drops_visible_bias(self):
        # label_joint_log_weights holds -G(y, z | v) for z = 1..l+1
        m = make_model(12, D=4, l=3, C=2)
        v = np.array([1.0, 0.0, 1.0, 1.0])
        logw = label_joint_log_weights(m, v[None]).head_log_weights
        for y in (0, 1):
            for z in (1, 3, 4):
                want = free_energy(m, v, z, y=y) + float(v @ m.b_v)
                assert -logw[0, y, z - 1] == pytest.approx(want, abs=1e-12)


class TestZPosterior:
    def test_zero_model_is_geometric(self):
        m = zero_model(D=2)
        zp = z_posterior(m, np.zeros(2))
        probs = zp.head_probs()
        for k in (1, 2):
            assert probs[k - 1] == pytest.approx((1 - R) * R ** (k - 1), abs=1e-12)

    def test_normalization(self):
        m = make_model(21, D=4, l=3, C=2)
        for y in (None, 0, 1):
            zp = z_posterior(m, random_binary(3, 1, 4)[0], y)
            total = zp.head_probs().sum() + zp.tail_prob()
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_head_matches_long_truncation(self):
        m = make_model(22, D=4, l=3)
        v = random_binary(4, 1, 4)[0]
        zp = z_posterior(m, v)
        truncated = oracles.z_posterior_by_truncation(m, v, 10_000)
        head = zp.head_probs()
        assert np.max(np.abs(head[:3] - truncated[:3])) < 1e-10

    def test_divergent_penalty_rejected(self):
        with pytest.raises(ValueError):
            PenaltyConfig(beta=1.0)
        with pytest.raises(ValueError):
            PenaltyConfig(beta=0.5)

    def test_p_z_geq_structure(self):
        m = make_model(23, D=5, l=4)
        zp = z_posterior(m, random_binary(5, 1, 5)[0])
        geq = zp.p_z_geq()
        assert geq[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(geq) <= 1e-15)

    def test_mass_at_most_complements_suffix(self):
        m = make_model(24, D=4, l=4)
        zp = z_posterior(m, random_binary(6, 1, 4)[0])
        for k in (1, 2, 4):
            lhs = np.exp(zp.mass_at_most(k))
            rhs = 1.0 - zp.p_z_geq()[k]
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_batch_agrees_with_single(self):
        m = make_model(25, D=4, l=3)
        V = random_binary(7, 5, 4)
        batch = z_posterior(m, V)
        for i in range(5):
            single = z_posterior(m, V[i])
            assert np.allclose(batch.head_log_weights[i], single.head_log_weights)
            assert batch.log_norm[i] == pytest.approx(float(single.log_norm))


class TestConditionals:
    def test_hidden_means_zero_model(self):
        m = zero_model(D=3)
        assert np.allclose(expit(unit_inputs(m, np.zeros((1, 3)))), 0.5)

    def test_hidden_means_above_cutoff_are_zero(self):
        m = make_model(31, D=3, l=4)
        Z = np.array([2, 1, 4, 5] * 50)
        H = draw_h(m, np.ones((Z.size, 3)), Z, None, stream(31, "h-cutoff"))
        assert H.shape == (Z.size, 5)
        assert not np.any(H[np.arange(5)[None, :] >= Z[:, None]])

    def test_hidden_means_match_direct_sigmoid(self):
        m = make_model(32, D=4, l=3, C=2)
        v = np.array([1.0, 0.0, 1.0, 1.0])
        A = unit_inputs(m, v[None], np.array([1]))[0]
        means = expit(A)
        for i in range(3):
            a = oracles.unit_input(m, v, i + 1, y=1)
            assert A[i] == pytest.approx(a, abs=1e-12)
            assert means[i] == pytest.approx(1 / (1 + math.exp(-a)), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        m = zero_model(D=3)
        with pytest.raises(ValueError):
            unit_inputs(m, np.zeros((1, 4)))

    def test_visible_means(self):
        # draw_v sets pixel j where its uniform falls below
        # sigmoid(b_v + sum of the active rows of W)
        m = make_model(33, D=4, l=2)
        H = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]] * 500)
        want = np.where(H[:, :1] == 1.0,
                        1 / (1 + np.exp(-(m.b_v + m.W[0] + m.W[1]))),
                        1 / (1 + np.exp(-m.b_v)))
        u = stream(33, "v-means").random(want.shape)
        got = draw_v(m, H, stream(33, "v-means"))
        assert np.array_equal(got, (u < want).astype(np.float64))
        zero = draw_v(zero_model(4), np.zeros((1000, 2)), stream(34, "v-zero"))
        u = stream(34, "v-zero").random((1000, 4))
        assert np.array_equal(zero, (u < 0.5).astype(np.float64))

    def test_label_conditional_given_h(self):
        # draw_y inverts the CDF of softmax(d + h U) at one uniform per row
        m = make_model(34, D=3, l=2, C=4)
        H = np.zeros((2000, 3))
        want = np.exp(m.d) / np.exp(m.d).sum()
        assert want.sum() == pytest.approx(1.0, abs=1e-12)
        got = draw_y(m, H, stream(34, "y-given-h"))
        assert np.array_equal(got, categorical_rows(np.tile(want, (2000, 1)),
                                                    stream(34, "y-given-h")))
        uniform = draw_y(zero_model(3, C=4), H[:, :2], stream(35, "y-uniform"))
        assert np.array_equal(uniform, categorical_rows(np.full((2000, 4), 0.25),
                                                        stream(35, "y-uniform")))

    def test_label_posterior_uniform_for_zero_model(self):
        m = zero_model(D=3, C=5)
        assert np.allclose(np.exp(log_cond_y_given_v(m, np.ones(3))), 0.2)

    def test_label_posterior_needs_label_units(self):
        with pytest.raises(ValueError, match="no label weights"):
            log_cond_y_given_v(make_model(34, D=4, l=3), np.ones(4))

    def test_label_posterior_sums_to_one(self):
        m = make_model(35, D=4, l=3, C=3)
        p = np.exp(log_cond_y_given_v(m, random_binary(8, 6, 4)))
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_label_posterior_matches_truncated_sum(self):
        m = make_model(36, D=4, l=3, C=3)
        v = np.array([1.0, 1.0, 0.0, 1.0])
        got = np.exp(log_cond_y_given_v(m, v))
        want = oracles.cond_y_by_truncation(m, v, 10_000)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_label_conditional_at_fixed_cutoff(self):
        m = make_model(37, D=4, l=3, C=3)
        v = np.array([0.0, 1.0, 1.0, 0.0])
        vb = float(v @ m.b_v)
        logw = label_joint_log_weights(m, v[None]).head_log_weights
        for z in (1, 2, 4):
            got = softmax(logw[0, :, z - 1])
            logits = np.array([-(oracles.free_energy_by_loops(m, v, z, y) - vb)
                               for y in range(3)])
            want = np.exp(logits - logits.max())
            want /= want.sum()
            assert np.allclose(got, want, atol=1e-12)


def marginal_h_probs(m, v):
    """p(h_i = 1 | v) for the l units: sigmoid(input_i) * p(z >= i | v)."""
    V = v[None]
    return (expit(unit_inputs(m, V)) * z_posterior(m, V).p_z_geq()[:, :m.l])[0]


class TestMarginalHidden:
    def test_zero_model_geometric_damping(self):
        m = zero_model(D=2)
        grown = ModelParams(W=np.zeros((4, 2)), b_v=np.zeros(2), c=np.zeros(4),
                            penalty=m.penalty)
        probs = marginal_h_probs(grown, np.zeros(2))
        for i in (1, 2, 3):
            assert probs[i - 1] == pytest.approx(0.5 * R ** (i - 1), abs=1e-12)

    def test_first_unit_always_reachable(self):
        m = make_model(41, D=4, l=3)
        zp = z_posterior(m, np.ones(4))
        assert zp.p_z_geq()[0] == pytest.approx(1.0, abs=1e-12)

    def test_identity_against_truncated_sum(self):
        m = make_model(42, D=4, l=4)
        v = random_binary(9, 1, 4)[0]
        probs = oracles.z_posterior_by_truncation(m, v, 10_000)
        got = marginal_h_probs(m, v)
        for i in (1, 2, 4):
            s = 1 / (1 + math.exp(-oracles.unit_input(m, v, i)))
            want = s * probs[i - 1:].sum()
            assert got[i - 1] == pytest.approx(want, abs=1e-10)


class TestPermutation:
    def test_identity_is_noop(self):
        m = make_model(51, D=4, l=3, C=2)
        out = apply_permutation(m, np.arange(3))
        assert np.array_equal(out.W, m.W)
        assert np.array_equal(out.c, m.c)
        assert np.array_equal(out.U, m.U)

    def test_inverse_restores(self):
        m = make_model(52, D=5, l=4, C=3)
        order = np.array([2, 0, 3, 1])
        there = apply_permutation(m, order)
        back = apply_permutation(there, np.argsort(order))
        assert np.array_equal(back.W, m.W)
        assert np.array_equal(back.c, m.c)
        assert np.array_equal(back.U, m.U)

    def test_swap_exchanges_rows(self):
        m = make_model(53, D=4, l=3)
        out = apply_permutation(m, np.array([1, 0]))
        assert np.array_equal(out.W[0], m.W[1])
        assert np.array_equal(out.W[1], m.W[0])
        assert np.array_equal(out.W[2], m.W[2])
        assert np.array_equal(out.b_v, m.b_v)

    def test_too_long_rejected(self):
        m = make_model(54, D=3, l=2)
        with pytest.raises(ValueError):
            apply_permutation(m, np.array([0, 1, 2]))

    def test_non_bijection_rejected(self):
        m = make_model(55, D=3, l=3)
        with pytest.raises(ValueError):
            apply_permutation(m, np.array([0, 0, 1]))


class TestMarginalZPosterior:
    def test_reduces_to_plain_posterior_when_unlabeled(self):
        m = make_model(61, D=4, l=3)
        v = random_binary(10, 1, 4)[0]
        a = marginal_z_posterior(m, v)
        b = z_posterior(m, v)
        assert np.allclose(a.head_log_weights, b.head_log_weights)

    def test_marginalizes_classes(self):
        m = make_model(62, D=4, l=3, C=3)
        v = random_binary(11, 1, 4)[0]
        marg = marginal_z_posterior(m, v).clamped_probs()
        # explicit sum over classes of the joint p(z, y | v)
        per_class = []
        p_y_norm = []
        for y in range(3):
            zp = z_posterior(m, v, y)
            per_class.append(np.exp(zp.head_log_weights))
            p_y_norm.append(np.exp(zp.tail_log_mass))
        joint_head = np.sum(per_class, axis=0)
        joint_tail = np.sum(p_y_norm)
        total = joint_head.sum() + joint_tail
        want = joint_head / total
        want[-1] += joint_tail / total
        assert np.allclose(marg, want, atol=1e-12)

    def test_labeled_batch_stays_within_its_memory_budget(self):
        # one (n, C, l+1) array of this batch would take 32 MB
        m = make_model(63, D=20, l=200, C=10)
        V = random_binary(12, 2000, 20)
        tracemalloc.start()
        try:
            marginal_z_posterior(m, V)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_labeled_marginal_never_normalizes_the_classes(self, monkeypatch):
        m = make_model(64, D=6, l=5, C=3)
        built = []

        def recording(*args, **kwargs):
            built.append(label_joint_log_weights(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(model, "label_joint_log_weights", recording)
        marginal_z_posterior(m, random_binary(13, 30, 6))
        marginal_z_posterior(m, random_binary(14, 1, 6)[0])
        assert len(built) == 2
        for post in built:
            assert post.head_log_weights.shape[1:] == (3, 6)
            assert "log_norm" not in vars(post)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 6), l=st.integers(1, 5))
def test_posterior_probabilities_well_formed(seed, d, l):
    m = make_model(seed, D=d, l=l)
    v = random_binary(seed + 1, 1, d)[0]
    zp = z_posterior(m, v)
    probs = zp.clamped_probs()
    assert np.all(probs >= 0)
    assert probs.sum() + (zp.head_probs().sum() + zp.tail_prob()
                          - probs.sum()) == pytest.approx(1.0, abs=1e-10)
    geq = zp.p_z_geq()
    assert np.all((geq >= -1e-12) & (geq <= 1 + 1e-12))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_conditional_outputs_are_probabilities(seed):
    m = make_model(seed, D=4, l=3, C=3)
    v = random_binary(seed, 1, 4)
    h = expit(unit_inputs(m, v))
    assert np.all((h >= 0) & (h <= 1))
    p = np.exp(log_cond_y_given_v(m, v[0]))
    assert np.all(p >= 0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import chisquare

import oracles
from conftest import make_model, random_binary
from irbm.model import ModelParams, log_cond_y_given_v, unit_inputs, z_posterior, zero_model
from irbm.rng import stream
from irbm.sampling import (
    FantasyChains,
    draw_h,
    draw_y_given_vz,
    draw_z,
    gibbs_sweep,
    init_chains,
    run_cd,
    run_label_cd,
    run_pcd,
)


def pattern_counts(V, D):
    codes = (np.asarray(V, dtype=np.int64) @ (1 << np.arange(D - 1, -1, -1))).astype(np.int64)
    return np.bincount(codes, minlength=2 ** D)


class TestZSampling:
    def test_zero_model_clamped_geometric(self):
        m = ModelParams(W=np.zeros((3, 4)), b_v=np.zeros(4), c=np.zeros(3))
        rng = stream(0, "z-geom")
        draws = np.array([draw_z(m, np.zeros((1, 4)), None, rng)[0]
                          for _ in range(10_000)])
        counts = np.bincount(draws, minlength=5)[1:5]
        r = np.exp(m.penalty.log_tail_ratio)
        probs = np.array([(1 - r) * r ** k for k in range(3)])
        probs = np.append(probs, 1 - probs.sum())   # tail pooled at l+1
        result = chisquare(counts, probs * draws.size)
        assert result.pvalue > 0.01

    def test_degenerate_posterior_respects_floor(self):
        m = ModelParams(W=np.zeros((3, 2)), b_v=np.zeros(2),
                        c=np.array([0.0, 50.0, 0.0]))
        rng = stream(2, "z-floor")
        draws = [draw_z(m, np.zeros((1, 2)), None, rng)[0] for _ in range(500)]
        assert min(draws) >= 2

    def test_seeded_model_frequencies_match_posterior(self):
        m = make_model(77, D=4, l=3)
        v = np.array([1.0, 0.0, 1.0, 1.0])
        zp = z_posterior(m, v[None])
        probs = zp.clamped_probs()[0]
        n = 40_000
        batch = z_posterior(m, np.tile(v, (n, 1))).sample(stream(3, "z-freq"))
        counts = np.bincount(batch, minlength=5)[1:5]
        for k in range(4):
            se = np.sqrt(probs[k] * (1 - probs[k]) * n)
            assert abs(counts[k] - probs[k] * n) < 3 * se + 1

    def test_never_exceeds_pool_plus_one(self):
        # strong positive biases push all mass far beyond the pool
        m = ModelParams(W=np.zeros((2, 3)), b_v=np.zeros(3),
                        c=np.array([30.0, 30.0]))
        rng = stream(4, "z-clamp")
        draws = [draw_z(m, np.ones((1, 3)), None, rng)[0] for _ in range(300)]
        assert max(draws) == 3  # l + 1


class TestGenerativeChain:
    def test_zero_model_visible_moments(self):
        m = zero_model(D=5)
        rng = stream(5, "gen-moments")
        V = random_binary(0, 100, 5)
        total = np.zeros(5)
        steps = 1000
        for _ in range(steps):
            V, _, _ = gibbs_sweep(m, V, None, rng)
            total += V.mean(axis=0)
        assert np.all(np.abs(total / steps - 0.5) < 0.01)

    def test_single_step_api(self):
        m = make_model(88, D=4, l=2)
        V, Y, Z = gibbs_sweep(m, np.zeros((1, 4)), None, stream(6, "gen-step"))
        assert V.shape == (1, 4)
        assert Y is None
        assert set(np.unique(V)) <= {0, 1}
        assert 1 <= Z[0] <= m.l + 1

    def test_joint_step_api(self):
        m = make_model(89, D=4, l=2, C=3)
        V, Y = np.zeros((1, 4)), np.array([0])
        rng = stream(7, "joint-step")
        seen = set()
        for _ in range(60):
            V, Y, Z = gibbs_sweep(m, V, Y, rng)
            assert 0 <= Y[0] < 3
            assert 1 <= Z[0] <= m.l + 1
            seen.add(int(Y[0]))
        assert len(seen) > 1   # the label actually moves

    def test_stationary_distribution_tiny_model(self):
        m = make_model(101, D=3, l=2, scale=0.8)
        from irbm.evaluation import exact_visible_distribution
        exact = exact_visible_distribution(m)
        rng = stream(7, "gen-stationary")
        n_chains, n_steps, burn = 50, 4000, 200
        V = random_binary(1, n_chains, 3)
        counts = np.zeros(8)
        for step in range(n_steps):
            V, _, _ = gibbs_sweep(m, V, None, rng)
            if step >= burn:
                counts += pattern_counts(V, 3)
        emp = counts / counts.sum()
        tv = 0.5 * np.abs(emp - exact).sum()
        assert tv < 0.02

    def test_reproducible_given_seed(self):
        m = make_model(99, D=4, l=3)
        runs = []
        for _ in range(2):
            rng = stream(123, "gen-repro")
            V = random_binary(9, 10, 4)
            for _ in range(20):
                V, _, Z = gibbs_sweep(m, V, None, rng)
            runs.append((V.copy(), Z.copy()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])


def label_chain_step(m, V, Y, rng):
    """One sweep of the clamped (z, y) chain on a batch: z ~ p(z | v, y),
    then y ~ p(y | v, z)."""
    Z = draw_z(m, V, Y, rng)
    return draw_y_given_vz(m, V, Z, rng), Z


class TestDiscriminativeChain:
    def test_zero_model_uniform_labels(self):
        m = zero_model(D=3, C=4)
        V = np.ones((1, 3))
        rng = stream(8, "dis-uniform")
        Y = np.array([0])
        counts = np.zeros(4)
        for i in range(4000):
            Y, _ = label_chain_step(m, V, Y, rng)
            if i >= 200:
                counts[Y[0]] += 1
        freq = counts / counts.sum()
        assert np.all(np.abs(freq - 0.25) < 0.03)

    def test_matches_exact_label_conditional(self):
        m = make_model(111, D=4, l=2, C=2, scale=0.8)
        v = np.array([1.0, 0.0, 1.0, 0.0])
        exact = np.exp(log_cond_y_given_v(m, v[None])[0])
        rng = stream(9, "dis-exact")
        Y = np.array([0])
        counts = np.zeros(2)
        for i in range(6000):
            Y, _ = label_chain_step(m, v[None], Y, rng)
            if i >= 300:
                counts[Y[0]] += 1
        emp = counts / counts.sum()
        tv = 0.5 * np.abs(emp - exact).sum()
        assert tv < 0.02

    def test_clamp_respected(self):
        m = make_model(112, D=3, l=2, C=3)
        rng = stream(10, "dis-clamp")
        Y = np.array([1])
        for _ in range(200):
            Y, Z = label_chain_step(m, np.ones((1, 3)), Y, rng)
            assert Z[0] <= m.l + 1


class TestNegativePhases:
    def test_cd_requires_at_least_one_step(self):
        m = make_model(120, D=3, l=2)
        V = random_binary(2, 4, 3)
        with pytest.raises(ValueError):
            run_cd(m, V, np.ones(4, dtype=int), 0, stream(11, "cd"))
        with pytest.raises(ValueError):
            run_pcd(m, init_chains(m, 4, stream(12, "pc")), 0, stream(13, "cd"))

    def test_cd1_zero_model_moments(self):
        m = zero_model(D=6)
        means = []
        for rep in range(300):
            V = random_binary(rep, 20, 6)
            neg = run_cd(m, V, np.ones(20, dtype=int), 1, stream(14, "cd1", rep))
            means.append(neg.v.mean())
        assert abs(np.mean(means) - 0.5) < 0.01

    def test_cd_size_mismatch_rejected(self):
        m = make_model(121, D=3, l=2)
        with pytest.raises(ValueError):
            run_cd(m, random_binary(3, 4, 3), np.ones(3, dtype=int), 1,
                   stream(15, "cd-mismatch"))

    def test_pcd_preserves_chain_count(self):
        m = make_model(122, D=4, l=2)
        chains = init_chains(m, 7, stream(16, "pcd-init"))
        neg, updated = run_pcd(m, chains, 2, stream(17, "pcd-run"))
        assert updated.n_chains == 7
        assert neg.v.shape == (7, 4)
        assert np.all(neg.z <= m.l + 1)

    def test_label_cd_outputs(self):
        m = make_model(123, D=4, l=2, C=3)
        V = random_binary(4, 6, 4)
        Y = np.array([0, 1, 2, 0, 1, 2])
        neg = run_label_cd(m, V, Y, 3, stream(18, "label-cd"))
        assert neg.y.shape == (6,)
        assert np.all((neg.y >= 0) & (neg.y < 3))
        assert np.all(neg.z <= m.l + 1)
        assert neg.v is not Y

    def test_joint_chain_updates_labels(self):
        m = make_model(124, D=4, l=2, C=2)
        chains = init_chains(m, 50, stream(19, "joint-init"), labeled=True)
        neg, updated = run_pcd(m, chains, 3, stream(20, "joint-run"))
        assert updated.y is not None
        assert neg.y.shape == (50,)


class TestCutoffBoundedDraw:
    """draw_h compares only the units below max(Z), yet gives the bytes of
    the full formula and leaves the generator where the full draw does."""

    @pytest.mark.parametrize("pattern", ["all-1", "mixed", "all-l", "all-l+1"])
    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 100])
    @pytest.mark.parametrize("D", [1, 5, 784])
    def test_bytes_and_generator_state(self, D, n, labeled, pattern):
        l = 500
        m = make_model(130 + D, D=D, l=l, C=3 if labeled else 0, scale=0.05)
        data = np.random.default_rng([D, n])
        V = (data.random((n, D)) < 0.5).astype(np.float64)
        Y = data.integers(0, 3, n) if labeled else None
        Z = {"all-1": np.ones(n, dtype=np.int64), "mixed": data.integers(1, 30, n),
             "all-l": np.full(n, l), "all-l+1": np.full(n, l + 1)}[pattern]
        A = unit_inputs(m, V, Y)

        rng, ref_rng = stream(140, "bounded-h"), stream(140, "bounded-h")
        H = draw_h(m, V, Z, Y, rng, A=A)
        means = np.empty((n, l + 1))
        means[:, :l] = expit(A)
        means[:, l] = 0.5
        mask = np.arange(l + 1)[None, :] < Z[:, None]
        ref = ((ref_rng.random((n, l + 1)) < means) & mask).astype(np.float64)
        assert H.tobytes() == ref.tobytes()
        assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)
        assert H.tobytes() == draw_h(m, V, Z, Y, stream(140, "bounded-h")).tobytes()

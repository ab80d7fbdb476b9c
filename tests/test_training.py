import numpy as np
import pytest
from scipy.special import expit

import oracles
from conftest import make_model, random_binary, same_bundle
from irbm.evaluation import (
    exact_cond_loglik,
    exact_generative_gradient,
    exact_loglik,
)
from irbm.model import ModelParams, unit_inputs, zero_model, z_posterior
from irbm.rng import stream
from irbm.sampling import PhaseSamples, run_label_cd
from irbm.training import (
    Gradients,
    OptimizerState,
    RegroupState,
    TrainConfig,
    Trainer,
    Workspace,
    current_regroup_length,
    fraction_length,
    grad_discriminative_exact,
    grad_discriminative_sampled,
    grad_generative,
    growth_decision,
    max_norm_project,
    regroup_schedule_update,
    sample_permutation,
    _mix_in_place,
    _permute_rows,
)


class TestSamplePermutation:
    def test_short_lengths_are_identity(self):
        rng = stream(0, "perm")
        assert np.array_equal(sample_permutation(0, rng), np.arange(0))
        assert np.array_equal(sample_permutation(1, rng), np.arange(1))

    def test_uniform_over_all_orders(self):
        rng = stream(1, "perm-uniform")
        counts = {}
        n = 60_000
        for _ in range(n):
            key = tuple(sample_permutation(3, rng))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for freq in counts.values():
            assert abs(freq / n - 1 / 6) < 0.01


class TestGenerativeGradient:
    def test_identical_phases_cancel(self):
        m = zero_model(D=4)
        V = random_binary(0, 6, 4)
        z = np.ones(6, dtype=int)
        pos = PhaseSamples(v=V, z=z)
        neg = PhaseSamples(v=V.copy(), z=z.copy())
        g = grad_generative(m, pos, neg)
        for _, arr in g.blocks():
            assert np.allclose(arr, 0.0)

    def test_rows_beyond_both_cutoffs_are_zero(self):
        m = make_model(10, D=4, l=3)
        V = random_binary(1, 5, 4)
        pos = PhaseSamples(v=V, z=np.full(5, 2))
        neg = PhaseSamples(v=random_binary(2, 5, 4), z=np.full(5, 1))
        g = grad_generative(m, pos, neg)
        assert np.allclose(g.W[2], 0.0)
        assert g.c[2] == 0.0

    def test_token_mismatch_rejected(self):
        m = make_model(11, D=3, l=2)
        V = random_binary(3, 4, 3)
        pos = PhaseSamples(v=V, z=np.ones(4, dtype=int), step_token=1)
        neg = PhaseSamples(v=V, z=np.ones(4, dtype=int), step_token=2)
        with pytest.raises(ValueError):
            grad_generative(m, pos, neg)

    @pytest.mark.parametrize("seed,mode", [(21, "constant"), (22, "dynamic")])
    def test_exact_gradient_matches_finite_differences(self, seed, mode):
        m = make_model(seed, D=5, l=3, scale=0.8, mode=mode)
        X = random_binary(seed, 6, 5)

        def objective(theta):
            return -exact_loglik(oracles.unpack_params(m, theta), X)

        theta0 = oracles.pack_params(m)
        fd = oracles.finite_difference_gradient(objective, theta0, h=1e-5)
        analytic = oracles.pack_gradients(exact_generative_gradient(m, X))
        assert oracles.max_relative_error(analytic, fd, floor=1e-7) < 1e-6


class TestDiscriminativeGradient:
    def test_balanced_zero_model_has_zero_label_bias_gradient(self):
        m = zero_model(D=3, C=2)
        v = random_binary(5, 1, 3)[0]
        V = np.stack([v, v])
        Y = np.array([0, 1])
        g = grad_discriminative_exact(m, V, Y)
        assert np.allclose(g.d, 0.0, atol=1e-14)

    def test_first_row_uses_full_posterior_mass(self):
        # p(z >= 1) = 1, so the data term of row 1 is the bare sigmoid row
        m = make_model(30, D=4, l=1, C=2)
        v = random_binary(6, 1, 4)[0]
        zp = z_posterior(m, v[None], 0)
        assert zp.p_z_geq()[0, 0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed,mode", [(31, "constant"), (32, "dynamic")])
    def test_exact_gradient_matches_finite_differences(self, seed, mode):
        m = make_model(seed, D=5, l=3, C=3, scale=0.8, mode=mode)
        X = random_binary(seed, 6, 5)
        Y = np.array([0, 1, 2, 0, 1, 2])

        def objective(theta):
            return -exact_cond_loglik(oracles.unpack_params(m, theta), X, Y)

        theta0 = oracles.pack_params(m)
        fd = oracles.finite_difference_gradient(objective, theta0, h=1e-5)
        analytic = oracles.pack_gradients(grad_discriminative_exact(m, X, Y))
        assert oracles.max_relative_error(analytic, fd, floor=1e-7) < 1e-6

    def test_visible_bias_untouched(self):
        m = make_model(33, D=4, l=2, C=3)
        g = grad_discriminative_exact(m, random_binary(7, 5, 4),
                                      np.array([0, 1, 2, 1, 0]))
        assert np.allclose(g.b_v, 0.0)

    def test_missing_labels_rejected(self):
        m = make_model(34, D=3, l=2)
        with pytest.raises(ValueError):
            grad_discriminative_exact(m, random_binary(8, 4, 3), np.zeros(4, dtype=int))


class TestSampledDiscriminativeGradient:
    def test_single_class_label_bias_gradient_is_zero(self):
        m = make_model(40, D=3, l=2, C=1)
        V = random_binary(9, 4, 3)
        Y = np.zeros(4, dtype=int)
        neg = run_label_cd(m, V, Y, 2, stream(20, "lcd"))
        z_pos = z_posterior(m, V, Y).sample(stream(21, "zpos"))
        g = grad_discriminative_sampled(m, V, Y, z_pos, neg)
        assert np.allclose(g.d, 0.0)

    def test_clamp_respected_in_both_phases(self):
        m = make_model(41, D=4, l=2, C=2)
        V = random_binary(10, 8, 4)
        Y = np.zeros(8, dtype=int)
        z_pos = z_posterior(m, V, Y).sample(stream(22, "zpos2"))
        neg = run_label_cd(m, V, Y, 3, stream(23, "lcd2"))
        assert np.all(z_pos <= m.l + 1)
        assert np.all(neg.z <= m.l + 1)

    def test_mean_matches_exact_gradient(self):
        m = make_model(42, D=3, l=2, C=2, scale=0.7)
        V = random_binary(11, 4, 3)
        Y = np.array([0, 1, 1, 0])
        exact = oracles.pack_gradients(grad_discriminative_exact(m, V, Y))
        n_draws = 3000
        samples = np.empty((n_draws, exact.size))
        for i in range(n_draws):
            rng = stream(1000, "estimator", i)
            z_pos = z_posterior(m, V, Y).sample(rng)
            neg = run_label_cd(m, V, Y, 25, rng)
            g = grad_discriminative_sampled(m, V, Y, z_pos, neg)
            samples[i] = oracles.pack_gradients(g)
        mean = samples.mean(axis=0)
        se = samples.std(axis=0) / np.sqrt(n_draws)
        assert np.all(np.abs(mean - exact) <= 3 * se + 1e-9)


def _mixed(dis, gen, alpha, convention):
    """The trainer's in-place hybrid mix, run on copies of its inputs."""
    return _mix_in_place(dis.copy(), gen.copy(), alpha, convention)


class TestHybridGradient:
    def _parts(self):
        m = make_model(50, D=4, l=2, C=2)
        V = random_binary(12, 5, 4)
        Y = np.array([0, 1, 0, 1, 0])
        dis = grad_discriminative_exact(m, V, Y)
        pos = PhaseSamples(v=V, z=np.full(5, 2), y=Y)
        neg = PhaseSamples(v=random_binary(13, 5, 4), z=np.full(5, 1),
                           y=np.array([1, 0, 1, 0, 1]))
        gen = grad_generative(m, pos, neg)
        return dis, gen

    def test_alpha_zero_is_pure_discriminative_up_to_convention(self):
        dis, gen = self._parts()
        h = _mixed(dis, gen, 0.0, "paper")
        assert np.allclose(h.W, dis.W)
        assert np.allclose(h.d, dis.d)

    def test_weighted_sum_of_parts(self):
        dis, gen = self._parts()
        alpha = 0.3
        h = _mixed(dis, gen, alpha, "paper")
        assert np.allclose(h.W, (1 + alpha) * dis.W + alpha * gen.W)
        h2 = _mixed(dis, gen, alpha, "larochelle")
        assert np.allclose(h2.W, dis.W + alpha * gen.W)

    def test_best_reported_mix_wiring(self):
        dis, gen = self._parts()
        h = _mixed(dis, gen, 0.005, "paper")
        assert np.allclose(h.c, 1.005 * dis.c + 0.005 * gen.c)

    @pytest.mark.parametrize("convention", ["paper", "larochelle"])
    def test_inputs_unchanged_and_mix_bitwise(self, convention):
        dis, gen = self._parts()
        before = dis.copy(), gen.copy()
        alpha = 0.3
        h = _mixed(dis, gen, alpha, convention)
        for name, arr in h.blocks():
            d, g = getattr(dis, name), getattr(gen, name)
            assert np.array_equal(d, getattr(before[0], name))
            assert np.array_equal(g, getattr(before[1], name))
            mixed = (d * (1.0 + alpha) if convention == "paper" else d) + g * alpha
            assert np.array_equal(arr, mixed), name

    def test_unknown_convention_rejected(self):
        dis, gen = self._parts()
        with pytest.raises(ValueError):
            _mixed(dis, gen, 0.1, "other")


class TestGrowthRule:
    def test_decision_table(self):
        assert growth_decision(3, 3, 2) is True
        assert growth_decision(3, 2, 2) is False
        assert growth_decision(2, 3, 2) is False
        assert growth_decision(2, 2, 2) is False

    def test_growth_appends_zero_unit(self):
        # strong positive hidden biases force both phases past the pool
        params = ModelParams(W=np.zeros((2, 3)), b_v=np.zeros(3),
                             c=np.array([8.0, 8.0]))
        config = TrainConfig(objective="generative", lr_mode="decay",
                             global_lr=1e-12, l1_weight=0.0, l2_weight=0.0,
                             minibatch_size=4, seed=3)
        trainer = Trainer(params, config, n_train=4)
        V = random_binary(14, 4, 3)
        stats = trainer.update_step(V)
        assert stats["grew"] is True
        assert trainer.params.l == 3
        assert np.allclose(trainer.params.W[2], 0.0)
        assert trainer.params.c[2] == 0.0
        assert trainer.opt.unit_age[2] == 1  # ages tick at the end of the step

    def test_pool_growth_is_monotone_and_single_step(self):
        params = zero_model(D=4)
        config = TrainConfig(objective="generative", minibatch_size=8, seed=4)
        trainer = Trainer(params, config, n_train=8)
        sizes = [trainer.params.l]
        for _ in range(15):
            trainer.update_step(random_binary(15, 8, 4))
            sizes.append(trainer.params.l)
        diffs = np.diff(sizes)
        assert np.all(diffs >= 0)
        assert np.all(diffs <= 1)


class TestOptimizerStep:
    def test_zero_gradient_leaves_parameters_alone(self):
        m = make_model(60, D=4, l=3)
        config = TrainConfig(l1_weight=0.0, l2_weight=0.0, minibatch_size=4,
                             seed=5)
        trainer = Trainer(m.copy(), config, n_train=4)
        before = trainer.params.copy()
        trainer._apply_gradient(Gradients.zeros(trainer.params))
        assert np.array_equal(trainer.params.W, before.W)
        assert np.array_equal(trainer.params.b_v, before.b_v)

    def test_nonfinite_gradient_reports_block(self):
        m = make_model(61, D=3, l=2)
        config = TrainConfig(minibatch_size=2, seed=6)
        trainer = Trainer(m, config, n_train=2)
        bad = Gradients.zeros(trainer.params)
        bad.c[0] = np.nan
        with pytest.raises(FloatingPointError, match="c"):
            trainer._apply_gradient(bad)

    def test_max_norm_projection_is_exact(self):
        m = make_model(62, D=4, l=3, C=2)
        m.W[0] *= 100.0
        m.U[1] *= 100.0
        max_norm_project(m, 10.0, 5.0)
        norms_w = np.linalg.norm(m.W, axis=1)
        norms_u = np.linalg.norm(m.U, axis=1)
        assert norms_w.max() <= 10.0 + 1e-12
        assert norms_u.max() <= 5.0 + 1e-12
        assert norms_w[0] == pytest.approx(10.0, abs=1e-9)
        assert norms_u[1] == pytest.approx(5.0, abs=1e-9)

    def test_bounds_hold_after_updates(self):
        config = TrainConfig(objective="generative", global_lr=5.0,
                             w_bound=2.0, u_bound=1.0, minibatch_size=8, seed=7)
        trainer = Trainer(zero_model(D=5), config, n_train=8)
        for _ in range(10):
            trainer.update_step(random_binary(16, 8, 5))
            assert np.linalg.norm(trainer.params.W, axis=1).max() <= 2.0 + 1e-12

    def test_momentum_ramps_with_unit_age(self):
        config = TrainConfig(momentum_ramp_updates=10, minibatch_size=2, seed=8)
        trainer = Trainer(make_model(63, D=3, l=3), config, n_train=2)
        trainer.opt.unit_age = np.array([0, 5, 20])
        unit, glob = trainer._momentum()
        assert unit[0] == pytest.approx(0.5)
        assert unit[1] == pytest.approx(0.7)
        assert unit[2] == pytest.approx(0.9)
        assert glob == pytest.approx(0.5)


class TestPermutationBookkeeping:
    def test_round_trip_restores_params_and_optimizer(self):
        m = make_model(70, D=4, l=4, C=2)
        config = TrainConfig(minibatch_size=2, seed=9)
        trainer = Trainer(m.copy(), config, n_train=2)
        trainer.opt.acc.W += np.arange(16).reshape(4, 4)
        trainer.opt.vel.c += np.arange(4)
        trainer.opt.unit_age = np.array([3, 1, 4, 1])
        before_params = trainer.params.copy()
        before_acc = trainer.opt.acc.W.copy()
        before_age = trainer.opt.unit_age.copy()
        order = np.array([2, 0, 1])
        _permute_rows(trainer.params, trainer.opt, order)
        assert np.array_equal(trainer.params.W[:3], before_params.W[order])
        assert np.array_equal(trainer.params.U[:3], before_params.U[order])
        assert np.array_equal(trainer.opt.acc.W[:3], before_acc[order])
        assert np.array_equal(trainer.opt.unit_age[:3], before_age[order])
        inverse = np.argsort(order)
        _permute_rows(trainer.params, trainer.opt, inverse)
        assert np.array_equal(trainer.params.W, before_params.W)
        assert np.array_equal(trainer.params.c, before_params.c)
        assert np.array_equal(trainer.opt.acc.W, before_acc)
        assert np.array_equal(trainer.opt.unit_age, before_age)


class TestRegroupSchedule:
    def test_fraction_examples(self):
        assert fraction_length(10, 0.8) == 8
        assert fraction_length(1, 0.8) == 0
        assert fraction_length(5, 0.0) == 0

    def test_adaptive_value_from_history(self):
        config = TrainConfig(regroup_mode="adaptive", adaptive_switch_epoch=1,
                             minibatch_size=2, seed=10)
        state = RegroupState(prev_l=200)
        for _ in range(5):
            state.mode_sum += 100.0 * 7
            state.mode_count += 7
            regroup_schedule_update(state, 200, config)
        assert state.phase == "adaptive"
        assert state.M_t == 90

    def test_adaptive_capped_below_pool(self):
        config = TrainConfig(regroup_mode="adaptive", adaptive_switch_epoch=0,
                             minibatch_size=2, seed=11)
        state = RegroupState(prev_l=12)
        state.mode_sum += 500.0
        state.mode_count += 1
        regroup_schedule_update(state, 12, config)
        assert state.M_t == 11

    def test_off_mode_never_regroups(self):
        config = TrainConfig(regroup_mode="off", minibatch_size=2, seed=12)
        assert current_regroup_length(RegroupState(), 50, config) == 0

    def test_mz_window_uses_last_fifth(self):
        config = TrainConfig(regroup_mode="adaptive", adaptive_switch_epoch=0,
                             minibatch_size=2, seed=13)
        state = RegroupState(prev_l=1000)
        # 10 epochs: first 8 at 100, last 2 at 200; window of 2 -> mean 200
        for value in [100.0] * 8 + [200.0] * 2:
            state.mode_sum = value
            state.mode_count = 1
            regroup_schedule_update(state, 1000, config)
        assert state.M_t == 190


class TestRegroupTrajectory:
    """Per-epoch (l, M_t) and the regroup statistic's history, recorded from
    the trainer before growth and permutation ran in place. The statistic
    reads the stepped model before it grows; read after growth, every epoch
    that grows moves mz_history. Only the adaptive schedule records it."""

    HYBRID_LM = [(7, 3), (13, 6), (19, 9), (25, 12), (31, 15), (37, 18)]

    def _run(self, params, config, X, Y, epochs):
        trainer = Trainer(params, config, n_train=X.shape[0])
        lm = []
        for _ in range(epochs):
            stats = trainer.run_epoch(X, Y)
            lm.append((stats["l"], stats["M"]))
        return lm, trainer.regroup.mz_history

    def test_generative_adaptive_regroup(self):
        from irbm.datasets import synth_bars_and_stripes
        X = synth_bars_and_stripes(3, 200, 0).X.astype(np.float64)
        config = TrainConfig(objective="generative", minibatch_size=20,
                             regroup_mode="adaptive", adaptive_switch_epoch=4,
                             regroup_rho=0.5, global_lr=0.1, seed=11)
        lm, mz = self._run(zero_model(D=9), config, X, None, 8)
        assert lm == [(11, 5), (21, 10), (28, 14), (35, 0), (44, 7), (54, 7),
                      (63, 8), (72, 8)]
        assert mz == [6.5, 14.965, 8.625, 6.69, 16.54, 17.97, 18.395, 18.015]

    def _hybrid(self, **regroup):
        from irbm.datasets import synth_shifted_patterns
        ds = synth_shifted_patterns(8, 3, 120, 0, labeled=True)
        config = TrainConfig(objective="hybrid", alpha=0.05, minibatch_size=20,
                             regroup_rho=0.5, global_lr=0.1, seed=12, **regroup)
        return self._run(zero_model(D=8, C=8), config,
                         ds.X.astype(np.float64), ds.y.astype(np.int64), 6)

    def test_hybrid_fixed_regroup(self):
        # fixed never reads the statistic, so each epoch records the 0.0
        # placeholder
        lm, mz = self._hybrid(regroup_mode="fixed")
        assert lm == self.HYBRID_LM
        assert mz == [0.0] * 6

    def test_hybrid_adaptive_early_phase(self):
        # before its switch epoch the adaptive schedule runs the fixed one
        # and records the statistic every epoch
        lm, mz = self._hybrid(regroup_mode="adaptive", adaptive_switch_epoch=7)
        assert lm == self.HYBRID_LM
        assert mz == [4.5, 10.5, 16.5, 21.791666666666668, 26.583333333333332,
                      28.675]


class TestTrainConfig:
    @pytest.mark.parametrize("n_chains", [0, -3])
    def test_chain_count_below_one_rejected(self, n_chains):
        with pytest.raises(ValueError, match="n_chains"):
            TrainConfig(n_chains=n_chains).validate()

    def test_default_chain_count_is_the_minibatch_size(self):
        config = TrainConfig(use_pcd=True, minibatch_size=7, seed=26)
        trainer = Trainer(zero_model(D=3), config, n_train=7)
        assert trainer.chains.n_chains == 7


class TestTrainerDeterminism:
    @pytest.mark.parametrize("use_pcd", [False, True])
    def test_same_seed_same_trajectory(self, use_pcd):
        X = random_binary(17, 40, 5)
        runs = []
        for _ in range(2):
            config = TrainConfig(objective="generative", use_pcd=use_pcd,
                                 cd_steps=2, minibatch_size=10,
                                 regroup_mode="fixed", regroup_rho=0.7, seed=21)
            trainer = Trainer(zero_model(D=5), config, n_train=40)
            for _ in range(3):
                trainer.run_epoch(X)
            runs.append(trainer.params)
        assert np.array_equal(runs[0].W, runs[1].W)
        assert np.array_equal(runs[0].b_v, runs[1].b_v)
        assert np.array_equal(runs[0].c, runs[1].c)

    def test_hybrid_runs_and_grows(self):
        ds_X = random_binary(18, 30, 4)
        ds_Y = (np.arange(30) % 3).astype(int)
        config = TrainConfig(objective="hybrid", alpha=0.01, cd_steps=1,
                             minibatch_size=10, seed=22)
        trainer = Trainer(zero_model(D=4, C=3), config, n_train=30)
        for _ in range(3):
            trainer.run_epoch(ds_X, ds_Y)
        assert trainer.params.l >= 1
        assert np.all(np.isfinite(trainer.params.W))

    def test_objective_requires_labels(self):
        config = TrainConfig(objective="discriminative", minibatch_size=4, seed=23)
        with pytest.raises(ValueError):
            Trainer(zero_model(D=4), config, n_train=4)

    @pytest.mark.parametrize("dis_grad", ["exact", "sampled"])
    def test_discriminative_objective_learns_separable_labels(self, dis_grad):
        from irbm.datasets import synth_shifted_patterns
        from irbm.evaluation import classification_metrics
        ds = synth_shifted_patterns(6, 2, 120, seed=24, labeled=True)
        X = ds.X.astype(float)
        config = TrainConfig(objective="discriminative", dis_grad=dis_grad,
                             lr_mode="adagrad", global_lr=0.1, cd_steps=2,
                             minibatch_size=30, seed=25)
        trainer = Trainer(zero_model(D=6, C=6), config, n_train=120)
        for _ in range(15):
            trainer.run_epoch(X, ds.y)
        error, _, _, _ = classification_metrics(trainer.params, X, ds.y)
        assert trainer.params.l >= 2          # growth driven by sampled cutoffs
        assert error < 0.5                    # far below the 5/6 chance level


def _nan_bundle(params):
    g = Gradients.zeros(params)
    for _, arr in g.blocks():
        arr.fill(np.nan)
    return g


def _nan_workspace(params) -> Workspace:
    return Workspace(*(_nan_bundle(params) for _ in range(3)))


def _same_state(a: Trainer, b: Trainer) -> bool:
    same_chains = (a.chains is None and b.chains is None) or (
        np.array_equal(a.chains.v, b.chains.v)
        and (a.chains.y is None) == (b.chains.y is None)
        and (a.chains.y is None or np.array_equal(a.chains.y, b.chains.y)))
    return (same_bundle(a.params, b.params) and same_bundle(a.opt.acc, b.opt.acc)
            and same_bundle(a.opt.vel, b.opt.vel)
            and np.array_equal(a.opt.unit_age, b.opt.unit_age)
            and a.opt.t == b.opt.t and a.regroup == b.regroup and same_chains)


# (model is labeled, penalty mode, config overrides)
WORKSPACE_CASES = {
    "generative-cd": (False, "constant", dict(objective="generative", cd_steps=2)),
    "generative-pcd": (True, "constant", dict(objective="generative", use_pcd=True)),
    "hybrid-paper": (True, "constant", dict(objective="hybrid", alpha=0.3)),
    "hybrid-larochelle": (True, "constant", dict(objective="hybrid", alpha=0.3,
                                                 hybrid_convention="larochelle")),
    "hybrid-sampled": (True, "constant", dict(objective="hybrid", alpha=0.3,
                                              dis_grad="sampled", cd_steps=2)),
    "discriminative": (True, "constant", dict(objective="discriminative")),
    "dynamic-penalty": (True, "dynamic", dict(objective="hybrid", alpha=0.3)),
}


class TestWorkspace:
    """Gradient terms written into a workspace, fresh or reused, are the
    terms of fresh bundles bit for bit."""

    @staticmethod
    def _trainer(case, start=None):
        labeled, mode, overrides = WORKSPACE_CASES[case]
        params = start if start is not None else make_model(
            60, D=6, l=5, C=3 if labeled else 0, scale=1.5, mode=mode)
        config = TrainConfig(minibatch_size=8, regroup_mode="fixed",
                             regroup_rho=0.7, global_lr=0.5, seed=61, **overrides)
        return Trainer(params.copy(), config, n_train=24)

    @staticmethod
    def _data(labeled):
        return random_binary(62, 24, 6), (np.arange(24) % 3 if labeled else None)

    @pytest.mark.parametrize("case", WORKSPACE_CASES)
    def test_nan_filled_workspace(self, case):
        labeled = WORKSPACE_CASES[case][0]
        X, Y = self._data(labeled)
        filled, fresh = self._trainer(case), self._trainer(case)
        for i in range(3):
            rows = slice(8 * i, 8 * i + 8)
            V, Yb = X[rows], None if Y is None else Y[rows]
            filled.update_step(V, Yb, _nan_workspace(filled.params))
            fresh.update_step(V, Yb)
        assert np.all(np.isfinite(filled.params.W))
        assert _same_state(filled, fresh)

    @pytest.mark.parametrize("mode", ["constant", "dynamic"])
    def test_terms_into_nan_bundles(self, mode):
        m = make_model(63, D=6, l=5, C=3, scale=1.5, mode=mode)
        V, Y = random_binary(64, 8, 6), np.arange(8) % 3
        pos = PhaseSamples(v=V, z=np.arange(8) % 7 + 1, y=Y)
        neg = PhaseSamples(v=random_binary(65, 8, 6), z=np.arange(8)[::-1] % 7 + 1,
                           y=(Y + 1) % 3)
        nan = [_nan_bundle(m) for _ in range(2)]
        assert same_bundle(grad_generative(m, pos, neg, out=nan[0], scratch=nan[1]),
                            grad_generative(m, pos, neg))
        nan = [_nan_bundle(m) for _ in range(2)]
        assert same_bundle(
            grad_discriminative_sampled(m, V, Y, pos.z, neg, out=nan[0], scratch=nan[1]),
            grad_discriminative_sampled(m, V, Y, pos.z, neg))
        unlabeled = [PhaseSamples(v=p.v, z=p.z) for p in (pos, neg)]
        nan = [_nan_bundle(m) for _ in range(2)]
        assert same_bundle(grad_generative(m, *unlabeled, out=nan[0], scratch=nan[1]),
                            grad_generative(m, *unlabeled))
        out = _nan_bundle(m)
        assert grad_discriminative_exact(m, V, Y, out=out) is out
        assert same_bundle(out, grad_discriminative_exact(m, V, Y))

    @pytest.mark.parametrize("case", ["hybrid-paper", "generative-pcd"])
    def test_epoch_with_growth_equals_bare_updates(self, case):
        labeled = WORKSPACE_CASES[case][0]
        X, Y = self._data(labeled)
        start = zero_model(D=6, C=3 if labeled else 0)
        epoch, bare = self._trainer(case, start), self._trainer(case, start)
        epoch.run_epoch(X, Y)

        cfg = bare.config
        order = stream(cfg.seed, "shuffle", 0).permutation(X.shape[0])
        grew = []
        for start_row in range(0, X.shape[0], cfg.minibatch_size):
            idx = order[start_row:start_row + cfg.minibatch_size]
            grew.append(bare.update_step(X[idx], None if Y is None else Y[idx])["grew"])
        regroup_schedule_update(bare.regroup, bare.params.l, cfg)
        bare.epochs_done += 1
        assert any(grew[:-1])           # the pool grew before the last update
        assert _same_state(epoch, bare)


BOUNDED_L = 500
# cutoff patterns of the positive and negative phase: (pos, neg) draws
CUTOFF_PATTERNS = {
    "all-1": lambda rng, n: (np.ones(n, dtype=np.int64),) * 2,
    "mixed": lambda rng, n: (rng.integers(1, 13, n), rng.integers(1, 41, n)),
    "mixed-pos-higher": lambda rng, n: (rng.integers(1, 41, n), rng.integers(1, 13, n)),
    "all-l": lambda rng, n: (np.full(n, BOUNDED_L),) * 2,
    "all-l+1": lambda rng, n: (np.full(n, BOUNDED_L + 1),) * 2,
}


def _reference_phase_term(m, V, Z, Y, visible_bias):
    """The phase term from the full formulas: every product over all l rows."""
    n, l = V.shape[0], m.l
    mask = (np.arange(l)[None, :] < Z[:, None]).astype(np.float64)
    S = expit(unit_inputs(m, V, Y)) * mask
    term = {"W": -(S.T @ V) / n,
            "b_v": -V.mean(axis=0) if visible_bias else np.zeros(m.D),
            "c": -S.mean(axis=0)}
    if m.penalty.mode == "dynamic":
        term["c"] = term["c"] + m.penalty.beta * expit(m.c) * mask.mean(axis=0)
    if m.has_labels:
        E = np.zeros((n, m.C)) if Y is None else np.eye(m.C)[Y]
        term["U"] = -(S.T @ E) / n if Y is not None else np.zeros((l, m.C))
        term["d"] = -E.mean(axis=0) if Y is not None else np.zeros(m.C)
    return term


def _reference_difference(m, pos, neg, visible_bias):
    gp = _reference_phase_term(m, pos.v, pos.z, pos.y, visible_bias)
    gn = _reference_phase_term(m, neg.v, neg.z, neg.y, visible_bias)
    return {name: gp[name] - gn[name] for name in gp}


def _bytes_differ(g, ref) -> list:
    """Blocks whose bytes differ from the reference (the sign of zero
    included, which np.array_equal cannot see)."""
    assert sorted(name for name, _ in g.blocks()) == sorted(ref)
    return [name for name, arr in g.blocks() if arr.tobytes() != ref[name].tobytes()]


class TestCutoffBoundedPhaseStatistics:
    """The phase products bounded by the largest cutoff give the bytes of the
    full -(S.T @ V) / n formulas, including the +0.0 of every row above it,
    into fresh or NaN-filled bundles. D = 1 and n = 500 reach the guards:
    a matrix-vector product and a batch above BOUNDED_MAX_BATCH."""

    @staticmethod
    def _case(D, C, mode, n, pattern):
        m = make_model(70 + D + C, D=D, l=BOUNDED_L, C=C, scale=0.05, mode=mode)
        rng = np.random.default_rng([D, C, n, len(pattern)])
        z_pos, z_neg = CUTOFF_PATTERNS[pattern](rng, n)
        V = (rng.random((n, D)) < 0.5).astype(np.float64)
        V_neg = (rng.random((n, D)) < 0.5).astype(np.float64)
        Y = rng.integers(0, C, n) if C else None
        Y_neg = rng.integers(0, C, n) if C else None
        return m, V, V_neg, Y, Y_neg, z_pos, z_neg

    @pytest.mark.parametrize("n", [1, 2, 100, 500])
    @pytest.mark.parametrize("mode", ["constant", "dynamic"])
    @pytest.mark.parametrize("C", [0, 3])
    @pytest.mark.parametrize("D", [1, 2, 5, 784])
    def test_generative(self, D, C, mode, n):
        for pattern in CUTOFF_PATTERNS:
            m, V, V_neg, Y, Y_neg, z_pos, z_neg = self._case(D, C, mode, n, pattern)
            pos = PhaseSamples(v=V, z=z_pos, y=Y)
            neg = PhaseSamples(v=V_neg, z=z_neg, y=Y_neg)
            ref = _reference_difference(m, pos, neg, visible_bias=True)
            into_nan = grad_generative(m, pos, neg, out=_nan_bundle(m),
                                       scratch=_nan_bundle(m))
            assert _bytes_differ(into_nan, ref) == [], pattern
            assert _bytes_differ(grad_generative(m, pos, neg), ref) == [], pattern

    @pytest.mark.parametrize("n", [1, 2, 100, 500])
    @pytest.mark.parametrize("mode", ["constant", "dynamic"])
    @pytest.mark.parametrize("D", [1, 2, 5, 784])
    def test_discriminative_sampled(self, D, mode, n):
        for pattern in CUTOFF_PATTERNS:
            m, V, _, Y, Y_neg, z_pos, z_neg = self._case(D, 3, mode, n, pattern)
            neg = PhaseSamples(v=V, z=z_neg, y=Y_neg)
            ref = _reference_difference(m, PhaseSamples(v=V, z=z_pos, y=Y), neg,
                                        visible_bias=False)
            into_nan = grad_discriminative_sampled(
                m, V, Y, z_pos, neg, A=unit_inputs(m, V), out=_nan_bundle(m),
                scratch=_nan_bundle(m))
            assert _bytes_differ(into_nan, ref) == [], pattern
            assert _bytes_differ(grad_discriminative_sampled(m, V, Y, z_pos, neg),
                                 ref) == [], pattern

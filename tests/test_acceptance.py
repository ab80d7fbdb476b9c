"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The training-heavy
criteria (growth/regroup and the convergence comparison) share one cached
set of runs. The classification criterion uses real MNIST IDX files when
found under $IRBM_MNIST_DIR or ./data/mnist and otherwise falls back to the
bundled scikit-learn digits corpus with the same protocol and error bar.
"""

import importlib.util
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from baseline import PlainTrainer
from conftest import make_model, random_binary
from irbm.datasets import binarize_stochastic, load_mnist_idx
from irbm.evaluation import (
    ais_log_partition,
    check_order_invariance,
    classification_metrics,
    exact_cond_loglik,
    exact_generative_gradient,
    exact_log_partition,
    exact_loglik,
    exact_visible_distribution,
)
from irbm.model import ModelParams, free_energy, log_cond_y_given_v, z_posterior, zero_model
from irbm.rng import stream
from irbm.sampling import draw_y_given_vz, draw_z, gibbs_sweep, run_label_cd
from irbm.training import (
    TrainConfig,
    Trainer,
    grad_discriminative_exact,
    grad_discriminative_sampled,
)


def criterion(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# -- 1: exactness -------------------------------------------------------------


def test_criterion_1_exactness_suite():
    t0 = time.monotonic()
    worst_norm = 0.0
    worst_fe = 0.0
    worst_zp = 0.0
    for i in range(50):
        picker = np.random.default_rng(9000 + i)
        D = int(picker.integers(2, 9))
        l = int(picker.integers(1, 6))
        C = int(picker.integers(0, 4))
        C = 0 if C < 2 else C
        m = make_model(9000 + i, D=D, l=l, C=C, scale=0.8)
        p = exact_visible_distribution(m, cap=10)
        worst_norm = max(worst_norm, abs(float(p.sum()) - 1.0))
        v = random_binary(9500 + i, 1, D)[0]
        y = (i % C) if C else None
        for z in sorted({1, l, l + 1}):
            got = free_energy(m, v, z, y=y)
            want = oracles.free_energy_by_hidden_enumeration(m, v, z, y=y)
            worst_fe = max(worst_fe, abs(got - want))
        zp = z_posterior(m, v, y)
        truncated = oracles.z_posterior_by_truncation(m, v, 10_000, y)
        head = zp.head_probs()
        worst_zp = max(worst_zp, float(np.max(np.abs(head - truncated[: l + 1]))))
    elapsed = time.monotonic() - t0
    criterion(1, "exactness suite",
              worst_norm < 1e-10 and worst_fe < 1e-10 and worst_zp < 1e-10
              and elapsed < 60,
              f"norm {worst_norm:.1e}, free energy {worst_fe:.1e}, "
              f"z-posterior {worst_zp:.1e}, {elapsed:.1f}s")


# -- 2: gradients -------------------------------------------------------------


def test_criterion_2_gradient_suite():
    t0 = time.monotonic()
    worst = 0.0
    for i in range(10):
        m = make_model(9100 + i, D=5 + (i % 2), l=1 + (i % 3), scale=0.8,
                       mode="constant" if i % 2 else "dynamic")
        X = random_binary(9150 + i, 6, m.D)

        def objective(theta, m=m, X=X):
            return -exact_loglik(oracles.unpack_params(m, theta), X)

        fd = oracles.finite_difference_gradient(objective, oracles.pack_params(m))
        analytic = oracles.pack_gradients(exact_generative_gradient(m, X))
        worst = max(worst, oracles.max_relative_error(analytic, fd, floor=1e-7))
    for i in range(10):
        m = make_model(9200 + i, D=4 + (i % 2), l=1 + (i % 3), C=3, scale=0.8)
        X = random_binary(9250 + i, 6, m.D)
        Y = np.array([0, 1, 2, 0, 1, 2])

        def objective(theta, m=m, X=X, Y=Y):
            return -exact_cond_loglik(oracles.unpack_params(m, theta), X, Y)

        fd = oracles.finite_difference_gradient(objective, oracles.pack_params(m))
        analytic = oracles.pack_gradients(grad_discriminative_exact(m, X, Y))
        worst = max(worst, oracles.max_relative_error(analytic, fd, floor=1e-7))
    elapsed = time.monotonic() - t0
    criterion(2, "gradient suite", worst < 1e-6 and elapsed < 120,
              f"max relative error {worst:.2e}, {elapsed:.1f}s")


# -- 3: sampler fidelity ------------------------------------------------------


def test_criterion_3_sampler_fidelity():
    m = make_model(101, D=3, l=2, scale=0.8)
    exact = exact_visible_distribution(m)
    rng = stream(9301, "acc-gen")
    n_chains, burn = 64, 500
    n_steps = burn + math.ceil(1_000_000 / n_chains)
    V = random_binary(9302, n_chains, 3)
    counts = np.zeros(8)
    powers = np.array([4, 2, 1])
    for step in range(n_steps):
        V, _, _ = gibbs_sweep(m, V, None, rng)
        if step >= burn:
            counts += np.bincount((V.astype(np.int64) @ powers), minlength=8)
    tv_gen = 0.5 * float(np.abs(counts / counts.sum() - exact).sum())

    ml = make_model(102, D=3, l=2, C=2, scale=0.8)
    v = np.array([1.0, 0.0, 1.0])
    exact_y = np.exp(log_cond_y_given_v(ml, v))
    rngd = stream(9303, "acc-dis")
    V_t = np.tile(v, (n_chains, 1))
    Y = rngd.integers(0, 2, size=n_chains)
    y_counts = np.zeros(2)
    for step in range(n_steps):
        Z = draw_z(ml, V_t, Y, rngd)
        Y = draw_y_given_vz(ml, V_t, Z, rngd)
        if step >= burn:
            y_counts += np.bincount(Y, minlength=2)
    tv_dis = 0.5 * float(np.abs(y_counts / y_counts.sum() - exact_y).sum())
    criterion(3, "sampler fidelity", tv_gen < 0.02 and tv_dis < 0.02,
              f"generative TV {tv_gen:.4f}, discriminative TV {tv_dis:.4f} "
              f"at 1e6 steps")


# -- 4: order invariance ------------------------------------------------------


def test_criterion_4_order_invariance():
    rng = np.random.default_rng(9401)
    m_units = 3
    satisfying = ModelParams(W=rng.normal(0, 0.3, (m_units + 2, 5)),
                             b_v=rng.normal(0, 0.3, 5),
                             c=np.full(m_units + 2, 40.0))
    X = random_binary(9402, 12, 5)
    sat = check_order_invariance(satisfying, X, m=m_units, n_perms=10,
                                 rng=stream(9403, "acc-inv-sat"))

    rng2 = np.random.default_rng(402)
    violating = ModelParams(W=rng2.normal(0, 2.5, (4, 5)),
                            b_v=rng2.normal(0, 0.5, 5),
                            c=np.array([2.0, 1.0, -1.0, -2.0]))
    vio = check_order_invariance(violating, X, m=m_units, n_perms=10,
                                 rng=stream(9404, "acc-inv-vio"))
    criterion(4, "order invariance",
              sat.max_log_mass < -30 and sat.loglik_spread < 1e-9
              and vio.loglik_spread > 1e-3,
              f"satisfied: mass {sat.max_log_mass:.1f}, spread "
              f"{sat.loglik_spread:.2e}; violated: spread {vio.loglik_spread:.2e}")


# -- 5: AIS accuracy ----------------------------------------------------------


def test_criterion_5_ais_accuracy():
    worst = 0.0
    within = 0
    for i in range(20):
        m = make_model(9500 + i, D=6, l=4, scale=0.6)
        exact = exact_log_partition(m)
        res = ais_log_partition(m, n_temps=100, n_chains=50,
                                rng=stream(9550, "acc-ais", i))
        worst = max(worst, abs(res.log_z - exact))
        within += res.within(exact, 3.0)
    criterion(5, "AIS accuracy", worst < 0.1 and within >= 18,
              f"max |error| {worst:.4f}, {within}/20 within 3 SE")


# -- 6 and 7: growth, regroup and convergence ---------------------------------

BARS_EPOCHS = 50
BARS_THRESHOLD = -7.0

_spec = importlib.util.spec_from_file_location(
    "rp_speedup", Path(__file__).resolve().parents[1] / "scripts" / "rp_speedup.py")
rp_speedup = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rp_speedup)


@pytest.fixture(scope="module")
def bars_runs():
    return {(seed, rho): rp_speedup.run(seed, rho, BARS_EPOCHS,
                                        threshold=BARS_THRESHOLD)
            for seed in range(5) for rho in (0.0, 0.7)}


def test_criterion_6_growth_and_regroup(bars_runs):
    problems = []
    for seed in range(5):
        off = bars_runs[(seed, 0.0)]
        rp = bars_runs[(seed, 0.7)]
        if off.sizes[-1] < 4 or rp.sizes[-1] < 4:
            problems.append(f"seed {seed}: pool stayed at "
                            f"{off.sizes[-1]}/{rp.sizes[-1]} units")
        for name, run in (("off", off), ("rp", rp)):
            if run.final - run.init < 1.0:
                problems.append(f"seed {seed} {name}: gain "
                                f"{run.final - run.init:.2f} nats")
    # qualitative size comparison across the 5 seeds: median final pool size
    # with regrouping within 50% of the regroup-off median
    med_off = float(np.median([bars_runs[(s, 0.0)].sizes[-1] for s in range(5)]))
    med_rp = float(np.median([bars_runs[(s, 0.7)].sizes[-1] for s in range(5)]))
    ratio = abs(med_rp - med_off) / med_off
    if ratio >= 0.5:
        problems.append(f"median size ratio {ratio:.2f} "
                        f"(off {med_off}, rp {med_rp})")
    sizes = [(bars_runs[(s, 0.0)].sizes[-1], bars_runs[(s, 0.7)].sizes[-1])
             for s in range(5)]
    criterion(6, "growth and regroup", not problems,
              "; ".join(problems) if problems else
              f"sizes off/rp per seed {sizes}, median ratio {ratio:.2f}")


def test_criterion_7_rp_convergence_report(bars_runs):
    off, med_off = rp_speedup.epochs_to_cross(
        [bars_runs[(s, 0.0)].crossing for s in range(5)], BARS_EPOCHS)
    rp, med_rp = rp_speedup.epochs_to_cross(
        [bars_runs[(s, 0.7)].crossing for s in range(5)], BARS_EPOCHS)
    verdict = ("RP faster" if med_rp < med_off else
               "tie" if med_rp == med_off else "INVERTED (RP slower)")
    detail = (f"epochs to {BARS_THRESHOLD} nats: off {off} (median {med_off}), "
              f"rp {rp} (median {med_rp}); {verdict}")
    # soft criterion: the comparison is reported; an inversion at desk scale
    # is noted rather than failed
    complete = all(len(v) == 5 for v in (off, rp))
    criterion(7, "RP convergence report", complete, detail)


# -- 8: classification --------------------------------------------------------


def _mnist_dir():
    env = os.environ.get("IRBM_MNIST_DIR")
    candidates = [Path(env)] if env else []
    candidates.append(Path("data/mnist"))
    for root in candidates:
        if (root / "train-images-idx3-ubyte").exists():
            return root
    return None


def _classification_data():
    root = _mnist_dir()
    if root is not None:
        train_x, train_y = load_mnist_idx(root / "train-images-idx3-ubyte",
                                          root / "train-labels-idx1-ubyte")
        test_x, test_y = load_mnist_idx(root / "t10k-images-idx3-ubyte",
                                        root / "t10k-labels-idx1-ubyte")
        train = binarize_stochastic(train_x, seed=42, labels=train_y, n_classes=10)
        test = binarize_stochastic(test_x, seed=43, labels=test_y, n_classes=10)
        pick = np.random.default_rng(0).permutation(train.n)[:1000]
        return (train.X[pick].astype(float), train.y[pick],
                test.X.astype(float), test.y, "binarized MNIST")
    digits = pytest.importorskip("sklearn.datasets").load_digits()
    X = (digits.data / 16.0 >= 0.5).astype(np.float64)
    Y = digits.target.astype(np.int64)
    order = np.random.default_rng(0).permutation(X.shape[0])
    tr, te = order[:1000], order[1000:]
    return X[tr], Y[tr], X[te], Y[te], "bundled 8x8 digits (MNIST files absent)"


def test_criterion_8_classification_sanity():
    Xtr, Ytr, Xte, Yte, source = _classification_data()
    config = TrainConfig(objective="hybrid", alpha=0.01, lr_mode="adagrad",
                         global_lr=0.1, cd_steps=1, minibatch_size=50,
                         regroup_mode="fixed", regroup_rho=0.7, seed=1)
    trainer = Trainer(zero_model(D=Xtr.shape[1], C=10, beta=1.05), config,
                      n_train=1000)
    for _ in range(5):
        trainer.run_epoch(Xtr, Ytr)
    error, _, _, _ = classification_metrics(trainer.params, Xte, Yte)
    criterion(8, "classification sanity", error < 0.15,
              f"test error {error:.3f} on {source} after 5 epochs, "
              f"l={trainer.params.l} (chance 0.90)")


# -- 9: baseline equivalence --------------------------------------------------


def test_criterion_9_baseline_equivalence():
    X = random_binary(9901, 100, 5)
    config = TrainConfig(objective="generative", lr_mode="adagrad",
                         global_lr=0.05, cd_steps=2, minibatch_size=20,
                         regroup_mode="off", seed=31)
    full = Trainer(zero_model(D=5), config, n_train=100)
    plain = PlainTrainer(zero_model(D=5), config, n_train=100)
    identical = True
    for _ in range(20):          # 5 updates per epoch -> 100 updates
        full.run_epoch(X)
        plain.run_epoch(X)
        if not (np.array_equal(full.params.W, plain.params.W)
                and np.array_equal(full.params.b_v, plain.params.b_v)
                and np.array_equal(full.params.c, plain.params.c)
                and np.array_equal(full.opt.acc.W, plain.acc.W)
                and np.array_equal(full.opt.vel.W, plain.vel.W)
                and np.array_equal(full.opt.unit_age, plain.unit_age)):
            identical = False
            break
    criterion(9, "baseline equivalence",
              identical and full.opt.t == 100,
              f"{full.opt.t} updates, trajectories "
              f"{'bitwise identical' if identical else 'diverged'}")


# -- 10: estimator consistency ------------------------------------------------


def test_criterion_10_estimator_consistency():
    m = make_model(42, D=3, l=2, C=2, scale=0.7)
    V = random_binary(11, 4, 3)
    Y = np.array([0, 1, 1, 0])
    exact = oracles.pack_gradients(grad_discriminative_exact(m, V, Y))

    n_draws = 10_000
    reps = np.tile(V, (n_draws, 1))
    reps_y = np.tile(Y, n_draws)
    rng = stream(9950, "acc-estimator")
    z_pos = z_posterior(m, reps, reps_y).sample(rng)
    neg = run_label_cd(m, reps, reps_y, 25, rng)
    samples = np.empty((n_draws, exact.size))
    from irbm.sampling import PhaseSamples
    for r in range(n_draws):
        s = slice(4 * r, 4 * r + 4)
        g = grad_discriminative_sampled(
            m, V, Y, z_pos[s],
            PhaseSamples(v=V, z=neg.z[s], y=neg.y[s]))
        samples[r] = oracles.pack_gradients(g)
    mean = samples.mean(axis=0)
    se = samples.std(axis=0) / np.sqrt(n_draws)
    gaps = np.abs(mean - exact) - 3 * se
    ok = bool(np.all(gaps <= 1e-9))
    criterion(10, "estimator consistency", ok,
              f"worst excess over 3 SE: {float(gaps.max()):.2e} "
              f"over {n_draws} draws")

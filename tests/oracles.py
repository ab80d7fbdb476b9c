"""Independent reference implementations used as test oracles.

Everything here is written with explicit Python loops straight from the
defining formulas. None of it shares code paths with the library's
vectorized kernels, so agreement is meaningful. The one exception is the
AIS reference at the end, which pins the annealing loop rather than a
formula: it calls the library's kernels, building everything afresh at
each temperature.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

LN2 = math.log(2.0)


def penalty_of_unit(params, i):
    """beta_i for 1-based unit i; units beyond the pool pay beta*ln2."""
    beta = params.penalty.beta
    if i > params.l:
        return beta * LN2
    if params.penalty.mode == "dynamic":
        return beta * math.log1p(math.exp(params.c[i - 1]))
    return beta * LN2


def unit_input(params, v, i, y=None):
    """W_i.v (+ U_i,y) + c_i for 1-based i; zero beyond the pool."""
    if i > params.l:
        return 0.0
    a = float(params.c[i - 1])
    for j in range(params.D):
        a += params.W[i - 1, j] * v[j]
    if y is not None:
        a += float(params.U[i - 1, int(y)])
    return a


def energy_by_loops(params, v, h, z, y=None):
    e = 0.0
    for j in range(params.D):
        e -= params.b_v[j] * v[j]
    if y is not None:
        e -= float(params.d[int(y)])
    for i in range(1, z + 1):
        h_i = h[i - 1] if i <= len(h) else 0.0
        e -= h_i * unit_input(params, v, i, y)
        e += penalty_of_unit(params, i)
    return e


def free_energy_by_hidden_enumeration(params, v, z, y=None):
    """-log sum over all 2^z hidden configurations of e^{-E}."""
    energies = []
    for bits in itertools.product((0.0, 1.0), repeat=z):
        energies.append(-energy_by_loops(params, v, np.array(bits), z, y))
    m = max(energies)
    return -(m + math.log(sum(math.exp(e - m) for e in energies)))


def free_energy_by_loops(params, v, z, y=None):
    """Direct softplus-sum form of the free energy."""
    f = 0.0
    for j in range(params.D):
        f -= params.b_v[j] * v[j]
    if y is not None:
        f -= float(params.d[int(y)])
    for i in range(1, z + 1):
        a = unit_input(params, v, i, y)
        f -= math.log1p(math.exp(a)) if a < 30 else a + math.log1p(math.exp(-a))
        f += penalty_of_unit(params, i)
    return f


def _softplus(a):
    return math.log1p(math.exp(a)) if a < 30 else a + math.log1p(math.exp(-a))


def _neg_free_energy_sequence(params, v, z_max, y=None):
    """[-F(v, z)] for z = 1..z_max, accumulated one unit at a time."""
    s = sum(params.b_v[j] * v[j] for j in range(params.D))
    if y is not None:
        s += float(params.d[int(y)])
    out = []
    running = 0.0
    for z in range(1, z_max + 1):
        running += _softplus(unit_input(params, v, z, y)) - penalty_of_unit(params, z)
        out.append(s + running)
    return out


def z_posterior_by_truncation(params, v, z_max, y=None):
    """Normalized p(z | v [, y]) for z = 1..z_max by direct summation."""
    logw = np.array(_neg_free_energy_sequence(params, v, z_max, y))
    m = logw.max()
    w = np.exp(logw - m)
    return w / w.sum()


def log_partition_by_double_loop(params):
    """log Z: outer loop over visible vectors (and classes), inner over z up
    to the pool plus an explicitly summed geometric tail."""
    r = math.exp(LN2 - params.penalty.beta * LN2)
    terms = []
    labels = range(params.C) if params.has_labels else [None]
    for v in itertools.product((0.0, 1.0), repeat=params.D):
        v = np.array(v)
        for y in labels:
            for z in range(1, params.l + 1):
                terms.append(-free_energy_by_loops(params, v, z, y))
            f_l = free_energy_by_loops(params, v, params.l, y)
            terms.append(-f_l + math.log(r / (1.0 - r)))
    m = max(terms)
    return m + math.log(sum(math.exp(t - m) for t in terms))


def log_pstar_truncated(params, v, z_max, y=None):
    """log sum_{z<=z_max} e^{-F(v, z)}, truncation instead of the tail."""
    logw = _neg_free_energy_sequence(params, v, z_max, y)
    m = max(logw)
    return m + math.log(sum(math.exp(t - m) for t in logw))


def loglik_by_double_loop(params, X):
    log_z = log_partition_by_double_loop(params)
    total = 0.0
    for v in np.atleast_2d(X):
        if params.has_labels:
            per_y = []
            for y in range(params.C):
                per_y.append(log_pstar_truncated(params, v, params.l, y)
                             + tail_correction(params, v, y))
            m = max(per_y)
            total += m + math.log(sum(math.exp(t - m) for t in per_y))
        else:
            total += (log_pstar_truncated(params, v, params.l)
                      + tail_correction(params, v))
    return total / np.atleast_2d(X).shape[0] - log_z


def tail_correction(params, v, y=None):
    """log(1 + tail/head) so that log_pstar_truncated(l) + this equals the
    full z sum; computed with the explicit geometric series."""
    r = math.exp(LN2 - params.penalty.beta * LN2)
    head = log_pstar_truncated(params, v, params.l, y)
    tail = -free_energy_by_loops(params, v, params.l, y) + math.log(r / (1 - r))
    return math.log1p(math.exp(tail - head))


def cond_y_by_truncation(params, v, z_max):
    """p(y | v) by summing e^{-G} over z = 1..z_max for every class."""
    vb = sum(params.b_v[j] * v[j] for j in range(params.D))
    weights = []
    for y in range(params.C):
        logw = [t - vb for t in _neg_free_energy_sequence(params, v, z_max, y)]
        m = max(logw)
        weights.append(m + math.log(sum(math.exp(t - m) for t in logw)))
    m = max(weights)
    p = np.array([math.exp(w - m) for w in weights])
    return p / p.sum()


def classic_rbm_loglik_by_enumeration(params, X, n_h):
    """Average log-likelihood of the z-clamped model, enumerating both the
    2^{n_h} hidden states per visible vector and all visible vectors."""
    def log_pstar_rbm(v):
        vals = []
        for bits in itertools.product((0.0, 1.0), repeat=n_h):
            e = 0.0
            for j in range(params.D):
                e -= params.b_v[j] * v[j]
            for i in range(1, n_h + 1):
                e -= bits[i - 1] * unit_input(params, v, i)
            vals.append(-e)
        m = max(vals)
        return m + math.log(sum(math.exp(t - m) for t in vals))

    all_v = [np.array(v) for v in itertools.product((0.0, 1.0), repeat=params.D)]
    logs = [log_pstar_rbm(v) for v in all_v]
    m = max(logs)
    log_z = m + math.log(sum(math.exp(t - m) for t in logs))
    return float(np.mean([log_pstar_rbm(v) for v in np.atleast_2d(X)])) - log_z


# -- finite differences --------------------------------------------------------


def pack_params(params):
    parts = [params.W.ravel(), params.b_v, params.c]
    if params.has_labels:
        parts += [params.U.ravel(), params.d]
    return np.concatenate(parts)


def unpack_params(params, theta):
    from irbm.model import ModelParams
    l, D, C = params.l, params.D, params.C
    i = 0
    W = theta[i:i + l * D].reshape(l, D); i += l * D
    b_v = theta[i:i + D]; i += D
    c = theta[i:i + l]; i += l
    U = d = None
    if params.has_labels:
        U = theta[i:i + l * C].reshape(l, C); i += l * C
        d = theta[i:i + C]; i += C
    return ModelParams(W=W, b_v=b_v, c=c, U=U, d=d, penalty=params.penalty)


def pack_gradients(g):
    parts = [g.W.ravel(), g.b_v, g.c]
    if g.U is not None:
        parts += [g.U.ravel(), g.d]
    return np.concatenate(parts)


def finite_difference_gradient(f, theta0, h=1e-5):
    """Central differences of a scalar function of a flat parameter vector."""
    theta0 = np.asarray(theta0, dtype=np.float64)
    grad = np.zeros_like(theta0)
    for j in range(theta0.size):
        up = theta0.copy(); up[j] += h
        dn = theta0.copy(); dn[j] -= h
        grad[j] = (f(up) - f(dn)) / (2 * h)
    return grad


def max_relative_error(a, b, floor=1e-8):
    """Elementwise |a-b| / max(|a|, |b|, floor), maximized."""
    a = np.asarray(a); b = np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


# -- samplers ------------------------------------------------------------------


def sample_z_inverse_cdf(zp, rng):
    """Reference z draw from a ZPosterior by the inverse CDF of its clamped
    probabilities: one vector takes a scalar uniform and a right-sided
    binary search, a batch one uniform per row and a count of the CDF
    entries at or below it (clamped to l+1)."""
    p = zp.clamped_probs()
    cdf = np.cumsum(p, axis=-1)
    if cdf.ndim == 1:
        u = rng.random() * cdf[-1]
        return int(np.searchsorted(cdf, u, side="right")) + 1
    u = rng.random(cdf.shape[0]) * cdf[:, -1]
    idx = (u[:, None] >= cdf).sum(axis=1)
    return np.minimum(idx, zp.support - 1) + 1


# -- annealing -----------------------------------------------------------------


def ais_building_afresh(params, n_temps, n_chains, rng, base_means=None,
                        n_boot=200):
    """AIS with nothing shared between the steps of a temperature: a new
    interpolated model per temperature (every block times beta_k, then the
    base visible biases mixed in), the current state's posterior built for
    the weight, and `gibbs_sweep` left to build it again for its z draw.
    The same draws in the same order as `evaluation.ais_log_partition`.
    Returns (log_z, std_err, log_weights)."""
    from dataclasses import replace

    from scipy.special import expit, logit, logsumexp

    from irbm.evaluation import base_log_partition
    from irbm.model import log_sum_exp, unit_inputs, with_label_inputs, z_posterior
    from irbm.sampling import gibbs_sweep

    if base_means is None:
        b_base = np.zeros(params.D)
    else:
        b_base = logit(np.clip(np.asarray(base_means, dtype=np.float64),
                               1e-4, 1 - 1e-4))
    betas = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, n_temps - 1)])
    V = (rng.random((n_chains, params.D)) < expit(b_base)).astype(np.float64)
    Y = rng.integers(0, params.C, size=n_chains) if params.has_labels else None

    def model_at(beta):
        m = replace(params, **{name: a * beta for name, a in params.blocks()})
        m.b_v += (1.0 - beta) * b_base
        return m

    def target_inputs(V, Y):
        G = unit_inputs(params, V)
        return G if Y is None else with_label_inputs(params, G, Y)

    log_w = np.zeros(n_chains)
    G = target_inputs(V, Y)
    prev = z_posterior(model_at(betas[0]), V, Y, A=betas[0] * G).log_norm
    for k in range(1, n_temps):
        m = model_at(betas[k])
        A = betas[k] * G
        log_w += z_posterior(m, V, Y, A=A).log_norm - prev
        if k < n_temps - 1:
            V, Y, _ = gibbs_sweep(m, V, Y, rng, A=A)
            G = target_inputs(V, Y)
            prev = z_posterior(m, V, Y, A=betas[k] * G).log_norm
    log_z = (base_log_partition(params, b_base) + logsumexp(log_w)
             - np.log(n_chains))
    boots = [log_sum_exp(log_w[rng.integers(0, n_chains, size=n_chains)])
             - np.log(n_chains) for _ in range(n_boot)]
    return float(log_z), float(np.std(boots)), log_w

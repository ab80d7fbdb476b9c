"""Evaluation: exact partition functions for small models, AIS for the rest,
and the dataset metrics (order invariance, effective size, classification),
each a reduction over `order_pass`: one `model.marginal_z_posterior` per
model ordering, whose label blocks also give a labeled model's log p(y | v).

Everything here reads the model without mutating it. Exact quantities
enumerate all 2^D visible vectors and are guarded by a dimension cap.

Cost of exact evaluation. One enumeration does 2^D * (l+1) cells of work
(times C for labeled models). The vectors are visited in blocks of rows that
share their high bits (`_visible_blocks`), each block sized to about
`model.BLOCK_CELLS` cells by the row-block rule `model.block_rows`, but never
below `MIN_BLOCK_ROWS` rows, so the memory held is the 2^D vector of log p*(v)
(8 * 2^D bytes) plus one block's temporaries; no 2^D x l array is built.
Every row gets the same operations as in a one-shot pass over
`all_binary_vectors(D)`, so per-row values and log Z keep their bits as
long as BLAS computes a row of `V @ W.T` the same way for a block as for the
whole matrix. OpenBLAS 0.3.31 does for every l up to 200 at these block
sizes; at l >= 300, whose blocks shrink to `MIN_BLOCK_ROWS` rows, some
entries move by one unit in the last place.

An unlabeled model is enumerated by `_unit_major_log_pstar_all`, which
holds the per-unit terms unit-major, (l+1, rows), in buffers allocated once
per enumeration. Row-major, a visible vector's row is only 10-60 units long on the bars
models, and numpy's per-row overhead, not arithmetic, is the cost: at 512
rows x 61 units, `np.cumsum(axis=-1)` takes 123 us and the row maximum 55
us, against 41 us for one `exp` over the same cells (Xeon, numpy 2.4).
Each step gives the bits of `log_pstar` on the same block:

- the GEMM is the row-major `V @ W.T` plus c, then one transposed copy; a
  unit-major `W @ V.T` changes bits at some l (250, 300, 333 and 500 among
  those tried);
- softplus and the penalty are the same ufuncs in the same order, in
  place; `max(x, 0) + t` in place of `t + max(x, 0)` is the same IEEE sum;
- the cumulative sum over units is l-1 `np.add` calls on row views built
  once, each adding the next unit to the running sum, as the sequential
  `np.cumsum` does;
- the maximum over z is taken along the unit axis: a maximum is exact in
  any order;
- the sum over z runs as `np.sum(axis=-1)` on a row-major copy, so numpy's
  pairwise summation groups the terms as it does on each row of `log_pstar`.

Labeled models run `log_pstar` per block; it is also the reference the
kernel is tested against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, logit, logsumexp

from .model import (
    ModelParams,
    ParamBundle,
    ZPosterior,
    apply_permutation,
    block_rows,
    free_energy,
    log_sum_exp,
    marginal_z_posterior,
    unit_inputs,
    with_label_inputs,
    z_posterior,
)
from .sampling import gibbs_sweep
from .training import sample_permutation

EXACT_D_CAP = 14
MIN_BLOCK_ROWS = 2 ** 6


def all_binary_vectors(D: int) -> np.ndarray:
    """All 2^D binary vectors, row index read as a binary number."""
    idx = np.arange(2 ** D, dtype=np.uint32)
    return ((idx[:, None] >> np.arange(D - 1, -1, -1)) & 1).astype(np.float64)


def _require_small(params: ModelParams, cap: int):
    if params.D > cap:
        raise ValueError(f"exact enumeration needs D <= {cap}, model has D={params.D}")


def _block_bits(params: ModelParams) -> int:
    """log2 of the rows per enumeration block: `block_rows` of (l+1) cells
    per class, at least MIN_BLOCK_ROWS rows, at most all 2^D."""
    rows = max(block_rows((params.l + 1) * max(params.C, 1)), MIN_BLOCK_ROWS)
    return min(rows.bit_length() - 1, params.D)


def _visible_blocks(params: ModelParams):
    """Enumerate all_binary_vectors(D) in blocks of rows that share their
    high bits. Yields (start, V): V holds rows start .. start + len(V) - 1.
    V is one buffer whose low-bit columns are set once and whose high-bit
    columns each block overwrites, so a consumer must not keep it."""
    D = params.D
    lo = _block_bits(params)
    hi_shifts = np.arange(D - lo - 1, -1, -1)
    V = np.empty((2 ** lo, D))
    V[:, D - lo:] = all_binary_vectors(lo)
    for hi in range(2 ** (D - lo)):
        V[:, :D - lo] = (hi >> hi_shifts) & 1
        yield hi << lo, V


def _log_pstar_all(params: ModelParams) -> np.ndarray:
    """log_pstar of every visible vector, indexed by its binary number."""
    if not params.has_labels:
        return _unit_major_log_pstar_all(params)
    lp = np.empty(2 ** params.D)
    for start, V in _visible_blocks(params):
        lp[start:start + V.shape[0]] = log_pstar(params, V)
    return lp


def _unit_major_log_pstar_all(params: ModelParams) -> np.ndarray:
    """log_pstar of every visible vector of an unlabeled model, with the
    bits of `log_pstar` on each `_visible_blocks` block, from buffers
    allocated once. The per-unit terms are held unit-major, (l+1, rows), so
    the cumulative sum and the maximum over z run across whole rows of
    cells instead of along each visible vector's short row; the module
    docstring says why each step keeps its bits."""
    l, R = params.l, 2 ** _block_bits(params)
    lp = np.empty(2 ** params.D)
    A = np.empty((R, l))                 # unit inputs, row-major as in BLAS
    head = np.empty((l + 1, R))          # log weights of z = 1..l+1
    tmp = np.empty((l, R))
    w = np.empty((R, l + 1))             # shifted weights, row-major
    base, m, tail, s = (np.empty(R) for _ in range(4))
    T = head[:l]
    z_rows = list(head)
    penalties = params.unit_penalties()[:, None]
    Wt = params.W.T
    for start, V in _visible_blocks(params):
        # A = unit_inputs(V), base = V.b_v
        np.matmul(V, Wt, out=A)
        A += params.c
        np.matmul(V, params.b_v, out=base)
        np.copyto(T, A.T)
        # softplus(A) - beta: the steps of model.softplus, in place
        np.abs(T, out=tmp)
        np.negative(tmp, out=tmp)
        np.exp(tmp, out=tmp)
        np.log1p(tmp, out=tmp)
        np.maximum(T, 0.0, out=T)
        T += tmp
        T -= penalties
        # cumulative sum over units, one unit after the other as np.cumsum
        for prev, cur in zip(z_rows[:l - 1], z_rows[1:l]):
            np.add(prev, cur, out=cur)
        np.add(z_rows[l - 1], params.penalty.log_tail_ratio, out=z_rows[l])
        head += base
        np.add(z_rows[l], params.penalty.log_tail_geometric_sum, out=tail)
        # log_sum_exp(head, tail) over z
        np.max(head, axis=0, out=m)
        np.maximum(m, tail, out=m)
        m[~np.isfinite(m)] = 0.0
        np.subtract(head.T, m[:, None], out=w)
        np.exp(w, out=w)
        np.sum(w, axis=-1, out=s)
        tail -= m
        np.exp(tail, out=tail)
        s += tail
        np.log(s, out=s)
        np.add(m, s, out=lp[start:start + R])
    return lp


def _logsumexp_overwrite(a: np.ndarray) -> float:
    """scipy.special.logsumexp of a 1-d vector, by the same operations in the
    same order (the maxima taken out of the sum and counted, the rest
    shifted, exponentiated and summed, then log1p), but computed in place:
    `a` is overwritten instead of copied several times over."""
    a_max = a.max()
    if not np.isfinite(a_max):
        return float(logsumexp(a))
    is_max = a == a_max
    count = float(np.count_nonzero(is_max))
    a[is_max] = -np.inf
    a -= a_max
    np.exp(a, out=a)
    s = a.sum()
    if s != 0:
        s = s / count
    return float(np.log1p(s) + np.log(count) + a_max)


def log_pstar(params: ModelParams, v, *, zp=None) -> np.ndarray:
    """log of the unnormalized marginal: sum over z (and classes, for
    labeled models) of e^{-F}. Accepts a batch. zp, when given, is
    marginal_z_posterior(params, v) of the same rows."""
    V = np.atleast_2d(np.asarray(v, dtype=np.float64))
    if zp is None:
        zp = marginal_z_posterior(params, V)
    log_norm = np.atleast_1d(zp.log_norm)
    if params.has_labels:
        # the label-marginal posterior is over G, which leaves out v.b_v
        return V @ params.b_v + log_norm
    return log_norm


def exact_log_partition(params: ModelParams, cap: int = EXACT_D_CAP) -> float:
    """log Z by enumerating every visible vector; the z sum is a finite head
    plus the closed-form geometric tail, and labeled models also sum over y.
    Holds 8 * 2^D bytes plus one enumeration block."""
    _require_small(params, cap)
    return _logsumexp_overwrite(_log_pstar_all(params))


def exact_loglik(params: ModelParams, X, cap: int = EXACT_D_CAP) -> float:
    """Mean log p(v) over a dataset, exactly."""
    log_z = exact_log_partition(params, cap)
    return float(np.mean(log_pstar(params, X))) - log_z


def exact_cond_loglik(params: ModelParams, X, Y, *, ev=None) -> float:
    """Mean log p(y | v); needs no partition function. ev, when given, is
    order_pass(params, X)."""
    lp = (order_pass(params, X) if ev is None else ev).log_cond_y
    return float(np.mean(lp[np.arange(lp.shape[0]), np.asarray(Y, dtype=np.int64)]))


def exact_visible_distribution(params: ModelParams,
                               cap: int = EXACT_D_CAP) -> np.ndarray:
    """p(v) for every binary vector, indexed by the binary number of v."""
    _require_small(params, cap)
    lp = _log_pstar_all(params)
    lp -= _logsumexp_overwrite(lp.copy())
    return np.exp(lp, out=lp)


def exact_generative_gradient(params: ModelParams, X,
                              cap: int = EXACT_D_CAP) -> ParamBundle:
    """Exact gradient of -mean log p(v) on an enumerable model.

    Both expectations of the free-energy derivative are closed-form: the
    posterior one via p(z >= i | v), the model one by weighting every visible
    vector with its exact probability.
    """
    if params.has_labels:
        raise ValueError("exact generative gradient is for unlabeled models")
    _require_small(params, cap)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))

    def add_expected_term(g, V, w):
        """g += the w-weighted sum over the rows V of the derivative of F."""
        A = unit_inputs(params, V)
        Pg = z_posterior(params, V, A=A).p_z_geq()[:, :params.l]
        R = (Pg * expit(A)) * w[:, None]
        g.W -= R.T @ V
        g.c -= R.sum(axis=0)
        if params.penalty.mode == "dynamic":
            g.c += (params.penalty.beta * expit(params.c)
                    * (Pg * w[:, None]).sum(axis=0))
        g.b_v -= (V * w[:, None]).sum(axis=0)

    data = ParamBundle.zeros(params)
    add_expected_term(data, X, np.full(X.shape[0], 1.0 / X.shape[0]))
    model = ParamBundle.zeros(params)
    p = exact_visible_distribution(params, cap)
    for start, V in _visible_blocks(params):
        add_expected_term(model, V, p[start:start + V.shape[0]])
    data -= model
    return data


# -- annealed importance sampling -------------------------------------------


@dataclass
class AisResult:
    log_z: float
    std_err: float
    log_weights: np.ndarray

    def within(self, reference: float, n_se: float = 3.0) -> bool:
        return abs(self.log_z - reference) <= n_se * self.std_err


def _interpolate(m: ModelParams, params: ModelParams, beta_k: float,
                b_base: np.ndarray) -> ModelParams:
    """Fill m, a model shaped like params, with the model at inverse
    temperature beta_k: couplings scaled by beta_k, visible biases mixed with
    the base model's. Its unit inputs are beta_k * unit_inputs(params, .)."""
    for name, a in params.blocks():
        np.multiply(a, beta_k, out=getattr(m, name))
    m.b_v += (1.0 - beta_k) * b_base
    return m


def base_log_partition(params: ModelParams, b_base: np.ndarray) -> float:
    """Closed-form log Z of the zero-weight model with visible biases b_base:
    the visible factor times the geometric z series (times C for labels)."""
    out = float(np.sum(np.logaddexp(0.0, b_base)))
    out += params.penalty.log_tail_geometric_sum
    if params.has_labels:
        out += np.log(params.C)
    return out


def ais_log_partition(params: ModelParams, n_temps: int, n_chains: int,
                      rng: np.random.Generator, base_means=None,
                      n_boot: int = 200) -> AisResult:
    """AIS estimate of log Z.

    Anneals from a zero-weight base model (visible biases matched to
    base_means when given) to the target by scaling all coupling parameters
    along a geometric inverse-temperature ladder. Returns the log-mean
    importance weight plus a bootstrap standard error.

    One interpolated model is allocated per run and refilled at each
    temperature. A temperature below the last costs two GEMMs (the target's
    unit inputs of the chains' visible state, and the sweep's visible
    means), one scaling pass into that model, and two posterior builds: the
    current state's, whose log_norm is the weight's numerator and from which
    the sweep draws z, and the swept state's, the next weight's denominator.
    """
    if n_temps < 2:
        raise ValueError("need at least two temperatures")
    if n_chains < 1:
        raise ValueError("need at least one chain")
    if base_means is None:
        b_base = np.zeros(params.D)
    else:
        means = np.clip(np.asarray(base_means, dtype=np.float64), 1e-4, 1 - 1e-4)
        b_base = logit(means)
    betas = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, n_temps - 1)])

    V = (rng.random((n_chains, params.D)) < expit(b_base)).astype(np.float64)
    Y = rng.integers(0, params.C, size=n_chains) if params.has_labels else None

    def target_inputs(V, Y):
        """Unit inputs of the target model, from one GEMM per visible state;
        the model at beta has beta times these."""
        G = unit_inputs(params, V)
        return G if Y is None else with_label_inputs(params, G, Y)

    m = _interpolate(params.copy(), params, betas[0], b_base)
    log_w = np.zeros(n_chains)
    G = target_inputs(V, Y)
    prev = z_posterior(m, V, Y, A=betas[0] * G).log_norm
    for k in range(1, n_temps):
        _interpolate(m, params, betas[k], b_base)
        A = betas[k] * G
        zp = z_posterior(m, V, Y, A=A)
        log_w += zp.log_norm - prev
        if k < n_temps - 1:
            V, Y, _ = gibbs_sweep(m, V, Y, rng, A=A, zp=zp)
            G = target_inputs(V, Y)
            prev = z_posterior(m, V, Y, A=betas[k] * G).log_norm
    if not np.all(np.isfinite(log_w)):
        bad = int(np.sum(~np.isfinite(log_w)))
        raise FloatingPointError(f"{bad}/{n_chains} AIS weights are not finite")

    log_z_base = base_log_partition(params, b_base)
    est = log_z_base + logsumexp(log_w) - np.log(n_chains)
    # the resamples' index draws, in the same order as drawing and reducing
    # them one by one; reduced in one call
    idx = np.array([rng.integers(0, n_chains, size=n_chains)
                    for _ in range(n_boot)]).reshape(n_boot, n_chains)
    boots = log_sum_exp(log_w[idx]) - np.log(n_chains)
    return AisResult(log_z=float(est), std_err=float(np.std(boots)),
                     log_weights=log_w)


def log_partition_estimator(params: ModelParams, X, rng: np.random.Generator,
                            cap: int = EXACT_D_CAP, ais_temps: int = 1000,
                            ais_chains: int = 100):
    """The one place that chooses how log Z is computed: exact enumeration
    when D <= cap, AIS otherwise, annealing from base visible biases matched
    to the mean of X and drawing from rng.

    Returns (method, log_z): method is "exact" or "ais", and log_z(p) gives
    (log Z, its standard error or None) for `params` or any permutation of
    it, with the cap applied.
    """
    if params.D <= cap:
        return "exact", lambda p: (exact_log_partition(p, cap), None)
    base_means = np.atleast_2d(np.asarray(X, dtype=np.float64)).mean(axis=0)

    def ais(p):
        result = ais_log_partition(p, ais_temps, ais_chains, rng,
                                   base_means=base_means)
        return result.log_z, result.std_err

    return "ais", ais


# -- model orderings and order invariance --------------------------------------


@dataclass
class OrderPass:
    """What evaluation reads of one model ordering on one dataset."""

    params: ModelParams              # the ordered model
    zp: ZPosterior                   # marginal p(z | v) of every row
    log_pstar: np.ndarray            # (n,) log p*(v)
    log_cond_y: np.ndarray | None    # (n, C) log p(y | v); None without labels


def order_pass(params: ModelParams, X) -> OrderPass:
    """One `unit_inputs` pass over X and, for labeled models, one build of
    the label weights (`model.marginal_z_posterior`), which also gives
    log p(y | v)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    log_cond_y = np.empty((X.shape[0], params.C)) if params.has_labels else None
    zp = marginal_z_posterior(params, X, log_cond_y=log_cond_y)
    return OrderPass(params, zp, log_pstar(params, X, zp=zp), log_cond_y)


def _order_passes(params: ModelParams, X, m: int, n: int,
                  rng: np.random.Generator, read):
    """read(order_pass) of n copies of params, each with its first m units in
    an order drawn by sample_permutation(m, rng) as the passes are taken.
    Only what read returns is kept: a pass is dropped before the next."""
    for _ in range(n):
        yield read(order_pass(apply_permutation(params, sample_permutation(m, rng)), X))


@dataclass
class InvarianceReport:
    """How close the model is to being order-free over its first M units."""

    m: int
    n_perms: int
    max_log_mass: float          # max_n ln p(z <= M | v_n) over all perms
    mean_log_mass: float
    loglik_spread: float | None  # max - min of exact avg loglik across perms


def check_order_invariance(params: ModelParams, X, m: int, n_perms: int,
                           rng: np.random.Generator,
                           cap: int = EXACT_D_CAP) -> InvarianceReport:
    """Measure ln p(z <= M | v) over the data for random permutations of the
    first M units and, when exact evaluation is affordable, the spread of the
    dataset log-likelihood across those permutations.

    A spread near zero together with very negative masses is the order-free
    regime; a material spread shows the mass condition is necessary.
    """
    if m > params.l:
        raise ValueError("cannot permute more units than are materialized")
    exact_ok = params.D <= cap
    masses, logliks = zip(*_order_passes(
        params, X, m, max(1, n_perms), rng,
        lambda ev: (ev.zp.mass_at_most(m),
                    float(np.mean(ev.log_pstar)) - exact_log_partition(ev.params, cap)
                    if exact_ok else None)))
    spread = float(np.max(logliks) - np.min(logliks)) if exact_ok else None
    return InvarianceReport(
        m=m, n_perms=n_perms,
        max_log_mass=float(np.max(masses)),
        mean_log_mass=float(np.mean(masses)),
        loglik_spread=spread,
    )


# -- permutation-averaged likelihoods ----------------------------------------


def permutation_averaged_loglik(params: ModelParams, X, n_perms: int,
                                rng: np.random.Generator, m: int | None = None,
                                log_z=None) -> float:
    """Mean over examples of log of the probability-domain average of
    p(v | order) over sampled permutations of the first m units.

    log_z is the estimator of `log_partition_estimator`; by default the one
    it picks for (params, X, rng) with its default cap and AIS settings.
    """
    if log_z is None:
        _, log_z = log_partition_estimator(params, X, rng)
    m = params.l if m is None else m
    per_perm = np.array(list(_order_passes(
        params, X, m, max(1, n_perms), rng,
        lambda ev: ev.log_pstar - log_z(ev.params)[0])))
    return float(np.mean(logsumexp(per_perm, axis=0) - np.log(per_perm.shape[0])))


# -- size estimates and converted-RBM evaluation ------------------------------


def effective_hidden_size(params: ModelParams, X, minibatch_size: int = 100,
                          *, zp=None) -> int:
    """Mean over minibatches of the batch maximum of the posterior mode of z
    (support 1..l+1, tail pooled), rounded to an integer. zp, when given, is
    marginal_z_posterior(params, X)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if zp is None:
        zp = marginal_z_posterior(params, X)
    modes = zp.mode()
    maxima = [int(np.max(modes[s:s + minibatch_size]))
              for s in range(0, X.shape[0], minibatch_size)]
    return int(round(float(np.mean(maxima))))


def converted_rbm_loglik(params: ModelParams, X, n_h: int,
                         cap: int = EXACT_D_CAP) -> float:
    """Evaluate the model as a classic RBM by clamping z = n_h: mean of
    -F(v, n_h) minus the partition restricted to that cutoff. The constant
    penalty sum cancels between the two terms."""
    _require_small(params, cap)
    if n_h < 1:
        raise ValueError("the converted RBM needs at least one unit")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    f_data = free_energy(params, X, n_h)
    neg_f_all = np.empty(2 ** params.D)
    for start, V in _visible_blocks(params):
        neg_f_all[start:start + V.shape[0]] = -free_energy(params, V, n_h)
    return float(np.mean(-f_data) - _logsumexp_overwrite(neg_f_all))


# -- classification -----------------------------------------------------------


@dataclass
class EvalReport:
    """The evaluation record of a dataset, serializable to JSON. n_perms is
    the number of orderings averaged: with n_perms > 1, avg_loglik,
    classification_error and (for a labeled model scored with labels)
    z_m_histogram come from averages over n_perms sampled orderings;
    avg_cond_loglik, n_h, log_z and the unlabeled z_m_histogram always use
    the model's own order."""

    avg_loglik: float | None = None
    avg_cond_loglik: float | None = None
    classification_error: float | None = None
    n_h: int | None = None
    z_m_histogram: dict = field(default_factory=dict)
    method: str = "exact"
    log_z: float | None = None
    log_z_std_err: float | None = None
    n_perms: int = 1

    def to_json(self, **extra) -> str:
        payload = {
            "format": "irbm-eval-report",
            "version": 1,
            "avg_loglik": self.avg_loglik,
            "avg_cond_loglik": self.avg_cond_loglik,
            "classification_error": self.classification_error,
            "n_h": self.n_h,
            "z_m_histogram": {str(k): int(v) for k, v in self.z_m_histogram.items()},
            "method": self.method,
            "log_z": self.log_z,
            "log_z_std_err": self.log_z_std_err,
            "n_perms": self.n_perms,
        }
        payload.update(extra)
        return json.dumps(payload, indent=2, sort_keys=True)


def classification_metrics(params: ModelParams, X, Y, n_perms: int = 1,
                           m: int = 0, rng: np.random.Generator | None = None,
                           *, ev=None):
    """Predict argmax_y of the permutation-averaged p(y | v) and collect the
    histogram of z_m, the mode of the averaged p(z | v).

    Ties break toward the smaller class / smaller z. With m < 2 or a single
    permutation the average degenerates to the current ordering, and nothing
    is drawn from rng; ev, when given, is then read as order_pass(params, X).
    """
    Y = np.asarray(Y, dtype=np.int64)
    reps = max(1, n_perms) if m >= 2 else 1

    def read(ev_j):
        return np.exp(ev_j.log_cond_y), ev_j.zp.head_probs()

    reads = ([read(order_pass(params, X) if ev is None else ev)] if reps == 1
             else _order_passes(params, X, m, reps, rng, read))
    p_y = p_z = 0.0
    for py_j, pz_j in reads:
        p_y = p_y + py_j
        p_z = p_z + pz_j
    preds = np.argmax(p_y, axis=1)
    z_m = np.argmax(p_z, axis=1) + 1
    values, counts = np.unique(z_m, return_counts=True)
    hist = {int(v): int(c) for v, c in zip(values, counts)}
    error = float(np.mean(preds != Y))
    return error, preds, z_m, hist


def full_report(params: ModelParams, X, Y=None, n_perms: int = 1, m: int = 0,
                rng: np.random.Generator | None = None,
                cap: int = EXACT_D_CAP, ais_temps: int = 1000,
                ais_chains: int = 100,
                minibatch_size: int = 100) -> EvalReport:
    """Assemble the standard evaluation record for a dataset.

    log Z comes from `log_partition_estimator` (exact under the cap, AIS
    above it); the permutation average is used when m >= 2 and more than
    one permutation is requested.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if rng is None:
        rng = np.random.default_rng(0)
    # below two units to permute or with one ordering requested, only the
    # model's own order is read
    report = EvalReport(n_perms=n_perms if n_perms > 1 and m >= 2 else 1)
    ev = order_pass(params, X)
    report.n_h = effective_hidden_size(params, X, minibatch_size, zp=ev.zp)
    report.method, log_z = log_partition_estimator(params, X, rng, cap,
                                                   ais_temps, ais_chains)
    report.log_z, report.log_z_std_err = log_z(params)
    if report.n_perms > 1:
        report.avg_loglik = permutation_averaged_loglik(
            params, X, n_perms, rng, m=m, log_z=log_z)
    else:
        report.avg_loglik = float(np.mean(ev.log_pstar)) - report.log_z
    if Y is not None and params.has_labels:
        error, _, _, hist = classification_metrics(params, X, Y, n_perms, m, rng,
                                                   ev=ev)
        report.classification_error = error
        report.z_m_histogram = hist
        report.avg_cond_loglik = exact_cond_loglik(params, X, Y, ev=ev)
    else:
        values, counts = np.unique(ev.zp.mode(), return_counts=True)
        report.z_m_histogram = {int(v): int(c) for v, c in zip(values, counts)}
    return report

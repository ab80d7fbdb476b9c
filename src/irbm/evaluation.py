"""Evaluation: exact partition functions for small models, AIS for the rest,
and the dataset metrics (order invariance, effective size, classification),
each a reduction over `order_pass`: one `model.marginal_z_posterior` per
model ordering, whose label blocks also give a labeled model's log p(y | v)
when the reader needs it.

Everything here reads the model without mutating it. Exact quantities
enumerate all 2^D visible vectors and are guarded by a dimension cap.

Cost of exact evaluation. One enumeration does 2^D * (l+1) cells of work
(times C for labeled models). The vectors are visited in blocks of rows that
share their high bits (`_visible_blocks`), each block sized to about
`model.BLOCK_CELLS` cells by the row-block rule `model.block_rows`, but never
below `MIN_BLOCK_ROWS` rows, so the memory held is the 2^D vector of log p*(v)
(8 * 2^D bytes) plus one block's temporaries, or for an unlabeled model
two pass buffers per enumeration worker (at most `ENUM_WORKERS`, 2), which
outlive the call (Pass buffers, below); no 2^D x l array is built.
Every row gets the same operations as in a one-shot pass over
`all_binary_vectors(D)`, so per-row values and log Z keep their bits as
long as BLAS computes a row of `V @ W.T` the same way for a block as for the
whole matrix. OpenBLAS 0.3.31 does for every l up to 200 at these block
sizes; at l >= 300, whose blocks shrink to `MIN_BLOCK_ROWS` rows, some
entries move by one unit in the last place.

An unlabeled model is enumerated by `_unit_major_log_pstar_all`, which
holds the per-unit terms unit-major, (l+1, rows), in two buffers per
enumeration worker, filled several blocks per pass. Row-major, a
visible vector's row is only 10-60 units long on the bars models, and
numpy's per-row overhead, not arithmetic, is the cost: at 512 rows x 61
units, `np.cumsum(axis=-1)` takes 123 us and the row maximum 55 us, against
41 us for one `exp` over the same cells (Xeon, numpy 2.4).
Each step gives the bits of `log_pstar` on the same block:

- the GEMMs are the row-major `V @ W.T` and `V @ b_v` of each block, into
  that block's rows of the pass, then c is added and one transposed copy
  made; a unit-major `W @ V.T` changes bits at some l (250, 300, 333 and
  500 among those tried). Every later step is elementwise, or a maximum or
  sum within one visible vector, so it gives each row the same bits in a
  pass of any number of blocks;
- softplus is `model._softplus`, the core of `softplus`, in place, and
  the penalty is subtracted as in `cumulative_unit_terms`;
- the cumulative sum over units is l-1 `np.add` calls on row views built
  once, each adding the next unit to the running sum, as the sequential
  `np.cumsum` does;
- the log-sum-exp over z is `model._log_sum_exp` on the transposed
  weights: a maximum is exact in any order, and the shifted weights are
  summed in a row-major buffer, so numpy's pairwise summation groups the
  terms as it does on each row of `log_pstar`.

Worker threads. Work that the module splits across threads is cut into
contiguous `_shares`, one per worker, with min(`ENUM_WORKERS`, the CPUs
the process may run on, the task count) workers (`_worker_count`), and run
by `_call_on_threads`: the calling thread runs the first share and a
thread started for the call runs each other one, in a copy of the
caller's context; all are joined before the call returns, and a worker's
error is raised in the caller. One worker starts no thread.

Enumeration workers. An unlabeled enumeration shares out its 2^(D-lo)
high-bit blocks. Each share has its own pass buffers and its own V, and writes
only its own rows of log p*(v), so every row gets the operations of the
serial loop on the same block, and `_log_pstar_all`, log Z, p(v) and the
exact gradient keep their bits for any worker count (at one BLAS thread, as
everywhere; a multi-threaded BLAS may split a block's GEMM differently when
two calls run at once). A worker runs in a copy of the caller's context, so
the caller's `np.errstate` holds there too. Workers call numpy and the
private cores of `model` and `sampling` only, and the cores must be
function objects of their own, outside `training`: a tracer that wraps the
package's functions from outside (perfbench's) keeps one span stack, wraps
the public functions, private ones only in `training`, and in every
namespace anything identical to a function it wraps. So the low-bit vectors
and the unit penalties come from the caller. The GEMMs and the ufunc loops
release the GIL, but the l per-unit `np.add` calls of a pass hold it for
their dispatch, so the more rows a pass covers, the fewer such calls per
row. Only two cores were measured, hence at most two workers. Labeled
models stay serial: their blocks call the public, traceable
`label_joint_log_weights`, and no workload enumerates a labeled model.

Pass buffers. A share of an unlabeled enumeration takes, per pass, the
largest power-of-two number of its blocks that divides the share and keeps
the pass within `PASS_CELLS` (2^17) cells of rows * (l+2), and at least one
block (`_pass_blocks`). It works in two flat float64 buffers of at least
that many cells, each view a C-contiguous reshape of a prefix or a slice of
one:

- the first holds the log weights `head`, (l+1, rows), and the row
  maximum m in its last `rows` cells;
- the second holds in turn the GEMM output A, (rows, l), dead once its
  transposed copy is made; the softplus scratch, (l, rows); and the
  shifted weights w, (rows, l+1). Its last `rows` cells hold v.b_v until
  it is added to `head`, and then the tail's log weight.

Each is written before it is read in every pass, so whatever a failed call
left there is never read. The buffers belong to the calling thread
(`_pass_buffers`, a `threading.local`): it keeps one set per share of its
latest call, reallocated when a call needs more cells or half of them or
fewer, so below 16 * max(PASS_CELLS, one block's rows * (l+2)) bytes per
buffer, and drops the sets of shares a call does not have. So the memory
outlives the call: at the default budget the thread holds up to 2 MB per
share, 4 MB with two workers, until its next call. The workers are started
for each call and keep nothing.

On random D=16 models at l = 4-60 (one BLAS thread, 2-core Xeon), budgets
of 2^15, 2^16 and 2^18 cells did no better than 2^17;
`BENCH_pass_cells.json` holds the benchmark pairs.

Labeled models run `log_pstar` per block; it is also the reference the
kernel is tested against.

AIS workers. A permutation-averaged report (`full_report`, or
`permutation_averaged_loglik`, with the AIS estimator) makes one AIS run
for each ordering, led by the model's own order in `full_report`. The runs
share one generator: serially, each starts where the previous run and the
next permutation draw leave it. `_permutation_average` therefore reserves
each run before it draws the next ordering (`_Ais.reserve`): it copies the
generator, skips the run's uniforms (initial V, then z, h, v and y of each
sweep) with `rng.skip_uniforms`, draws the labels and the bootstrap
indices for real, because how much they draw depends on their values, and
records the state the run's last uniform leaves. For a Philox generator,
which `rng.stream` builds, the skip costs O(1): a reservation took 2.0 ms
at D=784, l=500, 30 chains and 100 temperatures, against 62 ms for drawing
the uniforms (one BLAS thread, 2-core Xeon).

The runs are then made by their temperature steps, not whole: a run is a
generator, `_ais_steps`, that yields after each temperature, and
`_step_plan` deals the R runs' T-1 steps each to the W workers by
McNaughton's wrap-around rule: each worker gets ceil(R(T-1)/W)
consecutive steps, and a run that crosses from one worker's share into
the next is split, its first steps opening the next worker's list and
its last steps closing the current one's. One `threading.Event` per run
makes the last part wait for the first, which, as no run has more steps
than a share, it is planned never to need. For the three runs of
`--perms 2` on two workers, each worker makes 1.5 runs' steps instead of
one making 2 while the other makes 1. The calling thread makes the order
passes before its list. Only one thread at a time advances a run, on its
own chain state and its own copy of the generator, and the run draws what it
drew serially, from a copy in the state the serial run started from;
`_ais_steps` does the operations of the composed `unit_inputs` /
`z_posterior` / `gibbs_sweep` steps on the same values
(`tests/oracles.ais_building_afresh`), so the report and the generator's
final state keep their bits for any worker count (at one BLAS thread, as
above). A run's chains are not split across threads instead: at D=784
and l=500, `V @ W.T` of 15 of 30 chains differs in some bits from those
rows of the full product, while a split in time changes no product. The worker that makes a run's last
step checks that its generator ends at the reserved state and raises
otherwise, so a skip that miscounts cannot go unseen. A step that raises
sets an abort flag and the events of its worker's list, so every worker
waiting on one wakes and stops, and the error is raised in the caller.
The kernel calls numpy, scipy and the private cores only, by the rule
above, and each run's reduction (`base_log_partition`, the bootstrap)
runs on the caller: in a traced run, the AIS steps open no spans.

Each worker holds one buffer set; a run holds its chains. The set is the
scaled copy of W, 8 * l * D bytes (3.1 MB at l=500, D=784), and about
8 * chains * (6l + D) bytes of scratch, made at the worker's first step
and dropped when `_Ais.make` returns. A run's chain state, 8 * chains *
(D + l) bytes, lives from its first step to its last, so the up to 2W - 1
runs in flight (every run of `--perms 2` on two workers) share W sets.
Each reserved run also holds its ordering's model and its bootstrap
indices until the report is reduced. Exact log Z draws nothing; it stays
serial per ordering and runs on the enumeration workers.
"""

from __future__ import annotations

import contextvars
import copy
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.special import expit, logit, logsumexp

from .model import (
    ModelParams,
    ParamBundle,
    ZPosterior,
    _clamped_probs,
    _cumulative_unit_terms,
    _log_sum_exp,
    _softplus,
    apply_permutation,
    block_rows,
    free_energy,
    log_sum_exp,
    marginal_z_posterior,
    unit_inputs,
    z_posterior,
)
from .rng import skip_uniforms
from .sampling import _categorical_rows, _draw_h, _draw_v, _draw_y
from .training import sample_permutation

EXACT_D_CAP = 14
MIN_BLOCK_ROWS = 2 ** 6
ENUM_WORKERS = 2
# cells (float64) in each of the two pass buffers of an unlabeled
# enumeration worker: a pass's per-unit np.add calls, which take the GIL,
# cover as many blocks' rows as fit in this budget
PASS_CELLS = 2 ** 17

# the calling thread's enumeration pass buffers, kept for its next call
_pass_cache = threading.local()


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
    lo = _block_bits(params)
    return _high_bit_blocks(all_binary_vectors(lo), params.D, range(2 ** (params.D - lo)))


def _high_bit_blocks(low: np.ndarray, D: int, his: range):
    """The `_visible_blocks` blocks whose high bits are the numbers in his,
    from low = all_binary_vectors(lo), in one buffer of its own."""
    lo = low.shape[1]
    hi_shifts = np.arange(D - lo - 1, -1, -1)
    V = np.empty((low.shape[0], D))
    V[:, D - lo:] = low
    for hi in his:
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


def _worker_count(tasks: int) -> int:
    """Threads that share a call's tasks (the high-bit blocks of an
    unlabeled enumeration, or the reserved runs of an AIS average): at most
    ENUM_WORKERS, the CPUs this process may run on, and the task count."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:       # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(ENUM_WORKERS, cpus, tasks)


def _shares(tasks: int) -> list[range]:
    """Tasks 0 .. tasks - 1 split into contiguous shares, one per worker of
    `_worker_count`, the first share no larger than the others."""
    workers = _worker_count(tasks)
    cuts = [tasks * k // workers for k in range(workers + 1)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def _call_on_threads(tasks) -> list:
    """Call every task and return the results in task order: this thread
    calls the first, and a thread started for this call each other one, in
    a copy of this thread's context, so the caller's np.errstate holds there
    too. Leaving the pool joins every thread before this returns, and a
    task's error is raised here. One task starts no thread."""
    with ThreadPoolExecutor(max(1, len(tasks) - 1)) as pool:
        futures = [pool.submit(contextvars.copy_context().run, task)
                   for task in tasks[1:]]
        return [tasks[0]()] + [f.result() for f in futures]


def _unit_major_log_pstar_all(params: ModelParams) -> np.ndarray:
    """log_pstar of every visible vector of an unlabeled model, with the
    bits of `log_pstar` on each `_visible_blocks` block. The high-bit blocks
    are split into `_shares`, one per worker of `_call_on_threads`, and each
    share gets its pass size and one of this thread's `_pass_buffers` sets."""
    D, l, lo = params.D, params.l, _block_bits(params)
    # traced package calls stay on this thread; workers call numpy and cores
    low = all_binary_vectors(lo)
    penalties = params.unit_penalties()[:, None]
    lp = np.empty(2 ** D)
    shares = _shares(2 ** (D - lo))
    per_pass = [_pass_blocks(len(his), low.shape[0], l) for his in shares]
    sets = _pass_buffers([k * low.shape[0] * (l + 2) for k in per_pass])
    _call_on_threads([partial(_unit_major_share, params, penalties, low, his, lp,
                              k, buffers)
                      for his, k, buffers in zip(shares, per_pass, sets)])
    return lp


def _pass_blocks(blocks: int, R: int, l: int) -> int:
    """Blocks per pass for a share of `blocks` blocks of R rows: the largest
    power of two that divides `blocks` and keeps a pass's rows * (l+2)
    cells within PASS_CELLS, and at least one."""
    k = 1
    while blocks % (2 * k) == 0 and 2 * k * R * (l + 2) <= PASS_CELLS:
        k *= 2
    return k


def _pass_buffers(cells: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Two flat float64 buffers of at least cells[i], and fewer than twice
    that, each for share i, kept by the calling thread for its next call. A
    set is reallocated when it is too small or twice the size needed or
    more, and the sets beyond len(cells) are dropped, so the thread holds
    one set per share of its latest call, sized by that call."""
    if not hasattr(_pass_cache, "sets"):
        _pass_cache.sets = []
    sets = _pass_cache.sets
    del sets[len(cells):]
    sets += [None] * (len(cells) - len(sets))
    for i, n in enumerate(cells):
        if sets[i] is None or not n <= sets[i][0].size < 2 * n:
            sets[i] = None                      # free the old set first
            sets[i] = (np.empty(n), np.empty(n))
    return sets


def _unit_major_share(params: ModelParams, penalties: np.ndarray,
                      low: np.ndarray, his: range, lp: np.ndarray,
                      per_pass: int, buffers: tuple) -> None:
    """Write log_pstar of the blocks whose high bits are in his into their
    rows of lp, per_pass blocks at a time, in the two flat buffers given.
    The per-unit terms are held unit-major, (l+1, rows), so the cumulative
    sum and the maximum over z run across whole rows of cells instead of
    along each visible vector's short row; the module docstring says why
    each step keeps its bits. Each block's GEMMs fill their own rows of a
    pass, and every later step runs once over the rows of the pass. Calls
    numpy and the private cores only, so it may run on any thread."""
    l, R = params.l, low.shape[0]
    rows = per_pass * R
    first, second = buffers
    head = first[:(l + 1) * rows].reshape(l + 1, rows)   # log weights of z = 1..l+1
    m = first[(l + 1) * rows:(l + 2) * rows]
    # the second buffer holds in turn the unit inputs, the softplus scratch
    # and the shifted weights; its last `rows` cells v.b_v, then the tail
    A = second[:rows * l].reshape(rows, l)           # row-major as in BLAS
    tmp = second[:l * rows].reshape(l, rows)
    w = second[:rows * (l + 1)].reshape(rows, l + 1)
    base = tail = second[(l + 1) * rows:(l + 2) * rows]
    T = head[:l]
    z_rows = list(head)
    Wt = params.W.T
    for i, (start, V) in enumerate(_high_bit_blocks(low, params.D, his)):
        # A = unit_inputs(V), base = V.b_v, one block at a time
        k = i % per_pass
        np.matmul(V, Wt, out=A[k * R:(k + 1) * R])
        np.matmul(V, params.b_v, out=base[k * R:(k + 1) * R])
        if k < per_pass - 1:
            continue
        A += params.c
        np.copyto(T, A.T)
        _softplus(T, T, tmp)
        T -= penalties
        # cumulative sum over units, one unit after the other as np.cumsum
        for prev, cur in zip(z_rows[:l - 1], z_rows[1:l]):
            np.add(prev, cur, out=cur)
        np.add(z_rows[l - 1], params.penalty.log_tail_ratio, out=z_rows[l])
        head += base
        np.add(z_rows[l], params.penalty.log_tail_geometric_sum, out=tail)
        _log_sum_exp(head.T, tail, -1, lp[start + R - rows:start + R], m, w)


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
    Holds 8 * 2^D bytes plus one enumeration block, or for an unlabeled
    model the pass buffers (module docstring)."""
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


def base_log_partition(params: ModelParams, b_base: np.ndarray) -> float:
    """Closed-form log Z of the zero-weight model with visible biases b_base:
    the visible factor times the geometric z series (times C for labels)."""
    out = float(np.sum(np.logaddexp(0.0, b_base)))
    out += params.penalty.log_tail_geometric_sum
    if params.has_labels:
        out += np.log(params.C)
    return out


def _check_ais_settings(n_temps: int, n_chains: int):
    if n_temps < 2:
        raise ValueError("need at least two temperatures")
    if n_chains < 1:
        raise ValueError("need at least one chain")


def _base_biases(D: int, base_means) -> np.ndarray:
    """Visible biases of the AIS base model: zero, or matched to base_means."""
    if base_means is None:
        return np.zeros(D)
    means = np.clip(np.asarray(base_means, dtype=np.float64), 1e-4, 1 - 1e-4)
    return logit(means)


def _bootstrap_indices(rng: np.random.Generator, n_chains: int,
                       n_boot: int) -> np.ndarray:
    """The resamples' index draws, in the same order as drawing and reducing
    them one by one; reduced in one call by `_ais_result`."""
    return np.array([rng.integers(0, n_chains, size=n_chains)
                     for _ in range(n_boot)]).reshape(n_boot, n_chains)


def _ais_result(params: ModelParams, b_base: np.ndarray, log_w: np.ndarray,
                idx: np.ndarray) -> AisResult:
    """The log-mean importance weight and its bootstrap standard error."""
    n_chains = log_w.shape[0]
    if not np.all(np.isfinite(log_w)):
        bad = int(np.sum(~np.isfinite(log_w)))
        raise FloatingPointError(f"{bad}/{n_chains} AIS weights are not finite")
    est = base_log_partition(params, b_base) + logsumexp(log_w) - np.log(n_chains)
    boots = log_sum_exp(log_w[idx]) - np.log(n_chains)
    return AisResult(log_z=float(est), std_err=float(np.std(boots)),
                     log_weights=log_w)


def ais_log_partition(params: ModelParams, n_temps: int, n_chains: int,
                      rng: np.random.Generator, base_means=None,
                      n_boot: int = 200) -> AisResult:
    """AIS estimate of log Z.

    Anneals from a zero-weight base model (visible biases matched to
    base_means when given) to the target by scaling all coupling parameters
    along a geometric inverse-temperature ladder. Returns the log-mean
    importance weight plus a bootstrap standard error.

    The chains run in `_ais_steps`. A temperature below the last
    costs two GEMMs (the target's unit inputs of the chains' visible state,
    and the sweep's visible means), one scaling pass into the interpolated
    model, and two posteriors: the current state's, whose log_norm is the
    weight's numerator and from which the sweep draws z, and the swept
    state's, the next weight's denominator.
    """
    _check_ais_settings(n_temps, n_chains)
    b_base = _base_biases(params.D, base_means)
    for log_w in _ais_steps(params, b_base, n_temps, n_chains, rng, threading.local()):
        pass
    return _ais_result(params, b_base, log_w,
                       _bootstrap_indices(rng, n_chains, n_boot))


def _ais_steps(params: ModelParams, b_base: np.ndarray, n_temps: int,
               n_chains: int, rng: np.random.Generator, buffers: threading.local):
    """One AIS run, drawing from rng, as n_temps - 1 steps: each step moves
    the chains to the next temperature, adds its term to the importance log
    weights and yields them (the same array each time), so a run can be
    stopped after any step and resumed, on any thread.

    The draws and their order are those of the composed steps this replaces
    (`unit_inputs`, `z_posterior` and `sampling.gibbs_sweep` on a model
    refilled at each temperature), and so are the operations on each value,
    so every weight keeps its bits; `tests/oracles.ais_building_afresh` is
    that composition. Each step calls the core of its public kernel, in the
    `buffers.set` of the thread that makes the step (made at that thread's
    first step, for runs of params' shapes), and the kernel reads params'
    arrays and penalty, so it calls no traced function. The run keeps only
    its chain state. Every buffer cell a step reads, that step has written
    first, so what another run left in the set is never read.
    """
    W, b_v, c, U, d, pen = (params.W, params.b_v, params.c, params.U, params.d,
                            params.penalty)
    (l, D), N = W.shape, n_chains
    labeled, dynamic = U is not None, pen.mode == "dynamic"
    betas = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, n_temps - 1)])
    # chain state: G = unit_inputs(params, V, Y)
    V, G, prev, log_w = np.empty((N, D)), np.empty((N, l)), np.empty(N), np.zeros(N)

    def this_threads_buffers():
        if not hasattr(buffers, "set"):
            # the model at one temperature (`_interpolate` of the composed steps)
            mW, mb, unit_pen = np.empty_like(W), np.empty_like(b_v), np.empty(l)
            mc = np.empty(l) if dynamic else None
            mU, md = (np.empty_like(U), np.empty_like(d)) if labeled else (None, None)
            # A = beta * G, and the scratch of the posteriors and the sweep
            A, T, P = np.empty((N, l)), np.empty((N, l)), np.empty((N, D))
            head, w, H, u_h = (np.empty((N, l + 1)) for _ in range(4))
            on = np.empty((N, l + 1), dtype=bool)
            tail, mx, base, ln, u_z, step = (np.empty(N) for _ in range(6))
            L, u_y = (np.empty((N, U.shape[1])), np.empty(N)) if labeled else (None, None)
            buffers.set = (mW, mb, unit_pen, mc, mU, md, A, T, P, head, w, H, u_h,
                           on, tail, mx, base, ln, u_z, step, L, u_y)
        return buffers.set

    def interpolate(beta):
        """Couplings times beta, visible biases mixed with the base's."""
        np.multiply(W, beta, out=mW)
        np.multiply(b_v, beta, out=mb)
        np.add(mb, (1.0 - beta) * b_base, out=mb)
        if dynamic:
            # model.unit_penalties: beta_pen * softplus(c * beta)
            np.multiply(c, beta, out=mc)
            _softplus(mc, mc, unit_pen)
            np.multiply(mc, pen.beta, out=unit_pen)
        else:
            unit_pen.fill(pen.beta_zero)
        if labeled:
            np.multiply(U, beta, out=mU)
            np.multiply(d, beta, out=md)

    def target_inputs(Y):
        np.matmul(V, W.T, out=G)
        np.add(G, c, out=G)
        if labeled:
            np.add(G, U.T[Y], out=G)

    def log_norm(beta, Y, out):
        """The chains' log_norm under the model at beta (refilled); its
        posterior's head and tail stay in head and tail for the z draw."""
        np.multiply(G, beta, out=A)
        np.matmul(V, mb, out=base)
        if labeled:
            np.add(base, md[Y], out=base)
        # model._z_weights, then ZPosterior.log_norm
        _cumulative_unit_terms(A, unit_pen, pen.log_tail_ratio, head, T)
        np.add(head, base[:, None], out=head)
        np.add(head[:, l], pen.log_tail_geometric_sum, out=tail)
        _log_sum_exp(head, tail, -1, out, mx, w)

    for k in range(1, n_temps):
        (mW, mb, unit_pen, mc, mU, md, A, T, P, head, w, H, u_h, on, tail, mx,
         base, ln, u_z, step, L, u_y) = this_threads_buffers()
        if k == 1:              # the chains' start
            rng.random(out=V)
            np.less(V, expit(b_base), out=V)
            Y = rng.integers(0, U.shape[1], size=N) if labeled else None
            target_inputs(Y)
            interpolate(betas[0])
            log_norm(betas[0], Y, prev)
        interpolate(betas[k])
        log_norm(betas[k], Y, ln)
        np.subtract(ln, prev, out=step)
        log_w += step
        if k < n_temps - 1:
            # sampling.gibbs_sweep, z drawn from the posterior just read
            # (ZPosterior.sample)
            Z = _categorical_rows(_clamped_probs(head, tail, ln, w, u_z), u_z, rng) + 1
            _draw_h(A, Z, rng, H, u_h, w, on)
            _draw_v(H, mW, mb, rng, V, P)
            if labeled:
                Y = _draw_y(H, mU, md, rng, L, u_y)
            target_inputs(Y)
            log_norm(betas[k], Y, prev)
        yield log_w


def _generator_state(rng: np.random.Generator) -> str:
    """rng's bit generator state in a form that compares with ==."""
    return json.dumps(rng.bit_generator.state, sort_keys=True,
                      default=lambda a: a.tolist())


@dataclass
class _AisRun:
    """One AIS run reserved by `_Ais.reserve`: the model, a copy of the
    generator at the run's first draw, the state its last uniform leaves the
    generator in, and the bootstrap indices drawn after that."""

    params: ModelParams
    rng: np.random.Generator
    end: str
    idx: np.ndarray
    log_w: np.ndarray | None = None


def _step_plan(runs: int, steps: int, workers: int) -> list[list[tuple]]:
    """McNaughton's wrap-around plan of `runs` runs of `steps` steps each
    over min(workers, runs) workers: the steps of run 0, then run 1, and so
    on, are dealt in turn ceil(runs * steps / workers) to a worker. A run
    that crosses the cut between workers w and w + 1 is split: its first
    steps open w + 1's list and its last steps close w's, so, as a run has
    no more steps than a worker, its first part is due to end before its
    last part is due to start. Returns each worker's list of (run, first
    step, stop); with workers >= runs, every run whole on a worker of its
    own. Workers left with no step are dropped; the first holds run 0."""
    workers = min(workers, runs)
    share = -(-runs * steps // workers)
    plan = [[] for _ in range(workers)]
    for r in range(runs):
        w, over = divmod(r * steps, share)
        first = over + steps - share        # steps past the cut, if any
        if first <= 0:
            plan[w].append((r, 0, steps))
        else:
            plan[w + 1].append((r, 0, first))
            plan[w].append((r, first, steps))
    return [pieces for pieces in plan if pieces]


@dataclass
class _Ais:
    """The AIS estimator of `log_partition_estimator`: called on any
    ordering of one model, `ais_log_partition` with these settings, drawing
    from rng, gives (log Z, its standard error). `reserve` and `make` give
    the same estimates of several orderings on worker threads."""

    n_temps: int
    n_chains: int
    rng: np.random.Generator
    base_means: np.ndarray
    n_boot: int = 200

    def __post_init__(self):
        _check_ais_settings(self.n_temps, self.n_chains)

    def __call__(self, params: ModelParams):
        result = ais_log_partition(params, self.n_temps, self.n_chains, self.rng,
                                   base_means=self.base_means, n_boot=self.n_boot)
        return result.log_z, result.std_err

    def reserve(self, params: ModelParams) -> _AisRun:
        """Move rng past every draw of one run on params, as if the run had
        been made, and return the run. The uniforms (initial V, then z, h,
        v and y of each sweep) are skipped; the label draw and the bootstrap
        indices, whose draw counts depend on their values, are drawn."""
        rng, N = self.rng, self.n_chains
        start = copy.deepcopy(rng)
        skip_uniforms(rng, N * params.D)
        if params.has_labels:
            rng.integers(0, params.C, size=N)
        sweep = N * (1 + (params.l + 1) + params.D + params.has_labels)
        skip_uniforms(rng, (self.n_temps - 2) * sweep)
        end = _generator_state(rng)
        return _AisRun(params, start, end, _bootstrap_indices(rng, N, self.n_boot))

    def make(self, runs: list[_AisRun], caller_work):
        """Make the reserved runs by the `_step_plan` of their temperature
        steps on `_call_on_threads`: this thread calls caller_work() before
        its list. Returns what caller_work returned and (log Z, std err) of
        each run, reduced here in run order."""
        b_base = _base_biases(runs[0].params.D, self.base_means)
        steps = self.n_temps - 1
        buffers = threading.local()             # one set per worker thread
        todo = [_ais_steps(run.params, b_base, self.n_temps, self.n_chains,
                           run.rng, buffers) for run in runs]
        # a split run's last part waits for its first part on another worker
        ready = [threading.Event() for _ in runs]
        failed = threading.Event()

        def work(pieces):
            """Take the pieces' steps in order. A piece that raises wakes
            every waiting worker, which then stops; the error is raised in
            the caller by `_call_on_threads`. Calls no traced function."""
            try:
                for r, lo, hi in pieces:
                    if lo:
                        ready[r].wait()
                    if failed.is_set():
                        return
                    for _ in range(lo, hi):
                        runs[r].log_w = next(todo[r])
                    ready[r].set()
                    if hi == steps:
                        todo[r] = None          # frees the run's chain state
                        if _generator_state(runs[r].rng) != runs[r].end:
                            raise RuntimeError(
                                "an AIS run did not end where its reservation "
                                "did: the skipped draws are not the run's")
            except BaseException:
                failed.set()
                for r, _, _ in pieces:
                    ready[r].set()
                raise

        def caller(pieces):
            out = caller_work()
            work(pieces)
            return out

        plan = _step_plan(len(runs), steps, _worker_count(len(runs)))
        out = _call_on_threads([partial(caller, plan[0])]
                               + [partial(work, pieces) for pieces in plan[1:]])[0]
        results = [_ais_result(run.params, b_base, run.log_w, run.idx) for run in runs]
        return out, [(r.log_z, r.std_err) for r in results]


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
    return "ais", _Ais(ais_temps, ais_chains, rng, base_means)


# -- model orderings and order invariance --------------------------------------


@dataclass
class OrderPass:
    """What evaluation reads of one model ordering on one dataset."""

    params: ModelParams              # the ordered model
    zp: ZPosterior                   # marginal p(z | v) of every row
    log_pstar: np.ndarray            # (n,) log p*(v)
    log_cond_y: np.ndarray | None    # (n, C) log p(y | v); None without labels


def order_pass(params: ModelParams, X, labels: bool = True) -> OrderPass:
    """One `unit_inputs` pass over X and, for labeled models, one build of
    the label weights (`model.marginal_z_posterior`), which with labels
    also gives log p(y | v); without, log_cond_y is None and the class-axis
    reduction is not made."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    log_cond_y = (np.empty((X.shape[0], params.C))
                  if labels and params.has_labels else None)
    zp = marginal_z_posterior(params, X, log_cond_y=log_cond_y)
    return OrderPass(params, zp, log_pstar(params, X, zp=zp), log_cond_y)


def _order_passes(params: ModelParams, X, m: int, n: int,
                  rng: np.random.Generator, read, labels: bool):
    """read(order_pass) of n copies of params, each with its first m units in
    an order drawn by sample_permutation(m, rng) as the passes are taken;
    labels says whether read needs log p(y | v). Only what read returns is
    kept: a pass is dropped before the next."""
    for _ in range(n):
        p = apply_permutation(params, sample_permutation(m, rng))
        yield read(order_pass(p, X, labels=labels))


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
                    if exact_ok else None),
        labels=False))
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
    return _permutation_average(params, X, n_perms, rng, m, log_z, own=False)[0]


def _permutation_average(params: ModelParams, X, n_perms: int,
                         rng: np.random.Generator, m: int, log_z, own: bool):
    """`permutation_averaged_loglik`, and the log Z estimate (log Z, std
    err) of every ordering it reads, led by params' own order when own.

    The orderings are drawn as `_order_passes` draws them, and each log Z
    estimate is taken, or for AIS reserved (`_Ais.reserve`), before the
    next ordering is drawn, so rng ends where estimating them one by one
    leaves it. Reserved AIS runs are then made on worker threads while this
    thread makes the order passes (module docstring, "AIS workers").
    """
    ais = isinstance(log_z, _Ais)
    models, estimates = [], []
    for j in range(own + max(1, n_perms)):
        p = params if j < own else apply_permutation(params, sample_permutation(m, rng))
        models.append(p)
        estimates.append(log_z.reserve(p) if ais else log_z(p))

    def passes():
        return [order_pass(p, X, labels=False).log_pstar for p in models[own:]]

    lps, estimates = log_z.make(estimates, passes) if ais else (passes(), estimates)
    per_perm = np.array([lp - z for lp, (z, _) in zip(lps, estimates[own:])])
    avg = float(np.mean(logsumexp(per_perm, axis=0) - np.log(per_perm.shape[0])))
    return avg, estimates


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
             else _order_passes(params, X, m, reps, rng, read, labels=True))
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
    ev = order_pass(params, X, labels=Y is not None)
    report.n_h = effective_hidden_size(params, X, minibatch_size, zp=ev.zp)
    labeled = Y is not None and params.has_labels
    if not labeled:
        # draws nothing, so the posterior can be dropped before log Z
        values, counts = np.unique(ev.zp.mode(), return_counts=True)
        report.z_m_histogram = {int(v): int(c) for v, c in zip(values, counts)}
        ev.zp = None
    report.method, log_z = log_partition_estimator(params, X, rng, cap,
                                                   ais_temps, ais_chains)
    if report.n_perms > 1:
        report.avg_loglik, estimates = _permutation_average(
            params, X, n_perms, rng, m, log_z, own=True)
        report.log_z, report.log_z_std_err = estimates[0]
    else:
        report.log_z, report.log_z_std_err = log_z(params)
        report.avg_loglik = float(np.mean(ev.log_pstar)) - report.log_z
    if labeled:
        error, _, _, hist = classification_metrics(params, X, Y, n_perms, m, rng,
                                                   ev=ev)
        report.classification_error = error
        report.z_m_histogram = hist
        report.avg_cond_loglik = exact_cond_loglik(params, X, Y, ev=ev)
    return report

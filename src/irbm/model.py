"""Model parameters and closed-form quantities for (discriminative) iRBMs.

An iRBM has an unbounded ordered pool of binary hidden units. A cutoff
variable z >= 1 selects how many of them enter the energy; each selected unit
pays a penalty beta_i, and with beta > 1 the infinite sum over z converges
because every unit beyond the l materialized ones has zero weights and bias.
All sums over z are therefore a finite head (z = 1..l+1) plus a geometric
tail handled in closed form.

Shared activations. `unit_inputs` is the only place a visible batch meets
W (one GEMM). `z_posterior`, `log_cond_y_given_v` and, label-free,
`label_joint_log_weights` take its result as `A=`, so a caller holding it
does not pay for the GEMM again: the trainer (`training.Trainer.update_step`,
one pass per visible batch) and the samplers in `sampling`.

Per-class weights. `label_joint_log_weights` gives a labeled batch's
weights as an ordinary `ZPosterior` with a class axis: head (n, C, l+1),
tail (n, C). Its `log_norm` is -F(y | v); `over_labels()` gives p(z | v)
and `log_label_probs()` log p(y | v). `log_norm` is computed on first use:
at l=500, C=10, n=100 it costs 2.7 ms per update (best of 20 runs, one BLAS
thread), 26% of the 10.5 ms build, and the regroup statistic never reads it.

Row blocks. Work whose rows do not depend on each other runs in blocks of
rows sized by `BLOCK_CELLS` (`row_blocks`): the label weights, one
`label_joint_log_weights` build per block (`label_blocks`, its one caller),
so no (n, C, l+1) array is built for a whole batch; the trainer's optimizer
step and max-norm projection; and exact enumeration in `evaluation`, which
keeps a floor of its own on the rows per block. Every GEMM and every sum
over the rows of a batch still runs on the full arrays, so blocking moves
no bit. `marginal_z_posterior` reduces the label blocks to p(z | v) and,
when asked, log p(y | v); `log_cond_y_given_v` to log p(y | v) alone.

Cores. `_softplus`, `_log_sum_exp`, `_cumulative_unit_terms` and
`_clamped_probs` do the work of `softplus`, `log_sum_exp`,
`cumulative_unit_terms` and `ZPosterior.clamped_probs` in buffers the
caller passes; no buffer may alias another or an input unless the core's
docstring says so. Each public kernel allocates them and calls its core;
the evaluation workers call the cores on buffers of their own. A core is
private and no alias of a public kernel, so a tracer that wraps the
public functions (perfbench's) leaves it unwrapped on worker threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

LN2 = float(np.log(2.0))
# cells (float64 values) a row block is sized to: 256 KB per array, so the
# handful of arrays a block makes stay in a per-core L2 cache (on a Xeon with
# 2 MB of L2, exact enumeration ran 1.6x faster with 2^14-2^15 cells than with
# 2^16 or more at l=61, and as fast as any at l=10)
BLOCK_CELLS = 2 ** 15


def block_rows(cells_per_row: int) -> int:
    """Rows per block: about BLOCK_CELLS cells, at least one row."""
    return max(1, BLOCK_CELLS // cells_per_row)


def row_blocks(n_rows: int, cells_per_row: int):
    """Slices covering rows 0..n_rows-1 in order, block_rows(cells_per_row)
    rows each (the last may be shorter)."""
    rows = block_rows(cells_per_row)
    for start in range(0, n_rows, rows):
        yield slice(start, min(start + rows, n_rows))


def softplus(x):
    """log(1 + e^x) = max(x, 0) + log1p(e^{-|x|}), stable for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    return _softplus(x, np.empty_like(x), np.empty_like(x))


def _softplus(x, out, scratch):
    """`softplus` of x into out (which may be x), with scratch for the log1p
    term, which is added first, as `softplus` always has (a NaN's sign)."""
    np.abs(x, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)
    np.log1p(scratch, out=scratch)
    np.maximum(x, 0.0, out=out)
    return np.add(scratch, out, out=out)


def log_sum_exp(head, tail=None, axis: int = -1):
    """log(sum_k e^{head_k} + e^{tail}) along `axis`, shifted by the maximum
    of all terms so no exponential overflows. `tail` (optional) has head's
    shape without `axis`; rows whose maximum is infinite yield that value."""
    head = np.asarray(head, dtype=np.float64)
    axis %= head.ndim
    shape = head.shape[:axis] + head.shape[axis + 1:]
    return _log_sum_exp(head, tail, axis, np.empty(shape), np.empty(shape),
                        np.empty_like(head))[()]


def _log_sum_exp(head, tail, axis: int, out, m, w):
    """`log_sum_exp` into out, with m (out's shape) for the shift and w
    (head's shape) for the shifted terms, then the tail's term. The sum runs
    over w, so w's layout, not head's, sets how numpy groups its terms."""
    before = (slice(None),) * (axis % head.ndim)     # the axes before `axis`
    np.max(head, axis=axis, out=m)
    if tail is not None:
        np.maximum(m, tail, out=m)
    m[~np.isfinite(m)] = 0.0
    np.subtract(head, m[before + (None,)], out=w)
    np.exp(w, out=w)
    np.sum(w, axis=axis, out=out)
    if tail is not None:
        t = w[before + (0, ...)]
        np.subtract(tail, m, out=t)
        np.exp(t, out=t)
        out += t
    with np.errstate(divide="ignore"):      # a row of -inf terms sums to 0
        np.log(out, out=out)
    out += m
    return out


def suffix_probs(head, tail, log_norm):
    """p(z >= k) for k = 1..K from per-z log weights head (..., K), the log
    mass beyond them and the log normalizer. log_norm bounds every weight,
    so it is the shift: e^{head - log_norm} summed from the right, plus the
    tail."""
    log_norm = np.asarray(log_norm)[..., None]
    w = head[..., ::-1] - log_norm
    np.exp(w, out=w)
    np.cumsum(w, axis=-1, out=w)
    w += np.exp(np.asarray(tail)[..., None] - log_norm)
    return w[..., ::-1]


# Largest beta: the log-likelihood, a difference of terms of size beta*ln2,
# loses its digits above it. A 2-epoch run on bars:side=3,n=60,seed=1 reads
# avg_loglik -6.2073 for every beta from 10 to 1e10 (within 1e-6), -6.2031 at
# 1e14, -4.0 at 1e16, 0.0 at 1e20, -1.5e299 at 1e300 (dynamic mode), and
# nothing, with an overflow warning, at 1e308.
BETA_MAX = 1e10


@dataclass(frozen=True)
class PenaltyConfig:
    """Per-unit energy penalty.

    mode='dynamic' couples the penalty to the hidden bias, beta*ln(1+e^{c_i});
    mode='constant' fixes it at beta*ln2, the value used for every reported
    experiment. Units beyond the materialized pool always pay beta*ln2.
    """

    beta: float = 1.01
    mode: str = "constant"

    def __post_init__(self):
        if not 1.0 < self.beta <= BETA_MAX:   # NaN fails
            raise ValueError(f"beta must be in (1, {BETA_MAX:g}], got {self.beta}")
        if self.mode not in ("constant", "dynamic"):
            raise ValueError(f"penalty_mode must be 'constant' or 'dynamic', "
                             f"got {self.mode!r}")

    @property
    def beta_zero(self) -> float:
        """Penalty of a zero-parameter unit (identical in both modes)."""
        return self.beta * LN2

    @property
    def log_tail_ratio(self) -> float:
        """ln r, where r < 1 is the factor e^{-F(v,z)} shrinks by per extra
        zero-parameter unit: r = exp(ln2 - beta_zero)."""
        return LN2 - self.beta_zero

    @property
    def log_tail_geometric_sum(self) -> float:
        """log(r / (1 - r)) = log sum_{k>=1} r^k."""
        ltr = self.log_tail_ratio
        return ltr - np.log1p(-np.exp(ltr))


@dataclass
class ParamBundle:
    """The five parameter blocks, stored hidden-unit-major: row i of W (and
    U) and entry i of c belong to hidden unit i, so reordering units is a
    row shuffle and growth appends a zero row. U and d are only present for
    models with label units. The model, its gradients and the optimizer's
    accumulators and velocities all share this layout."""

    W: np.ndarray                       # (l, D) visible-hidden weights
    b_v: np.ndarray                     # (D,) visible biases
    c: np.ndarray                       # (l,) hidden biases
    U: np.ndarray | None = None         # (l, C) label-hidden weights
    d: np.ndarray | None = None         # (C,) label biases
    UNIT_BLOCKS = ("W", "c", "U")       # the blocks indexed by hidden unit

    @staticmethod
    def zeros(params: "ParamBundle") -> "ParamBundle":
        return ParamBundle(**{name: np.zeros_like(a) for name, a in params.blocks()})

    def blocks(self):
        """(name, array) of every present block, in storage order."""
        for name in ("W", "b_v", "c", "U", "d"):
            arr = getattr(self, name)
            if arr is not None:
                yield name, arr

    # copy keeps the class, and a model's penalty
    def copy(self):
        return replace(self, **{name: a.copy() for name, a in self.blocks()})

    def __iadd__(self, other: "ParamBundle"):
        """Add other block by block, in place."""
        for name, arr in self.blocks():
            arr += getattr(other, name)
        return self

    def __isub__(self, other: "ParamBundle"):
        """Subtract other block by block, in place."""
        for name, arr in self.blocks():
            arr -= getattr(other, name)
        return self

    def __imul__(self, s: float):
        """Scale every block by s, in place."""
        for _, arr in self.blocks():
            arr *= s
        return self

    def check_finite(self):
        for name, arr in self.blocks():
            if not np.all(np.isfinite(arr)):
                raise FloatingPointError(f"non-finite entries in block {name}")

    def grow(self):
        """Append one zero hidden unit: a zero row of W and U and a zero
        entry of c."""
        for name in self.UNIT_BLOCKS:
            arr = getattr(self, name)
            if arr is not None:
                setattr(self, name, np.concatenate([arr, np.zeros((1,) + arr.shape[1:])]))


@dataclass
class ModelParams(ParamBundle):
    """The parameter blocks of a model plus its penalty; l is the number of
    materialized hidden units."""

    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)

    def __post_init__(self):
        self.W = np.ascontiguousarray(self.W, dtype=np.float64)
        self.b_v = np.ascontiguousarray(self.b_v, dtype=np.float64)
        self.c = np.ascontiguousarray(self.c, dtype=np.float64)
        if self.W.ndim != 2:
            raise ValueError("W must be a matrix of shape (l, D)")
        l, D = self.W.shape
        if l < 1:
            raise ValueError("at least one hidden unit must be materialized")
        if self.b_v.shape != (D,):
            raise ValueError(f"b_v has shape {self.b_v.shape}, expected ({D},)")
        if self.c.shape != (l,):
            raise ValueError(f"c has shape {self.c.shape}, expected ({l},)")
        if (self.U is None) != (self.d is None):
            raise ValueError("U and d must be supplied together")
        if self.U is not None:
            self.U = np.ascontiguousarray(self.U, dtype=np.float64)
            self.d = np.ascontiguousarray(self.d, dtype=np.float64)
            if self.U.ndim != 2 or self.U.shape[0] != l:
                raise ValueError(f"U has shape {self.U.shape}, expected ({l}, C)")
            if self.d.shape != (self.U.shape[1],):
                raise ValueError(f"d has shape {self.d.shape}, expected ({self.U.shape[1]},)")

    @property
    def l(self) -> int:
        return self.W.shape[0]

    @property
    def D(self) -> int:
        return self.W.shape[1]

    @property
    def C(self) -> int:
        return 0 if self.U is None else self.U.shape[1]

    @property
    def has_labels(self) -> bool:
        return self.U is not None

    def unit_penalties(self) -> np.ndarray:
        """beta_i for the l materialized units."""
        if self.penalty.mode == "dynamic":
            return self.penalty.beta * softplus(self.c)
        return np.full(self.l, self.penalty.beta_zero)


def zero_model(D: int, C: int = 0, beta: float = 1.01,
               penalty_mode: str = "constant") -> ModelParams:
    """Fresh model with a single all-zero hidden unit (the training start)."""
    U = np.zeros((1, C)) if C else None
    d = np.zeros(C) if C else None
    return ModelParams(W=np.zeros((1, D)), b_v=np.zeros(D), c=np.zeros(1),
                       U=U, d=d, penalty=PenaltyConfig(beta=beta, mode=penalty_mode))


def _label_array(y, n: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    if y.ndim == 0:
        y = np.full(n, int(y))
    return y


def unit_inputs(params: ModelParams, V, y=None) -> np.ndarray:
    """Total input W_i.v (+ U_i.e_y) + c_i of each materialized unit, for a
    batch V (n, D); returns (n, l)."""
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2 or V.shape[1] != params.D:
        raise ValueError(f"V has shape {V.shape}, expected (n, {params.D})")
    A = V @ params.W.T + params.c
    if y is not None:
        A = with_label_inputs(params, A, y)
    return A


def with_label_inputs(params: ModelParams, A, y) -> np.ndarray:
    """Add the label term U_i.e_y to label-free unit inputs A (n, l), giving
    what unit_inputs(params, V, y) returns for the same rows."""
    if not params.has_labels:
        raise ValueError("model has no label weights")
    Y = _label_array(y, A.shape[0])
    return A + params.U[:, Y].T


def cumulative_unit_terms(params: ModelParams, A) -> np.ndarray:
    """Cumulative sum over units of softplus(input_i) - beta_i, for
    z = 1..l+1, from the unit inputs A (..., l). The last entry appends one
    zero-parameter unit, whose term is ln2 - beta_zero. -F(v, z) is this plus
    the z-independent bias terms."""
    A = np.asarray(A, dtype=np.float64)
    return _cumulative_unit_terms(A, params.unit_penalties(),
                                  params.penalty.log_tail_ratio,
                                  np.empty(A.shape[:-1] + (params.l + 1,)),
                                  np.empty(A.shape))


def _cumulative_unit_terms(A, penalties, log_tail_ratio: float, out, scratch):
    """`cumulative_unit_terms` of A (..., l) and the unit penalties into out
    (..., l+1), with scratch (A's shape) for the per-unit terms. Softplus's
    own scratch is out's first A.size cells, contiguous as the fast ufunc
    loops need when out is, and spent before the sum is written."""
    l = A.shape[-1]
    _softplus(A, scratch, out.reshape(-1)[:A.size].reshape(A.shape))
    scratch -= penalties
    np.cumsum(scratch, axis=-1, out=out[..., :l])
    np.add(out[..., l - 1], log_tail_ratio, out=out[..., l])
    return out


def free_energy(params: ModelParams, V, z: int, y=None) -> np.ndarray:
    """-log sum_{h in H_z} e^{-E(v, h, z)} of each row of a batch V; the
    label variant includes the label bias. For z beyond the pool each extra
    unit adds beta_zero - ln2.
    """
    if z < 1:
        raise ValueError("z must be >= 1")
    V = np.asarray(V, dtype=np.float64)
    cum = cumulative_unit_terms(params, unit_inputs(params, V, y))
    l = params.l
    base = V @ params.b_v
    if y is not None:
        base = base + params.d[_label_array(y, V.shape[0])]
    if z <= l:
        s = cum[:, z - 1]
    else:
        s = cum[:, l - 1] + (z - l) * params.penalty.log_tail_ratio
    return -(base + s)


@dataclass
class ZPosterior:
    """Posterior over the cutoff z given v (and optionally a label).

    head_log_weights[..., k] is log e^{-F(v, z=k+1)} for z = 1..l+1;
    tail_log_mass is the closed-form log of sum_{z > l+1} e^{-F(v, z)},
    a geometric series with ratio r = exp(ln2 - beta_zero) < 1.
    Arrays may carry leading batch dimensions, the last of them a class
    axis for the per-class weights of `label_joint_log_weights`.
    """

    head_log_weights: np.ndarray     # (..., l+1)
    tail_log_mass: np.ndarray        # (...)

    @cached_property
    def log_norm(self) -> np.ndarray:
        """log sum_z of the weights (...), computed on first use."""
        return log_sum_exp(self.head_log_weights, self.tail_log_mass)

    @property
    def support(self) -> int:
        """Largest head value of z, i.e. l+1."""
        return self.head_log_weights.shape[-1]

    def head_probs(self) -> np.ndarray:
        return np.exp(self.head_log_weights - self.log_norm[..., None])

    def tail_prob(self) -> np.ndarray:
        return np.exp(self.tail_log_mass - self.log_norm)

    def clamped_probs(self) -> np.ndarray:
        """Distribution over z = 1..l+1 with the tail mass pooled at l+1,
        matching the clamp rule used by every sampler."""
        head = self.head_log_weights
        return _clamped_probs(head, self.tail_log_mass, self.log_norm,
                              np.empty_like(head), np.empty(head.shape[:-1]))

    def p_z_geq(self) -> np.ndarray:
        """p(z >= i | .) for i = 1..l+1."""
        return suffix_probs(self.head_log_weights, self.tail_log_mass,
                            self.log_norm)

    def mass_at_most(self, m: int) -> np.ndarray:
        """log p(z <= m | .) for m within the head support l+1 (regroup
        lengths never exceed l). m = 0 gives -inf."""
        if m <= 0:
            return np.full(self.log_norm.shape, -np.inf)
        if m > self.support:
            raise ValueError(f"m must be <= {self.support}")
        return log_sum_exp(self.head_log_weights[..., :m]) - self.log_norm

    def mode(self, pool_tail: bool = False) -> np.ndarray:
        """argmax_z p(z | .) over the head support 1..l+1, ties toward the
        smaller z. With pool_tail the mass beyond l+1 is folded into the last
        bin first (the convention of the regroup statistic)."""
        probs = self.clamped_probs() if pool_tail else self.head_probs()
        return np.argmax(probs, axis=-1) + 1

    def sample(self, rng: np.random.Generator):
        """Draw z from the full posterior; tail draws land at l+1. One
        uniform per row, by sampling.categorical_rows."""
        from .sampling import categorical_rows
        p = self.clamped_probs()
        z = categorical_rows(np.atleast_2d(p), rng) + 1
        return int(z[0]) if p.ndim == 1 else z

    def over_labels(self) -> "ZPosterior":
        """p(z | v): the weights summed over the class axis."""
        return ZPosterior(log_sum_exp(self.head_log_weights, axis=-2),
                          log_sum_exp(self.tail_log_mass))

    def log_label_probs(self) -> np.ndarray:
        """log p(y | v) over the class axis, kept in the log domain so a
        class far below the best one keeps a finite log probability."""
        return self.log_norm - log_sum_exp(self.log_norm)[..., None]


def _clamped_probs(head, tail, log_norm, out, t):
    """`ZPosterior.clamped_probs` of head, tail and log_norm into out
    (head's shape), with t (tail's shape) for the tail's probability."""
    np.subtract(head, log_norm[..., None], out=out)
    np.exp(out, out=out)
    np.subtract(tail, log_norm, out=t)
    np.exp(t, out=t)
    out[..., -1] += t
    return out


def _z_weights(params: ModelParams, A, base) -> ZPosterior:
    """The unnormalized posterior whose head is cumulative_unit_terms of the
    unit inputs A (..., l) plus the z-independent term base (...)."""
    head = cumulative_unit_terms(params, A)
    head += base[..., None]
    return ZPosterior(head, head[..., -1] + params.penalty.log_tail_geometric_sum)


def z_posterior(params: ModelParams, V, y=None, *, A=None) -> ZPosterior:
    """Posterior over z given each row of a visible batch V.

    With a label (scalar or per-row array) this is the posterior given
    (v, y); the geometric tail is always included in the normalization.
    A, when given, is unit_inputs(params, V, y).
    """
    V = np.asarray(V, dtype=np.float64)
    A = unit_inputs(params, V, y) if A is None else A
    base = V @ params.b_v
    if y is not None:
        base = base + params.d[_label_array(y, V.shape[0])]
    return _z_weights(params, A, base)


def label_joint_log_weights(params: ModelParams, V, *, A=None) -> ZPosterior:
    """Per-class unnormalized z weights for a batch: head[n, y, k] =
    log e^{-G(y, z=k+1 | v_n)} for z = 1..l+1 and tail[n, y] =
    log sum_{z > l+1} e^{-G(y, z | v_n)}. A, when given, is the label-free
    unit_inputs(params, V).
    """
    if not params.has_labels:
        raise ValueError("model has no label weights")
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2 or V.shape[1] != params.D:
        raise ValueError(f"V has shape {V.shape}, expected (n, {params.D})")
    if A is None:
        A = unit_inputs(params, V)
    return _z_weights(params, A[:, None, :] + params.U.T, params.d)


def label_blocks(params: ModelParams, V, A=None):
    """(rows, label_joint_log_weights of those rows) over the row blocks of
    the batch V, whose label-free unit inputs are A (computed when not
    given): no (n, C, l+1) array is built for the whole batch."""
    if not params.has_labels:
        raise ValueError("model has no label weights")
    A = unit_inputs(params, V) if A is None else A
    for rows in row_blocks(V.shape[0], (params.l + 1) * params.C):
        yield rows, label_joint_log_weights(params, V[rows], A=A[rows])


def log_cond_y_given_v(params: ModelParams, V, *, A=None) -> np.ndarray:
    """`ZPosterior.log_label_probs` of a batch V, (n, C). A, when given, is
    the label-free unit_inputs(params, V)."""
    V = np.asarray(V, dtype=np.float64)
    out = np.empty((V.shape[0], params.C))
    for rows, joint in label_blocks(params, V, A):
        out[rows] = joint.log_label_probs()
    return out


def marginal_z_posterior(params: ModelParams, V, *, log_cond_y=None) -> ZPosterior:
    """p(z | v) regardless of labels: for labeled models the classes are
    summed out, block by block over `label_blocks`; otherwise this is the
    plain posterior. log_cond_y, when given, is an (n, C) array that
    receives log p(y | v) of a labeled batch from the same blocks."""
    if not params.has_labels:
        return z_posterior(params, V)
    V = np.asarray(V, dtype=np.float64)
    n = V.shape[0]
    head, tail = np.empty((n, params.l + 1)), np.empty(n)
    for rows, joint in label_blocks(params, V):
        block = joint.over_labels()
        head[rows] = block.head_log_weights
        tail[rows] = block.tail_log_mass
        if log_cond_y is not None:
            log_cond_y[rows] = joint.log_label_probs()
    return ZPosterior(head, tail)


def check_permutation(order, max_len: int) -> np.ndarray:
    order = np.asarray(order, dtype=np.int64)
    m = order.shape[0]
    if m > max_len:
        raise ValueError(f"permutation length {m} exceeds pool size {max_len}")
    if m and (np.sort(order) != np.arange(m)).any():
        raise ValueError("order must be a bijection on 0..M-1")
    return order


def permute_units(block, order: np.ndarray) -> None:
    """Reorder the first M hidden units in place: rows of W and U and entries
    of c, on anything stored hidden-unit-major (parameters, or optimizer
    state shaped like them). Only the M gathered rows are copied."""
    m = order.shape[0]
    for name in block.UNIT_BLOCKS:
        arr = getattr(block, name)
        if arr is not None:
            arr[:m] = arr[order]


def apply_permutation(params: ModelParams, order) -> ModelParams:
    """Copy of the model with the first M hidden units (rows of W, U and
    entries of c) reordered by `order`; everything attached to the visible or
    label side is untouched. `params` itself is left as it is.

    `order` is a 0-based permutation of 0..M-1 with M <= l: new unit k is old
    unit order[k]. The inverse reordering is argsort(order).
    """
    order = check_permutation(order, params.l)
    out = params.copy()
    permute_units(out, order)
    return out

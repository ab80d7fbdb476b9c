"""Training: permutation sampling, gradients, optimizer steps, model growth.

One update step, in order: sample a permutation of the first M_t hidden units
and reorder parameters plus per-unit optimizer state; run the positive phase;
run the (P)CD negative phase; take a gradient step (decaying lr or ADAGRAD,
per-unit momentum, L1/L2); project weight rows back onto their max-norm
radii; and finally grow the pool by one zero unit when both phases sampled a
cutoff beyond it.

An update makes one activation pass (`model.unit_inputs`) per visible batch:
the data batch before the step, which feeds the positive z draw, the first
CD h draw, the positive gradient term and, for labeled models, the label
pass; each negative batch (one per CD round, plus the particles' starting
state under PCD), which feeds its z draw, the next h draw and the negative
gradient term; and, under `regroup_mode` `adaptive` only, the data batch
after the step, for the regroup statistic, which must read the updated
parameters. CD-k thus makes k + 1 passes under `off` and `fixed` and k + 2
under `adaptive`.

A label pass builds the per-class weights over cache-sized row blocks
(`model.label_blocks`). The data batch's pass is `grad_discriminative_exact`,
whose blocks also give the hybrid positive label draw its p(y | v), or
else `model.log_cond_y_given_v`; the clamped label chain
(`sampling.run_label_cd`) makes one per sweep, and the regroup statistic
(`model.marginal_z_posterior`) one more, only under the adaptive schedule.
No (n, C, l+1) array lives for a whole update. The optimizer step and the
max-norm projection also run in row blocks. Every GEMM and every sum over
the examples of a batch runs on the full arrays, so the blocking moves no
bit.

Epoch workspace. The gradient terms of an update are written in place into
the three bundles of a `Workspace`, each shaped like the parameters: `dis`
and `gen` receive the discriminative and generative gradients and `scratch`
each negative-phase term. The hybrid mix runs in place in `dis`, and the
optimizer step then overwrites whichever bundle holds the gradient.
`run_epoch` builds one workspace per call and hands it to every
`update_step`; it grows with the pool in `_grow_by_one`, next to the
optimizer state, and is never permuted, because every update overwrites
what it reads. It is dropped when the epoch ends rather than kept on the
`Trainer`, so a trainer between epochs holds no workspace; a bare
`update_step` call builds its own. It exists for the page faults: an update
used to allocate and free about fifteen arrays the size of W (3.1 MB at
l=500, D=784), which glibc often handed back to the kernel, so the next
update wrote to fresh zero pages. On the `digits784-hybrid` benchmark
workload (seed 3702; 2-core Xeon, glibc 2.36, one BLAS thread), a 10-update
episode took 53k minor faults and 0.16 s of system CPU before, and 2.9k
and 0.013 s with the workspace. Whether glibc hands the pages back depends
on the heap's history: on seed 3701 the old code took 2.3k faults per
episode but held about 20 MB more. Every in-place operation is the IEEE
operation of the expression it replaced, on the same operands, so no bit
moves.

Cutoff-bounded phase statistics. A unit at or above a row's cutoff z adds
nothing to that row's statistics: its column of S = sigmoid(A) * mask is
+0.0. So from a phase's largest z up, the W and U rows of its term are sums
of +0.0 products (visible units and one-hot labels are >= 0) and its c
entries means of +0.0, each -0.0 once negated (+0.0 after the dynamic
penalty's +0.0 is added), and the gradient there is +0.0 in every case.
`_phase_difference` takes K = the largest z of both phases, computes both
phase terms on units [:K] only (expit, mask, the `-(S.T @ V) / n` products
and the column means), subtracts those rows and writes +0.0 into the rest;
on `digits784-gen` K is 13 of l = 500 at the median (quartiles 10 and 25).
The bounded rows equal the full computation's bit for bit only while numpy
and BLAS compute them the same way, so a phase term runs on all l units
unless it stays matrix-matrix and short (`_bounded_units`): numpy sends a
one-row or one-column product to the matrix-vector routine, and sums a
one-column mean pairwise, both unlike the full computation, so K is raised
to 2 and a term with D or C of 1 is not bounded; and a batch above
`BOUNDED_MAX_BATCH` rows is not bounded, because OpenBLAS splits a longer
sum over the batch into blocks except in the small-matrix kernel that a
few-row product takes (with its SkylakeX kernels and one thread, rows
changed from 385 examples up). These are facts of one BLAS thread, the
benchmark's setting. With several threads OpenBLAS picks its split from a
product's shape, so a GEMM's bits already depend on the thread count (at D
= 784, n = 1000 one and two threads give different products), and a bounded
product can differ from the full one in its last bits (seen at D = 100, n =
200, l = 64 with two threads). `draw_v`'s `H @ W` is not bounded: it sums
over the units, and shortening that sum changed bits at D = 784 for K >=
300 and at D = 100 for K = 11 (n = 2) and 64 (n = 100). `sampling.draw_h`
is bounded the same way, elementwise, so it needs no guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import expit

from . import sampling
from .model import (
    ModelParams,
    ParamBundle,
    label_blocks,
    log_cond_y_given_v,
    marginal_z_posterior,
    permute_units,
    row_blocks,
    unit_inputs,
    with_label_inputs,
)
from .rng import stream
from .sampling import FantasyChains, PhaseSamples


OBJECTIVES = ("generative", "discriminative", "hybrid")

# gradients and optimizer state share the parameters' blocks and layout
Gradients = ParamBundle


@dataclass(frozen=True)
class Domain:
    """The values one setting may take: one of `choices`, or a number from
    lo to hi whose `ends` are closed ([ ]) or open (( )). inf passes only a
    closed inf end, NaN no numeric domain, and None only with `none`. An
    int lo with no hi reads ">= lo"."""

    lo: float = -math.inf
    hi: float = math.inf
    ends: str = "[)"
    choices: tuple = ()
    none: bool = False

    def __str__(self):
        if self.choices:
            text = f"one of {self.choices}"
        elif isinstance(self.lo, int) and self.hi == math.inf:
            text = f"{'>' if self.ends[0] == '(' else '>='} {self.lo}"
        else:
            lo, hi = ("2**64" if x == 2 ** 64 else f"{x:g}" for x in (self.lo, self.hi))
            text = f"in {self.ends[0]}{lo}, {hi}{self.ends[1]}"
        return f"{text} or none" if self.none else text

    def check(self, name: str, value):
        """Raise a ValueError naming `name` when value lies outside."""
        if value is None or self.choices:
            ok = self.none if value is None else value in self.choices
        else:
            ok = ((self.lo < value if self.ends[0] == "(" else self.lo <= value)
                  and (value < self.hi if self.ends[1] == ")" else value <= self.hi))
        if not ok:
            raise ValueError(f"{name} must be {self}, got {value!r}")


def setting(default, domain: Domain):
    """A settings dataclass field whose values must lie in `domain`."""
    return field(default=default, metadata={"domain": domain})


def domains(*classes) -> dict:
    """Name -> Domain of each field of the settings classes that has one."""
    return {f.name: f.metadata["domain"] for cls in classes for f in fields(cls)
            if "domain" in f.metadata}


SEED = Domain(0, 2 ** 64)                         # the range a checkpoint stores
POSITIVE_OR_INF = Domain(0.0, math.inf, "(]")     # inf: no decay or no clipping
NONNEGATIVE = Domain(0.0)
COUNT = Domain(1)


@dataclass
class TrainConfig:
    """Knobs of one training run (everything except the data and epochs),
    each with its domain."""

    objective: str = setting("generative", Domain(choices=OBJECTIVES))
    alpha: float = setting(0.0, NONNEGATIVE)  # generative share of the hybrid mix
    # paper: (1+a)*dis + a*gen; larochelle: dis + a*gen
    hybrid_convention: str = setting("paper", Domain(choices=("paper", "larochelle")))
    dis_grad: str = setting("exact", Domain(choices=("exact", "sampled")))
    lr_mode: str = setting("adagrad", Domain(choices=("adagrad", "decay")))
    # ADAGRAD's first step is about global_lr; 1e6 fails `irbm check` on 3x3 bars
    global_lr: float = setting(0.05, Domain(0.0, 1e4, "(]"))
    # decay mode: lr(t) = global_lr / (1 + t/half_life)
    lr_half_life: float = setting(1000.0, POSITIVE_OR_INF)
    adagrad_eps: float = setting(1e-8, Domain(0.0, ends="()"))
    cd_steps: int = setting(1, COUNT)
    use_pcd: bool = setting(False, Domain(choices=(False, True)))
    n_chains: int | None = setting(None, Domain(1, none=True))  # None: minibatch_size
    l1_weight: float = setting(1e-4, NONNEGATIVE)
    l2_weight: float = setting(1e-4, NONNEGATIVE)
    w_bound: float = setting(10.0, POSITIVE_OR_INF)
    u_bound: float = setting(5.0, POSITIVE_OR_INF)
    minibatch_size: int = setting(100, COUNT)
    regroup_mode: str = setting("off", Domain(choices=("off", "fixed", "adaptive")))
    regroup_rho: float = setting(0.75, Domain(0.0, 0.9, "[]"))
    # None: switch when l grows < 1% per epoch
    adaptive_switch_epoch: int | None = setting(None, Domain(0, none=True))
    momentum_start: float = setting(0.5, Domain(0.0, 1.0))
    momentum_end: float = setting(0.9, Domain(0.0, 1.0))
    # None: 10 epochs' worth of updates
    momentum_ramp_updates: int | None = setting(None, Domain(0, none=True))
    seed: int = setting(0, SEED)

    def validate(self):
        for name, domain in domains(TrainConfig).items():
            domain.check(name, getattr(self, name))
        if not self.momentum_start <= self.momentum_end:
            raise ValueError("momentum_start must be <= momentum_end")
        return self


def sample_permutation(m: int, rng) -> np.ndarray:
    """Uniform permutation of 0..m-1; m < 2 yields the identity without
    touching the generator."""
    if m < 0:
        raise ValueError("permutation length must be >= 0")
    if m < 2:
        return np.arange(m)
    return rng.permutation(m)


def _one_hot(y: np.ndarray, C: int) -> np.ndarray:
    out = np.zeros((y.shape[0], C))
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def _neg_mean_product(S, M, n: int, out: np.ndarray):
    """out = -(S.T @ M) / n, computed in out: the same IEEE operations on
    the same operands as the expression, without its three temporaries."""
    np.matmul(S.T, M, out=out)
    np.negative(out, out=out)
    out /= n


# Largest batch whose phase terms are bounded. OpenBLAS splits a longer sum
# over the batch into k-blocks (384 rows with its SkylakeX kernels), but not
# in the small-matrix kernel that a product of few rows may take, so the
# bounded rows would round differently from the full product's.
BOUNDED_MAX_BATCH = 256


def _bounded_units(params: ModelParams, rows: int, n: int, labeled: bool) -> int:
    """How many leading units a phase term over n examples computes: `rows`
    (at least 2) while every product and column mean over them stays
    matrix-matrix and short, all l otherwise."""
    widths = (params.D, params.C) if labeled else (params.D,)
    if min(widths) < 2 or n > BOUNDED_MAX_BATCH:
        return params.l
    return min(max(rows, 2), params.l)


def _phase_term(params: ModelParams, V, Z, Y, visible_bias: bool, *,
                rows: int, A=None, out=None) -> Gradients:
    """Average of the per-example free-energy derivative over one phase.

    With a label column the derivative is of F(v, y, z); visible_bias=False
    drops the b_v component, giving the derivative of G(y, z | v). A, when
    given, is unit_inputs(params, V, Y). out, when given, is a bundle of
    params' shape that receives the term. rows is at least every z: the
    unit-indexed blocks W, c and U are computed on their first
    `_bounded_units` rows, which may leave rows from `rows` up unwritten for
    the caller (see "Cutoff-bounded phase statistics" above); b_v and d are
    always written.
    """
    V = np.asarray(V, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.int64)
    n = V.shape[0]
    if A is None:
        A = unit_inputs(params, V, Y)
    k = _bounded_units(params, rows, n, labeled=Y is not None)
    mask = (np.arange(k)[None, :] < Z[:, None]).astype(np.float64)
    S = expit(A[:, :k]) * mask
    g = Gradients.zeros(params) if out is None else out
    _neg_mean_product(S, V, n, g.W[:k])
    g.c[:k] = -S.mean(axis=0)
    if params.penalty.mode == "dynamic":
        g.c[:k] += params.penalty.beta * expit(params.c[:k]) * mask.mean(axis=0)
    if visible_bias:
        g.b_v[:] = -V.mean(axis=0)
    else:
        g.b_v.fill(0.0)
    if Y is not None:
        E = _one_hot(np.asarray(Y, dtype=np.int64), params.C)
        _neg_mean_product(S, E, n, g.U[:k])
        g.d[:] = -E.mean(axis=0)
    elif g.U is not None:
        g.U.fill(0.0)
        g.d.fill(0.0)
    return g


def _phase_difference(params: ModelParams, pos: PhaseSamples, neg: PhaseSamples,
                      out, scratch, *, visible_bias: bool) -> Gradients:
    """The phase term at pos minus the one at neg, into out (the negative
    term into scratch); the phases must come from one parameter ordering.
    The W, c and U rows from the largest cutoff of both phases up are +0.0
    without being computed (see "Cutoff-bounded phase statistics" above)."""
    if (pos.step_token is not None and neg.step_token is not None
            and pos.step_token != neg.step_token):
        raise ValueError("positive and negative phases come from different "
                         "parameter orderings")
    K = max(int(np.max(pos.z)), int(np.max(neg.z)))
    gp = _phase_term(params, pos.v, pos.z, pos.y, visible_bias=visible_bias,
                     A=pos.a, out=out, rows=K)
    gn = _phase_term(params, neg.v, neg.z, neg.y, visible_bias=visible_bias,
                     A=neg.a, out=scratch, rows=K)
    for name, a in gp.blocks():
        k = K if name in Gradients.UNIT_BLOCKS else a.shape[0]
        a[:k] -= getattr(gn, name)[:k]
        a[k:] = 0.0
    return gp


def grad_generative(params: ModelParams, pos: PhaseSamples,
                    neg: PhaseSamples, *, out=None, scratch=None) -> Gradients:
    """CD/PCD estimate of the gradient of -mean log p(v): the free-energy
    derivative at the data minus the one at the negative samples. Label
    columns, when present, mean the phases run over the label-marginal model
    and carry sampled labels. out, when given, receives the gradient and
    scratch the negative term (bundles of params' shape, overwritten)."""
    return _phase_difference(params, pos, neg, out, scratch, visible_bias=True)


def grad_discriminative_exact(params: ModelParams, V, Y, *, A=None,
                              p_y=None, out=None) -> Gradients:
    """Exact gradient of -mean log p(y | v) for the materialized units.

    Uses the closed form: the derivative of the per-class free energy has
    rows -p(z >= i | v, y) * sigmoid(input_i) * v, and the data term minus
    the p(y | v)-weighted class average gives the objective gradient. Every
    parameter beyond the pool keeps gradient zero. A, when given, is the
    label-free unit_inputs(params, V).

    It is the trainer's label pass over the data batch. It builds the
    per-class weights block by block (`model.label_blocks`) and reduces each
    block to its rows of p(y | v) and of the gradient's per-example terms;
    the GEMM and the sums over examples then run once on the full arrays.
    p_y, when given, is an (n, C) array that receives p(y | v), which the
    hybrid objective's positive label draw reads. out, when given, is a
    bundle of params' shape that receives the gradient; every block of it
    is written.
    """
    if not params.has_labels:
        raise ValueError("discriminative gradient needs label weights")
    V = np.asarray(V, dtype=np.float64)
    n, l, C = V.shape[0], params.l, params.C
    Y = np.asarray(Y, dtype=np.int64)
    if Y.shape[0] != n:
        raise ValueError("one label per example is required")
    if A is None:
        A = unit_inputs(params, V)
    if p_y is None:
        p_y = np.empty((n, C))
    dynamic = params.penalty.mode == "dynamic"
    R = np.empty((n, C, l))
    Q = np.empty((n, l))
    Pg_diff = np.empty((n, l)) if dynamic else None
    for rows, joint in label_blocks(params, V, A):
        p = p_y[rows]
        np.exp(joint.log_label_probs(), out=p)
        P_geq = joint.p_z_geq()[..., :l]                     # (rows, C, l)
        del joint
        Rb = R[rows]
        np.multiply(P_geq, expit(A[rows, None, :] + params.U.T[None, :, :]),
                    out=Rb)
        data = np.arange(Rb.shape[0]), Y[rows]
        Q[rows] = Rb[data] - np.einsum("ny,nyi->ni", p, Rb)
        if dynamic:
            Pg_diff[rows] = P_geq[data] - np.einsum("ny,nyi->ni", p, P_geq)

    coef = _one_hot(Y, C) - p_y                # (n, C)
    g = Gradients.zeros(params) if out is None else out
    _neg_mean_product(Q, V, n, g.W)
    g.b_v.fill(0.0)
    g.c[:] = -Q.mean(axis=0)
    if dynamic:
        g.c += params.penalty.beta * expit(params.c) * Pg_diff.mean(axis=0)
    g.U[:] = -np.einsum("ny,nyi->iy", coef, R) / n
    g.d[:] = -coef.mean(axis=0)
    return g


def grad_discriminative_sampled(params: ModelParams, V, Y, z_pos,
                                neg: PhaseSamples, *, A=None, out=None,
                                scratch=None) -> Gradients:
    """Single-sample estimate of the discriminative gradient: the G
    derivative at (y_n, z_pos) minus the one at the label chain's end point.
    Higher variance than the exact form, but unbiased once the chain mixes.
    A, when given, is the label-free unit_inputs(params, V); out and scratch
    are as for `grad_generative`.
    """
    if not params.has_labels:
        raise ValueError("discriminative gradient needs label weights")
    pos = PhaseSamples(v=np.asarray(V, dtype=np.float64),
                       z=np.asarray(z_pos, dtype=np.int64),
                       y=np.asarray(Y, dtype=np.int64))
    if A is not None:
        pos.a = with_label_inputs(params, A, pos.y)
    return _phase_difference(params, pos, neg, out, scratch, visible_bias=False)


def _mix_in_place(dis: Gradients, gen: Gradients, alpha: float,
                  convention: str) -> Gradients:
    """The hybrid mix, computed in dis, which it returns; gen is scaled by
    alpha on the way."""
    if convention == "paper":
        dis *= 1.0 + alpha
    elif convention != "larochelle":
        raise ValueError(f"unknown hybrid convention {convention!r}")
    gen *= alpha
    dis += gen
    return dis


@dataclass
class OptimizerState:
    """ADAGRAD accumulators, momentum buffers and per-unit ages.

    Per-unit rows are reordered in lockstep with any permutation of the
    hidden units and extended with zeros when the pool grows.
    """

    t: int
    acc: Gradients
    vel: Gradients
    unit_age: np.ndarray

    @classmethod
    def fresh(cls, params: ModelParams) -> "OptimizerState":
        return cls(t=0, acc=Gradients.zeros(params), vel=Gradients.zeros(params),
                   unit_age=np.zeros(params.l, dtype=np.int64))


@dataclass
class RegroupState:
    """Current regroup length plus the per-epoch history feeding it.

    mz_history holds one average posterior mode M_z per finished epoch, and
    mode_sum / mode_count accumulate the current epoch's modes. Only the
    adaptive schedule records modes; under off and fixed nothing is
    recorded, so each epoch appends the placeholder 0.0. A fixed or off
    checkpoint may still hold real values (older files recorded them under
    every schedule); they load and resume unchanged.
    """

    M_t: int = 0
    phase: str = "early"              # early | adaptive
    epoch: int = 0
    prev_l: int = 1
    mz_history: list = field(default_factory=list)
    mode_sum: float = 0.0
    mode_count: int = 0

    def record_modes(self, modes: np.ndarray):
        self.mode_sum += float(np.sum(modes))
        self.mode_count += int(np.size(modes))


def fraction_length(l: int, rho: float) -> int:
    """floor(rho * l), kept strictly below l."""
    return max(0, min(int(rho * l), l - 1))


def current_regroup_length(regroup: RegroupState, l: int,
                           config: TrainConfig) -> int:
    if config.regroup_mode == "off":
        return 0
    if config.regroup_mode == "fixed" or regroup.phase == "early":
        return fraction_length(l, config.regroup_rho)
    return max(0, min(regroup.M_t, l - 1))


def regroup_schedule_update(regroup: RegroupState, l: int,
                            config: TrainConfig) -> int:
    """Epoch-boundary update of M_t.

    Finalizes the epoch's average posterior mode M_z (0.0, the placeholder,
    for an epoch that recorded no modes, as under off and fixed), decides
    whether the adaptive phase starts (explicit epoch, or pool growth below
    1% over the epoch), and in the adaptive phase sets M_t to the mean of
    M_z over the last 20% of elapsed epochs minus 10, clamped to [0, l-1].
    """
    mz = regroup.mode_sum / regroup.mode_count if regroup.mode_count else 0.0
    regroup.mz_history.append(mz)
    regroup.mode_sum = 0.0
    regroup.mode_count = 0
    regroup.epoch += 1
    if config.regroup_mode == "adaptive" and regroup.phase == "early":
        if config.adaptive_switch_epoch is not None:
            if regroup.epoch >= config.adaptive_switch_epoch:
                regroup.phase = "adaptive"
        elif l - regroup.prev_l < 0.01 * regroup.prev_l:
            regroup.phase = "adaptive"
    if config.regroup_mode == "adaptive" and regroup.phase == "adaptive":
        window = max(1, math.ceil(0.2 * len(regroup.mz_history)))
        m = round(float(np.mean(regroup.mz_history[-window:]))) - 10
        regroup.M_t = max(0, min(m, l - 1))
    else:
        regroup.M_t = current_regroup_length(regroup, l, config)
    regroup.prev_l = l
    return regroup.M_t


def _permute_rows(params: ModelParams, opt: OptimizerState, order: np.ndarray):
    """Reorder the first len(order) hidden units in place, in the parameters
    and in the optimizer state alike."""
    for block in (params, opt.acc, opt.vel):
        permute_units(block, order)
    opt.unit_age[:order.shape[0]] = opt.unit_age[order]


@dataclass
class Workspace:
    """The gradient bundles an update writes its terms into: `dis` and `gen`
    receive the discriminative and generative gradients, `scratch` each
    negative-phase term. Every update overwrites every block it reads, so
    the bundles are never permuted; they grow with the pool."""

    dis: Gradients
    gen: Gradients
    scratch: Gradients

    @classmethod
    def fresh(cls, params: ModelParams) -> "Workspace":
        return cls(*(Gradients.zeros(params) for _ in range(3)))

    def __iter__(self):
        return iter((self.dis, self.gen, self.scratch))


def _grow_by_one(params: ModelParams, opt: OptimizerState, work: Workspace):
    """Append one zero hidden unit, in place, to the parameters, the
    optimizer state and the workspace alike; the new unit's age is 0."""
    for block in (params, opt.acc, opt.vel, *work):
        block.grow()
    opt.unit_age = np.concatenate([opt.unit_age, np.zeros(1, dtype=np.int64)])


def growth_decision(z_pos_max: int, z_neg_max: int, l: int) -> bool:
    """Grow only when both phases sampled a cutoff beyond the pool."""
    return z_pos_max > l and z_neg_max > l


def max_norm_project(params: ModelParams, w_bound: float, u_bound: float):
    """Rescale any weight row whose Euclidean norm exceeds its radius, one
    row block at a time."""
    for arr, bound in ((params.W, w_bound), (params.U, u_bound)):
        if arr is None:
            continue
        for rows in row_blocks(*arr.shape):
            block = arr[rows]
            norms = np.linalg.norm(block, axis=1)
            over = norms > bound
            if np.any(over):
                block[over] *= (bound / norms[over])[:, None]


def _step_blocks(grad: Gradients):
    """(name, rows) of every piece of the optimizer step: the row blocks of
    W and U, and the vectors whole."""
    for name, g in grad.blocks():
        if g.ndim == 2:
            for rows in row_blocks(*g.shape):
                yield name, rows
        else:
            yield name, slice(None)


class Trainer:
    """Owns one model plus its optimizer, regroup and chain state.

    All randomness is drawn from counter-based streams keyed by the run seed,
    a purpose tag and the update (or epoch) counter, so a run restored from a
    checkpoint continues the exact same trajectory.
    """

    def __init__(self, params: ModelParams, config: TrainConfig,
                 n_train: int | None = None):
        config.validate()
        if config.objective in ("discriminative", "hybrid") and not params.has_labels:
            raise ValueError(f"objective {config.objective!r} needs a model with label units")
        self.params = params
        self.config = config
        self.opt = OptimizerState.fresh(params)
        self.regroup = RegroupState(prev_l=params.l,
                                    M_t=current_regroup_length(
                                        RegroupState(), params.l, config))
        self.epochs_done = 0
        self.chains: FantasyChains | None = None
        if config.use_pcd:
            n_chains = (config.minibatch_size if config.n_chains is None
                        else config.n_chains)
            self.chains = sampling.init_chains(
                params, n_chains, stream(config.seed, "chains"),
                labeled=params.has_labels)
        updates_per_epoch = max(1, math.ceil((n_train or config.minibatch_size)
                                             / config.minibatch_size))
        self.momentum_ramp = (config.momentum_ramp_updates
                              if config.momentum_ramp_updates is not None
                              else 10 * updates_per_epoch)

    def restore(self, opt: OptimizerState, regroup: RegroupState,
                chains: FantasyChains | None, epochs_done: int):
        """Adopt state loaded from a checkpoint; the same config and seed
        then continue the original trajectory bit for bit. It must hold
        chains if and only if use_pcd is set, and then n_chains of them."""
        if opt.unit_age.shape[0] != self.params.l:
            raise ValueError("optimizer state does not match the model size")
        have, want = (0 if c is None else c.n_chains for c in (chains, self.chains))
        if have != want:
            raise ValueError(f"PCD chains: checkpoint holds {have}, config "
                             f"(use_pcd={self.config.use_pcd}) gives {want}")
        self.opt = opt
        self.regroup = regroup
        self.chains = chains
        self.epochs_done = epochs_done

    # -- pieces of one update ------------------------------------------------

    def _momentum(self) -> tuple[np.ndarray, float]:
        cfg = self.config
        span = cfg.momentum_end - cfg.momentum_start
        ramp = max(1, self.momentum_ramp)
        unit = cfg.momentum_start + span * np.minimum(1.0, self.opt.unit_age / ramp)
        glob = cfg.momentum_start + span * min(1.0, self.opt.t / ramp)
        return unit, glob

    def _apply_gradient(self, grad: Gradients):
        """One optimizer step from grad, which is overwritten: each block
        becomes its step, computed in place with one scratch array for
        ADAGRAD's g*g and sqrt(acc) + eps.

        Two passes over the row blocks of `_step_blocks`: the first adds
        the L2 and L1 terms and checks that the gradient is finite, so a
        non-finite gradient raises before any parameter or optimizer state
        changes; the second takes the ADAGRAD, momentum and parameter steps.
        """
        cfg = self.config
        pieces = list(_step_blocks(grad))
        for name, rows in pieces:
            g = getattr(grad, name)[rows]
            if name in ("W", "U"):
                w = getattr(self.params, name)[rows]
                if cfg.l2_weight:
                    g += cfg.l2_weight * w
                if cfg.l1_weight:
                    s = np.sign(w)
                    s *= cfg.l1_weight
                    g += s
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite entries in block {name}")
        unit_m, glob_m = self._momentum()
        lr = cfg.global_lr
        if cfg.lr_mode == "decay":
            lr = cfg.global_lr / (1.0 + self.opt.t / cfg.lr_half_life)
        for name, rows in pieces:
            g = getattr(grad, name)[rows]
            p = getattr(self.params, name)[rows]
            vel = getattr(self.opt.vel, name)[rows]
            if cfg.lr_mode == "adagrad":
                acc = getattr(self.opt.acc, name)[rows]
                scratch = np.multiply(g, g)
                acc += scratch
                np.sqrt(acc, out=scratch)
                scratch += cfg.adagrad_eps
                np.multiply(g, lr, out=g)
                g /= scratch
            else:
                np.multiply(g, lr, out=g)
            m = glob_m if name in ("b_v", "d") else (
                unit_m[rows, None] if g.ndim == 2 else unit_m[rows])
            vel *= m
            vel -= g
            p += vel

    def _positive_generative(self, V, t: int, A, p_y) -> PhaseSamples:
        """Positive phase from the data batch's label-free inputs A; a
        labeled model draws y from p_y, the batch's p(y | v)."""
        rng = stream(self.config.seed, "pos", t)
        if self.params.has_labels:
            y_draw = sampling.categorical_rows(p_y, rng)
            A = with_label_inputs(self.params, A, y_draw)
            z_pos = sampling.draw_z(self.params, V, y_draw, rng, A=A)
            return PhaseSamples(v=V, z=z_pos, y=y_draw, step_token=t, a=A)
        z_pos = sampling.draw_z(self.params, V, None, rng, A=A)
        return PhaseSamples(v=V, z=z_pos, step_token=t, a=A)

    def _negative_generative(self, pos: PhaseSamples, t: int) -> PhaseSamples:
        cfg = self.config
        rng = stream(cfg.seed, "neg", t)
        if cfg.use_pcd:
            neg, self.chains = sampling.run_pcd(self.params, self.chains,
                                                cfg.cd_steps, rng, step_token=t)
            return neg
        return sampling.run_cd(self.params, pos.v, pos.z, cfg.cd_steps, rng,
                               Y=pos.y, step_token=t, A=pos.a)

    def update_step(self, V, Y=None, work: Workspace | None = None) -> dict:
        """One minibatch update; returns a small stats record. The gradient
        terms are written into work, which a bare call builds for itself."""
        cfg = self.config
        params = self.params
        t = self.opt.t
        if cfg.objective in ("discriminative", "hybrid") and Y is None:
            raise ValueError("labelled minibatch required for this objective")
        if work is None:
            work = Workspace.fresh(params)

        m_now = current_regroup_length(self.regroup, params.l, cfg)
        if m_now >= 2:
            order = sample_permutation(m_now, stream(cfg.seed, "perm", t))
            _permute_rows(params, self.opt, order)

        l_before = params.l
        V = np.asarray(V, dtype=np.float64)
        grad = gen = None
        z_pos_max = 0
        z_neg_max = 0
        A = unit_inputs(params, V)
        # the data batch's label pass: the exact discriminative gradient,
        # which also gives the positive label draw its p(y | v), or else
        # p(y | v) alone
        p_y = dis = None
        if cfg.objective != "generative" and cfg.dis_grad == "exact":
            p_y = np.empty((V.shape[0], params.C))
            dis = grad_discriminative_exact(params, V, Y, A=A, p_y=p_y,
                                            out=work.dis)
        elif params.has_labels and cfg.objective != "discriminative":
            p_y = np.exp(log_cond_y_given_v(params, V, A=A))

        if cfg.objective in ("generative", "hybrid"):
            pos = self._positive_generative(V, t, A, p_y)
            neg = self._negative_generative(pos, t)
            gen = grad_generative(params, pos, neg, out=work.gen,
                                  scratch=work.scratch)
            z_pos_max = int(pos.z.max())
            z_neg_max = int(neg.z.max())
            grad = gen
        if cfg.objective in ("discriminative", "hybrid"):
            z_pos_d = neg_d = None
            if cfg.dis_grad == "sampled" or cfg.objective == "discriminative":
                # these draws carry the growth signal for pure
                # discriminative training; the materialized gradient may
                # still be the exact one
                z_pos_d = sampling.draw_z(params, V, Y,
                                          stream(cfg.seed, "dpos", t),
                                          A=with_label_inputs(params, A, Y))
                neg_d = sampling.run_label_cd(params, V, Y, cfg.cd_steps,
                                              stream(cfg.seed, "dneg", t),
                                              step_token=t, A=A)
            if cfg.dis_grad == "sampled":
                dis = grad_discriminative_sampled(params, V, Y, z_pos_d, neg_d,
                                                  A=A, out=work.dis,
                                                  scratch=work.scratch)
            if cfg.objective == "discriminative":
                z_pos_max = int(z_pos_d.max())
                z_neg_max = int(neg_d.z.max())
                grad = dis
            else:
                grad = _mix_in_place(dis, gen, cfg.alpha, cfg.hybrid_convention)

        self._apply_gradient(grad)
        max_norm_project(params, cfg.w_bound, cfg.u_bound)

        # the regroup statistic reads the stepped model before it grows. Only
        # the adaptive schedule reads it: its M_t averages the M_z of recent
        # epochs, early-phase epochs included, so off and fixed skip it
        if cfg.regroup_mode == "adaptive":
            self.regroup.record_modes(
                marginal_z_posterior(params, V).mode(pool_tail=True))
        grew = growth_decision(z_pos_max, z_neg_max, l_before)
        if grew:
            _grow_by_one(params, self.opt, work)
        self.opt.unit_age += 1
        self.opt.t += 1
        return {"t": t, "l": params.l, "M": m_now, "grew": grew,
                "z_pos_max": z_pos_max, "z_neg_max": z_neg_max}

    def run_epoch(self, X, Y=None) -> dict:
        """One pass over the data in a seed-keyed shuffled order, followed by
        the epoch-boundary regroup update. Its updates share one workspace,
        dropped when the epoch ends."""
        cfg = self.config
        n = X.shape[0]
        order = stream(cfg.seed, "shuffle", self.epochs_done).permutation(n)
        work = Workspace.fresh(self.params)
        stats = None
        for start in range(0, n, cfg.minibatch_size):
            idx = order[start:start + cfg.minibatch_size]
            stats = self.update_step(X[idx], None if Y is None else Y[idx], work)
        m_t = regroup_schedule_update(self.regroup, self.params.l, cfg)
        self.epochs_done += 1
        return {"epoch": self.epochs_done, "l": self.params.l, "M": m_t,
                "last_update": stats,
                "mz": self.regroup.mz_history[-1]}

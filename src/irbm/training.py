"""Training: permutation sampling, gradients, optimizer steps, model growth.

One update step, in order: sample a permutation of the first M_t hidden units
and reorder parameters plus per-unit optimizer state; run the positive phase;
run the (P)CD negative phase; take a gradient step (decaying lr or ADAGRAD,
per-unit momentum, L1/L2); project weight rows back onto their max-norm
radii; and finally grow the pool by one zero unit when both phases sampled a
cutoff beyond it.

An update makes one activation pass (`model.unit_inputs`) per visible batch:
the data batch before the step, which feeds the positive z draw, the first
CD h draw, the positive gradient term and, for labeled models, the
per-class weights of `model.label_joint_log_weights`, built once and read by
both the positive label draw and `grad_discriminative_exact`; each negative
batch (one per CD round, plus the particles' starting state under PCD),
which feeds its z draw, the next h draw and the negative gradient term; and
the data batch after the step, for the regroup statistic, which must read
the updated parameters. CD-k thus makes k + 2 passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import sampling
from .model import (
    ModelParams,
    cond_y_given_v,
    label_joint_log_weights,
    log_sum_exp,
    marginal_z_posterior,
    permute_units,
    suffix_probs,
    unit_inputs,
    with_label_inputs,
)
from .rng import stream
from .sampling import FantasyChains, PhaseSamples


OBJECTIVES = ("generative", "discriminative", "hybrid")


@dataclass
class TrainConfig:
    """Knobs of one training run (everything except the data and epochs)."""

    objective: str = "generative"
    alpha: float = 0.0                    # generative share of the hybrid mix
    hybrid_convention: str = "paper"      # paper: (1+a)*dis + a*gen; larochelle: dis + a*gen
    dis_grad: str = "exact"               # exact | sampled
    lr_mode: str = "adagrad"              # adagrad | decay
    global_lr: float = 0.05
    lr_half_life: float = 1000.0          # decay mode: lr(t) = global_lr / (1 + t/half_life)
    adagrad_eps: float = 1e-8
    cd_steps: int = 1
    use_pcd: bool = False
    n_chains: int | None = None           # default: minibatch_size
    l1_weight: float = 1e-4
    l2_weight: float = 1e-4
    w_bound: float = 10.0
    u_bound: float = 5.0
    minibatch_size: int = 100
    regroup_mode: str = "off"             # off | fixed | adaptive
    regroup_rho: float = 0.75
    adaptive_switch_epoch: int | None = None   # None: switch when l grows < 1% per epoch
    momentum_start: float = 0.5
    momentum_end: float = 0.9
    momentum_ramp_updates: int | None = None   # None: 10 epochs' worth of updates
    seed: int = 0

    def validate(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.hybrid_convention not in ("paper", "larochelle"):
            raise ValueError("hybrid_convention must be 'paper' or 'larochelle'")
        if self.dis_grad not in ("exact", "sampled"):
            raise ValueError("dis_grad must be 'exact' or 'sampled'")
        if self.lr_mode not in ("adagrad", "decay"):
            raise ValueError("lr_mode must be 'adagrad' or 'decay'")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.global_lr <= 0 or self.lr_half_life <= 0:
            raise ValueError("learning rate and half life must be positive")
        if self.cd_steps < 1:
            raise ValueError("cd_steps must be >= 1")
        if self.l1_weight < 0 or self.l2_weight < 0:
            raise ValueError("regularization weights must be >= 0")
        if self.w_bound <= 0 or self.u_bound <= 0:
            raise ValueError("max-norm bounds must be positive")
        if self.minibatch_size < 1:
            raise ValueError("minibatch_size must be >= 1")
        if self.n_chains is not None and self.n_chains < 1:
            raise ValueError("n_chains must be None (minibatch_size) or >= 1")
        if self.regroup_mode not in ("off", "fixed", "adaptive"):
            raise ValueError("regroup_mode must be off, fixed or adaptive")
        if not 0.0 <= self.regroup_rho <= 0.9:
            raise ValueError("regroup_rho must lie in [0, 0.9]")
        if not 0.0 <= self.momentum_start <= self.momentum_end < 1.0:
            raise ValueError("need 0 <= momentum_start <= momentum_end < 1")
        return self


@dataclass
class Gradients:
    """Parameter-shaped bundle; also reused for optimizer accumulators."""

    W: np.ndarray
    b_v: np.ndarray
    c: np.ndarray
    U: np.ndarray | None = None
    d: np.ndarray | None = None

    @classmethod
    def zeros(cls, params: ModelParams) -> "Gradients":
        return cls(
            W=np.zeros_like(params.W),
            b_v=np.zeros_like(params.b_v),
            c=np.zeros_like(params.c),
            U=None if params.U is None else np.zeros_like(params.U),
            d=None if params.d is None else np.zeros_like(params.d),
        )

    def blocks(self):
        for name in ("W", "b_v", "c", "U", "d"):
            arr = getattr(self, name)
            if arr is not None:
                yield name, arr

    def scaled(self, s: float) -> "Gradients":
        return Gradients(
            W=self.W * s, b_v=self.b_v * s, c=self.c * s,
            U=None if self.U is None else self.U * s,
            d=None if self.d is None else self.d * s,
        )

    def __isub__(self, other: "Gradients") -> "Gradients":
        """Subtract other block by block, in place."""
        for name, arr in self.blocks():
            arr -= getattr(other, name)
        return self

    def plus(self, other: "Gradients") -> "Gradients":
        return Gradients(
            W=self.W + other.W, b_v=self.b_v + other.b_v, c=self.c + other.c,
            U=None if self.U is None else self.U + other.U,
            d=None if self.d is None else self.d + other.d,
        )

    def check_finite(self):
        for name, arr in self.blocks():
            if not np.all(np.isfinite(arr)):
                raise FloatingPointError(f"non-finite gradient in block {name}")


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


def _phase_term(params: ModelParams, V, Z, Y, visible_bias: bool, *,
                A=None) -> Gradients:
    """Average of the per-example free-energy derivative over one phase.

    With a label column the derivative is of F(v, y, z); visible_bias=False
    drops the b_v component, giving the derivative of G(y, z | v). A, when
    given, is unit_inputs(params, V, Y).
    """
    V = np.asarray(V, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.int64)
    n, l = V.shape[0], params.l
    if A is None:
        A = unit_inputs(params, V, Y)
    mask = (np.arange(l)[None, :] < Z[:, None]).astype(np.float64)
    S = expit(A) * mask
    g = Gradients.zeros(params)
    g.W[:] = -(S.T @ V) / n
    g.c[:] = -S.mean(axis=0)
    if params.penalty.mode == "dynamic":
        g.c += params.penalty.beta * expit(params.c) * mask.mean(axis=0)
    if visible_bias:
        g.b_v[:] = -V.mean(axis=0)
    if Y is not None:
        E = _one_hot(np.asarray(Y, dtype=np.int64), params.C)
        g.U[:] = -(S.T @ E) / n
        g.d[:] = -E.mean(axis=0)
    return g


def _check_tokens(pos: PhaseSamples, neg: PhaseSamples):
    if (pos.step_token is not None and neg.step_token is not None
            and pos.step_token != neg.step_token):
        raise ValueError("positive and negative phases come from different "
                         "parameter orderings")


def grad_generative(params: ModelParams, pos: PhaseSamples,
                    neg: PhaseSamples) -> Gradients:
    """CD/PCD estimate of the gradient of -mean log p(v): the free-energy
    derivative at the data minus the one at the negative samples. Label
    columns, when present, mean the phases run over the label-marginal model
    and carry sampled labels."""
    _check_tokens(pos, neg)
    gp = _phase_term(params, pos.v, pos.z, pos.y, visible_bias=True, A=pos.a)
    gp -= _phase_term(params, neg.v, neg.z, neg.y, visible_bias=True, A=neg.a)
    return gp


def grad_discriminative_exact(params: ModelParams, V, Y, *, A=None,
                              joint=None) -> Gradients:
    """Exact gradient of -mean log p(y | v) for the materialized units.

    Uses the closed form: the derivative of the per-class free energy has
    rows -p(z >= i | v, y) * sigmoid(input_i) * v, and the data term minus
    the p(y | v)-weighted class average gives the objective gradient. Every
    parameter beyond the pool keeps gradient zero. A, when given, is the
    label-free unit_inputs(params, V) and joint the
    label_joint_log_weights(params, V) of the same batch.
    """
    if not params.has_labels:
        raise ValueError("discriminative gradient needs label weights")
    V = np.asarray(V, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.int64)
    if Y.shape[0] != V.shape[0]:
        raise ValueError("one label per example is required")
    n, l, C = V.shape[0], params.l, params.C
    if A is None:
        A = unit_inputs(params, V)
    if joint is None:
        joint = label_joint_log_weights(params, V, A=A)
    logw, tail = joint                                  # (n, C, l+1), (n, C)
    log_norm = log_sum_exp(logw, tail)                  # -F(y|v)
    p_y = np.exp(log_norm - log_sum_exp(log_norm)[:, None])
    P_geq = suffix_probs(logw, tail, log_norm)[..., :l]  # (n, C, l)
    S = expit(A[:, None, :] + params.U.T[None, :, :])    # (n, C, l)
    R = P_geq * S
    del S

    E = _one_hot(Y, C)
    R_data = R[np.arange(n), Y]                # (n, l)
    Q = R_data - np.einsum("ny,nyi->ni", p_y, R)
    coef = E - p_y                             # (n, C)

    g = Gradients.zeros(params)
    g.W[:] = -(Q.T @ V) / n
    g.c[:] = -Q.mean(axis=0)
    if params.penalty.mode == "dynamic":
        Pg_data = P_geq[np.arange(n), Y]
        Pg_diff = Pg_data - np.einsum("ny,nyi->ni", p_y, P_geq)
        g.c += params.penalty.beta * expit(params.c) * Pg_diff.mean(axis=0)
    g.U[:] = -np.einsum("ny,nyi->iy", coef, R) / n
    g.d[:] = -coef.mean(axis=0)
    return g


def grad_discriminative_sampled(params: ModelParams, V, Y, z_pos,
                                neg: PhaseSamples, *, A=None) -> Gradients:
    """Single-sample estimate of the discriminative gradient: the G
    derivative at (y_n, z_pos) minus the one at the label chain's end point.
    Higher variance than the exact form, but unbiased once the chain mixes.
    A, when given, is the label-free unit_inputs(params, V).
    """
    if not params.has_labels:
        raise ValueError("discriminative gradient needs label weights")
    pos = PhaseSamples(v=np.asarray(V, dtype=np.float64),
                       z=np.asarray(z_pos, dtype=np.int64),
                       y=np.asarray(Y, dtype=np.int64),
                       step_token=neg.step_token)
    if A is not None:
        pos.a = with_label_inputs(params, A, pos.y)
    _check_tokens(pos, neg)
    gp = _phase_term(params, pos.v, pos.z, pos.y, visible_bias=False, A=pos.a)
    gp -= _phase_term(params, neg.v, neg.z, neg.y, visible_bias=False, A=neg.a)
    return gp


def hybrid_gradient(dis: Gradients, gen: Gradients, alpha: float,
                    convention: str = "paper") -> Gradients:
    """Mix of the discriminative and generative gradients.

    Two named weightings: 'paper' applies (1+alpha) and alpha, 'larochelle'
    applies 1 and alpha. With a label-marginal generative part the two
    describe the same family of objectives up to a rescaling of alpha.
    """
    if convention == "paper":
        return dis.scaled(1.0 + alpha).plus(gen.scaled(alpha))
    if convention == "larochelle":
        return dis.plus(gen.scaled(alpha))
    raise ValueError(f"unknown hybrid convention {convention!r}")


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
    """Current regroup length plus the per-epoch history feeding it."""

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

    Finalizes the epoch's average posterior mode M_z, decides whether the
    adaptive phase starts (explicit epoch, or pool growth below 1% over the
    epoch), and in the adaptive phase sets M_t to the mean of M_z over the
    last 20% of elapsed epochs minus 10, clamped to [0, l-1].
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


def _permute_rows(opt: OptimizerState, order: np.ndarray):
    """Reorder the per-unit optimizer rows in place, like the parameters."""
    permute_units(opt.acc, order)
    permute_units(opt.vel, order)
    m = order.shape[0]
    opt.unit_age[:m] = opt.unit_age[order]


def _grow_by_one(params: ModelParams, opt: OptimizerState) -> ModelParams:
    def add_row(a):
        return np.vstack([a, np.zeros((1, a.shape[1]))])

    def add_entry(a, dtype=np.float64):
        return np.concatenate([a, np.zeros(1, dtype=dtype)])

    grown = ModelParams(
        W=add_row(params.W), b_v=params.b_v, c=add_entry(params.c),
        U=None if params.U is None else add_row(params.U),
        d=params.d, penalty=params.penalty)
    for g in (opt.acc, opt.vel):
        g.W = add_row(g.W)
        g.c = add_entry(g.c)
        if g.U is not None:
            g.U = add_row(g.U)
    opt.unit_age = add_entry(opt.unit_age, dtype=np.int64)
    return grown


def growth_decision(z_pos_max: int, z_neg_max: int, l: int) -> bool:
    """Grow only when both phases sampled a cutoff beyond the pool."""
    return z_pos_max > l and z_neg_max > l


def max_norm_project(params: ModelParams, w_bound: float, u_bound: float):
    """Rescale any weight row whose Euclidean norm exceeds its radius."""
    for arr, bound in ((params.W, w_bound), (params.U, u_bound)):
        if arr is None:
            continue
        norms = np.linalg.norm(arr, axis=1)
        over = norms > bound
        if np.any(over):
            arr[over] *= (bound / norms[over])[:, None]


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
        then continue the original trajectory bit for bit."""
        if opt.unit_age.shape[0] != self.params.l:
            raise ValueError("optimizer state does not match the model size")
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
        ADAGRAD's g*g and sqrt(acc) + eps."""
        cfg = self.config
        if cfg.l2_weight:
            grad.W += cfg.l2_weight * self.params.W
            if grad.U is not None:
                grad.U += cfg.l2_weight * self.params.U
        if cfg.l1_weight:
            for g, w in ((grad.W, self.params.W), (grad.U, self.params.U)):
                if g is not None:
                    s = np.sign(w)
                    s *= cfg.l1_weight
                    g += s
        grad.check_finite()
        unit_m, glob_m = self._momentum()
        lr = cfg.global_lr
        if cfg.lr_mode == "decay":
            lr = cfg.global_lr / (1.0 + self.opt.t / cfg.lr_half_life)
        for name, g in grad.blocks():
            p = getattr(self.params, name)
            vel = getattr(self.opt.vel, name)
            if cfg.lr_mode == "adagrad":
                acc = getattr(self.opt.acc, name)
                scratch = np.multiply(g, g)
                acc += scratch
                np.sqrt(acc, out=scratch)
                scratch += cfg.adagrad_eps
                np.multiply(g, lr, out=g)
                g /= scratch
            else:
                np.multiply(g, lr, out=g)
            m = glob_m if name in ("b_v", "d") else (
                unit_m[:, None] if g.ndim == 2 else unit_m)
            vel *= m
            vel -= g
            p += vel

    def _positive_generative(self, V, t: int, A, joint=None) -> PhaseSamples:
        """Positive phase from the data batch's label-free inputs A; a
        labeled model draws y from p(y | v), given by joint (the batch's
        label_joint_log_weights)."""
        rng = stream(self.config.seed, "pos", t)
        if self.params.has_labels:
            p_y = cond_y_given_v(self.params, V, joint=joint)
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

    def update_step(self, V, Y=None) -> dict:
        """One minibatch update; returns a small stats record."""
        cfg = self.config
        params = self.params
        t = self.opt.t
        if cfg.objective in ("discriminative", "hybrid") and Y is None:
            raise ValueError("labelled minibatch required for this objective")

        m_now = current_regroup_length(self.regroup, params.l, cfg)
        if m_now >= 2:
            order = sample_permutation(m_now, stream(cfg.seed, "perm", t))
            permute_units(params, order)
            _permute_rows(self.opt, order)

        l_before = params.l
        V = np.asarray(V, dtype=np.float64)
        grad = gen = None
        z_pos_max = 0
        z_neg_max = 0
        A = unit_inputs(params, V)
        # the per-class weights, when a consumer below needs them
        joint = None
        if params.has_labels and (cfg.objective != "discriminative"
                                  or cfg.dis_grad == "exact"):
            joint = label_joint_log_weights(params, V, A=A)

        if cfg.objective in ("generative", "hybrid"):
            pos = self._positive_generative(V, t, A, joint)
            neg = self._negative_generative(pos, t)
            gen = grad_generative(params, pos, neg)
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
                                                  A=A)
            else:
                dis = grad_discriminative_exact(params, V, Y, A=A, joint=joint)
            if cfg.objective == "discriminative":
                z_pos_max = int(z_pos_d.max())
                z_neg_max = int(neg_d.z.max())
                grad = dis
            else:
                grad = hybrid_gradient(dis, gen, cfg.alpha, cfg.hybrid_convention)
        # free the per-class weights before the regroup statistic builds its own
        del joint

        self._apply_gradient(grad)
        max_norm_project(params, cfg.w_bound, cfg.u_bound)

        grew = growth_decision(z_pos_max, z_neg_max, l_before)
        if grew:
            self.params = _grow_by_one(params, self.opt)

        modes = marginal_z_posterior(params, V).mode(pool_tail=True)
        self.regroup.record_modes(modes)
        self.opt.unit_age += 1
        self.opt.t += 1
        return {"t": t, "l": self.params.l, "M": m_now, "grew": grew,
                "z_pos_max": z_pos_max, "z_neg_max": z_neg_max}

    def run_epoch(self, X, Y=None) -> dict:
        """One pass over the data in a seed-keyed shuffled order, followed by
        the epoch-boundary regroup update."""
        cfg = self.config
        n = X.shape[0]
        order = stream(cfg.seed, "shuffle", self.epochs_done).permutation(n)
        stats = None
        for start in range(0, n, cfg.minibatch_size):
            idx = order[start:start + cfg.minibatch_size]
            stats = self.update_step(X[idx], None if Y is None else Y[idx])
        m_t = regroup_schedule_update(self.regroup, self.params.l, cfg)
        self.epochs_done += 1
        return {"epoch": self.epochs_done, "l": self.params.l, "M": m_t,
                "last_update": stats,
                "mz": self.regroup.mz_history[-1]}

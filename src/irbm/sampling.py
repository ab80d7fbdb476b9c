"""Gibbs samplers over (z, h, v) and (z, y), with CD and PCD chain handling.

The cutoff z is always drawn from its full posterior with the geometric tail
included; a draw landing in the tail is clamped to l+1, so no chain ever
addresses a unit more than one past the materialized pool.

Shared activations. A chain step reads the unit inputs of its visible batch
twice (the z draw, then the h draw), so each visible batch's
`model.unit_inputs` result is computed once and handed on:

- `draw_z`, `draw_h` and `gibbs_sweep` take it as `A=` (label term included
  when Y is given); `draw_y_given_vz` and `run_label_cd` take the label-free
  inputs, from which the y draw builds the label weights over
  `model.label_blocks`;
- `run_cd` takes the data batch's inputs from the caller (the trainer's
  positive phase computes them), `run_pcd` computes the particles' own;
- the negative phases return the inputs of their end points in
  `PhaseSamples.a`, which the gradient reads (`training._phase_term`).

Without `A=` every function computes its own inputs.

Shared posterior. A caller that has already built the z posterior of the
batch it sweeps (AIS reads its log_norm as an importance weight) hands it to
`gibbs_sweep` and `draw_z` as `zp=`, beside the `A=` it was built from, so
the z draw reuses it instead of building it again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .model import (
    ModelParams,
    label_blocks,
    unit_inputs,
    with_label_inputs,
    z_posterior,
)


@dataclass
class FantasyChains:
    """Persistent negative-phase particles. Only the visible state (and the
    label, for joint chains) survives between updates; z is redrawn from its
    posterior at the start of each negative phase, which keeps the chain
    well defined when hidden units get reordered between updates."""

    v: np.ndarray                  # (n_chains, D) uint8
    y: np.ndarray | None = None    # (n_chains,)

    @property
    def n_chains(self) -> int:
        return self.v.shape[0]


@dataclass
class PhaseSamples:
    """Per-example statistics coming out of a positive or negative phase.

    step_token tags which parameter ordering produced the samples so that
    mixing phases from different permutations is caught early. `a`, when
    set, is unit_inputs(params, v, y) under those parameters.
    """

    v: np.ndarray                  # (n, D)
    z: np.ndarray                  # (n,)
    y: np.ndarray | None = None
    step_token: int | None = None
    a: np.ndarray | None = None    # (n, l)


def categorical_rows(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draw of one 0-based category per row of p (n, K), which
    need not be normalized: one uniform per row."""
    cdf = np.cumsum(p, axis=-1)
    u = rng.random(p.shape[0]) * cdf[:, -1]
    idx = (u[:, None] >= cdf).sum(axis=1)
    return np.minimum(idx, p.shape[1] - 1)


def draw_z(params: ModelParams, V, Y, rng, *, A=None, zp=None) -> np.ndarray:
    """z ~ p(z | v [, y]) for each row, clamped to l+1. zp, when given, is
    z_posterior(params, V, Y) of the batch."""
    if zp is None:
        zp = z_posterior(params, V, Y, A=A)
    z = zp.sample(rng)
    return np.atleast_1d(z)


def draw_h(params: ModelParams, V, Z, Y, rng, *, A=None) -> np.ndarray:
    """h ~ p(h | v, z [, y]) as an (n, l+1) binary array; units above the
    cutoff are zero, and the l+1'th unit (zero parameters) has mean 1/2."""
    n = V.shape[0]
    l = params.l
    if A is None:
        A = unit_inputs(params, V, Y)
    means = np.empty((n, l + 1))
    expit(A, out=means[:, :l])
    means[:, l] = 0.5
    mask = np.arange(l + 1)[None, :] < np.asarray(Z)[:, None]
    return ((rng.random((n, l + 1)) < means) & mask).astype(np.float64)


def draw_v(params: ModelParams, H, rng) -> np.ndarray:
    """v ~ p(v | h, z); the cutoff is implicit in H's zero rows above z, and
    the l+1'th unit never contributes because its weights are zero."""
    means = expit(params.b_v + H[:, :params.l] @ params.W)
    return (rng.random(means.shape) < means).astype(np.float64)


def _softmax_rows(logits, rng) -> np.ndarray:
    """One class per row of logits (n, C), drawn from its softmax."""
    logits = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    return categorical_rows(p, rng)


def draw_y(params: ModelParams, H, rng) -> np.ndarray:
    """y ~ p(y | h, z) for each row."""
    return _softmax_rows(params.d + H[:, :params.l] @ params.U, rng)


def draw_y_given_vz(params: ModelParams, V, Z, rng, *, A=None) -> np.ndarray:
    """y ~ p(y | v, z) for each row (the label step of the clamped chain).
    A, when given, is the label-free unit_inputs(params, V)."""
    Z = np.asarray(Z) - 1
    logits = np.empty((Z.shape[0], params.C))
    for rows, joint in label_blocks(params, V, A):
        logits[rows] = joint.head_log_weights[np.arange(Z[rows].shape[0]), :, Z[rows]]
    return _softmax_rows(logits, rng)


def gibbs_sweep(params: ModelParams, V, Y, rng, *, A=None, zp=None):
    """One full sweep z -> h -> v (-> y for joint chains) on a batch.

    Returns (V', Y', Z) where Z is the cutoff used for this sweep. A, when
    given, is unit_inputs(params, V, Y), and zp, when given,
    z_posterior(params, V, Y) of the batch.
    """
    if A is None:
        A = unit_inputs(params, V, Y)
    Z = draw_z(params, V, Y, rng, A=A, zp=zp)
    H = draw_h(params, V, Z, Y, rng, A=A)
    Vn = draw_v(params, H, rng)
    Yn = draw_y(params, H, rng) if Y is not None else None
    return Vn, Yn, Z


def _cd_rounds(params: ModelParams, V, Z, Y, A, k: int, rng):
    """k rounds of h -> v (-> y) -> z from (V, Z, Y) whose unit inputs are A;
    returns the end point and its inputs."""
    for _ in range(k):
        H = draw_h(params, V, Z, Y, rng, A=A)
        V = draw_v(params, H, rng)
        if Y is not None:
            Y = draw_y(params, H, rng)
        A = unit_inputs(params, V, Y)
        Z = draw_z(params, V, Y, rng, A=A)
    return V, Z, Y, A


def run_cd(params: ModelParams, V, z_init, k: int, rng, Y=None,
           step_token: int | None = None, *, A=None) -> PhaseSamples:
    """CD negative phase: start chains at the data with the positive-phase
    cutoffs, run k rounds of h -> v (-> y) -> z, return the end points.
    A, when given, is unit_inputs(params, V, Y) of the data."""
    if k < 1:
        raise ValueError("CD needs at least one Gibbs step")
    V = np.asarray(V, dtype=np.float64)
    Z = np.asarray(z_init, dtype=np.int64).copy()
    if Z.shape[0] != V.shape[0]:
        raise ValueError("one initial cutoff per example is required")
    Y = None if Y is None else np.asarray(Y, dtype=np.int64).copy()
    if A is None:
        A = unit_inputs(params, V, Y)
    V, Z, Y, A = _cd_rounds(params, V, Z, Y, A, k, rng)
    return PhaseSamples(v=V, z=Z, y=Y, step_token=step_token, a=A)


def run_pcd(params: ModelParams, chains: FantasyChains, k: int, rng,
            step_token: int | None = None) -> tuple[PhaseSamples, FantasyChains]:
    """PCD negative phase: continue the persistent particles for k rounds.

    The cutoff is redrawn from p(z | v [, y]) before the first round.
    """
    if k < 1:
        raise ValueError("PCD needs at least one Gibbs step")
    V = chains.v.astype(np.float64)
    Y = None if chains.y is None else chains.y.astype(np.int64)
    A = unit_inputs(params, V, Y)
    Z = draw_z(params, V, Y, rng, A=A)
    V, Z, Y, A = _cd_rounds(params, V, Z, Y, A, k, rng)
    neg = PhaseSamples(v=V, z=Z, y=Y, step_token=step_token, a=A)
    updated = FantasyChains(v=V.astype(np.uint8),
                            y=None if Y is None else Y.copy())
    return neg, updated


def run_label_cd(params: ModelParams, V, y_init, k: int, rng,
                 step_token: int | None = None, *, A=None) -> PhaseSamples:
    """Discriminative negative phase: k sweeps of the clamped (z, y) chain
    started at the data labels. A, when given, is the label-free
    unit_inputs(params, V); v is clamped, so it serves every sweep."""
    if k < 1:
        raise ValueError("CD needs at least one Gibbs step")
    V = np.asarray(V, dtype=np.float64)
    Y = np.asarray(y_init, dtype=np.int64).copy()
    if A is None:
        A = unit_inputs(params, V)
    Z = None
    for _ in range(k):
        Z = draw_z(params, V, Y, rng, A=with_label_inputs(params, A, Y))
        Y = draw_y_given_vz(params, V, Z, rng, A=A)
    return PhaseSamples(v=V, z=Z, y=Y, step_token=step_token,
                        a=with_label_inputs(params, A, Y))


def init_chains(params: ModelParams, n_chains: int, rng,
                labeled: bool = False) -> FantasyChains:
    """Fresh fantasy particles with uniform random visible bits (and labels)."""
    v = (rng.random((n_chains, params.D)) < 0.5).astype(np.uint8)
    y = rng.integers(0, params.C, size=n_chains) if labeled else None
    return FantasyChains(v=v, y=y)

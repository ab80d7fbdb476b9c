import numpy as np

from irbm.model import ModelParams, PenaltyConfig


def make_model(seed, D, l, C=0, scale=1.0, beta=1.01, mode="constant",
               bias_scale=0.5) -> ModelParams:
    """Seeded random model used across the suite."""
    rng = np.random.default_rng(seed)
    return ModelParams(
        W=rng.normal(0.0, scale, (l, D)),
        b_v=rng.normal(0.0, bias_scale, D),
        c=rng.normal(0.0, bias_scale, l),
        U=rng.normal(0.0, scale, (l, C)) if C else None,
        d=rng.normal(0.0, bias_scale, C) if C else None,
        penalty=PenaltyConfig(beta=beta, mode=mode),
    )


def random_binary(seed, n, D) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((n, D)) < 0.5).astype(np.float64)


def same_bundle(a, b) -> bool:
    """Bitwise equality of two parameter bundles, block by block."""
    return [n for n, _ in a.blocks()] == [n for n, _ in b.blocks()] and all(
        np.array_equal(x, getattr(b, name)) for name, x in a.blocks())

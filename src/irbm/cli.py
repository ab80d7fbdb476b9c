"""Command-line surface: train, eval, sample, check, convert-dataset.

Configuration lives in a flat key=value file, overridable per key with
--set; every command is deterministic given (config, seed, inputs). Exit
codes: 0 success, 1 validation failure, 2 runtime failure, 3 invariant or
integrity failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import evaluation
from .checkpoint import CheckpointData, CheckpointError, load_checkpoint, save_checkpoint
from .datasets import (
    Dataset,
    binarize_stochastic,
    load_mnist_idx,
    read_ibmp,
    synth_bars_and_stripes,
    synth_shifted_patterns,
    write_ibmp,
)
from .evaluation import EXACT_D_CAP, full_report
from .model import ParamBundle, PenaltyConfig, marginal_z_posterior, zero_model
from .rng import stream
from .sampling import gibbs_sweep
from .training import COUNT, SEED, Domain, TrainConfig, Trainer, domains, setting

METRICS_HEADER = "# irbm-metrics v1"
METRICS_COLUMNS = "epoch,avg_loglik,error,N_h,l_t,M_t,max_log_mass"


@dataclass
class RunConfig:
    """Training-run settings: data, schedule and output locations, plus the
    model hyperparameters not owned by TrainConfig."""

    dataset: str = ""
    out_dir: str = "runs/out"
    epochs: int = setting(10, COUNT)
    eval_every: int = setting(50, COUNT)
    checkpoint_every: int = setting(0, Domain(0))   # also keep every k'th epoch
    metrics_subsample: int = setting(2048, COUNT)
    exact_cap: int = setting(EXACT_D_CAP, Domain(0))   # 0: always AIS
    ais_temps: int = setting(1000, Domain(2))
    ais_chains: int = setting(100, COUNT)
    beta: float = 1.01                 # checked, with penalty_mode, by PenaltyConfig
    penalty_mode: str = "constant"
    resume: str = ""
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self):
        if not self.dataset:
            raise ValueError("a dataset must be given")
        for name, domain in domains(RunConfig).items():
            domain.check(name, getattr(self, name))
        PenaltyConfig(self.beta, self.penalty_mode)
        self.train.validate()
        return self


def _coerce(text: str, default):
    """`text` read as the type of `default`: a None default stands for an
    optional int ('none', 'auto' or '' give None); bool is tested before
    int, which it subclasses; str, int and float otherwise."""
    text = text.strip()
    if default is None:
        return None if text.lower() in ("none", "auto", "") else int(text)
    if isinstance(default, bool):
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    return type(default)(text)


def parse_key_value_file(path) -> dict:
    """Flat key=value settings, '#' starting a comment."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def build_run_config(config_path=None, overrides=()) -> RunConfig:
    """Defaults, then the config file, then --set overrides; unknown keys are
    rejected. Each value is read as the type of its key's default."""
    config = RunConfig()
    owners = {f.name: config for f in fields(RunConfig) if f.name != "train"}
    owners.update((f.name, config.train) for f in fields(TrainConfig))
    defaults = {key: getattr(owner, key) for key, owner in owners.items()}

    def apply(key, value, where):
        if key not in owners:
            raise ValueError(f"unknown configuration key {key!r} ({where})")
        try:
            setattr(owners[key], key, _coerce(value, defaults[key]))
        except ValueError as exc:
            raise ValueError(f"{key}: {exc} ({where})") from None

    if config_path:
        for key, value in parse_key_value_file(config_path).items():
            apply(key, value, f"config file {config_path}")
    for item in overrides or ():
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        apply(key.strip(), value, "--set override")
    return config


# -- dataset resolution ---------------------------------------------------------

# family -> (builder, keyword defaults); a spec 'family:key=value,...'
# overrides any of these keys
SYNTHETIC = {
    "bars": (synth_bars_and_stripes, {"side": 4, "n": 500, "seed": 0}),
    "shifted": (synth_shifted_patterns, {"length": 8, "width": 3, "n": 500,
                                         "seed": 0, "labeled": False}),
}
# the spec keys both families share; the builders check the others
SPEC_DOMAINS = {"n": COUNT, "seed": SEED}


def resolve_dataset(spec: str, split: str = "train") -> Dataset:
    """A filesystem path loads a packed-bitmap file (picking `split`);
    'bars:...' and 'shifted:...' build the synthetic families."""
    family, _, text = spec.partition(":")
    if family in SYNTHETIC:
        build, defaults = SYNTHETIC[family]
        args = dict(defaults)
        try:
            for part in text.split(",") if text else ():
                key, eq, value = part.partition("=")
                key = key.strip()
                if not eq or key not in defaults:
                    raise ValueError(f"expected key=value with key in "
                                     f"{', '.join(defaults)}, got {part!r}")
                args[key] = _coerce(value, defaults[key])
            for key, domain in SPEC_DOMAINS.items():
                domain.check(key, args[key])
        except ValueError as exc:
            raise ValueError(f"dataset spec {spec!r}: {exc}") from None
        return build(**args)
    path = Path(spec)
    if not path.exists():
        raise ValueError(f"dataset {spec!r} is neither a file nor a synthetic spec")
    splits = read_ibmp(path)
    if split not in splits:
        raise ValueError(f"{spec} has no {split!r} split (has {sorted(splits)})")
    return splits[split]


# -- metrics ----------------------------------------------------------------------


def _metrics_row(epoch, avg_loglik, error, n_h, l_t, m_t, max_log_mass) -> str:
    def num(x, fmt="{:.6f}"):
        if x is None or (isinstance(x, float) and not math.isfinite(x)):
            return ""
        return fmt.format(x)

    return (f"{epoch},{num(avg_loglik)},{num(error)},{n_h},{l_t},{m_t},"
            f"{num(max_log_mass)}")


def _epoch_metrics(trainer: Trainer, X, Y, config: RunConfig) -> dict:
    params = trainer.params
    rng = stream(config.train.seed, "metrics", trainer.epochs_done)
    n = X.shape[0]
    take = min(n, config.metrics_subsample)
    idx = rng.choice(n, size=take, replace=False) if take < n else np.arange(n)
    sub_x = X[idx]
    method, log_z = evaluation.log_partition_estimator(
        params, sub_x, rng, config.exact_cap, config.ais_temps,
        config.ais_chains)
    ev = evaluation.order_pass(params, sub_x, labels=Y is not None)
    avg_loglik = None
    # AIS is too costly for every epoch: it runs on the eval_every cadence
    if method == "exact" or trainer.epochs_done % config.eval_every == 0:
        log_z_value, _ = log_z(params)
        avg_loglik = float(np.mean(ev.log_pstar)) - log_z_value
    error = None
    if Y is not None and params.has_labels:
        error = evaluation.classification_metrics(params, sub_x, Y[idx], ev=ev)[0]
    n_h = evaluation.effective_hidden_size(params, sub_x,
                                           config.train.minibatch_size, zp=ev.zp)
    m_t = trainer.regroup.M_t
    max_log_mass = None
    if m_t >= 1:
        max_log_mass = float(np.max(ev.zp.mass_at_most(m_t)))
    return {"avg_loglik": avg_loglik, "error": error, "n_h": n_h,
            "l_t": params.l, "m_t": m_t, "max_log_mass": max_log_mass}


# -- commands ----------------------------------------------------------------------


def _truncate_metrics(path: Path, epochs_done: int) -> bool:
    """Cut a metrics file back to its header lines plus its first
    epochs_done rows. A row is written before its epoch's checkpoint, so a
    crash between the two leaves a row that the resumed run writes again.
    Returns False when there is no file to continue."""
    if not path.exists():
        return False
    columns = METRICS_COLUMNS.encode()
    keep = rows = 0
    with open(path, "rb+") as f:
        for line in f:
            if not line.startswith(b"#") and line.rstrip(b"\r\n") != columns:
                if rows == epochs_done:
                    break
                rows += 1
            keep += len(line)
        f.truncate(keep)
    return True


def _check_resumed_model(saved, fresh):
    """Refuse to continue a checkpoint whose model differs from the one the
    config and dataset would start: visible size, label classes (0 unless
    the objective uses labels) and penalty."""
    for what, have, want in (("visible units", saved.D, fresh.D),
                             ("label classes", saved.C, fresh.C),
                             ("penalty", saved.penalty, fresh.penalty)):
        if have != want:
            raise ValueError(f"checkpoint model has {what} {have}, "
                             f"config and dataset give {want}")


def cmd_train(args) -> int:
    # the flags are --set overrides given last, so they win
    flags = [f"{key}={value}" for key, value in (
        ("dataset", args.dataset), ("out_dir", args.out_dir),
        ("epochs", args.epochs), ("resume", args.resume)) if value is not None]
    config = build_run_config(args.config, [*(args.set or ()), *flags])
    config.validate()

    data = resolve_dataset(config.dataset, "train")
    labeled = config.train.objective in ("discriminative", "hybrid")
    if labeled and data.y is None:
        raise ValueError(f"objective {config.train.objective!r} needs labels, "
                         f"dataset {config.dataset!r} has none")
    X = data.X.astype(np.float64)
    Y = data.y if labeled else None

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"
    ckpt_path = out_dir / "checkpoint.irbm"

    params = zero_model(D=data.D, C=data.n_classes if labeled else 0,
                        beta=config.beta, penalty_mode=config.penalty_mode)
    if config.resume:
        ckpt = load_checkpoint(config.resume)
        if ckpt.seed != config.train.seed:
            raise ValueError(f"checkpoint was trained with seed {ckpt.seed}, "
                             f"config says {config.train.seed}")
        _check_resumed_model(ckpt.params, params)
        trainer = Trainer(ckpt.params, config.train, n_train=data.n)
        trainer.restore(ckpt.opt, ckpt.regroup, ckpt.chains, ckpt.epochs_done)
        mode = "a" if _truncate_metrics(metrics_path, ckpt.epochs_done) else "w"
    else:
        trainer = Trainer(params, config.train, n_train=data.n)
        mode = "w"

    with open(metrics_path, mode) as metrics:
        if mode == "w":
            print(METRICS_HEADER, file=metrics)
            print(METRICS_COLUMNS, file=metrics)
        while trainer.epochs_done < config.epochs:
            stats = trainer.run_epoch(X, Y)
            m = _epoch_metrics(trainer, X, Y, config)
            print(_metrics_row(stats["epoch"], **m), file=metrics)
            metrics.flush()
            loglik_text = ("" if m["avg_loglik"] is None
                           else f" loglik={m['avg_loglik']:.4f}")
            error_text = "" if m["error"] is None else f" err={m['error']:.4f}"
            print(f"epoch {stats['epoch']:4d} l={m['l_t']:4d} M={m['m_t']:4d} "
                  f"N_h={m['n_h']:4d}{loglik_text}{error_text}")
            state = CheckpointData(
                params=trainer.params, opt=trainer.opt, regroup=trainer.regroup,
                chains=trainer.chains, seed=config.train.seed,
                epochs_done=trainer.epochs_done)
            save_checkpoint(ckpt_path, state)
            if config.checkpoint_every and \
                    trainer.epochs_done % config.checkpoint_every == 0:
                save_checkpoint(out_dir / f"checkpoint-{trainer.epochs_done:05d}.irbm",
                                state)
    print(f"done: {trainer.epochs_done} epochs, l={trainer.params.l}, "
          f"checkpoint at {ckpt_path}")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    data = resolve_dataset(args.dataset, args.split)
    X = data.X.astype(np.float64)
    Y = data.y if (data.y is not None and ckpt.params.has_labels) else None
    if Y is not None and data.n_classes != ckpt.params.C:
        raise ValueError(f"checkpoint model has label classes {ckpt.params.C}, "
                         f"dataset {args.dataset!r} has {data.n_classes}")
    if args.perm_length is not None and not 0 <= args.perm_length <= ckpt.params.l:
        raise ValueError(f"--perm-length must lie in 0..{ckpt.params.l}, "
                         f"got {args.perm_length}")
    rng = stream(args.seed, "eval")
    m_t = ckpt.regroup.M_t if args.perm_length is None else args.perm_length
    report = full_report(ckpt.params, X, Y, n_perms=args.perms, m=m_t, rng=rng,
                         cap=args.exact_cap, ais_temps=args.ais_temps,
                         ais_chains=args.ais_chains)
    extra = {"dataset": args.dataset, "split": args.split, "perm_length": m_t}
    if args.perms > 1 and m_t >= 2 and report.method == "exact":
        single_rng = stream(args.seed, "eval-single")
        _, log_z = evaluation.log_partition_estimator(
            ckpt.params, X, single_rng, args.exact_cap)
        single = evaluation.permutation_averaged_loglik(
            ckpt.params, X, 1, single_rng, m=m_t, log_z=log_z)
        extra["single_order_loglik"] = single
        extra["perm_average_gain"] = report.avg_loglik - single
    if args.converted_rbm:
        n_h = report.n_h
        extra["converted_rbm_n_h"] = n_h
        extra["converted_rbm_loglik"] = evaluation.converted_rbm_loglik(
            ckpt.params, X, n_h, cap=args.exact_cap)
    if args.histogram_csv:
        with open(args.histogram_csv, "w") as f:
            print("# irbm-histogram v1", file=f)
            print("z,count", file=f)
            for z in sorted(report.z_m_histogram):
                print(f"{z},{report.z_m_histogram[z]}", file=f)
    text = report.to_json(**extra)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _tile_grid(images: np.ndarray, height: int, width: int) -> np.ndarray:
    n = images.shape[0]
    cols = int(math.ceil(math.sqrt(n)))
    rows = int(math.ceil(n / cols))
    sep = 1
    grid = np.full((rows * height + (rows - 1) * sep,
                    cols * width + (cols - 1) * sep), 128, dtype=np.uint8)
    for k in range(n):
        r, c = divmod(k, cols)
        top, left = r * (height + sep), c * (width + sep)
        grid[top:top + height, left:left + width] = images[k].reshape(height, width)
    return grid


def write_pgm(path, image: np.ndarray):
    """Plain binary portable graymap (P5, maxval 255)."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (image.shape[1], image.shape[0]))
        f.write(image.tobytes())


def _image_shape(D: int) -> tuple[int, int]:
    side = int(round(math.sqrt(D)))
    if side * side == D:
        return side, side
    return 1, D


def cmd_sample(args) -> int:
    params = load_checkpoint(args.checkpoint).params
    out_dir = Path(args.out_dir)
    if args.n_samples == 0:
        print("nothing to do: 0 samples requested")
        return 0
    rng = stream(args.seed, "sample")
    try:
        V = (rng.random((args.n_samples, params.D)) < 0.5).astype(np.float64)
    except (ValueError, MemoryError) as exc:    # too many rows for numpy or memory
        raise ValueError(f"--n-samples {args.n_samples}: cannot allocate "
                         f"{args.n_samples} chains of {params.D} units ({exc})") from None
    Y = (rng.integers(0, params.C, size=args.n_samples)
         if params.has_labels else None)
    for _ in range(args.steps):
        V, Y, _ = gibbs_sweep(params, V, Y, rng)
    # created only now, so chains that cannot be drawn leave nothing behind
    out_dir.mkdir(parents=True, exist_ok=True)
    height, width = _image_shape(params.D)
    samples_path = out_dir / "samples.pgm"
    write_pgm(samples_path, _tile_grid((V * 255).astype(np.uint8), height, width))
    w = params.W
    lo, hi = w.min(), w.max()
    scaled = np.zeros_like(w) if hi == lo else (w - lo) / (hi - lo)
    filters_path = out_dir / "filters.pgm"
    write_pgm(filters_path, _tile_grid((scaled * 255).astype(np.uint8), height, width))
    print(f"wrote {samples_path} and {filters_path} "
          f"({args.n_samples} samples, {args.steps} steps)")
    return 0


def cmd_check(args) -> int:
    # a bad spec is refused before any check runs
    data = resolve_dataset(args.dataset, args.split) if args.dataset else None
    try:
        ckpt = load_checkpoint(args.checkpoint)
    except CheckpointError as exc:
        print(f"FAIL checkpoint-integrity: {exc}")
        return 3
    params = ckpt.params
    failures = []

    def report(name, ok, detail=""):
        print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
        if not ok:
            failures.append(name)

    try:
        params.check_finite()
        report("parameters-finite", True)
    except FloatingPointError as exc:
        report("parameters-finite", False, str(exc))

    rng = stream(args.seed, "check")
    probes = (rng.random((16, params.D)) < 0.5).astype(np.float64)
    zp = marginal_z_posterior(params, probes)
    total = zp.head_probs().sum(axis=-1) + zp.tail_prob()
    report("z-posterior-normalization", bool(np.all(np.abs(total - 1) < 1e-10)),
           f"max deviation {np.max(np.abs(total - 1)):.2e}")

    # closed-form tail against an explicitly summed geometric series
    ltr = params.penalty.log_tail_ratio
    explicit = float(np.logaddexp.reduce(ltr * np.arange(1, 10_001)))
    report("analytic-tail", abs(explicit - params.penalty.log_tail_geometric_sum) < 1e-10,
           f"difference {abs(explicit - params.penalty.log_tail_geometric_sum):.2e}")

    if params.D <= args.exact_cap:
        p = evaluation.exact_visible_distribution(params, args.exact_cap)
        report("visible-normalization", abs(float(p.sum()) - 1) < 1e-10,
               f"sum {p.sum():.12f}")
    else:
        print(f"skip visible-normalization (D={params.D} above cap {args.exact_cap})")

    if params.D <= 8 and params.l <= 6:
        probes_small = probes[:4]
        if params.has_labels:
            from .training import grad_discriminative_exact
            y_probe = rng.integers(0, params.C, size=probes_small.shape[0])
            analytic = grad_discriminative_exact(params, probes_small, y_probe)
            fd = _fd_gradient(
                params,
                lambda p: -evaluation.exact_cond_loglik(p, probes_small, y_probe))
        else:
            analytic = evaluation.exact_generative_gradient(params, probes_small)
            fd = _fd_gradient(
                params,
                lambda p: -evaluation.exact_loglik(p, probes_small, args.exact_cap))
        rel = _max_rel_error(analytic, fd)
        report("gradient-finite-differences", rel < 1e-5, f"max rel err {rel:.2e}")
    else:
        print("skip gradient-finite-differences (model too large)")

    if data is not None:
        m_t = ckpt.regroup.M_t
        if m_t >= 1 and m_t <= params.l:
            inv = evaluation.check_order_invariance(
                params, data.X.astype(np.float64)[:256], m_t,
                n_perms=args.perms, rng=rng, cap=args.exact_cap)
            detail = (f"max ln p(z<=M|v) = {inv.max_log_mass:.2f}, "
                      f"mean = {inv.mean_log_mass:.2f}")
            if inv.loglik_spread is not None:
                detail += f", loglik spread = {inv.loglik_spread:.3e}"
            print(f"info order-invariance (M={m_t}): {detail}")
        else:
            print("skip order-invariance (no regrouped units recorded)")

    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return 3
    print("all checks passed")
    return 0


def _fd_gradient(params, objective, h=1e-5):
    g = ParamBundle.zeros(params)
    for name, arr in g.blocks():
        target = getattr(params, name)
        flat_grad = arr.reshape(-1)
        flat = target.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = objective(params)
            flat[j] = orig - h
            down = objective(params)
            flat[j] = orig
            flat_grad[j] = (up - down) / (2 * h)
    return g


def _max_rel_error(a, b, floor=1e-4):
    # fresh symmetric models have exactly-zero components, where only
    # absolute agreement (against the floor) is meaningful
    worst = 0.0
    for (_, x), (_, y) in zip(a.blocks(), b.blocks()):
        denom = np.maximum(np.maximum(np.abs(x), np.abs(y)), floor)
        worst = max(worst, float(np.max(np.abs(x - y) / denom)))
    return worst


def cmd_convert_dataset(args) -> int:
    out = Path(args.out)
    if args.format == "idx":
        if not args.images:
            raise ValueError("--images is required for idx conversion")
        intensities, labels = load_mnist_idx(args.images, args.labels)
        ds = binarize_stochastic(intensities, seed=args.seed, labels=labels,
                                 n_classes=(int(labels.max()) + 1
                                            if labels is not None else 0),
                                 split=args.split)
        if args.valid_fraction > 0:
            if args.split != "train":
                raise ValueError("--valid-fraction only applies to the train split")
            n_valid = int(round(args.valid_fraction * ds.n))
            if n_valid in (0, ds.n):
                raise ValueError(
                    f"--valid-fraction {args.valid_fraction} of {ds.n} images leaves "
                    f"the {'valid' if n_valid == 0 else 'train'} split empty")
            order = stream(args.seed, "valid-split").permutation(ds.n)
            parts = (("train", order[n_valid:]), ("valid", order[:n_valid]))
            write_ibmp(out, {
                split: Dataset(X=ds.X[rows], y=None if ds.y is None else ds.y[rows],
                               n_classes=ds.n_classes, split=split)
                for split, rows in parts})
        else:
            write_ibmp(out, {args.split: ds})
    elif args.format == "npz":
        if not args.npz:
            raise ValueError("--npz is required for npz conversion")
        if args.valid_fraction:
            raise ValueError("--valid-fraction only applies to idx conversion")
        payload = np.load(args.npz)
        # every split's labels set n_classes; each array is read once
        labels = {split: payload[f"{split}_y"] for split in ("train", "valid", "test")
                  if f"{split}_y" in payload}
        for split, y in labels.items():
            if y.size == 0:
                raise ValueError(f"{split}_y is empty")
        n_classes = (int(max(y.max() for y in labels.values()) + 1)
                     if labels else 0)
        splits = {}
        # non-binary splits draw in turn from one stream: no two share uniforms
        rng = stream(args.seed, "binarize")
        for split in ("train", "valid", "test"):
            key = f"{split}_x"
            if key not in payload:
                continue
            X = payload[key]
            y = labels.get(split)
            if X.size == 0:
                raise ValueError(f"{key} is empty")
            if not (X.min() >= 0 and X.max() <= 1):   # NaN fails
                raise ValueError(f"{key} must be binary or in [0, 1]")
            if np.array_equal(X, X.astype(np.uint8)):
                bits = X.astype(np.uint8)
            else:
                bits = binarize_stochastic(X.reshape(X.shape[0], -1),
                                           seed=args.seed, rng=rng).X
            splits[split] = Dataset(X=bits.reshape(bits.shape[0], -1), y=y,
                                    n_classes=n_classes if y is not None else 0,
                                    split=split)
        if not splits:
            raise ValueError("npz holds no train_x/valid_x/test_x arrays")
        write_ibmp(out, splits)
    else:
        raise ValueError(f"unknown conversion format {args.format!r}")
    print(f"wrote {out}")
    return 0


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irbm",
        description="Train and evaluate iRBMs with random-permutation training.",
        exit_on_error=False)
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run training epochs")
    t.add_argument("--config", help="key=value configuration file")
    t.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one configuration key")
    t.add_argument("--dataset", help="ibmp path or bars:/shifted: spec")
    t.add_argument("--out-dir")
    t.add_argument("--epochs", type=int)
    t.add_argument("--resume", help="checkpoint to continue from")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("checkpoint")
    e.add_argument("dataset")
    e.add_argument("--split", default="test")
    e.add_argument("--perms", type=int, default=5)
    e.add_argument("--perm-length", type=int, default=None,
                   help="units to permute, 0..l (default: the checkpoint's M_t)")
    e.add_argument("--converted-rbm", action="store_true")
    e.add_argument("--exact-cap", type=int, default=EXACT_D_CAP,
                   help="enumerate all 2^D visible vectors when D is at "
                        "most this (default %(default)s), else use AIS: "
                        "2^D * (l+1) cells of work (times C with labels) "
                        "and 8 * 2^D bytes plus one block of memory")
    e.add_argument("--ais-temps", type=int, default=1000)
    e.add_argument("--ais-chains", type=int, default=100)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", help="also write the JSON report here")
    e.add_argument("--histogram-csv", help="write the z_m histogram here")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("sample", help="draw fantasy samples and export images")
    s.add_argument("checkpoint")
    s.add_argument("--steps", type=int, default=10_000)
    s.add_argument("--n-samples", type=int, default=64)
    s.add_argument("--out-dir", default="samples")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_sample)

    c = sub.add_parser("check", help="run structural invariant checks")
    c.add_argument("checkpoint")
    c.add_argument("--dataset", help="optional data for the invariance report")
    c.add_argument("--split", default="train")
    c.add_argument("--perms", type=int, default=5)
    c.add_argument("--exact-cap", type=int, default=EXACT_D_CAP,
                   help="run the exact checks when D is at most this "
                        "(default %(default)s): 2^D * (l+1) cells of work "
                        "(times C with labels) and 8 * 2^D bytes plus one "
                        "block of memory")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_check)

    v = sub.add_parser("convert-dataset", help="produce a packed-bitmap file")
    v.add_argument("--format", choices=("idx", "npz"), required=True)
    v.add_argument("--images", help="IDX image file")
    v.add_argument("--labels", help="IDX label file")
    v.add_argument("--npz", help="npz with train_x/train_y[/valid_*/test_*]")
    v.add_argument("--split", default="train",
                   help="split name for idx conversion")
    v.add_argument("--valid-fraction", type=float, default=0.0,
                   help="carve a validation split out of the train data")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", required=True)
    v.set_defaults(func=cmd_convert_dataset)
    # a flag value argparse cannot read raises, and main() exits 1 naming it
    for command in sub.choices.values():
        command.exit_on_error = False
    return parser


# the checked flags that name no configuration key; --seed, --exact-cap,
# --ais-temps and --ais-chains take their key's domain
FLAG_DOMAINS = {"perms": COUNT, "steps": Domain(0), "n_samples": Domain(0),
                "valid_fraction": Domain(0.0, 1.0)}


def _check_flags(args) -> None:
    """Refuse a flag outside its domain before a command loads anything."""
    table = {**domains(RunConfig, TrainConfig), **FLAG_DOMAINS}
    for name in ("seed", "exact_cap", "ais_temps", "ais_chains", *FLAG_DOMAINS):
        if (value := getattr(args, name, None)) is not None:
            table[name].check("--" + name.replace("_", "-"), value)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
        return args.func(args)
    except (CheckpointError, OSError, FloatingPointError) as exc:  # before ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (argparse.ArgumentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

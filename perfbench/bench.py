"""The four closed-loop workloads and the runner behind run.py.

Each workload is an episode of fixed work that starts from the same inputs
and the same initial model, so every episode of a run must end in the same
state; the runner repeats episodes with one caller (the next starts only
after the previous one and its output checks return) until the run's time
is used. The package receives only the generated data and initial model.

Operations counted in `attempted` are updates, evaluations, checkpoint
saves, checkpoint loads and output checks. An exception or a failed check
counts as a failure and makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import irbm
from irbm import checkpoint, datasets, evaluation, model, training
from irbm.rng import stream

import corpus
import tracer as tracing

SETUP_REPEATS = 5
NORMALIZATION_TOL = 1e-10
AIS_PERMS = 2        # as `irbm eval --perms 2`


@dataclass
class Ledger:
    """Operation counts, output-check failures and per-epoch timings."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    epoch_s: list = field(default_factory=list)
    train_s: list = field(default_factory=list)
    train_examples: int = 0
    eval_s: list = field(default_factory=list)
    test_loglik: list = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _round_trip_corpus(path: Path, splits: dict) -> dict:
    """Store the generated splits as a packed-bitmap file and read them back,
    as `irbm train --dataset file.ibmp` would."""
    datasets.write_ibmp(path, splits)
    return datasets.read_ibmp(path)


def _snapshot(trainer, seed: int) -> checkpoint.CheckpointData:
    return checkpoint.CheckpointData(
        params=trainer.params, opt=trainer.opt, regroup=trainer.regroup,
        chains=trainer.chains, seed=seed, epochs_done=trainer.epochs_done)


def _param_blocks(p) -> list:
    return [p.W, p.b_v, p.c, p.U, p.d]


def _bits_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_state(x: checkpoint.CheckpointData, y: checkpoint.CheckpointData) -> bool:
    """Bitwise equality of two checkpoint states."""
    arrays = list(zip(_param_blocks(x.params), _param_blocks(y.params)))
    for gx, gy in ((x.opt.acc, y.opt.acc), (x.opt.vel, y.opt.vel)):
        arrays += list(zip(_param_blocks(gx), _param_blocks(gy)))
    arrays.append((x.opt.unit_age, y.opt.unit_age))
    if (x.chains is None) != (y.chains is None):
        return False
    if x.chains is not None:
        arrays += [(x.chains.v, y.chains.v), (x.chains.y, y.chains.y)]
    rx, ry = x.regroup, y.regroup
    scalars_x = (x.params.penalty, x.opt.t, x.seed, x.epochs_done, rx.M_t, rx.phase,
                 rx.epoch, rx.prev_l, rx.mode_sum, rx.mode_count)
    scalars_y = (y.params.penalty, y.opt.t, y.seed, y.epochs_done, ry.M_t, ry.phase,
                 ry.epoch, ry.prev_l, ry.mode_sum, ry.mode_count)
    return (scalars_x == scalars_y
            and _bits_equal(np.asarray(rx.mz_history, dtype=np.float64),
                            np.asarray(ry.mz_history, dtype=np.float64))
            and all(_bits_equal(a, b) for a, b in arrays))


def digest(params, *values: float) -> str:
    """sha256 of the parameter bytes (and any extra results)."""
    h = hashlib.sha256()
    for block in _param_blocks(params):
        if block is not None:
            h.update(np.ascontiguousarray(block).tobytes())
    for v in values:
        h.update(np.float64(v).tobytes())
    return h.hexdigest()


def check_z_normalization(ledger: Ledger, params, probes: np.ndarray, seed: int):
    """p(z | v) (per label too, for labeled models) sums to 1 on the probes."""
    posts = [model.z_posterior(params, probes), model.marginal_z_posterior(params, probes)]
    if params.has_labels:
        labels = np.random.default_rng([seed, 4]).integers(0, params.C, probes.shape[0])
        posts.append(model.z_posterior(params, probes, labels))
    worst = max(float(np.max(np.abs(zp.head_probs().sum(axis=-1) + zp.tail_prob() - 1.0)))
                for zp in posts)
    ledger.check(worst <= NORMALIZATION_TOL,
                 f"z posterior normalizes to 1 only within {worst:.3g}")


def probe_vectors(seed: int, X: np.ndarray) -> np.ndarray:
    """Eight seeded random binary vectors plus the first eight examples."""
    rand = np.random.default_rng([seed, 3]).random((8, X.shape[1])) < 0.5
    return np.vstack([rand.astype(np.float64), X[:8]])


# -- workloads ------------------------------------------------------------------


class _Training:
    """An episode trains a fresh Trainer from the initial model for a fixed
    number of epochs, saving a checkpoint after each (and evaluating, when
    the workload does), like `irbm train`."""

    epochs: int

    def _evaluate(self, trainer, ledger):
        return None

    def episode(self, ledger: Ledger):
        trainer = training.Trainer(self.initial.copy(), self.config, n_train=self.X.shape[0])
        n = self.X.shape[0]
        updates = math.ceil(n / self.config.minibatch_size)
        clock = time.perf_counter
        for _ in range(self.epochs):
            t0 = clock()
            ledger.attempted += updates
            trainer.run_epoch(self.X, self.Y)
            t1 = clock()
            loglik = self._evaluate(trainer, ledger)
            t2 = clock()
            ledger.attempted += 1
            checkpoint.save_checkpoint(self.ckpt, _snapshot(trainer, self.seed))
            t3 = clock()
            ledger.epoch_s.append(t3 - t0)
            ledger.train_s.append(t1 - t0)
            ledger.train_examples += n
            if loglik is not None:
                ledger.eval_s.append(t2 - t1)
                ledger.test_loglik.append(loglik)
        return trainer

    def check(self, ledger: Ledger, trainer) -> str:
        ledger.attempted += 1
        loaded = checkpoint.load_checkpoint(self.ckpt)
        ledger.check(same_state(loaded, _snapshot(trainer, self.seed)),
                     "checkpoint loaded back differs from the trainer state")
        check_z_normalization(ledger, trainer.params, self.probes, self.seed)
        extra = ledger.test_loglik[-1:] if ledger.test_loglik else []
        return digest(trainer.params, *extra)


class BarsExact(_Training):
    """Criterion-6 shape: bars-and-stripes 4x4, exact test log-likelihood by
    2^16 enumeration after every epoch; the pool grows by about one unit
    per update."""

    name = "bars16-rp-exact"

    def __init__(self, epochs: int = 20, n_train: int = 300, n_test: int = 200):
        self.epochs, self.n_train, self.n_test = epochs, n_train, n_test

    def setup(self, seed: int, work_dir: Path):
        self.seed = seed
        splits = _round_trip_corpus(work_dir / "bars.ibmp", {
            "train": datasets.synth_bars_and_stripes(4, self.n_train, seed),
            "test": datasets.synth_bars_and_stripes(4, self.n_test, seed + 1000)})
        self.X = splits["train"].X.astype(np.float64)
        self.Xt = splits["test"].X.astype(np.float64)
        self.Y = None
        self.probes = probe_vectors(seed, self.Xt)
        self.config = training.TrainConfig(
            objective="generative", lr_mode="adagrad", global_lr=0.05, cd_steps=3,
            minibatch_size=100, l1_weight=1e-3, regroup_mode="fixed", regroup_rho=0.7,
            seed=seed)
        self.initial = model.zero_model(D=16, beta=1.05)
        self.ckpt = work_dir / "bars.irbm"
        warm = training.Trainer(self.initial.copy(), self.config, n_train=self.n_train)
        warm.run_epoch(self.X)
        evaluation.exact_loglik(warm.params, self.Xt, cap=16)

    def _evaluate(self, trainer, ledger):
        ledger.attempted += 1
        loglik = evaluation.exact_loglik(trainer.params, self.Xt, cap=16)
        ledger.check(math.isfinite(loglik), f"exact_loglik is {loglik}")
        return loglik


def _digits_splits(seed: int, work_dir: Path, n_train: int, n_test: int) -> dict:
    train_i, train_y = corpus.digit_intensities(seed, n_train, tag=10)
    test_i, test_y = corpus.digit_intensities(seed, n_test, tag=11)
    return _round_trip_corpus(work_dir / "digits.ibmp", {
        "train": datasets.binarize_stochastic(train_i, seed, train_y, corpus.N_CLASSES, "train"),
        "test": datasets.binarize_stochastic(test_i, seed + 1, test_y, corpus.N_CLASSES, "test")})


class Digits784(_Training):
    """RP training at D=784 from a seeded l=500 model, minibatch 100, cd=1,
    rho=0.7, a checkpoint every epoch and no likelihood evaluation;
    `labeled` switches to C=10 and the hybrid objective (alpha=0.01, exact
    discriminative gradient)."""

    def __init__(self, labeled: bool, epochs: int | None = None, n_train: int = 1000,
                 l: int = 500):
        self.labeled = labeled
        self.name = "digits784-hybrid" if labeled else "digits784-gen"
        self.epochs = epochs if epochs is not None else (1 if labeled else 4)
        self.n_train, self.l = n_train, l

    def setup(self, seed: int, work_dir: Path):
        self.seed = seed
        splits = _digits_splits(seed, work_dir, self.n_train, 100)
        self.X = splits["train"].X.astype(np.float64)
        self.Y = splits["train"].y.astype(np.int64) if self.labeled else None
        self.probes = probe_vectors(seed, splits["test"].X.astype(np.float64))
        C = corpus.N_CLASSES if self.labeled else 0
        self.initial = corpus.starting_model(self.X, seed, self.l, C, beta=1.01)
        self.config = training.TrainConfig(
            objective="hybrid" if self.labeled else "generative",
            alpha=0.01 if self.labeled else 0.0, dis_grad="exact", cd_steps=1,
            minibatch_size=100, regroup_mode="fixed", regroup_rho=0.7, seed=seed)
        self.ckpt = work_dir / "digits.irbm"
        warm = training.Trainer(self.initial.copy(), self.config, n_train=self.n_train)
        warm.update_step(self.X[:100], None if self.Y is None else self.Y[:100])


class AisEval:
    """`irbm eval --perms 2` on a held-out split: load an l=500 checkpoint
    saved with M_t=350, then `full_report` with AIS and permutation
    averaging. No training runs."""

    name = "digits784-ais-eval"

    def __init__(self, l: int = 500, n_test: int = 500, temps: int = 100,
                 chains: int = 30):
        self.l, self.n_test = l, n_test
        self.temps, self.chains = temps, chains

    def setup(self, seed: int, work_dir: Path):
        self.seed = seed
        splits = _digits_splits(seed, work_dir, 1000, self.n_test)
        X = splits["train"].X.astype(np.float64)
        self.Xt = splits["test"].X.astype(np.float64)
        self.probes = probe_vectors(seed, self.Xt)
        params = corpus.starting_model(X, seed, self.l, 0, beta=1.01)
        m_t = training.fraction_length(params.l, 0.7)
        self.saved = checkpoint.CheckpointData(
            params=params, opt=training.OptimizerState.fresh(params),
            regroup=training.RegroupState(M_t=m_t, prev_l=params.l), chains=None,
            seed=seed, epochs_done=0)
        self.ckpt = work_dir / "model.irbm"
        checkpoint.save_checkpoint(self.ckpt, self.saved)
        evaluation.ais_log_partition(params, 5, self.chains, stream(seed, "warm"))

    def episode(self, ledger: Ledger):
        clock = time.perf_counter
        t0 = clock()
        ledger.attempted += 1
        loaded = checkpoint.load_checkpoint(self.ckpt)
        t1 = clock()
        ledger.attempted += 1
        report = evaluation.full_report(
            loaded.params, self.Xt, None, n_perms=AIS_PERMS, m=loaded.regroup.M_t,
            rng=stream(self.seed, "eval"), ais_temps=self.temps, ais_chains=self.chains)
        t2 = clock()
        ledger.epoch_s.append(t2 - t0)
        ledger.eval_s.append(t2 - t1)
        ledger.test_loglik.append(report.avg_loglik)
        return loaded, report

    def check(self, ledger: Ledger, out) -> str:
        loaded, report = out
        ledger.check(same_state(loaded, self.saved),
                     "loaded checkpoint differs from the saved state")
        values = (report.avg_loglik, report.log_z, report.log_z_std_err)
        ledger.check(all(v is not None and math.isfinite(v) for v in values),
                     f"AIS report is not finite: {values}")
        check_z_normalization(ledger, loaded.params, self.probes, self.seed)
        return digest(loaded.params, *values)


WORKLOADS = {   # name -> factory, in BENCHMARK.json order
    "bars16-rp-exact": BarsExact,
    "digits784-gen": lambda: Digits784(labeled=False),
    "digits784-hybrid": lambda: Digits784(labeled=True),
    "digits784-ais-eval": AisEval,
}


# -- runner -----------------------------------------------------------------------


def environment(seed: int, blas_threads: str) -> dict:
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": blas, "nproc": os.cpu_count(),
            "blas_threads": blas_threads, "cpu": cpu, "seed": seed}


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict            # name -> (value, unit)
    report: dict             # figures printed for people, not in the JSON line
    failures: list

    def json_line(self) -> str:
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted, "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()}})


def _episodes(work, ledger: Ledger, budget_s: float, tr, digests: list) -> list:
    """Run episodes while the next one, taking the median episode time, would
    end within budget_s (at least one); returns their wall times. Output
    checks run between episodes, outside the timing."""
    clock = time.perf_counter
    start = clock()
    times = []
    while not times or clock() - start + statistics.median(times) < budget_s:
        with tr.span(tracing.EPISODE) if tr else nullcontext():
            t0 = clock()
            out = work.episode(ledger)
            times.append(clock() - t0)
        with tr.span("bench.check") if tr else nullcontext():
            digests.append(work.check(ledger, out))
        ledger.check(digests[-1] == digests[0],
                     "an episode ended in a different state than the first")
    return times


def run(make, seed: int, seconds: float, trace: bool, out_dir: Path,
        import_s: Sequence[float] = (0.0,)) -> RunResult:
    """Set up the workload `make()` builds SETUP_REPEATS times, then measure
    it for `seconds`. import_s holds the import times measured before.

    With trace, the first half of the time runs untraced and the second half
    traced; spans are written to out_dir once, at the end.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = out_dir / f"tmp-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tr = tracing.Tracer() if trace else None
    ledger = Ledger()
    digests: list = []
    setup_s: list = []
    untraced: list = []
    traced: list = []
    try:
        with tr.installed(irbm) if tr else nullcontext():
            for _ in range(SETUP_REPEATS):
                work = None      # free the last inputs before building new ones
                t0 = time.perf_counter()
                with tr.span(tracing.SETUP) if tr else nullcontext():
                    work = make()
                    work.setup(seed, work_dir)
                setup_s.append(time.perf_counter() - t0)
        if tr:
            untraced = _episodes(work, ledger, seconds / 2, None, digests)
            with tr.installed(irbm):
                traced = _episodes(work, ledger, seconds / 2, tr, digests)
        else:
            untraced = _episodes(work, ledger, seconds, None, digests)
    except Exception:     # the run's boundary: report, do not crash
        traceback.print_exc()
        ledger.failures.append("exception: " + traceback.format_exc(limit=1).strip())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report = {"episodes": len(untraced) + len(traced), "epochs": len(ledger.epoch_s),
              "digest": digests[0] if digests else "",
              "imports_s": " ".join(f"{t:.4f}" for t in import_s),
              "setups_s": " ".join(f"{t:.4f}" for t in setup_s)}
    if ledger.train_s:
        report["train_ex_per_s"] = (ledger.train_examples / sum(ledger.train_s), "1/s")
    if ledger.eval_s:
        report["eval_s_p50"] = (statistics.median(ledger.eval_s), "s")
    if ledger.test_loglik:
        report["test_loglik"] = (ledger.test_loglik[-1], "nats")

    metrics = {}
    if tr and traced and untraced:
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        report.update(tracing.top_spans(tr.spans))
        _check_accounting(ledger, tr.spans)
        values = tracing.per_layer_metrics(tr.spans, overhead)
        metrics = {k: (values[k], unit) for k, (unit, _) in tracing.PER_LAYER.items()}
        tr.write(out_dir / f"trace-{work.name}-seed{seed}.json", workload=work.name,
                 env=environment(seed, os.environ.get("OPENBLAS_NUM_THREADS", "default")))
    elif not tr and untraced:
        # wall_s and setup_s are best-of: on a shared host episode times
        # drifted by up to 75% within minutes, and the fastest sample moves
        # least.
        # p90 is printed only: three workloads have too few epochs for ten
        # samples beyond it.
        metrics = {
            "setup_s": (min(import_s) + min(setup_s), "s"),
            "wall_s": (min(untraced), "s"),
            "epoch_s_p50": (statistics.median(ledger.epoch_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report["episode_s_p50"] = (statistics.median(untraced), "s")
        report["epoch_s_p90"] = (float(np.percentile(ledger.epoch_s, 90)), "s")
        bad = [k for k, (v, _) in metrics.items() if not (math.isfinite(v) and v > 0)]
        ledger.check(not bad, f"metrics not positive and finite: {bad}")
    report["failed_frac"] = (len(ledger.failures) / max(1, ledger.attempted), "frac")
    return RunResult(correct=not ledger.failures, attempted=max(1, ledger.attempted),
                     failed=len(ledger.failures), metrics=metrics, report=report,
                     failures=list(ledger.failures))


def _check_accounting(ledger: Ledger, spans):
    """Per layer, self times plus the benchmark's own remainder must add up
    to the traced episodes' wall time."""
    selfs = tracing.self_times(spans)
    total = sum(tracing.layer_self_times(spans, selfs).values())
    wall = sum(s[2] - s[1] for s in spans if s[3] < 0 and s[0] == tracing.EPISODE)
    ledger.check(abs(total - wall) <= 1e-9 * max(1.0, len(spans)),
                 f"layer self times sum to {total}, traced wall is {wall}")


def print_result(result: RunResult, workload: str, env: dict, trace: bool, out=sys.stdout):
    """Human-readable lines, then the JSON result as the last line."""
    print(f"perfbench workload={workload} trace={int(trace)} env={json.dumps(env)}", file=out)
    for name, (value, unit) in result.metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=out)
    for name, value in result.report.items():
        if isinstance(value, tuple):
            print(f"  {name} = {value[0]:.6g} {value[1]}", file=out)
        else:
            print(f"  {name} = {value}", file=out)
    print(f"  attempted = {result.attempted} operations, failed = {result.failed}", file=out)
    for failure in result.failures:
        print(f"  FAILED: {failure}", file=out)
    print(result.json_line(), file=out)

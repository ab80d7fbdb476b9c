"""iRBM benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ./src of the
checkout the script sits in, never from an installed copy. With --trace 0
the last stdout line is a JSON result with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of the traced run, and the spans
are written to .perfbench_out/. Exit status: 0 when every output check
passed, 1 when one failed, 2 when the benchmark could not start.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Import time is measured again in this many fresh interpreters: a single
# sample moved by up to a third between runs of the same code.
IMPORT_REPEATS = 6
# What a fresh interpreter runs to time the imports main() makes.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import argparse, os, sys; "
                "sys.path[:0] = sys.argv[1:]; import irbm, bench; "
                "print(time.perf_counter() - t)")
# One BLAS thread: in a pilot on a shared 2-core host, run medians moved 12%
# between runs with 2 threads and 4% with 1.
BLAS_THREADS = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS      # before numpy is first imported
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import irbm
    except ImportError as exc:
        print(f"perfbench: cannot import irbm from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(irbm.__file__).resolve().is_relative_to(src):
        print(f"perfbench: irbm came from {irbm.__file__}, not from {src}", file=sys.stderr)
        return 2

    import bench
    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = [time.perf_counter() - _T_START] + [
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src), str(HERE)],
                             check=True, capture_output=True, text=True,
                             timeout=120).stdout)
        for _ in range(IMPORT_REPEATS)]
    result = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                       ROOT / ".perfbench_out", import_s)
    bench.print_result(result, args.workload, bench.environment(args.seed, BLAS_THREADS),
                       bool(args.trace))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Paired benchmark runs of two revisions, recorded as BENCH_<label>.json.

    python3 scripts/bench_pairs.py REV_A REV_B --label L --seeds 3201-3210
    python3 scripts/bench_pairs.py --table BENCH_L.json

Run from the repository root. REV_A is the parent side and REV_B the change.
Each revision's committed files are exported with `git archive` into its own
temporary directory, so uncommitted edits and untracked files take no part
and the repository's own state is left alone. For every seed (one pair) and
every workload of REV_B's BENCHMARK.json, `perfbench/run.py --trace 0` runs
once in each checkout for the benchmark's `run_seconds`, the parent first in
even pairs and the change first in odd ones.

The JSON file holds the environment, both revisions and every run; per
workload and end-to-end metric, each side's median and quartiles and the
pairs the change won (ties count for neither side); and per workload the
pairs whose final-parameter digests are equal, the operations attempted
and failed on each side, and each side's median and quartiles of the
minor page faults and system CPU seconds of a run. Those two come from
`getrusage(RUSAGE_CHILDREN)` read before and after each run, so they cover
the run's process and the import-timing interpreters it starts. The markdown table printed at the end is made from
that file alone, and `--table` prints it again from a written file.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
USAGE = {"minor_faults": "minor page faults", "sys_s": "system CPU s"}


def parse_seeds(text: str) -> list[int]:
    """'3201-3210' or '3201,3205,3209' (or a mix) to a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError("no seeds given")
    return seeds


def resolve(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          check=True, capture_output=True, text=True).stdout.strip()


def export(commit: str, dest: Path):
    """Write the committed tree of `commit` into dest."""
    proc = subprocess.Popen(["git", "archive", "--format=tar", commit],
                            stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if proc.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run; its JSON result plus digest, environment
    and resource usage, or an error record when no result line came out."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    usage = {"minor_faults": after.ru_minflt - before.ru_minflt,
             "sys_s": after.ru_stime - before.ru_stime}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"exit": proc.returncode, "error": proc.stderr.strip()[-2000:],
                "rusage": usage}
    out["exit"] = proc.returncode
    out["rusage"] = usage
    out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    for line in lines:
        if line.startswith("perfbench workload="):
            out["env"] = json.loads(line.split(" env=", 1)[1])
        elif line.strip().startswith("digest = "):
            out["digest"] = line.split("=", 1)[1].strip()
    return out


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric medians, quartiles and wins of one workload's pairs."""
    ok = [p for p in pairs if all("metrics" in p[side] for side in SIDES)]
    out = {"pairs": len(pairs), "pairs_with_results": len(ok), "metrics": {}}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [p[side]["metrics"][name] for p in ok
                         if name in p[side]["metrics"]] for side in SIDES}
        if not all(values.values()):
            continue
        won = sum(1 for p in ok if name in p["parent"]["metrics"]
                  and name in p["change"]["metrics"]
                  and (p["change"]["metrics"][name] < p["parent"]["metrics"][name]
                       if lower else
                       p["change"]["metrics"][name] > p["parent"]["metrics"][name]))
        entry = {"unit": metric["unit"], "better": metric["better"],
                 "change_won": won, "of": len(values["change"])}
        for side in SIDES:
            entry[side] = quartiles(values[side])
        entry["change_over_parent"] = (entry["change"]["median"]
                                       / entry["parent"]["median"])
        out["metrics"][name] = entry
    out["digests_equal"] = sum(1 for p in ok if p["parent"].get("digest")
                               and p["parent"].get("digest") == p["change"].get("digest"))
    for side in SIDES:
        out[f"{side}_attempted"] = sum(p[side].get("attempted", 0) for p in pairs)
        out[f"{side}_failed"] = sum(p[side].get("failed", 0) for p in pairs)
        out[f"{side}_runs_without_result"] = sum("metrics" not in p[side] for p in pairs)
    out["rusage"] = {}
    for key in USAGE:
        values = {side: [p[side]["rusage"][key] for p in pairs if "rusage" in p[side]]
                  for side in SIDES}
        if all(values.values()):
            out["rusage"][key] = {side: quartiles(values[side]) for side in SIDES}
    return out


def table(record: dict) -> str:
    """The markdown table of a BENCH record: median [q1, q3] per side."""
    rows = ["| workload | metric | parent | change | change better "
            "| change/parent median |", "|---|---|---|---|---|---|"]
    for workload, summary in record["summary"].items():
        for name, m in summary["metrics"].items():
            digits = 2 if m["unit"] == "MB" else 3
            cells = [f"{m[s]['median']:.{digits}f} [{m[s]['q1']:.{digits}f}, "
                     f"{m[s]['q3']:.{digits}f}]" for s in SIDES]
            rows.append(f"| {workload} | {name} | {cells[0]} | {cells[1]} | "
                        f"{m['change_won']}/{m['of']} | {m['change_over_parent']:.3f} |")
    notes = [f"{w}: digests equal in {s['digests_equal']}/{s['pairs']} pairs, "
             f"failed operations {s['parent_failed']}/{s['parent_attempted']} "
             f"(parent) and {s['change_failed']}/{s['change_attempted']} (change)"
             + "".join(f"; {USAGE[key]} per run, median {u['parent']['median']:.6g} "
                       f"(parent) and {u['change']['median']:.6g} (change)"
                       for key, u in s.get("rusage", {}).items())
             for w, s in record["summary"].items()]
    return "\n".join(rows + [""] + notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("revs", nargs="*", metavar="REV",
                        help="the parent and the change revision")
    parser.add_argument("--label", help="writes BENCH_<label>.json")
    parser.add_argument("--seeds", help="one pair per seed: 3201-3210 or 1,2,3")
    parser.add_argument("--table", metavar="BENCH_JSON",
                        help="print the table of a written file and exit")
    args = parser.parse_args(argv)
    if args.table:
        print(table(json.loads(Path(args.table).read_text())))
        return 0
    if len(args.revs) != 2 or not args.label or not args.seeds:
        parser.error("need REV_A REV_B --label L --seeds S")
    seeds = parse_seeds(args.seeds)
    commits = dict(zip(SIDES, (resolve(rev) for rev in args.revs)))
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {}
        for side in SIDES:
            checkouts[side] = Path(tmp) / side
            export(commits[side], checkouts[side])
        bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        seconds = bench["run_seconds"]
        workloads = [w["name"] for w in bench["workloads"]]
        runs = {w: [] for w in workloads}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], workload, seed, seconds)
                    print(f"pair {i + 1}/{len(seeds)} {workload} {side}: "
                          f"{pair[side].get('metrics', pair[side].get('error'))}",
                          file=sys.stderr, flush=True)
                runs[workload].append(pair)
    env = next((dict(p[s]["env"]) for w in workloads for p in runs[w] for s in SIDES
                if "env" in p[s]), {})
    env.pop("seed", None)               # each pair has its own
    record = {
        "format": "irbm-bench-pairs", "version": 1, "label": args.label,
        "revisions": {side: {"rev": rev, "commit": commits[side]}
                      for side, rev in zip(SIDES, args.revs)},
        "command": "perfbench/run.py --trace 0", "run_seconds": seconds,
        "seeds": seeds, "environment": env,
        "summary": {w: summarize(runs[w], bench["end_to_end"]) for w in workloads},
        "runs": runs,
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(table(record))
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

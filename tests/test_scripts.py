"""Smoke runs of the two experiment scripts, started as a user starts them."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300)


def test_rp_speedup_reports_both_arms():
    done = run_script("rp_speedup.py", "--seeds", 1, "--epochs", 3)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 5
    for line, label in zip(lines, ("off     ", "rho=0.7 ")):
        assert re.fullmatch(rf"seed 0 {label}: crossed at >3, "
                            r"final loglik -\d+\.\d\d, l=\d+", line), line
    # neither arm reaches -7 nats in 3 epochs: both are censored at 4
    assert lines[2:] == ["", "median epochs to -7.0 nats: off 4.0, rp 4.0",
                         "both arms converged equally fast"]


def test_rp_speedup_refuses_a_rho_outside_the_regroup_range():
    for rho in ("0", "0.95"):
        done = run_script("rp_speedup.py", "--rho", rho)
        assert done.returncode == 2
        assert done.stdout == ""
        assert f"argument --rho: must lie in (0, 0.9], got {rho}" in done.stderr


def test_regroup_rate_sweep_prints_and_writes_curves(tmp_path):
    args = ("--seeds", 1, "--epochs", 3, "--rhos", 0, 0.7)
    printed = run_script("regroup_rate_sweep.py", *args)
    assert printed.returncode == 0, printed.stderr
    lines = printed.stdout.splitlines()
    for line, rho in zip(lines, ("0.0", "0.7")):
        assert re.fullmatch(rf"rho={rho}: final l = \d+\.\d "
                            r"\(mean over 1 seeds\)", line), line
    curves = lines[2:]
    assert curves[0] == "epoch,rho=0.0,rho=0.7"
    assert [row.split(",")[0] for row in curves[1:]] == ["1", "2", "3"]

    csv = tmp_path / "curves.csv"
    written = run_script("regroup_rate_sweep.py", *args, "--csv", csv)
    assert written.returncode == 0, written.stderr
    assert written.stdout.splitlines() == lines[:2] + [f"wrote {csv}"]
    assert csv.read_text().splitlines() == curves


def test_regroup_rate_sweep_refuses_a_rho_outside_the_regroup_range():
    for rho in ("0.95", "-0.1", "nan"):
        done = run_script("regroup_rate_sweep.py", "--rhos", 0, rho)
        assert done.returncode == 2
        assert done.stdout == ""
        assert f"argument --rhos: must lie in [0, 0.9], got {rho}" in done.stderr

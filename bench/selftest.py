"""Self-test of the benchmark itself (not of the package).

    python3 bench/selftest.py

Checks that the spec generator is deterministic and exact, and that two
traced runs of the same workload and seed report identical exact counters.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS, write_suite

BENCH = Path(__file__).resolve().parent
WORK_DIR = BENCH / "out" / "selftest"


def _numbers_exact(spec: dict) -> bool:
    """Every JSON float of the spec's measures is exactly its decimal text."""
    text = json.dumps({"mu0": spec["mu0"], "mu": spec["mu"]})
    as_decimal = json.loads(text, parse_float=Fraction)
    as_float = json.loads(text)
    return all(Fraction(f) == d for key in ("mu0", "mu")
               for fa, da in zip(as_float[key], as_decimal[key]) for f, d in zip(fa, da))


def check_generator() -> list[str]:
    problems = []
    for workload in WORKLOADS:
        files = {}
        for run in ("a", "b"):
            for seed in (1, 2):
                directory = WORK_DIR / f"{workload}-{seed}-{run}"
                cases, _ = write_suite(workload, seed, directory)
                files[run, seed] = {p.name: p.read_bytes() for p in directory.iterdir()}
        if files["a", 1] != files["b", 1] or files["a", 2] != files["b", 2]:
            problems.append(f"{workload}: the same seed gave different spec files")
        if files["a", 1] == files["a", 2]:
            problems.append(f"{workload}: seeds 1 and 2 gave the same spec files")
        for case in cases:
            raw = json.loads(files["a", 2][f"{case.name}.json"], parse_float=Fraction)
            for key in ("mu0", "mu"):
                if sum(w for _, w in raw[key]) != 1:
                    problems.append(f"{workload}/{case.name}: {key} weights do not sum to 1")
            if case.dyadic and not _numbers_exact(case.data):
                problems.append(f"{workload}/{case.name}: a float is not its decimal text")
    return problems


def check_counters_repeat(workload="inputs-mixed", seed=1) -> list[str]:
    reports = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", "1"], capture_output=True, text=True, timeout=300)
        if done.returncode != 0:
            return [f"traced run failed: {done.stderr.strip()[-300:]}"]
        if not json.loads(done.stdout.strip().splitlines()[-1])["correct"]:
            return [f"traced run reports correct = false:\n{done.stdout}"]
        report = BENCH / "out" / f"{workload}-seed{seed}-trace1" / "report.json"
        reports.append(json.loads(report.read_text())["counters"])
    return [] if reports[0] == reports[1] else [f"counters differ: {reports}"]


def main() -> int:
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    problems = check_generator() + check_counters_repeat()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())

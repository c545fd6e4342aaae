#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of fsglab).

    python3 perfbench/selftest.py

1. BENCHMARK.json names the metrics that run.py reports, with the same units.
2. Two traced runs with the same seed report identical work counts: calls and
   raised exceptions per wrapped function, preimage and inconsistent-row
   tallies, and the attack counters systems_solved / candidates_pruned.
3. The default seed reproduces its job list, and the held-out seed gives
   another one (different generated input files).

Exits 0 when every check passes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402
from tracer import metric_units  # noqa: E402

# Never used while the benchmark was tuned; check later claims on it too.
HELD_OUT_SEED = 4242


def run(workload: str, seed: int, trace: int, seconds: float = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} failed:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json")
                      .read_text())
    return {**full, **last}


def check_names(failures: list) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if per_layer != metric_units():
        failures.append("BENCHMARK.json per_layer differs from tracer.metric_units()")
    reported = run("survey", workloads.DEFAULT_SEED, 0)["metrics"]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if end_to_end != {k: v["unit"] for k, v in reported.items()}:
        failures.append("BENCHMARK.json end_to_end differs from what run.py reports")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def _counts(result: dict) -> dict:
    metrics = result["metrics"]
    return {**result["counts"],
            "attack.systems_solved": metrics["attack.systems_solved"]["value"],
            "attack.candidates_pruned": metrics["attack.candidates_pruned"]["value"]}


def check_repeat(name: str, seed: int, failures: list) -> None:
    first, second = run(name, seed, 1), run(name, seed, 1)
    for result in (first, second):
        if not result["correct"]:
            failures.append(f"{name}: traced run had failed ops: {result['failures']}")
    a, b = _counts(first), _counts(second)
    differing = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    if differing:
        failures.append(f"{name}: counts differ between two traced runs: {differing}")
    print(f"{name}: {len(a)} counts repeat exactly over two traced runs"
          if not differing else f"{name}: counts differ: {differing}")


def _inputs_digest(name: str, seed: int) -> str:
    workdir = ROOT / ".perfbench_out" / f"selftest-{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workloads.build(name, seed, str(workdir), str(ROOT))
        h = hashlib.sha256()
        for path in sorted(workdir.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes().replace(str(workdir).encode(), b"<dir>"))
        return h.hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_seeds(name: str, failures: list) -> None:
    seed = workloads.DEFAULT_SEED
    first = _inputs_digest(name, seed)
    if first != _inputs_digest(name, seed):
        failures.append(f"{name}: seed {seed} does not reproduce its inputs")
    if first == _inputs_digest(name, HELD_OUT_SEED):
        failures.append(f"{name}: seeds {seed} and {HELD_OUT_SEED} give the same inputs")


def main() -> int:
    failures: list[str] = []
    check_names(failures)
    for name in workloads.WORKLOADS:
        check_seeds(name, failures)
        check_repeat(name, workloads.DEFAULT_SEED, failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest passed" if not failures else f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""fsglab benchmark: drives the real CLI in-process over seeded workloads.

    python3 perfbench/run.py --workload design --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload, one table

One closed-loop client in a single process calls ``fsglab.cli.main(argv)``
on generated configs and keystream files, the next op after the previous one
returns, in whole passes over the workload's job list until ``--seconds``
have passed. Every output is checked (see workloads.py); a failed op counts
toward ``error_rate`` and never stops the run.

Times are scaled to a reference machine speed: a timer interrupts the run
every CAL_EVERY_S to time a fixed loop that calls no fsglab code, and each
op's time is multiplied by the loop's reference time over its times around
and during the op (see SpeedSampler). The summary line also prints the
unscaled wall-clock figures.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one pass over
the job list untraced, then the same pass with the tracer installed, and
reports the per-layer metrics plus the ratio of the two wall times. The last
line of standard output is the JSON result; the lines before it are a
readable summary and the provenance. Results and spans are also written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 5
P90_MIN_OPS = 100  # p90 is reported only with at least 10 samples beyond it

# Machine-speed calibration. On the shared 2-core x86_64 machine where the
# bounds were set, the same op took up to twice as long from one second to
# the next. A loop of CAL_ROUNDS rounds that calls no fsglab code is timed
# every CAL_EVERY_S; CAL_REF_S is its median time on that machine.
CAL_ROUNDS = 200
CAL_REF_S = 0.00076
CAL_EVERY_S = 0.02

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class LayoutError(RuntimeError):
    """The checkout does not hold the fsglab sources the benchmark drives."""


def fresh_import():
    """Import fsglab from the checkout's sources, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "fsglab" or n.startswith("fsglab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("fsglab.cli")
    origin = Path(sys.modules["fsglab"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise LayoutError(f"fsglab was imported from {origin}, not from the checkout")
    return cli


def run_cli(cli, argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is a failed op, not a failed run
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _cal_round(i: int, table: dict) -> int:
    cell = _Cell(i & 31, (i, i >> 3))
    table[cell.key] = cell
    return sum(c.value[1] for c in table.values() if c.key & 1) + len(str(i))


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of calls, objects, dicts and tuples.

    Its mix resembles the interpreter work of fsglab's small ops better than
    a bare arithmetic loop does: on one seed of recover-lfsr, it cut the
    run-to-run spread (CV over five runs) of the scaled op_p50_ms from 9% to 3%.
    The garbage collector is off while it runs, so a collection of fsglab's
    heap never lands in the loop's time.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        acc = 0
        for i in range(CAL_ROUNDS):
            acc ^= _cal_round(i, table)
        return time.perf_counter() - start
    finally:
        gc.enable()


class SpeedSampler:
    """Times the calibration loop from a SIGALRM handler every CAL_EVERY_S.

    The handler interrupts whatever Python code runs, fsglab's included, so
    samples fall during long ops as well as between ops. ``busy`` is the time
    spent in the handler; callers take it out of the interval they time.
    """

    def __init__(self):
        self.at: list[float] = []  # sample end times (perf_counter)
        self.loops: list[float] = []  # loop seconds of each sample
        self.busy = 0.0
        self._running = False

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        loop = calibrate()
        end = time.perf_counter()
        self.at.append(end)
        self.loops.append(loop)
        self.busy += end - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        self._running = True

    def stop(self) -> None:
        if self._running:
            time.sleep(2 * CAL_EVERY_S)  # a sample after the last timed interval
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    def scale(self, start: float, end: float) -> float:
        """Mean of CAL_REF_S / loop time over the samples of [start, end].

        The interval is widened by one sampling period on each side, so a
        short op takes the samples just before and after it.
        """
        lo = bisect.bisect_left(self.at, start - CAL_EVERY_S)
        hi = bisect.bisect_right(self.at, end + CAL_EVERY_S)
        loops = self.loops[lo:hi] or self.loops[max(lo - 1, 0):lo + 1]
        return statistics.fmean(CAL_REF_S / t for t in loops)


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs and checks ops of one workload; owns the latency and failure tallies."""

    def __init__(self, cli, workload, digests, sampler, tracer=None):
        self.cli = cli
        self.workload = workload
        self.digests = digests
        self.sampler = sampler
        self.tracer = tracer
        self.intervals: list[tuple] = []  # (start, end, seconds without sampler time)
        self.failures: list[str] = []
        self.equivalent_states = 0
        self.systems_solved = 0
        self.candidates_pruned = 0

    def _replay(self, fn):
        self.equivalent_states += 1
        if self.tracer is None:
            return fn()
        with self.tracer.suspended():
            return fn()

    def op(self, job, index: int) -> float:
        """Run and check one job; returns its wall time in seconds."""
        if self.tracer is not None:
            self.tracer.op = index
        busy = self.sampler.busy
        start = time.perf_counter()
        rc, stdout, stderr = run_cli(self.cli, job.argv)
        end = time.perf_counter()
        elapsed = end - start - (self.sampler.busy - busy)
        self.intervals.append((start, end, elapsed))
        problem = workloads.check(job, rc, stdout, self.digests, self.workload.seed,
                                  self._replay)
        if problem is not None:
            detail = stderr.strip().splitlines()[-1:] if stderr.strip() else []
            self.failures.append(f"{job.id}: {problem}" + "".join(f" ({d})" for d in detail))
        elif job.kind == "recover":
            payload = json.loads(stdout)["payload"]
            self.systems_solved += payload["systems_solved"]
            self.candidates_pruned += payload["candidates_pruned"]
        return elapsed

    def timed(self, seconds: float) -> float:
        """Whole passes over the job list until ``seconds`` pass; returns wall time.

        Stopping only between passes keeps every job's share of the run the
        same from run to run, which a cut in the middle of a pass would not.
        A full collection between passes, outside any op's time, frees the
        garbage cycles each CLI call leaves (about 1 MiB a pass), so the peak
        RSS does not depend on how many passes fit into the run.
        """
        start = time.perf_counter()
        while True:
            for i, job in enumerate(self.workload.jobs):
                self.op(job, i)
            if time.perf_counter() - start >= seconds:
                return time.perf_counter() - start
            gc.collect()

    def one_pass(self) -> float:
        """Every job once, in order; returns the summed wall time in seconds."""
        return sum(self.op(job, i) for i, job in enumerate(self.workload.jobs))


def setup(name: str, seed: int, workdir: Path, digests: dict, sampler: SpeedSampler):
    """Import, input generation and warm-up; returns (cli, workload, interval).

    The interval is (start, end, seconds without sampler time), as for an op.
    """
    busy = sampler.busy
    start = time.perf_counter()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    cli = fresh_import()
    workload = workloads.build(name, seed, str(workdir), str(ROOT))
    warm = Runner(cli, workload, digests, sampler)
    for i, job in enumerate(workload.warmup):
        warm.op(job, i)
    if warm.failures:
        raise RuntimeError(f"warm-up failed: {warm.failures}")
    end = time.perf_counter()
    return cli, workload, (start, end, end - start - (sampler.busy - busy))


def provenance(workload, ops: int) -> dict:
    gf2 = importlib.import_module("fsglab.gf2")
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "gf2_engine": getattr(gf2, "ENGINE_NAME", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": workload.seed,
        "jobs_in_list": len(workload.jobs),
        "ops": ops,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    for path in (ROOT / "src" / "fsglab" / "cli.py", ROOT / "configs"):
        if not path.exists():
            print(f"error: {path.relative_to(ROOT)} is missing; run from an fsglab checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    all_digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests = None if args.record_digests else all_digests.get(args.workload, {})
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    # The traced run reports wall times only, so nothing interrupts its spans.
    sampler = SpeedSampler()
    try:
        if not (args.trace or args.record_digests):
            sampler.start()
        intervals = []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # drops the previous set-up's modules and inputs
            cli, workload, interval = setup(args.workload, args.seed, workdir, digests,
                                            sampler)
            intervals.append(interval)
        if args.record_digests:
            return record_digests(cli, workload, all_digests)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            setups = [net for _, _, net in intervals]
            result, summary, ops = trace_run(cli, workload, digests, sampler, tag)
        else:
            result, summary, ops = timed_run(cli, workload, digests, sampler, args.seconds)
            setups = [net * sampler.scale(start, end) for start, end, net in intervals]
            result["metrics"]["setup_s"] = _metric(statistics.median(setups), "s")
            summary.append(f"setup_s={statistics.median(setups):.4f} s "
                           f"(median of {SETUP_REPEATS} set-ups)")
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["metrics"]["peak_rss_mb"] = _metric(peak, "MiB")
            summary.append(f"peak_rss_mb={peak:.1f} MiB")
        prov = provenance(workload, ops)
        (OUT / f"{tag}.json").write_text(json.dumps(
            {"provenance": prov, "summary": summary, "setup_s": setups, **result}, indent=1))
    except LayoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{args.workload}: " + " | ".join(summary))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _outcome(runner: Runner) -> dict:
    failed = len(runner.failures)
    return {"correct": failed == 0, "attempted": len(runner.intervals), "failed": failed,
            "failures": runner.failures[:20], "equivalent_states": runner.equivalent_states}


def timed_run(cli, workload, digests, sampler, seconds):
    runner = Runner(cli, workload, digests, sampler)
    wall = runner.timed(seconds)
    sampler.stop()
    out = _outcome(runner)
    lat = [net * sampler.scale(start, end) * 1e3 for start, end, net in runner.intervals]
    wall_ms = [net * 1e3 for _, _, net in runner.intervals]
    done = out["attempted"] - out["failed"]
    rate = done / (sum(lat) / 1e3)
    p50 = statistics.median(lat)
    out["metrics"] = {
        "ops_per_s": _metric(rate, "op/s"),
        "op_p50_ms": _metric(p50, "ms"),
    }
    # The same figures unscaled, kept next to the gated ones.
    out["wall"] = {"ops_per_s": done / (sum(wall_ms) / 1e3),
                   "op_p50_ms": statistics.median(wall_ms)}
    summary = [
        f"ops_per_s={rate:.4f} op/s ({done} ops, "
        f"{out['attempted'] / len(workload.jobs):.1f} passes over {len(workload.jobs)} jobs "
        f"in {wall:.2f} s; wall {out['wall']['ops_per_s']:.4f} op/s)",
        f"op_p50_ms={p50:.3f} ms (n={len(lat)}; wall {out['wall']['op_p50_ms']:.3f} ms)",
    ]
    if len(lat) >= P90_MIN_OPS:
        summary.append(f"op_p90_ms={statistics.quantiles(lat, n=10)[8]:.3f} ms (n={len(lat)})")
    else:
        summary.append(f"op_p90_ms=omitted (n={len(lat)} < {P90_MIN_OPS})")
    summary.append(f"error_rate={out['failed'] / out['attempted']:.4f} "
                   f"({out['failed']}/{out['attempted']})")
    out["latencies_ms"] = lat
    out["wall_ms"] = wall_ms
    return out, summary, out["attempted"]


def trace_run(cli, workload, digests, sampler, tag):
    plain = Runner(cli, workload, digests, sampler)
    untraced = plain.one_pass()
    tracer = Tracer()
    traced_runner = Runner(cli, workload, digests, sampler, tracer)
    tracer.install()
    try:
        traced = traced_runner.one_pass()
    finally:
        tracer.uninstall()
    tracer.write_spans(str(OUT / f"{tag}-spans.json"))
    out = _outcome(plain)
    second = _outcome(traced_runner)
    out["attempted"] += second["attempted"]
    out["failed"] += second["failed"]
    out["failures"] += second["failures"]
    out["correct"] = out["failed"] == 0
    out["metrics"] = tracer.metrics(traced_runner.systems_solved,
                                    traced_runner.candidates_pruned, traced / untraced)
    out["counts"] = tracer.counts()
    out["absent"] = sorted(tracer.absent)
    out["spans"] = {"recorded": len(tracer.spans), "dropped": tracer.dropped}
    summary = [f"traced pass {traced:.2f} s vs untraced {untraced:.2f} s "
               f"over {len(workload.jobs)} jobs",
               f"trace.overhead_ratio={traced / untraced:.3f}",
               f"{len(tracer.spans)} spans, absent: {', '.join(out['absent']) or 'none'}"]
    return out, summary, out["attempted"]


def record_digests(cli, workload, all_digests) -> int:
    """Pin the payload digests of every design/survey job at the default seed."""
    if workload.seed != workloads.DEFAULT_SEED or workload.name not in ("design", "survey"):
        print(f"error: digests are recorded for design and survey at seed "
              f"{workloads.DEFAULT_SEED}", file=sys.stderr)
        return 2
    pinned = {}
    for job in workload.warmup + workload.jobs:
        rc, stdout, _ = run_cli(cli, job.argv)
        problem = workloads.check(job, rc, stdout, None, workload.seed, lambda fn: fn())
        if problem is not None:
            print(f"error: {job.id}: {problem}", file=sys.stderr)
            return 1
        pinned[job.id] = workloads.payload_digest(json.loads(stdout))
    all_digests[workload.name] = dict(sorted(pinned.items()))
    DIGESTS.write_text(json.dumps(all_digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(pinned)} digests for {workload.name}")
    return 0


def run_all(args) -> int:
    """Each workload in its own process (set-up and peak RSS are per process)."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        child = json.loads(lines[-1])
        result["correct"] &= child["correct"]
        result["attempted"] += child["attempted"]
        result["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="pin design/survey payload digests at the default seed")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Seeded job lists for the four benchmark workloads, and their output checks.

Every job is one ``fsglab`` command line over files written into a work
directory; the program sees only those files. Each workload keeps the
structure of its job list fixed (which job kinds, in which order, over which
parameter strata) and draws the values inside it from ``--seed``.

Attack time is heavy-tailed: with the same cost estimate, one planted
instance takes 60 ms and the next 700 ms, depending on its taps, filter and
state. Redrawing every instance per seed moved throughput by 25-40% from
seed to seed, more than any regression bound can absorb. So the attack
workloads take their expensive instances from one fixed draw (the reference
tier) and draw only cheap instances from the seed; ``design`` does the same
with its candidate searches.

The checks read only the command's exit code and its structured output; they
call no ``fsglab`` function except to replay a recovered state that differs
from the planted one (a keystream-equivalent state, which a weak nonlinear
register can have).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("design", "survey", "recover-lfsr", "recover-window")

# The seed whose design/survey outputs are pinned in digests.json.
DEFAULT_SEED = 0

FIXTURES = (
    "table1", "table2", "table3", "table4", "table6", "table7",
    "example1", "example2", "example3", "example4", "annihilator",
)
# Shipped configs that `analyze` accepts (optimize_step_b.json has no analysis).
ANALYZE_CONFIGS = (
    "example1_greedy.json", "hybrid_window.json", "worked_custom.json",
    "toy_attack_lfsr.json",
)

# Attack jobs come in two tiers. The reference tier is one fixed draw by the
# workload's rule, filters and planted states included; it carries nearly all
# of the time and its heavy tail. The seeded tier is redrawn from --seed and
# holds only the cheapest class (m = n-1 for LFSRs, a window search of at most
# 2^5 candidates for NFSRs), whose cost varies little from instance to instance.
LFSR_REFERENCE, LFSR_SEEDED = 100, 30
WINDOW_REFERENCE, HYBRID_REFERENCE, WINDOW_SEEDED = 56, 6, 16
WINDOW_SEEDED_LOG2 = 5
# Window costs spread log-uniformly, so neighbouring jobs near the median
# differ by 10-25%. WINDOW_MIDDLE more reference layouts from the middle band
# (2^6 < joint candidates x free sweep <= 2^9) put the median among many jobs
# of similar cost.
WINDOW_MIDDLE = 24
# The completion cap of gfsga_recover (its completion_cap_bits default).
COMPLETION_CAP_BITS = 14


@dataclass
class Job:
    """One CLI invocation and what its output must satisfy."""

    id: str
    argv: list
    kind: str  # check kind: digest | design | survey | recover
    expect: dict = field(default_factory=dict)
    pinned: bool = False  # digest recorded for every seed (seed-independent input)


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list
    warmup: list


def payload_digest(doc: dict) -> str:
    """sha256 of the structured output without its timing and provenance."""
    core = {"command": doc.get("command"), "payload": doc.get("payload")}
    return hashlib.sha256(json.dumps(core, sort_keys=True).encode()).hexdigest()


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


def _structured(*argv) -> list:
    return [*argv, "--format", "structured"]


def _stratum(rng: random.Random, lo: int, hi: int, i: int, k: int) -> int:
    """Uniform draw from the i-th of k equal slices of lo..hi."""
    a = lo + (hi - lo + 1) * i // k
    b = lo + (hi - lo + 1) * (i + 1) // k - 1
    return rng.randint(a, max(a, b))


def _lfsr_generator(L: int, taps, n: int, m: int, rng: random.Random) -> dict:
    feedback = sorted({1} | set(rng.sample(range(2, L + 1), 3)))
    return {
        "kind": "lfsr", "length": L, "feedback": feedback, "taps": list(taps),
        "filter": {"n": n, "m": m},
    }


# --------------------------------------------------------------------------
# design: `fsglab optimize`


def _distinct_differences(rng: random.Random, k: int, L: int) -> list:
    """k distinct differences whose taps span 90-100% of a register of length L.

    The sigma sweep's cost grows with the span, so a fixed span range keeps
    the cost of a job at a given L nearly independent of the draw.
    """
    while True:
        diffs = rng.sample(range(1, 2 * (L - 1) // k), k)
        if 0.9 * (L - 1) <= sum(diffs) <= L - 1:
            return diffs


def build_design(seed: int, workdir: str, root: str) -> Workload:
    rng = random.Random(f"design:{seed}")
    jobs = [Job("shipped-optimize_step_b",
                _structured("optimize", "--config",
                            os.path.join(root, "configs", "optimize_step_b.json")),
                "digest", pinned=True)]

    def optimize_job(job_id, L, n, m, optimize, cli_seed=None, expect=None, draw=rng):
        taps = list(range(1, n + 1))
        cfg = {"generator": _lfsr_generator(L, taps, n, m, draw), "optimize": optimize}
        path = _write_json(os.path.join(workdir, f"{job_id}.json"), cfg)
        argv = _structured("optimize", "--config", path)
        if cli_seed is not None:
            argv += ["--seed", str(cli_seed)]
        return Job(job_id, argv, "design", {"L": L, "n": n, **(expect or {})},
                   pinned=draw is not rng)

    # Step B on given differences; cost grows with the orderings (k!) times L.
    # Ten 5-difference jobs at fixed L keep the median op among jobs of one
    # kind whose cost hardly depends on the drawn differences (2% at L=110).
    slots = [(5, 64 + round(s * 64 / 9)) for s in range(10)] + [(6, 68)]
    for i, (k, L) in enumerate(slots):
        diffs = _distinct_differences(rng, k, L)
        jobs.append(optimize_job(f"stepb-{i}", L, k + 1, rng.randint(1, k - 1),
                                 {"differences": diffs},
                                 expect={"method": "step_b", "differences": sorted(diffs)}))
    # The candidate searches come from one fixed draw, the same for every seed
    # (a reference tier, as in the attack workloads): the same rule drawn
    # anew took from 0.45 s to 1.2 s for one job, which moved ops_per_s by 10%
    # from seed to seed. Their digests are recorded for every seed.
    ref = random.Random("design:reference")
    # Step A + B with a small candidate budget.
    L = ref.randint(88, 104)
    jobs.append(optimize_job("ref-stepab-0", L, 6, ref.randint(1, 4), {"budget": 2},
                             cli_seed=ref.getrandbits(16),
                             expect={"method": "step_a+step_b"}, draw=ref))
    # Staged search (n-1 > 10), from two corners of 96-160 x 12-17 x 3-6.
    for i, (Ls, ns, ms) in enumerate((((96, 112), (12, 13), (3, 4)),
                                      ((144, 160), (16, 17), (5, 6)))):
        jobs.append(optimize_job(f"ref-staged-{i}", ref.randint(*Ls), ref.randint(*ns),
                                 ref.randint(*ms), {"budget": 4},
                                 cli_seed=ref.getrandbits(16),
                                 expect={"method": "staged"}, draw=ref))
    warm = optimize_job("warmup", 24, 4, 2, {"differences": [3, 5, 7]},
                        expect={"method": "step_b", "differences": [3, 5, 7]})
    return Workload("design", seed, jobs, [warm])


def _check_design(job: Job, doc: dict) -> str | None:
    p = doc.get("payload", {})
    ordering = p.get("ordering") or []
    exp = job.expect
    if len(ordering) != exp["n"] - 1:
        return f"ordering has {len(ordering)} differences, want {exp['n'] - 1}"
    if 1 + sum(ordering) > exp["L"] or min(ordering) < 1:
        return "ordering does not fit the register"
    if p.get("method") != exp["method"]:
        return f"method {p.get('method')!r}, want {exp['method']!r}"
    if "differences" in exp and sorted(ordering) != exp["differences"]:
        return "ordering is not a permutation of the given differences"
    if not math.isfinite(p.get("scorecard", {}).get("constant_log2", math.nan)):
        return "scorecard without a constant-mode cost"
    return None


# --------------------------------------------------------------------------
# survey: `fsglab analyze` on generated tap sets, shipped configs, `report`


def build_survey(seed: int, workdir: str, root: str) -> Workload:
    from fsglab.sampling import NoOverdefinedSystemError, TapSet, constant_profile

    rng = random.Random(f"survey:{seed}")
    jobs = [Job(f"report-{f}", _structured("report", f), "digest", pinned=True)
            for f in FIXTURES]
    jobs += [Job(f"shipped-{c}",
                 _structured("analyze", "--config", os.path.join(root, "configs", c)),
                 "digest", pinned=True)
             for c in ANALYZE_CONFIGS]
    # Each (mode, calibration) pair covers L in 80-160 and n in 6-11 as a
    # Latin square: one L stratum per job, the tap counts permuted among them.
    strata = 6
    for mode in ("constant", "greedy", "cyclic", "custom"):
        for calibrate in (False, True):
            tap_counts = rng.sample(range(6, 6 + strata), strata)
            for s in range(strata):
                L = _stratum(rng, 80, 160, s, strata)
                n = tap_counts[s]
                m = rng.randint(1, min(4, n - 1))
                taps = sorted(rng.sample(range(1, L + 1), n))
                analysis = {"mode": mode, "m_calibration": calibrate}
                if mode == "constant":
                    while True:  # a sigma that reaches an overdefined system
                        sigma = rng.randint(1, L // 2)
                        try:
                            constant_profile(TapSet(tuple(taps), L), sigma)
                            break
                        except NoOverdefinedSystemError:
                            continue
                    analysis["sigma"] = sigma
                elif mode == "custom":
                    count = 2 * L // n + 4
                    analysis["schedule"] = [rng.randint(1, L // 2) for _ in range(count)]
                cfg = {"generator": _lfsr_generator(L, taps, n, m, rng), "analysis": analysis}
                job_id = f"analyze-{mode}-{'cal' if calibrate else 'plain'}-{s}"
                path = _write_json(os.path.join(workdir, f"{job_id}.json"), cfg)
                jobs.append(Job(job_id, _structured("analyze", "--config", path), "survey",
                                {"n": n, "L": L, "mode": mode, "calibrate": calibrate}))
    return Workload("survey", seed, jobs, [jobs[FIXTURES.index("annihilator")]])


def _check_survey(job: Job, doc: dict) -> str | None:
    p = doc.get("payload", {})
    prof = p.get("profile") or {}
    exp = job.expect
    c = prof.get("c", 0)
    if prof.get("mode") != exp["mode"] or prof.get("n") != exp["n"] or prof.get("L") != exp["L"]:
        return "profile does not describe the configured generator"
    if len(prof.get("steps", ())) != c - 1 or len(prof.get("q", ())) != c - 1:
        return "profile steps/q do not match its sample count"
    if prof.get("R") != sum(prof.get("q", ())):
        return "profile R is not the sum of q"
    est = p.get("estimate")
    if est is not None and not math.isfinite(est.get("log2_total", math.nan)):
        return "estimate without a finite cost"
    if est is None and exp["mode"] != "custom":
        return "rank-stopped profile without an estimate"
    sweep = p.get("calibration_sweep")
    if exp["calibrate"] and [row.get("m") for row in sweep or ()] != list(range(1, min(5, exp["n"]))):
        return "calibration sweep does not cover m = 1..min(4, n-1)"
    if not exp["calibrate"] and sweep is not None:
        return "calibration sweep without m_calibration"
    return None


# --------------------------------------------------------------------------
# recover-lfsr and recover-window: `fsglab attack` on planted generators


def _bits(rng: random.Random, length: int) -> tuple:
    while True:
        state = tuple(rng.getrandbits(1) for _ in range(length))
        if any(state):
            return state


def _hex(state) -> str:
    acc = sum(b << j for j, b in enumerate(state))
    return format(acc, f"0{(len(state) + 3) // 4}x")


def _attack_job(job_id, workdir, generator, gen_spec, state, nblocks, expect_hex,
                analysis=None) -> Job:
    """Writes the planted keystream and the config of one attack job."""
    from fsglab.attack import write_keystream_file
    from fsglab.registers import keystream

    blocks = keystream(gen_spec, state, nblocks)
    ks = os.path.join(workdir, f"{job_id}.ks")
    f = gen_spec.filter
    total = generator.get("length") or (generator["lfsr"]["length"] + generator["nfsr"]["length"])
    write_keystream_file(ks, f.n, f.m, total, blocks)
    cfg = {"generator": generator, "attack": {"keystream": ks}}
    if analysis:
        cfg["analysis"] = analysis
    path = _write_json(os.path.join(workdir, f"{job_id}.json"), cfg)
    return Job(job_id, _structured("attack", "--config", path), "recover",
               {"state": expect_hex, "planted": state, "generator": gen_spec, "blocks": blocks})


def _label_rank_deficit(reg, taps, steps) -> int:
    """L minus the rank of the linear forms of the labels the schedule reads.

    A count-overdefined schedule can still leave these forms rank-deficient.
    Every path of ``gfsga_recover`` that reaches the last sample then holds
    that deficit, and the attack sweeps its 2^deficit completions only up to
    COMPLETION_CAP_BITS; beyond the cap it exits 4 without a state.
    """
    from fsglab.gf2 import rank_of
    from fsglab.registers import label_expressions

    shifts = [0]
    for step in steps:
        shifts.append(shifts[-1] + step)
    exprs = label_expressions(reg, taps[-1] + shifts[-1])
    labels = sorted({p + s for s in shifts for p in taps})
    return reg.length - rank_of([exprs[label - 1] for label in labels], reg.length)


def _lfsr_instance(rng: random.Random, last_m_only: bool) -> tuple:
    """(L, n, m, taps, steps, filter seed, state) with candidate_log2 <= 14."""
    from fsglab.complexity import gfsga_variable_cost
    from fsglab.registers import primitive_lfsr
    from fsglab.sampling import RankStop, TapSet, greedy_schedule

    while True:
        L = rng.choice((24, 28, 32))
        n = rng.choice((5, 6))
        m = n - 1 if last_m_only else rng.randint(1, n - 1)
        taps = TapSet(tuple(sorted(rng.sample(range(1, L + 1), n))), L)
        schedule, prof = greedy_schedule(taps, RankStop())
        if (gfsga_variable_cost(prof, n, m, L).candidate_log2 <= 14
                and _label_rank_deficit(primitive_lfsr(L), taps.positions,
                                        schedule.steps) <= COMPLETION_CAP_BITS):
            return L, n, m, taps.positions, schedule.steps, rng.getrandbits(30), _bits(rng, L)


def _lfsr_job(job_id: str, workdir: str, instance: tuple) -> Job:
    from fsglab.registers import FilterSpec, GeneratorSpec, primitive_lfsr
    from fsglab.sampling import TapSet

    L, n, m, taps, steps, fseed, state = instance
    reg = primitive_lfsr(L)
    gen = GeneratorSpec(reg, TapSet(taps, L), FilterSpec.uniform_random(n, m, fseed))
    generator = {
        "kind": "lfsr", "length": L, "feedback": sorted(reg.feedback_positions),
        "taps": list(taps), "filter": {"n": n, "m": m, "source": "random", "seed": fseed},
    }
    return _attack_job(job_id, workdir, generator, gen, state, sum(steps) + 2 * L,
                       _hex(state), {"mode": "greedy"})


def _interleave(reference: list, seeded: list) -> list:
    """Spread the reference jobs evenly through the seeded ones."""
    out = list(seeded)
    for i, job in enumerate(reference):
        out.insert(i + (i + 1) * len(seeded) // (len(reference) + 1), job)
    return out


def build_recover_lfsr(seed: int, workdir: str, root: str) -> Workload:
    ref_rng = random.Random("recover-lfsr:reference")
    reference = [_lfsr_job(f"ref-{i}", workdir, _lfsr_instance(ref_rng, False))
                 for i in range(LFSR_REFERENCE)]
    rng = random.Random(f"recover-lfsr:{seed}")
    seeded = [_lfsr_job(f"lfsr-{i}", workdir, _lfsr_instance(rng, True))
              for i in range(LFSR_SEEDED)]
    return Workload("recover-lfsr", seed, _interleave(reference, seeded), seeded[:1])


def _window_layout(families, window: int, n: int, m: int):
    """(free bits, log2 of the joint candidates) of a distance-1 window attack."""
    from fsglab.sampling import hybrid_window_profile

    covered = {(tag, pos + s) for s in range(window) for tag, ts in families
               for pos in ts.positions}
    total = sum(ts.register_length for _, ts in families)
    q = hybrid_window_profile(families, [1] * (window - 1)).q if window > 1 else ()
    return total - len(covered), (n - m) + sum(max(0, n - m - x) for x in q)


def _nfsr_layout(rng: random.Random, hi: int, lo: int = -1) -> tuple:
    """NFSR window layout with at most 8 free bits and lo < joint + free <= hi."""
    from fsglab.sampling import TapSet

    while True:
        L = rng.choice((16, 20, 24))
        n = rng.choice((4, 5))
        m = rng.choice((1, 2))
        max_tap = L - (L // n + 1) - 1  # leaves a window w with w*n > L
        if max_tap < n:
            continue
        taps = TapSet(tuple(sorted(rng.sample(range(1, max_tap + 1), n))), L)
        window = L - taps.positions[-1] - 1
        free, joint = _window_layout([("nfsr", taps)], window, n, m)
        if free <= 8 and lo < joint + free <= hi:
            return "nfsr", L, n, m, (taps.positions,), window


def _hybrid_layout(rng: random.Random) -> tuple:
    """Coupled LFSR/NFSR pair of length 10 or 12, same limits as the NFSR layouts."""
    from fsglab.sampling import TapSet

    while True:
        L = rng.choice((10, 12))
        split = (rng.randint(2, 3), rng.randint(2, 3))
        n = sum(split)
        m = rng.choice((1, 2))
        sets = tuple(TapSet(tuple(sorted(rng.sample(range(1, L // 2 + 1), k))), L)
                     for k in split)
        window = min(L - ts.positions[-1] for ts in sets) - 1
        if window * n <= 2 * L:
            continue
        free, joint = _window_layout(list(zip(("lfsr", "nfsr"), sets)), window, n, m)
        if free <= 8 and joint + free <= 13:
            return "hybrid", L, n, m, tuple(ts.positions for ts in sets), window


def _nfsr_anf(rng: random.Random, L: int) -> tuple[int, list]:
    """Feedback x_1 + (1..3 quadratic terms) + constant, as in the tests."""
    monomials = [[1]] + [sorted(rng.sample(range(2, L + 1), 2))
                         for _ in range(rng.randint(1, 3))]
    return rng.getrandbits(1), monomials


def _window_job(job_id: str, workdir: str, layout: tuple, rng: random.Random) -> Job:
    """Draws the filter, the NFSR feedback and the planted state for a layout."""
    from fsglab.registers import (
        FilterSpec, GeneratorSpec, HybridSpec, HybridTaps, NfsrSpec, primitive_lfsr)
    from fsglab.sampling import TapSet

    kind, L, n, m, taps, window = layout
    fseed = rng.getrandbits(30)
    filt = FilterSpec.uniform_random(n, m, fseed)
    fcfg = {"n": n, "m": m, "source": "random", "seed": fseed}
    constant, monomials = _nfsr_anf(rng, L)
    nfsr = NfsrSpec(L, constant, tuple(frozenset(mono) for mono in monomials))
    anf = {"constant": constant, "monomials": monomials}
    if kind == "nfsr":
        gen = GeneratorSpec(nfsr, TapSet(taps[0], L), filt)
        generator = {"kind": "nfsr", "length": L, "anf": anf, "taps": list(taps[0]),
                     "filter": fcfg}
        state = _bits(rng, L)
        return _attack_job(job_id, workdir, generator, gen, state, window + 2 * L, _hex(state))
    lfsr = primitive_lfsr(L)
    gen = GeneratorSpec(HybridSpec(lfsr, nfsr, True),
                        HybridTaps(TapSet(taps[0], L), TapSet(taps[1], L)), filt)
    generator = {
        "kind": "hybrid", "coupling": True,
        "lfsr": {"length": L, "feedback": sorted(lfsr.feedback_positions)},
        "nfsr": {"length": L, "anf": anf},
        "taps": {"lfsr": list(taps[0]), "nfsr": list(taps[1])},
        "filter": fcfg,
    }
    state = (_bits(rng, L), _bits(rng, L))
    return _attack_job(job_id, workdir, generator, gen, state, window + 4 * L,
                       {"lfsr": _hex(state[0]), "nfsr": _hex(state[1])})


def build_recover_window(seed: int, workdir: str, root: str) -> Workload:
    ref_rng = random.Random("recover-window:reference")
    reference = [_window_job(f"ref-{i}", workdir, _nfsr_layout(ref_rng, 13), ref_rng)
                 for i in range(WINDOW_REFERENCE)]
    reference += [_window_job(f"ref-hybrid-{i}", workdir, _hybrid_layout(ref_rng), ref_rng)
                  for i in range(HYBRID_REFERENCE)]
    reference += [_window_job(f"ref-middle-{i}", workdir, _nfsr_layout(ref_rng, 9, 6), ref_rng)
                  for i in range(WINDOW_MIDDLE)]
    rng = random.Random(f"recover-window:{seed}")
    seeded = [_window_job(f"nfsr-{i}", workdir, _nfsr_layout(rng, WINDOW_SEEDED_LOG2), rng)
              for i in range(WINDOW_SEEDED)]
    return Workload("recover-window", seed, _interleave(reference, seeded), seeded[:1])


def _recovered_replays(job: Job, recovered) -> bool:
    """True when the recovered state regenerates the planted keystream."""
    from fsglab.registers import keystream

    planted = job.expect["planted"]
    if isinstance(recovered, dict):
        state = tuple(_unhex(recovered[k], len(p)) for k, p in zip(("lfsr", "nfsr"), planted))
    else:
        state = _unhex(recovered, len(planted))
    blocks = job.expect["blocks"]
    return keystream(job.expect["generator"], state, len(blocks)) == blocks


def _unhex(text: str, length: int) -> tuple:
    value = int(text, 16)
    return tuple((value >> j) & 1 for j in range(length))


def _check_recover(job: Job, doc: dict, replay) -> str | None:
    p = doc.get("payload", {})
    for key in ("systems_solved", "candidates_pruned"):
        if not isinstance(p.get(key), int):
            return f"payload without an integer {key}"
    got = p.get("recovered_state")
    if got == job.expect["state"]:
        return None
    if got is not None and replay(lambda: _recovered_replays(job, got)):
        return None  # a keystream-equivalent state: the attack is right
    return f"recovered {got!r}, planted {job.expect['state']!r}"


BUILDERS = {
    "design": build_design,
    "survey": build_survey,
    "recover-lfsr": build_recover_lfsr,
    "recover-window": build_recover_window,
}


def build(name: str, seed: int, workdir: str, root: str) -> Workload:
    return BUILDERS[name](seed, workdir, root)


def check(job: Job, rc, stdout: str, digests: dict | None, seed: int, replay) -> str | None:
    """None when the op is correct, else the reason it failed.

    ``digests`` maps job ids to recorded payload digests; None skips the
    digest comparison (used while recording them).
    """
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    if job.kind == "recover":
        return _check_recover(job, doc, replay)
    if digests is not None and (job.pinned or seed == DEFAULT_SEED):
        if job.id not in digests:
            return "no recorded digest"
        if payload_digest(doc) != digests[job.id]:
            return "payload differs from the recorded digest"
    if job.kind == "design":
        return _check_design(job, doc)
    if job.kind == "survey":
        return _check_survey(job, doc)
    return None

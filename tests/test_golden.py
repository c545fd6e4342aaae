"""Byte-identity contract: structured payloads of the reference runs.

The files under ``tests/artifacts/golden/`` hold the ``payload`` block of
``--format structured`` output (canonical JSON, sorted keys); provenance and
timing are outside the contract and are not recorded. The ``attack_*`` files
pin seeded planted recoveries run through the library: the recovered state,
``systems_solved``, ``candidates_pruned`` and, for the window attack, every
``WindowRecovery`` field. To re-record after an intended change of output, run
``python tests/test_golden.py [name ...]`` from the repo root (no names: every
file) and review the diff. The ``analyze_calibration_*`` configs live under
``tests/artifacts/configs/`` so that the benchmark's job list, which reads
``configs/``, does not change with them. ``test_structured_stdout_is_canonical``
pins the raw text of the structured output, not only its parsed payload.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from fsglab import (
    FilterSpec,
    GeneratorSpec,
    HybridSpec,
    HybridTaps,
    NfsrSpec,
    RankStop,
    SamplingSchedule,
    TapSet,
    cyclic_schedule,
    gfsga_recover,
    gfsga_variable_cost,
    greedy_schedule,
    hybrid_window_profile,
    keystream,
    nfsr_window_recover,
    primitive_lfsr,
    repetition_profile,
    write_keystream_file,
)
from fsglab.cli import main
from fsglab.fixtures import FIXTURES
from fsglab.gf2 import rank_of
from fsglab.registers import label_expressions

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "artifacts" / "golden"
CONFIGS = ROOT / "configs"
TEST_CONFIGS = ROOT / "tests" / "artifacts" / "configs"

RUNS = {
    **{f"report_{fid}": ["report", fid] for fid in sorted(FIXTURES)},
    **{
        f"analyze_{name}": ["analyze", "--config", str(CONFIGS / f"{name}.json"), "--seed", "0"]
        for name in ("example1_greedy", "hybrid_window", "worked_custom", "toy_attack_lfsr")
    },
    "optimize_optimize_step_b": [
        "optimize", "--config", str(CONFIGS / "optimize_step_b.json"), "--seed", "0"
    ],
    **{
        f"analyze_calibration_{mode}": [
            "analyze", "--config", str(TEST_CONFIGS / f"analyze_calibration_{mode}.json"),
            "--seed", "0",
        ]
        for mode in ("greedy", "cyclic")
    },
}


def structured_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--format", "structured"]) == 0
    return out.getvalue()


def payload_text(argv) -> str:
    doc = json.loads(structured_stdout(argv))
    return json.dumps(doc["payload"], sort_keys=True, indent=2) + "\n"


def canonical(text: str) -> str:
    """The stdlib's sorted, two-space indented encoding of ``text``'s document."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def _bits(state) -> str:
    return "".join(map(str, state))


def _label_rank_deficit(reg, taps, steps) -> int:
    shifts = [0]
    for step in steps:
        shifts.append(shifts[-1] + step)
    exprs = label_expressions(reg, taps[-1] + shifts[-1])
    labels = {p + s for s in shifts for p in taps}
    return reg.length - rank_of([exprs[label - 1] for label in labels], reg.length)


def _lfsr_schedule(taps: TapSet, mode: str, rng):
    """Greedy, cyclic or custom schedule under the rank stop."""
    if mode == "greedy":
        return greedy_schedule(taps, RankStop())
    if mode == "cyclic":
        return cyclic_schedule(taps, RankStop())
    diffs = [b - a for a, b in zip(taps.positions, taps.positions[1:])]
    steps = []
    while True:  # consecutive tap differences in random order until overdefined
        steps.append(rng.choice(diffs))
        prof = repetition_profile(taps, steps)
        if prof.is_overdefined():
            return SamplingSchedule(tuple(steps), "custom"), prof


def lfsr_pins(mode: str) -> list:
    """Planted gfsga_recover runs: L in {16, 20}, n in {4, 5}, every 1 <= m < n.

    Instances are kept at desk scale (candidate_log2 <= 12, label rank
    deficit <= 4); the rank deficient ones (``rank_deficit`` > 0) finish
    every path in the completion sweep. Every fourth run observes a keystream with one flipped block.
    """
    rng = random.Random(f"attack-pin:{mode}")
    runs = []
    for L in (16, 20):
        reg = primitive_lfsr(L)
        for n in (4, 5):
            for m in range(1, n):
                while True:
                    taps = TapSet(tuple(sorted(rng.sample(range(1, L + 1), n))), L)
                    schedule, prof = _lfsr_schedule(taps, mode, rng)
                    if gfsga_variable_cost(prof, n, m, L).candidate_log2 > 12:
                        continue
                    deficit = _label_rank_deficit(reg, taps.positions, schedule.steps)
                    if deficit <= 4:
                        break
                fseed = rng.getrandbits(30)
                gen = GeneratorSpec(reg, taps, FilterSpec.uniform_random(n, m, fseed))
                state = tuple(rng.getrandbits(1) for _ in range(L))
                blocks = keystream(gen, state, sum(schedule.steps) + 2 * L)
                corrupt = len(runs) % 4 == 3
                if corrupt:
                    blocks[rng.randrange(len(blocks))] ^= 1
                result = gfsga_recover(gen, blocks, schedule)
                runs.append({
                    "L": L, "n": n, "m": m, "taps": list(taps.positions),
                    "steps": list(schedule.steps), "filter_seed": fseed,
                    "rank_deficit": deficit, "corrupt": corrupt, "planted": _bits(state),
                    "recovered": None if result.recovered_state is None
                    else _bits(result.recovered_state),
                    "systems_solved": result.systems_solved,
                    "candidates_pruned": result.candidates_pruned,
                })
    return runs


def _nfsr_spec(rng, L: int) -> NfsrSpec:
    monos = [frozenset({1})] + [frozenset(rng.sample(range(2, L + 1), 2))
                                for _ in range(rng.randint(1, 3))]
    return NfsrSpec(L, rng.getrandbits(1), tuple(monos))


def _window_cost_log2(families, window: int, n: int, m: int) -> int:
    """log2 of (joint candidates x 2^free) under the per-register model."""
    covered = {(tag, pos + s) for s in range(window) for tag, ts in families
               for pos in ts.positions}
    free = sum(ts.register_length for _, ts in families) - len(covered)
    q = hybrid_window_profile(families, [1] * (window - 1)).q if window > 1 else ()
    return free + (n - m) + sum(max(0, n - m - x) for x in q)


def _window_run(gen, state, window: int, describe: dict) -> dict:
    if isinstance(state[0], tuple):
        planted = [_bits(half) for half in state]
        length = sum(map(len, state))
    else:
        planted = _bits(state)
        length = len(state)
    blocks = keystream(gen, state, window + 2 * length)
    recovery, result = nfsr_window_recover(gen, blocks)
    got = result.recovered_state
    if got is not None:
        got = [_bits(half) for half in got] if isinstance(got[0], tuple) else _bits(got)
    return {
        **describe, "model": "per-register", "planted": planted, "recovered": got,
        "systems_solved": result.systems_solved,
        "candidates_pruned": result.candidates_pruned,
        "window": {
            "window_length": recovery.window_length,
            "recovered_bit_count": recovery.recovered_bit_count,
            "remaining_guess": recovery.remaining_guess,
            "per_sample_sizes": recovery.per_sample_sizes,
        },
    }


def nfsr_window_pins() -> list:
    """nfsr_window_recover on NFSR generators, L in {12, 16}, n in {3, 4}, m in {1, 2}."""
    rng = random.Random("attack-pin:nfsr")
    runs = []
    for L in (12, 16):
        for n in (3, 4):
            for m in (1, 2):
                max_tap = L - (L // n + 1) - 1  # leaves a window w with w*n > L
                while True:
                    taps = TapSet(tuple(sorted(rng.sample(range(1, max_tap + 1), n))), L)
                    window = L - taps.positions[-1] - 1
                    if _window_cost_log2([("nfsr", taps)], window, n, m) <= 11:
                        break
                fseed = rng.getrandbits(30)
                spec = _nfsr_spec(rng, L)
                gen = GeneratorSpec(spec, taps, FilterSpec.uniform_random(n, m, fseed))
                state = tuple(rng.getrandbits(1) for _ in range(L))
                describe = {"L": L, "n": n, "m": m, "taps": list(taps.positions),
                            "filter_seed": fseed}
                runs.append(_window_run(gen, state, window, describe))
    return runs


def hybrid_window_pins(coupling: bool) -> list:
    """nfsr_window_recover on LFSR/NFSR pairs of length 8 or 10.

    Register tap sets share positions often. The last instance plants equal
    register halves.
    """
    rng = random.Random(f"attack-pin:hybrid:{coupling}")
    runs = []
    for index in range(5):
        twin_state = index == 4
        while True:
            L1 = rng.choice((8, 10))
            L2 = L1 if coupling or twin_state else rng.choice((8, 10))
            split = (rng.randint(1, 3), rng.randint(1, 3))
            n = sum(split)
            m = rng.choice((1, 2))
            if n > 6 or m >= n:
                continue
            sets = (TapSet(tuple(sorted(rng.sample(range(1, L1 // 2 + 1), split[0]))), L1),
                    TapSet(tuple(sorted(rng.sample(range(1, L2 // 2 + 1), split[1]))), L2))
            window = min(ts.register_length - ts.positions[-1] for ts in sets) - 1
            families = list(zip(("lfsr", "nfsr"), sets))
            if window * n > L1 + L2 and _window_cost_log2(families, window, n, m) <= 10:
                break
        fseed = rng.getrandbits(30)
        spec = HybridSpec(primitive_lfsr(L1), _nfsr_spec(rng, L2), coupling)
        gen = GeneratorSpec(spec, HybridTaps(*sets), FilterSpec.uniform_random(n, m, fseed))
        lfsr_state = tuple(rng.getrandbits(1) for _ in range(L1))
        nfsr_state = lfsr_state if twin_state else tuple(rng.getrandbits(1) for _ in range(L2))
        describe = {"lengths": [L1, L2], "n": n, "m": m,
                    "taps": [list(ts.positions) for ts in sets],
                    "coupling": coupling, "filter_seed": fseed}
        runs.append(_window_run(gen, (lfsr_state, nfsr_state), window, describe))
    return runs


PINS = {
    **{f"attack_lfsr_{mode}": (lambda mode=mode: lfsr_pins(mode))
       for mode in ("greedy", "cyclic", "custom")},
    "attack_window_nfsr": nfsr_window_pins,
    "attack_window_hybrid_coupled": lambda: hybrid_window_pins(True),
    "attack_window_hybrid_uncoupled": lambda: hybrid_window_pins(False),
}


def pin_text(name: str) -> str:
    return json.dumps(PINS[name](), sort_keys=True, indent=2) + "\n"


def test_golden_set_is_complete():
    assert len(RUNS) == 18
    assert len(PINS) == 6
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted([*RUNS, *PINS])


@pytest.mark.parametrize("name", sorted(RUNS))
def test_payload_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert payload_text(RUNS[name]) == expected


@pytest.mark.parametrize("name", sorted(RUNS))
def test_structured_stdout_is_canonical(name):
    out = structured_stdout(RUNS[name])
    assert out == canonical(out)


def test_attack_structured_stdout_is_canonical(tmp_path):
    rng = random.Random("raw-text:attack")
    L, n, m = 20, 5, 2
    reg = primitive_lfsr(L)
    taps = TapSet((3, 5, 10, 14, 16), L)
    filt = FilterSpec.uniform_random(n, m, seed=29)
    state = tuple(rng.getrandbits(1) for _ in range(L))
    blocks = keystream(GeneratorSpec(reg, taps, filt), state, 6 * L)
    ks = tmp_path / "stream.ks"
    write_keystream_file(ks, n, m, L, blocks)
    cfg = tmp_path / "attack.json"
    cfg.write_text(json.dumps({
        "generator": {
            "kind": "lfsr", "length": L, "feedback": sorted(reg.feedback_positions),
            "taps": list(taps.positions),
            "filter": {"n": n, "m": m, "source": "hex", "hex": filt.to_hex()},
        },
        "analysis": {"mode": "greedy"},
        "attack": {"keystream": str(ks)},
    }))
    out = structured_stdout(["attack", "--config", str(cfg)])
    doc = json.loads(out)
    assert type(doc["timing"]["wall_clock"]) is float
    assert out == canonical(out)


@pytest.mark.parametrize("name", sorted(PINS))
def test_attack_pin_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert pin_text(name) == expected


if __name__ == "__main__":
    import sys

    names = sys.argv[1:] or [*RUNS, *PINS]
    unknown = [name for name in names if name not in RUNS and name not in PINS]
    if unknown:
        sys.exit(f"unknown golden file: {', '.join(unknown)}")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in names:
        text = payload_text(RUNS[name]) if name in RUNS else pin_text(name)
        (GOLDEN_DIR / f"{name}.json").write_text(text)
        print(f"recorded {name}")

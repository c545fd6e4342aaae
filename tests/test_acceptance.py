"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
per-criterion timings.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from fsglab import (
    FilterSpec,
    GeneratorSpec,
    NfsrSpec,
    RankStop,
    SampleStop,
    TapSet,
    constant_profile,
    consecutive_differences,
    cyclic_schedule,
    gfsga_constant_cost,
    gfsga_recover,
    gfsga_variable_cost,
    greedy_schedule,
    internal_state_recovery_cost,
    keystream,
    nfsr_window_recover,
    optimal_constant_sigma,
    primitive_lfsr,
    repeated_count_constant,
    repeated_count_variable,
    repetition_profile,
    restricted_annihilator_cost,
    scheme_q_sequence,
    scorecard,
)
from fsglab.fixtures import (
    EXAMPLE1_CONSTANT,
    EXAMPLE1_GREEDY_ROWS,
    EXAMPLE1_TAPS,
    EXAMPLE2_CYCLIC_ROWS,
    EXAMPLE3_Q,
    EXAMPLE3_TAPS,
    EXAMPLE4_Q,
    TABLE6_TARGETS,
    TABLE7_TARGETS,
    example4_families,
    example4_fixture_profile,
    grain_calibration,
)
from fsglab.sampling import hybrid_window_profile

ARTIFACT_DIR = Path(__file__).resolve().parent / "artifacts"


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} FAIL {label}")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s ({elapsed:.3f}s)"
    print(f"ACCEPTANCE {num:02d} PASS {label} ({elapsed*1000:.1f} ms)")


def test_criterion_01_worked_example():
    taps = TapSet((3, 5, 10, 14, 16), 20)
    repetition_profile(taps, (5, 2))  # warm path before timing
    with criterion(1, "two-step walkthrough q=(1,2)", 0.001):
        prof = repetition_profile(taps, (5, 2))
    assert prof.q == (1, 2)
    assert prof.repeated_sets[0] == frozenset({10})
    assert prof.repeated_sets[1] == frozenset({10, 21})
    assert prof.q[1] == 2  # two known bits at the third sample


def test_criterion_02_greedy_walkthrough():
    taps = TapSet(EXAMPLE1_TAPS, 80)
    with criterion(2, "greedy run matches reference table", 1.0):
        schedule, prof = greedy_schedule(taps, RankStop())
        est = gfsga_variable_cost(prof, 7, 2, 80)
    assert schedule.steps[:6] == (5, 13, 7, 26, 11, 17)
    assert prof.q == tuple(r[1] for r in EXAMPLE1_GREEDY_ROWS)
    assert prof.steps == tuple(r[2] for r in EXAMPLE1_GREEDY_ROWS)
    assert prof.repeated_sets == tuple(frozenset(r[0]) for r in EXAMPLE1_GREEDY_ROWS)
    assert prof.total == 67
    assert prof.samples == 22
    assert est.log2_total == pytest.approx(63.97, abs=0.01)


def test_criterion_03_cyclic_walkthrough():
    taps = TapSet(EXAMPLE1_TAPS, 80)
    with criterion(3, "cyclic run matches reference table", 1.0):
        _, prof = cyclic_schedule(taps, RankStop())
        est = gfsga_variable_cost(prof, 7, 2, 80)
    assert prof.q == tuple(r[1] for r in EXAMPLE2_CYCLIC_ROWS)
    assert prof.steps == tuple(r[2] for r in EXAMPLE2_CYCLIC_ROWS)
    assert prof.repeated_sets == tuple(frozenset(r[0]) for r in EXAMPLE2_CYCLIC_ROWS)
    assert prof.total == 72
    assert prof.samples == 22
    assert est.log2_total == pytest.approx(59.97, abs=0.01)


def test_criterion_04_constant_optimum_documented_deviation():
    taps = TapSet(EXAMPLE1_TAPS, 80)
    with criterion(4, "constant optimum and flagged reference slip", 10.0):
        _, best = optimal_constant_sigma(taps, 7, 2, 80)
        costs = {}
        for sigma in (1, 13, 37):
            prof = constant_profile(taps, sigma, stop=RankStop())
            costs[sigma] = gfsga_constant_cost(prof, 7, 2, 80).log2_total
        ref_c = EXAMPLE1_CONSTANT["c"]
        sigma1_at_ref = constant_profile(taps, 1, stop=SampleStop(ref_c))
        sigma1_cost_at_ref = gfsga_constant_cost(sigma1_at_ref, 7, 2, 80).log2_total
    # minimum 2^69.97 attained at 13 and 37
    assert best.log2_total == pytest.approx(69.97, abs=0.01)
    assert costs[13] == pytest.approx(best.log2_total, abs=1e-9)
    assert costs[37] == pytest.approx(best.log2_total, abs=1e-9)
    # sigma=1 at the published sample count c=16 costs 2^70.97
    assert sigma1_cost_at_ref == pytest.approx(70.97, abs=0.01)
    # published (c=16, R=24) contradicts the published r-list, which sums to 28
    r_list_sum = sum(EXAMPLE1_CONSTANT["r_list"])
    assert r_list_sum == 28 != EXAMPLE1_CONSTANT["R"]
    assert sigma1_at_ref.q == EXAMPLE1_CONSTANT["r_list"]
    assert sigma1_at_ref.total == r_list_sum
    print(
        "  documented deviation: published (c=16, R=24) vs r-list sum "
        f"{r_list_sum}; direct minimal stop gives (c=15, R=24) at 2^{costs[1]:.2f}"
    )


def test_criterion_05_scorecard_cross_check():
    with criterion(5, "algorithmic vs FPDS scorecards", 10.0):
        algo = scorecard(TapSet.from_differences((5, 13, 7, 26, 11, 17), 80), 7, 2, 80)
        fpds = scorecard(TapSet((1, 3, 8, 14, 22, 23, 26), 80), 7, 2, 80)
    assert algo.constant_cost.log2_total == pytest.approx(69.97, abs=0.05)
    assert algo.greedy_cost.log2_total == pytest.approx(63.97, abs=0.05)
    assert algo.cyclic_cost.log2_total == pytest.approx(59.97, abs=0.05)
    assert fpds.constant_cost.log2_total == pytest.approx(35.97, abs=0.05)
    assert fpds.greedy_cost.log2_total == pytest.approx(37.97, abs=0.05)
    assert fpds.cyclic_cost.log2_total == pytest.approx(57.97, abs=0.05)
    assert algo.constant_cost.log2_total > fpds.constant_cost.log2_total


def test_criterion_06_window_analysis():
    taps = TapSet(EXAMPLE3_TAPS, 128)
    with criterion(6, "128-bit window analysis", 1.0):
        prof = repetition_profile(taps, [1] * 21)
        cost = internal_state_recovery_cost(prof, 8, 1, 128)
    recovered = 8 + sum(8 - q for q in prof.q)
    assert prof.samples == 22
    assert prof.q == EXAMPLE3_Q
    assert recovered == cost.recovered_bits == 122
    exponent = (8 - 1) + sum(8 - 1 - q for q in prof.q) + (128 - recovered)
    assert exponent == 106
    assert cost.estimate.log2_total == 106
    assert cost.memory_bits < 1 << 15
    assert cost.data_bits == 150


def test_criterion_07_hybrid_fixture_and_models():
    with criterion(7, "256-bit hybrid fixture, both counting models", 5.0):
        prof = example4_fixture_profile()
        cost = internal_state_recovery_cost(prof, 17, 1, 256)
        steps = [1] * len(EXAMPLE4_Q)
        per_reg = hybrid_window_profile(example4_families(), steps, "per-register")
        merged = hybrid_window_profile(example4_families(), steps, "merged")
    recovered = 17 + sum(17 - q for q in prof.q)
    assert recovered == cost.recovered_bits
    parts = (17 - 1, sum(17 - 1 - q for q in prof.q), 256 - recovered)
    assert parts == (16, 196, 12)
    assert cost.estimate.log2_total == 224
    dev_reg = [i + 1 for i, (a, b) in enumerate(zip(per_reg.q, EXAMPLE4_Q)) if a != b]
    dev_merge = [i + 1 for i, (a, b) in enumerate(zip(merged.q, EXAMPLE4_Q)) if a != b]
    print(f"  per-register deviating rows: {dev_reg or 'none'}")
    print(f"  merged-timeline deviating rows: {dev_merge or 'none'}")
    # Factual outcome: per-register counting reproduces the fixture exactly,
    # the merged model does not; both are computed and reported either way.
    assert dev_reg == []
    assert dev_merge != []


def test_criterion_08_restricted_annihilator_arithmetic():
    restricted_annihilator_cost((5, 2.5), (1, 42), 87, 2.807)  # warm
    with criterion(8, "single-output combination arithmetic", 0.001):
        est = restricted_annihilator_cost((5, 2.5), (1, 42), 87, 2.807)
    print(f"  computed 2^{est.log2_total:.2f} vs reference 2^76.32")
    assert abs(est.log2_total - 76.32) < 0.5


def test_criterion_09_oracle_equivalence_sweeps():
    rng = random.Random(0x5EED)
    with criterion(9, "500+500 oracle equivalence, degeneration", 30.0):
        for _ in range(500):  # constant: scheme formula = recursion = direct
            L = rng.randint(8, 64)
            n = rng.randint(2, min(8, L))
            taps = TapSet(tuple(sorted(rng.sample(range(1, L + 1), n))), L)
            sigma = rng.randint(1, L)
            c = rng.randint(1, 40)
            direct = repetition_profile(taps, (sigma,) * (c - 1))
            recursion = constant_profile(taps, sigma, stop=SampleStop(c))
            formula = repeated_count_constant(
                consecutive_differences(taps), sigma, c
            )
            assert direct.q == recursion.q
            assert direct.total == recursion.total == formula
        for _ in range(500):  # variable: scheme method = direct, per sample
            L = rng.randint(8, 64)
            n = rng.randint(2, min(8, L))
            taps = TapSet(tuple(sorted(rng.sample(range(1, L + 1), n))), L)
            steps = tuple(rng.randint(1, L) for _ in range(rng.randint(1, 30)))
            direct = repetition_profile(taps, steps)
            d = consecutive_differences(taps)
            assert list(direct.q) == scheme_q_sequence(d, steps)
            assert direct.total == repeated_count_variable(d, steps)
        for _ in range(200):  # equal custom steps degenerate to constant mode
            L = rng.randint(8, 64)
            n = rng.randint(2, min(8, L))
            taps = TapSet(tuple(sorted(rng.sample(range(1, L + 1), n))), L)
            sigma = rng.randint(1, L)
            const = constant_profile(taps, sigma, stop=RankStop())
            custom = repetition_profile(taps, (sigma,) * (const.samples - 1))
            assert custom.q == const.q
            assert custom.total == const.total
            assert custom.samples == const.samples


def _planted_lfsr_instance(rng):
    while True:
        L = rng.choice((16, 20, 24))
        n = rng.choice((4, 5, 6))
        m = n - 1
        taps = TapSet(tuple(sorted(rng.sample(range(1, L + 1), n))), L)
        schedule, prof = greedy_schedule(taps, RankStop())
        est = gfsga_variable_cost(prof, n, m, L)
        if est.candidate_log2 > 13:  # keep each instance at desk scale
            continue
        filt = FilterSpec.uniform_random(n, m, seed=rng.getrandbits(30))
        gen = GeneratorSpec(primitive_lfsr(L), taps, filt)
        state = tuple(rng.getrandbits(1) for _ in range(L))
        if not any(state):
            continue
        return gen, state, schedule, est


def _planted_window_instance(rng):
    while True:
        L = rng.choice((16, 20, 24))
        n = 4
        m = rng.choice((1, 2))
        window_needed = L // n + 1  # smallest window with window*n > L
        max_tap = L - window_needed - 1
        if max_tap < n:
            continue
        positions = sorted(rng.sample(range(1, max_tap + 1), n))
        taps = TapSet(tuple(positions), L)
        window = L - positions[-1] - 1
        prof = repetition_profile(taps, [1] * (window - 1))
        covered = n + sum(n - q for q in prof.q)
        free = L - covered
        joint_log2 = (n - m) + sum(max(0, n - m - q) for q in prof.q)
        if free > 8 or joint_log2 + free > 13:
            continue
        monos = [frozenset({1})]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(range(2, L + 1), 2)
            monos.append(frozenset({a, b}))
        spec = NfsrSpec(L, rng.getrandbits(1), tuple(monos))
        filt = FilterSpec.uniform_random(n, m, seed=rng.getrandbits(30))
        gen = GeneratorSpec(spec, taps, filt)
        state = tuple(rng.getrandbits(1) for _ in range(L))
        return gen, state, window


def test_criterion_10_end_to_end_attack_soundness():
    rng = random.Random(0xA77AC)
    with criterion(10, "100 linear + 20 window planted recoveries", 300.0):
        max_count_dev = 0.0
        for _ in range(100):
            gen, state, schedule, est = _planted_lfsr_instance(rng)
            blocks = keystream(
                gen, state, sum(schedule.steps) + 2 * gen.register.length
            )
            result = gfsga_recover(gen, blocks, schedule)
            assert result.recovered_state == state
            dev = abs(math.log2(result.systems_solved) - est.candidate_log2)
            max_count_dev = max(max_count_dev, dev)
            assert dev <= 1.0
        for _ in range(20):
            gen, state, window = _planted_window_instance(rng)
            blocks = keystream(gen, state, window + 2 * gen.register.length)
            recovery, result = nfsr_window_recover(gen, blocks)
            assert result.recovered_state == state
            assert recovery.window_length == window
    print(f"  120/120 exact recoveries; max count deviation {max_count_dev:.2f} bits")


def test_criterion_11_grain_calibration_sweep():
    with criterion(11, "filter-width calibration against both register tables", 60.0):
        cal6 = grain_calibration("table6")
        cal7 = grain_calibration("table7")
    for cal, targets in ((cal6, TABLE6_TARGETS), (cal7, TABLE7_TARGETS)):
        assert cal.best_m in (1, 2, 3, 4)
        assert [r.m for r in cal.rows] == [1, 2, 3, 4]
        for row in cal.rows:
            assert len(row.deltas) == 3
        assert cal.targets == targets
    # The sweep must reproduce the checked-in archive; a calibration change
    # fails here instead of rewriting it.
    archive = ARTIFACT_DIR / "grain_calibration.json"
    text = json.dumps(
        {"table6": cal6.to_dict(), "table7": cal7.to_dict()},
        indent=2,
        sort_keys=True,
    )
    assert text == archive.read_text()
    print(f"  best m: table6={cal6.best_m}, table7={cal7.best_m}; matches {archive.name}")

import math
import random

import pytest

from fsglab import (
    NoOverdefinedSystemError,
    RankStop,
    RepetitionProfile,
    TapSet,
    constant_profile,
    cyclic_schedule,
    fsga_cost,
    gfsga_constant_cost,
    gfsga_variable_cost,
    greedy_schedule,
    internal_state_recovery_cost,
    optimal_constant_sigma,
    repetition_profile,
    restricted_annihilator_cost,
)
from fsglab.complexity import _constant_sweep, _sigma_exponent
from fsglab.fixtures import (
    EXAMPLE1_TAPS,
    EXAMPLE3_Q,
    EXAMPLE3_TAPS,
    EXAMPLE4_Q,
    example4_fixture_profile,
)
from fsglab.sampling import _label_mask

EX1 = TapSet(EXAMPLE1_TAPS, 80)


def random_taps(rng, max_l=48, max_n=8):
    L = rng.randint(8, max_l)
    n = rng.randint(2, min(max_n, L - 1))
    return TapSet(tuple(sorted(rng.sample(range(1, L + 1), n))), L)


def test_fsga_reference_values():
    est = fsga_cost(7, 2, 80)
    assert est.log2_total == pytest.approx(5 * 12 + 3 * math.log2(80), abs=1e-9)
    assert round(est.log2_total, 2) == 78.97
    tiny = fsga_cost(5, 4, 5)
    assert tiny.log2_total == pytest.approx(1 + 3 * math.log2(5), abs=1e-9)
    single = fsga_cost(6, 1, 87)
    assert single.log2_total == pytest.approx(75 + 3 * math.log2(87), abs=1e-9)


def test_fsga_rejects_m_not_below_n():
    with pytest.raises(ValueError):
        fsga_cost(4, 4, 16)


def test_constant_cost_reference_rows():
    # best distance over the poorly spread 9-tap layout
    taps = TapSet.from_differences((12, 3, 6, 12, 6, 4, 24, 12), 80)
    sigma, est = optimal_constant_sigma(taps, 9, 2, 80)
    assert round(est.log2_total, 2) == 43.97
    prof = constant_profile(EX1, 13, stop=RankStop())
    assert round(gfsga_constant_cost(prof, 7, 2, 80).log2_total, 2) == 69.97


def test_full_clamping_collapses_to_solver_term():
    prof = constant_profile(TapSet((1, 2, 3, 4), 12), 1, stop=RankStop())
    est = gfsga_constant_cost(prof, 4, 3, 12)
    # every later sample repeats at least n-m bits, so only the first counts
    assert est.log2_total == pytest.approx(1 + 3 * math.log2(12), abs=1e-9)
    assert all(e == 0 for e in est.per_sample_exponents[2:])


def test_clamping_never_negative():
    rng = random.Random(31)
    for _ in range(40):
        taps = random_taps(rng)
        n = taps.n
        m = rng.randint(1, n - 1)
        _, prof = greedy_schedule(taps, RankStop())
        est = gfsga_variable_cost(prof, n, m, taps.register_length)
        assert all(e >= 0 for e in est.per_sample_exponents)
        assert all(
            e == max(0, n - m - q) for e, q in zip(est.per_sample_exponents, prof.q)
        )


def test_variable_cost_reference_values():
    _, gprof = greedy_schedule(EX1, RankStop())
    assert round(gfsga_variable_cost(gprof, 7, 2, 80).log2_total, 2) == 63.97
    _, cprof = cyclic_schedule(EX1, RankStop())
    assert round(gfsga_variable_cost(cprof, 7, 2, 80).log2_total, 2) == 59.97


def test_zero_repeat_profile_reduces_to_fsga_shape():
    taps = TapSet((2, 5, 9), 16)
    prof = constant_profile(taps, 16, stop=RankStop())
    est = gfsga_constant_cost(prof, 3, 1, 16)
    assert est.log2_total == pytest.approx(
        2 * prof.samples + 3 * math.log2(16), abs=1e-9
    )


def test_constant_variable_consistency():
    rng = random.Random(37)
    for _ in range(40):
        taps = random_taps(rng)
        sigma = rng.randint(1, taps.register_length)
        n = taps.n
        m = rng.randint(1, n - 1)
        const = constant_profile(taps, sigma, stop=RankStop())
        custom = repetition_profile(taps, (sigma,) * (const.samples - 1))
        a = gfsga_constant_cost(const, n, m, taps.register_length)
        b = gfsga_variable_cost(custom, n, m, taps.register_length)
        assert abs(a.log2_total - b.log2_total) < 1e-9


def test_count_exactness_as_integers():
    prof = constant_profile(EX1, 13, stop=RankStop())
    est = gfsga_constant_cost(prof, 7, 2, 80)
    exponents = (est.first_sample_exponent, *est.per_sample_exponents)
    assert all(e == int(e) for e in exponents)
    count = 1 << int(sum(exponents))
    expected = 1 << (5 + sum(max(0, 5 - q) for q in prof.q))
    assert count == expected
    assert est.candidate_log2 == pytest.approx(math.log2(count), abs=1e-9)


def test_not_overdefined_rejected():
    prof = repetition_profile(EX1, (5, 2))
    with pytest.raises(ValueError):
        gfsga_variable_cost(prof, 7, 2, 80)


def test_optimal_sigma_reference_and_minimality():
    sigma, best = optimal_constant_sigma(EX1, 7, 2, 80)
    assert round(best.log2_total, 2) == 69.97
    for check in (13, 37):
        prof = constant_profile(EX1, check, stop=RankStop())
        assert gfsga_constant_cost(prof, 7, 2, 80).log2_total == pytest.approx(
            best.log2_total, abs=1e-9
        )
    rng = random.Random(41)
    for _ in range(10):
        taps = random_taps(rng, max_l=36, max_n=6)
        n = taps.n
        m = rng.randint(1, n - 1)
        L = taps.register_length
        _, opt = optimal_constant_sigma(taps, n, m, L)
        for sig in range(1, L + 1):
            prof = constant_profile(taps, sig, stop=RankStop())
            assert opt.log2_total <= gfsga_constant_cost(prof, n, m, L).log2_total + 1e-9


def _reference_sweep(taps, n, m, L):
    """Every sigma through constant_profile + gfsga_constant_cost, min by (cost, sigma)."""
    rows = []
    for sigma in range(1, L + 1):
        prof = constant_profile(taps, sigma, stop=RankStop())
        est = gfsga_constant_cost(prof, n, m, L)
        rows.append((est.log2_total, sigma, est))
    if not rows:
        raise NoOverdefinedSystemError("no sigma in 1..L yields an overdefined system")
    best = min(rows)
    ties = sum(row[0] == best[0] for row in rows) - 1
    return (best[1], best[2]), ties


def test_optimal_sigma_equals_full_sweep():
    rng = random.Random(0x51A)
    shapes = [(n, m) for n in range(2, 19) for m in range(1, n)]
    tie_cases = 0
    for i in range(1000):
        n, m = shapes[i % len(shapes)]
        L = rng.randint(max(8, n), 170)
        if i % 5 == 0:  # evenly spaced taps: every multiple of the spacing ties
            gap = rng.randint(1, (L - 1) // (n - 1))
            positions = tuple(1 + j * gap for j in range(n))
        else:
            positions = tuple(sorted(rng.sample(range(1, L + 1), n)))
        taps = TapSet(positions, L)
        expected, ties = _reference_sweep(taps, n, m, L)
        tie_cases += ties > 0
        assert optimal_constant_sigma(taps, n, m, L) == expected, (positions, L, m)
    assert tie_cases > 200
    # A rank-stopped profile is overdefined within L-n+2 samples at any
    # sigma, so every sigma raises only when the sweep range is empty.
    taps = TapSet((1, 2, 3), 12)
    with pytest.raises(NoOverdefinedSystemError):
        _reference_sweep(taps, 3, 1, 0)
    with pytest.raises(NoOverdefinedSystemError):
        optimal_constant_sigma(taps, 3, 1, 0)


def _per_sample_q(taps, n, sigma):
    """q_1, q_2, ... of one sigma, counted sample by sample on the label
    timeline under the rank stop, with no horizon or tail formula."""
    seen = set(taps.positions)
    c, total, q = 1, 0, []
    while n * c - total <= taps.register_length:
        sample = {p + c * sigma for p in taps.positions}
        q.append(len(sample & seen))
        seen |= sample
        total += q[-1]
        c += 1
    return q


def _per_sample_exponent(taps, n, m, sigma):
    """E of one sigma priced sample by sample, with no early abandonment."""
    return n - m + sum(max(0, n - m - qi) for qi in _per_sample_q(taps, n, sigma))


def _per_sample_sweep(taps, n, m, L, cut=None):
    """Every sigma in 1..L priced by :func:`_per_sample_exponent`."""
    best = None
    for sigma in range(1, L + 1):
        e = _per_sample_exponent(taps, n, m, sigma)
        if best is None or e < best[1]:
            best = (sigma, e)
            if cut is not None and cut(sigma, e):
                return None
    if best is None:
        raise NoOverdefinedSystemError("empty sweep")
    return best


def _random_sweep_instance(rng, i, seen_cases=None):
    """A tap set on a register of up to 90 cells, every 7th with one tap and
    every 4th evenly spaced, so that every multiple of the spacing ties."""
    R = rng.randint(1, 90)
    n = 1 if i % 7 == 0 else rng.randint(1, min(R, 12))
    if i % 4 == 0:
        gap = rng.randint(1, max(1, (R - 1) // max(1, n - 1)))
        positions = tuple(1 + j * gap for j in range(n))
        R = max(R, positions[-1])
        if seen_cases is not None:
            seen_cases["even"] += n > 2
    else:
        positions = tuple(sorted(rng.sample(range(1, R + 1), n)))
    return TapSet(positions, R), n, rng.randint(1, n)


def test_sigma_exponent_equals_per_sample_recurrence():
    # Uncapped, the kernel is the per-sample recurrence at every sigma,
    # those above the span included; capped, it is exact below the limit
    # and at least the limit otherwise. The cases where q reaches n - m
    # inside the horizon, before the rank stop, are the kernel's early
    # return, and must be exact too.
    rng = random.Random(0x5E1)
    exact = capped = short = saturated = 0
    for i in range(200):
        taps, n, m = _random_sweep_instance(rng, i)
        R = taps.register_length
        mask = _label_mask(taps.positions)
        for sigma in range(1, R + 2):
            want = _per_sample_exponent(taps, n, m, sigma)
            in_horizon = _per_sample_q(taps, n, sigma)[:taps.span // sigma]
            saturated += any(q >= n - m for q in in_horizon)
            assert _sigma_exponent(mask, taps.span, R, n, m, sigma) == want
            assert _sigma_exponent(mask, taps.span, R, n, m, sigma, math.inf) == want
            limit = rng.randint(max(0, want - 6), want + 2)
            got = _sigma_exponent(mask, taps.span, R, n, m, sigma, limit)
            if want < limit:
                assert got == want, (taps.positions, R, n, m, sigma, limit)
                exact += 1
            else:
                assert got >= limit, (taps.positions, R, n, m, sigma, limit)
                capped += 1
                short += got < want  # stopped inside the horizon
    assert exact > 1000 and capped > 1000 and short > 200 and saturated > 1000, (
        exact, capped, short, saturated)


def test_constant_sweep_equals_per_sample_recurrence():
    rng = random.Random(0x5EE)
    seen_cases = dict.fromkeys(
        ("sigma > span", "L <= span", "n = 1", "even", "cut", "uncut"), 0)
    for i in range(400):
        taps, n, m = _random_sweep_instance(rng, i, seen_cases)
        R, positions = taps.register_length, taps.positions
        mask = _label_mask(positions)
        L = rng.randint(1, R)
        threshold = rng.randint(0, 2 * R) if i % 2 else -1  # -1: never cut
        logs = ([], [])

        def recording(log):
            return lambda sigma, e: log.append((sigma, e)) or e <= threshold

        for cut in (None, recording):
            got = _constant_sweep(mask, taps.span, R, n, m, L, cut and recording(logs[0]))
            want = _per_sample_sweep(taps, n, m, L, cut and recording(logs[1]))
            assert got == want, (positions, R, n, m, L)
        assert logs[0] == logs[1], (positions, R, n, m, L)
        seen_cases["sigma > span"] += L > taps.span + 1
        seen_cases["L <= span"] += L <= taps.span
        seen_cases["n = 1"] += n == 1
        seen_cases["cut"] += logs[0][-1][1] <= threshold
        seen_cases["uncut"] += len(logs[0]) > 1 and threshold < 0
    assert min(seen_cases.values()) >= 20, seen_cases


def _overlap(mask, sigma):
    return (mask & (mask << sigma)).bit_count()


def _class_heavy_instance(rng, i):
    """Taps whose sigmas above half the span share few overlap counts: a
    cluster and its copy shifted past the cluster's width, which puts that
    shift once per cluster tap among the pairwise differences (odd i), or
    evenly spaced taps (even i), on a register that reaches past span + 1
    on most draws. Returns the taps, n, m and a sweep length L that is at
    most half the span (i % 3 == 0), at most span + 1 (i % 3 == 1) or
    above span + 1 (i % 3 == 2) whenever the register allows it."""
    if i % 2:
        width = rng.randint(1, 6)
        cluster = {rng.randint(1, 1 + width) for _ in range(rng.randint(2, 5))}
        shift = rng.randint(width + 1, 2 * width + 8)
        spare = {rng.randint(1, width + shift) for _ in range(rng.randint(0, 1))}
        positions = sorted(cluster | {p + shift for p in cluster} | spare)
    else:
        first, gap = rng.randint(1, 5), rng.randint(1, 8)
        positions = [first + j * gap for j in range(rng.randint(2, 9))]
    span = positions[-1] - positions[0]
    R = positions[-1] + rng.randint(0, span + 4)
    n = len(positions)
    half = span // 2
    if i % 3 == 0 and half >= 1:
        L = rng.randint(1, half)
    elif i % 3 == 2 and R > span + 1:
        L = rng.randint(span + 2, R)
    else:
        L = rng.randint(half + 1, min(R, span + 1))
    return TapSet(tuple(positions), R), n, rng.randint(1, n), L


def test_constant_sweep_exact_on_shared_overlap_classes():
    # A sigma above half the span is priced once per overlap count; on taps
    # where many such sigmas share a count, the sweep must still return the
    # per-sample sweep's (sigma, E) and ask the cut the same questions.
    rng = random.Random(0xC1A5)
    seen_cases = dict.fromkeys(("L <= span/2", "L > span + 1", "skipped", "cut"), 0)
    for i in range(300):
        taps, n, m, L = _class_heavy_instance(rng, i)
        R, span = taps.register_length, taps.span
        mask = _label_mask(taps.positions)
        threshold = rng.randint(0, 2 * R) if i % 4 >= 2 else -1  # -1: never cut
        logs = ([], [])

        def recording(log):
            return lambda sigma, e: log.append((sigma, e)) or e <= threshold

        for cut in (None, recording):
            got = _constant_sweep(mask, span, R, n, m, L, cut and recording(logs[0]))
            want = _per_sample_sweep(taps, n, m, L, cut and recording(logs[1]))
            assert got == want, (taps.positions, R, n, m, L)
        assert logs[0] == logs[1], (taps.positions, R, n, m, L)
        upper = range(span // 2 + 1, min(L, span + 1) + 1)
        seen_cases["skipped"] += len(upper) - len({_overlap(mask, s) for s in upper})
        seen_cases["L <= span/2"] += L <= span // 2
        seen_cases["L > span + 1"] += L > span + 1
        seen_cases["cut"] += logs[0][-1][1] <= threshold
    assert min(seen_cases.values()) >= 40, seen_cases


def test_constant_sweep_prices_each_upper_overlap_class_once(monkeypatch):
    # Guard on the skip: of the sigmas above half the span, at most one per
    # overlap count reaches the kernel.
    import fsglab.complexity as complexity

    priced = []

    def counted(*args):
        priced.append(args[5])
        return _sigma_exponent(*args)

    monkeypatch.setattr(complexity, "_sigma_exponent", counted)
    rng = random.Random(0xC0DE)
    repeats = 0
    for i in range(200):
        taps, n, m, L = _class_heavy_instance(rng, i)
        mask = _label_mask(taps.positions)
        priced.clear()
        complexity._constant_sweep(mask, taps.span, taps.register_length, n, m, L)
        upper = [_overlap(mask, s) for s in priced if s > taps.span // 2]
        assert len(upper) == len(set(upper)), (taps.positions, L, priced)
        top = range(taps.span // 2 + 1, min(L, taps.span + 1) + 1)
        repeats += len(top) - len(upper)
    assert repeats >= 500, repeats


def test_optimal_sigma_builds_one_profile(monkeypatch):
    import fsglab.complexity as complexity

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return constant_profile(*args, **kwargs)

    monkeypatch.setattr(complexity, "constant_profile", counted)
    rng = random.Random(43)
    for _ in range(20):
        taps = random_taps(rng, max_l=120, max_n=12)
        calls.clear()
        sigma, _ = optimal_constant_sigma(taps, taps.n, 1, taps.register_length)
        assert calls == [sigma]


def test_optimal_sigma_rejects_mismatched_arguments():
    with pytest.raises(ValueError):
        optimal_constant_sigma(EX1, 6, 2, 80)
    with pytest.raises(ValueError):
        optimal_constant_sigma(EX1, 7, 2, 81)


def test_optimal_sigma_single_tap():
    # Degenerate bijective filter: every distance is equivalent.
    sigma, est = optimal_constant_sigma(TapSet((3,), 12), 1, 1, 12)
    assert sigma == 1


def test_window_cost_reference_values():
    taps = TapSet(EXAMPLE3_TAPS, 128)
    prof = repetition_profile(taps, [1] * 21)
    assert prof.q == EXAMPLE3_Q
    cost = internal_state_recovery_cost(prof, 8, 1, 128)
    assert cost.recovered_bits == 8 + sum(8 - q for q in prof.q) == 122
    assert cost.estimate.log2_total == 106
    assert cost.memory_bits == 22 * 8 * 128 + 128
    assert cost.memory_bits < 1 << 15
    assert cost.data_bits == 150

    fixture = example4_fixture_profile()
    cost4 = internal_state_recovery_cost(fixture, 17, 1, 256)
    assert cost4.recovered_bits == 17 + sum(17 - q for q in EXAMPLE4_Q) == 244
    assert cost4.estimate.log2_total == 16 + 196 + 12 == 224
    # false-accept bound: candidate count times 2^-L stays below one
    assert cost.estimate.log2_total - 128 < 0
    assert cost4.estimate.log2_total - 256 < 0


def test_window_cost_full_coverage_drops_tail():
    # R_p = 4 + 3 * (4 - 1) = 13 over a 4-sample window of 4 taps.
    def window(L):
        return RepetitionProfile(q=(1, 1, 1), samples=4, total=3, n=4,
                                 register_length=L, mode="custom", steps=(1, 1, 1))

    cost = internal_state_recovery_cost(window(13), 4, 1, 13)
    assert cost.recovered_bits == 13
    assert cost.estimate.solver_log2 == 0
    assert cost.estimate.log2_total == 3 + 3 * 2
    with pytest.raises(ValueError, match="more bits than the register holds"):
        internal_state_recovery_cost(window(12), 4, 1, 12)


def test_annihilator_arithmetic():
    est = restricted_annihilator_cost((5, 2.5), (1, 42), 87, 2.807)
    direct = math.log2(5) + 42 * math.log2(2.5) + 2.807 * math.log2(87)
    assert est.log2_total == pytest.approx(direct, abs=1e-9)
    assert abs(est.log2_total - 76.32) < 0.5  # reference rounds intermediates
    assert est.samples_used == 43
    single = restricted_annihilator_cost((2.0**5,), (1,), 80, 3.0)
    assert single.log2_total == pytest.approx(5 + 3 * math.log2(80), abs=1e-9)

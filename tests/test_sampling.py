import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsglab import (
    NoOverdefinedSystemError,
    RankStop,
    RepetitionProfile,
    SampleStop,
    SamplingSchedule,
    TapSet,
    consecutive_differences,
    constant_profile,
    cyclic_schedule,
    difference_scheme,
    greedy_schedule,
    hybrid_window_profile,
    is_fpds,
    lambda_order,
    repeated_count_constant,
    repeated_count_variable,
    repetition_profile,
    scheme_q_sequence,
)
from fsglab.sampling import _greedy_chooser
from fsglab.fixtures import (
    EXAMPLE1_GREEDY_ROWS,
    EXAMPLE1_TAPS,
    EXAMPLE2_CYCLIC_ROWS,
)

WORKED_TAPS = TapSet((3, 5, 10, 14, 16), 20)
EX1 = TapSet(EXAMPLE1_TAPS, 80)


def random_taps(rng, max_l=64, max_n=8):
    L = rng.randint(6, max_l)
    n = rng.randint(2, min(max_n, L))
    return TapSet(tuple(sorted(rng.sample(range(1, L + 1), n))), L)


# ---------------------------------------------------------------- differences

def test_consecutive_differences_examples():
    assert consecutive_differences(EX1) == (5, 13, 7, 26, 11, 17)
    assert consecutive_differences(WORKED_TAPS) == (2, 5, 4, 2)
    assert consecutive_differences(TapSet((7,), 10)) == ()


def test_difference_scheme_reference_table():
    scheme = difference_scheme(WORKED_TAPS)
    assert scheme.table == ((2, 5, 4, 2), (7, 9, 6), (11, 11), (13,))


def test_difference_scheme_two_taps():
    assert difference_scheme(TapSet((2, 9), 12)).table == ((7,),)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_scheme_entries_are_partial_sums(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    taps = random_taps(rng)
    d = consecutive_differences(taps)
    scheme = difference_scheme(taps)
    for k, row in enumerate(scheme.table, start=1):
        assert len(row) == taps.n - k
        for j, entry in enumerate(row):
            assert entry == sum(d[j:j + k])


# ------------------------------------------------------------------- profiles

def test_worked_example_steps_5_2():
    prof = repetition_profile(WORKED_TAPS, (5, 2))
    assert prof.q == (1, 2)
    assert prof.repeated_sets[0] == frozenset({10})
    assert prof.repeated_sets[1] == frozenset({10, 21})


def test_single_long_step_has_no_repeats():
    prof = repetition_profile(WORKED_TAPS, (WORKED_TAPS.span + 1,))
    assert prof.q == (0,)


def test_constant_sigma_one_reference_r_list():
    prof = constant_profile(EX1, 1, stop=SampleStop(16))
    assert prof.q == (0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 3, 3, 4, 4, 4)
    assert prof.k == 79


def test_constant_sigma_full_length():
    prof = constant_profile(TapSet((2, 5, 9), 16), 16, stop=RankStop())
    assert all(q == 0 for q in prof.q)
    assert prof.samples == -(-17 // 3)  # ceil((L+1)/n)


def test_constant_equals_direct_custom_schedule():
    for sigma in (1, 2, 5, 13, 37):
        fast = constant_profile(EX1, sigma, stop=RankStop())
        direct = repetition_profile(
            EX1, SamplingSchedule((sigma,) * (fast.samples - 1), "constant"),
        )
        assert fast.q == direct.q
        assert fast.total == direct.total
        assert fast.samples == direct.samples


def test_constant_profile_matches_intersection_recursion():
    # r_i = |I_1 u .. u I_i| with I_i = I_0 ^ (I_0 + i*sigma), steady at r_k
    # past k = floor(span/sigma): the recursion the sigma sweep prices with.
    rng = random.Random(19)
    for _ in range(200):
        taps = random_taps(rng, max_l=120, max_n=12)
        sigma = rng.randint(1, taps.register_length)
        c = rng.randint(1, 40)
        base = set(taps.positions)
        r, acc = [], set()
        for i in range(1, c):
            if i <= taps.span // sigma:
                acc |= base & {p + i * sigma for p in base}
            r.append(len(acc))
        prof = constant_profile(taps, sigma, stop=SampleStop(c))
        assert prof.q == tuple(r)
        assert prof.k == taps.span // sigma


def test_rank_stop_ends_within_l_minus_n_plus_2_samples():
    rng = random.Random(23)
    for _ in range(150):
        taps = random_taps(rng, max_l=100, max_n=12)
        L, n = taps.register_length, taps.n
        sigma = rng.randint(1, L)
        custom = [rng.randint(1, L) for _ in range(L)]
        profiles = [
            greedy_schedule(taps, RankStop(), overshoot=0)[1],
            cyclic_schedule(taps, RankStop())[1],
            constant_profile(taps, sigma, stop=RankStop()),
            repetition_profile(taps, custom, stop=RankStop()),
        ]
        for prof in profiles:
            assert prof.is_overdefined()
            assert prof.samples <= L - n + 2


def test_profile_builders_need_a_stop():
    for build in (
        lambda: greedy_schedule(EX1, None),
        lambda: cyclic_schedule(EX1, None),
        lambda: constant_profile(EX1, 5, stop=None),
    ):
        with pytest.raises(ValueError):
            build()


def test_constant_monotone_and_steady_beyond_k():
    rng = random.Random(12)
    for _ in range(50):
        taps = random_taps(rng)
        sigma = rng.randint(1, taps.register_length)
        prof = constant_profile(taps, sigma, stop=SampleStop(taps.span + 10))
        q = prof.q
        assert all(a <= b for a, b in zip(q, q[1:]))
        k = prof.k
        steady = q[k - 1] if k >= 1 else 0
        for j in range(k, len(q)):
            assert q[j] == steady


def test_repeated_count_constant_worked():
    assert repeated_count_constant((2, 5, 4, 2), 7, 3) == 2


def test_repeated_count_constant_sigma_beyond_span():
    assert repeated_count_constant((2, 5, 4, 2), 14, 9) == 0


def test_repeated_count_variable_worked():
    assert repeated_count_variable((2, 5, 4, 2), (5, 2)) == 3
    assert scheme_q_sequence((2, 5, 4, 2), (5, 2)) == [1, 2]


def test_repeated_count_variable_empty_schedule():
    assert repeated_count_variable((2, 5, 4, 2), ()) == 0


def test_constant_oracle_equivalence_sample():
    rng = random.Random(77)
    for _ in range(100):
        taps = random_taps(rng)
        sigma = rng.randint(1, taps.register_length)
        c = rng.randint(1, 30)
        prof = constant_profile(taps, sigma, stop=SampleStop(c))
        direct = repetition_profile(taps, (sigma,) * (c - 1))
        formula = repeated_count_constant(consecutive_differences(taps), sigma, c)
        assert prof.total == direct.total == formula


def test_variable_oracle_equivalence_sample():
    rng = random.Random(78)
    for _ in range(100):
        taps = random_taps(rng)
        steps = tuple(
            rng.randint(1, taps.register_length) for _ in range(rng.randint(1, 25))
        )
        direct = repetition_profile(taps, steps)
        q_scheme = scheme_q_sequence(consecutive_differences(taps), steps)
        assert list(direct.q) == q_scheme
        assert direct.total == repeated_count_variable(
            consecutive_differences(taps), steps
        )


# ------------------------------------------------------------------ schedules

def test_greedy_reproduces_reference_run():
    schedule, prof = greedy_schedule(EX1, RankStop())
    assert prof.samples == 22
    assert prof.total == 67
    assert schedule.steps[:6] == (5, 13, 7, 26, 11, 17)
    for row, (labels, q, sigma) in zip(
        zip(prof.repeated_sets, prof.q, prof.steps), EXAMPLE1_GREEDY_ROWS
    ):
        assert row == (frozenset(labels), q, sigma)


def test_greedy_minimal_stop_is_one_sample_short():
    _, prof = greedy_schedule(EX1, RankStop(), overshoot=0)
    assert prof.samples == 21
    assert prof.total == 63
    _, longer = greedy_schedule(EX1, RankStop(), overshoot=3)
    assert longer.samples == 24
    assert longer.steps[:20] == prof.steps


def _assert_greedy_steps_maximal(taps, prof):
    """Each step is the smallest shift with the most labels already seen,
    counted shift by shift on the label timeline."""
    taps_mask = sum(1 << p for p in taps.positions)
    seen = taps_mask
    shift = 0
    for sigma, q in zip(prof.steps, prof.q):
        counts = [
            (seen & taps_mask << (shift + cand)).bit_count()
            for cand in range(1, taps.register_length + 1)
        ]
        assert q == max(counts)
        assert sigma == counts.index(q) + 1
        shift += sigma
        seen |= taps_mask << shift


def test_greedy_each_step_is_maximal():
    rng = random.Random(5)
    for _ in range(10):
        taps = random_taps(rng, max_l=40, max_n=6)
        _, prof = greedy_schedule(taps, SampleStop(8))
        _assert_greedy_steps_maximal(taps, prof)
    for _ in range(12):
        taps = random_taps(rng, max_l=300, max_n=40)
        n, L = taps.n, taps.register_length
        for overshoot in (0, 1, 3):
            _, prof = greedy_schedule(taps, RankStop(), overshoot=overshoot)
            _assert_greedy_steps_maximal(taps, prof)
            distinct = [n * (c + 1) - sum(prof.q[:c]) for c in range(prof.samples)]
            first = next(c for c, d in enumerate(distinct) if d > L)
            assert prof.samples == first + 1 + overshoot


def test_greedy_counts_past_a_byte():
    # 300 contiguous taps overlap in 299 labels at shift 1, more than a byte
    # lane holds; the random set has 260 taps.
    rng = random.Random(6)
    wide = [
        TapSet(tuple(range(1, 301)), 400),
        TapSet(tuple(sorted(rng.sample(range(1, 521), 260))), 520),
    ]
    for taps in wide:
        _, prof = greedy_schedule(taps, RankStop(), overshoot=1)
        _assert_greedy_steps_maximal(taps, prof)
    _, prof = greedy_schedule(wide[0], SampleStop(4))
    assert prof.q == (299, 299, 299)


def test_greedy_steps_maximal_at_the_lane_boundary():
    # Up to 15 taps a lane is one hex digit, lane top included, which counts
    # |seen ^ taps| <= n; 16 taps are the first on byte lanes. Contiguous taps
    # fill lane top and reach n - 1 at shift 1.
    rng = random.Random(14)
    for n in (1, 15, 16):
        cases = [TapSet(tuple(range(1, n + 1)), n + 30)]
        for _ in range(6):
            L = rng.randint(n, 120)
            cases.append(TapSet(tuple(sorted(rng.sample(range(1, L + 1), n))), L))
        for taps in cases:
            for overshoot in (0, 1):
                _, prof = greedy_schedule(taps, RankStop(), overshoot=overshoot)
                _assert_greedy_steps_maximal(taps, prof)


def test_greedy_at_the_longest_register_under_the_int_string_limit():
    # Binary and hex conversions are exempt from the interpreter's limit on
    # int-string digits, so a tight limit does not stop a 2048-bit register.
    limit = getattr(sys, "get_int_max_str_digits", None)
    old = limit() if limit else None
    if limit:
        sys.set_int_max_str_digits(640)
    try:
        rng = random.Random(15)
        for n in (12, 24):
            taps = TapSet((1, *sorted(rng.sample(range(2, 2048), n - 2)), 2048), 2048)
            _, prof = greedy_schedule(taps, SampleStop(100))
            _assert_greedy_steps_maximal(taps, prof)
    finally:
        if limit:
            sys.set_int_max_str_digits(old)


def test_greedy_chooser_equals_a_direct_overlap_count():
    # One step on a random seen, on both lane widths, against the overlap of
    # seen with the taps at each shift up to the highest label seen holds.
    rng = random.Random(16)
    for _ in range(2000):
        L = rng.randint(1, 2048 if rng.random() < 0.2 else 256)
        n = rng.randint(1, min(40, L))
        taps = TapSet(tuple(sorted(rng.sample(range(1, L + 1), n))), L)
        top = taps.positions[-1]
        taps_mask = sum(1 << p - 1 for p in taps.positions)
        seen = taps_mask | rng.getrandbits(top) & rng.getrandbits(top)
        counts = [(seen & taps_mask << s).bit_count() for s in range(1, top)] or [0]
        assert _greedy_chooser(taps)(seen) == counts.index(max(counts)) + 1, taps


def test_greedy_single_tap_ties_to_sigma_one():
    taps = TapSet((4,), 6)
    schedule, prof = greedy_schedule(taps, RankStop(), overshoot=0)
    assert set(schedule.steps) == {1}
    assert all(q == 0 for q in prof.q)


def test_cyclic_reproduces_reference_run():
    schedule, prof = cyclic_schedule(EX1, RankStop())
    assert prof.samples == 22
    assert prof.total == 72
    for row, (labels, q, sigma) in zip(
        zip(prof.repeated_sets, prof.q, prof.steps), EXAMPLE2_CYCLIC_ROWS
    ):
        assert row == (frozenset(labels), q, sigma)


def test_cyclic_two_taps_degenerates_to_constant():
    taps = TapSet((3, 10), 24)
    _, prof = cyclic_schedule(taps, RankStop())
    const = constant_profile(taps, 7, stop=RankStop())
    assert prof.q == const.q
    assert prof.samples == const.samples


def test_cyclic_lower_bound_property():
    rng = random.Random(9)
    for _ in range(30):
        taps = random_taps(rng)
        n = taps.n
        _, prof = cyclic_schedule(taps, RankStop())
        for idx, q in enumerate(prof.q):
            i = idx % (n - 1) + 1
            assert q >= i


def test_cyclic_single_tap_rejected():
    with pytest.raises(ValueError):
        cyclic_schedule(TapSet((3,), 8), RankStop())


def test_pricing_profiles_equal_the_public_builders():
    # A builder's pricing-only profile (materialize_sets=False) is its full
    # RankStop profile in every field but repeated_sets, which it leaves as
    # None.
    rng = random.Random(12)
    cases = [TapSet((1, 2), 4), TapSet((5, 60), 64), TapSet((1, 200), 200),
             TapSet((1, 2, 150), 150)]
    while len(cases) < 220:
        L = rng.randint(4, 200)
        n = rng.randint(2, min(12, L))
        if len(cases) % 3 == 0:  # long span: the end taps at 1 and L
            positions = {1, L, *rng.sample(range(2, L), n - 2)}
        else:
            positions = rng.sample(range(1, L + 1), n)
        cases.append(TapSet(tuple(sorted(positions)), L))
    assert sum(t.n == 2 for t in cases) >= 10
    assert sum(t.span == t.register_length - 1 for t in cases) >= 70
    for taps in cases:
        for build in (greedy_schedule, cyclic_schedule):
            _, full = build(taps, RankStop())
            _, priced = build(taps, materialize_sets=False)
            assert priced.repeated_sets is None
            assert priced == RepetitionProfile(
                full.q, full.samples, full.total, full.n, full.register_length,
                full.mode, full.steps, full.sigma, full.k, repeated_sets=None)


def test_custom_schedule_exhaustion_raises():
    with pytest.raises(NoOverdefinedSystemError):
        repetition_profile(WORKED_TAPS, (1, 1), stop=RankStop())


def test_degeneration_property():
    rng = random.Random(13)
    for _ in range(40):
        taps = random_taps(rng)
        sigma = rng.randint(1, taps.register_length)
        const = constant_profile(taps, sigma, stop=RankStop())
        custom = repetition_profile(
            taps, (sigma,) * (const.samples - 1), stop=RankStop()
        )
        assert custom.q == const.q
        assert custom.total == const.total
        assert custom.samples == const.samples


def test_q_bounds():
    rng = random.Random(17)
    for _ in range(30):
        taps = random_taps(rng)
        steps = tuple(
            rng.randint(1, taps.register_length) for _ in range(rng.randint(1, 20))
        )
        prof = repetition_profile(taps, steps)
        assert all(0 <= q <= taps.n for q in prof.q)


# ------------------------------------------------------------------- lam/fpds

def test_lambda_examples():
    assert lambda_order(TapSet((1, 7, 21, 26, 52, 67, 89, 105), 128)) == 1
    taps = TapSet.from_differences((5, 7, 3, 13, 6, 11, 5, 11, 7, 13, 21, 17), 120)
    assert lambda_order(taps) == 3
    assert lambda_order(TapSet((1, 2), 4)) == 1
    assert lambda_order(TapSet((5,), 9)) == 0


def test_fpds_examples():
    assert is_fpds(TapSet((1, 3, 8, 14, 22, 23, 26), 80))
    assert is_fpds(TapSet((3, 6, 12, 24), 30))
    assert not is_fpds(TapSet((1, 2, 3), 10))


def test_lambda_matches_shift_definition_and_fpds():
    rng = random.Random(23)
    for _ in range(60):
        taps = random_taps(rng)
        direct = max(
            len(set(taps.positions) & {p + s for p in taps.positions})
            for s in range(1, taps.span + 1)
        )
        assert lambda_order(taps) == direct
        assert is_fpds(taps) == (lambda_order(taps) == 1)


# --------------------------------------------------------------------- hybrid

def test_hybrid_per_register_counts_sum():
    fam = [("a", TapSet((2, 5), 10)), ("b", TapSet((3, 4), 10))]
    prof = hybrid_window_profile(fam, [1, 1, 1])
    qa = repetition_profile(TapSet((2, 5), 10), [1, 1, 1]).q
    qb = repetition_profile(TapSet((3, 4), 10), [1, 1, 1]).q
    assert prof.q == tuple(a + b for a, b in zip(qa, qb))
    assert prof.n == 4


def test_hybrid_merged_collapses_duplicate_labels():
    fam = [("a", TapSet((2, 5), 10)), ("b", TapSet((2, 7), 10))]
    prof = hybrid_window_profile(fam, [1, 2], model="merged")
    direct = repetition_profile(TapSet((2, 5, 7), 10), [1, 2])
    assert prof.q == direct.q
    assert prof.n == 4  # arity keeps all taps even when labels collapse

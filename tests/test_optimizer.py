import math
import random
from collections import Counter
from itertools import accumulate, permutations

import pytest

from fsglab import (
    FeasibilityError,
    StagedSearchParams,
    TapSet,
    RankStop,
    calibrate_filter_width,
    constant_profile,
    cyclic_schedule,
    gfsga_variable_cost,
    greedy_schedule,
    is_fpds,
    lambda_order,
    optimal_constant_sigma,
    scorecard,
    staged_search,
    step_a_candidates,
    step_ab_best_ordering,
    step_b_best_ordering,
)
from fsglab.fixtures import GRAIN_LFSR_TAPS, GRAIN_NFSR_TAPS
from fsglab import optimizer, sampling
from fsglab.complexity import _constant_sweep, _optimal_sigma
from fsglab.optimizer import StageTrace, _ceiling, _ordering_key, _scorecards, _stage_m
from fsglab.sampling import NoOverdefinedSystemError, _label_mask


def test_step_a_candidate_invariants():
    cands = step_a_candidates(80, 7, budget=40, seed=1)
    assert cands
    for cand in cands:
        assert len(cand.differences) == 6
        assert sum(cand.differences) <= 79
        assert sum(cand.differences) >= math.ceil(0.9 * 79)
        assert all(d >= 1 for d in cand.differences)


def test_step_a_includes_reference_multiset():
    cands = step_a_candidates(80, 7, budget=200, seed=1)
    assert any(cand.differences == (5, 7, 11, 13, 17, 26) for cand in cands)


def test_step_a_two_taps():
    cands = step_a_candidates(40, 2, budget=5, seed=0)
    assert cands[0].differences == (39,)


def test_step_a_deterministic():
    def diffs(budget, seed):
        return [c.differences for c in step_a_candidates(64, 6, budget=budget, seed=seed)]

    assert diffs(30, 9) == diffs(30, 9)
    # At budget 30 the prime subsets fill the whole budget before any seeded
    # draw; at budget 80 the seeded draws are reached and the seeds differ.
    assert diffs(30, 9) == diffs(30, 10)
    assert diffs(80, 9) == diffs(80, 9)
    assert diffs(80, 9) != diffs(80, 10)


def test_step_a_infeasible():
    with pytest.raises(ValueError):
        step_a_candidates(5, 7, budget=4, seed=0)


def test_step_b_reference_row():
    ordering, card = step_b_best_ordering((5, 13, 7, 26, 11, 17), 7, 2, 80)
    assert sorted(ordering) == [5, 7, 11, 13, 17, 26]
    assert round(card.constant_cost.log2_total, 2) == 69.97


def test_step_b_single_difference():
    ordering, _ = step_b_best_ordering((11,), 2, 1, 16)
    assert ordering == (11,)


def test_step_b_feasibility_gate():
    with pytest.raises(FeasibilityError, match="^more than 10 differences: exhaustive "
                       "ordering search is infeasible, use staged_search$"):
        step_b_best_ordering(tuple(range(1, 12)), 12, 2, 200)


@pytest.mark.parametrize(
    "diffs,n,m,L",
    [((3, 5, 4, 7), 5, 2, 24), ((2, 9, 4, 6, 8, 10), 7, 3, 48)],
)
def test_step_b_beats_every_ordering(diffs, n, m, L):
    _, card = step_b_best_ordering(diffs, n, m, L)
    best = card.constant_cost.log2_total
    for perm in set(permutations(diffs)):
        taps = TapSet.from_differences(perm, L)
        _, est = optimal_constant_sigma(taps, n, m, L)
        assert best >= est.log2_total - 1e-9


def _unbounded_best(orderings, n, m, L):
    """Full sigma sweep of every ordering, min by _ordering_key: (key, ordering, sigma)."""
    rows = []
    for ordering in orderings:
        try:
            sigma, est = optimal_constant_sigma(TapSet.from_differences(ordering, L), n, m, L)
        except NoOverdefinedSystemError:
            continue
        rows.append((_ordering_key(est.log2_total, sigma, ordering), ordering, sigma))
    return min(rows, default=None), len(orderings) - len(rows)


def test_step_b_equals_unbounded_search():
    rng = random.Random(0xB0B)
    cost_ties = sigma_ties = 0
    for i in range(240):
        k = rng.randint(1, 5)
        if i % 3 == 0:  # small, repeated differences: many orderings share a cost
            values = tuple(rng.randint(1, 3) for _ in range(k))
        else:
            values = tuple(rng.randint(1, 14) for _ in range(k))
        n = k + 1
        m = rng.randint(1, n - 1)
        L = sum(values) + 1 + rng.randint(0, 12)
        orderings = sorted(set(permutations(values)))
        (key, want, _), _ = _unbounded_best(orderings, n, m, L)
        ordering, card = step_b_best_ordering(values, n, m, L)
        assert ordering == want, (values, m, L)
        ref = scorecard(TapSet.from_differences(want, L), n, m, L)
        assert card.to_dict() == ref.to_dict()
        top = []  # every ordering at the best cost, with its optimal sigma
        for o in orderings:
            sigma, est = optimal_constant_sigma(TapSet.from_differences(o, L), n, m, L)
            if est.log2_total == -key[0]:
                top.append((sigma, o))
        # A mirrored ordering always ties in full; count ties beyond mirrors.
        cost_ties += len({min(o, o[::-1]) for _, o in top}) > 1
        sigma_ties += len({sigma for sigma, _ in top}) > 1
    assert cost_ties > 100
    assert sigma_ties > 0


def _triples(orderings):
    """The (ordering, tap mask, span) triples that _bounded_search reads."""
    return [(o, _label_mask(accumulate(o, initial=1)), sum(o)) for o in orderings]


def _swept_best(orderings, n, m, L):
    """Every ordering swept in full, uncut, min by _ordering_key."""
    solver = 3.0 * math.log2(L)
    rows = []
    for o in orderings:
        taps = TapSet.from_differences(o, L)
        sigma, e = _constant_sweep(_label_mask(taps.positions), taps.span, L, n, m, L)
        rows.append((_ordering_key(e + solver, sigma, o), o, sigma))
    return min(rows)


def test_bounded_search_equals_unbounded_minimum(monkeypatch):
    # The probes and the cut are exact: the bounded search returns the
    # minimum over the incumbent and every ordering. Incumbents come in
    # four kinds: none; the best of other orderings at the same L; the best
    # at another L, so that the solver terms differ (as in the staged
    # search); and one that ties the best ordering's cost and sigma exactly,
    # where only the ordering decides.
    sweeps = []

    def counted(*args):
        sweeps.append(args)
        return _constant_sweep(*args)

    monkeypatch.setattr(optimizer, "_constant_sweep", counted)
    rng = random.Random(0x9B0BE)
    probed = kinds = 0
    for i in range(1200):
        k = rng.randint(3, 5)
        top = 3 if i % 3 == 0 else 14  # small differences: many cost ties
        values = tuple(rng.randint(1, top) for _ in range(k))
        n = k + 1
        m = rng.randint(1, n - 1)
        L = sum(values) + 1 + rng.randint(0, 12)
        orderings = sorted(set(permutations(values)))
        want = _swept_best(orderings, n, m, L)
        kind = i % 4
        if kind == 0:
            incumbent = None
        elif kind == 1:
            incumbent = _swept_best(rng.sample(orderings, (len(orderings) + 1) // 2), n, m, L)
        elif kind == 2:
            other_l = max(sum(values) + 1, L + rng.randint(-4, 4))
            incumbent = _swept_best(orderings, n, m, other_l)
        else:
            (cost, sigma, _), _, s = want
            tied = () if rng.random() < 0.5 else (L,) * k  # sorts before / after
            incumbent = ((cost, sigma, tied), tied, s)
        rng.shuffle(orderings)
        sweeps.clear()
        got = optimizer._bounded_search(_triples(orderings), n, m, L, incumbent)
        assert got == min(r for r in (want, incumbent) if r is not None), (values, m, L, kind)
        probed += len(orderings) - len(sweeps)
        kinds += kind == 3 and got[1] == ()
    assert probed > 10_000, probed
    assert kinds > 100, kinds


def test_bounded_search_prices_one_ceiling_per_incumbent(monkeypatch):
    # The probe ceiling depends only on the incumbent's cost and the solver
    # term, so it is worked out once per incumbent, not once per ordering.
    # Every sweep that completes makes a new incumbent.
    ceilings = []
    incumbents = []

    def ceiling(cost, solver):
        ceilings.append(cost)
        return _ceiling(cost, solver)

    def sweep(*args):
        found = _constant_sweep(*args)
        incumbents.append(found is not None)
        return found

    monkeypatch.setattr(optimizer, "_ceiling", ceiling)
    monkeypatch.setattr(optimizer, "_constant_sweep", sweep)
    rng = random.Random(0xCE1)
    for values, L in (((5, 13, 7, 26, 11, 17), 80), ((3, 8, 2, 9, 4, 6), 40)):
        n = len(values) + 1
        orderings = _triples(sorted(set(permutations(values))))
        rng.shuffle(orderings)
        for best in (None, optimizer._bounded_search(orderings[:3], n, 2, L + 7)):
            ceilings.clear()
            incumbents.clear()
            optimizer._bounded_search(orderings, n, 2, L, best)
            assert len(ceilings) <= sum(incumbents) + 1, (values, best)
            assert len(ceilings) * 10 < len(orderings), (values, best)


def test_bounded_search_checks_the_multiset_once():
    with pytest.raises(ValueError, match="strictly increasing"):
        optimizer._bounded_search(_triples([(3, 0, 4)]), 4, 1, 20)
    with pytest.raises(ValueError, match="beyond register length"):
        optimizer._bounded_search(_triples([(3, 9, 4)]), 4, 1, 16)
    with pytest.raises(ValueError, match="n must equal the tap count"):
        optimizer._bounded_search(iter(_triples([(3, 9, 4)])), 5, 1, 20)
    assert optimizer._bounded_search(iter(()), 5, 1, 20, "incumbent") == "incumbent"


def test_orderings_equal_the_sorted_distinct_permutations():
    # Lexicographic, each distinct ordering once, reversals dropped only
    # without a suffix; the masks and spans are those of the tap sets.
    rng = random.Random(0x0DE5)
    repeats = 0
    for i in range(300):
        k = rng.randint(0, 6)
        values = [rng.randint(1, 3 if i % 2 else 9) for _ in range(k)]
        suffix = tuple(rng.randint(1, 9) for _ in range(rng.choice((0, 0, 1, 3))))
        got = list(optimizer._orderings(values, suffix))
        if suffix:
            want = [p + suffix for p in sorted(set(permutations(values)))]
        else:
            want = sorted(o for o in set(permutations(values)) if o <= o[::-1])
        assert [o for o, _, _ in got] == want, (values, suffix)
        L = sum(values) + sum(suffix) + 1
        for ordering, mask, span in got:
            taps = TapSet.from_differences(ordering, L)
            assert (mask, span) == (_label_mask(taps.positions), taps.span)
        assert optimizer._ordering_count(values) == len(set(permutations(values)))
        repeats += len(set(values)) < len(values)
    assert repeats > 100


def test_step_b_prices_its_winner_without_another_sweep(monkeypatch):
    # The search already found the winner's optimal sigma; its scorecard is
    # priced at it, equal to the one a fresh sweep gives.
    calls = Counter()

    def counted(*args):
        calls["_optimal_sigma"] += 1
        return _optimal_sigma(*args)

    monkeypatch.setattr(optimizer, "_optimal_sigma", counted)
    for diffs, n, m, L in (((5, 13, 7, 26, 11, 17), 7, 2, 80), ((3, 5, 4, 7), 5, 2, 24)):
        ordering, card = step_b_best_ordering(diffs, n, m, L)
        assert calls["_optimal_sigma"] == 0
        assert card == scorecard(TapSet.from_differences(ordering, L), n, m, L)
        calls.clear()


def test_step_b_refuses_too_many_orderings_before_pricing_one(monkeypatch):
    # The count is k!/prod(mult!) summed over the multisets: 60 + 120 here.
    multisets = [(2, 2, 3, 5, 7), (3, 4, 5, 6, 8)]
    sweeps = []

    def counted(*args):
        sweeps.append(args)
        return _constant_sweep(*args)

    monkeypatch.setattr(optimizer, "_constant_sweep", counted)
    monkeypatch.setattr(optimizer, "MAX_STEP_B_ORDERINGS", 179)
    with pytest.raises(FeasibilityError, match=r"^step B would price 180 orderings, "
                       r"more than the limit of 179$"):
        step_ab_best_ordering(multisets, 6, 2, 40)
    assert sweeps == []
    monkeypatch.setattr(optimizer, "MAX_STEP_B_ORDERINGS", 180)
    step_ab_best_ordering(multisets, 6, 2, 40)
    assert sweeps


def test_mirrored_ordering_has_same_sweep():
    # Step B sweeps only the smaller of each ordering and its reverse.
    rng = random.Random(0x4E7)
    for _ in range(200):
        ordering = tuple(rng.randint(1, 12) for _ in range(rng.randint(2, 7)))
        n = len(ordering) + 1
        m = rng.randint(1, n - 1)
        L = sum(ordering) + 1 + rng.randint(0, 15)
        assert optimal_constant_sigma(
            TapSet.from_differences(ordering, L), n, m, L
        ) == optimal_constant_sigma(TapSet.from_differences(ordering[::-1], L), n, m, L)


@pytest.mark.parametrize("L,n,m,seed", [(40, 5, 2, 1), (64, 6, 3, 9), (90, 6, 1, 4)])
def test_step_ab_equals_unbounded_search(L, n, m, seed):
    cands = [c.differences for c in step_a_candidates(L, n, budget=6, seed=seed)]
    every = sorted({o for c in cands for o in permutations(c)})
    (_, want, _), _ = _unbounded_best(every, n, m, L)
    ordering, card = step_ab_best_ordering(cands, n, m, L)
    assert ordering == want
    assert card.to_dict() == scorecard(TapSet.from_differences(want, L), n, m, L).to_dict()


def _unbounded_staged(L, n, m, params):
    """staged_search with a full sigma sweep for every join and no cut."""
    target = n - 1
    rng = random.Random(params.seed)
    first = min(params.chunk_size, target)
    span_budget = L - 1
    stage_span = max(first, round(span_budget * first / target))
    cand0 = step_a_candidates(
        stage_span + 1, first + 1, params.stage_budget, rng.getrandbits(32)
    )[0]
    m_first = _stage_m(m, first, n)
    (_, current, _), _ = _unbounded_best(
        sorted(set(permutations(cand0.differences))), first + 1, m_first, stage_span + 1
    )
    sub_l = 1 + sum(current)
    sigma0, est0 = optimal_constant_sigma(
        TapSet.from_differences(current, sub_l), first + 1, m_first, sub_l
    )
    trace = [StageTrace(1, cand0.differences, current, sigma0, est0.log2_total, 1, 0)]
    while len(current) < target:
        size = min(params.chunk_size, target - len(current))
        used = sum(current)
        remaining_slots = target - len(current)
        want = round((span_budget - used) * size / remaining_slots)
        chunk_span = min(span_budget - used - (remaining_slots - size), max(size, want))
        joined_size = len(current) + size
        m_join = _stage_m(m, joined_size, n)
        best = None
        tried = rejections = 0
        for _ in range(params.retries):
            cands = step_a_candidates(
                chunk_span + 1, size + 1, params.stage_budget, rng.getrandbits(32)
            )
            for cand in cands:
                tried += 1
                join_l = 1 + sum(cand.differences) + sum(current)
                if join_l > L:
                    rejections += 1
                    continue
                joins = [p + current for p in sorted(set(permutations(cand.differences)))]
                row, infeasible = _unbounded_best(joins, joined_size + 1, m_join, join_l)
                rejections += infeasible
                if row is not None and (best is None or row[0] < best[0][0]):
                    best = (row, cand)
            if best is not None:
                break
        (key, current, sigma), cand = best
        trace.append(StageTrace(len(trace) + 1, cand.differences, current, sigma,
                                -key[0], tried, rejections))
    return current, scorecard(TapSet.from_differences(current, L), n, m, L), trace


@pytest.mark.parametrize(
    "L,n,m,params",
    [
        (40, 7, 2, StagedSearchParams(chunk_size=3, stage_budget=8, retries=4, seed=5)),
        (64, 11, 3, StagedSearchParams(chunk_size=4, stage_budget=8, retries=4, seed=7)),
        (100, 13, 4, StagedSearchParams(chunk_size=4, stage_budget=4, retries=3, seed=1)),
        (72, 12, 3, StagedSearchParams(chunk_size=3, stage_budget=6, retries=3, seed=2)),
    ],
)
def test_staged_search_equals_unbounded_search(L, n, m, params):
    d, card, trace = staged_search(L, n, m, params)
    want_d, want_card, want_trace = _unbounded_staged(L, n, m, params)
    assert d == want_d
    assert card.to_dict() == want_card.to_dict()
    assert trace == want_trace


def test_ordering_sum_invariance():
    diffs = (5, 13, 7, 26, 11, 17)
    spans = {sum(perm) for perm in permutations(diffs)}
    assert spans == {79}


def test_scorecard_reference_rows():
    card = scorecard(TapSet.from_differences((5, 13, 7, 26, 11, 17), 80), 7, 2, 80)
    assert round(card.constant_cost.log2_total, 2) == 69.97
    assert round(card.greedy_cost.log2_total, 2) == 63.97
    assert round(card.cyclic_cost.log2_total, 2) == 59.97
    assert card.lam == 1 and card.fpds

    fpds_card = scorecard(TapSet((1, 3, 8, 14, 22, 23, 26), 80), 7, 2, 80)
    assert round(fpds_card.constant_cost.log2_total, 2) == 35.97
    assert round(fpds_card.greedy_cost.log2_total, 2) == 37.97
    assert round(fpds_card.cyclic_cost.log2_total, 2) == 57.97
    assert fpds_card.fpds


def test_scorecards_compute_m_invariants_once(monkeypatch):
    # One lambda evaluation per tap set, which also gives the FPDS flag, no
    # repeated label sets built, and every card priced from the public
    # builders' profiles.
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(sampling, "_labels")
    counted(optimizer, "lambda_order")
    rng = random.Random(31)
    for _ in range(12):
        L = rng.randint(20, 120)
        n = rng.randint(2, 9)
        taps = TapSet(tuple(sorted(rng.sample(range(1, L + 1), n))), L)
        ms = range(1, min(5, n))
        calls.clear()
        cards = _scorecards(taps, n, ms, L)
        assert calls == {"lambda_order": 1}
        _, gprof = greedy_schedule(taps, RankStop())
        _, cprof = cyclic_schedule(taps, RankStop())
        for m, card in zip(ms, cards):
            assert (card.lam, card.fpds) == (lambda_order(taps), is_fpds(taps))
            assert card.greedy_cost == gfsga_variable_cost(gprof, n, m, L)
            assert card.cyclic_cost == gfsga_variable_cost(cprof, n, m, L)


def test_scorecards_build_one_constant_profile_per_winning_sigma(monkeypatch):
    # The sweep runs per m, but the widths that share a winning sigma share
    # its constant profile; each card matches optimal_constant_sigma.
    built = []

    def counted(taps, sigma, *args):
        built.append(sigma)
        return constant_profile(taps, sigma, *args)

    monkeypatch.setattr(optimizer, "constant_profile", counted)
    rng = random.Random(32)
    shared = 0
    for _ in range(40):
        L = rng.randint(20, 160)
        n = rng.randint(5, 12)
        taps = TapSet(tuple(sorted(rng.sample(range(1, L + 1), n))), L)
        built.clear()
        cards = _scorecards(taps, n, range(1, 5), L)
        want = [optimal_constant_sigma(taps, n, m, L) for m in range(1, 5)]
        assert [(c.optimal_sigma, c.constant_cost) for c in cards] == want
        winners = [sigma for sigma, _ in want]
        assert sorted(built) == sorted(set(winners))
        shared += len(set(winners)) < 4
    assert shared >= 10


def test_staged_search_small_case_deterministic():
    params = StagedSearchParams(chunk_size=3, stage_budget=8, retries=4, seed=5)
    d1, card1, trace1 = staged_search(40, 7, 2, params)
    d2, card2, trace2 = staged_search(40, 7, 2, params)
    assert d1 == d2
    assert len(d1) == 6
    assert 1 + sum(d1) <= 40
    assert card1.constant_cost.log2_total == card2.constant_cost.log2_total
    assert [t.stage for t in trace1] == [t.stage for t in trace2]


def test_staged_search_n3_degenerates_to_pair():
    d, card, _ = staged_search(24, 3, 1, StagedSearchParams(chunk_size=2, seed=2))
    assert len(d) == 2
    assert 1 + sum(d) <= 24


def test_staged_search_large_reference_size():
    # (160, 17, 6): the searched set should land in the vicinity of the
    # reference cost 2^86.97 while spanning nearly the whole register.
    params = StagedSearchParams(chunk_size=5, stage_budget=10, retries=5, seed=0)
    d, card, trace = staged_search(160, 17, 6, params)
    assert len(d) == 16
    assert 1 + sum(d) <= 160
    assert sum(d) >= 0.9 * 159
    assert card.constant_cost.log2_total >= 80.0
    assert trace and trace[-1].ordering == d


def test_staged_search_join_length_invariant():
    params = StagedSearchParams(chunk_size=4, stage_budget=8, retries=4, seed=7)
    d, _, trace = staged_search(64, 11, 3, params)
    assert len(d) == 10
    for stage in trace:
        assert 1 + sum(stage.ordering) <= 64


def test_algorithmic_choice_dominates_fpds_at_equal_parameters():
    # The comparison tables share (n, m, L) on two rows; the searched sets
    # must beat the plain full-positive-difference sets there.
    pairs = [
        ((5, 13, 7, 26, 11, 17), (1, 3, 8, 14, 22, 23, 26), 7, 2, 80),
        (
            (5, 7, 3, 13, 6, 11, 5, 11, 7, 13, 21, 17),
            (1, 3, 6, 26, 38, 44, 60, 71, 86, 90, 99, 100, 107),
            13, 3, 120,
        ),
    ]
    for diffs, fpds_taps, n, m, L in pairs:
        algo = scorecard(TapSet.from_differences(diffs, L), n, m, L)
        fpds = scorecard(TapSet(fpds_taps, L), n, m, L)
        assert algo.constant_cost.log2_total > fpds.constant_cost.log2_total


def test_calibration_sweep_reports_best_m():
    taps = TapSet(GRAIN_LFSR_TAPS, 128)
    cal = calibrate_filter_width(taps, 128, (108.0, 125.0, 118.0))
    assert [r.m for r in cal.rows] == [1, 2, 3, 4]
    assert cal.best_m == 1
    best_row = cal.rows[0]
    assert best_row.constant_log2 == pytest.approx(108.0, abs=0.01)
    assert best_row.cyclic_log2 == pytest.approx(118.0, abs=0.01)
    nfsr = calibrate_filter_width(TapSet(GRAIN_NFSR_TAPS, 128), 128, (114.0, 125.0, 122.0))
    assert nfsr.best_m == 1


def test_staged_search_steps_through_at_most_its_permutation_bound(monkeypatch):
    # Every stage after the first walks all k! permutations of at most
    # stage_budget candidates, in one retry; stage 1 walks its one
    # candidate's orderings and prices its trace row through the empty one.
    stepped = [0]

    def counted(values):
        for p in permutations(values):
            stepped[0] += 1
            yield p

    monkeypatch.setattr(optimizer, "permutations", counted)
    rng = random.Random(0x57A9)
    reached = 0
    for _ in range(60):
        L = rng.randint(30, 90)
        n = rng.randint(4, 12)
        params = StagedSearchParams(chunk_size=rng.randint(1, 4),
                                    stage_budget=rng.randint(1, 6),
                                    retries=rng.randint(1, 3), seed=rng.getrandbits(16))
        stepped[0] = 0
        staged_search(L, n, rng.randint(1, 3), params)
        first = min(params.chunk_size, n - 1)
        bound = math.factorial(first) + 1 + optimizer._staged_permutations(n - 1, params)
        assert stepped[0] <= bound
        reached += stepped[0] == bound
    assert reached > 10  # the bound is tight


def test_staged_search_refuses_too_many_permutations_before_drawing(monkeypatch):
    # Chunks of 3 for 8 differences: stages of 3, 3 and 2, so the later two
    # walk 5 * (3! + 2!) = 40 permutations at budget 5.
    params = StagedSearchParams(chunk_size=3, stage_budget=5, retries=2, seed=4)
    assert optimizer._staged_permutations(8, params) == 40
    draws = []

    def counted(*args):
        draws.append(args)
        return step_a_candidates(*args)

    monkeypatch.setattr(optimizer, "step_a_candidates", counted)
    monkeypatch.setattr(optimizer, "MAX_STAGED_PERMUTATIONS", 39)
    with pytest.raises(FeasibilityError, match=r"^the staged search would step through "
                       r"40 permutations, more than the limit of 39$"):
        staged_search(60, 9, 2, params)
    assert draws == []
    monkeypatch.setattr(optimizer, "MAX_STAGED_PERMUTATIONS", 40)
    staged_search(60, 9, 2, params)
    assert draws

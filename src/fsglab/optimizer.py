"""Search for tap placements with high guessing-attack resistance.

Two searches are provided: an exhaustive best-ordering search over a given
difference multiset (up to ten differences and two million orderings), and a
staged search that grows the difference set chunk by chunk for larger
inputs (its later stages up to 25 million chunk permutations). Quality of an
ordering is its constant-mode cost at the optimal sampling distance; exact
cost ties prefer the ordering with the larger optimal distance, then the
lexicographically smallest ordering.
"""

from __future__ import annotations

import math
import random
from itertools import accumulate, chain, combinations, permutations
from typing import Sequence

from .complexity import (
    DEFAULT_SOLVER_EXPONENT,
    ComplexityEstimate,
    _constant_sweep,
    _optimal_sigma,
    _sigma_exponent,
    gfsga_constant_cost,
    gfsga_variable_cost,
)
from .config import MAX_EXHAUSTIVE_DIFFERENCES, MAX_STAGED_PERMUTATIONS, MAX_STEP_B_ORDERINGS
from .sampling import (
    NoOverdefinedSystemError,
    RepetitionProfile,
    TapSet,
    _Frozen,
    _label_mask,
    _set,
    constant_profile,
    cyclic_schedule,
    greedy_schedule,
    lambda_order,
)


class FeasibilityError(ValueError):
    """Search size outside the feasible range for this routine."""


class SearchExhaustedError(RuntimeError):
    """Retry budget ran out."""


class CandidateDifferenceSet(_Frozen):
    """Multiset of consecutive tap differences; taps fit a register of length L."""

    __slots__ = ("differences", "register_length")

    def __init__(self, differences: Sequence[int], register_length: int):
        d = tuple(sorted(differences))
        if any(x < 1 for x in d):
            raise ValueError("differences must be positive")
        if sum(d) + 1 > register_length:
            raise ValueError("differences overflow the register")
        _set(self, "differences", d)
        _set(self, "register_length", register_length)


class Scorecard(_Frozen):
    """One comparison row: resistance of a tap set under all three attack modes."""

    __slots__ = ("taps", "lam", "fpds", "optimal_sigma", "constant_cost", "greedy_cost",
                 "cyclic_cost")

    def __init__(self, taps: TapSet, lam: int, fpds: bool, optimal_sigma: int,
                 constant_cost: ComplexityEstimate, greedy_cost: ComplexityEstimate,
                 cyclic_cost: ComplexityEstimate | None):
        _set(self, "taps", taps)
        _set(self, "lam", lam)
        _set(self, "fpds", fpds)
        _set(self, "optimal_sigma", optimal_sigma)
        _set(self, "constant_cost", constant_cost)
        _set(self, "greedy_cost", greedy_cost)
        _set(self, "cyclic_cost", cyclic_cost)

    def to_dict(self) -> dict:
        return {
            "taps": list(self.taps.positions),
            "L": self.taps.register_length,
            "lambda": self.lam,
            "fpds": self.fpds,
            "optimal_sigma": self.optimal_sigma,
            "constant_log2": self.constant_cost.log2_total,
            "greedy_log2": self.greedy_cost.log2_total,
            "cyclic_log2": None if self.cyclic_cost is None else self.cyclic_cost.log2_total,
        }


def scorecard(taps: TapSet, n: int, m: int, L: int) -> Scorecard:
    """Evaluate lambda, the FPDS flag and all three attack-mode costs."""
    return _scorecards(taps, n, (m,), L)[0]


def _scorecards(taps: TapSet, n: int, ms: Sequence[int], L: int,
                built: RepetitionProfile | None = None,
                solver_exponent: float = DEFAULT_SOLVER_EXPONENT,
                sigma: int | None = None) -> list[Scorecard]:
    """One scorecard per filter width in ``ms``, every cost priced with the
    solver term ``solver_exponent * log2(L)``.

    Lambda, the FPDS flag and the greedy and cyclic profiles do not depend
    on m, so they are computed once per tap set. The tap set is an FPDS
    exactly when lambda <= 1, since the difference scheme's entries are
    the pairwise differences. The sigma sweep runs per m, and one constant
    profile is built per distinct winning sigma. The profiles are the
    greedy and cyclic RankStop profiles of
    :func:`~fsglab.sampling.greedy_schedule` and
    :func:`~fsglab.sampling.cyclic_schedule`. ``built``, when given, is one
    of them that the caller already has, and its mode is not run again; the
    others are run pricing-only (no repeated label sets), since the cost
    formulas read only q. ``sigma``, when given, is the optimal constant
    sigma that the caller already found for the one m in ``ms``, and the
    sigma sweep is not run again.
    """
    if not ms:
        return []
    lam = lambda_order(taps)

    def profile(mode: str, build) -> RepetitionProfile:
        if built is not None and built.mode == mode:
            return built
        return build(taps, materialize_sets=False)[1]

    gprof = profile("greedy", greedy_schedule)
    cprof = profile("cyclic", cyclic_schedule) if n >= 2 else None
    constant: dict[int, RepetitionProfile] = {}
    cards = []
    for m in ms:
        opt_sigma = _optimal_sigma(taps, n, m, L) if sigma is None else sigma
        if opt_sigma not in constant:
            constant[opt_sigma] = constant_profile(taps, opt_sigma)
        cards.append(Scorecard(
            taps=taps,
            lam=lam,
            fpds=lam <= 1,
            optimal_sigma=opt_sigma,
            constant_cost=gfsga_constant_cost(
                constant[opt_sigma], n, m, L, solver_exponent),
            greedy_cost=gfsga_variable_cost(gprof, n, m, L, solver_exponent),
            cyclic_cost=None if cprof is None
            else gfsga_variable_cost(cprof, n, m, L, solver_exponent),
        ))
    return cards


_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
)


def _coprime_arrangeable(values: Sequence[int]) -> tuple[int, ...] | None:
    """Some ordering with gcd(consecutive) == 1, or None."""
    values = sorted(values, reverse=True)

    def extend(order: list[int], pool: list[int]):
        if not pool:
            return tuple(order)
        seen = set()
        for i, v in enumerate(pool):
            if v in seen:
                continue
            seen.add(v)
            if not order or math.gcd(order[-1], v) == 1:
                got = extend(order + [v], pool[:i] + pool[i + 1:])
                if got:
                    return got
        return None

    return extend([], values)


def step_a_candidates(
    L: int, n: int, budget: int, seed: int
) -> list[CandidateDifferenceSet]:
    """Heuristic difference-multiset generation.

    Deterministic part: (n-2)-subsets of small primes topped up with the
    remainder that lands the total on L-1. Seeded part: random compositions
    from a mixed pool. Every candidate spans at least 90% of the register,
    stays within it, and admits an ordering with coprime consecutive entries.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if n - 1 > L - 1:
        raise ValueError("more differences than register cells")
    hi = L - 1
    lo = max(n - 1, math.ceil(0.9 * hi))
    out: list[CandidateDifferenceSet] = []
    seen: set[tuple[int, ...]] = set()

    def push(values) -> bool:
        key = tuple(sorted(values))
        if key in seen:
            return len(out) >= budget
        if not lo <= sum(key) <= hi:
            return len(out) >= budget
        if _coprime_arrangeable(key) is None:
            return len(out) >= budget
        seen.add(key)
        out.append(CandidateDifferenceSet(key, L))
        return len(out) >= budget

    if n == 2:
        push((hi,))
        return out

    # Balanced spacing heuristic: draw primes near the mean difference so the
    # taps spread over the whole register, topping up with the remainder that
    # lands the total on L-1.
    mean = hi / (n - 1)
    window = [p for p in _SMALL_PRIMES if p < L and mean / 3 <= p <= 3 * mean]
    if len(window) < n - 2:
        window = [p for p in _SMALL_PRIMES if p < L]
    for subset in combinations(window, n - 2):
        remainder = hi - sum(subset)
        if remainder >= 1 and push(subset + (remainder,)):
            return out

    rng = random.Random(seed)
    pool = [1, 2] + [p for p in _SMALL_PRIMES if p < L]
    attempts = 0
    while len(out) < budget and attempts < budget * 200:
        attempts += 1
        values = [rng.choice(pool) for _ in range(n - 2)]
        remainder = rng.randint(lo, hi) - sum(values)
        if remainder < 1:
            continue
        push(values + [remainder])
    return out


def _ordering_key(cost: float, sigma: int, ordering: tuple[int, ...]):
    # max cost, then max optimal sigma, then lexicographically smallest.
    return (-cost, -sigma, ordering)


# How many of the sigmas that cut earlier orderings are probed first.
_PROBES = 4


def _ceiling(cost: float, solver: float) -> int:
    """An integer E with E + solver > cost, the smallest one up to float
    rounding: a sigma priced at E or more keys below an incumbent of that
    cost, so it cannot cut."""
    t = math.floor(cost - solver) + 1
    while t + solver <= cost:  # rounding must never leave a ceiling that can cut
        t += 1
    return t


def _to_front(probes: list[int], sigma: int) -> None:
    if sigma in probes:
        probes.remove(sigma)
    probes.insert(0, sigma)
    del probes[_PROBES:]


def _orderings(values: Sequence[int], suffix: tuple[int, ...] = ()):
    """Each distinct ordering of the multiset ``values``, followed by
    ``suffix``, in lexicographic order: (ordering, tap mask, span).

    The taps sit at the cumulative sums of the ordering from position 1, and
    the mask has bit p-1 set for tap p, as :func:`_sigma_exponent` takes it.
    ``permutations`` of the sorted values gives each distinct ordering first
    where its equal values keep their input order, and these first
    occurrences come in increasing order, so one that is not above the last
    one kept is a repeat. Without a suffix, only the smaller of an ordering
    and its reverse is given (see :func:`_best_ordering`). Every ordering has
    the same span, and the suffix's mask is built once, above the span of
    ``values``.
    """
    head = sum(values)
    tail = _label_mask(accumulate(suffix, initial=head + 1)) | 1
    span = head + sum(suffix)
    last = None
    for p in permutations(sorted(values)):
        if last is not None and p <= last:
            continue
        last = p
        if suffix or p <= p[::-1]:
            mask, at = tail, 0
            for d in p:
                at += d
                mask |= 1 << at
            yield p + suffix, mask, span


def _bounded_search(orderings, n: int, m: int, L: int, best=None, probes=None):
    """Branch and bound over orderings: the best (key, ordering, sigma).

    ``orderings`` gives the (ordering, tap mask, span) triples of one
    difference multiset, as :func:`_orderings` does; the first ordering is
    checked, with the messages of :class:`TapSet`, and so is the multiset.
    ``best`` is the incumbent or None. ``probes`` is the move-to-front list
    of at most ``_PROBES`` sigmas, which one search carries from call to
    call; None starts an empty one.

    An ordering's key is the largest key over its sigmas (its cheapest
    cost, then the smallest sigma that attains it), so any one sigma whose
    key reaches the incumbent's proves that the ordering cannot win. With
    an incumbent in hand, the sigmas that cut earlier orderings are priced
    first, most recent first, each stopped at the ceiling of
    :func:`_ceiling`: a sigma priced at or past it cannot cut, and no key is
    built for it. The ceiling depends only on the incumbent's cost and this
    call's solver term, so it is worked out once per incumbent. Only when no
    probe cuts does the full sweep run; it stops at the first sigma whose
    running minimum keys the ordering no better than the incumbent, and
    that sigma goes to the front of the list. Both cuts are exact, so the
    result is the exact minimum by :func:`_ordering_key`. Sigma 1 always
    reaches its rank stop, so every ordering has a cost.
    """
    orderings = iter(orderings)
    first = next(orderings, None)
    if first is None:
        return best
    if n != TapSet.from_differences(first[0], L).n:
        raise ValueError("n must equal the tap count")
    solver = DEFAULT_SOLVER_EXPONENT * math.log2(L)  # the solver term of log2_total
    if probes is None:
        probes = []
    ceiling = None  # of the incumbent in hand; None once it changes
    for ordering, mask, span in chain((first,), orderings):
        cut = None
        if best is not None:
            bound = best[0]
            if ceiling is None:
                ceiling = _ceiling(-bound[0], solver)
            hit = None
            for sigma in probes:
                e = _sigma_exponent(mask, span, L, n, m, sigma, ceiling)
                if e < ceiling and _ordering_key(e + solver, sigma, ordering) >= bound:
                    hit = sigma
                    break
            if hit is not None:
                if hit != probes[0]:
                    _to_front(probes, hit)
                continue

            def cut(sigma, e):
                if e >= ceiling or _ordering_key(e + solver, sigma, ordering) < bound:
                    return False
                _to_front(probes, sigma)
                return True

        found = _constant_sweep(mask, span, L, n, m, L, cut)
        if found is not None:
            sigma, e = found
            best = (_ordering_key(e + solver, sigma, ordering), ordering, sigma)
            ceiling = None
    return best


def _ordering_count(values: Sequence[int]) -> int:
    """k!/prod(mult!): the number of distinct orderings of a multiset."""
    count = math.factorial(len(values))
    for v in set(values):
        count //= math.factorial(values.count(v))
    return count


def _best_ordering(multisets, n: int, m: int, L: int):
    """The best (key, ordering, sigma) over the orderings of the multisets,
    with one incumbent and one probe list across them.

    A reversed ordering mirrors the taps and keeps every repetition count
    (each counts the gaps of at most c*sigma between taps of one residue
    class mod sigma), so it ties in full with the lexicographically smaller
    of the pair, which alone is swept. The search is refused before any
    ordering is priced when the distinct orderings, summed over the
    multisets, are more than ``MAX_STEP_B_ORDERINGS``.
    """
    multisets = [tuple(values) for values in multisets]
    if any(len(values) > MAX_EXHAUSTIVE_DIFFERENCES for values in multisets):
        raise FeasibilityError(
            f"more than {MAX_EXHAUSTIVE_DIFFERENCES} differences: exhaustive ordering "
            "search is infeasible, use staged_search"
        )
    count = sum(map(_ordering_count, multisets))
    if count > MAX_STEP_B_ORDERINGS:
        raise FeasibilityError(
            f"step B would price {count} orderings, more than the limit of "
            f"{MAX_STEP_B_ORDERINGS}"
        )
    best = None
    probes: list[int] = []
    for values in multisets:
        best = _bounded_search(_orderings(values), n, m, L, best, probes)
    if best is None:
        raise NoOverdefinedSystemError("no feasible candidate difference set")
    return best


def step_b_best_ordering(
    diffs: CandidateDifferenceSet | Sequence[int],
    n: int,
    m: int,
    L: int,
) -> tuple[tuple[int, ...], Scorecard]:
    """Exhaustive search over all distinct orderings of the difference multiset,
    pruned by :func:`_bounded_search`: an ordering is dropped as soon as one
    sigma prices it below the best one so far. The few sigmas that dropped
    earlier orderings are tried first, each only up to the exponent where it
    can still drop one; the full sigma sweep, with its cut, runs only when
    none of them does. Only the winner gets a scorecard, priced at the sigma
    the search found."""
    values = tuple(
        diffs.differences if isinstance(diffs, CandidateDifferenceSet) else diffs
    )
    return step_ab_best_ordering([values], n, m, L)


def step_ab_best_ordering(
    multisets: Sequence[Sequence[int]], n: int, m: int, L: int
) -> tuple[tuple[int, ...], Scorecard]:
    """Step B over several multisets, such as the step-A candidates, with one
    incumbent carried across them: the best ordering and its scorecard."""
    _, ordering, sigma = _best_ordering(multisets, n, m, L)
    taps = TapSet.from_differences(ordering, L)
    return ordering, _scorecards(taps, n, (m,), L, sigma=sigma)[0]


class StagedSearchParams(_Frozen):
    __slots__ = ("chunk_size", "stage_budget", "retries", "seed")

    def __init__(self, chunk_size: int = 5, stage_budget: int = 12, retries: int = 6,
                 seed: int = 0):
        _set(self, "chunk_size", chunk_size)
        _set(self, "stage_budget", stage_budget)
        _set(self, "retries", retries)
        _set(self, "seed", seed)


class StageTrace(_Frozen):
    __slots__ = ("stage", "chunk", "ordering", "optimal_sigma", "cost_log2",
                 "candidates_tried", "rejections")

    def __init__(self, stage: int, chunk: tuple[int, ...], ordering: tuple[int, ...],
                 optimal_sigma: int, cost_log2: float, candidates_tried: int,
                 rejections: int):
        _set(self, "stage", stage)
        _set(self, "chunk", chunk)
        _set(self, "ordering", ordering)
        _set(self, "optimal_sigma", optimal_sigma)
        _set(self, "cost_log2", cost_log2)
        _set(self, "candidates_tried", candidates_tried)
        _set(self, "rejections", rejections)

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "chunk": list(self.chunk),
            "ordering": list(self.ordering),
            "optimal_sigma": self.optimal_sigma,
            "cost_log2": self.cost_log2,
            "candidates_tried": self.candidates_tried,
            "rejections": self.rejections,
        }


def _stage_m(m: int, size: int, n: int) -> int:
    scaled = (size * m) // (n - 1)
    return max(1, min(scaled, size))  # keep 1 <= m_X <= n_X - 1


def _staged_permutations(target: int, params: StagedSearchParams) -> int:
    """The most permutations that the stages after the first step through
    when :func:`staged_search` places ``target`` differences.

    A later stage of k differences walks all k! permutations of each of at
    most ``stage_budget`` candidates. Only one of its retries prices them:
    the first that has a candidate fitting the register ends the stage. The
    params fix every stage's k before any draw.
    """
    count = 0
    placed = min(params.chunk_size, target)
    while placed < target:
        size = min(params.chunk_size, target - placed)
        count += params.stage_budget * math.factorial(size)
        placed += size
    return count


def staged_search(
    L: int,
    n: int,
    m: int,
    params: StagedSearchParams = StagedSearchParams(),
) -> tuple[tuple[int, ...], Scorecard, list[StageTrace]]:
    """Grow an ordered difference set chunk by chunk for large n.

    Each stage draws fresh difference chunks, tries every ordering joined in
    front of the current set, and keeps the join with the best quality at the
    join's own sub-register size. Stops when n-1 differences are placed. The
    search is refused before anything is drawn or priced when the later
    stages could step through more than ``MAX_STAGED_PERMUTATIONS``
    permutations.
    """
    if n < 3:
        raise ValueError("staged search needs n >= 3; use step_b_best_ordering")
    target = n - 1
    count = _staged_permutations(target, params)
    if count > MAX_STAGED_PERMUTATIONS:
        raise FeasibilityError(
            f"the staged search would step through {count} permutations, more than "
            f"the limit of {MAX_STAGED_PERMUTATIONS}"
        )
    rng = random.Random(params.seed)
    trace: list[StageTrace] = []

    first = min(params.chunk_size, target)
    span_budget = L - 1
    stage_span = max(first, round(span_budget * first / target))
    candidates = step_a_candidates(stage_span + 1, first + 1, params.stage_budget, rng.getrandbits(32))
    if not candidates:
        raise SearchExhaustedError("no feasible seed chunk")
    m_first = _stage_m(m, first, n)
    _, current, _ = _best_ordering(
        [candidates[0].differences], first + 1, m_first, stage_span + 1)
    # The trace prices the seed chunk on its own sub-register.
    (neg_cost, _, _), _, sigma = _bounded_search(
        _orderings((), current), first + 1, m_first, 1 + sum(current)
    )
    trace.append(StageTrace(1, candidates[0].differences, current, sigma, -neg_cost, 1, 0))

    while len(current) < target:
        size = min(params.chunk_size, target - len(current))
        used = sum(current)
        remaining_slots = target - len(current)
        # Proportional span for this chunk, capped by what is still free.
        want = round((span_budget - used) * size / remaining_slots)
        chunk_span = min(span_budget - used - (remaining_slots - size), max(size, want))
        if chunk_span < size:
            raise SearchExhaustedError("no room left for further differences")
        joined_size = len(current) + size
        m_join = _stage_m(m, joined_size, n)
        best = None
        probes: list[int] = []
        tried = 0
        rejections = 0
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
                # join_l sets the solver term, so the incumbent carried across
                # candidates compares full log2 costs.
                best = _bounded_search(_orderings(cand.differences, current),
                                       joined_size + 1, m_join, join_l, best, probes)
            if best is not None:
                break
        if best is None:
            raise SearchExhaustedError(
                f"stage {len(trace) + 1}: no acceptable chunk after {tried} candidates"
            )
        (neg_cost, _, _), current, sigma = best
        chunk = tuple(sorted(current[:size]))  # the winning candidate's differences
        trace.append(
            StageTrace(len(trace) + 1, chunk, current, sigma, -neg_cost, tried, rejections)
        )

    card = scorecard(TapSet.from_differences(current, L), n, m, L)
    return current, card, trace


class CalibrationRow(_Frozen):
    __slots__ = ("m", "constant_log2", "greedy_log2", "cyclic_log2", "deltas")

    def __init__(self, m: int, constant_log2: float, greedy_log2: float, cyclic_log2: float,
                 deltas: tuple[float, float, float]):
        _set(self, "m", m)
        _set(self, "constant_log2", constant_log2)
        _set(self, "greedy_log2", greedy_log2)
        _set(self, "cyclic_log2", cyclic_log2)
        _set(self, "deltas", deltas)

    @property
    def total_abs_delta(self) -> float:
        return sum(abs(d) for d in self.deltas)


class CalibrationResult(_Frozen):
    __slots__ = ("best_m", "rows", "targets")

    def __init__(self, best_m: int, rows: tuple[CalibrationRow, ...],
                 targets: tuple[float, float, float]):
        _set(self, "best_m", best_m)
        _set(self, "rows", rows)
        _set(self, "targets", targets)

    def to_dict(self) -> dict:
        return {
            "best_m": self.best_m,
            "targets": list(self.targets),
            "rows": [
                {
                    "m": r.m,
                    "constant_log2": r.constant_log2,
                    "greedy_log2": r.greedy_log2,
                    "cyclic_log2": r.cyclic_log2,
                    "deltas": list(r.deltas),
                }
                for r in self.rows
            ],
        }


def _calibration_widths(n: int) -> range:
    """The filter widths a calibration sweeps: m in 1..4 below n."""
    return range(1, min(5, n))


def calibrate_filter_width(
    taps: TapSet,
    L: int,
    targets: tuple[float, float, float],
) -> CalibrationResult:
    """Sweep the filter output width and rank by fit to target mode costs.

    Used when a reference cost table leaves m unstated: reports each m in
    1..4 below n with its (constant, greedy, cyclic) log2 costs, their deltas
    to the targets, and the best-fitting m by total absolute delta.
    """
    ms = _calibration_widths(taps.n)
    rows = []
    for m, card in zip(ms, _scorecards(taps, taps.n, ms, L)):
        trio = (
            card.constant_cost.log2_total,
            card.greedy_cost.log2_total,
            card.cyclic_cost.log2_total,
        )
        deltas = tuple(have - want for have, want in zip(trio, targets))
        rows.append(CalibrationRow(m, *trio, deltas=deltas))
    if not rows:
        raise ValueError("no feasible m in range")
    best = min(rows, key=lambda r: (r.total_abs_delta, r.m))
    return CalibrationResult(best.m, tuple(rows), tuple(targets))

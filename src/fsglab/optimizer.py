"""Search for tap placements with high guessing-attack resistance.

Two searches are provided: an exhaustive best-ordering search over a given
difference multiset (feasible up to ten differences), and a staged search
that grows the difference set chunk by chunk for larger inputs. Quality of an
ordering is its constant-mode cost at the optimal sampling distance; exact
cost ties prefer the ordering with the larger optimal distance, then the
lexicographically smallest ordering.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Sequence

from .complexity import (
    DEFAULT_SOLVER_EXPONENT,
    ComplexityEstimate,
    _constant_sweep,
    _sigma_exponent,
    gfsga_variable_cost,
    optimal_constant_sigma,
)
from .sampling import (
    NoOverdefinedSystemError,
    RepetitionProfile,
    TapSet,
    _pricing_profile,
    is_fpds,
    lambda_order,
)


# The most differences step B orders exhaustively; `optimize` runs the staged
# search above it. Step B lists every distinct ordering first: 10 distinct
# differences give 3,628,800. At L = 128, m = 1 on a 2-core VM, step A+B took
# 11.6-12.5 s (peak RSS 106 MiB) with n = 10 and budget 12, and 15.8 s (peak
# RSS 323 MiB) with n = 11 and a single candidate.
MAX_EXHAUSTIVE_DIFFERENCES = 10


class FeasibilityError(ValueError):
    """Search size outside the feasible range for this routine."""


class SearchExhaustedError(RuntimeError):
    """Retry budget ran out."""


@dataclass(frozen=True)
class CandidateDifferenceSet:
    """Multiset of consecutive tap differences; taps fit a register of length L."""

    differences: tuple[int, ...]
    register_length: int

    def __post_init__(self):
        d = tuple(sorted(self.differences))
        if any(x < 1 for x in d):
            raise ValueError("differences must be positive")
        if sum(d) + 1 > self.register_length:
            raise ValueError("differences overflow the register")
        object.__setattr__(self, "differences", d)


@dataclass(frozen=True)
class Scorecard:
    """One comparison row: resistance of a tap set under all three attack modes."""

    taps: TapSet
    lam: int
    fpds: bool
    optimal_sigma: int
    constant_cost: ComplexityEstimate
    greedy_cost: ComplexityEstimate
    cyclic_cost: ComplexityEstimate | None

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
                solver_exponent: float = DEFAULT_SOLVER_EXPONENT) -> list[Scorecard]:
    """One scorecard per filter width in ``ms``, every cost priced with the
    solver term ``solver_exponent * log2(L)``.

    Lambda, the FPDS flag and the greedy and cyclic profiles do not depend
    on m, so they are computed once per tap set; only the sigma sweep and
    the pricing run per m. The profiles are the greedy and cyclic RankStop
    profiles of :func:`~fsglab.sampling.greedy_schedule` and
    :func:`~fsglab.sampling.cyclic_schedule`. ``built``, when given, is one
    of them that the caller already has, and its mode is not run again; the
    others are run pricing-only (no repeated label sets), since the cost
    formulas read only q.
    """
    if not ms:
        return []
    lam, fpds = lambda_order(taps), is_fpds(taps)

    def profile(mode: str) -> RepetitionProfile:
        if built is not None and built.mode == mode:
            return built
        return _pricing_profile(taps, mode)

    gprof = profile("greedy")
    cprof = profile("cyclic") if n >= 2 else None
    cards = []
    for m in ms:
        sigma, const_est = optimal_constant_sigma(taps, n, m, L, solver_exponent)
        cards.append(Scorecard(
            taps=taps,
            lam=lam,
            fpds=fpds,
            optimal_sigma=sigma,
            constant_cost=const_est,
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


def _bounded_search(orderings, n: int, m: int, L: int, best=None):
    """Branch and bound over orderings: the best (key, ordering, sigma).

    ``orderings`` are orderings of one difference multiset, which is
    checked once, with the messages of :class:`TapSet`; each ordering's
    taps sit at the cumulative sums of its differences from position 1.
    ``best`` is the incumbent or None.

    An ordering's key is the largest key over its sigmas (its cheapest
    cost, then the smallest sigma that attains it), so any one sigma whose
    key reaches the incumbent's proves that the ordering cannot win. With
    an incumbent in hand, the sigmas that cut earlier orderings in this
    call are priced first, most recent first (a move-to-front list of at
    most ``_PROBES``), each stopped at the ceiling of :func:`_ceiling`:
    past it a sigma cannot cut. The ceiling depends only on the incumbent's
    cost and this call's solver term, so it is worked out once per
    incumbent. Only when no probe cuts does the full sweep run; it stops at
    the first sigma whose running minimum keys the ordering no better than
    the incumbent, and that sigma goes to the front of the list. Both cuts
    are exact, so the result is the exact minimum by :func:`_ordering_key`.
    Sigma 1 always reaches its rank stop, so every ordering has a cost.
    """
    if not orderings:
        return best
    first = TapSet.from_differences(orderings[0], L)
    if n != first.n:
        raise ValueError("n must equal the tap count")
    solver = DEFAULT_SOLVER_EXPONENT * math.log2(L)  # the solver term of log2_total
    probes: list[int] = []
    ceiling = None  # of the incumbent in hand; None once it changes
    for ordering in orderings:
        mask, span = 1, 0
        for d in ordering:
            span += d
            mask |= 1 << span
        cut = None
        if best is not None:
            bound = best[0]
            if ceiling is None:
                ceiling = _ceiling(-bound[0], solver)
            hit = next((
                sigma for sigma in probes
                if _ordering_key(
                    _sigma_exponent(mask, span, L, n, m, sigma, ceiling) + solver,
                    sigma, ordering) >= bound
            ), None)
            if hit is not None:
                if hit != probes[0]:
                    _to_front(probes, hit)
                continue

            def cut(sigma, e):
                if _ordering_key(e + solver, sigma, ordering) < bound:
                    return False
                _to_front(probes, sigma)
                return True

        found = _constant_sweep(mask, span, L, n, m, L, cut)
        if found is not None:
            sigma, e = found
            best = (_ordering_key(e + solver, sigma, ordering), ordering, sigma)
            ceiling = None
    return best


def _best_ordering(multisets, n: int, m: int, L: int) -> tuple[int, ...]:
    """The best ordering of any of the multisets, one incumbent across them.

    A reversed ordering mirrors the taps and keeps every repetition count
    (each counts the gaps of at most c*sigma between taps of one residue
    class mod sigma), so it ties in full with the lexicographically smaller
    of the pair, which alone is swept.
    """
    best = None
    for values in multisets:
        if len(values) > MAX_EXHAUSTIVE_DIFFERENCES:
            raise FeasibilityError(
                f"more than {MAX_EXHAUSTIVE_DIFFERENCES} differences: exhaustive ordering "
                "search is infeasible, use staged_search"
            )
        orderings = [o for o in sorted(set(permutations(values))) if o <= o[::-1]]
        best = _bounded_search(orderings, n, m, L, best)
    if best is None:
        raise NoOverdefinedSystemError("no feasible candidate difference set")
    return best[1]


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
    none of them does. Only the winner gets a scorecard."""
    values = tuple(
        diffs.differences if isinstance(diffs, CandidateDifferenceSet) else diffs
    )
    return step_ab_best_ordering([values], n, m, L)


def step_ab_best_ordering(
    multisets: Sequence[Sequence[int]], n: int, m: int, L: int
) -> tuple[tuple[int, ...], Scorecard]:
    """Step B over several multisets, such as the step-A candidates, with one
    incumbent carried across them: the best ordering and its scorecard."""
    ordering = _best_ordering(multisets, n, m, L)
    return ordering, scorecard(TapSet.from_differences(ordering, L), n, m, L)


@dataclass(frozen=True)
class StagedSearchParams:
    chunk_size: int = 5
    stage_budget: int = 12
    retries: int = 6
    seed: int = 0


@dataclass
class StageTrace:
    stage: int
    chunk: tuple[int, ...]
    ordering: tuple[int, ...]
    optimal_sigma: int
    cost_log2: float
    candidates_tried: int
    rejections: int


def _stage_m(m: int, size: int, n: int) -> int:
    scaled = (size * m) // (n - 1)
    return max(1, min(scaled, size))  # keep 1 <= m_X <= n_X - 1


def staged_search(
    L: int,
    n: int,
    m: int,
    params: StagedSearchParams = StagedSearchParams(),
) -> tuple[tuple[int, ...], Scorecard, list[StageTrace]]:
    """Grow an ordered difference set chunk by chunk for large n.

    Each stage draws fresh difference chunks, tries every ordering joined in
    front of the current set, and keeps the join with the best quality at the
    join's own sub-register size. Stops when n-1 differences are placed.
    """
    if n < 3:
        raise ValueError("staged search needs n >= 3; use step_b_best_ordering")
    target = n - 1
    rng = random.Random(params.seed)
    trace: list[StageTrace] = []

    first = min(params.chunk_size, target)
    span_budget = L - 1
    stage_span = max(first, round(span_budget * first / target))
    candidates = step_a_candidates(stage_span + 1, first + 1, params.stage_budget, rng.getrandbits(32))
    if not candidates:
        raise SearchExhaustedError("no feasible seed chunk")
    m_first = _stage_m(m, first, n)
    current = _best_ordering([candidates[0].differences], first + 1, m_first, stage_span + 1)
    # The trace prices the seed chunk on its own sub-register.
    (neg_cost, _, _), _, sigma = _bounded_search(
        [current], first + 1, m_first, 1 + sum(current)
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
                joins = [p + current for p in sorted(set(permutations(cand.differences)))]
                best = _bounded_search(joins, joined_size + 1, m_join, join_l, best)
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


@dataclass(frozen=True)
class CalibrationRow:
    m: int
    constant_log2: float
    greedy_log2: float
    cyclic_log2: float
    deltas: tuple[float, float, float]

    @property
    def total_abs_delta(self) -> float:
        return sum(abs(d) for d in self.deltas)


@dataclass(frozen=True)
class CalibrationResult:
    best_m: int
    rows: tuple[CalibrationRow, ...]
    targets: tuple[float, float, float]

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

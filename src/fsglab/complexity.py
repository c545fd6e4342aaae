"""Attack-cost arithmetic in log2 space.

Every estimator returns a :class:`ComplexityEstimate` whose total decomposes
as first-sample exponent + per-sample exponents + solver term, with the
clamping convention that a sample whose repeated bits already pin the
preimage contributes factor 1 (exponent 0), never a negative power.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .sampling import (
    NoOverdefinedSystemError,
    RepetitionProfile,
    TapSet,
    _Frozen,
    _label_mask,
    _set,
    constant_profile,
)

DEFAULT_SOLVER_EXPONENT = 3.0
GAUSS_OMEGA = 2.807


class ComplexityEstimate(_Frozen):
    """log2 attack cost with its exponent breakdown."""

    __slots__ = ("log2_total", "first_sample_exponent", "per_sample_exponents",
                 "solver_log2", "samples_used", "R_used", "sigma_or_schedule")

    def __init__(self, log2_total: float, first_sample_exponent: float,
                 per_sample_exponents: tuple[float, ...], solver_log2: float,
                 samples_used: int, R_used: int | None, sigma_or_schedule: str):
        _set(self, "log2_total", log2_total)
        _set(self, "first_sample_exponent", first_sample_exponent)
        _set(self, "per_sample_exponents", per_sample_exponents)
        _set(self, "solver_log2", solver_log2)
        _set(self, "samples_used", samples_used)
        _set(self, "R_used", R_used)
        _set(self, "sigma_or_schedule", sigma_or_schedule)

    @property
    def candidate_log2(self) -> float:
        """log2 of the number of candidate systems (total minus solver term)."""
        return self.log2_total - self.solver_log2

    def to_dict(self) -> dict:
        return {
            "log2_total": self.log2_total,
            "first_sample_exponent": self.first_sample_exponent,
            "per_sample_exponents": list(self.per_sample_exponents),
            "solver_log2": self.solver_log2,
            "samples_used": self.samples_used,
            "R_used": self.R_used,
            "sigma_or_schedule": self.sigma_or_schedule,
        }


class WindowCostEstimate(_Frozen):
    """Window-attack cost, the state bits R_p the window reads, and the
    memory and data budgets (in bits)."""

    __slots__ = ("estimate", "recovered_bits", "memory_bits", "data_bits")

    def __init__(self, estimate: ComplexityEstimate, recovered_bits: int,
                 memory_bits: int, data_bits: int):
        _set(self, "estimate", estimate)
        _set(self, "recovered_bits", recovered_bits)
        _set(self, "memory_bits", memory_bits)
        _set(self, "data_bits", data_bits)


def _clamped(n: int, m: int, q: Sequence[int]) -> tuple[int, ...]:
    nm = n - m
    return tuple([nm - qj if qj < nm else 0 for qj in q])


def fsga_cost(n: int, m: int, L: int, solver_exponent: float = DEFAULT_SOLVER_EXPONENT) -> ComplexityEstimate:
    """Baseline guessing cost 2^((n-m)c) * L^3 with c = ceil(L/n) samples."""
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    if L < n:
        raise ValueError("register must be at least as long as the tap count")
    c = math.ceil(L / n)
    solver = solver_exponent * math.log2(L)
    per_sample = ((n - m),) * (c - 1)
    return ComplexityEstimate(
        log2_total=(n - m) * c + solver,
        first_sample_exponent=n - m,
        per_sample_exponents=per_sample,
        solver_log2=solver,
        samples_used=c,
        R_used=0,
        sigma_or_schedule="fsga",
    )


def _profile_cost(
    profile: RepetitionProfile,
    n: int,
    m: int,
    L: int,
    solver_exponent: float,
    label: str,
) -> ComplexityEstimate:
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    if n * profile.samples - profile.total <= L:
        raise ValueError(
            "profile is not overdefined (n*c - R must exceed L); "
            "sample with a rank stop first"
        )
    per_sample = _clamped(n, m, profile.q)
    solver = solver_exponent * math.log2(L)
    return ComplexityEstimate(
        log2_total=(n - m) + sum(per_sample) + solver,
        first_sample_exponent=n - m,
        per_sample_exponents=per_sample,
        solver_log2=solver,
        samples_used=profile.samples,
        R_used=profile.total,
        sigma_or_schedule=label,
    )


def gfsga_constant_cost(
    profile: RepetitionProfile,
    n: int,
    m: int,
    L: int,
    solver_exponent: float = DEFAULT_SOLVER_EXPONENT,
) -> ComplexityEstimate:
    """Constant-distance attack cost from a repetition profile."""
    label = f"sigma={profile.sigma}" if profile.sigma is not None else "constant"
    return _profile_cost(profile, n, m, L, solver_exponent, label)


def gfsga_variable_cost(
    profile: RepetitionProfile,
    n: int,
    m: int,
    L: int,
    solver_exponent: float = DEFAULT_SOLVER_EXPONENT,
) -> ComplexityEstimate:
    """Variable-distance attack cost; same clamped product over the q_j."""
    return _profile_cost(profile, n, m, L, solver_exponent, profile.mode)


def _sigma_exponent(
    taps_mask: int,
    span: int,
    rank_bound: int,
    n: int,
    m: int,
    sigma: int,
    limit: float = math.inf,
) -> int:
    """The clamped exponent E of one constant sampling distance, stopped at
    ``limit``: the exact E when it is below ``limit``, else some value at
    least ``limit``.

    ``taps_mask`` has bit p-1 set for each tap position p, ``span`` is
    l_n - l_1 and ``rank_bound`` the register length. The recursion is the
    one of :func:`constant_profile`: r_i = |I_1 u .. u I_i| with
    I_i = I_0 ^ (I_0 + i*sigma), steady at r_k past the horizon
    k = floor(span/sigma), run under its rank stop, and
    E = (n-m) + sum_i max(0, n-m-r_i). E never decreases as samples are
    added, so the loop stops once E reaches ``limit``. Only the shifts
    i*sigma up to the span are looped over. The slack rank_bound - n*c + R
    starts at rank_bound - n and falls by n - r per sample, and sampling
    goes on while it is >= 0. Past the horizon r is steady, so the samples
    left, slack // (n - r) + 1, add n-m-r each, in one step. r never falls,
    so once r >= n-m no later sample adds to E and the E in hand is exact.
    The lowest tap never repeats (r_i <= n-1), so every sample adds an
    equation and c <= L-n+2.
    """
    nm = n - m
    acc = r = 0
    e = nm
    slack = rank_bound - n
    shift = sigma
    while shift <= span and slack >= 0 and e < limit:
        acc |= taps_mask & (taps_mask << shift)
        r = acc.bit_count()
        if r >= nm:
            return e
        e += nm - r
        slack -= n - r
        shift += sigma
    if shift > span and slack >= 0 and r < nm:
        e += (nm - r) * (slack // (n - r) + 1)
    return e


def _constant_sweep(
    taps_mask: int,
    span: int,
    rank_bound: int,
    n: int,
    m: int,
    L: int,
    cut: Callable[[int, int], bool] | None = None,
) -> tuple[int, int] | None:
    """Cost-only sweep of sigma over 1..L: the smallest optimal sigma and its E.

    The taps are given as for :func:`_sigma_exponent`, which prices each
    sigma without building its profile. The solver term is the same for
    every sigma, so E orders the distances exactly as log2_total does. A
    sigma is abandoned as soon as its E reaches the best E so far: it can
    at most tie, and exact ties resolve to the smallest sigma. Every sigma
    above the span repeats nothing and prices as sigma = span + 1 does, so
    the sweep ends there.

    A sigma above half the span is priced once per overlap count
    |T & (T << sigma)|: it has one shift inside the span, so its E depends
    on that count alone (span + 1 is the count-0 class), and a smaller
    sigma of the same class already priced it, or proved it no better
    than a best E that ties keep.

    ``cut(sigma, E)`` is asked each time a sigma completes with a new
    minimum E; once it answers True the sweep stops and returns None.
    """
    best_sigma = None
    best_e = math.inf
    half = span // 2
    priced = set()  # overlap counts of the sigmas above half the span
    for sigma in range(1, min(L, span + 1) + 1):
        if sigma > half:
            overlap = (taps_mask & (taps_mask << sigma)).bit_count()
            if overlap in priced:
                continue
            priced.add(overlap)
        e = _sigma_exponent(taps_mask, span, rank_bound, n, m, sigma, best_e)
        if e < best_e:
            best_sigma, best_e = sigma, e
            if cut is not None and cut(sigma, e):
                return None
    if best_sigma is None:
        raise NoOverdefinedSystemError("no sigma in 1..L yields an overdefined system")
    return best_sigma, best_e


def _optimal_sigma(taps: TapSet, n: int, m: int, L: int) -> int:
    """The sigma of :func:`optimal_constant_sigma`, with its argument
    checks, without building the winner's profile."""
    if n != taps.n:
        raise ValueError("n must equal the tap count")
    if L > taps.register_length:
        raise ValueError("L must not exceed the register length")
    sigma, _ = _constant_sweep(
        _label_mask(taps.positions), taps.span, taps.register_length, n, m, L
    )
    return sigma


def optimal_constant_sigma(
    taps: TapSet,
    n: int,
    m: int,
    L: int,
    solver_exponent: float = DEFAULT_SOLVER_EXPONENT,
) -> tuple[int, ComplexityEstimate]:
    """Sweep sigma over 1..L and return the cheapest constant-mode attack.

    :func:`_constant_sweep` finds sigma without building profiles, looping
    only inside each sigma's horizon and over sigma <= min(L, span + 1):
    a larger sigma repeats nothing and ties span + 1, and ties go to the
    smallest sigma. A sigma above half the span is priced once per overlap
    count |T & (T << sigma)|; the skip is exact, since such a sigma has one
    shift inside the span and its cost depends on that count alone. Only
    the winner's profile and estimate are built, and the tests hold this
    to a sweep that builds both for every sigma. The ordering search
    prices sigmas with the same kernel, :func:`_sigma_exponent`: first the
    few sigmas that cut earlier orderings, each stopped at the exponent
    where it can no longer cut, and only when none of them cuts, this
    sweep with a cut.
    """
    sigma = _optimal_sigma(taps, n, m, L)
    profile = constant_profile(taps, sigma)
    return sigma, gfsga_constant_cost(profile, n, m, L, solver_exponent)


def internal_state_recovery_cost(
    profile: RepetitionProfile,
    n: int,
    m: int,
    L: int,
) -> WindowCostEstimate:
    """Cost of the sampling-window internal-state recovery.

    ``profile`` must cover the distance-1 window (p-1 samples, p-2 steps).
    R_p = n + sum(n - q_j) is the count of distinct state bits read inside
    the window. The final term is the residual guess of L - R_p bits, and the
    memory/data budgets follow the preimage-space bookkeeping.
    """
    recovered_bits = n + sum(n - q for q in profile.q)
    if recovered_bits > L:
        raise ValueError("cannot recover more bits than the register holds")
    window = profile.samples  # p - 1
    if window * n <= L:
        raise ValueError("window too short: need (p-1)*n > L")
    per_sample = _clamped(n, m, profile.q)
    tail = L - recovered_bits
    est = ComplexityEstimate(
        log2_total=(n - m) + sum(per_sample) + tail,
        first_sample_exponent=n - m,
        per_sample_exponents=per_sample,
        solver_log2=tail,
        samples_used=window,
        R_used=profile.total,
        sigma_or_schedule="window:sigma=1",
    )
    memory_bits = window * n * (1 << (n - 1)) + L
    data_bits = window + L
    return WindowCostEstimate(est, recovered_bits, memory_bits, data_bits)


def restricted_annihilator_cost(
    sizes: Sequence[float],
    counts: Sequence[int],
    L: int,
    omega: float = GAUSS_OMEGA,
) -> ComplexityEstimate:
    """Cost product over user-supplied restricted preimage-space sizes.

    Pure arithmetic: sum(count_i * log2(size_i)) + omega * log2(L). The sizes
    come from an external annihilator analysis; nothing here derives them.
    """
    if len(sizes) != len(counts):
        raise ValueError("sizes and counts must align")
    if any(s <= 0 for s in sizes) or any(c < 1 for c in counts):
        raise ValueError("sizes must be positive and counts >= 1")
    flat = [math.log2(s) for s, c in zip(sizes, counts) for _ in range(c)]
    solver = omega * math.log2(L)
    return ComplexityEstimate(
        log2_total=sum(flat) + solver,
        first_sample_exponent=flat[0],
        per_sample_exponents=tuple(flat[1:]),
        solver_log2=solver,
        samples_used=sum(counts),
        R_used=None,
        sigma_or_schedule="restricted-annihilator",
    )

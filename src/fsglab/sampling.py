"""Tap-set calculus: difference schemes, repeated-equation counting and
sampling-schedule construction.

The central device is the integer-label timeline: after a cumulative shift s
the register content at tap positions {l_1..l_n} is the integer set
{l_1+s, .., l_n+s}, so a keystream bit reuses an already-seen state bit
exactly when the shifted set intersects the union of all earlier sets. Two
independent counting routes are provided and kept in agreement by tests:

* direct set computation (ground truth, :func:`repetition_profile`),
* the scheme-of-differences method (:func:`repeated_count_constant`,
  :func:`repeated_count_variable`).
"""

from __future__ import annotations

import itertools
import sys
from typing import Callable, Iterable, Sequence

# Sets a field of a frozen value inside its own ``__init__``.
_set = object.__setattr__


class _Frozen:
    """Base of fsglab's frozen value types.

    A subclass lists its fields in ``__slots__``, in constructor order, and
    sets each one in ``__init__`` with ``_set``. Instances of one type are
    equal when their fields are, hash by their fields, repr as
    ``Name(field=value, ...)`` and refuse assignment and deletion.
    ``__reduce__`` hands back the class and the fields, so ``copy`` and
    ``pickle`` rebuild an instance through ``__init__``; without it they
    would set the slots with the refused ``__setattr__``.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class NoOverdefinedSystemError(RuntimeError):
    """Sampling ended without producing an overdefined system."""


class TapSet(_Frozen):
    """Ordered tap positions l_1 < ... < l_n on a register of length L."""

    __slots__ = ("positions", "register_length")

    def __init__(self, positions: Iterable[int], register_length: int):
        pos = tuple(positions)
        if not pos:
            raise ValueError("need at least one tap")
        if any(p < 1 for p in pos):
            raise ValueError("tap positions are 1-based")
        if any(a >= b for a, b in zip(pos, pos[1:])):
            raise ValueError("tap positions must be strictly increasing")
        if pos[-1] > register_length:
            raise ValueError("tap position beyond register length")
        _set(self, "positions", pos)
        _set(self, "register_length", register_length)

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def span(self) -> int:
        """l_n - l_1, the largest shift at which overlaps can occur."""
        return self.positions[-1] - self.positions[0]

    @classmethod
    def from_differences(cls, diffs: Sequence[int], register_length: int) -> "TapSet":
        """Taps at cumulative sums of ``diffs`` beginning at position 1."""
        positions = [1]
        for d in diffs:
            positions.append(positions[-1] + d)
        return cls(tuple(positions), register_length)


class DifferenceScheme(_Frozen):
    """Triangular table of all tap differences l_{j+k} - l_j.

    Row k (1-based) holds l_{j+k} - l_j for j = 1..n-k; row 1 is the set of
    consecutive differences D.
    """

    __slots__ = ("table",)

    def __init__(self, table: tuple[tuple[int, ...], ...]):
        _set(self, "table", table)

    @classmethod
    def from_differences(cls, diffs: Sequence[int]) -> "DifferenceScheme":
        d = tuple(diffs)
        rows = []
        for k in range(1, len(d) + 1):
            rows.append(tuple(sum(d[j:j + k]) for j in range(len(d) - k + 1)))
        return cls(tuple(rows))

    def entries(self) -> tuple[int, ...]:
        return tuple(v for row in self.table for v in row)


class SamplingSchedule(_Frozen):
    """Concrete sampling distances with a mode tag."""

    __slots__ = ("steps", "mode")

    def __init__(self, steps: Iterable[int], mode: str = "custom"):
        # mode: constant | greedy | cyclic | custom
        steps = tuple(steps)
        if any(s < 1 for s in steps):
            raise ValueError("sampling distances must be >= 1")
        if mode == "constant" and len(set(steps)) > 1:
            raise ValueError("constant mode requires equal steps")
        if mode not in ("constant", "greedy", "cyclic", "custom"):
            raise ValueError(f"unknown schedule mode {mode!r}")
        _set(self, "steps", steps)
        _set(self, "mode", mode)


class RankStop(_Frozen):
    """Stop at the minimal sample count c with n*c - R > L."""

    __slots__ = ()


class SampleStop(_Frozen):
    """Stop after exactly ``samples`` observed outputs."""

    __slots__ = ("samples",)

    def __init__(self, samples: int):
        if samples < 1:
            raise ValueError("need at least one sample")
        _set(self, "samples", samples)


Stop = RankStop | SampleStop | None


class RepetitionProfile(_Frozen):
    """Per-sample repeated-bit counts for a sampling run.

    ``q[j]`` is the number of bits of sample j+2 already seen in samples
    1..j+1 (the first sample never repeats anything), ``repeated_sets`` holds
    the matching integer labels when they were materialized, and ``k`` is the
    constant-mode shift horizon floor((l_n-l_1)/sigma).
    """

    __slots__ = ("q", "samples", "total", "n", "register_length", "mode", "steps",
                 "sigma", "k", "repeated_sets")

    def __init__(self, q: tuple[int, ...], samples: int, total: int, n: int,
                 register_length: int, mode: str, steps: tuple[int, ...],
                 sigma: int | None = None, k: int | None = None,
                 repeated_sets: tuple[frozenset, ...] | None = None):
        _set(self, "q", q)
        _set(self, "samples", samples)
        _set(self, "total", total)
        _set(self, "n", n)
        _set(self, "register_length", register_length)
        _set(self, "mode", mode)
        _set(self, "steps", steps)
        _set(self, "sigma", sigma)
        _set(self, "k", k)
        _set(self, "repeated_sets", repeated_sets)

    @property
    def distinct_equations(self) -> int:
        return self.n * self.samples - self.total

    def is_overdefined(self) -> bool:
        return self.distinct_equations > self.register_length

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "steps": list(self.steps),
            "sigma": self.sigma,
            "q": list(self.q),
            "repeated_sets": None
            if self.repeated_sets is None
            else [sorted(s) for s in self.repeated_sets],
            "R": self.total,
            "c": self.samples,
            "k": self.k,
            "n": self.n,
            "L": self.register_length,
        }


def consecutive_differences(taps: TapSet) -> tuple[int, ...]:
    """d_j = l_{j+1} - l_j; empty for a single tap."""
    pos = taps.positions
    return tuple(pos[j + 1] - pos[j] for j in range(len(pos) - 1))


def difference_scheme(taps: TapSet) -> DifferenceScheme:
    return DifferenceScheme.from_differences(consecutive_differences(taps))


def _label_mask(positions: Iterable[int]) -> int:
    mask = 0
    for p in positions:
        mask |= 1 << (p - 1)
    return mask


def _labels(mask: int, shift: int = 0) -> frozenset[int]:
    """The labels of ``mask << shift``, decoded on the narrow ``mask``."""
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() + shift)
        mask ^= low
    return frozenset(out)


def _run_steps(
    taps: TapSet,
    choose: Callable[[int], int | None],
    stop: Stop,
    mode: str,
    sigma: int | None = None,
    k: int | None = None,
    materialize_sets: bool = True,
    overshoot: int = 0,
) -> RepetitionProfile:
    """The integer-label sampling loop behind every profile builder.

    ``seen`` holds the labels of all samples so far, shifted down by the
    current cumulative shift (bit 0 is label shift+1; lower labels can never
    meet a later sample and are dropped). ``choose(seen)`` returns the next
    sampling distance, or None when the schedule is exhausted. Under a
    RankStop the run keeps ``overshoot`` samples past the first overdefined
    count. Every sample's highest label is new, so each adds at least one
    distinct equation and a rank stop ends within L-n+2 samples.
    """
    n = taps.n
    L = taps.register_length
    taps_mask = _label_mask(taps.positions)
    seen = taps_mask
    shift = 0
    q: list[int] = []
    sets: list[frozenset] = []
    steps: list[int] = []
    total = 0
    c = 1
    rank = isinstance(stop, RankStop)
    samples = stop.samples if isinstance(stop, SampleStop) else None
    while True:
        if rank:
            if n * c - total > L:
                if overshoot <= 0:
                    break
                overshoot -= 1
        elif samples is not None and c >= samples:
            break
        step = choose(seen)
        if step is None:
            if stop is None:
                break
            raise NoOverdefinedSystemError(
                "schedule exhausted before the stop condition was met"
            )
        if not 1 <= step <= L:
            raise ValueError("sampling distances must lie in 1..L")
        shift += step
        seen >>= step
        inter = seen & taps_mask
        r = inter.bit_count()
        q.append(r)
        if materialize_sets:
            sets.append(_labels(inter, shift))
        total += r
        seen |= taps_mask
        steps.append(step)
        c += 1
    return RepetitionProfile(
        q=tuple(q),
        samples=c,
        total=total,
        n=n,
        register_length=L,
        mode=mode,
        steps=tuple(steps),
        sigma=sigma,
        k=k,
        repeated_sets=tuple(sets) if materialize_sets else None,
    )


def _replay(steps: Iterable[int]) -> Callable[[int], int | None]:
    """Chooser that plays back ``steps`` in order, then reports exhaustion."""
    it = iter(steps)
    return lambda _seen: next(it, None)


def repetition_profile(
    taps: TapSet,
    schedule: SamplingSchedule | Sequence[int],
    stop: Stop = None,
    *,
    materialize_sets: bool = True,
) -> RepetitionProfile:
    """Ground-truth profile by direct set intersections on the label timeline.

    With ``stop=None`` the whole schedule is consumed; a RankStop returns the
    minimal sample count c with n*c - R > L and raises
    :class:`NoOverdefinedSystemError` if the schedule runs out first. With
    ``materialize_sets=False`` the run is the same but ``repeated_sets`` is
    left as None, as in the greedy and cyclic builders.
    """
    if isinstance(schedule, SamplingSchedule):
        steps, mode = schedule.steps, schedule.mode
    else:
        steps, mode = tuple(schedule), "custom"
    sigma = steps[0] if mode == "constant" and steps else None
    k = taps.span // sigma if sigma else None
    return _run_steps(taps, _replay(steps), stop, mode, sigma=sigma, k=k,
                      materialize_sets=materialize_sets)


def constant_profile(
    taps: TapSet, sigma: int, stop: Stop = RankStop()
) -> RepetitionProfile:
    """Profile of the constant schedule sigma, sigma, .. up to ``stop``.

    ``k`` is the shift horizon floor((l_n - l_1)/sigma): past it every
    sample repeats the same number of bits. Repeated label sets are not
    materialized.
    """
    if not 1 <= sigma <= taps.register_length:
        raise ValueError("sigma must lie in 1..L")
    if stop is None:
        raise ValueError("constant_profile needs a RankStop or SampleStop")
    return _run_steps(
        taps, lambda _seen: sigma, stop, "constant", sigma=sigma,
        k=taps.span // sigma, materialize_sets=False,
    )


def repeated_count_constant(diffs: Sequence[int], sigma: int, c: int) -> int:
    """Repeated-equation count for constant sampling, by the difference scheme.

    Each column i of the scheme contributes c - P/sigma for its first partial
    sum P divisible by sigma (the same source bit repeating every sample once
    its first partner is in range); later divisible sums in the column are the
    same bit again and are not counted.
    """
    if sigma < 1 or c < 1:
        raise ValueError("need sigma >= 1 and c >= 1")
    d = tuple(diffs)
    total = 0
    for i in range(len(d)):
        partial = 0
        for m in range(i, len(d)):
            partial += d[m]
            if partial % sigma == 0:
                h = partial // sigma
                if h <= c - 1:
                    total += c - h
                break
    return total


def scheme_q_sequence(diffs: Sequence[int], steps: Sequence[int]) -> list[int]:
    """Per-sample repeated-bit counts from the difference scheme.

    At sample j+1 the candidate lookback distances are the suffix sums of
    (s_1..s_j); column r of the scheme contributes one bit when any of its
    partial sums matches any lookback distance (one bit per column per
    sample, however many matchings occur).
    """
    d = tuple(diffs)
    prefix = [0]
    for s in steps:
        prefix.append(prefix[-1] + s)
    q: list[int] = []
    for j in range(1, len(steps) + 1):
        lookback = {prefix[j] - prefix[i] for i in range(j)}
        count = 0
        for r in range(len(d)):
            partial = 0
            for m in range(r, len(d)):
                partial += d[m]
                if partial in lookback:
                    count += 1
                    break
        q.append(count)
    return q


def repeated_count_variable(diffs: Sequence[int], steps: Sequence[int]) -> int:
    """Total repeated equations for a variable schedule, by the scheme method."""
    return sum(scheme_q_sequence(diffs, steps))


def greedy_schedule(
    taps: TapSet,
    stop: Stop = RankStop(),
    overshoot: int = 1,
    *,
    materialize_sets: bool = True,
) -> tuple[SamplingSchedule, RepetitionProfile]:
    """Adaptive schedule maximizing each sample's repeated-bit count.

    Every step picks the smallest sigma in 1..L whose shifted tap set meets
    the union of all earlier samples in the most labels (see
    :func:`_greedy_chooser`). Under a RankStop the run keeps ``overshoot``
    additional samples after the system first becomes overdefined (the
    reference runs of this mode include one such sample); pass overshoot=0
    for the minimal schedule. ``materialize_sets=False`` leaves the
    profile's ``repeated_sets`` as None, for callers that only read q and
    the steps.
    """
    if stop is None:
        raise ValueError("greedy_schedule needs a RankStop or SampleStop")
    profile = _run_steps(taps, _greedy_chooser(taps), stop, "greedy",
                         overshoot=overshoot, materialize_sets=materialize_sets)
    return SamplingSchedule(profile.steps, "greedy"), profile


def _greedy_chooser(taps: TapSet) -> Callable[[int], int]:
    """The greedy step: the smallest sigma whose shifted taps meet ``seen`` most.

    All L overlap counts come from one big-int product (Kronecker
    substitution): ``seen`` spread to one lane per label, times the taps
    reversed, one lane each, holds |seen ^ (taps << s)| in lane top + s,
    where top = l_n - 1 is the highest bit ``seen`` can hold. No lane holds
    more than n (lane top counts |seen ^ taps|), so while n <= 15 a lane is
    one hex digit: ``int(format(seen, "b"), 16)`` spreads ``seen`` and the
    counts are read off the product's hex string. Wider tap sets get 1-, 2-,
    4- or 8-byte lanes. Shifts past l_n - l_1 meet nothing and count 0.
    """
    n = taps.n
    top = taps.positions[-1] - 1
    if n < 16:
        reversed_taps = sum(1 << 4 * (top - p + 1) for p in taps.positions)
        counts_at = 4 * (top + 1)  # digit top + 1 holds shift 1
        width = f"0{top}x"
        # The top tap never meets seen, so counts run from n - 1 down.
        digits = "0123456789abcdef"[n - 1:0:-1]

        def most_overlap(seen: int) -> int:
            # Big-endian: the digit at index i holds shift top - i, so the
            # last match is the smallest sigma on ties.
            counts = format(int(format(seen, "b"), 16) * reversed_taps >> counts_at, width)
            for digit in digits:
                i = counts.rfind(digit)
                if i >= 0:
                    return top - i
            return 1

        return most_overlap
    lane = next(b for b in (1, 2, 4, 8) if n < 1 << 8 * b)
    # a label bit 0/1 as one big-endian lane
    spread = str.maketrans({"0": "\0" * lane, "1": "\0" * (lane - 1) + "\1"})
    reversed_taps = sum(1 << 8 * lane * (top - p + 1) for p in taps.positions)
    counts_at = 8 * lane * (top + 1)  # lane top + 1 holds shift 1
    code = "BHIQ"[lane.bit_length() - 1]

    def most_overlap(seen: int) -> int:
        lanes = format(seen, "b").translate(spread).encode("latin-1")
        product = int.from_bytes(lanes, "big") * reversed_taps
        counts = (product >> counts_at).to_bytes(lane * top, sys.byteorder)
        if lane > 1:
            counts = memoryview(counts).cast(code).tolist()
            return counts.index(max(counts)) + 1  # the smallest sigma on ties
        for v in range(n - 1, 0, -1):  # the top tap never meets seen
            s = counts.find(v)
            if s >= 0:
                return s + 1  # the smallest sigma on ties
        return 1

    return most_overlap


def cyclic_schedule(
    taps: TapSet, stop: Stop = RankStop(), *, materialize_sets: bool = True
) -> tuple[SamplingSchedule, RepetitionProfile]:
    """Schedule cycling through the consecutive tap differences.

    Sampling distances follow d_1, .., d_{n-1}, d_1, .. indefinitely, which
    guarantees q_{i+p(n-1)} >= i repeated equations per position in the cycle.
    ``materialize_sets`` is as for :func:`greedy_schedule`.
    """
    if taps.n < 2:
        raise ValueError("cyclic schedule needs at least two taps")
    if stop is None:
        raise ValueError("cyclic_schedule needs a RankStop or SampleStop")
    profile = _run_steps(taps, _replay(itertools.cycle(consecutive_differences(taps))),
                         stop, "cyclic", materialize_sets=materialize_sets)
    return SamplingSchedule(profile.steps, "cyclic"), profile


def lambda_order(taps: TapSet) -> int:
    """max over shifts of |I_0 ^ (I_0 + sigma)|: the worst single-shift overlap."""
    if taps.n < 2:
        return 0
    counts: dict[int, int] = {}
    pos = taps.positions
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            diff = pos[j] - pos[i]
            counts[diff] = counts.get(diff, 0) + 1
    return max(counts.values())


def is_fpds(taps: TapSet) -> bool:
    """True iff all pairwise tap differences are distinct."""
    entries = difference_scheme(taps).entries()
    return len(entries) == len(set(entries))


def hybrid_window_profile(
    families: Sequence[tuple[str, TapSet]],
    steps: Sequence[int],
    model: str = "per-register",
) -> RepetitionProfile:
    """Repeated-bit profile for tap sets living on several registers.

    ``per-register`` counts intersections within each register's own timeline
    and sums them; ``merged`` drops the register tags, collapses duplicate
    labels and counts on a single timeline.
    """
    if model == "merged":
        merged = sorted({p for _, ts in families for p in ts.positions})
        L = max(ts.register_length for _, ts in families)
        merged_taps = TapSet(tuple(merged), L)
        prof = repetition_profile(merged_taps, steps)
        return RepetitionProfile(
            q=prof.q,
            samples=prof.samples,
            total=prof.total,
            n=sum(ts.n for _, ts in families),
            register_length=L,
            mode="custom",
            steps=prof.steps,
            repeated_sets=prof.repeated_sets,
        )
    if model != "per-register":
        raise ValueError("model must be 'per-register' or 'merged'")
    profiles = [(tag, repetition_profile(ts, steps)) for tag, ts in families]
    nsteps = len(tuple(steps))
    q = tuple(
        sum(prof.q[j] for _, prof in profiles) for j in range(nsteps)
    )
    sets = tuple(
        frozenset(
            (tag, label)
            for tag, prof in profiles
            for label in prof.repeated_sets[j]
        )
        for j in range(nsteps)
    )
    return RepetitionProfile(
        q=q,
        samples=nsteps + 1,
        total=sum(q),
        n=sum(ts.n for _, ts in families),
        register_length=max(ts.register_length for _, ts in families),
        mode="custom",
        steps=tuple(steps),
        repeated_sets=sets,
    )

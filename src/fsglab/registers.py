"""Shift-register simulation and filtering-function machinery.

Conventions (used everywhere in this package):

* Register cells are numbered 1..L left to right. One clock shifts every
  cell's content one place toward cell 1 and feeds the newly computed bit
  into cell L. Hence the bit sitting in cell j at time 0 sits in cell j - t
  after t clocks (while j - t >= 1).
* A register is clocked on its timeline: the list of every bit that has
  entered it, initial cells first, so entry t + p - 1 is cell p at time t
  (timeline label j is entry j - 1). ``timeline_clock`` is the only clock:
  ``keystream`` runs it on 0/1 entries, ``label_expressions`` on coefficient
  bitsets, and the window attack's replay on lane ints that hold one
  candidate per bit.
* States are tuples of 0/1 with index 0 holding cell 1; a hybrid state is a
  pair of them, LFSR first.
* Filter inputs x_1..x_n are read from tap positions l_1 < ... < l_n; the
  truth-table index is sum(x_i * 2^(i-1)) and output blocks pack z_1 as the
  least significant bit.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .sampling import TapSet, _Frozen, _set


class LfsrSpec(_Frozen):
    """Linear register: the new bit is the XOR of ``feedback_positions``."""

    __slots__ = ("length", "feedback_positions")

    def __init__(self, length: int, feedback_positions: Iterable[int]):
        if length < 1:
            raise ValueError("register length must be positive")
        fb = frozenset(feedback_positions)
        if not fb:
            raise ValueError("feedback_positions must be nonempty")
        if not all(1 <= p <= length for p in fb):
            raise ValueError("feedback positions must lie in 1..L")
        _set(self, "length", length)
        _set(self, "feedback_positions", fb)


class NfsrSpec(_Frozen):
    """Nonlinear register: update bit given in algebraic normal form.

    ``monomials`` is a tuple of position sets; each set is one product term
    over the current state, and the update bit is ``constant_term`` XORed
    with the sum of all products.
    """

    __slots__ = ("length", "constant_term", "monomials")

    def __init__(self, length: int, constant_term: int,
                 monomials: Iterable[Iterable[int]]):
        if length < 1:
            raise ValueError("register length must be positive")
        monos = tuple(dict.fromkeys(frozenset(m) for m in monomials))
        for mono in monos:
            if not mono:
                raise ValueError("empty monomial; fold constants into constant_term")
            if not all(1 <= p <= length for p in mono):
                raise ValueError("monomial position outside 1..length")
        _set(self, "length", length)
        _set(self, "constant_term", constant_term & 1)
        _set(self, "monomials", monos)


class HybridSpec(_Frozen):
    """LFSR/NFSR pair; with ``coupling`` the LFSR output enters the NFSR update."""

    __slots__ = ("lfsr", "nfsr", "coupling")

    def __init__(self, lfsr: LfsrSpec, nfsr: NfsrSpec, coupling: bool = True):
        if coupling and lfsr.length != nfsr.length:
            raise ValueError("coupled registers must have equal length")
        _set(self, "lfsr", lfsr)
        _set(self, "nfsr", nfsr)
        _set(self, "coupling", coupling)


class FilterSpec(_Frozen):
    """Filtering function F: GF(2)^n -> GF(2)^m as a full truth table."""

    __slots__ = ("n", "m", "truth_table")

    def __init__(self, n: int, m: int, truth_table: Sequence[int]):
        if not 1 <= m <= n:
            raise ValueError("need 1 <= m <= n")
        if len(truth_table) != 1 << n:
            raise ValueError("truth table must have 2^n entries")
        table = tuple(truth_table)
        if min(table) < 0 or max(table) >= 1 << m:
            raise ValueError("truth table entry out of range")
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "truth_table", table)

    def to_hex(self) -> str:
        """Lowercase hex, one zero-padded entry per table slot, entry 0 first."""
        width = (self.m + 3) // 4
        return "".join(format(v, f"0{width}x") for v in self.truth_table)

    @classmethod
    def from_hex(cls, n: int, m: int, text: str) -> "FilterSpec":
        width = (m + 3) // 4
        text = text.strip().lower()
        if len(text) != width * (1 << n):
            raise ValueError("hex table length does not match n, m")
        stray = text.translate(dict.fromkeys(map(ord, "0123456789abcdef")))
        if stray:
            raise ValueError(f"{stray[0]!r} is not a hex digit")
        entries = tuple(int(text[i * width:(i + 1) * width], 16) for i in range(1 << n))
        return cls(n, m, entries)

    @classmethod
    def uniform_random(cls, n: int, m: int, seed: int) -> "FilterSpec":
        """Seeded uniformly distributed filter (every z hit 2^(n-m) times)."""
        values = [z for z in range(1 << m) for _ in range(1 << (n - m))]
        random.Random(seed).shuffle(values)
        return cls(n, m, tuple(values))


class HybridTaps(_Frozen):
    """Tap sets for a register pair; filter inputs read LFSR taps first."""

    __slots__ = ("lfsr", "nfsr")

    def __init__(self, lfsr: TapSet, nfsr: TapSet):
        _set(self, "lfsr", lfsr)
        _set(self, "nfsr", nfsr)

    @property
    def total(self) -> int:
        return len(self.lfsr.positions) + len(self.nfsr.positions)


class GeneratorSpec(_Frozen):
    __slots__ = ("register", "taps", "filter")

    def __init__(self, register: LfsrSpec | NfsrSpec | HybridSpec,
                 taps: TapSet | HybridTaps, filter: FilterSpec):
        if isinstance(register, HybridSpec):
            if not isinstance(taps, HybridTaps):
                raise ValueError("hybrid register needs per-register tap sets")
            if taps.lfsr.register_length != register.lfsr.length:
                raise ValueError("LFSR tap set does not match register length")
            if taps.nfsr.register_length != register.nfsr.length:
                raise ValueError("NFSR tap set does not match register length")
            count = taps.total
        else:
            if not isinstance(taps, TapSet):
                raise ValueError("single register needs a single tap set")
            if taps.register_length != register.length:
                raise ValueError("tap set does not match register length")
            count = len(taps.positions)
        if filter.n != count:
            raise ValueError("filter arity must equal tap count")
        _set(self, "register", register)
        _set(self, "taps", taps)
        _set(self, "filter", filter)


# Maximal-length feedback tap tables for test registers, keyed by length.
# Entry (a, b, ...) encodes the recurrence polynomial x^L + x^a + x^b + ... + 1.
_PRIMITIVE_EXPONENTS: dict[int, tuple[int, ...]] = {
    8: (6, 5, 4),
    9: (5,),
    10: (7,),
    11: (9,),
    12: (6, 4, 1),
    13: (4, 3, 1),
    14: (5, 3, 1),
    15: (14,),
    16: (15, 13, 4),
    17: (14,),
    18: (11,),
    19: (6, 2, 1),
    20: (17,),
    21: (19,),
    22: (21,),
    23: (18,),
    24: (23, 22, 17),
    25: (22,),
    26: (6, 2, 1),
    27: (5, 2, 1),
    28: (25,),
    29: (27,),
    30: (6, 4, 1),
    31: (28,),
    32: (22, 2, 1),
}


def primitive_lfsr(length: int) -> LfsrSpec:
    """Built-in maximal-period LFSR for lengths 8..32."""
    if length not in _PRIMITIVE_EXPONENTS:
        raise ValueError(f"no built-in primitive feedback for L={length}")
    positions = frozenset({1} | {e + 1 for e in _PRIMITIVE_EXPONENTS[length]})
    return LfsrSpec(length, positions)


def primitive_lengths() -> tuple[int, ...]:
    return tuple(sorted(_PRIMITIVE_EXPONENTS))


def tap_reads(taps) -> list[tuple[int, int]]:
    """(timeline, offset) per filter input: input i reads ``lines[r][t + o]``."""
    if isinstance(taps, HybridTaps):
        return [(0, p - 1) for p in taps.lfsr.positions] + [
            (1, p - 1) for p in taps.nfsr.positions]
    return [(0, p - 1) for p in taps.positions]


def window_geometry(register, taps) -> tuple[list[tuple[str, TapSet]], int, int]:
    """(families, total_bits, window_length) of the distance-1 window that
    ``analyze`` prices and ``attack`` runs on an NFSR or hybrid generator.

    ``families`` tags each register's tap set, LFSR first. The window is the
    paper's p - 1 samples, p = L - l_n the least distance of a register's last
    tap from its end, so every tap read inside it lands on an original state
    cell. Raises ValueError unless (p - 1) * n exceeds total_bits.
    """
    if isinstance(register, NfsrSpec):
        families = [("nfsr", taps)]
    elif isinstance(register, HybridSpec):
        families = [("lfsr", taps.lfsr), ("nfsr", taps.nfsr)]
    else:
        raise ValueError("window recovery targets NFSR or hybrid generators")
    total = sum(ts.register_length for _, ts in families)
    window = min(ts.register_length - ts.positions[-1] for _, ts in families) - 1
    if window * sum(ts.n for _, ts in families) <= total:
        raise ValueError("window too short: need (p-1)*n > L")
    return families, total, window


def timeline_clock(register):
    """The clock of ``register`` on timelines: ``advance(lines, clocks, ones)``.

    ``lines`` holds one timeline per register (LFSR first in a hybrid), all
    at the same time t: a timeline of a length-L register holds L + t
    entries. ``advance`` appends ``clocks`` entries to each, the bits that
    enter cell L. Entries are lane ints under the all-lanes mask ``ones``;
    the LFSR part only XORs entries, so it also runs on coefficient bitsets.
    The feedback and monomial offsets are worked out here, once per run.
    """
    hybrid = isinstance(register, HybridSpec)
    lfsr = register.lfsr if hybrid else register if isinstance(register, LfsrSpec) else None
    nfsr = register.nfsr if hybrid else register if isinstance(register, NfsrSpec) else None
    length = (lfsr or nfsr).length  # of lines[0]
    feedback = sorted(p - 1 for p in lfsr.feedback_positions) if lfsr else None
    monomials = [sorted(p - 1 for p in mono) for mono in nfsr.monomials] if nfsr else None
    constant_term = nfsr.constant_term if nfsr else 0
    coupled = hybrid and register.coupling

    def advance(lines: list[list[int]], clocks: int, ones: int = 1) -> None:
        lfsr_line, nfsr_line = lines[0], lines[-1]  # one list for one register
        first = len(lfsr_line) - length  # the time t of every timeline
        constant = ones if constant_term else 0
        for s in range(first, first + clocks):
            if monomials is not None:
                bit = constant ^ lfsr_line[s] if coupled else constant
                for mono in monomials:
                    prod = ones
                    for o in mono:
                        prod &= nfsr_line[s + o]
                    bit ^= prod
                nfsr_line.append(bit)
            if feedback is not None:
                bit = 0
                for o in feedback:
                    bit ^= lfsr_line[s + o]
                lfsr_line.append(bit)

    return advance


def keystream(gen: GeneratorSpec, initial_state, count: int) -> list[int]:
    """First block is filtered from the initial state, then clock once per block."""
    reg = gen.register
    hybrid = isinstance(reg, HybridSpec)
    states = initial_state if hybrid else (initial_state,)
    lengths = (reg.lfsr.length, reg.nfsr.length) if hybrid else (reg.length,)
    if tuple(map(len, states)) != lengths:
        raise ValueError("state length mismatch")
    lines = [list(state) for state in states]
    timeline_clock(reg)(lines, count - 1)
    # Block t's truth-table index: bit i is input i's timeline entry t + o.
    idx = [0] * count
    for i, (r, o) in enumerate(tap_reads(gen.taps)):
        idx = [x | bit << i for x, bit in zip(idx, lines[r][o:o + count])]
    truth_table = gen.filter.truth_table
    return [truth_table[x] for x in idx]


def label_expressions(spec: LfsrSpec, max_label: int) -> list[int]:
    """Coefficient bitsets for timeline labels 1..max_label.

    Label j <= L is initial cell j; later labels are the LFSR's timeline run
    on coefficient bitsets. Index 0 of the result is label 1.
    """
    exprs = [1 << j for j in range(spec.length)]
    timeline_clock(spec)([exprs], max_label - spec.length)
    return exprs[:max_label]


def preimage_table(filt: FilterSpec) -> dict[int, tuple[int, ...]]:
    """Each output value's preimages in {0,1}^n, in truth-table index order."""
    classes: dict[int, list[int]] = {}
    for idx, z in enumerate(filt.truth_table):
        classes.setdefault(z, []).append(idx)
    return {z: tuple(members) for z, members in classes.items()}

"""Shift-register simulation and filtering-function machinery.

Conventions (used everywhere in this package):

* Register cells are numbered 1..L left to right. One clock shifts every
  cell's content one place toward cell 1 and feeds the newly computed bit
  into cell L. Hence the bit sitting in cell j at time 0 sits in cell j - t
  after t clocks (while j - t >= 1).
* States are tuples of 0/1 with index 0 holding cell 1.
* Filter inputs x_1..x_n are read from tap positions l_1 < ... < l_n; the
  truth-table index is sum(x_i * 2^(i-1)) and output blocks pack z_1 as the
  least significant bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .sampling import TapSet

State = tuple[int, ...]


@dataclass(frozen=True)
class LfsrSpec:
    """Linear register: the new bit is the XOR of ``feedback_positions``."""

    length: int
    feedback_positions: frozenset[int]

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("register length must be positive")
        fb = frozenset(self.feedback_positions)
        if not fb:
            raise ValueError("feedback_positions must be nonempty")
        if not all(1 <= p <= self.length for p in fb):
            raise ValueError("feedback positions must lie in 1..L")
        object.__setattr__(self, "feedback_positions", fb)


@dataclass(frozen=True)
class NfsrSpec:
    """Nonlinear register: update bit given in algebraic normal form.

    ``monomials`` is a tuple of position sets; each set is one product term
    over the current state, and the update bit is ``constant_term`` XORed
    with the sum of all products.
    """

    length: int
    constant_term: int
    monomials: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("register length must be positive")
        monos = tuple(dict.fromkeys(frozenset(m) for m in self.monomials))
        for mono in monos:
            if not mono:
                raise ValueError("empty monomial; fold constants into constant_term")
            if not all(1 <= p <= self.length for p in mono):
                raise ValueError("monomial position outside 1..length")
        object.__setattr__(self, "monomials", monos)
        object.__setattr__(self, "constant_term", self.constant_term & 1)


@dataclass(frozen=True)
class HybridSpec:
    """LFSR/NFSR pair; with ``coupling`` the LFSR output enters the NFSR update."""

    lfsr: LfsrSpec
    nfsr: NfsrSpec
    coupling: bool = True

    def __post_init__(self):
        if self.coupling and self.lfsr.length != self.nfsr.length:
            raise ValueError("coupled registers must have equal length")


@dataclass(frozen=True)
class FilterSpec:
    """Filtering function F: GF(2)^n -> GF(2)^m as a full truth table."""

    n: int
    m: int
    truth_table: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise ValueError("need 1 <= m <= n")
        if len(self.truth_table) != 1 << self.n:
            raise ValueError("truth table must have 2^n entries")
        if any(not 0 <= v < (1 << self.m) for v in self.truth_table):
            raise ValueError("truth table entry out of range")
        object.__setattr__(self, "truth_table", tuple(self.truth_table))

    def apply(self, bits: tuple[int, ...]) -> int:
        idx = 0
        for i, b in enumerate(bits):
            idx |= (b & 1) << i
        return self.truth_table[idx]

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
        entries = tuple(int(text[i * width:(i + 1) * width], 16) for i in range(1 << n))
        return cls(n, m, entries)

    @classmethod
    def uniform_random(cls, n: int, m: int, seed: int) -> "FilterSpec":
        """Seeded uniformly distributed filter (every z hit 2^(n-m) times)."""
        values = [z for z in range(1 << m) for _ in range(1 << (n - m))]
        random.Random(seed).shuffle(values)
        return cls(n, m, tuple(values))


@dataclass(frozen=True)
class HybridTaps:
    """Tap sets for a register pair; filter inputs read LFSR taps first."""

    lfsr: TapSet
    nfsr: TapSet

    @property
    def total(self) -> int:
        return len(self.lfsr.positions) + len(self.nfsr.positions)


@dataclass(frozen=True)
class GeneratorSpec:
    register: LfsrSpec | NfsrSpec | HybridSpec
    taps: TapSet | HybridTaps
    filter: FilterSpec

    def __post_init__(self):
        if isinstance(self.register, HybridSpec):
            if not isinstance(self.taps, HybridTaps):
                raise ValueError("hybrid register needs per-register tap sets")
            if self.taps.lfsr.register_length != self.register.lfsr.length:
                raise ValueError("LFSR tap set does not match register length")
            if self.taps.nfsr.register_length != self.register.nfsr.length:
                raise ValueError("NFSR tap set does not match register length")
            count = self.taps.total
        else:
            if not isinstance(self.taps, TapSet):
                raise ValueError("single register needs a single tap set")
            if self.taps.register_length != self.register.length:
                raise ValueError("tap set does not match register length")
            count = len(self.taps.positions)
        if self.filter.n != count:
            raise ValueError("filter arity must equal tap count")


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


def lfsr_step(state: State, spec: LfsrSpec) -> State:
    """One clock: shift toward cell 1, feedback bit enters cell L."""
    if len(state) != spec.length:
        raise ValueError("state length mismatch")
    fb = 0
    for p in spec.feedback_positions:
        fb ^= state[p - 1]
    return state[1:] + (fb,)


def nfsr_step(state: State, spec: NfsrSpec, xor_in: int = 0) -> State:
    """One clock of the nonlinear register; ``xor_in`` folds a coupled bit in."""
    if len(state) != spec.length:
        raise ValueError("state length mismatch")
    bit = spec.constant_term ^ (xor_in & 1)
    for mono in spec.monomials:
        prod = 1
        for p in mono:
            prod &= state[p - 1]
            if not prod:
                break
        bit ^= prod
    return state[1:] + (bit,)


def hybrid_step(state: tuple[State, State], spec: HybridSpec) -> tuple[State, State]:
    lfsr_state, nfsr_state = state
    xor_in = lfsr_state[0] if spec.coupling else 0
    return (
        lfsr_step(lfsr_state, spec.lfsr),
        nfsr_step(nfsr_state, spec.nfsr, xor_in=xor_in),
    )


def step_register(state, register):
    if isinstance(register, LfsrSpec):
        return lfsr_step(state, register)
    if isinstance(register, NfsrSpec):
        return nfsr_step(state, register)
    if isinstance(register, HybridSpec):
        return hybrid_step(state, register)
    raise TypeError(f"unknown register spec {type(register).__name__}")


def read_taps(state, taps) -> tuple[int, ...]:
    if isinstance(taps, HybridTaps):
        lfsr_state, nfsr_state = state
        return tuple(lfsr_state[p - 1] for p in taps.lfsr.positions) + tuple(
            nfsr_state[p - 1] for p in taps.nfsr.positions
        )
    return tuple(state[p - 1] for p in taps.positions)


def keystream(gen: GeneratorSpec, initial_state, count: int) -> list[int]:
    """First block is filtered from the initial state, then clock once per block."""
    state = initial_state
    blocks = []
    for _ in range(count):
        blocks.append(gen.filter.apply(read_taps(state, gen.taps)))
        state = step_register(state, gen.register)
    return blocks


def label_expressions(spec: LfsrSpec, max_label: int) -> list[int]:
    """Coefficient bitsets for timeline labels 1..max_label.

    Label j <= L is initial cell j; later labels follow the feedback
    recurrence. Index 0 of the result is label 1.
    """
    L = spec.length
    exprs = [1 << j for j in range(min(L, max_label))]
    offsets = [p - L - 1 for p in sorted(spec.feedback_positions)]
    for label in range(L + 1, max_label + 1):
        acc = 0
        for off in offsets:
            acc ^= exprs[label + off - 1]
        exprs.append(acc)
    return exprs


def preimage_table(filt: FilterSpec) -> dict[int, tuple[int, ...]]:
    """Each output value's preimages in {0,1}^n, in truth-table index order."""
    classes: dict[int, list[int]] = {}
    for idx, z in enumerate(filt.truth_table):
        classes.setdefault(z, []).append(idx)
    return {z: tuple(members) for z, members in classes.items()}

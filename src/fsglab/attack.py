"""Attack execution: state recovery along a per-sample plan.

Both recovery engines walk the samples depth first. Which filter inputs reread
a timeline label fixed by an earlier sample depends only on the taps and the
schedule, so ``_sample_plan`` works it out once. A path is a label bitset of
its guessed bits. Samples are processed in schedule order and preimages in
truth-table index order, which makes every run deterministic.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Sequence

from . import gf2
from .registers import (
    GeneratorSpec,
    HybridSpec,
    HybridTaps,
    LfsrSpec,
    NfsrSpec,
    label_expressions,
    preimage_table,
    read_taps,
    step_register,
)
from .sampling import (
    NoOverdefinedSystemError,
    SamplingSchedule,
    hybrid_window_profile,
    repetition_profile,
)


class KeystreamFormatError(ValueError):
    """Keystream is malformed, truncated, inconsistent with its header, or
    too short for the attack."""


@dataclass(frozen=True)
class AttackResult:
    recovered_state: tuple | None
    systems_solved: int
    candidates_pruned: int
    wall_clock: float


@dataclass(frozen=True)
class WindowRecovery:
    window_length: int
    recovered_bit_count: int
    remaining_guess: int
    per_sample_sizes: tuple[int, ...]


def _sample_plan(reads: Sequence[Sequence[int]]) -> list[tuple]:
    """Per sample ``(mask, fixed, fresh)``, given the label ``reads[s][i]``
    that filter input i reads at sample s (no sample reads a label twice).

    ``mask`` has bit i set iff an earlier sample read input i's label, and
    ``fixed`` lists those (input, label) pairs; ``fresh`` lists the others.
    """
    seen = 0
    plan = []
    for labels in reads:
        mask = 0
        fixed, fresh = [], []
        for i, label in enumerate(labels):
            if seen >> label & 1:
                mask |= 1 << i
                fixed.append((i, label))
            else:
                fresh.append((i, label))
        for _, label in fresh:
            seen |= 1 << label
        plan.append((mask, tuple(fixed), tuple(fresh)))
    return plan


def _matching(members: Sequence[int], mask: int, fixed, path: int) -> list[int]:
    """Preimages x with ``x & mask == want``: the path's bits at the fixed inputs."""
    want = 0
    for i, label in fixed:
        want |= (path >> label & 1) << i
    return [x for x in members if x & mask == want]


def _state(value: int, lengths: Sequence[int]) -> tuple:
    """0/1 register state from a bitset over the cells, register after register."""
    parts = []
    for length in lengths:
        parts.append(tuple((value >> j) & 1 for j in range(length)))
        value >>= length
    return parts[0] if len(parts) == 1 else tuple(parts)


def _replays(gen: GeneratorSpec, state, observed: Sequence[int]) -> bool:
    """True when the state regenerates every observed block (early abort)."""
    for z in observed:
        if gen.filter.apply(read_taps(state, gen.taps)) != z:
            return False
        state = step_register(state, gen.register)
    return True


def gfsga_recover(
    gen: GeneratorSpec,
    blocks: Sequence[int],
    schedule: SamplingSchedule,
    completion_cap_bits: int = 14,
) -> AttackResult:
    """Recover an LFSR filter generator's initial state from sampled blocks.

    Depth-first over per-sample filtered preimages; every new label adds one
    linear equation, and as soon as the accumulated system reaches full rank
    it is solved and the candidate state checked against the whole observed
    keystream. The overdefined-count condition does not guarantee full rank
    (distinct equations can be linearly dependent), so a path that survives
    the schedule short of full rank is completed by sweeping its undetermined
    dimensions: L minus the rank of every label the schedule reads, refused
    before enumerating above ``completion_cap_bits``. Returns the first
    verified state in enumeration order or a failure marker.
    """
    if not isinstance(gen.register, LfsrSpec):
        raise ValueError("gfsga_recover handles LFSR generators")
    taps = gen.taps
    L = gen.register.length
    profile = repetition_profile(taps, schedule.steps, materialize_sets=False)
    if not profile.is_overdefined():
        raise ValueError("schedule does not produce an overdefined system")
    shifts = [0]
    for s in schedule.steps:
        shifts.append(shifts[-1] + s)
    if shifts[-1] >= len(blocks):
        raise KeystreamFormatError("keystream does not cover the sampling schedule")
    exprs = label_expressions(gen.register, taps.positions[-1] + shifts[-1])
    plan = _sample_plan([[pos + shift for pos in taps.positions] for shift in shifts])
    rank = gf2.rank_of([exprs[label - 1] for *_, fresh in plan for _, label in fresh], L)
    if L - rank > completion_cap_bits:
        raise NoOverdefinedSystemError(
            f"labels read have rank {rank} of {L}: {L - rank} free bits exceed "
            f"the completion cap of {completion_cap_bits}")
    table = preimage_table(gen.filter)

    started = time.perf_counter()
    solved = 0
    pruned = 0
    successes: list[tuple] = []

    def dfs(sample: int, path: int, elim: gf2.Eliminator) -> None:
        nonlocal solved, pruned
        if sample == len(plan):
            # Consistent but rank-deficient path: sweep the missing dimensions.
            solved += 1
            for value in elim.solutions():
                state = _state(value, (L,))
                if _replays(gen, state, blocks):
                    successes.append(state)
            return
        members = table.get(blocks[shifts[sample]])
        if members is None:
            pruned += 1
            return
        mask, fixed, fresh = plan[sample]
        for x in _matching(members, mask, fixed, path):
            branch = path
            branch_elim = elim.copy()
            for i, label in fresh:
                bit = (x >> i) & 1
                if branch_elim.add_row(exprs[label - 1], bit) == gf2.INCONSISTENT:
                    pruned += 1
                    break
                branch |= bit << label
            else:
                if branch_elim.rank < L:
                    dfs(sample + 1, branch, branch_elim)
                else:
                    solved += 1
                    state = _state(branch_elim.solve(), (L,))
                    if _replays(gen, state, blocks):
                        successes.append(state)

    dfs(0, 0, gf2.Eliminator(L))
    wall = time.perf_counter() - started
    state = successes[0] if successes else None
    return AttackResult(state, solved, pruned, wall)


def _window_geometry(gen: GeneratorSpec):
    """(families, total_bits, window_length) for the distance-1 window attack."""
    reg = gen.register
    if isinstance(reg, NfsrSpec):
        families = [("nfsr", gen.taps)]
        total = reg.length
        p = reg.length - gen.taps.positions[-1]
    elif isinstance(reg, HybridSpec):
        taps: HybridTaps = gen.taps
        families = [("lfsr", taps.lfsr), ("nfsr", taps.nfsr)]
        total = reg.lfsr.length + reg.nfsr.length
        p = min(
            reg.lfsr.length - taps.lfsr.positions[-1],
            reg.nfsr.length - taps.nfsr.positions[-1],
        )
    else:
        raise ValueError("window recovery targets NFSR or hybrid generators")
    return families, total, p - 1


def nfsr_window_recover(
    gen: GeneratorSpec,
    blocks: Sequence[int],
) -> tuple[WindowRecovery, AttackResult]:
    """Distance-1 window attack against NFSR or hybrid generators.

    All tap reads inside the window land on original state cells, so joint
    candidates for the covered bits are enumerated directly from the filtered
    preimage spaces. Cell ``pos`` of register r carries label
    ``offset_r + pos``, the registers laid end to end. The 2^free completions
    of a joint's uncovered cells are replayed bitsliced against the keystream
    past the window (``_first_completion``); the first surviving completion
    of the first joint that has one is the recovered state, as if every
    completion were replayed one at a time in enumeration order.
    ``systems_solved`` counts every completion of every joint.
    """
    families, total_bits, window = _window_geometry(gen)
    n, m = gen.filter.n, gen.filter.m
    if window * n <= total_bits:
        raise ValueError("window too short: need (p-1)*n > L")
    need = window + -(-total_bits // m)
    if len(blocks) < need:
        raise KeystreamFormatError(
            f"need at least {need} blocks ({window} window + state verification)"
        )
    table = preimage_table(gen.filter)
    lengths = [ts.register_length for _, ts in families]
    offsets = [sum(lengths[:r]) for r in range(len(lengths))]
    plan = _sample_plan([
        [off + pos + s for off, (_, ts) in zip(offsets, families) for pos in ts.positions]
        for s in range(window)
    ])

    started = time.perf_counter()
    pruned = 0
    joints: list[int] = []

    def dfs(sample: int, path: int) -> None:
        nonlocal pruned
        if sample == window:
            joints.append(path)
            return
        members = table.get(blocks[sample])
        if members is None:
            pruned += 1
            return
        mask, fixed, fresh = plan[sample]
        filtered = _matching(members, mask, fixed, path)
        if not filtered:
            pruned += 1
        for x in filtered:
            branch = path
            for i, label in fresh:
                branch |= ((x >> i) & 1) << label
            dfs(sample + 1, branch)

    dfs(0, 0)

    # Covered labels are the plan's fresh labels; every joint fixes them all.
    # Label j is cell j - 1, so a joint's cell bitset is joint >> 1.
    covered = sum(1 << label for *_, fresh in plan for _, label in fresh)
    free_cells = [cell for cell in range(total_bits) if not covered >> (cell + 1) & 1]
    # A joint reproduces the window's blocks whatever its free cells hold.
    value = _first_completion(
        gen, blocks, table, [joint >> 1 for joint in joints], free_cells, window)

    wall = time.perf_counter() - started
    sizes = tuple(1 << max(0, n - m - q) for q in _window_q(families, window))
    recovery = WindowRecovery(
        window_length=window,
        recovered_bit_count=covered.bit_count(),
        remaining_guess=len(free_cells),
        per_sample_sizes=(1 << (n - m),) + sizes,
    )
    state = None if value is None else _state(value, lengths)
    result = AttackResult(state, len(joints) << len(free_cells), pruned, wall)
    return recovery, result


def _window_q(families, window: int) -> list[int]:
    if window < 2:
        return []
    return list(hybrid_window_profile(families, [1] * (window - 1)).q)


# Completions replayed side by side: a lane int holds 2^_LANE_BITS of them.
_LANE_BITS = 10


def _first_completion(
    gen: GeneratorSpec,
    blocks: Sequence[int],
    table: dict[int, tuple[int, ...]],
    bases: Sequence[int],
    free_cells: Sequence[int],
    checked: int,
) -> int | None:
    """First state, in enumeration order, that regenerates every block.

    The candidates are each base cell bitset (register after register) with
    ``free_cells`` completed every way: completion k sets ``free_cells[i]``
    iff bit i of k is set, so the first free cell varies fastest. Every
    candidate is known to match the first ``checked`` blocks. Returns the
    winning state's cell bitset, or None.

    The candidates are replayed bitsliced (Biham, FSE 1997): each cell is one
    lane int whose bit k is completion k's value of it, 2^_LANE_BITS
    completions per chunk, chunks in ascending order. Each register keeps a
    timeline of lane ints, one entry appended per clock, so cell p at time t
    is ``line[t + p - 1]``. A block keeps the lanes whose tap values form one
    of its preimages, and a chunk stops once no lane is left.
    """
    reg, taps = gen.register, gen.taps
    hybrid = isinstance(reg, HybridSpec)
    nfsr = reg.nfsr if hybrid else reg
    split = reg.lfsr.length if hybrid else 0
    lfsr_reads = [p - 1 for p in taps.lfsr.positions] if hybrid else []
    nfsr_reads = [p - 1 for p in (taps.nfsr if hybrid else taps).positions]
    feedback = [p - 1 for p in reg.lfsr.feedback_positions] if hybrid else []
    coupled = hybrid and reg.coupling
    monomials = [[p - 1 for p in mono] for mono in nfsr.monomials]

    lane_bits = min(len(free_cells), _LANE_BITS)
    full = (1 << (1 << lane_bits)) - 1
    constant = full if nfsr.constant_term else 0
    # Lane int of free cell i < lane_bits: bit k set iff bit i of k is.
    patterns = [
        (((1 << (1 << i)) - 1) << (1 << i)) * (full // ((1 << (2 << i)) - 1))
        for i in range(lane_bits)
    ]
    high = free_cells[lane_bits:]  # constant within a chunk
    for base in bases:
        cells = [full if base >> j & 1 else 0 for j in range(split + nfsr.length)]
        for j, pattern in zip(free_cells, patterns):
            cells[j] = pattern
        for chunk in range(1 << len(high)):
            for i, j in enumerate(high):
                cells[j] = full if chunk >> i & 1 else 0
            lfsr_line, nfsr_line = cells[:split], cells[split:]
            alive = full
            for t, z in enumerate(blocks):
                if t:
                    s = t - 1
                    bit = constant ^ lfsr_line[s] if coupled else constant
                    for mono in monomials:
                        prod = full
                        for o in mono:
                            prod &= nfsr_line[s + o]
                        bit ^= prod
                    nfsr_line.append(bit)
                    if hybrid:
                        bit = 0
                        for o in feedback:
                            bit ^= lfsr_line[s + o]
                        lfsr_line.append(bit)
                if t < checked:
                    continue
                members = table.get(z)
                if members is None:  # no state at all yields this block
                    return None
                # terms[x]: the live lanes whose tap values spell table index x.
                terms = [alive]
                for tap in [lfsr_line[t + o] for o in lfsr_reads] + [
                        nfsr_line[t + o] for o in nfsr_reads]:
                    off = tap ^ full
                    terms = [lanes & off for lanes in terms] + [lanes & tap for lanes in terms]
                alive = 0
                for x in members:
                    alive |= terms[x]
                if not alive:
                    break
            if alive:
                k = chunk << lane_bits | (alive & -alive).bit_length() - 1
                return base | sum(1 << j for i, j in enumerate(free_cells) if k >> i & 1)
    return None


# ---------------------------------------------------------------------------
# Keystream files: 16-byte header (n, m, L, count as little-endian u32),
# then the blocks bit-packed LSB-first, z_1 in each block's lowest bit.

_HEADER = struct.Struct("<4I")


def write_keystream_file(path, n: int, m: int, L: int, blocks: Sequence[int]) -> None:
    nbits = len(blocks) * m
    buf = bytearray(_HEADER.size + (nbits + 7) // 8)
    _HEADER.pack_into(buf, 0, n, m, L, len(blocks))
    bit = 0
    for block in blocks:
        for j in range(m):
            if (block >> j) & 1:
                buf[_HEADER.size + (bit >> 3)] |= 1 << (bit & 7)
            bit += 1
    with open(path, "wb") as fh:
        fh.write(bytes(buf))


def read_keystream_file(path) -> tuple[tuple[int, int, int, int], list[int]]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise KeystreamFormatError("file shorter than its header")
    n, m, L, count = _HEADER.unpack_from(raw, 0)
    if not (1 <= m <= n):
        raise KeystreamFormatError("header violates 1 <= m <= n")
    body = raw[_HEADER.size:]
    expected = (count * m + 7) // 8
    if len(body) != expected:
        raise KeystreamFormatError(
            f"expected {expected} payload bytes for {count} blocks, found {len(body)}"
        )
    blocks = []
    bit = 0
    for _ in range(count):
        block = 0
        for j in range(m):
            if body[bit >> 3] >> (bit & 7) & 1:
                block |= 1 << j
            bit += 1
        blocks.append(block)
    return (n, m, L, count), blocks

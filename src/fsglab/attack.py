"""Attack execution: state recovery along a per-sample plan.

Both recovery engines walk the samples depth first. Which filter inputs reread
a timeline label fixed by an earlier sample depends only on the taps and the
schedule, so ``_sample_plan`` works it out once, and a path picks its
preimages with one lookup in the sample's ``_buckets``. A path is a label
bitset of its guessed bits. The LFSR attack also compiles its GF(2)
elimination once per schedule (``_compile``): parity checks prune, and a
state is an XOR of label contributions. Samples are processed in schedule
order and preimages in truth-table index order, which makes every run
deterministic.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Sequence

from .registers import (
    GeneratorSpec,
    HybridSpec,
    HybridTaps,
    LfsrSpec,
    NfsrSpec,
    label_expressions,
    preimage_table,
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

    ``fixed`` lists the (input, label) pairs whose label an earlier sample
    read, and ``mask`` is the bitset of those labels; ``fresh`` lists the
    other pairs.
    """
    seen = 0
    plan = []
    for labels in reads:
        mask = 0
        fixed, fresh = [], []
        for i, label in enumerate(labels):
            if seen >> label & 1:
                mask |= 1 << label
                fixed.append((i, label))
            else:
                fresh.append((i, label))
        for _, label in fresh:
            seen |= 1 << label
        plan.append((mask, tuple(fixed), tuple(fresh)))
    return plan


def _spread(x: int, inputs) -> int:
    """The label bitset that preimage x sets at the (input, label) pairs."""
    return sum((x >> i & 1) << label for i, label in inputs)


def _buckets(members: Sequence[int], fixed, fresh) -> dict[int, list[int]]:
    """A sample's preimages as the label bitsets their fresh inputs set,
    grouped by the label bitset their fixed inputs set, so that a path picks
    its group as ``path & mask``. Truth-table order is kept inside a group."""
    groups: dict[int, list[int]] = {}
    for x in members:
        groups.setdefault(_spread(x, fixed), []).append(_spread(x, fresh))
    return groups


def _state(value: int, lengths: Sequence[int]) -> tuple:
    """0/1 register state from a bitset over the cells, register after register."""
    parts = []
    for length in lengths:
        parts.append(tuple((value >> j) & 1 for j in range(length)))
        value >>= length
    return parts[0] if len(parts) == 1 else tuple(parts)


def _regenerates(value: int, exprs: Sequence[int], positions: Sequence[int],
                 truth_table: Sequence[int], blocks: Sequence[int]) -> bool:
    """True when the LFSR state ``value`` (bit j - 1: cell j) regenerates every
    block. Block t's input i is label ``t + positions[i]``, the parity of
    ``exprs[t + positions[i] - 1] & value``; the first mismatch aborts."""
    for t, z in enumerate(blocks):
        idx = 0
        for i, pos in enumerate(positions):
            idx |= ((exprs[t + pos - 1] & value).bit_count() & 1) << i
        if truth_table[idx] != z:
            return False
    return True


def _compile(plan: Sequence[tuple], exprs: Sequence[int], L: int, sampled) -> tuple:
    """The guess-independent part of ``gfsga_recover``: (rank, steps,
    contributions, offsets), given each sample's preimages ``sampled[s]``.

    Fresh label rows are reduced once, in plan order, each tracking the
    labels whose expressions it combines, up to the sample that reaches rank
    L. A row that reduces to zero is a parity check c: a consistent path has
    even ``parity(path & c)``. ``steps[s]`` is None if no preimage yields the
    block, else ``(mask, checks, groups, sizes)``: ``groups`` appends one
    syndrome bit per check to the ``_buckets`` keys, and ``sizes`` counts
    each bucket before that split, so the preimages a check prunes are
    counted unvisited. After Gauss-Jordan, the particular solution (free
    columns zero) XORs ``contributions[j]`` over the path's set labels j, and
    ``offsets[a]`` XORs the null vectors of the free columns at the bits of
    a, in an incremental eliminator's sweep order.
    """
    basis: dict[int, list[int]] = {}  # pivot column -> [row, label combo]
    steps = []
    for (mask, fixed, fresh), members in zip(plan, sampled):
        checks = []
        for _, label in fresh:
            row, combo = exprs[label - 1], 1 << label
            while row:
                p = row.bit_length() - 1
                if p not in basis:
                    basis[p] = [row, combo]
                    break
                row ^= basis[p][0]
                combo ^= basis[p][1]
            else:
                checks.append(combo)
        if members is None:
            steps.append(None)
        else:
            groups: dict[int, list[int]] = {}
            sizes = {}
            for want, spreads in _buckets(members, fixed, fresh).items():
                sizes[want] = len(spreads)
                for spread in spreads:
                    key = want
                    for check in checks:
                        key = key << 1 | (spread & check).bit_count() & 1
                    groups.setdefault(key, []).append(spread)
            steps.append((mask, tuple(checks), groups, sizes))
        if len(basis) == L:
            break
    pivots = sorted(basis)
    for k, p in enumerate(pivots):
        for q in pivots[:k]:
            if basis[p][0] >> q & 1:
                basis[p][0] ^= basis[q][0]
                basis[p][1] ^= basis[q][1]
    top = max(label for *_, fresh in plan[:len(steps)] for _, label in fresh)
    contributions = [0] * (top + 1)
    for p, (_, combo) in basis.items():
        while combo:
            low = combo & -combo
            contributions[low.bit_length() - 1] |= 1 << p
            combo ^= low
    offsets = [0]
    for j in range(L):
        if j not in basis:
            null = sum((row >> j & 1) << p for p, (row, _) in basis.items()) | 1 << j
            offsets += [offset ^ null for offset in offsets]
    return len(basis), steps, contributions, offsets


def gfsga_recover(
    gen: GeneratorSpec,
    blocks: Sequence[int],
    schedule: SamplingSchedule,
    completion_cap_bits: int = 14,
) -> AttackResult:
    """Recover an LFSR filter generator's initial state from sampled blocks.

    Depth-first over per-sample filtered preimages. Every new label adds one
    linear equation; which equations are independent depends only on the
    schedule, so ``_compile`` reduces them once and turns each dependent one
    into a parity check on the path. At the sample that reaches full rank, a
    surviving path's state is an XOR of precomputed label contributions,
    checked against the whole observed keystream. The overdefined-count
    condition does not guarantee full rank, so a path that survives the
    schedule short of it sweeps the missing dimensions: L minus the rank of
    every label the schedule reads, refused before enumerating above
    ``completion_cap_bits``. Returns the first verified state in enumeration
    order or a failure marker.
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
    positions = taps.positions
    exprs = label_expressions(gen.register, positions[-1] + len(blocks) - 1)
    plan = _sample_plan([[pos + shift for pos in positions] for shift in shifts])
    table = preimage_table(gen.filter)
    rank, steps, contributions, offsets = _compile(
        plan, exprs, L, [table.get(blocks[shift]) for shift in shifts])
    if L - rank > completion_cap_bits:
        raise NoOverdefinedSystemError(
            f"labels read have rank {rank} of {L}: {L - rank} free bits exceed "
            f"the completion cap of {completion_cap_bits}")
    depth = len(steps) - 1
    truth_table = gen.filter.truth_table

    started = time.perf_counter()
    solved = 0
    pruned = 0
    successes: list[tuple] = []

    def dfs(sample: int, path: int) -> None:
        nonlocal solved, pruned
        if steps[sample] is None:
            pruned += 1
            return
        mask, checks, groups, sizes = steps[sample]
        key = want = path & mask
        for check in checks:
            key = key << 1 | (path & check).bit_count() & 1
        branches = groups.get(key, ())
        if checks:
            pruned += sizes.get(want, 0) - len(branches)
        if sample < depth:
            for spread in branches:
                dfs(sample + 1, path | spread)
            return
        solved += len(branches)
        for spread in branches:
            branch = path | spread
            base = 0
            while branch:
                low = branch & -branch
                base ^= contributions[low.bit_length() - 1]
                branch ^= low
            for offset in offsets:
                if _regenerates(base ^ offset, exprs, positions, truth_table, blocks):
                    successes.append(_state(base ^ offset, (L,)))

    dfs(0, 0)
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
    groups = []
    for sample, (_, fixed, fresh) in enumerate(plan):
        members = table.get(blocks[sample])
        groups.append(None if members is None else _buckets(members, fixed, fresh))

    started = time.perf_counter()
    pruned = 0
    joints: list[int] = []

    def dfs(sample: int, path: int) -> None:
        nonlocal pruned
        if sample == window:
            joints.append(path)
            return
        if groups[sample] is None:
            pruned += 1
            return
        filtered = groups[sample].get(path & plan[sample][0], ())
        if not filtered:
            pruned += 1
        for spread in filtered:
            dfs(sample + 1, path | spread)

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

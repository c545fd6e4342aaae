"""Attack execution: state recovery along a per-sample plan.

Both recovery engines walk the samples depth first. Which filter inputs reread
a timeline label fixed by an earlier sample depends only on the taps and the
schedule, so ``_sample_plan`` works it out once. A path is a label bitset of
its guessed bits. Samples are processed in schedule order and preimages in
truth-table index order, which makes every run deterministic.
"""

from __future__ import annotations

import itertools
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
    """Per sample ``(mask, fixed, fresh, twins)``, given the label
    ``reads[s][i]`` that filter input i reads at sample s.

    ``mask`` has bit i set iff an earlier sample read input i's label, and
    ``fixed`` lists those (input, label) pairs. ``fresh`` pairs each label new
    at this sample with its first input; ``twins`` pairs that input with each
    later one rereading the label.
    """
    seen = 0
    plan = []
    for labels in reads:
        mask = 0
        fixed, fresh, twins = [], [], []
        first: dict[int, int] = {}  # fresh label -> its first input
        for i, label in enumerate(labels):
            if seen >> label & 1:
                mask |= 1 << i
                fixed.append((i, label))
            elif label in first:
                twins.append((first[label], i))
            else:
                first[label] = i
                fresh.append((i, label))
        for label in first:
            seen |= 1 << label
        plan.append((mask, tuple(fixed), tuple(fresh), tuple(twins)))
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
    rank = gf2.rank_of([exprs[label - 1] for *_, fresh, _ in plan for _, label in fresh], L)
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
        mask, fixed, fresh, _ = plan[sample]
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
    model: str = "per-register",
) -> tuple[WindowRecovery, AttackResult]:
    """Distance-1 window attack against NFSR or hybrid generators.

    All tap reads inside the window land on original state cells, so joint
    candidates for the covered bits are enumerated directly from the filtered
    preimage spaces; each candidate's uncovered bits are exhausted and the
    regenerated keystream compared with the observation. Cell ``pos`` of
    register r carries label ``offset_r + pos``; ``merged`` shares offset 0.
    """
    if model not in ("per-register", "merged"):
        raise ValueError("model must be 'per-register' or 'merged'")
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
    cell_offsets = [sum(lengths[:r]) for r in range(len(lengths))]
    label_offsets = [0] * len(lengths) if model == "merged" else cell_offsets
    plan = _sample_plan([
        [off + pos + s for off, (_, ts) in zip(label_offsets, families) for pos in ts.positions]
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
        mask, fixed, fresh, twins = plan[sample]
        filtered = _matching(members, mask, fixed, path)
        if not filtered:
            pruned += 1
        for x in filtered:
            if any((x >> i ^ x >> j) & 1 for i, j in twins):
                pruned += 1
                continue
            branch = path
            for i, label in fresh:
                branch |= ((x >> i) & 1) << label
            dfs(sample + 1, branch)

    dfs(0, 0)

    # Covered labels are the plan's fresh labels; every joint fixes them all.
    covered = sum(1 << label for *_, fresh, _ in plan for _, label in fresh)
    recovered_bits = covered.bit_count()
    remaining = total_bits - recovered_bits

    # A (0, cell bit) choice per cell of an uncovered label. product() steps
    # its last argument fastest, so the lowest cell goes last.
    choices = [
        (0, 1 << (cell_off + pos - 1))
        for cell_off, label_off, length in zip(cell_offsets, label_offsets, lengths)
        for pos in range(1, length + 1)
        if not covered >> (label_off + pos) & 1
    ]

    verified = 0
    successes = []
    for joint in joints:
        base = 0
        for cell_off, label_off, length in zip(cell_offsets, label_offsets, lengths):
            base |= ((joint >> (label_off + 1)) & ((1 << length) - 1)) << cell_off
        for bits in itertools.product(*reversed(choices)):
            state = _state(base | sum(bits), lengths)
            verified += 1
            if _replays(gen, state, blocks):
                successes.append(state)

    wall = time.perf_counter() - started
    sizes = tuple(1 << max(0, n - m - q) for q in _window_q(families, window, model))
    recovery = WindowRecovery(
        window_length=window,
        recovered_bit_count=recovered_bits,
        remaining_guess=remaining,
        per_sample_sizes=(1 << (n - m),) + sizes,
    )
    result = AttackResult(successes[0] if successes else None, verified, pruned, wall)
    return recovery, result


def _window_q(families, window: int, model: str) -> list[int]:
    if window < 2:
        return []
    return list(hybrid_window_profile(families, [1] * (window - 1), model=model).q)


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

"""Attack execution: GF(2) systems, preimage filtering and state recovery.

The recovery engines enumerate per-sample preimage candidates depth first,
keeping a store of known bits keyed by integer timeline labels so that a
candidate contradicting an already-fixed bit is cut immediately. Samples are
processed in schedule order and preimages in truth-table index order, which
makes every run deterministic.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import gf2
from .registers import (
    GeneratorSpec,
    HybridSpec,
    HybridTaps,
    LfsrSpec,
    NfsrSpec,
    PreimageSpace,
    label_expressions,
    preimage_table,
    read_taps,
    step_register,
)
from .sampling import SamplingSchedule, repetition_profile


class KeystreamFormatError(ValueError):
    """Keystream is malformed, truncated, inconsistent with its header, or
    too short for the attack."""


@dataclass(frozen=True)
class AttackResult:
    recovered_state: tuple | None
    systems_solved: int
    candidates_pruned: int
    wall_clock: float

    @property
    def succeeded(self) -> bool:
        return self.recovered_state is not None


@dataclass(frozen=True)
class WindowRecovery:
    window_length: int
    recovered_bit_count: int
    remaining_guess: int
    per_sample_sizes: tuple[int, ...]


def filtered_preimages(space: PreimageSpace, known: Mapping[int, int]) -> PreimageSpace:
    """Members agreeing with the known input bits (positions are 1-based)."""
    if any(not 1 <= p for p in known):
        raise ValueError("input positions are 1-based")
    members = []
    for x in space.members:
        if all((x >> (pos - 1)) & 1 == bit for pos, bit in known.items()):
            members.append(x)
    return PreimageSpace(space.output_value, tuple(members))


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
    the schedule short of full rank is completed by sweeping its at most
    ``completion_cap_bits`` undetermined dimensions. Returns the first
    verified state in enumeration order or a failure marker.
    """
    if not isinstance(gen.register, LfsrSpec):
        raise ValueError("gfsga_recover handles LFSR generators")
    taps = gen.taps
    L = gen.register.length
    n = taps.n
    profile = repetition_profile(taps, schedule.steps, materialize_sets=False)
    if not profile.is_overdefined():
        raise ValueError("schedule does not produce an overdefined system")
    shifts = [0]
    for s in schedule.steps:
        shifts.append(shifts[-1] + s)
    if shifts[-1] >= len(blocks):
        raise KeystreamFormatError("keystream does not cover the sampling schedule")
    exprs = label_expressions(gen.register, taps.positions[-1] + shifts[-1])
    table = preimage_table(gen.filter)
    positions = taps.positions

    started = time.perf_counter()
    solved = 0
    pruned = 0
    successes: list[tuple] = []

    def verify(state_bits: tuple) -> bool:
        return _replays(gen, state_bits, blocks)

    def complete_path(elim: gf2.Eliminator) -> None:
        # Consistent but rank-deficient path: sweep the missing dimensions.
        nonlocal solved
        if L - elim.rank > completion_cap_bits:
            return
        solved += 1
        for value in elim.solutions():
            state = tuple((value >> j) & 1 for j in range(L))
            if verify(state):
                successes.append(state)

    def dfs(sample: int, known: dict[int, int], elim) -> None:
        nonlocal solved, pruned
        if sample == len(shifts):
            complete_path(elim)
            return
        shift = shifts[sample]
        space = table.get(blocks[shift])
        if space is None:
            pruned += 1
            return
        constraints = {}
        fresh = []
        for i, pos in enumerate(positions):
            label = pos + shift
            if label in known:
                constraints[i + 1] = known[label]
            else:
                fresh.append((i, label))
        for x in filtered_preimages(space, constraints).members:
            branch_known = dict(known)
            branch_elim = elim.copy()
            ok = True
            for i, label in fresh:
                bit = (x >> i) & 1
                branch_known[label] = bit
                if branch_elim.add_row(exprs[label - 1], bit) == gf2.INCONSISTENT:
                    ok = False
                    break
            if not ok:
                pruned += 1
                continue
            if branch_elim.rank == L:
                solved += 1
                value = branch_elim.solve()
                state = tuple((value >> j) & 1 for j in range(L))
                if verify(state):
                    successes.append(state)
            else:
                dfs(sample + 1, branch_known, branch_elim)

    dfs(0, {}, gf2.Eliminator(L))
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
    regenerated keystream compared with the observation.
    """
    if model not in ("per-register", "merged"):
        raise ValueError("model must be 'per-register' or 'merged'")
    families, total_bits, window = _window_geometry(gen)
    n = gen.filter.n
    m = gen.filter.m
    if window * n <= total_bits:
        raise ValueError("window too short: need (p-1)*n > L")
    need = window + -(-total_bits // m)
    if len(blocks) < need:
        raise KeystreamFormatError(
            f"need at least {need} blocks ({window} window + state verification)"
        )
    table = preimage_table(gen.filter)

    # Input slot -> (family tag, register position) in filter input order.
    slots: list[tuple[str, int]] = []
    for tag, ts in families:
        slots.extend((tag, pos) for pos in ts.positions)

    def slot_key(tag: str, pos: int):
        return pos if model == "merged" else (tag, pos)

    started = time.perf_counter()
    pruned = 0
    joints: list[dict] = []

    def dfs(sample: int, known: dict) -> None:
        nonlocal pruned
        if sample == window:
            joints.append(known)
            return
        space = table.get(blocks[sample])
        if space is None:
            pruned += 1
            return
        constraints = {}
        fresh = []
        for i, (tag, pos) in enumerate(slots):
            key = slot_key(tag, pos + sample)
            if key in known:
                constraints[i + 1] = known[key]
            else:
                fresh.append((i, key))
        filtered = filtered_preimages(space, constraints)
        if not filtered.members:
            pruned += 1
        for x in filtered.members:
            branch = dict(known)
            consistent = True
            for i, key in fresh:
                bit = (x >> i) & 1
                if branch.get(key, bit) != bit:  # merged model can self-collide
                    consistent = False
                    break
                branch[key] = bit
            if consistent:
                dfs(sample + 1, branch)
            else:
                pruned += 1

    dfs(0, {})

    # Covered labels are path-independent; measure them from the tap layout.
    covered: set = set()
    for s in range(window):
        for tag, ts in families:
            for pos in ts.positions:
                covered.add(slot_key(tag, pos + s))
    recovered_bits = len(covered)
    remaining = total_bits - recovered_bits

    all_positions: list[tuple[str, int]] = []
    if isinstance(gen.register, HybridSpec):
        all_positions += [("lfsr", p) for p in range(1, gen.register.lfsr.length + 1)]
        all_positions += [("nfsr", p) for p in range(1, gen.register.nfsr.length + 1)]
    else:
        all_positions += [("nfsr", p) for p in range(1, gen.register.length + 1)]

    def build_states(assign: dict):
        if isinstance(gen.register, HybridSpec):
            lf = tuple(assign[("lfsr", p)] for p in range(1, gen.register.lfsr.length + 1))
            nf = tuple(assign[("nfsr", p)] for p in range(1, gen.register.nfsr.length + 1))
            return (lf, nf)
        return tuple(assign[("nfsr", p)] for p in range(1, gen.register.length + 1))

    verified = 0
    successes = []
    free_slots = [
        (tag, pos)
        for tag, pos in all_positions
        if slot_key(tag, pos) not in covered
    ]
    observed = list(blocks)
    for joint in joints:
        base = {}
        for tag, pos in all_positions:
            key = slot_key(tag, pos)
            if key in joint:
                base[(tag, pos)] = joint[key]
        for guess in range(1 << len(free_slots)):
            assign = dict(base)
            for j, slot in enumerate(free_slots):
                assign[slot] = (guess >> j) & 1
            state = build_states(assign)
            verified += 1
            if _replays(gen, state, observed):
                successes.append(state)

    wall = time.perf_counter() - started
    sizes = tuple(
        1 << max(0, n - m - q)
        for q in _window_q(families, window, model)
    )
    recovery = WindowRecovery(
        window_length=window,
        recovered_bit_count=recovered_bits,
        remaining_guess=remaining,
        per_sample_sizes=(1 << (n - m),) + sizes,
    )
    result = AttackResult(
        successes[0] if successes else None, verified, pruned, wall
    )
    return recovery, result


def _window_q(families, window: int, model: str) -> list[int]:
    from .sampling import hybrid_window_profile

    steps = [1] * (window - 1)
    if not steps:
        return []
    prof = hybrid_window_profile(list(families), steps, model=model)
    return list(prof.q)


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

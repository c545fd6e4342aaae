"""Attack execution: state recovery along a per-sample plan.

Which filter inputs reread a timeline label fixed by an earlier sample
depends only on the taps and the schedule, so ``_sample_plan`` works it out
once, and a path picks its preimages with one lookup in a bucket table of
the sample. Every sample reads the first sample's labels shifted, so each
attack spreads the preimages over those labels once (``_spread_table``) and
shifts the table per sample. A path is a label bitset of its guessed bits.
Both attacks plan through ``_compile``, the window attack with identity
label expressions (label j is cell j - 1), so only the LFSR attack gets
parity checks. ``_buckets``, which only ``_compile`` calls, groups a
sample's preimages: the key is the fixed labels' bits, followed by one
syndrome bit per parity check at that sample. ``_walk`` is the only frontier
loop: each sample's step maps the ordered list of live paths to the next
one, in slices of at most ``_FRONTIER_CAP`` paths, which yields the leaves
in the same order as a depth-first walk. The LFSR attack expands two consecutive check-free
one-label samples in one step (``_PairChildren``), and replays a leaf's
candidates, its label bits with each completion offset, on a timeline of
label-domain words, so no leaf builds a state. Samples are processed in
schedule order and preimages in truth-table index order, which makes every
run deterministic.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from functools import partial, reduce
from itertools import repeat
from operator import eq, or_, xor
from typing import Callable, Sequence

from .config import COMPLETION_CAP_BITS, MAX_KEYSTREAM_BLOCKS
from .registers import (
    GeneratorSpec,
    HybridSpec,
    LfsrSpec,
    label_expressions,
    preimage_table,
    tap_reads,
    timeline_clock,
    window_geometry,
)
from .sampling import NoOverdefinedSystemError, SamplingSchedule, _Frozen, _set


class KeystreamFormatError(ValueError):
    """Keystream is malformed, truncated, inconsistent with its header, or
    too short for the attack."""


class AttackResult(_Frozen):
    __slots__ = ("recovered_state", "systems_solved", "candidates_pruned")

    def __init__(self, recovered_state: tuple | None, systems_solved: int,
                 candidates_pruned: int):
        _set(self, "recovered_state", recovered_state)
        _set(self, "systems_solved", systems_solved)
        _set(self, "candidates_pruned", candidates_pruned)


class WindowRecovery(_Frozen):
    __slots__ = ("window_length", "recovered_bit_count", "remaining_guess",
                 "per_sample_sizes")

    def __init__(self, window_length: int, recovered_bit_count: int, remaining_guess: int,
                 per_sample_sizes: tuple[int, ...]):
        _set(self, "window_length", window_length)
        _set(self, "recovered_bit_count", recovered_bit_count)
        _set(self, "remaining_guess", remaining_guess)
        _set(self, "per_sample_sizes", per_sample_sizes)


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


def _spread_table(labels: Sequence[int]) -> list[int]:
    """Entry x: the label bitset that preimage x sets when input i reads
    ``labels[i]``."""
    table = [0]
    for label in labels:
        table += [spread | 1 << label for spread in table]
    return table


def _buckets(members: Sequence[int], table: Sequence[int], mask: int,
             shift: int, checks: Sequence[int] = ()) -> dict[int, list[int]]:
    """A sample's preimages as the label bitsets their fresh inputs set,
    grouped by the label bitset their fixed inputs set followed by one
    syndrome bit per check c, the parity of ``spread & c``, so that a path
    picks its group as ``path & mask`` followed by its own parity bit per
    check. The sample reads the labels of ``table`` (a ``_spread_table``)
    plus ``shift``, and ``mask`` holds its fixed labels. Truth-table order
    is kept inside a group."""
    sel = mask >> shift
    groups: dict[int, list[int]] = {}
    for x in members:
        spread = table[x]
        key = (spread & sel) << shift
        spread = (spread ^ spread & sel) << shift
        if checks:  # cheaper than an empty loop for the check-free window attack
            for check in checks:
                key = key << 1 | (spread & check).bit_count() & 1
        groups.setdefault(key, []).append(spread)
    return groups


def _state(value: int, lengths: Sequence[int]) -> tuple:
    """0/1 register state from a bitset over the cells, register after register."""
    parts = []
    for length in lengths:
        parts.append(tuple((value >> j) & 1 for j in range(length)))
        value >>= length
    return parts[0] if len(parts) == 1 else tuple(parts)


def _regenerates(value: int, exprs: Sequence[int], positions: Sequence[int],
                 truth_table: Sequence[int], blocks: Sequence[int],
                 order: Sequence[int] | None = None) -> bool:
    """True when ``value`` regenerates every block, read through one word
    per label: an LFSR state (bit j - 1: cell j) through the label
    expressions, or an LFSR attack candidate through its label-domain words.
    Block t's input i is label ``t + positions[i]``, the parity of
    ``exprs[t + positions[i] - 1] & value``, and bit i of the truth-table
    index. Blocks are tested in ``order``, a permutation of their indices
    (keystream order if None); the first mismatch aborts."""
    last_first = [pos - 1 for pos in reversed(positions)]
    for t in range(len(blocks)) if order is None else order:
        idx = 0
        for o in last_first:
            idx = idx << 1 | (exprs[t + o] & value).bit_count() & 1
        if truth_table[idx] != blocks[t]:
            return False
    return True


def _least_covered_order(shifts: Sequence[int], positions: Sequence[int],
                         count: int) -> list[int]:
    """Block indices 0..count-1 ranked by how few of their labels
    ``t + positions[i]`` the blocks at ``shifts`` read, ties by t. A
    candidate is built to reproduce the blocks at ``shifts``; a block that
    shares few labels with them is the least constrained by that, so it is
    the likeliest to refute a wrong candidate."""
    taps = sum(1 << pos for pos in positions)
    read = 0
    for shift in shifts:
        read |= taps << shift
    covered = [(read >> t & taps).bit_count() for t in range(count)]
    return sorted(range(count), key=covered.__getitem__)  # stable: ties by t


class _OffsetBits(dict):
    """Per block t, the truth-table index bits that each completion offset
    adds to a candidate's (``_compile``), offsets in ascending order, built
    on first use: input i's bit flips with offset bit j when bit ``above +
    j`` of its label word is set."""

    __slots__ = ("words", "positions", "above", "free")

    def __init__(self, words: Sequence[int], positions: Sequence[int], above: int, free: int):
        super().__init__()
        self.words, self.positions, self.above, self.free = words, positions, above, free

    def __missing__(self, t: int) -> list[int]:
        reads = [self.words[t + pos - 1] >> self.above for pos in self.positions]
        bits = [0]
        for j in range(self.free):
            flips = sum((word >> j & 1) << i for i, word in enumerate(reads))
            bits += [b ^ flips for b in bits]
        self[t] = bits
        return bits


def _first_offset(path: int, words: Sequence[int], positions: Sequence[int],
                  truth_table: Sequence[int], blocks: Sequence[int], order: Sequence[int],
                  offset_bits: _OffsetBits) -> int | None:
    """The lowest completion offset o whose candidate ``path | o << above``
    regenerates every block, or None. All offsets are filtered one block at
    a time, in ``order``: the path's own truth-table index is worked out
    once per block, and ``offset_bits[t]`` gives what each offset adds to
    it. Once at most one offset is live, it finishes through
    ``_regenerates`` on the blocks left."""
    live = range(1 << offset_bits.free)
    last_first = [pos - 1 for pos in reversed(positions)]
    for k, t in enumerate(order):
        idx = 0
        for o in last_first:
            idx = idx << 1 | (words[t + o] & path).bit_count() & 1
        z, bits = blocks[t], offset_bits[t]
        live = [o for o in live if truth_table[idx ^ bits[o]] == z]
        if len(live) < 2:
            break
    else:
        return live[0]  # every block passed: the lowest live offset is first
    if live and _regenerates(path | live[0] << offset_bits.above, words, positions,
                             truth_table, blocks, order[k + 1:]):
        return live[0]
    return None


def _compile(plan: Sequence[tuple], exprs: Sequence[int], L: int, sampled,
             spreads: Sequence[int], shifts: Sequence[int]) -> tuple:
    """The guess-independent part of both attacks: (steps, cells, above,
    free), given each sample's preimages ``sampled[s]``, the ``_spread_table``
    of the tap positions and each sample's shift. Under the window attack's
    identity expressions (label j is cell j - 1) every fresh label is a
    pivot, no step has a check, and the free columns are the unread cells.

    Fresh label rows are reduced once, in plan order, each tracking the
    labels whose expressions it combines, up to the sample that reaches rank
    L. A row that reduces to zero is a parity check c: a consistent path has
    even ``parity(path & c)``. ``steps[s]`` is None if no preimage yields the
    block, else ``(mask, checks, groups, sizes)``: ``groups`` are the
    sample's ``_buckets`` with one syndrome bit per check in the key, and
    ``sizes`` (None without checks) sums their lengths per fixed-label key,
    so the preimages a check prunes are counted unvisited. Gauss-Jordan then takes
    the pivots in ascending order and XORs into each row only the earlier
    pivot rows whose column the row has set.

    ``free`` is L minus the rank of the labels read, and ``above`` is one
    past the highest label a path can hold. A candidate is ``path | o <<
    above``: the path's guessed label bits and a completion offset o, whose
    bit i sets the i-th free column (lowest first). ``cells`` are its L
    label-domain cells: cell p of the candidate's state is ``parity(cells[p]
    & candidate)``. A free column's word is its offset bit; a pivot's is its
    label combo plus the offset bit of every free column its row has set.
    """
    basis: dict[int, list[int]] = {}  # pivot column -> [row, label combo]
    steps = []
    for (mask, _, fresh), members, shift in zip(plan, sampled, shifts):
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
            groups = _buckets(members, spreads, mask, shift, checks)
            sizes = None
            if checks:
                sizes = {}
                for key, bucket in groups.items():
                    key >>= len(checks)
                    sizes[key] = sizes.get(key, 0) + len(bucket)
            steps.append((mask, tuple(checks), groups, sizes))
        if len(basis) == L:
            break
    # Ascending pivots: a row's earlier pivots are fully reduced already, so
    # XORing one in clears that pivot's bit and sets no other pivot's.
    pivot_bits = sum(1 << p for p in basis)
    for p in sorted(basis):
        row = basis[p]
        hits = row[0] & pivot_bits ^ 1 << p
        while hits:
            low = hits & -hits
            earlier = basis[low.bit_length() - 1]
            row[0] ^= earlier[0]
            row[1] ^= earlier[1]
            hits ^= low
    above = 1 + max(label for *_, fresh in plan[:len(steps)] for _, label in fresh)
    cells = [0] * L
    free = [j for j in range(L) if j not in basis]
    for i, j in enumerate(free):
        cells[j] = 1 << above + i
    # After Gauss-Jordan a row holds its pivot and free columns only.
    for p, (row, combo) in basis.items():
        rest = row ^ 1 << p
        while rest:
            low = rest & -rest
            combo |= cells[low.bit_length() - 1]
            rest ^= low
        cells[p] = combo
    return steps, cells, above, len(free)


class _PairChildren(dict):
    """What two consecutive check-free compiled steps add to a path: the
    label bitsets, in walk order, keyed by the path's bits at their fixed
    labels and built on first use."""

    __slots__ = ("first", "second")

    def __init__(self, first: tuple, second: tuple):
        super().__init__()
        self.first, self.second = first, second

    def __missing__(self, key: int) -> list[int]:
        mask, _, groups, _ = self.first
        then, _, after, _ = self.second
        children = self[key] = [one | two for one in groups.get(key & mask, ())
                                for two in after.get((key | one) & then, ())]
        return children


# The steps of ``_walk``, bound to a sample's tables with ``partial``: each
# maps the ordered list of live paths to the next one and the paths it pruned.

def _plain_step(mask: int, groups: dict, paths: list[int]) -> tuple[list[int], int]:
    """A check-free LFSR sample: a path without a bucket ends unpruned."""
    return [path | spread for path in paths for spread in groups.get(path & mask, ())], 0


def _pair_step(mask: int, children: _PairChildren, paths: list[int]) -> tuple[list[int], int]:
    """Two check-free one-label LFSR samples with fixed labels ``mask``, one
    lookup per path; a one-label bucket holds 2 spreads at most, so 4 children."""
    return [path | child for path in paths for child in children[path & mask]], 0


def _checked_step(mask: int, checks: tuple, groups: dict, sizes: dict,
                  paths: list[int]) -> tuple[list[int], int]:
    """An LFSR sample with parity checks, keyed as in ``_compile``; the
    preimages a check rules out are counted pruned."""
    keys = wants = [path & mask for path in paths]
    for check in checks:
        keys = [key << 1 | (path & check).bit_count() & 1 for key, path in zip(keys, paths)]
    paths = [path | spread for path, key in zip(paths, keys) for spread in groups.get(key, ())]
    return paths, sum(map(sizes.get, wants, repeat(0))) - len(paths)


def _counting_step(mask: int, groups: dict, paths: list[int]) -> tuple[list[int], int]:
    """A window sample: a path that finds no bucket is counted pruned."""
    get = groups.get
    branches = [get(path & mask, ()) for path in paths]  # every bucket is non-empty
    paths = [path | spread for path, bucket in zip(paths, branches) for spread in bucket]
    return paths, branches.count(())


# Live paths expanded together: a larger frontier is walked in slices of this
# many, so memory stays bounded.
_FRONTIER_CAP = 1024


def _walk(steps: Sequence, leaf: Callable[[list[int]], object]) -> int:
    """Walk the path 0 through ``steps`` and return the paths they pruned.

    A step is None, which prunes every path that reaches it, or maps the
    ordered list of live paths to the next one and the paths it pruned; the
    lists that pass the last step go to ``leaf``. A longer list than
    ``_FRONTIER_CAP`` short of the last step is cut into slices, pushed last
    first on the work stack, so the leaves come in depth-first order."""
    pruned = 0
    last = len(steps) - 1
    cap = _FRONTIER_CAP
    work = [(0, [0])]
    while work:
        first, paths = work.pop()
        for index in range(first, last + 1):
            step = steps[index]
            if step is None:
                pruned += len(paths)
                break
            paths, cut = step(paths)
            pruned += cut
            if index < last and len(paths) > cap:
                work += [(index + 1, paths[at:at + cap]) for at in reversed(range(0, len(paths), cap))]
                break
        else:
            leaf(paths)
    return pruned


def gfsga_recover(
    gen: GeneratorSpec,
    blocks: Sequence[int],
    schedule: SamplingSchedule,
) -> AttackResult:
    """Recover an LFSR filter generator's initial state from sampled blocks.

    Expands per-sample filtered preimages with ``_walk``. Every new label
    adds one linear equation; which equations are independent depends only
    on the schedule, so ``_compile`` reduces them once and turns each
    dependent one into a parity check on the path, one syndrome bit of its
    bucket key. Two consecutive steps that exist, carry no check and read
    one fresh label each are one walk step: a path's children through both
    depend only on its bits at their fixed labels, so ``_PairChildren``
    builds them once per such key, and the leaf order and both counters stay
    those of the step-by-step walk.

    The overdefined-count condition does not guarantee full rank, so a path
    that survives the schedule short of it sweeps the missing dimensions:
    the free bits, L minus the rank of every label the schedule reads,
    refused before enumerating above ``config.COMPLETION_CAP_BITS``. A
    candidate is the path's label bits with a completion offset above them.
    The compiled label-domain cells, run on the LFSR's timeline up to the
    keystream's last label, give each label's bit as the parity of the
    candidate and the label's word, so no leaf builds a state. Each slice
    of leaves is replayed as it comes. Without free bits a path is one
    candidate, checked by ``_regenerates``; otherwise ``_first_offset``
    filters all its offsets a block at a time and finishes a lone one the
    same way. Returns the first verified state in enumeration order (the
    lowest surviving offset of the first path that has one) or a failure
    marker. The walk still runs to its end once a state is verified, so
    that ``systems_solved`` counts every leaf (not its 2^free offsets), but
    replays no candidate after it. ``candidates_pruned`` counts the paths
    that reach a block without preimages and the preimages a parity check
    rules out; a path that finds no bucket ends uncounted. The blocks
    whose labels the compiled steps read least are tested first
    (``_least_covered_order``), except by a first lone candidate, which is
    replayed in keystream order until one fails.
    """
    if not isinstance(gen.register, LfsrSpec):
        raise ValueError("gfsga_recover handles LFSR generators")
    taps = gen.taps
    L = gen.register.length
    positions = taps.positions
    shifts = [0]
    for s in schedule.steps:
        if not 1 <= s <= L:
            raise ValueError("sampling distances must lie in 1..L")
        shifts.append(shifts[-1] + s)
    plan = _sample_plan([[pos + shift for pos in positions] for shift in shifts])
    if sum(len(fresh) for _, _, fresh in plan) <= L:  # n*c - R distinct labels
        raise ValueError("schedule does not produce an overdefined system")
    if shifts[-1] >= len(blocks):
        raise KeystreamFormatError("keystream does not cover the sampling schedule")
    exprs = label_expressions(gen.register, positions[-1] + shifts[-1])
    table = preimage_table(gen.filter)
    steps, words, above, free = _compile(
        plan, exprs, L, [table.get(blocks[shift]) for shift in shifts],
        _spread_table(positions), shifts)
    if free > COMPLETION_CAP_BITS:
        raise NoOverdefinedSystemError(
            f"labels read have rank {L - free} of {L}: {free} free bits "
            f"exceed the completion cap of {COMPLETION_CAP_BITS}")
    # The cells run on the LFSR's timeline up to the keystream's last label:
    # the map is linear, so label k's bit is parity(words[k - 1] & candidate).
    timeline_clock(gen.register)([words], positions[-1] + len(blocks) - 1 - L)
    truth_table = gen.filter.truth_table
    # Check-free one-label neighbours pair from the first sample on; the first's
    # fresh label, which the second may fix, is clear in every path there.
    walk = []
    successors = [*steps[1:], None]
    sample = 0
    while sample < len(steps):
        step, after = steps[sample], successors[sample]
        if step is None:
            walk.append(None)
        elif step[1]:
            walk.append(partial(_checked_step, *step))
        elif (after is not None and not after[1]
              and len(plan[sample][2]) == len(plan[sample + 1][2]) == 1):
            walk.append(partial(_pair_step, step[0] | after[0], _PairChildren(step, after)))
            sample += 1
        else:
            walk.append(partial(_plain_step, step[0], step[2]))
        sample += 1

    solved = 0
    found = None  # the first verified candidate; later leaves are only counted
    # Replay block order, ranked once a first candidate fails; a sweep of
    # several offsets filters in the ranked order from the start.
    order = _least_covered_order(shifts[:len(steps)], positions, len(blocks)) if free else None
    offset_bits = _OffsetBits(words, positions, above, free)

    def replay(paths: list[int]) -> None:
        nonlocal solved, found, order
        solved += len(paths)
        if found is not None:
            return
        for path in paths:
            if free:
                offset = _first_offset(path, words, positions, truth_table, blocks, order,
                                       offset_bits)
            else:
                offset = 0 if _regenerates(path, words, positions, truth_table, blocks,
                                           order) else None
            if offset is not None:
                found = path | offset << above
                return
            if order is None:
                order = _least_covered_order(shifts[:len(steps)], positions, len(blocks))

    pruned = _walk(walk, replay)
    state = None if found is None else tuple((found & word).bit_count() & 1 for word in words[:L])
    return AttackResult(state, solved, pruned)


def nfsr_window_recover(
    gen: GeneratorSpec,
    blocks: Sequence[int],
) -> tuple[WindowRecovery, AttackResult]:
    """Distance-1 window attack against NFSR or hybrid generators, over the
    window of :func:`~fsglab.registers.window_geometry`.

    All tap reads inside the window land on original state cells, so joint
    candidates for the covered bits are enumerated directly from the filtered
    preimage spaces. Cell ``pos`` of register r carries label
    ``offset_r + pos``, the registers laid end to end. The plan goes
    through ``_compile`` with identity label expressions, each compiled step
    is walked as a ``_counting_step``, and the joints are collected from
    ``_walk``, in depth-first order, before the replay starts. The joints
    and the 2^free completions of their free cells are replayed bitsliced
    against the keystream past the compiled samples (``_first_completion``):
    a lane int holds the completions of as many consecutive joints as fit
    in its 2^_LANE_BITS = 4096 lanes, lane completion * joints + joint, so a
    job of at most 4096 candidates is one chunk. The first surviving
    completion of the first joint that has one is the recovered state, as if
    every completion were replayed one at a time in enumeration order.
    ``systems_solved`` counts every completion of every joint, and
    ``candidates_pruned`` every path that finds no preimage.
    """
    families, total_bits, window = window_geometry(gen.register, gen.taps)
    n, m = gen.filter.n, gen.filter.m
    need = window + -(-total_bits // m)
    if len(blocks) < need:
        raise KeystreamFormatError(
            f"need at least {need} blocks ({window} window + state verification)"
        )
    table = preimage_table(gen.filter)
    lengths = [ts.register_length for _, ts in families]
    offsets = [sum(lengths[:r]) for r in range(len(lengths))]
    labels = [off + pos for off, (_, ts) in zip(offsets, families) for pos in ts.positions]
    plan = _sample_plan([[label + s for label in labels] for s in range(window)])
    steps, cells, above, _ = _compile(
        plan, [1 << j for j in range(total_bits)], total_bits,
        [table.get(blocks[s]) for s in range(window)], _spread_table(labels), range(window))
    joints: list[int] = []
    pruned = _walk([None if step is None else partial(_counting_step, step[0], step[2])
                    for step in steps], joints.extend)

    # A joint's cell bitset is joint >> 1; its free cells never change the checked blocks.
    free_cells = [cell for cell in range(total_bits) if cells[cell] >> above]
    value = _first_completion(
        gen, blocks, table, [joint >> 1 for joint in joints], free_cells, len(steps))

    # A sample's q, its taps that reread a cell of the window, is len(fixed).
    recovery = WindowRecovery(
        window_length=window,
        recovered_bit_count=total_bits - len(free_cells),
        remaining_guess=len(free_cells),
        per_sample_sizes=tuple(1 << max(0, n - m - len(fixed)) for _, fixed, _ in plan),
    )
    state = None if value is None else _state(value, lengths)
    result = AttackResult(state, len(joints) << len(free_cells), pruned)
    return recovery, result


# Candidates replayed side by side: a lane int holds 2^_LANE_BITS of them.
# Each chunk pays a transposition, a clock through the window and one
# ``_preimage_lanes`` call per block tested, so wider chunks pay these fewer
# times; past the winner, a chunk's lanes are wasted work. On a seed-0
# recover-window pass on a 2-core VM, 12 bits replays 110 chunks with 942
# block tests, against 175 and 1,438 at 10 bits. Over three runs of 41
# interleaved in-process passes (seeds 0, 4242, 0), the median pass took
# 0.90-0.92 of its time at 10 bits; 11 bits took 0.92-0.95, and 13 bits
# 0.91-0.92 with twice the lanes past the winner.
_LANE_BITS = 12


def _split_preimages(table: dict[int, tuple[int, ...]], n: int) -> dict[int, tuple]:
    """Each output value's preimages split over the last filter input: per z,
    ``(lo, hi, both)`` sets of indices y < 2^(n - 1) over the first n - 1
    inputs, where z is the output at y only, at y + 2^(n - 1) only, or at
    both."""
    half = 1 << (n - 1)
    split = {}
    for z, members in table.items():
        cut = bisect_left(members, half)
        lo = set(members[:cut])
        hi = {y - half for y in members[cut:]}
        split[z] = (lo - hi, hi - lo, lo & hi)
    return split


def _preimage_lanes(values: Sequence[int], alive: int, split: tuple) -> int:
    """The lanes of ``alive`` whose tap values form a preimage of z, given one
    lane int per filter input and z's ``_split_preimages`` entry.

    ``terms[y]`` holds the live lanes whose first n - 1 tap values spell y;
    the last input then picks the lo or hi half, so the widest level holds
    2^(n - 1) terms, not 2^n."""
    terms = [alive]
    for tap in values[:-1]:
        on = [*map(tap.__and__, terms)]
        terms = [*map(xor, terms, on), *on]  # lanes & ~tap, then lanes & tap
    get = terms.__getitem__
    lo, hi, both = split
    lo = reduce(or_, map(get, lo), 0)
    return lo ^ (lo ^ reduce(or_, map(get, hi), 0)) & values[-1] | reduce(or_, map(get, both), 0)


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
    winning state's cell bitset, or None, at once if a later block has no
    preimage at all.

    The candidates are replayed bitsliced (Biham, FSE 1997): each cell is one
    lane int with one bit per candidate, at most 2^_LANE_BITS = 4096 lanes
    per chunk, chunks in ascending order; each chunk pays one transposition,
    one clock through the window and one test per block. The first
    f = min(free, _LANE_BITS) free cells vary inside a chunk: with ``size``
    bases in the chunk, lane k * size + i is base i with those cells set as
    in k, so a base cell's lane int is its column of base bits times a
    repeat of ones, and only base cells are transposed. A chunk holds
    2^(_LANE_BITS - f) consecutive bases when free <= _LANE_BITS; otherwise
    it holds one base, with the other free cells fixed per chunk. Each
    register keeps a timeline of lane ints, so cell p at time t is
    ``line[t + p - 1]``; ``timeline_clock`` runs them through the window in
    one call, then one clock per tested block. A block keeps the lanes whose
    tap values form one of its preimages (``_preimage_lanes``), and a chunk
    stops once no lane is left. Once a block leaves one lane, every timeline
    is cut down to that lane's bit and clocked through all the remaining
    blocks in one call; their truth-table indices are compared with the
    blocks in order, up to the first mismatch. In the first chunk with a
    surviving lane, the first candidate in enumeration order is the lowest
    live lane of the lowest base that has one.
    """
    if any(z not in table for z in blocks[checked:]):
        return None  # no state at all yields that block
    reg = gen.register
    hybrid = isinstance(reg, HybridSpec)
    split = reg.lfsr.length if hybrid else 0
    width = split + (reg.nfsr if hybrid else reg).length
    advance = timeline_clock(reg)
    reads = tap_reads(gen.taps)
    truth_table = gen.filter.truth_table
    halves = _split_preimages(table, len(reads))
    top = 1 << width
    last = len(blocks) - 1

    f = min(len(free_cells), _LANE_BITS)
    per_chunk = 1 << (_LANE_BITS - f)  # 1 when free > _LANE_BITS
    high = free_cells[f:]  # constant within a chunk
    base_cells = [j for j in range(width) if j not in free_cells]
    for start in range(0, len(bases), per_chunk):
        joints = bases[start:start + per_chunk]
        size = len(joints)
        full = (1 << (size << f)) - 1
        copies = full // ((1 << size) - 1)  # lane k * size for every k
        # Transpose: one binary string per joint, last joint first, each
        # "0b1" and then its cells, highest first (``top`` fixes the length),
        # so every (width + 3)-th character from ``width + 2 - j`` holds cell
        # j of every joint; times ``copies``, joint i's bit fills lanes
        # k * size + i. The free cells' lanes are set below instead.
        rows = "".join(map(bin, map(top.__or__, reversed(joints))))
        cells = [0] * width
        for j in base_cells:
            cells[j] = int(rows[width + 2 - j::width + 3], 2) * copies
        # Free cell i < f: lane k * size + joint set iff bit i of k is. Adding
        # 2^i to k flips bit i + 1 exactly when bit i is set, so cell i's
        # lanes are cell i + 1's XOR those shifted down by size * 2^i lanes,
        # starting from all lanes in place of a cell f.
        pattern = full
        for i in reversed(range(f)):
            pattern ^= pattern >> (size << i)
            cells[free_cells[i]] = pattern
        for chunk in range(1 << len(high)):
            for i, j in enumerate(high):
                cells[j] = full if chunk >> i & 1 else 0
            lines = [cells[:split], cells[split:]] if hybrid else [cells[:]]
            alive = full
            t = checked  # the timelines' time, also when no block is left to test
            advance(lines, checked, full)  # through the window, untested
            for t in range(checked, len(blocks)):
                if t > checked:
                    advance(lines, 1, full)
                alive = _preimage_lanes([lines[r][t + o] for r, o in reads], alive,
                                        halves[blocks[t]])
                if not alive & alive - 1:
                    break
            if not alive:
                continue
            if alive & alive - 1:
                # The first joint with a live lane, then its first one.
                joint = next(i for i in range(size) if alive >> i & copies)
                live = alive >> joint & copies
                lane = (live & -live).bit_length() - 1 + joint
            else:
                # One live lane: its timelines from time t, clocked to the
                # last block; block u's index has input i's bit u - t + o.
                lane = alive.bit_length() - 1
                lines = [[cell >> lane & 1 for cell in line[t:]] for line in lines]
                advance(lines, last - t)
                idx = [0] * (last - t)
                for i, (r, o) in enumerate(reads):
                    idx = [x | bit << i for x, bit in zip(idx, lines[r][1 + o:])]
                if not all(map(eq, map(truth_table.__getitem__, idx), blocks[t + 1:])):
                    continue
            k = chunk << f | lane // size
            return joints[lane % size] | sum(
                1 << j for i, j in enumerate(free_cells) if k >> i & 1)
    return None


# ---------------------------------------------------------------------------
# Keystream files: 16-byte header (n, m, L, count as little-endian u32),
# then the blocks bit-packed LSB-first, z_1 in each block's lowest bit.

_HEADER = struct.Struct("<4I")
# The codec packs 64 blocks per int: they fill 8*m bytes, so every chunk
# starts on a byte boundary, and no shift touches more than one chunk, which
# keeps both directions linear in the block count.
_CHUNK = 64


def write_keystream_file(path, n: int, m: int, L: int, blocks: Sequence[int]) -> None:
    # Block t's bit j is payload bit t*m + j, least significant bit first.
    mask = (1 << m) - 1
    shifts = range(0, _CHUNK * m, m)
    body = b"".join(
        sum((block & mask) << s for block, s in zip(blocks[t:t + _CHUNK], shifts))
        .to_bytes(8 * m, "little")
        for t in range(0, len(blocks), _CHUNK))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(n, m, L, len(blocks)) + body[:(len(blocks) * m + 7) // 8])


def read_keystream_file(path) -> tuple[tuple[int, int, int, int], list[int]]:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise KeystreamFormatError("file shorter than its header")
        n, m, L, count = _HEADER.unpack(raw)
        if not (1 <= m <= n):
            raise KeystreamFormatError("header violates 1 <= m <= n")
        if count > MAX_KEYSTREAM_BLOCKS:
            raise KeystreamFormatError(
                f"header counts {count} blocks, more than the limit of {MAX_KEYSTREAM_BLOCKS}")
        body = fh.read()
    expected = (count * m + 7) // 8
    if len(body) != expected:
        raise KeystreamFormatError(
            f"expected {expected} payload bytes for {count} blocks, found {len(body)}"
        )
    mask = (1 << m) - 1
    blocks = []
    for t in range(0, count, _CHUNK):
        acc = int.from_bytes(body[t // 8 * m:(t // 8 + 8) * m], "little")
        blocks += [acc >> s & mask for s in range(0, min(count - t, _CHUNK) * m, m)]
    return (n, m, L, count), blocks

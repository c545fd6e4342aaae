import collections
import gc
import itertools
import math
import random
import struct
import time
from functools import partial

import pytest

from fsglab import (
    FilterSpec,
    GeneratorSpec,
    HybridSpec,
    HybridTaps,
    KeystreamFormatError,
    LfsrSpec,
    NfsrSpec,
    NoOverdefinedSystemError,
    RankStop,
    SamplingSchedule,
    TapSet,
    constant_profile,
    cyclic_schedule,
    gfsga_recover,
    gfsga_variable_cost,
    greedy_schedule,
    hybrid_window_profile,
    keystream,
    nfsr_window_recover,
    preimage_table,
    primitive_lfsr,
    read_keystream_file,
    write_keystream_file,
)
from fsglab import attack
from fsglab.attack import (
    WindowRecovery,
    _buckets,
    _least_covered_order,
    _regenerates,
    _sample_plan,
    _spread_table,
)
from fsglab.cli import cmd_analyze
from fsglab.config import parse_config
from fsglab.gf2 import rank_of
from fsglab.registers import label_expressions, timeline_clock, window_geometry
from gfsga_reference import reference_compile, reference_gfsga_recover
from window_reference import reference_window_joints


def planted_lfsr_instance(rng, L, n, m, filter_seed=None):
    spec = primitive_lfsr(L)
    taps = TapSet(tuple(sorted(rng.sample(range(1, L + 1), n))), L)
    filt = FilterSpec.uniform_random(n, m, seed=filter_seed or rng.getrandbits(30))
    gen = GeneratorSpec(spec, taps, filt)
    state = tuple(rng.getrandbits(1) for _ in range(L))
    while not any(state):
        state = tuple(rng.getrandbits(1) for _ in range(L))
    return gen, state


def _random_reads(rng, kind):
    """Labels read per sample and input, as the attacks lay them out."""
    if kind == "lfsr":
        L = rng.randint(8, 40)
        taps = sorted(rng.sample(range(1, L + 1), rng.randint(2, min(7, L))))
        shifts = [0]
        for _ in range(rng.randint(0, 12)):
            shifts.append(shifts[-1] + rng.randint(1, L))
        return [[pos + shift for pos in taps] for shift in shifts]
    lengths = [rng.randint(6, 16) for _ in range(rng.randint(1, 2))]
    taps = [sorted(rng.sample(range(1, length // 2 + 1), rng.randint(1, 3)))
            for length in lengths]
    window = min(length - t[-1] for length, t in zip(lengths, taps)) - 1
    offsets = [0, lengths[0]][:len(lengths)]
    return [[off + pos + s for off, t in zip(offsets, taps) for pos in t]
            for s in range(window)]


def test_sample_plan_against_brute_force():
    rng = random.Random(4)
    for _ in range(300):
        reads = _random_reads(rng, rng.choice(("lfsr", "window")))
        plan = _sample_plan(reads)
        assert len(plan) == len(reads)
        for s, (labels, (mask, fixed, fresh)) in enumerate(zip(reads, plan)):
            assert len(set(labels)) == len(labels)
            earlier = {label for row in reads[:s] for label in row}
            assert mask == sum(1 << label for label in labels if label in earlier)
            assert fixed == tuple((i, label) for i, label in enumerate(labels)
                                  if label in earlier)
            assert fresh == tuple((i, label) for i, label in enumerate(labels)
                                  if label not in earlier)
            # Both attacks read the first sample's labels shifted.
            shift = labels[0] - reads[0][0]
            assert labels == [label + shift for label in reads[0]]
            n = len(labels)
            path = rng.getrandbits(max(max(row) for row in reads) + 1)
            members = sorted(rng.sample(range(1 << n), rng.randint(0, 1 << n)))
            checks = [rng.getrandbits(path.bit_length() + 1) for _ in range(rng.randint(0, 3))]
            k = len(checks)
            groups = _buckets(members, _spread_table(reads[0]), mask, shift, checks)
            assert all(key >> k & ~mask == 0 for key in groups)
            assert sum(map(len, groups.values())) == len(members)

            def syndrome(spread):
                return sum(((spread & check).bit_count() & 1) << (k - 1 - j)
                           for j, check in enumerate(checks))

            # The last k bits of a key are the syndrome bits of its spreads,
            # the first check's bit highest.
            assert all(key & (1 << k) - 1 == syndrome(spread)
                       for key, bucket in groups.items() for spread in bucket)
            matching = [
                sum((x >> i & 1) << label for i, label in fresh) for x in members
                if all((x >> i) & 1 == (path >> label) & 1 for i, label in fixed)
            ]
            for bits in range(1 << k):
                assert groups.get((path & mask) << k | bits, []) == [
                    spread for spread in matching if syndrome(spread) == bits]


def test_recover_planted_state_greedy_schedule():
    rng = random.Random(20)
    gen, state = planted_lfsr_instance(rng, 20, 5, 2, filter_seed=123)
    schedule, prof = greedy_schedule(gen.taps, RankStop())
    blocks = keystream(gen, state, sum(schedule.steps) + 24)
    result = gfsga_recover(gen, blocks, schedule)
    assert result.recovered_state == state
    assert result.systems_solved >= 1


def test_recover_bijective_filter_single_system():
    rng = random.Random(21)
    L, n = 16, 4
    spec = primitive_lfsr(L)
    taps = TapSet((2, 7, 11, 14), L)
    filt = FilterSpec.uniform_random(n, n, seed=5)  # m = n: unique preimages
    gen = GeneratorSpec(spec, taps, filt)
    state = tuple(rng.getrandbits(1) for _ in range(L))
    schedule, _ = greedy_schedule(taps, RankStop())
    blocks = keystream(gen, state, sum(schedule.steps) + 20)
    result = gfsga_recover(gen, blocks, schedule)
    assert result.recovered_state == state
    assert result.systems_solved == 1


def test_recover_fails_on_corrupt_keystream():
    rng = random.Random(22)
    gen, state = planted_lfsr_instance(rng, 20, 5, 2, filter_seed=9)
    schedule, _ = greedy_schedule(gen.taps, RankStop())
    blocks = keystream(gen, state, sum(schedule.steps) + 16)
    blocks[3] ^= 1  # corrupt one observed block
    result = gfsga_recover(gen, blocks, schedule)
    assert result.recovered_state is None


def test_recover_rejects_a_schedule_that_is_not_overdefined():
    rng = random.Random(26)
    gen, state = planted_lfsr_instance(rng, 20, 5, 2, filter_seed=9)
    schedule, prof = greedy_schedule(gen.taps, RankStop(), overshoot=0)
    assert prof.is_overdefined()
    short = SamplingSchedule(schedule.steps[:-1], "greedy")
    blocks = keystream(gen, state, sum(schedule.steps) + 16)
    with pytest.raises(ValueError, match="not produce an overdefined") as info:
        gfsga_recover(gen, blocks[:1], short)  # reported before the coverage
    assert type(info.value) is ValueError
    with pytest.raises(ValueError, match="not produce an overdefined"):
        gfsga_recover(gen, blocks, short)
    with pytest.raises(KeystreamFormatError, match="does not cover"):
        gfsga_recover(gen, blocks[:1], schedule)
    assert gfsga_recover(gen, blocks, schedule).recovered_state == state


def test_recover_refuses_schedule_beyond_the_completion_cap():
    # The greedy schedule is count-overdefined, but the labels it reads span
    # only rank 12 of 28: every path would end 16 bits short of a state.
    rng = random.Random(25)
    L = 28
    taps = TapSet((1, 7, 10, 13, 26), L)
    gen = GeneratorSpec(primitive_lfsr(L), taps, FilterSpec.uniform_random(5, 2, seed=3))
    state = tuple(rng.getrandbits(1) for _ in range(L))
    schedule, prof = greedy_schedule(taps, RankStop())
    assert prof.is_overdefined()
    blocks = keystream(gen, state, sum(schedule.steps) + 2 * L)
    with pytest.raises(NoOverdefinedSystemError, match="rank 12 of 28"):
        gfsga_recover(gen, blocks, schedule)


def test_recover_rejects_underdefined_schedule():
    rng = random.Random(23)
    gen, state = planted_lfsr_instance(rng, 20, 5, 2)
    with pytest.raises(ValueError):
        gfsga_recover(gen, [0] * 10, SamplingSchedule((5, 2), "custom"))


def test_systems_solved_tracks_formula_count():
    # With m = n-1 the restricted classes stay close to uniform, so the
    # candidate-count formula tracks the explored tree within one bit.
    rng = random.Random(24)
    for _ in range(10):
        gen, state = planted_lfsr_instance(rng, 16, 4, 3)
        schedule, prof = greedy_schedule(gen.taps, RankStop())
        est = gfsga_variable_cost(prof, 4, 3, 16)
        blocks = keystream(gen, state, sum(schedule.steps) + 20)
        result = gfsga_recover(gen, blocks, schedule)
        assert result.recovered_state == state
        assert result.systems_solved >= 1
        assert abs(math.log2(result.systems_solved) - est.candidate_log2) <= 1.0


def _lfsr_reference_instance(rng, n, m, mode):
    """Planted LFSR instance at L 16-32 under a greedy, cyclic or constant
    schedule, small enough for the per-branch reference: candidate_log2 plus
    the label rank deficit at most 7. Returns (generator, state, schedule,
    blocks, deficit). Two keystreams in three end at the last sample or one
    block after it, which often leaves several states that regenerate them. One
    instance in five observes a flipped block, and one in five of those with
    a missing output value observes it at the first or second sample.
    """
    while True:
        L = rng.randint(16, 32)
        taps = TapSet(tuple(sorted(rng.sample(range(1, L + 1), n))), L)
        if mode == "greedy":
            schedule, prof = greedy_schedule(taps, RankStop())
        elif mode == "cyclic":
            schedule, prof = cyclic_schedule(taps, RankStop())
        else:
            prof = constant_profile(taps, rng.randint(1, L))
            schedule = SamplingSchedule(prof.steps, "constant")
        estimate = gfsga_variable_cost(prof, n, m, L).candidate_log2
        if estimate > 7:
            continue
        shifts = list(itertools.accumulate(schedule.steps, initial=0))
        exprs = label_expressions(primitive_lfsr(L), taps.positions[-1] + shifts[-1])
        deficit = L - rank_of([exprs[pos + s - 1] for s in shifts for pos in taps.positions], L)
        if estimate + deficit <= 7:
            break
    style = rng.choice(("uniform", "skewed", "missing") if m > 1 else ("uniform", "skewed"))
    gen = GeneratorSpec(primitive_lfsr(L), taps, _window_filter(rng, n, m, style))
    state = tuple(rng.getrandbits(1) for _ in range(L))
    blocks = keystream(gen, state, shifts[-1] + rng.choice((1, 2, rng.randint(1, 2 * L))))
    missing = [z for z in range(1 << m) if z not in gen.filter.truth_table]
    corrupt = rng.random()
    if corrupt < 0.2:
        blocks[rng.randrange(len(blocks))] ^= rng.randrange(1, 1 << m)
    elif corrupt < 0.4 and missing:
        blocks[shifts[rng.randrange(2)]] = missing[0]
    return gen, state, schedule, blocks, deficit


def test_compiled_recover_matches_per_branch_reference(monkeypatch):
    # Every (n, m) pair meets every schedule mode: 14 pairs and 3 modes are coprime.
    rng = random.Random(26)
    pairs = [(n, m) for n in range(3, 7) for m in range(1, n)]
    seen = dict.fromkeys(("greedy", "cyclic", "constant", "deficient", "inconsistent",
                          "no-preimage", "ambiguous-sweep", "recovered", "failed"), 0)
    for index in range(154):
        n, m = pairs[index % len(pairs)]
        mode = ("greedy", "cyclic", "constant")[index % 3]
        gen, state, schedule, blocks, deficit = _lfsr_reference_instance(rng, n, m, mode)
        expected = reference_gfsga_recover(gen, blocks, schedule, deficit)
        monkeypatch.setattr(attack, "COMPLETION_CAP_BITS", deficit)  # free == cap is admitted
        result = gfsga_recover(gen, blocks, schedule)
        assert (result.recovered_state, result.systems_solved,
                result.candidates_pruned) == expected[:3], index
        if deficit:  # one bit over the cap: both refuse before enumerating
            with pytest.raises(NoOverdefinedSystemError):
                reference_gfsga_recover(gen, blocks, schedule, deficit - 1)
            monkeypatch.setattr(attack, "COMPLETION_CAP_BITS", deficit - 1)
            with pytest.raises(NoOverdefinedSystemError):
                gfsga_recover(gen, blocks, schedule)
        seen[mode] += 1
        seen["deficient"] += deficit > 0
        seen["inconsistent"] += expected[3] > 0
        seen["ambiguous-sweep"] += deficit > 0 and expected[4] > 1  # sweep order decides
        seen["no-preimage"] += any(z not in gen.filter.truth_table for z in blocks)
        seen["recovered" if expected[0] == state else "failed"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("cap", [1, 3])
def test_frontier_slices_keep_depth_first_order(monkeypatch, cap):
    # A frontier cap of 1 or 3 cuts the level-by-level expansion into slices
    # between sibling paths and between levels; leaves, counters and the
    # first verified state must stay those of the per-branch search.
    monkeypatch.setattr(attack, "_FRONTIER_CAP", cap)
    rng = random.Random(26)
    pairs = [(n, m) for n in range(3, 7) for m in range(1, n)]
    split = 0
    for index in range(42):
        n, m = pairs[index % len(pairs)]
        mode = ("greedy", "cyclic", "constant")[index % 3]
        gen, state, schedule, blocks, deficit = _lfsr_reference_instance(rng, n, m, mode)
        expected = reference_gfsga_recover(gen, blocks, schedule)
        result = gfsga_recover(gen, blocks, schedule)
        assert (result.recovered_state, result.systems_solved,
                result.candidates_pruned) == expected[:3], index
        split += expected[1] > cap
    assert split


@pytest.mark.parametrize("cap", [1, 3, 1024])
def test_pair_pass_matches_per_branch_reference(monkeypatch, cap):
    # Greedy schedules at n = 5, m = 1 run into consecutive samples that
    # each read one fresh label and carry no check; the walk expands such a
    # pair in one pass through a table of children. Leaves, counters and the
    # first verified state must stay those of the per-branch search, also
    # when slices cut the walk between pairs, and the table must be filled.
    monkeypatch.setattr(attack, "_FRONTIER_CAP", cap)
    fills = []

    def counting(self, key, fill=attack._PairChildren.__missing__):
        fills.append(len(fill(self, key)))
        return self[key]

    monkeypatch.setattr(attack._PairChildren, "__missing__", counting)
    rng = random.Random(5)
    paired = recovered = 0
    for index in range(12):
        gen, state, schedule, blocks, deficit = _lfsr_reference_instance(rng, 5, 1, "greedy")
        before = len(fills)
        expected = reference_gfsga_recover(gen, blocks, schedule)
        result = gfsga_recover(gen, blocks, schedule)
        assert (result.recovered_state, result.systems_solved,
                result.candidates_pruned) == expected[:3], index
        paired += len(fills) > before
        recovered += expected[0] == state
    assert paired == 12 and 0 < recovered < 12
    assert max(fills) <= 4  # a one-label bucket holds at most 2 spreads


def _random_walk_level(rng, earlier, start, fresh_count, check_count):
    """(mask, checks, groups) of a synthetic sample: fixed labels drawn from
    ``earlier``, fresh labels ``start``.., and per fixed-label key (most of
    them) a non-empty bucket of fresh spreads, split by syndrome."""
    mask = sum(1 << label for label in rng.sample(earlier, min(len(earlier), rng.randint(0, 3))))
    fresh = range(start, start + fresh_count)
    spreads = [sum(1 << label for j, label in enumerate(fresh) if x >> j & 1)
               for x in range(1 << fresh_count)]
    checks = tuple(rng.getrandbits(start + fresh_count) | 1 << start for _ in range(check_count))
    groups = {}
    for want in range(1 << mask.bit_count()):
        if rng.random() < 0.1:
            continue
        key = 0
        for j, label in enumerate(label for label in range(mask.bit_length()) if mask >> label & 1):
            key |= (want >> j & 1) << label
        for spread in rng.sample(spreads, rng.randint(1, len(spreads))):
            bits = key
            for check in checks:
                bits = bits << 1 | (spread & check).bit_count() & 1
            groups.setdefault(bits, []).append(spread)
    return mask, checks, groups


def _recursive_walk(levels):
    """Leaves in depth-first order and paths pruned, one path per call: a
    None level prunes every path, a counting level a path without a bucket,
    and a checked level every preimage with the path's fixed labels that a
    check rules out."""
    leaves = []
    pruned = 0

    def dfs(depth, path):
        nonlocal pruned
        if depth == len(levels):
            leaves.append(path)
            return
        if levels[depth] is None:
            pruned += 1
            return
        kind, mask, checks, groups = levels[depth]
        key = path & mask
        for check in checks:
            key = key << 1 | (path & check).bit_count() & 1
        bucket = groups.get(key, [])
        if kind == "counting" and not bucket:
            pruned += 1
        if kind == "checked":
            pruned += sum(len(group) for bits, group in groups.items()
                          if bits >> len(checks) == path & mask) - len(bucket)
        for spread in bucket:
            dfs(depth + 1, path | spread)

    dfs(0, 0)
    return leaves, pruned


@pytest.mark.parametrize("cap", [1, 2, 3, 1024])
def test_walk_matches_recursive_depth_first_walk(monkeypatch, cap):
    # Random step lists of every kind, a pair counting as two plain levels:
    # the leaves, their order and the prunes must be those of a recursive
    # depth-first walk, whichever slices the frontier is cut into.
    monkeypatch.setattr(attack, "_FRONTIER_CAP", cap)
    rng = random.Random(29)
    kinds = ("none", "plain", "counting", "checked", "pair")
    seen = dict.fromkeys((*kinds, "pruned", "sliced", "no-leaf"), 0)
    for index in range(300):
        steps, levels = [], []
        label = 0
        for _ in range(rng.randint(0, 7)):
            kind = rng.choices(kinds, (1, 4, 4, 4, 4))[0]
            seen[kind] += 1
            if kind == "none":
                steps.append(None)
                levels.append(None)
                continue
            if kind == "pair":
                first = _random_walk_level(rng, range(label), label, 1, 0)
                second = _random_walk_level(rng, range(label + 1), label + 1, 1, 0)
                steps.append(partial(attack._pair_step, first[0] | second[0],
                                     attack._PairChildren((*first, None), (*second, None))))
                levels += [("plain", *first), ("plain", *second)]
                label += 2
                continue
            width = rng.randint(1, 3)
            mask, checks, groups = _random_walk_level(
                rng, range(label), label, width, rng.randint(1, 2) if kind == "checked" else 0)
            label += width
            levels.append((kind, mask, checks, groups))
            if kind == "checked":
                sizes = {}
                for bits, group in groups.items():
                    sizes[bits >> len(checks)] = sizes.get(bits >> len(checks), 0) + len(group)
                steps.append(partial(attack._checked_step, mask, checks, groups, sizes))
            else:
                step = attack._plain_step if kind == "plain" else attack._counting_step
                steps.append(partial(step, mask, groups))
        calls = []
        pruned = attack._walk(steps, calls.append)
        leaves, expected = _recursive_walk(levels)
        assert [path for paths in calls for path in paths] == leaves, index
        assert pruned == expected, index
        seen["pruned"] += expected > 0
        seen["sliced"] += len(calls) > 1
        seen["no-leaf"] += not leaves
    assert all(count for key, count in seen.items() if key != "sliced" or cap < 1024), seen


def test_compile_matches_reference_compile():
    # Random plans over primitive and arbitrary feedback, with random
    # preimage sets and samples that no preimage yields: the one-pass
    # buckets and the pivot-driven Gauss-Jordan must give the same steps as
    # the first form, and a candidate path | o << above must decode through
    # the label-domain cells to the first form's state: the XOR of the
    # path's label contributions and of the null vectors at the bits of o.
    # The window attack's plans on NFSRs and both kinds of hybrid, with
    # identity expressions, must compile whole, with no check, and leave
    # exactly the cells that no sample reads free.
    rng = random.Random(27)
    seen = dict.fromkeys(
        ("checks", "no-preimage", "deficit", "full-rank", "cut-short", "window"), 0)
    for index in range(300):
        L = rng.randint(8, 32)
        n = rng.randint(2, 6)
        positions = tuple(sorted(rng.sample(range(1, L + 1), n)))
        shifts = [0]
        for _ in range(rng.randint(0, 14)):
            shifts.append(shifts[-1] + rng.randint(1, L))
        if index % 2:
            reg = primitive_lfsr(L)
        else:
            reg = LfsrSpec(L, frozenset(rng.sample(range(1, L + 1), rng.randint(1, 4))))
        plan = _sample_plan([[pos + shift for pos in positions] for shift in shifts])
        exprs = label_expressions(reg, positions[-1] + shifts[-1])
        sampled = [None if rng.random() < 0.1 else
                   tuple(sorted(rng.sample(range(1 << n), rng.randint(1, 1 << n))))
                   for _ in shifts]
        args = (plan, exprs, L, sampled, _spread_table(positions), shifts)
        steps, cells, above, free = attack._compile(*args)
        expected, contributions, nulls = reference_compile(*args)
        assert steps == expected, index
        assert (len(cells), above, free) == (L, len(contributions), len(nulls)), index
        for _ in range(8):
            path, o = rng.getrandbits(above), rng.getrandbits(free)
            state = 0
            for label, contribution in enumerate(contributions):
                state ^= contribution if path >> label & 1 else 0
            for i, null in enumerate(nulls):
                state ^= null if o >> i & 1 else 0
            candidate = path | o << above
            assert [(cell & candidate).bit_count() & 1 for cell in cells] == [
                state >> p & 1 for p in range(L)], index
        seen["checks"] += any(step and step[1] for step in steps)
        seen["no-preimage"] += None in steps
        seen["deficit" if nulls else "full-rank"] += 1
        seen["cut-short"] += len(steps) < len(plan)
    for index in range(60):
        gen, _, blocks, _ = _window_instance(rng, ("nfsr", "coupled", "uncoupled")[index % 3])
        families, total, window = window_geometry(gen.register, gen.taps)
        labels, offset = [], 0
        for _, ts in families:
            labels += [offset + pos for pos in ts.positions]
            offset += ts.register_length
        reads = [[label + s for label in labels] for s in range(window)]
        plan = _sample_plan(reads)
        table = preimage_table(gen.filter)
        args = (plan, [1 << j for j in range(total)], total,
                [table.get(blocks[s]) for s in range(window)], _spread_table(labels),
                range(window))
        steps, cells, above, free = attack._compile(*args)
        assert steps == reference_compile(*args)[0], index
        assert not any(step and step[1] for step in steps), index
        assert len(steps) == len(plan), index
        read = sum({1 << label for labels_read in reads for label in labels_read})
        unread = [cell for cell in range(total) if not read >> (cell + 1) & 1]
        assert [cell for cell in range(total) if cells[cell] >> above] == unread, index
        assert free == len(unread), index
        seen["window"] += 1
    assert all(count >= 20 for count in seen.values()), seen


def test_recover_stops_replaying_after_the_first_verified_state(monkeypatch):
    # Short keystreams on rank-deficient greedy schedules: several states
    # regenerate the blocks. The search still visits and counts every leaf,
    # but replays no candidate once one is verified: neither another path's
    # offsets nor a lone candidate's finish follow the first path that has
    # a verified offset. Some runs sweep failing paths first, and the
    # winner's sweep ends both ways: several offsets live at the last block,
    # or a lone one finished.
    rng = random.Random(60)
    checked = 0
    seen = dict.fromkeys(("failed-first", "lone", "several"), 0)
    while checked < 12:
        n = rng.randint(3, 6)
        gen, state, schedule, blocks, deficit = _lfsr_reference_instance(
            rng, n, rng.randint(1, n - 1), "greedy")
        if not deficit:
            continue
        expected = reference_gfsga_recover(gen, blocks, schedule)
        if expected[4] < 2 or expected[1] < 2:
            continue
        events = []

        def finishing(*args, replay=attack._regenerates):
            events.append(("lone", replay(*args)))
            return events[-1][1]

        def sweeping(*args, sweep=attack._first_offset):
            offset = sweep(*args)
            events.append(("sweep", offset is not None))
            return offset

        with monkeypatch.context() as patch:
            patch.setattr(attack, "_regenerates", finishing)
            patch.setattr(attack, "_first_offset", sweeping)
            result = gfsga_recover(gen, blocks, schedule)
        assert (result.recovered_state, result.systems_solved,
                result.candidates_pruned) == expected[:3]
        first = [verdict for _, verdict in events].index(True)
        assert events[first:] in ([("lone", True), ("sweep", True)], [("sweep", True)])
        seen["failed-first"] += first > 0
        seen["lone" if events[first][0] == "lone" else "several"] += 1
        checked += 1
    assert all(seen.values()), seen


def test_label_words_follow_the_state_timeline():
    # gfsga_recover runs the compiled label-domain cells on the LFSR's
    # timeline up to the keystream's last label. The map from a candidate
    # to its state is linear, so label k's word must give the bit that
    # label k's expression gives on the candidate's state, which the first
    # form of the compilation decodes: for primitive and arbitrary feedback,
    # schedules short of rank L by 1 to 8 bits and full-rank ones.
    rng = random.Random(31)
    seen = collections.Counter()
    while sum(seen.values()) < 320:
        L = rng.randint(8, 32)
        n = rng.randint(2, 6)
        positions = tuple(sorted(rng.sample(range(1, L + 1), n)))
        shifts = list(itertools.accumulate(
            (rng.randint(1, L) for _ in range(rng.randint(0, 14))), initial=0))
        if rng.random() < 0.5:
            reg = primitive_lfsr(L)
        else:
            reg = LfsrSpec(L, frozenset(rng.sample(range(1, L + 1), rng.randint(1, 4))))
        plan = _sample_plan([[pos + shift for pos in positions] for shift in shifts])
        exprs = label_expressions(reg, positions[-1] + shifts[-1])
        args = (plan, exprs, L, [range(1 << n)] * len(shifts), _spread_table(positions), shifts)
        _, words, above, free = attack._compile(*args)
        if free > 8 or seen[free] >= 60:
            continue
        seen[free] += 1
        _, contributions, nulls = reference_compile(*args)
        last = positions[-1] + shifts[-1] + rng.randint(0, 2 * L)  # the keystream's last label
        timeline_clock(reg)([words], last - L)
        full = label_expressions(reg, last)
        for _ in range(4):
            path, o = rng.getrandbits(above), rng.getrandbits(free)
            state = 0
            for label, contribution in enumerate(contributions):
                state ^= contribution if path >> label & 1 else 0
            for i, null in enumerate(nulls):
                state ^= null if o >> i & 1 else 0
            candidate = path | o << above
            assert [(candidate & word).bit_count() & 1 for word in words[:last]] == [
                (expr & state).bit_count() & 1 for expr in full]
    assert all(seen[free] for free in range(9)), seen


def _deficient_lfsr_instance(rng):
    """Planted LFSR instance whose greedy schedule leaves 3 to 6 of the L
    label bits free, at candidate_log2 3 to 8 so that several paths often
    reach the last sample, small enough for the per-branch reference, observed
    for L to 2L blocks past the last sample. One instance in five observes
    a flipped block. Returns (generator, state, schedule, blocks, free)."""
    while True:
        L = rng.randint(16, 32)
        n = rng.randint(3, 6)
        m = rng.randint(1, n - 1)
        taps = TapSet(tuple(sorted(rng.sample(range(1, L + 1), n))), L)
        schedule, prof = greedy_schedule(taps, RankStop())
        if not 3 <= gfsga_variable_cost(prof, n, m, L).candidate_log2 <= 8:
            continue
        shifts = list(itertools.accumulate(schedule.steps, initial=0))
        exprs = label_expressions(primitive_lfsr(L), taps.positions[-1] + shifts[-1])
        free = L - rank_of([exprs[pos + s - 1] for s in shifts for pos in taps.positions], L)
        if 3 <= free <= 6:
            break
    gen = GeneratorSpec(primitive_lfsr(L), taps,
                        FilterSpec.uniform_random(n, m, rng.getrandbits(30)))
    state = tuple(rng.getrandbits(1) for _ in range(L))
    blocks = keystream(gen, state, shifts[-1] + rng.randint(L, 2 * L))
    if rng.random() < 0.2:
        blocks[rng.randrange(len(blocks))] ^= rng.randrange(1, 1 << m)
    return gen, state, schedule, blocks, free


@pytest.mark.parametrize("cap", [1, 3, 1024])
def test_offset_filter_matches_per_branch_reference(monkeypatch, cap):
    # With 3 or more free bits, a path's 2^free completion offsets are
    # filtered a block at a time through tables of the index bits each
    # offset adds. States and both counters must stay those of the
    # per-branch search, which replays every completion in sweep order,
    # whichever slices the frontier is cut into. A table built for a second
    # block shows that several offsets outlived the first.
    monkeypatch.setattr(attack, "_FRONTIER_CAP", cap)
    fills = []

    def counting(self, t, fill=attack._OffsetBits.__missing__):
        fills.append(t)
        return fill(self, t)

    monkeypatch.setattr(attack._OffsetBits, "__missing__", counting)
    rng = random.Random(32)
    seen = dict.fromkeys(("past-first-block", "over-3-leaves", "recovered", "failed"), 0)
    for index in range(16):
        gen, state, schedule, blocks, free = _deficient_lfsr_instance(rng)
        fills.clear()
        expected = reference_gfsga_recover(gen, blocks, schedule)
        result = gfsga_recover(gen, blocks, schedule)
        assert (result.recovered_state, result.systems_solved,
                result.candidates_pruned) == expected[:3], index
        seen["past-first-block"] += len(fills) > 1
        seen["over-3-leaves"] += expected[1] > 3  # sliced at caps 1 and 3
        seen["recovered" if expected[0] == state else "failed"] += 1
    assert seen["past-first-block"] >= 12 and all(seen.values()), seen


def test_label_expression_replay_matches_keystream():
    # Keystreams run up to 3L blocks, past the span of any schedule's labels.
    rng = random.Random(27)
    for _ in range(60):
        L = rng.randint(16, 32)
        n = rng.randint(3, 6)
        taps = TapSet(tuple(sorted(rng.sample(range(1, L + 1), n))), L)
        gen = GeneratorSpec(primitive_lfsr(L), taps,
                            FilterSpec.uniform_random(n, rng.randint(1, n), rng.getrandbits(30)))
        count = rng.randint(1, 3 * L)
        exprs = label_expressions(gen.register, taps.positions[-1] + count - 1)
        planted = tuple(rng.getrandbits(1) for _ in range(L))
        blocks = keystream(gen, planted, count)
        sampled = sorted(rng.sample(range(count), rng.randint(1, count)))
        read = {t + pos for t in sampled for pos in taps.positions}
        for _ in range(8):
            state = planted if rng.random() < 0.25 else tuple(
                b ^ (rng.random() < 0.1) for b in planted)
            value = sum(b << j for j, b in enumerate(state))
            replayed = keystream(gen, state, count)
            for k in {count, rng.randint(0, count)}:
                ranked = _least_covered_order(sampled, taps.positions, k)
                covered = [len(read.intersection(t + pos for pos in taps.positions))
                           for t in range(k)]
                assert ranked == sorted(range(k), key=lambda t: (covered[t], t))
                for order in (None, ranked, rng.sample(range(k), k)):
                    assert _regenerates(value, exprs, taps.positions, gen.filter.truth_table,
                                        blocks[:k], order) == (replayed[:k] == blocks[:k])


TOY_NFSR = NfsrSpec(
    16, 1, (frozenset({1}), frozenset({3, 5}), frozenset({2, 9}), frozenset({6}))
)


def test_window_recover_toy_nfsr():
    rng = random.Random(30)
    taps = TapSet((2, 5, 8, 11), 16)  # p = 16 - 11 = 5, window 4, 4*4 = 16 <= L
    # needs (p-1)*n > L: 4*4 = 16 is not > 16, widen the window by moving taps
    taps = TapSet((2, 5, 8, 10), 16)  # p = 6, window 5, 5*4 = 20 > 16
    filt = FilterSpec.uniform_random(4, 1, seed=31)
    gen = GeneratorSpec(TOY_NFSR, taps, filt)
    state = tuple(rng.getrandbits(1) for _ in range(16))
    blocks = keystream(gen, state, 5 + 16)
    recovery, result = nfsr_window_recover(gen, blocks)
    assert result.recovered_state == state
    assert recovery.window_length == 5
    assert recovery.recovered_bit_count == len(
        {p + s for p in taps.positions for s in range(5)}
    )
    assert recovery.remaining_guess == 16 - recovery.recovered_bit_count


def test_window_recover_window_too_short():
    filt = FilterSpec.uniform_random(4, 1, seed=32)
    taps = TapSet((2, 5, 8, 13), 16)  # p = 3, window 2
    gen = GeneratorSpec(TOY_NFSR, taps, filt)
    with pytest.raises(ValueError):
        nfsr_window_recover(gen, [0] * 40)


def test_window_recover_toy_hybrid():
    rng = random.Random(33)
    lfsr = primitive_lfsr(12)
    nfsr = NfsrSpec(12, 0, (frozenset({1}), frozenset({2, 5})))
    hybrid = HybridSpec(lfsr, nfsr, coupling=True)
    taps = HybridTaps(lfsr=TapSet((2, 5, 7), 12), nfsr=TapSet((1, 4, 6), 12))
    filt = FilterSpec.uniform_random(6, 2, seed=34)
    gen = GeneratorSpec(hybrid, taps, filt)
    state = (
        tuple(rng.getrandbits(1) for _ in range(12)),
        tuple(rng.getrandbits(1) for _ in range(12)),
    )
    # p = 12 - 7 = 5, window 4, 4*6 = 24 = L: need strictly greater, so use
    # taps with last position 6 -> p = 6, window 5, 30 > 24.
    taps = HybridTaps(lfsr=TapSet((2, 5, 6), 12), nfsr=TapSet((1, 4, 6), 12))
    gen = GeneratorSpec(hybrid, taps, filt)
    blocks = keystream(gen, state, 5 + 12)
    recovery, result = nfsr_window_recover(gen, blocks)
    assert result.recovered_state == state


def _scalar_window_recover(gen, blocks):
    """Reference for ``nfsr_window_recover``: joints from a dict-based walk of
    the window, then every completion of each joint replayed one 0/1 state at
    a time with ``keystream``, in ``itertools.product`` order with the lowest
    free cell fastest. Returns (recovery, state, systems_solved, pruned).
    """
    if isinstance(gen.register, HybridSpec):
        families = [("lfsr", gen.taps.lfsr), ("nfsr", gen.taps.nfsr)]
    else:
        families = [("nfsr", gen.taps)]
    lengths = [ts.register_length for _, ts in families]
    window = min(ts.register_length - ts.positions[-1] for _, ts in families) - 1
    reads = [[(r, pos + s) for r, (_, ts) in enumerate(families) for pos in ts.positions]
             for s in range(window)]
    table = preimage_table(gen.filter)
    joints, pruned = [], 0

    def walk(s, known):
        nonlocal pruned
        if s == window:
            joints.append(known)
            return
        members = table.get(blocks[s])
        if members is None:
            pruned += 1
            return
        kept = [x for x in members
                if all(known.get(cell, x >> i & 1) == x >> i & 1
                       for i, cell in enumerate(reads[s]))]
        if not kept:
            pruned += 1
        for x in kept:
            walk(s + 1, {**known, **{cell: x >> i & 1 for i, cell in enumerate(reads[s])}})

    walk(0, {})
    covered = {cell for row in reads for cell in row}
    free = [(r, pos) for r, length in enumerate(lengths) for pos in range(1, length + 1)
            if (r, pos) not in covered]
    found = None
    for known in joints:
        for bits in itertools.product((0, 1), repeat=len(free)):
            value = {**known, **dict(zip(reversed(free), bits))}
            parts = [tuple(value[r, pos] for pos in range(1, length + 1))
                     for r, length in enumerate(lengths)]
            state = parts[0] if len(parts) == 1 else tuple(parts)
            if keystream(gen, state, len(blocks)) == blocks:
                found = state
                break
        if found is not None:
            break
    n, m = gen.filter.n, gen.filter.m
    q = hybrid_window_profile(families, [1] * (window - 1)).q if window > 1 else ()
    recovery = WindowRecovery(window, len(covered), len(free),
                              (1 << (n - m),) + tuple(1 << max(0, n - m - x) for x in q))
    return recovery, found, len(joints) << len(free), pruned


def _window_filter(rng, n, m, style):
    """Uniform, skewed (class sizes differ) or missing (one z has no preimage)."""
    table = list(FilterSpec.uniform_random(n, m, rng.getrandbits(30)).truth_table)
    if style == "skewed":
        for x in rng.sample(range(1 << n), 1 + (1 << n) // 8):
            table[x] = rng.randrange(1 << m)
    elif style == "missing":
        gone = rng.randrange(1 << m)
        others = [z for z in range(1 << m) if z != gone]
        table = [rng.choice(others) if z == gone else z for z in table]
    return FilterSpec(n, m, tuple(table))


def _window_instance(rng, kind):
    """Seeded NFSR or hybrid window attack instance at desk scale.

    Returns (generator, planted state, blocks, the output values that have
    no preimage). Hybrid registers may have unequal lengths when uncoupled.
    One instance in five observes a flipped block, and one in five of those
    with a missing output value observes it past the window.
    """
    while True:
        if kind == "nfsr":
            lengths = (rng.randint(8, 14),)
            split = (rng.randint(2, 4),)
        else:
            lengths = (rng.randint(6, 10),)
            lengths += lengths if kind == "coupled" else (rng.randint(6, 10),)
            split = (rng.randint(1, 3), rng.randint(1, 3))
        n = sum(split)
        m = rng.randint(1, min(n, 3))
        sets = [TapSet(tuple(sorted(rng.sample(range(1, length // 2 + 2), k))), length)
                for length, k in zip(lengths, split)]
        window = min(ts.register_length - ts.positions[-1] for ts in sets) - 1
        if window * n <= sum(lengths):
            continue
        families = list(zip(("lfsr", "nfsr")[2 - len(sets):], sets))
        covered = {(tag, pos + s) for s in range(window) for tag, ts in families
                   for pos in ts.positions}
        q = hybrid_window_profile(families, [1] * (window - 1)).q if window > 1 else ()
        if sum(lengths) - len(covered) + (n - m) + sum(max(0, n - m - x) for x in q) <= 7:
            break
    monos = [frozenset(rng.sample(range(1, lengths[-1] + 1), rng.randint(1, 3)))
             for _ in range(rng.randint(1, 4))]
    nfsr = NfsrSpec(lengths[-1], rng.getrandbits(1), tuple(monos))
    style = rng.choice(("uniform", "skewed", "missing") if m > 1 else ("uniform", "skewed"))
    filt = _window_filter(rng, n, m, style)
    if kind == "nfsr":
        gen = GeneratorSpec(nfsr, sets[0], filt)
        state = tuple(rng.getrandbits(1) for _ in range(lengths[0]))
    else:
        fb = frozenset({1} | set(rng.sample(range(2, lengths[0] + 1), rng.randint(1, 3))))
        reg = HybridSpec(LfsrSpec(lengths[0], fb), nfsr, kind == "coupled")
        gen = GeneratorSpec(reg, HybridTaps(*sets), filt)
        state = tuple(tuple(rng.getrandbits(1) for _ in range(length)) for length in lengths)
    need = window + -(-sum(lengths) // m)
    blocks = keystream(gen, state, rng.randint(need, need + 4))
    missing = [z for z in range(1 << m) if z not in filt.truth_table]
    corrupt = rng.random()
    if corrupt < 0.2:
        blocks[rng.randrange(len(blocks))] ^= rng.randrange(1, 1 << m)
    elif corrupt < 0.4 and missing:
        blocks[rng.randrange(window, len(blocks))] = missing[0]
    return gen, state, blocks, missing


def _cells(state) -> int:
    bits = [b for part in state for b in part] if isinstance(state[0], tuple) else state
    return sum(b << j for j, b in enumerate(bits))


def test_bitsliced_sweep_matches_scalar_reference(monkeypatch):
    # A window leaves at least two cells of each register free. One-bit
    # lanes sweep every instance one joint at a time across several chunks;
    # with three, joints share a chunk when free <= 3 and a joint spans
    # several chunks when free > 3.
    rng = random.Random(61)
    seen = dict.fromkeys(("unequal", "constant-0", "constant-1", "no-preimage",
                          "recovered", "failed", "shared", "split"), 0)
    for index in range(210):
        kind = ("nfsr", "coupled", "uncoupled")[index % 3]
        gen, state, blocks, missing = _window_instance(rng, kind)
        expected = _scalar_window_recover(gen, blocks)
        # free = 0: whole candidate states, nothing to complete.
        lengths = [len(state)] if kind == "nfsr" else [len(part) for part in state]
        bases = [rng.getrandbits(sum(lengths)) for _ in range(3)]
        bases.insert(rng.randrange(4), _cells(state))
        replays = [b for b in bases
                   if keystream(gen, attack._state(b, lengths), len(blocks)) == blocks]
        table = preimage_table(gen.filter)
        for lane_bits in (attack._LANE_BITS, 1, 3):
            with monkeypatch.context() as patch:
                patch.setattr(attack, "_LANE_BITS", lane_bits)
                recovery, result = nfsr_window_recover(gen, blocks)
                first = attack._first_completion(gen, blocks, table, bases, [], 0)
            got = (recovery, result.recovered_state, result.systems_solved,
                   result.candidates_pruned)
            assert got == expected, (index, lane_bits)
            assert first == (replays[0] if replays else None), (index, lane_bits)
        nfsr = gen.register if kind == "nfsr" else gen.register.nfsr
        seen["unequal"] += len(set(lengths)) > 1
        seen[f"constant-{nfsr.constant_term}"] += 1
        seen["no-preimage"] += any(z in missing for z in blocks[expected[0].window_length:])
        seen["recovered" if expected[1] is not None else "failed"] += 1
        free = expected[0].remaining_guess
        seen["shared"] += free < 3 and expected[2] > 1 << free
        seen["split"] += free > 3
    assert all(seen.values()), seen


def _generator_section(gen) -> dict:
    """The config ``generator`` section of ``gen``, its filter left abstract."""
    def anf(nfsr):
        return {"constant": nfsr.constant_term,
                "monomials": [sorted(mono) for mono in nfsr.monomials]}

    reg, filt = gen.register, {"n": gen.filter.n, "m": gen.filter.m}
    if isinstance(reg, NfsrSpec):
        return {"kind": "nfsr", "length": reg.length, "anf": anf(reg),
                "taps": list(gen.taps.positions), "filter": filt}
    return {
        "kind": "hybrid", "coupling": reg.coupling,
        "lfsr": {"length": reg.lfsr.length, "feedback": sorted(reg.lfsr.feedback_positions)},
        "nfsr": {"length": reg.nfsr.length, "anf": anf(reg.nfsr)},
        "taps": {"lfsr": list(gen.taps.lfsr.positions), "nfsr": list(gen.taps.nfsr.positions)},
        "filter": filt,
    }


def test_analyze_prices_the_window_the_attack_runs():
    # analyze, on the generator's config, prices the window that
    # nfsr_window_recover runs: the same samples, covered cells and
    # per-sample preimage spaces.
    rng = random.Random(65)
    for index in range(210):
        kind = ("nfsr", "coupled", "uncoupled")[index % 3]
        gen, _, blocks, _ = _window_instance(rng, kind)
        recovery, _ = nfsr_window_recover(gen, blocks)
        config = parse_config({"generator": _generator_section(gen)})
        payload = cmd_analyze(config, None).payload
        est = payload["estimate"]
        assert payload["profile"]["c"] == recovery.window_length, index
        assert payload["window_cost"]["recovered_bits"] == recovery.recovered_bit_count, index
        assert est["solver_log2"] == recovery.remaining_guess, index
        exponents = [est["first_sample_exponent"], *est["per_sample_exponents"]]
        assert exponents == [math.log2(size) for size in recovery.per_sample_sizes], index


@pytest.mark.parametrize("cap", [1, 3, 1024])
def test_window_level_walk_matches_depth_first_reference(monkeypatch, cap):
    # The joints reach the replay in depth-first order, whichever slices the
    # levels are cut into, and prunes count the same paths.
    rng = random.Random(64)
    monkeypatch.setattr(attack, "_FRONTIER_CAP", cap)
    replayed = []
    monkeypatch.setattr(attack, "_first_completion",
                        lambda gen, blocks, table, bases, *rest: replayed.append(bases))
    seen = dict.fromkeys(("pruned", "window-no-preimage", "no-joint", "sliced"), 0)
    for index in range(210):
        kind = ("nfsr", "coupled", "uncoupled")[index % 3]
        gen, _, blocks, missing = _window_instance(rng, kind)
        window = window_geometry(gen.register, gen.taps)[2]
        if missing and index % 4 == 0:
            blocks[rng.randrange(window)] = missing[0]
        joints, pruned, widths = reference_window_joints(gen, blocks)
        recovery, result = nfsr_window_recover(gen, blocks)
        assert replayed.pop() == [joint >> 1 for joint in joints], index
        assert result.candidates_pruned == pruned, index
        assert result.systems_solved == len(joints) << recovery.remaining_guess
        seen["pruned"] += pruned > 0
        seen["window-no-preimage"] += any(z in missing for z in blocks[:window])
        seen["no-joint"] += not joints
        # A level past the first sample and short of the last is sliced.
        seen["sliced"] += max(widths[1:], default=0) > cap
    assert all(count for key, count in seen.items() if key != "sliced" or cap < 1024), seen


def test_bitsliced_sweep_chunks_keep_enumeration_order():
    # 14 free cells: 2^(14 - _LANE_BITS) chunks of 2^_LANE_BITS completions. A
    # bijective filter leaves one joint, and the planted state is completion
    # 2^_LANE_BITS + 5, in the second chunk.
    L = 24
    nfsr = NfsrSpec(L, 1, (frozenset({1}), frozenset({4, 17}), frozenset({9, 22})))
    taps = TapSet((13, 14, 15, 16, 17, 18), L)
    gen = GeneratorSpec(nfsr, taps, FilterSpec.uniform_random(6, 6, seed=7))
    rng = random.Random(62)
    free = list(range(12)) + [22, 23]  # cells 1..12, 23, 24
    k = (1 << attack._LANE_BITS) + 5
    state = [rng.getrandbits(1) for _ in range(L)]
    for i, cell in enumerate(free):
        state[cell] = k >> i & 1
    state = tuple(state)
    blocks = keystream(gen, state, 5 + 2 * L)
    recovery, result = nfsr_window_recover(gen, blocks)
    assert recovery.remaining_guess == len(free) > attack._LANE_BITS
    expected = _scalar_window_recover(gen, blocks)
    assert (recovery, result.recovered_state, result.systems_solved,
            result.candidates_pruned) == expected
    assert result.recovered_state == state


def test_bitsliced_sweep_first_equivalent_state_wins(monkeypatch):
    # Neither the taps nor the feedback read cells 1..3, so the keystream
    # cannot tell the eight states that differ there apart; the completion
    # that clears them comes first in enumeration order.
    L = 12
    nfsr = NfsrSpec(L, 0, (frozenset({4}), frozenset({6, 9}), frozenset({5, 11})))
    taps = TapSet((4, 5, 6), L)
    gen = GeneratorSpec(nfsr, taps, FilterSpec.uniform_random(3, 1, seed=11))
    state = (1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0)
    blocks = keystream(gen, state, 5 + 2 * L)
    equivalent = [bits + state[3:] for bits in itertools.product((0, 1), repeat=3)]
    assert all(keystream(gen, s, len(blocks)) == blocks for s in equivalent)
    expected = _scalar_window_recover(gen, blocks)
    assert expected[1] == (0, 0, 0) + state[3:]
    for lane_bits in (attack._LANE_BITS, 1):
        with monkeypatch.context() as patch:
            patch.setattr(attack, "_LANE_BITS", lane_bits)
            recovery, result = nfsr_window_recover(gen, blocks)
        assert (recovery, result.recovered_state, result.systems_solved,
                result.candidates_pruned) == expected


def _scalar_first_completion(gen, blocks, bases, free_cells, lengths):
    """The first base | completion, bases in order and completion k setting
    ``free_cells[i]`` iff bit i of k is, that regenerates every block."""
    for base in bases:
        for k in range(1 << len(free_cells)):
            value = base | sum(1 << j for i, j in enumerate(free_cells) if k >> i & 1)
            if keystream(gen, attack._state(value, lengths), len(blocks)) == blocks:
                return value
    return None


def test_bitsliced_sweep_earlier_joint_in_a_chunk_wins(monkeypatch):
    # The equivalent states of the test above, with cells 6 and 11 left
    # free, are joints that all regenerate the keystream. Two winners share
    # a chunk and the earlier one wins, whatever its cell values; with two
    # joints per chunk, a chunk of losers comes before the winners' chunk.
    L = 12
    nfsr = NfsrSpec(L, 0, (frozenset({4}), frozenset({6, 9}), frozenset({5, 11})))
    gen = GeneratorSpec(nfsr, TapSet((4, 5, 6), L), FilterSpec.uniform_random(3, 1, seed=11))
    state = (1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0)
    blocks = keystream(gen, state, 5 + 2 * L)
    table = preimage_table(gen.filter)
    free = [5, 10]
    cleared = _cells(state) & ~sum(1 << j for j in free)
    equivalent = [cleared & ~7 | low for low in (3, 2, 6, 0)]
    losers = [cleared ^ 1 << 3, cleared ^ 1 << 4]  # cells 4 and 5: tap reads
    assert _scalar_first_completion(gen, blocks, losers, free, [L]) is None
    winner = equivalent[0] | 1 << 10
    cases = [
        ([losers[0], equivalent[0], equivalent[1], losers[1]], winner),
        (losers + equivalent[:2], winner),
        (losers + losers + [equivalent[0]], winner),
        (equivalent[2:] + equivalent[:2], equivalent[2] | 1 << 10),
    ]
    for bases, expected in cases:
        assert _scalar_first_completion(gen, blocks, bases, free, [L]) == expected
        for lane_bits in (attack._LANE_BITS, 1, 2, 3):
            with monkeypatch.context() as patch:
                patch.setattr(attack, "_LANE_BITS", lane_bits)
                got = attack._first_completion(gen, blocks, table, bases, free, 0)
            assert got == expected, (bases, lane_bits)


class _CountedTable(tuple):
    """A truth table that records the indices it is read at."""

    def __getitem__(self, index):
        self.reads.append(index)
        return tuple.__getitem__(self, index)


def test_single_lane_finish_keeps_enumeration_order(monkeypatch):
    # The chunk of the first 2^_LANE_BITS bases holds dead ones, which fail
    # block 0, and ends with a slow loser, which regenerates the next blocks,
    # so block 0 leaves it the one lane. The loser fails later; the planted
    # state, second in the next chunk, wins. At 1 and 3 lane bits the same
    # happens in smaller chunks. Only a chunk cut down to one lane reads the
    # truth table.
    chunk = 1 << attack._LANE_BITS
    L = 12
    nfsr = NfsrSpec(L, 0, (frozenset({4}), frozenset({6, 9}), frozenset({5, 11})))
    taps = TapSet((4, 5, 6), L)
    gen = GeneratorSpec(nfsr, taps, FilterSpec.uniform_random(3, 1, seed=11))
    state = (1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0)
    blocks = keystream(gen, state, 5 + 2 * L)
    table = preimage_table(gen.filter)
    rng = random.Random(63)
    dead, slow = [], None
    while len(dead) < chunk or slow is None:
        value = rng.getrandbits(L)
        stream = keystream(gen, attack._state(value, [L]), len(blocks))
        if stream[0] != blocks[0]:
            dead.append(value)
        elif stream[:4] == blocks[:4] and stream != blocks:
            slow = value
    fails_at = next(t for t, z in enumerate(keystream(gen, attack._state(slow, [L]), len(blocks)))
                    if z != blocks[t])
    bases = dead[:chunk - 1] + [slow, dead[chunk - 1], _cells(state)]
    assert _scalar_first_completion(gen, blocks, bases, [], [L]) == _cells(state)
    counted = FilterSpec(3, 1, gen.filter.truth_table)
    object.__setattr__(counted, "truth_table", _CountedTable(gen.filter.truth_table))
    counted.truth_table.reads = []
    counted_gen = GeneratorSpec(nfsr, taps, counted)
    for lane_bits in (attack._LANE_BITS, 1, 3):
        counted.truth_table.reads.clear()
        with monkeypatch.context() as patch:
            patch.setattr(attack, "_LANE_BITS", lane_bits)
            got = attack._first_completion(counted_gen, blocks, table, bases, [], 0)
        assert got == _cells(state), lane_bits
        # The loser's blocks 1..fails_at, then the winner's blocks 1..end.
        assert len(counted.truth_table.reads) == fails_at + len(blocks) - 1, lane_bits


def _replay_generator(rng, kind, missing=False):
    """(generator, register lengths, output values with no preimage) of a
    window instance of ``kind``; with ``missing``, one whose filter misses
    an output value."""
    while True:
        gen, state, _, gone = _window_instance(rng, kind)
        if gone or not missing:
            return gen, [len(state)] if kind == "nfsr" else [len(part) for part in state], gone


def _stream(gen, value, lengths, count):
    return keystream(gen, attack._state(value, lengths), count)


def _dead_bases(rng, gen, lengths, blocks, count):
    """``count`` random states whose first block is not ``blocks[0]``."""
    dead = []
    while len(dead) < count:
        value = rng.getrandbits(sum(lengths))
        if _stream(gen, value, lengths, 1)[0] != blocks[0]:
            dead.append(value)
    return dead


def _replays_like_scalar(monkeypatch, gen, blocks, bases, lengths, expected):
    """Hold ``_first_completion`` (no free cells, nothing checked) equal to
    the scalar reference and ``expected`` at 10, 1 and 3 lane bits; returns
    the truth-table reads of each run."""
    assert _scalar_first_completion(gen, blocks, bases, [], lengths) == expected
    table = preimage_table(gen.filter)
    counted = FilterSpec(gen.filter.n, gen.filter.m, gen.filter.truth_table)
    object.__setattr__(counted, "truth_table", _CountedTable(gen.filter.truth_table))
    counted_gen = GeneratorSpec(gen.register, gen.taps, counted)
    reads = []
    for lane_bits in (attack._LANE_BITS, 1, 3):
        counted.truth_table.reads = []
        with monkeypatch.context() as patch:
            patch.setattr(attack, "_LANE_BITS", lane_bits)
            got = attack._first_completion(counted_gen, blocks, table, bases, [], 0)
        assert got == expected, lane_bits
        reads.append(len(counted.truth_table.reads))
    return reads


def test_lone_lane_failing_in_the_last_chunk_returns_none(monkeypatch):
    # Nine bases fail block 0, so block 0 leaves the slow loser alone in the
    # last chunk, whether that chunk holds all ten bases or the last two.
    # Its one clock run to the end fails at a later block, and the truth
    # table is read up to that block only.
    rng = random.Random(66)
    for index in range(30):
        kind = ("nfsr", "coupled", "uncoupled")[index % 3]
        gen, lengths, _ = _replay_generator(rng, kind)
        slow = rng.getrandbits(sum(lengths))
        blocks = _stream(gen, slow, lengths, rng.randint(6, 12))
        fail = rng.randrange(1, len(blocks))
        others = [z for z in preimage_table(gen.filter) if z != blocks[fail]]
        blocks[fail] = rng.choice(others)
        bases = _dead_bases(rng, gen, lengths, blocks, 9) + [slow]
        reads = _replays_like_scalar(monkeypatch, gen, blocks, bases, lengths, None)
        assert reads == [fail] * 3, index


def test_collapse_at_the_final_block_leaves_no_block_to_finish(monkeypatch):
    # A twin differs from the winner in one cell, and the keystream ends at
    # the first block that tells them apart. Both stay live up to it, so
    # that block leaves one lane with zero blocks remaining and the truth
    # table is never read.
    rng = random.Random(67)
    for index in range(30):
        kind = ("nfsr", "coupled", "uncoupled")[index % 3]
        gen, lengths, _ = _replay_generator(rng, kind)
        total = sum(lengths)
        winner = rng.getrandbits(total)
        stream = _stream(gen, winner, lengths, 4 * total)
        for cell in rng.sample(range(total), total):
            twin = winner ^ 1 << cell
            last = next((t for t, (a, b) in enumerate(
                zip(stream, _stream(gen, twin, lengths, 4 * total))) if a != b), 0)
            if last > 0:
                break
        assert last > 0, index
        blocks = stream[:last + 1]
        bases = _dead_bases(rng, gen, lengths, blocks, 2) + [twin, winner]
        reads = _replays_like_scalar(monkeypatch, gen, blocks, bases, lengths, winner)
        assert reads == [0] * 3, index


def test_block_past_the_window_without_preimage_returns_none(monkeypatch):
    # An output value that no state yields ends the replay before any chunk
    # is built; through the window attack, it sits past the window.
    rng = random.Random(68)
    for index in range(30):
        kind = ("nfsr", "coupled", "uncoupled")[index % 3]
        gen, lengths, missing = _replay_generator(rng, kind, missing=True)
        planted = rng.getrandbits(sum(lengths))
        blocks = _stream(gen, planted, lengths, rng.randint(6, 12))
        blocks[rng.randrange(len(blocks))] = missing[0]
        bases = _dead_bases(rng, gen, lengths, blocks, 3) + [planted]
        rng.shuffle(bases)
        reads = _replays_like_scalar(monkeypatch, gen, blocks, bases, lengths, None)
        assert reads == [0] * 3, index

        window = window_geometry(gen.register, gen.taps)[2]
        state = attack._state(planted, lengths)
        blocks = keystream(gen, state, window + sum(lengths) + 2)
        blocks[rng.randrange(window, len(blocks))] = missing[0]
        expected = _scalar_window_recover(gen, blocks)
        assert expected[1] is None
        for lane_bits in (attack._LANE_BITS, 1, 3):
            with monkeypatch.context() as patch:
                patch.setattr(attack, "_LANE_BITS", lane_bits)
                recovery, result = nfsr_window_recover(gen, blocks)
            assert (recovery, result.recovered_state, result.systems_solved,
                    result.candidates_pruned) == expected, (index, lane_bits)


def test_one_lane_chunks_and_short_keystreams_match_scalar(monkeypatch):
    # At 0 lane bits every chunk starts with one lane, which is tested like
    # any other before its finish; a keystream with no block to test leaves
    # the first candidate.
    rng = random.Random(71)
    for index in range(60):
        kind = ("nfsr", "coupled", "uncoupled")[index % 3]
        gen, lengths, _ = _replay_generator(rng, kind)
        planted = rng.getrandbits(sum(lengths))
        blocks = _stream(gen, planted, lengths, rng.randint(0, 10))
        if blocks and index % 4 == 0:
            blocks[rng.randrange(len(blocks))] ^= 1
        bases = [rng.getrandbits(sum(lengths)) for _ in range(rng.randint(1, 5))] + [planted]
        rng.shuffle(bases)
        expected = _scalar_first_completion(gen, blocks, bases, [], lengths)
        table = preimage_table(gen.filter)
        for lane_bits in (0, 2, attack._LANE_BITS):
            with monkeypatch.context() as patch:
                patch.setattr(attack, "_LANE_BITS", lane_bits)
                got = attack._first_completion(gen, blocks, table, bases, [], 0)
            assert got == expected, (index, lane_bits)


def test_split_minterm_test_matches_the_full_one():
    # The half-size test over the first n - 1 tap values, then the last,
    # keeps the lanes that the 2^n-term test over all n tap values keeps.
    rng = random.Random(69)
    for n in range(1, 9):
        for m in range(1, n + 1):
            for style in ("uniform", "skewed", "missing") if m > 1 else ("uniform", "skewed"):
                table = preimage_table(_window_filter(rng, n, m, style))
                split = attack._split_preimages(table, n)
                assert split.keys() == table.keys()
                for _ in range(3):
                    width = rng.randint(1, 80)
                    values = [rng.getrandbits(width) for _ in range(n)]
                    alive = rng.getrandbits(width)
                    terms = [alive]
                    for tap in values:
                        terms = [lanes & ~tap for lanes in terms] + [lanes & tap for lanes in terms]
                    for z, members in table.items():
                        full = 0
                        for x in members:
                            full |= terms[x]
                        got = attack._preimage_lanes(values, alive, split[z])
                        assert got == full, (n, m, style, z)


def _twin_instance(rng, case):
    """An LFSR generator and its NFSR twin, the constant 0 and one monomial
    {p} per feedback position p, which give the same keystream. L is 12-22,
    n 3-5 and m any of 1..n-1; the feedback holds cell 1, the last tap
    leaves a window that the window attack accepts, and the greedy or
    cyclic schedule leaves at most COMPLETION_CAP_BITS free bits. The
    keystream is just long enough for both attacks when ``case`` is
    "short", L blocks longer otherwise, with one block flipped when it is
    "corrupt". Returns (LFSR generator, NFSR generator, schedule, blocks,
    free bits)."""
    while True:
        L = rng.randint(12, 22)
        n = rng.randint(3, 5)
        m = rng.randint(1, n - 1)
        window = rng.randint(L // n + 1, L - 1 - n)  # window * n > L
        top = L - 1 - window
        taps = TapSet((*sorted(rng.sample(range(1, top), n - 1)), top), L)
        build = rng.choice((greedy_schedule, cyclic_schedule))
        schedule, _ = build(taps, RankStop())
        lfsr = LfsrSpec(L, frozenset({1, *rng.sample(range(2, L + 1), rng.randint(1, 3))}))
        shifts = list(itertools.accumulate(schedule.steps, initial=0))
        exprs = label_expressions(lfsr, top + shifts[-1])
        free = L - rank_of([exprs[pos + s - 1] for s in shifts for pos in taps.positions], L)
        if free <= attack.COMPLETION_CAP_BITS:
            break
    filt = FilterSpec.uniform_random(n, m, rng.getrandbits(30))
    nfsr = NfsrSpec(L, 0, tuple(frozenset({p}) for p in lfsr.feedback_positions))
    gen, twin = GeneratorSpec(lfsr, taps, filt), GeneratorSpec(nfsr, taps, filt)
    state = tuple(rng.getrandbits(1) for _ in range(L))
    count = max(shifts[-1] + 1, window + -(-L // m)) + (0 if case == "short" else L)
    blocks = keystream(gen, state, count)
    assert keystream(twin, state, count) == blocks
    if case == "corrupt":
        blocks[rng.randrange(count)] ^= rng.randrange(1, 1 << m)
    return gen, twin, schedule, blocks, free


def test_lfsr_and_window_attacks_agree_on_an_lfsr_and_its_nfsr_twin():
    # The two attacks share the sample plan, the compile (the window attack
    # with identity label expressions), the bucket builder, the walker and
    # the clock; the pairing rule, the offset filter and the label words sit
    # on one side, the counting step and the bitsliced lane replay on the
    # other. On a planted or short keystream both find a state, the same one
    # or two that both regenerate the keystream; on a corrupt one neither does.
    rng = random.Random(16)
    swept = 0
    for index in range(540):
        case = ("planted", "corrupt", "short")[index % 3]
        gen, twin, schedule, blocks, free = _twin_instance(rng, case)
        state = gfsga_recover(gen, blocks, schedule).recovered_state
        twin_state = nfsr_window_recover(twin, blocks)[1].recovered_state
        if case == "corrupt":
            assert state is None and twin_state is None, index
        else:
            for found in (state, twin_state):
                assert found is not None and keystream(gen, found, len(blocks)) == blocks, index
        swept += free > 0
    assert swept >= 100  # instances whose paths sweep completion offsets


def test_attacks_leave_no_reference_cycles(monkeypatch):
    # With the collector off, everything an attack allocates is freed by
    # reference counting alone: the level walk leaves no cycle behind, also
    # when it is cut into slices or the LFSR attack fails.
    rng = random.Random(70)
    monkeypatch.setattr(attack, "_FRONTIER_CAP", 3)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for index in range(12):
            gen, _, blocks, _ = _window_instance(rng, ("nfsr", "coupled", "uncoupled")[index % 3])
            gc.collect()
            nfsr_window_recover(gen, blocks)
            assert gc.collect() == 0, index
        for index in range(6):
            gen, state = planted_lfsr_instance(rng, 20, 5, 2)
            schedule, _ = greedy_schedule(gen.taps, RankStop())
            blocks = keystream(gen, state, sum(schedule.steps) + 24)
            if index % 2:
                blocks[-1] ^= 1
            gc.collect()
            gfsga_recover(gen, blocks, schedule)
            assert gc.collect() == 0, index
    finally:
        if was_enabled:
            gc.enable()


def test_keystream_file_round_trip(tmp_path):
    path = tmp_path / "stream.ks"
    blocks = [3, 0, 1, 2, 3, 1, 0, 2, 2]
    write_keystream_file(path, 5, 2, 20, blocks)
    header, back = read_keystream_file(path)
    assert header == (5, 2, 20, 9)
    assert back == blocks


def _per_bit_keystream_file(n, m, L, blocks):
    """The file bytes as the original bit-by-bit writer packed them."""
    header = struct.Struct("<4I")
    buf = bytearray(header.size + (len(blocks) * m + 7) // 8)
    header.pack_into(buf, 0, n, m, L, len(blocks))
    bit = 0
    for block in blocks:
        for j in range(m):
            if (block >> j) & 1:
                buf[header.size + (bit >> 3)] |= 1 << (bit & 7)
            bit += 1
    return bytes(buf)


def test_keystream_codec_matches_per_bit_reference(tmp_path):
    rng = random.Random(8)
    path = tmp_path / "stream.ks"
    cases = [(n, m, count) for n in range(1, 9) for m in range(1, n + 1) for count in range(101)]
    # Long files cross many of the codec's 64-block chunks, the last one partial.
    cases += [(8, m, count) for m in (1, 8) for count in (64 * 157 + 3, 10**5 - 3)]
    for n, m, count in cases:
        # One bit above m, which both writers drop.
        blocks = [rng.getrandbits(m + 1) for _ in range(count)]
        raw = _per_bit_keystream_file(n, m, 4 * n, blocks)
        write_keystream_file(path, n, m, 4 * n, blocks)
        assert path.read_bytes() == raw
        expected = ((n, m, 4 * n, count), [b & ((1 << m) - 1) for b in blocks])
        assert read_keystream_file(path) == expected
        if count * m % 8 and (count < 8 or count > 100):
            # Padding bits of the last byte are ignored; counts up to 7
            # leave every remainder that m can leave, and the long counts
            # leave one after a run of full chunks.
            path.write_bytes(raw[:-1] + bytes([raw[-1] | (0xFF << count * m % 8) & 0xFF]))
            assert read_keystream_file(path) == expected


def test_keystream_file_of_a_million_blocks_round_trips_in_linear_time(tmp_path):
    # One int for the whole payload made both directions quadratic: reading
    # 4 * 10**5 blocks took 4.2 s.
    path = tmp_path / "stream.ks"
    blocks = [b & 1 for b in random.Random(3).randbytes(10**6)]
    start = time.perf_counter()
    write_keystream_file(path, 1, 1, 20, blocks)
    back = read_keystream_file(path)
    elapsed = time.perf_counter() - start
    assert back == ((1, 1, 20, 10**6), blocks)
    assert path.stat().st_size == 16 + 10**6 // 8
    assert elapsed < 2.0, elapsed


def test_keystream_file_truncation_detected(tmp_path):
    path = tmp_path / "stream.ks"
    write_keystream_file(path, 5, 2, 20, [1] * 40)
    raw = path.read_bytes()
    path.write_bytes(raw[:-1])
    with pytest.raises(KeystreamFormatError):
        read_keystream_file(path)
    path.write_bytes(raw[:8])
    with pytest.raises(KeystreamFormatError):
        read_keystream_file(path)

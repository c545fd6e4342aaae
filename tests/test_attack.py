import itertools
import math
import random

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
    TapSet,
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
from fsglab.attack import WindowRecovery, _matching, _sample_plan


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
            assert mask == sum(1 << i for i, label in enumerate(labels) if label in earlier)
            assert fixed == tuple((i, label) for i, label in enumerate(labels)
                                  if label in earlier)
            assert fresh == tuple((i, label) for i, label in enumerate(labels)
                                  if label not in earlier)
            n = len(labels)
            path = rng.getrandbits(max(max(row) for row in reads) + 1)
            members = sorted(rng.sample(range(1 << n), rng.randint(0, 1 << n)))
            assert _matching(members, mask, fixed, path) == [
                x for x in members
                if all((x >> i) & 1 == (path >> label) & 1 for i, label in fixed)
            ]


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
    from fsglab import SamplingSchedule

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
    # A window leaves at least two cells of each register free, so one-bit
    # lanes also sweep every instance across several chunks.
    rng = random.Random(61)
    seen = dict.fromkeys(("unequal", "constant-0", "constant-1", "no-preimage",
                          "recovered", "failed"), 0)
    for index in range(210):
        kind = ("nfsr", "coupled", "uncoupled")[index % 3]
        gen, state, blocks, missing = _window_instance(rng, kind)
        expected = _scalar_window_recover(gen, blocks)
        for lane_bits in (attack._LANE_BITS, 1):
            with monkeypatch.context() as patch:
                patch.setattr(attack, "_LANE_BITS", lane_bits)
                recovery, result = nfsr_window_recover(gen, blocks)
            got = (recovery, result.recovered_state, result.systems_solved,
                   result.candidates_pruned)
            assert got == expected, (index, lane_bits)
        # free = 0: whole candidate states, nothing to complete.
        lengths = [len(state)] if kind == "nfsr" else [len(part) for part in state]
        bases = [rng.getrandbits(sum(lengths)) for _ in range(3)]
        bases.insert(rng.randrange(4), _cells(state))
        replays = [b for b in bases
                   if keystream(gen, attack._state(b, lengths), len(blocks)) == blocks]
        table = preimage_table(gen.filter)
        assert attack._first_completion(gen, blocks, table, bases, [], 0) == (
            replays[0] if replays else None)
        nfsr = gen.register if kind == "nfsr" else gen.register.nfsr
        seen["unequal"] += len(set(lengths)) > 1
        seen[f"constant-{nfsr.constant_term}"] += 1
        seen["no-preimage"] += any(z in missing for z in blocks[expected[0].window_length:])
        seen["recovered" if expected[1] is not None else "failed"] += 1
    assert all(seen.values()), seen


def test_bitsliced_sweep_chunks_keep_enumeration_order():
    # 14 free cells: 16 chunks of 2^10 completions. A bijective filter leaves
    # one joint, and the planted state is completion 1029, in the second chunk.
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


def test_keystream_file_round_trip(tmp_path):
    path = tmp_path / "stream.ks"
    blocks = [3, 0, 1, 2, 3, 1, 0, 2, 2]
    write_keystream_file(path, 5, 2, 20, blocks)
    header, back = read_keystream_file(path)
    assert header == (5, 2, 20, 9)
    assert back == blocks


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

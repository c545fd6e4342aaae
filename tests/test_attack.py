import math
import random

import pytest

from fsglab import (
    FilterSpec,
    GeneratorSpec,
    HybridSpec,
    HybridTaps,
    KeystreamFormatError,
    NfsrSpec,
    NoOverdefinedSystemError,
    RankStop,
    TapSet,
    gfsga_recover,
    gfsga_variable_cost,
    greedy_schedule,
    keystream,
    nfsr_window_recover,
    primitive_lfsr,
    read_keystream_file,
    write_keystream_file,
)
from fsglab.attack import _matching, _sample_plan


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
    offsets = [0] * len(lengths) if kind == "merged" else [0, lengths[0]][:len(lengths)]
    return [[off + pos + s for off, t in zip(offsets, taps) for pos in t]
            for s in range(window)]


def test_sample_plan_against_brute_force():
    rng = random.Random(4)
    twins_seen = {"lfsr": 0, "per-register": 0, "merged": 0}
    for _ in range(300):
        kind = rng.choice(sorted(twins_seen))
        reads = _random_reads(rng, kind)
        plan = _sample_plan(reads)
        assert len(plan) == len(reads)
        for s, (labels, (mask, fixed, fresh, twins)) in enumerate(zip(reads, plan)):
            earlier = {label for row in reads[:s] for label in row}
            first = {}
            for i, label in enumerate(labels):
                first.setdefault(label, i)
            assert mask == sum(1 << i for i, label in enumerate(labels) if label in earlier)
            assert fixed == tuple((i, label) for i, label in enumerate(labels)
                                  if label in earlier)
            assert fresh == tuple((i, label) for i, label in enumerate(labels)
                                  if label not in earlier and first[label] == i)
            assert twins == tuple((first[label], i) for i, label in enumerate(labels)
                                  if label not in earlier and first[label] != i)
            twins_seen[kind] += len(twins)
            n = len(labels)
            path = rng.getrandbits(max(max(row) for row in reads) + 1)
            members = sorted(rng.sample(range(1 << n), rng.randint(0, 1 << n)))
            assert _matching(members, mask, fixed, path) == [
                x for x in members
                if all((x >> i) & 1 == (path >> label) & 1 for i, label in fixed)
            ]
    # Only the merged window model reads one label twice within a sample.
    assert twins_seen["lfsr"] == twins_seen["per-register"] == 0
    assert twins_seen["merged"] > 0


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

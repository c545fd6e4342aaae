import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsglab import (
    FilterSpec,
    GeneratorSpec,
    HybridSpec,
    HybridTaps,
    LfsrSpec,
    NfsrSpec,
    TapSet,
    keystream,
    preimage_table,
    primitive_lengths,
    primitive_lfsr,
)
from fsglab.registers import label_expressions

from register_reference import (
    apply,
    hybrid_step,
    lfsr_step,
    nfsr_step,
    read_taps,
    reference_keystream,
)

# The 128-bit nonlinear update used by the hybrid fixtures: constant 1,
# linear terms at cells {1, 27, 57, 92, 97}, quadratic terms as listed.
GRAIN_LIKE_NFSR = NfsrSpec(
    128,
    1,
    tuple(
        frozenset(mono)
        for mono in (
            {1}, {27}, {57}, {92}, {97},
            {4, 68}, {12, 14}, {18, 19}, {28, 60}, {41, 49}, {62, 66}, {69, 85},
        )
    ),
)

GRAIN_LIKE_LFSR = LfsrSpec(128, frozenset({1, 8, 39, 71, 82, 97}))


def random_lfsr(rng, L):
    nfb = rng.randint(1, min(5, L))
    positions = frozenset(rng.sample(range(1, L + 1), nfb))
    return LfsrSpec(L, positions)


def test_zero_state_is_fixed_point():
    spec = LfsrSpec(8, frozenset({1, 5, 6}))
    state = (0,) * 8
    assert lfsr_step(state, spec) == state


def test_hand_traced_step():
    spec = LfsrSpec(4, frozenset({1, 4}))
    assert lfsr_step((1, 0, 0, 0), spec) == (0, 0, 0, 1)


def test_length_mismatch_rejected():
    spec = LfsrSpec(4, frozenset({1}))
    with pytest.raises(ValueError):
        lfsr_step((0, 1), spec)


def test_positional_bookkeeping_over_ten_steps():
    # A bit entering cell L at step tau+1 sits at cell L - (t - tau - 1) at
    # time t; equivalently, cell j's content moves to cell j-1 each clock.
    rng = random.Random(3)
    spec = random_lfsr(rng, 12)
    state = tuple(rng.getrandbits(1) for _ in range(12))
    history = [state]
    for _ in range(10):
        history.append(lfsr_step(history[-1], spec))
    for t in range(11):
        for j in range(1, 13 - t):
            assert history[t][j - 1] == history[0][j + t - 1]


def test_nfsr_constant_only():
    spec = NfsrSpec(6, 1, ())
    state = (0, 1, 0, 1, 1, 0)
    for _ in range(8):
        state = nfsr_step(state, spec)
        assert state[-1] == 1


def test_grain_like_update_matches_direct_anf():
    rng = random.Random(99)
    state = tuple(rng.getrandbits(1) for _ in range(128))
    b = state  # b[t+j] is state[j] for the first step

    def direct():
        lin = b[0] ^ b[26] ^ b[56] ^ b[91] ^ b[96]
        quad = (
            (b[3] & b[67]) ^ (b[11] & b[13]) ^ (b[17] & b[18])
            ^ (b[27] & b[59]) ^ (b[40] & b[48]) ^ (b[61] & b[65])
            ^ (b[68] & b[84])
        )
        return 1 ^ lin ^ quad

    assert nfsr_step(state, GRAIN_LIKE_NFSR)[-1] == direct()


def test_coupled_hybrid_update_xors_lfsr_bit():
    rng = random.Random(5)
    lf = tuple(rng.getrandbits(1) for _ in range(128))
    nf = tuple(rng.getrandbits(1) for _ in range(128))
    hybrid = HybridSpec(GRAIN_LIKE_LFSR, GRAIN_LIKE_NFSR, coupling=True)
    plain = nfsr_step(nf, GRAIN_LIKE_NFSR)
    _, coupled = hybrid_step((lf, nf), hybrid)
    assert coupled[-1] == plain[-1] ^ lf[0]


def tap_expressions(spec, taps, t):
    """Label coefficients of the taps after t clocks: label pos+t for tap pos."""
    labels = label_expressions(spec, taps.positions[-1] + t)
    return [labels[pos + t - 1] for pos in taps.positions]


def evaluate(coeffs, state):
    return sum(state[j] for j in range(len(state)) if (coeffs >> j) & 1) & 1


def test_tap_expressions_identity_at_t0():
    spec = LfsrSpec(10, frozenset({1, 4}))
    taps = TapSet((2, 5, 9), 10)
    for coeffs, pos in zip(tap_expressions(spec, taps, 0), taps.positions):
        assert coeffs == 1 << (pos - 1)


def test_tap_expressions_one_step_shift():
    spec = LfsrSpec(10, frozenset({1, 4}))
    taps = TapSet((2, 5, 9), 10)
    for coeffs, pos in zip(tap_expressions(spec, taps, 1), taps.positions):
        assert coeffs == 1 << pos  # selects initial cell pos+1


def test_tap_expressions_match_simulation():
    rng = random.Random(11)
    spec = random_lfsr(rng, 20)
    taps = TapSet((3, 5, 10, 14, 16), 20)
    state0 = tuple(rng.getrandbits(1) for _ in range(20))
    state = state0
    for _ in range(7):
        state = lfsr_step(state, spec)
    exprs = tap_expressions(spec, taps, 7)
    assert [evaluate(e, state0) for e in exprs] == [state[p - 1] for p in taps.positions]


def test_linear_expression_soundness_thousand_triples():
    rng = random.Random(0xABCDEF)
    for _ in range(1000):
        L = rng.randint(4, 28)
        spec = random_lfsr(rng, L)
        t = rng.randint(0, 4 * L)
        state0 = tuple(rng.getrandbits(1) for _ in range(L))
        npos = rng.randint(1, min(6, L))
        taps = TapSet(tuple(sorted(rng.sample(range(1, L + 1), npos))), L)
        state = state0
        for _ in range(t):
            state = lfsr_step(state, spec)
        exprs = tap_expressions(spec, taps, t)
        assert [evaluate(e, state0) for e in exprs] == [
            state[p - 1] for p in taps.positions
        ]


def test_keystream_constant_zero_filter():
    spec = LfsrSpec(8, frozenset({1, 5}))
    filt = FilterSpec(2, 1, (0,) * 4)
    gen = GeneratorSpec(spec, TapSet((1, 8), 8), filt)
    assert keystream(gen, (1,) * 8, 12) == [0] * 12


def test_keystream_matches_direct_recomputation():
    rng = random.Random(21)
    spec = primitive_lfsr(20)
    taps = TapSet((3, 5, 10, 14, 16), 20)
    filt = FilterSpec.uniform_random(5, 2, seed=77)
    gen = GeneratorSpec(spec, taps, filt)
    state = tuple(rng.getrandbits(1) for _ in range(20))
    blocks = keystream(gen, state, 30)
    cur = state
    for z in blocks:
        assert apply(filt, tuple(cur[p - 1] for p in taps.positions)) == z
        cur = lfsr_step(cur, spec)


def test_hybrid_keystream_consistent_with_per_register_stepping():
    rng = random.Random(42)
    hybrid = HybridSpec(GRAIN_LIKE_LFSR, GRAIN_LIKE_NFSR, coupling=True)
    taps = HybridTaps(
        lfsr=TapSet((8, 13, 20, 42, 60, 79, 93, 95), 128),
        nfsr=TapSet((2, 12, 15, 36, 45, 64, 73, 89, 95), 128),
    )
    filt = FilterSpec.uniform_random(17, 1, seed=3)
    gen = GeneratorSpec(hybrid, taps, filt)
    state = (
        tuple(rng.getrandbits(1) for _ in range(128)),
        tuple(rng.getrandbits(1) for _ in range(128)),
    )
    blocks = keystream(gen, state, 5)
    cur = state
    for z in blocks:
        assert apply(filt, read_taps(cur, taps)) == z
        cur = hybrid_step(cur, hybrid)


def _random_nfsr(rng, L):
    monomials = tuple(
        frozenset(rng.sample(range(1, L + 1), rng.randint(1, min(3, L))))
        for _ in range(rng.randint(0, 5))
    )
    return NfsrSpec(L, rng.getrandbits(1), monomials)


def _random_taps(rng, L):
    return TapSet(tuple(sorted(rng.sample(range(1, L + 1), rng.randint(1, min(4, L))))), L)


def _random_generator(rng, kind):
    """(generator, initial state) of the given kind, lengths 1..24."""
    if kind == "lfsr" or kind == "nfsr":
        L = rng.randint(1, 24)
        reg = random_lfsr(rng, L) if kind == "lfsr" else _random_nfsr(rng, L)
        taps = _random_taps(rng, L)
        n = len(taps.positions)
        state = tuple(rng.getrandbits(1) for _ in range(L))
    else:
        La = rng.randint(1, 16)
        Lb = La if kind == "coupled" else rng.randint(1, 16)
        reg = HybridSpec(random_lfsr(rng, La), _random_nfsr(rng, Lb), coupling=kind == "coupled")
        taps = HybridTaps(_random_taps(rng, La), _random_taps(rng, Lb))
        n = taps.total
        state = (tuple(rng.getrandbits(1) for _ in range(La)),
                 tuple(rng.getrandbits(1) for _ in range(Lb)))
    m = rng.randint(1, n)
    filt = FilterSpec(n, m, tuple(rng.getrandbits(m) for _ in range(1 << n)))
    return GeneratorSpec(reg, taps, filt), state


def test_keystream_matches_tuple_reference_on_600_generators():
    rng = random.Random(0x5EED)
    kinds = ("lfsr", "nfsr", "coupled", "uncoupled")
    for i in range(600):
        gen, state = _random_generator(rng, kinds[i % 4])
        count = i % 7 if i % 3 == 0 else rng.randint(0, 120)  # 0 and 1 included
        assert keystream(gen, state, count) == reference_keystream(gen, state, count), i


@pytest.mark.parametrize("kind", ["lfsr", "nfsr", "coupled", "uncoupled"])
def test_keystream_rejects_a_state_of_the_wrong_length(kind):
    gen, state = _random_generator(random.Random(kind), kind)
    short = state[1:] if kind in ("lfsr", "nfsr") else (state[0], state[1] + (0,))
    for count in (0, 1, 5):
        with pytest.raises(ValueError, match="state length mismatch"):
            keystream(gen, short, count)


def test_uniform_preimage_sizes():
    filt = FilterSpec.uniform_random(7, 2, seed=9)
    assert sorted(Counter(filt.truth_table).items()) == [(v, 32) for v in range(4)]
    table = preimage_table(filt)
    assert len(table) == 4
    assert all(len(members) == 32 for members in table.values())


def test_constant_filter_single_class():
    filt = FilterSpec(4, 1, (1,) * 16)
    table = preimage_table(filt)
    assert set(table) == {1}
    assert table[1] == tuple(range(16))
    assert Counter(filt.truth_table) == {1: 16}  # value 0 has no preimage


@given(st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_preimage_partition(n, data):
    m = data.draw(st.integers(1, n))
    table_vals = data.draw(
        st.lists(st.integers(0, 2**m - 1), min_size=2**n, max_size=2**n)
    )
    filt = FilterSpec(n, m, tuple(table_vals))
    table = preimage_table(filt)
    all_members = [x for members in table.values() for x in members]
    assert sorted(all_members) == list(range(2**n))
    for z, members in table.items():
        assert list(members) == sorted(members)
        assert all(filt.truth_table[x] == z for x in members)


def test_truth_table_hex_round_trip():
    filt = FilterSpec.uniform_random(5, 2, seed=4)
    text = filt.to_hex()
    assert text == text.lower() and len(text) == 32
    assert FilterSpec.from_hex(5, 2, text) == filt
    wide = FilterSpec.uniform_random(4, 4, seed=4)
    assert FilterSpec.from_hex(4, 4, wide.to_hex()) == wide


def _poly_mul_mod(a, b, mod, deg):
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if (a >> deg) & 1:
            a ^= mod
    return out


def _poly_pow_mod(base, exp, mod, deg):
    out = 1
    while exp:
        if exp & 1:
            out = _poly_mul_mod(out, base, mod, deg)
        base = _poly_mul_mod(base, base, mod, deg)
        exp >>= 1
    return out


def _factorize(x):
    out = {}
    d = 2
    while d * d <= x:
        while x % d == 0:
            out[d] = out.get(d, 0) + 1
            x //= d
        d += 1
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


@pytest.mark.parametrize("L", primitive_lengths())
def test_builtin_feedback_is_primitive(L):
    # Recurrence polynomial x^L + sum x^(p-1) over feedback positions; the
    # update is maximal-period iff x has order 2^L - 1 modulo it.
    spec = primitive_lfsr(L)
    mod = (1 << L) | sum(1 << (p - 1) for p in spec.feedback_positions)
    order = (1 << L) - 1
    assert _poly_pow_mod(2, order, mod, L) == 1
    for prime in _factorize(order):
        assert _poly_pow_mod(2, order // prime, mod, L) != 1

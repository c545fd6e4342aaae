"""Tuple-state reference steppers for ``fsglab.registers``.

Each clock copies the whole 0/1 tuple and reads the taps off it, one block
at a time. ``fsglab.registers.keystream`` runs the one timeline clock
instead; the tests hold the two equal.
"""

from fsglab.registers import HybridSpec, HybridTaps, LfsrSpec, NfsrSpec

State = tuple[int, ...]


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


def apply(filt, bits: tuple[int, ...]) -> int:
    """``FilterSpec`` ``filt`` on input bits x_1..x_n."""
    idx = 0
    for i, b in enumerate(bits):
        idx |= (b & 1) << i
    return filt.truth_table[idx]


def reference_keystream(gen, initial_state, count: int) -> list[int]:
    """First block is filtered from the initial state, then clock once per block."""
    state = initial_state
    blocks = []
    for _ in range(count):
        blocks.append(apply(gen.filter, read_taps(state, gen.taps)))
        state = step_register(state, gen.register)
    return blocks

"""Per-branch reference for ``gfsga_recover``.

Every branch of the depth-first search copies an incremental GF(2)
eliminator and adds one row per fresh label, so a dependent row is found
inconsistent or not on the branch itself. ``gfsga_recover`` compiles that
elimination once per schedule; the tests hold the two equal.
"""

from fsglab.attack import KeystreamFormatError, _sample_plan
from fsglab.registers import label_expressions, preimage_table, read_taps, step_register
from fsglab.sampling import NoOverdefinedSystemError, repetition_profile

ADDED = 0
DEPENDENT = 1
INCONSISTENT = 2


class Eliminator:
    """Incremental Gaussian elimination over GF(2), kept in row echelon form.

    Every stored row owns a distinct pivot column (its highest set bit);
    lower bits stay as they came, so the unique solution is recovered by
    back-substitution once ``rank == ncols``.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rank = 0
        self.rows: dict[int, int] = {}  # pivot column -> row bitset
        self.rhs: dict[int, int] = {}

    def add_row(self, coeffs: int, rhs: int) -> int:
        """Reduce a row against the basis; returns ADDED, DEPENDENT or INCONSISTENT."""
        while coeffs:
            p = coeffs.bit_length() - 1
            if p not in self.rows:
                self.rows[p] = coeffs
                self.rhs[p] = rhs
                self.rank += 1
                return ADDED
            coeffs ^= self.rows[p]
            rhs ^= self.rhs[p]
        return INCONSISTENT if rhs else DEPENDENT

    def copy(self) -> "Eliminator":
        dup = Eliminator(self.ncols)
        dup.rank = self.rank
        dup.rows = dict(self.rows)
        dup.rhs = dict(self.rhs)
        return dup

    def solve(self) -> int | None:
        """Unique solution as a bitset, or None unless rank == ncols."""
        if self.rank != self.ncols:
            return None
        return self._back_substitute(0)

    def solutions(self):
        """Every solution; free column ``free[j]`` is set iff bit j of the
        sweep counter is."""
        free = [p for p in range(self.ncols) if p not in self.rows]
        for assignment in range(1 << len(free)):
            x = 0
            for j, col in enumerate(free):
                if (assignment >> j) & 1:
                    x |= 1 << col
            yield self._back_substitute(x)

    def _back_substitute(self, x: int) -> int:
        """Fill the pivot bits of x, given its free bits."""
        for p in range(self.ncols):  # ascending: lower bits already solved
            if p in self.rows and self.rhs[p] ^ (
                    ((self.rows[p] ^ (1 << p)) & x).bit_count() & 1):
                x |= 1 << p
        return x


def _replays(gen, state, observed) -> bool:
    for z in observed:
        if gen.filter.apply(read_taps(state, gen.taps)) != z:
            return False
        state = step_register(state, gen.register)
    return True


def reference_gfsga_recover(gen, blocks, schedule, completion_cap_bits=14):
    """(state, systems_solved, candidates_pruned, inconsistent prunes,
    verified states) of the per-branch search; raises what ``gfsga_recover``
    raises."""
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
    ranked = Eliminator(L)
    for *_, fresh in plan:
        for _, label in fresh:
            ranked.add_row(exprs[label - 1], 0)
    if L - ranked.rank > completion_cap_bits:
        raise NoOverdefinedSystemError(
            f"labels read have rank {ranked.rank} of {L}: {L - ranked.rank} free bits "
            f"exceed the completion cap of {completion_cap_bits}")
    table = preimage_table(gen.filter)
    solved = pruned = inconsistent = 0
    successes = []

    def state_of(value):
        return tuple(value >> j & 1 for j in range(L))

    def dfs(sample, path, elim):
        nonlocal solved, pruned, inconsistent
        if sample == len(plan):
            solved += 1
            for value in elim.solutions():
                if _replays(gen, state_of(value), blocks):
                    successes.append(state_of(value))
            return
        members = table.get(blocks[shifts[sample]])
        if members is None:
            pruned += 1
            return
        _, fixed, fresh = plan[sample]
        mask = sum(1 << i for i, _ in fixed)
        want = sum((path >> label & 1) << i for i, label in fixed)
        for x in [x for x in members if x & mask == want]:
            branch = path
            branch_elim = elim.copy()
            for i, label in fresh:
                bit = (x >> i) & 1
                if branch_elim.add_row(exprs[label - 1], bit) == INCONSISTENT:
                    pruned += 1
                    inconsistent += 1
                    break
                branch |= bit << label
            else:
                if branch_elim.rank < L:
                    dfs(sample + 1, branch, branch_elim)
                else:
                    solved += 1
                    state = state_of(branch_elim.solve())
                    if _replays(gen, state, blocks):
                        successes.append(state)

    dfs(0, 0, Eliminator(L))
    return (successes[0] if successes else None), solved, pruned, inconsistent, len(successes)

"""Per-branch reference for ``gfsga_recover``.

Every branch of the depth-first search copies an incremental GF(2)
eliminator and adds one row per fresh label, so a dependent row is found
inconsistent or not on the branch itself. ``gfsga_recover`` compiles that
elimination once per schedule; the tests hold the two equal.
``reference_compile`` is that compilation in its first form: the preimages
grouped by the fixed labels' bits (``_first_buckets``, the first form of
``attack._buckets``, kept here so that the reference does not run the code
it checks) and then split by syndrome, and a Gauss-Jordan pass that tests
every earlier pivot. It keeps the state-domain output of that first form,
label contributions and null vectors, so the tests can hold the steps of
``attack._compile`` equal to it and decode its label-domain cells
independently.
"""

from typing import Sequence

from fsglab.attack import KeystreamFormatError, _sample_plan
from fsglab.registers import label_expressions, preimage_table
from fsglab.sampling import NoOverdefinedSystemError, repetition_profile

from register_reference import apply, read_taps, step_register

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
        if apply(gen.filter, read_taps(state, gen.taps)) != z:
            return False
        state = step_register(state, gen.register)
    return True


def reference_gfsga_recover(gen, blocks, schedule, completion_cap_bits=14):
    """(state, systems_solved, candidates_pruned, inconsistent prunes,
    verified states) of the per-branch search; raises what ``gfsga_recover``
    raises."""
    taps = gen.taps
    L = gen.register.length
    profile = repetition_profile(taps, schedule.steps)
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


def _first_buckets(members: Sequence[int], table: Sequence[int], mask: int,
                   shift: int) -> dict[int, list[int]]:
    """A sample's preimages as the label bitsets their fresh inputs set,
    grouped by the label bitset their fixed inputs set, so that a path picks
    its group as ``path & mask``. The sample reads the labels of ``table``
    (a ``_spread_table``) plus ``shift``, and ``mask`` holds its fixed
    labels. Truth-table order is kept inside a group."""
    sel = mask >> shift
    groups: dict[int, list[int]] = {}
    for x in members:
        spread = table[x]
        groups.setdefault((spread & sel) << shift, []).append((spread ^ spread & sel) << shift)
    return groups


def reference_compile(plan: Sequence[tuple], exprs: Sequence[int], L: int, sampled,
                      spreads: Sequence[int], shifts: Sequence[int]) -> tuple:
    """The guess-independent part of ``gfsga_recover``: (steps,
    contributions, nulls), given each sample's preimages ``sampled[s]``,
    the ``_spread_table`` of the tap positions and each sample's shift.

    Fresh label rows are reduced once, in plan order, each tracking the
    labels whose expressions it combines, up to the sample that reaches rank
    L. A row that reduces to zero is a parity check c: a consistent path has
    even ``parity(path & c)``. ``steps[s]`` is None if no preimage yields the
    block, else ``(mask, checks, groups, sizes)``: ``groups`` appends one
    syndrome bit per check to the ``_first_buckets`` keys, and ``sizes`` counts
    each bucket before that split (None without checks, where nothing reads
    it), so the preimages a check prunes are counted unvisited. After Gauss-Jordan, the particular solution (free
    columns zero) XORs ``contributions[j]`` over the path's set labels j, and
    ``nulls`` lists the null vector of each free column, lowest column first:
    L minus the rank of the labels read.
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
            groups: dict[int, list[int]] = {}
            sizes = {}
            for want, bucket in _first_buckets(members, spreads, mask, shift).items():
                sizes[want] = len(bucket)
                for spread in bucket:
                    key = want
                    for check in checks:
                        key = key << 1 | (spread & check).bit_count() & 1
                    groups.setdefault(key, []).append(spread)
            steps.append((mask, tuple(checks), groups, sizes if checks else None))
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
    nulls = [sum((row >> j & 1) << p for p, (row, _) in basis.items()) | 1 << j
             for j in range(L) if j not in basis]
    return steps, contributions, nulls

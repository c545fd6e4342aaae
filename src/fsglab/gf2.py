"""GF(2) elimination over int bitsets.

Row vectors are Python integers; bit j holds the coefficient of variable j.
"""

from __future__ import annotations

ADDED = 0
DEPENDENT = 1
INCONSISTENT = 2


class Eliminator:
    """Incremental Gaussian elimination over GF(2), kept in row echelon form.

    Every stored row owns a distinct pivot column (its highest set bit);
    lower bits stay as they came, so the unique solution is recovered by
    back-substitution once ``rank == ncols``.
    """

    __slots__ = ("ncols", "rank", "_rows", "_rhs")

    def __init__(self, ncols: int):
        if ncols <= 0:
            raise ValueError("ncols must be positive")
        self.ncols = ncols
        self.rank = 0
        self._rows: dict[int, int] = {}  # pivot column -> row bitset
        self._rhs: dict[int, int] = {}

    def add_row(self, coeffs: int, rhs: int) -> int:
        """Reduce a row against the basis; returns ADDED, DEPENDENT or INCONSISTENT."""
        rows = self._rows
        rhs_map = self._rhs
        while coeffs:
            p = coeffs.bit_length() - 1
            if p in rows:
                coeffs ^= rows[p]
                rhs ^= rhs_map[p]
            else:
                rows[p] = coeffs
                rhs_map[p] = rhs
                self.rank += 1
                return ADDED
        return INCONSISTENT if rhs else DEPENDENT

    def copy(self) -> "Eliminator":
        dup = Eliminator.__new__(Eliminator)
        dup.ncols = self.ncols
        dup.rank = self.rank
        dup._rows = dict(self._rows)
        dup._rhs = dict(self._rhs)
        return dup

    def solve(self) -> int | None:
        """Unique solution as a bitset, or None unless rank == ncols."""
        if self.rank != self.ncols:
            return None
        return self._back_substitute(0)

    def solutions(self):
        """Yield every solution of the accumulated (consistent) system.

        Free columns are swept exhaustively; 2^(ncols - rank) vectors come
        out, so callers should bound the deficit first.
        """
        free = [p for p in range(self.ncols) if p not in self._rows]
        for assignment in range(1 << len(free)):
            x = 0
            for j, col in enumerate(free):
                if (assignment >> j) & 1:
                    x |= 1 << col
            yield self._back_substitute(x)

    def _back_substitute(self, x: int) -> int:
        """Fill the pivot bits of x, given its free bits."""
        rows = self._rows
        rhs = self._rhs
        for p in range(self.ncols):  # ascending: lower bits already solved
            if p in rows and rhs[p] ^ (((rows[p] ^ (1 << p)) & x).bit_count() & 1):
                x |= 1 << p
        return x


def solve_system(rows: list[int], rhs: list[int], ncols: int):
    """Classify and solve a GF(2) system.

    Returns ``("unique", x)``, ``("inconsistent", None)`` or
    ``("underdetermined", rank)``.
    """
    elim = Eliminator(ncols)
    for coeffs, r in zip(rows, rhs):
        if elim.add_row(coeffs, r) == INCONSISTENT:
            return ("inconsistent", None)
    if elim.rank == ncols:
        return ("unique", elim.solve())
    return ("underdetermined", elim.rank)


def rank_of(rows: list[int], ncols: int) -> int:
    """Rank of rows over ``ncols`` columns. It runs no ``Eliminator``, so an
    attack that ranks its schedule first counts only its enumeration's calls."""
    basis: dict[int, int] = {}  # pivot column -> row bitset
    for row in rows:
        while row:
            p = row.bit_length() - 1
            if p not in basis:
                basis[p] = row
                break
            row ^= basis[p]
    return len(basis)

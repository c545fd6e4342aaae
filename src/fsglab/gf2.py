"""GF(2) rank over int bitsets.

Row vectors are Python integers; bit j holds the coefficient of variable j.
The attack's elimination is compiled once per schedule in ``attack._compile``.
"""

from __future__ import annotations


def rank_of(rows: list[int], ncols: int) -> int:
    """Rank of rows over ``ncols`` columns."""
    basis: dict[int, int] = {}  # pivot column -> row bitset
    for row in rows:
        while row:
            p = row.bit_length() - 1
            if p not in basis:
                basis[p] = row
                break
            row ^= basis[p]
    return len(basis)

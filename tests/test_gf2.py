"""``gf2.rank_of`` and the reference eliminator that ``test_attack`` holds
the compiled LFSR search equal to."""

import random

import pytest

from fsglab import gf2
from gfsga_reference import ADDED, DEPENDENT, INCONSISTENT, Eliminator


def random_invertible(rng, ncols):
    """Random full-rank square system built from a known solution."""
    while True:
        rows = [rng.getrandbits(ncols) for _ in range(ncols)]
        if gf2.rank_of(rows, ncols) == ncols:
            return rows


def test_rank_of_matches_brute_force():
    # The rank is log2 of the size of the row span, enumerated vector by vector.
    rng = random.Random(7)
    for _ in range(300):
        ncols = rng.randint(1, 8)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randint(0, 10))]
        span = {0}
        for row in rows:
            span |= {v ^ row for v in span}
        assert 1 << gf2.rank_of(rows, ncols) == len(span)


def test_identity_solve():
    elim = Eliminator(8)
    target = 0b10110010
    for j in range(8):
        assert elim.add_row(1 << j, (target >> j) & 1) == ADDED
    assert elim.rank == 8
    assert elim.solve() == target


def test_dependent_and_inconsistent():
    elim = Eliminator(4)
    elim.add_row(0b0011, 1)
    assert elim.add_row(0b0011, 1) == DEPENDENT
    assert elim.add_row(0b0011, 0) == INCONSISTENT
    assert elim.rank == 1


@pytest.mark.parametrize("ncols", [5, 31, 64, 100, 130])
def test_random_solves_verified_by_substitution(ncols):
    rng = random.Random(ncols)
    for _ in range(25):
        rows = random_invertible(rng, ncols)
        solution = rng.getrandbits(ncols)
        elim = Eliminator(ncols)
        for row in rows:
            assert elim.add_row(row, (row & solution).bit_count() & 1) == ADDED
        assert elim.solve() == solution


def test_copy_isolation():
    elim = Eliminator(6)
    elim.add_row(0b000111, 1)
    dup = elim.copy()
    dup.add_row(0b111000, 0)
    assert elim.rank == 1 and dup.rank == 2
    assert elim.add_row(0b111000, 1) == ADDED


def test_solutions_sweep_the_whole_solution_space():
    rng = random.Random(3)
    ncols = 7
    solution = rng.getrandbits(ncols)
    elim = Eliminator(ncols)
    rows = [rng.getrandbits(ncols) for _ in range(4)]
    for row in rows:
        elim.add_row(row, (row & solution).bit_count() & 1)
    expected = {
        x for x in range(1 << ncols)
        if all((row & x).bit_count() & 1 == (row & solution).bit_count() & 1 for row in rows)
    }
    got = list(elim.solutions())
    assert len(got) == 1 << (ncols - elim.rank)
    assert set(got) == expected and solution in expected


def test_rank_of_matches_eliminator():
    rng = random.Random(12)
    for _ in range(200):
        ncols = rng.randint(1, 40)
        rows = [rng.getrandbits(rng.randint(0, ncols)) for _ in range(rng.randint(0, 50))]
        elim = Eliminator(ncols)
        for row in rows:
            elim.add_row(row, 0)
        assert gf2.rank_of(rows, ncols) == elim.rank

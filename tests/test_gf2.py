import random

import pytest

from fsglab import gf2


def random_invertible(rng, ncols):
    """Random full-rank square system built from a known solution."""
    while True:
        rows = [rng.getrandbits(ncols) for _ in range(ncols)]
        if gf2.rank_of(rows, ncols) == ncols:
            return rows


def test_identity_solve():
    elim = gf2.Eliminator(8)
    target = 0b10110010
    for j in range(8):
        assert elim.add_row(1 << j, (target >> j) & 1) == gf2.ADDED
    assert elim.rank == 8
    assert elim.solve() == target


def test_dependent_and_inconsistent():
    elim = gf2.Eliminator(4)
    elim.add_row(0b0011, 1)
    assert elim.add_row(0b0011, 1) == gf2.DEPENDENT
    assert elim.add_row(0b0011, 0) == gf2.INCONSISTENT
    assert elim.rank == 1


def test_solve_system_classification():
    status, rank = gf2.solve_system([0b01, 0b01], [0, 0], 2)
    assert status == "underdetermined" and rank == 1
    status, _ = gf2.solve_system([0b01, 0b01], [0, 1], 2)
    assert status == "inconsistent"


@pytest.mark.parametrize("ncols", [5, 31, 64, 100, 130])
def test_random_solves_verified_by_substitution(ncols):
    rng = random.Random(ncols)
    for _ in range(25):
        rows = random_invertible(rng, ncols)
        solution = rng.getrandbits(ncols)
        rhs = [(row & solution).bit_count() & 1 for row in rows]
        status, got = gf2.solve_system(rows, rhs, ncols)
        assert status == "unique"
        assert got == solution


def test_copy_isolation():
    elim = gf2.Eliminator(6)
    elim.add_row(0b000111, 1)
    dup = elim.copy()
    dup.add_row(0b111000, 0)
    assert elim.rank == 1 and dup.rank == 2
    assert elim.add_row(0b111000, 1) == gf2.ADDED


def test_solutions_sweep_the_whole_solution_space():
    rng = random.Random(3)
    ncols = 7
    solution = rng.getrandbits(ncols)
    elim = gf2.Eliminator(ncols)
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
        elim = gf2.Eliminator(ncols)
        for row in rows:
            elim.add_row(row, 0)
        assert gf2.rank_of(rows, ncols) == elim.rank

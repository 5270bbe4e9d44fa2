import random

import pytest

from avnproofs import (
    gf2_solve,
    gf2_solve_explain,
    gf2_unit_solutions,
)
from oracles import canonical_solution


def test_single_variable_identity():
    assert gf2_solve([(0b1, 1)]) == 0b1


def test_inconsistent_pair():
    assert gf2_solve([(0b1, 0), (0b1, 1)]) is None


def test_certificate_rows_combine_to_contradiction():
    rows = [(0b011, 1), (0b110, 0), (0b101, 0)]  # sum of all three: 0 = 1
    solution, certificate = gf2_solve_explain(rows)
    assert solution is None
    mask = 0
    rhs = 0
    for k in certificate:
        row, b = rows[k]
        mask ^= row
        rhs ^= b
    assert mask == 0 and rhs == 1


def test_planted_solutions_random_systems():
    rng = random.Random(20260811)
    for _ in range(200):
        n = rng.randint(1, 12)
        planted = rng.getrandbits(n)
        rows = []
        for _ in range(rng.randint(1, 2 * n)):
            coeffs = rng.getrandbits(n)
            rows.append((coeffs, (coeffs & planted).bit_count() & 1))
        solution = gf2_solve(rows)
        assert solution is not None
        for coeffs, rhs in rows:
            assert (coeffs & solution).bit_count() & 1 == rhs


def test_full_rank_square_recovers_plant():
    rng = random.Random(7)
    found = 0
    while found < 20:
        rows = [rng.getrandbits(5) for _ in range(5)]
        # independent rank check by brute span enumeration
        span = {0}
        for r in rows:
            span |= {s ^ r for s in span}
        if len(span) != 32:
            continue
        found += 1
        planted = rng.getrandbits(5)
        assert gf2_solve([(r, (r & planted).bit_count() & 1) for r in rows]) == planted


def test_inconsistent_stays_inconsistent_under_new_rows():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(2, 10)
        coeffs = rng.getrandbits(n)
        rows = [(coeffs, 0), (coeffs, 1)]
        assert gf2_solve(rows) is None
        for _ in range(5):
            rows.append((rng.getrandbits(n), rng.getrandbits(1)))
            assert gf2_solve(rows) is None


def test_solution_is_deterministic():
    rows = [(0b110010, 1), (0b001100, 0)]
    first = gf2_solve(rows)
    assert first == gf2_solve(rows)


def test_negative_coefficient_mask_rejected():
    with pytest.raises(ValueError):
        gf2_solve([(0b1, 0), (-1, 1)])
    with pytest.raises(ValueError, match="row 1"):
        gf2_unit_solutions([0b1, -1])


def test_solve_matches_independent_elimination():
    rng = random.Random(314)
    for _ in range(300):
        n = rng.randint(1, 10)
        rows = [
            (rng.getrandbits(n) if rng.random() < 0.8 else 0, rng.getrandbits(1))
            for _ in range(rng.randint(0, 2 * n + 2))
        ]
        solution = gf2_solve(rows)
        expected = canonical_solution(rows, n)
        assert (solution is None) == (expected is None)
        if solution is not None:
            assert solution == expected


def test_unit_solutions_combine_linearly():
    rng = random.Random(2718)
    for _ in range(300):
        n = rng.randint(1, 10)
        rows = [rng.getrandbits(n) if rng.random() < 0.8 else 0 for _ in range(rng.randint(1, 2 * n + 2))]
        units = gf2_unit_solutions(rows)
        assert len(units) == len(rows)
        for _ in range(8):
            rhs = [rng.getrandbits(1) for _ in rows]
            solution = conflicts = 0
            for b, (unit_solution, unit_conflicts) in zip(rhs, units):
                if b:
                    solution ^= unit_solution
                    conflicts ^= unit_conflicts
            expected = canonical_solution(list(zip(rows, rhs)), n)
            if expected is None:
                assert conflicts != 0
            else:
                assert conflicts == 0 and solution == expected

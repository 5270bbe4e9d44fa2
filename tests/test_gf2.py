import random

import pytest

from avnproofs import (
    Bitvec,
    Gf2System,
    LengthMismatchError,
    gf2_solve,
    gf2_solve_explain,
    gf2_unit_solutions,
)
from oracles import canonical_solution


def test_single_variable_identity():
    system = Gf2System(1)
    system.add_row(0b1, 1)
    assert gf2_solve(system) == Bitvec(1, 0b1)


def test_inconsistent_pair():
    system = Gf2System(1)
    system.add_row(0b1, 0)
    system.add_row(0b1, 1)
    assert gf2_solve(system) is None


def test_certificate_rows_combine_to_contradiction():
    system = Gf2System(3)
    system.add_row(0b011, 1)
    system.add_row(0b110, 0)
    system.add_row(0b101, 0)  # sum of all three: 0 = 1
    solution, certificate = gf2_solve_explain(system)
    assert solution is None
    mask = 0
    rhs = 0
    for k in certificate:
        row, b = system.rows[k]
        mask ^= row.bits
        rhs ^= b
    assert mask == 0 and rhs == 1


def test_planted_solutions_random_systems():
    rng = random.Random(20260811)
    for _ in range(200):
        n = rng.randint(1, 12)
        planted = rng.getrandbits(n)
        system = Gf2System(n)
        for _ in range(rng.randint(1, 2 * n)):
            coeffs = rng.getrandbits(n)
            system.add_row(coeffs, (coeffs & planted).bit_count() & 1)
        solution = gf2_solve(system)
        assert solution is not None
        for coeffs, rhs in system.rows:
            assert (coeffs.bits & solution.bits).bit_count() & 1 == rhs


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
        system = Gf2System(5)
        for r in rows:
            system.add_row(r, (r & planted).bit_count() & 1)
        assert gf2_solve(system) == Bitvec(5, planted)


def test_inconsistent_stays_inconsistent_under_new_rows():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(2, 10)
        system = Gf2System(n)
        coeffs = rng.getrandbits(n)
        system.add_row(coeffs, 0)
        system.add_row(coeffs, 1)
        assert gf2_solve(system) is None
        for _ in range(5):
            system.add_row(rng.getrandbits(n), rng.getrandbits(1))
            assert gf2_solve(system) is None


def test_solution_is_deterministic():
    system = Gf2System(6)
    system.add_row(0b110010, 1)
    system.add_row(0b001100, 0)
    first = gf2_solve(system)
    assert first == gf2_solve(system)


def test_bitvec_length_checks():
    with pytest.raises(LengthMismatchError):
        Bitvec(3, 0b1) ^ Bitvec(4, 0b1)
    with pytest.raises(LengthMismatchError):
        system = Gf2System(3)
        system.add_row(Bitvec(4, 0b1), 0)
    with pytest.raises(ValueError):
        Bitvec(2, 0b100)
    with pytest.raises(ValueError):
        Bitvec(65, 0)


def test_bitvec_helpers():
    v = Bitvec.from_indices(6, [0, 3, 5])
    assert v.bits == 0b101001
    assert v.indices_1based() == (1, 4, 6)
    assert v.count() == 3
    assert str(v) == "100101"
    assert (v ^ v).bits == 0
    assert v.test(3) and not v.test(1)


def test_solve_matches_independent_elimination():
    rng = random.Random(314)
    for _ in range(300):
        n = rng.randint(1, 10)
        system = Gf2System(n)
        for _ in range(rng.randint(0, 2 * n + 2)):
            system.add_row(rng.getrandbits(n) if rng.random() < 0.8 else 0, rng.getrandbits(1))
        solution = gf2_solve(system)
        expected = canonical_solution(system)
        assert (solution is None) == (expected is None)
        if solution is not None:
            assert solution.bits == expected


def test_unit_solutions_combine_linearly():
    rng = random.Random(2718)
    for _ in range(300):
        n = rng.randint(1, 10)
        rows = [rng.getrandbits(n) if rng.random() < 0.8 else 0 for _ in range(rng.randint(1, 2 * n + 2))]
        units = gf2_unit_solutions(rows)
        assert len(units) == len(rows)
        for _ in range(8):
            rhs = [rng.getrandbits(1) for _ in rows]
            system = Gf2System(n)
            solution = conflicts = 0
            for row, b, (unit_solution, unit_conflicts) in zip(rows, rhs, units):
                system.add_row(row, b)
                if b:
                    solution ^= unit_solution
                    conflicts ^= unit_conflicts
            expected = canonical_solution(system)
            if expected is None:
                assert conflicts != 0
            else:
                assert conflicts == 0 and solution == expected

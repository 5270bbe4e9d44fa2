"""Linear algebra over GF(2) on int masks.

A vector is a plain int with bit ``i`` for position ``i``: a subset, a
coefficient row or a solution.  Parity systems are lists of ``(coeffs,
rhs)`` int pairs, solved by Gaussian elimination with deterministic
pivoting, so equal inputs always produce equal solutions.
"""

from __future__ import annotations


def gf2_unit_solutions(rows) -> list:
    """Solve ``rows . x = e_k`` for every unit right-hand side with one elimination.

    ``rows`` are raw coefficient masks.  Returns one ``(solution,
    conflicts)`` pair per row k: ``solution`` is the mask of the solution
    with every free variable zero when row k alone has right-hand side 1,
    and bit j of ``conflicts`` is set when row k takes part in the j-th
    linear dependency among the rows, counted in the input order of the
    row that completes it.  For any right-hand side, the XOR of its units'
    pairs gives the same: the system is consistent iff the conflicts cancel
    to 0, and then the XOR of the solutions is the one ``gf2_solve``
    returns.  The pivot columns are the lowest set bits over the row space,
    so that solution does not depend on the row order.
    """
    pivots = {}  # pivot column -> (mask, provenance mask over input rows)
    dependencies = []
    for k, mask in enumerate(rows):
        if mask < 0:
            raise ValueError(f"row {k} has negative coefficient mask {mask}")
        prov = 1 << k
        while mask:
            col = (mask & -mask).bit_length() - 1
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = (mask, prov)
                break
            mask ^= piv[0]
            prov ^= piv[1]
        else:
            dependencies.append(prov)
    solutions = [0] * len(rows)
    conflicts = [0] * len(rows)
    # Back-substitute in decreasing column order for every right-hand side
    # at once; free variables stay 0.  Every other bit of a pivot row lies
    # above its pivot column, so its column is already known.  ``columns``
    # maps a pivot column to the rows whose right-hand sides set it.
    columns = {}
    for col in sorted(pivots, reverse=True):
        mask, sol = pivots[col]
        rest = mask ^ (1 << col)
        while rest:
            low = rest & -rest
            sol ^= columns.get(low.bit_length() - 1, 0)
            rest ^= low
        columns[col] = sol
        while sol:
            low = sol & -sol
            solutions[low.bit_length() - 1] |= 1 << col
            sol ^= low
    for j, dep in enumerate(dependencies):
        while dep:
            low = dep & -dep
            conflicts[low.bit_length() - 1] |= 1 << j
            dep ^= low
    return list(zip(solutions, conflicts))


def gf2_solve_explain(rows):
    """Solve the parity equations ``coeffs . x = rhs`` given as a list of
    ``(coeffs, rhs)`` int pairs, reporting why they are infeasible when
    they are.

    Returns ``(solution, None)`` for a consistent system, with ``solution``
    the int mask of the unique reduced-echelon solution with all free
    variables set to zero, and ``(None, certificate)`` otherwise, where
    ``certificate`` is a tuple of row indices whose GF(2) sum is the
    contradiction 0 = 1: the first row (in input order) that reduces to
    0 = 1 together with the earlier rows that cancel it.  Both are the XOR
    of the ``gf2_unit_solutions`` pairs of the rows with right-hand side 1.
    """
    units = gf2_unit_solutions([coeffs for coeffs, _ in rows])
    solution = conflicts = 0
    for (_, b), (unit_solution, unit_conflicts) in zip(rows, units):
        if b & 1:
            solution ^= unit_solution
            conflicts ^= unit_conflicts
    if conflicts:
        first = conflicts & -conflicts
        return None, tuple(k for k, (_, c) in enumerate(units) if c & first)
    return solution, None


def gf2_solve(rows):
    """Any solution mask of the ``(coeffs, rhs)`` rows (free variables
    zero), or None if infeasible."""
    solution, _ = gf2_solve_explain(rows)
    return solution

"""Linear algebra over GF(2) on int masks.

A vector is a plain int with bit ``i`` for position ``i``: a subset, a
coefficient row or a solution.  Parity systems are lists of ``(coeffs,
rhs)`` int pairs, solved by Gaussian elimination with deterministic
pivoting, so equal inputs always produce equal solutions.
"""

from __future__ import annotations


def _eliminate(rows):
    """Eliminate a list of row masks once, tracking which input rows make up each row.

    Returns ``(columns, dependencies)``.  ``dependencies`` holds, in input
    order, the provenance mask (bit k for row k) of each row that reduces to
    zero: the rows it names sum to the zero vector, so a right-hand side b
    (bit k for row k) is consistent iff ``b & dep`` has even parity for every
    dep.  ``columns`` maps each pivot column to a row mask: the solution of
    a consistent b with every free variable zero has that variable equal to
    the parity of ``b & columns[col]``.  The pivot columns are the lowest
    set bits over the row space, so that solution does not depend on the
    row order.
    """
    pivots = {}  # pivot column -> (mask, provenance mask over input rows)
    dependencies = []
    for k, mask in enumerate(rows):
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
    # Back-substitute in decreasing column order for every right-hand side
    # at once; free variables stay 0.  Every other bit of a pivot row lies
    # above its pivot column, so its column is already known.
    columns = {}
    for col in sorted(pivots, reverse=True):
        mask, sol = pivots[col]
        rest = mask ^ (1 << col)
        while rest:
            low = rest & -rest
            sol ^= columns.get(low.bit_length() - 1, 0)
            rest ^= low
        columns[col] = sol
    return columns, dependencies


def gf2_unit_solutions(rows) -> list:
    """Solve ``rows . x = e_k`` for every unit right-hand side with one elimination.

    ``rows`` are raw coefficient masks.  Returns one ``(solution,
    conflicts)`` pair per row k: ``solution`` is the mask of the solution
    with every free variable zero when row k alone has right-hand side 1,
    and bit j of ``conflicts`` is set when row k takes part in the j-th
    linear dependency among the rows.  For any right-hand side, the XOR of
    its units' pairs gives the same: the system is consistent iff the
    conflicts cancel to 0, and then the XOR of the solutions is the one
    ``gf2_solve`` returns.
    """
    columns, dependencies = _eliminate(rows)
    solutions = [0] * len(rows)
    conflicts = [0] * len(rows)
    for col, sol in columns.items():
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
    0 = 1 together with the earlier rows that cancel it.
    """
    rhs = 0
    for k, (coeffs, b) in enumerate(rows):
        if coeffs < 0:
            raise ValueError(f"row {k} has negative coefficient mask {coeffs}")
        rhs |= (b & 1) << k
    columns, dependencies = _eliminate([coeffs for coeffs, _ in rows])
    for dep in dependencies:
        if (dep & rhs).bit_count() & 1:
            return None, tuple(k for k in range(len(rows)) if (dep >> k) & 1)
    x = 0
    for col, sol in columns.items():
        if (sol & rhs).bit_count() & 1:
            x |= 1 << col
    return x, None


def gf2_solve(rows):
    """Any solution mask of the ``(coeffs, rhs)`` rows (free variables
    zero), or None if infeasible."""
    solution, _ = gf2_solve_explain(rows)
    return solution

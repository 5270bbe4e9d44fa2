"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (dense
matrices, explicit enumeration) and never calls the code paths it checks.
"""

import numpy as np

from avnproofs import generators, identity, pauli_multiply

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
LETTER_MATRIX = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def pauli_matrix(letters, phase=0):
    """Dense matrix of i**phase * (tensor product of letters).

    ``letters[q]`` is the letter of qubit q+1.  Kron order puts qubit 1 in
    the least significant position of the basis index, matching the
    package's bit convention.
    """
    m = np.eye(1, dtype=complex)
    for letter in letters:
        m = np.kron(LETTER_MATRIX[letter], m)
    return (1j ** phase) * m


def operator_matrix(op):
    """Dense matrix of a PauliOperator."""
    letters = [op.letter(q) for q in range(1, op.n + 1)]
    return pauli_matrix(letters, op.phase)


def stabilizer_by_products(g, mask):
    """Stabilizer element of a generator subset as an explicit product.

    Multiplies the selected generators one by one in ascending index order
    with ``pauli_multiply``; the package computes the same element in
    closed form.
    """
    acc = identity(g.n)
    for v, gen in enumerate(generators(g)):
        if (mask >> v) & 1:
            acc = pauli_multiply(acc, gen)
    return acc


def set_partitions(elements):
    """All set partitions, blocks as sorted tuples ordered by minimum."""
    elements = list(elements)
    if not elements:
        yield ()
        return
    first, rest = elements[0], elements[1:]
    for tail in set_partitions(rest):
        yield ((first,),) + tail
        for k, block in enumerate(tail):
            grown = tuple(sorted(block + (first,)))
            yield tuple(
                sorted(tail[:k] + (grown,) + tail[k + 1 :], key=lambda b: b[0])
            )


def refines(fine, coarse):
    """Does every block of ``fine`` sit inside one block of ``coarse``?"""
    return all(any(set(b) <= set(c) for c in coarse) for b in fine)


def edge_sets(n):
    """All labelled graphs on n vertices as frozensets of 1-based edges."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        yield frozenset(p for k, p in enumerate(pairs) if (mask >> k) & 1)


def connected_edge_set(n, edges):
    """BFS connectivity over explicit adjacency sets."""
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {1}
    frontier = [1]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


def all_sign_assignments_consistent(ops):
    """Exhaustive +-1 assignment search over all 3n single-qubit observables."""
    if not ops:
        return True
    n = ops[0].n
    keys = [(q, letter) for q in range(1, n + 1) for letter in "XYZ"]
    targets = []
    for op in ops:
        support = [(q, op.letter(q)) for q in op.support()]
        sign = 1 if op.phase == 0 else -1
        targets.append((support, sign))
    for mask in range(1 << len(keys)):
        values = {
            keys[k]: (-1 if (mask >> k) & 1 else 1) for k in range(len(keys))
        }
        ok = True
        for support, sign in targets:
            prod = 1
            for key in support:
                prod *= values[key]
            if prod != sign:
                ok = False
                break
        if ok:
            return True
    return False

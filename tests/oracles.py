"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (dense
matrices, explicit enumeration) and never calls the code paths it checks.
"""

import math
from collections import Counter
from itertools import combinations

import numpy as np

from avnproofs import (
    DistributionReport,
    Graph,
    NonHermitianSignError,
    PauliOperator,
    ResourceLimitError,
    UnsupportedInputError,
    allows_specific_avn,
    canonical_form,
    enumerate_distributions,
    expectation,
    full_stabilizer,
    generators,
    graph_from_encoding,
    integer_partitions,
    is_connected,
    lc_orbit,
    local_complement,
    minimal_shapes,
    pauli_multiply,
    shape_feasible,
    stabilizer_element,
    statevector,
    verify_witness,
)
from avnproofs.equivalence import automorphism_group
from avnproofs.graphstate import PERFECT_CORRELATION_TOL

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


def single_letter(n, qubit, letter):
    """The operator acting as ``letter`` on one 1-based qubit, identity elsewhere."""
    bit = 1 << (qubit - 1)
    x = bit if letter in ("X", "Y") else 0
    z = bit if letter in ("Y", "Z") else 0
    return PauliOperator(x, z, n=n)


def sign_of(p):
    """+1 or -1 for a Hermitian-signed operator; phase +-i raises."""
    if p.phase == 0:
        return 1
    if p.phase == 2:
        return -1
    raise NonHermitianSignError(f"operator has phase exponent {p.phase}, not 0 or 2")


def format_pauli_by_letters(op):
    """``format_word`` of the operator's fields, spelled with ``support`` and
    the range-checked ``letter``."""
    sign = "-" if sign_of(op) < 0 else ""
    parts = [f"{op.letter(q)}{q}" for q in op.support()]
    if not parts:
        return sign + "1"
    return sign + " ".join(parts)


def stabilizer_by_products(g, mask):
    """Stabilizer element of a generator subset as an explicit product.

    Multiplies the selected generators one by one in ascending index order
    with ``pauli_multiply``; the package computes the same element in
    closed form.
    """
    acc = PauliOperator(0, 0, n=g.n)
    for v, gen in enumerate(generators(g)):
        if (mask >> v) & 1:
            acc = pauli_multiply(acc, gen)
    return acc


def _row_reduce(mat, ncols):
    """Bring 0/1 row lists to reduced row-echelon form in place, taking pivot
    columns from the lowest index up; return the pivot columns."""
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pr = next((k for k in range(r, len(mat)) if mat[k][col]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        for k in range(len(mat)):
            if k != r and mat[k][col]:
                mat[k] = [a ^ b for a, b in zip(mat[k], mat[r])]
        pivots.append(col)
    return pivots


def canonical_solution(rows, n):
    """Solution mask of the ``(coeffs, rhs)`` rows over n variables with
    every free variable zero, or None.

    In reduced form each pivot variable equals its row's right-hand side
    once the free variables are zero.
    """
    mat = [[(c >> v) & 1 for v in range(n)] + [b] for c, b in rows]
    pivots = _row_reduce(mat, n)
    if any(row[n] for row in mat[len(pivots):]):
        return None
    return sum(mat[k][n] << col for k, col in enumerate(pivots))


def gf2_rank(masks, n):
    """Rank over GF(2) of bit-mask rows of length n."""
    return len(_row_reduce([[(m >> v) & 1 for v in range(n)] for m in masks], n))


def eor_subset_by_system(g, d, i, pauli):
    """Certificate mask for ``pauli`` on qubit i, or None, from its own parity
    system: x_j = 0 and an even count of selected neighbours for every
    particle mate j, and at i the selection and neighbour parity the letter
    needs (X: 1, 0; Y: 1, 1; Z: 0, 1).  Solved with ``canonical_solution``.
    """
    need_i, need_par = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}[pauli]
    rows = []
    for j in next(p for p in d.particles if i in p):
        if j != i:
            rows += [(1 << (j - 1), 0), (g.adj[j - 1], 0)]
    rows += [(1 << (i - 1), need_i), (g.adj[i - 1], need_par)]
    return canonical_solution(rows, g.n)


def reduced_stabilizer(g, d, particle):
    """Multiset of all 2^n stabilizing operators restricted to one particle.

    Signs are dropped; each entry is the letter string over the particle's
    qubits in ascending order.  ``particle`` indexes ``d.particles``.
    """
    qubits = d.particles[particle]
    out = Counter()
    for mask in range(1 << g.n):
        op = stabilizer_by_products(g, mask)
        out["".join(op.letter(q) for q in qubits)] += 1
    return out


def _report_sort_key(report):
    shape = report.distribution.shape()
    return tuple(-s for s in shape), report.distribution.canonical_key()


def min_party_by_verdicts(g, dedupe=True):
    """The minimum-party search by a full element-of-reality verdict on every
    enumerated distribution of the schedule's shapes, level by level."""
    if g.n < 3 or not is_connected(g):
        raise UnsupportedInputError("need a connected graph on at least 3 vertices")
    for m, shapes in minimal_shapes(g.n):
        hits = []
        for shape in shapes:
            for dist in enumerate_distributions(g, shape, dedupe=dedupe):
                decision = allows_specific_avn(g, dist)
                if decision.allows:
                    hits.append(DistributionReport(g, dist))
        if hits:
            hits.sort(key=_report_sort_key)
            return m, hits
    raise AssertionError("singleton level must allow for a connected graph, n >= 3")


def all_avn_by_verdicts(g, m, dedupe=True):
    """Every m-particle distribution of a feasible shape that a full verdict
    allows, canonically sorted."""
    dists = []
    for shape in sorted(integer_partitions(g.n, parts=m), reverse=True):
        if not shape_feasible(shape):
            continue
        dists.extend(enumerate_distributions(g, shape, dedupe=dedupe))
    decisions = [allows_specific_avn(g, d) for d in dists]
    hits = [
        DistributionReport(g, d) for d, dec in zip(dists, decisions) if dec.allows
    ]
    hits.sort(key=_report_sort_key)
    return hits


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


def full_rank_masks(g):
    """The vertex sets A (bit q-1 for qubit q) with full cut-rank, E(A) = |A|,
    each rank read off a dense 0/1 matrix of the block Gamma[A, V \\ A]."""
    full = set()
    for mask in range(1, 1 << g.n):
        rows = [q for q in range(g.n) if (mask >> q) & 1]
        cols = [v for v in range(g.n) if not (mask >> v) & 1]
        mat = [[(g.adj[q] >> v) & 1 for v in cols] for q in rows]
        if len(_row_reduce(mat, len(cols))) == len(rows):
            full.add(mask)
    return full


def full_rank_partitions(g):
    """Every set partition of g's qubits into blocks of full cut-rank, blocks
    as sorted 1-based tuples ordered by minimum.

    Full rank is tabulated over all 2^n masks first; the recursion then
    tries every block that holds the lowest uncovered qubit.
    """
    full = full_rank_masks(g)

    def rec(uncovered):
        if not uncovered:
            yield ()
            return
        low = uncovered & -uncovered
        rest = uncovered ^ low
        sub = rest
        while True:
            block = low | sub
            if block in full:
                qubits = tuple(q + 1 for q in range(g.n) if (block >> q) & 1)
                for tail in rec(uncovered & ~block):
                    yield (qubits,) + tail
            if not sub:
                return
            sub = (sub - 1) & rest

    return list(rec((1 << g.n) - 1))


def distributions_by_tuples(g, shape, dedupe=True, full=None):
    """The particles of ``enumerate_distributions(g, shape, dedupe,
    full_rank_only=full is not None)``, in stream order, by the search as it
    was written on qubit tuples.

    The recursion anchors the lowest uncovered qubit, chooses the other
    members of its block from the uncovered tuple, keeps a block only when
    its mask is in ``full`` (a table of full-rank masks, such as
    ``full_rank_masks(g)``) and rebuilds the uncovered tuple for every
    block.  With ``dedupe`` each orbit under the canonical search's
    generators (``automorphism_group``) yields its least member, every image
    re-sorted block by block.
    """
    shape = tuple(shape)

    def rec(elements, sizes):
        if not elements:
            yield ()
            return
        anchor, rest = elements[0], elements[1:]
        for size in sorted(set(sizes), reverse=True):
            remaining = list(sizes)
            remaining.remove(size)
            for members in combinations(rest, size - 1):
                block = (anchor,) + members
                if full is not None and sum(1 << (q - 1) for q in block) not in full:
                    continue
                left = tuple(e for e in rest if e not in members)
                for tail in rec(left, remaining):
                    yield (block,) + tail

    stream = rec(tuple(range(1, g.n + 1)), list(shape))
    if not dedupe or shape[0] == 1:
        return list(stream)
    gens = automorphism_group(g)[0]
    out, seen = [], set()
    for blocks in stream:
        if blocks in seen:
            continue
        orbit, stack = {blocks}, [blocks]
        while stack:
            x = stack.pop()
            for perm in gens:
                y = permuted_blocks(x, perm)
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        seen |= orbit
        out.append(min(orbit))
    return out


def permuted_blocks(blocks, perm):
    """Apply a 0-based vertex permutation to 1-based blocks, re-canonicalized
    (disjoint sorted blocks sort by their least element)."""
    return tuple(sorted([tuple(sorted([perm[q - 1] + 1 for q in b])) for b in blocks]))


def refines(fine, coarse):
    """Does every block of ``fine`` sit inside one block of ``coarse``?"""
    return all(any(set(b) <= set(c) for c in coarse) for b in fine)


#: Connected graphs on n vertices up to isomorphism (OEIS A001349), n = 1..8.
CONNECTED_GRAPH_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def edge_sets(n):
    """All labelled graphs on n vertices as frozensets of 1-based edges."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        yield frozenset(p for k, p in enumerate(pairs) if (mask >> k) & 1)


def classes_by_extension(n):
    """(representative encoding, orbit size) of every n-vertex LC class.

    Danielsen & Parker's class extension (JCTA 2006): every (n-1)-vertex
    class representative, joined to a new vertex by every nonempty subset,
    gives a candidate set meeting every n-vertex class, because deleting a
    vertex commutes with local complementation at the others.  Uses the
    package's ``canonical_form`` and ``lc_orbit`` (checked against brute
    force elsewhere) but not its connected-graph generator.
    """
    if n == 1:
        return [(0, 1)]
    candidates = set()
    for rep, _ in classes_by_extension(n - 1):
        parent = graph_from_encoding(n - 1, rep)
        for subset in range(1, 1 << (n - 1)):
            adj = [a | (((subset >> v) & 1) << (n - 1)) for v, a in enumerate(parent.adj)]
            adj.append(subset)
            candidates.add(canonical_form(Graph(n, tuple(adj))).encoding)
    classes = []
    while candidates:
        orbit = {cg.encoding for cg in lc_orbit(graph_from_encoding(n, min(candidates)))}
        candidates -= orbit
        classes.append((min(orbit), len(orbit)))
    return sorted(classes)


def _refine(adj, colors):
    """Stable neighborhood coloring; ranks are isomorphism-invariant."""
    n = len(adj)
    while True:
        sigs = []
        for v in range(n):
            nb = []
            m = adj[v]
            while m:
                low = m & -m
                nb.append(colors[low.bit_length() - 1])
                m ^= low
            nb.sort()
            sigs.append((colors[v], tuple(nb)))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new_colors = tuple(ranks[s] for s in sigs)
        if new_colors == colors:
            return colors
        colors = new_colors


def _twin_masks(adj):
    """twin[v] = mask of vertices interchangeable with v by a transposition."""
    n = len(adj)
    twins = [0] * n
    for v in range(n):
        for w in range(v + 1, n):
            if (adj[v] ^ adj[w]) & ~((1 << v) | (1 << w)) == 0:
                twins[v] |= 1 << w
                twins[w] |= 1 << v
    return twins


def _encode_order(adj, slots):
    """Adjacency bitstring for a slot order, level blocks packed MSB-first."""
    n = len(adj)
    enc = 0
    for j in range(1, n):
        avj = adj[slots[j]]
        block = 0
        for i in range(j):
            block |= ((avj >> slots[i]) & 1) << i
        enc = (enc << j) | block
    return enc


def reference_canonical(adj):
    """(encoding, perm) of the package's canonical labelling, computed the
    plain way: every refinement round walks the adjacency bits, starts from
    the uniform colouring, runs until the colours stop changing, and
    individualizes by re-ranking (colour, in-target-cell) signatures.  The
    package's kernel must return exactly this pair.
    """
    n = len(adj)
    if n == 1:
        return 0, (0,)
    twins = _twin_masks(adj)
    best = [None, None]

    def descend(colors):
        counts = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = None
        for c in sorted(counts):
            if counts[c] > 1:
                target = c
                break
        if target is None:
            slots = [0] * n
            for v, c in enumerate(colors):
                slots[c] = v
            enc = _encode_order(adj, slots)
            if best[0] is None or enc < best[0]:
                best[0] = enc
                best[1] = tuple(colors)
            return
        cell = [v for v in range(n) if colors[v] == target]
        kept = 0
        for v in cell:
            if twins[v] & kept:
                continue
            kept |= 1 << v
            sigs = tuple(
                (colors[w], 0 if w == v else 1 if colors[w] == target else 0)
                for w in range(n)
            )
            ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
            descend(_refine(adj, tuple(ranks[s] for s in sigs)))

    descend(_refine(adj, (0,) * n))
    return best[0], best[1]


def connected_reps_by_full_extension(n):
    """Sorted canonical encodings of the connected n-vertex graphs, from
    every connected (n-1)-vertex graph joined to a new vertex by every
    nonempty subset: no automorphism dedupe and no key filter.
    """
    if n == 1:
        return (0,)
    reps = set()
    for parent_enc in connected_reps_by_full_extension(n - 1):
        parent = graph_from_encoding(n - 1, parent_enc)
        for subset in range(1, 1 << (n - 1)):
            adj = [a | (((subset >> v) & 1) << (n - 1)) for v, a in enumerate(parent.adj)]
            adj.append(subset)
            reps.add(canonical_form(Graph(n, tuple(adj))).encoding)
    return tuple(sorted(reps))


def lc_orbit_by_full_walk(g):
    """encoding -> perm over the LC orbit of a connected graph, found by
    canonicalizing the local complement at every vertex of every member.

    Members are expanded in the same last-found-first order as
    ``lc_orbit``, and each perm is the one of the member's first discovery.
    """
    start = canonical_form(g)
    found = {start.encoding: start.perm}
    frontier = [start.encoding]
    while frontier:
        h = graph_from_encoding(g.n, frontier.pop())
        for v in range(1, g.n + 1):
            img = canonical_form(local_complement(h, v))
            if img.encoding not in found:
                found[img.encoding] = img.perm
                frontier.append(img.encoding)
    return found


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


def certifies_some_element(op, d):
    """Does the operator certify an element of reality under d?  It does
    when some particle has exactly one qubit where its letter is not I: it
    shows a letter there and the identity on that qubit's particle mates."""
    return any(sum(op.letter(q) != "I" for q in p) == 1 for p in d.particles)


def sweep_pool(ops, d, exhaustive=False):
    """Sorted candidate masks of ``ops`` (mask -> PauliOperator, identity
    excluded): all of them, or those of at most three generators plus those
    that ``certifies_some_element`` under d."""
    if exhaustive:
        return sorted(ops)
    return sorted(m for m, op in ops.items() if m.bit_count() <= 3 or certifies_some_element(op, d))


def witness_by_sweep(g, d, max_size=4, exhaustive=False):
    """First witness, as a tuple of masks, by trying every k-subset of the
    candidate pool, k = 2 up.

    The slow reference for ``find_witness`` and the ``witness`` command:
    the candidate pool that d and ``exhaustive`` select, the command's
    guards and lexicographic order, capped at 2,000,000 combinations.
    """
    if not 2 <= max_size <= 8:
        raise ValueError(f"max_size must be in 2..8, got {max_size}")
    if exhaustive:
        if g.n > 5:
            raise ResourceLimitError("exhaustive pool limited to n <= 5")
    elif g.n > 8:
        raise ResourceLimitError("witness search limited to n <= 8")
    ops = {mask: stabilizer_element(g, mask) for mask in range(1, 1 << g.n)}
    pool = sweep_pool(ops, d, exhaustive)

    total = sum(math.comb(len(pool), k) for k in range(2, max_size + 1))
    if total > 2_000_000:
        raise ResourceLimitError(
            f"witness search space too large ({len(pool)} candidates, size {max_size})"
        )

    info = {}
    for mask in pool:
        op = ops[mask]
        x, z = op.x, op.z
        info[mask] = (x & ~z, x & z, z & ~x, sign_of(op))

    for k in range(2, max_size + 1):
        for combo in combinations(pool, k):
            px = py = pz = 0
            sign = 1
            for mask in combo:
                lx, ly, lz, s = info[mask]
                px ^= lx
                py ^= ly
                pz ^= lz
                sign *= s
            if px or py or pz or sign != -1:
                continue
            if verify_witness(combo, g):
                return combo
    return None


def statevector_by_edge_counts(g):
    """The graph state amplitude by amplitude: (-1)^e(b) / sqrt(2^n), e(b)
    the number of edges with both qubits 1 in the basis string b."""
    dim = 1 << g.n
    signs = [(-1.0) ** sum(1 for i, j in g.edges() if b >> (i - 1) & b >> (j - 1) & 1) for b in range(dim)]
    return (np.array(signs) / np.sqrt(dim)).astype(complex)


def stabilizer_walk(g):
    """Yield ``(x, z, phase)`` for all 2^n stabilizing operators in Gray-code
    order, starting from the identity: the oracle for ``stabilizer_arrays``,
    one word at a time.

    Step t toggles generator v, the lowest set bit of t, so x (the subset
    mask) changes in bit v only and z (Gamma x) by ``adj[v]``.  The edge
    count inside the subset moves by |adj[v] & x| whether v joins or leaves,
    so only its parity e is kept, and the phase of ``stabilizer_word(g, x)``
    is ``(2 e - |x & z|) mod 4``.
    """
    adj = g.adj
    x = z = odd = 0
    yield 0, 0, 0
    for t in range(1, 1 << g.n):
        v = (t & -t).bit_length() - 1
        odd ^= (adj[v] & x).bit_count() & 1
        x ^= 1 << v
        z ^= adj[v]
        yield x, z, (2 * odd - (x & z).bit_count()) % 4


def correlations_by_expectation(sv, ops):
    """``(worst, failures)`` from the float ``expectation`` of every operator,
    passed as its ``(x, z, phase)`` word: the loop ``avnproofs verify`` ran
    before operators were decided on sign bits."""
    worst = 0.0
    failures = []
    for op in ops:
        dev = abs(expectation(sv, (op.x, op.z, op.phase)) - 1.0)
        worst = max(worst, dev)
        if dev > PERFECT_CORRELATION_TOL:
            failures.append((op, dev))
    return worst, failures


def verify_by_expectation(g):
    """``(worst, failures)`` over the whole stabilizer of g."""
    return correlations_by_expectation(statevector(g), full_stabilizer(g))


def verify_output_by_expectation(g, ops=None, sv=None):
    """(stdout, exit status) of ``avnproofs verify`` on g, checking ``ops``
    (the whole stabilizer by default) with the float loop on the state
    ``sv`` (g's graph state by default)."""
    if ops is None:
        ops = full_stabilizer(g)
    if sv is None:
        sv = statevector(g)
    worst, failures = correlations_by_expectation(sv, ops)
    lines = [f"FAIL {format_pauli_by_letters(op)} deviates by {dev:.3e}" for op, dev in failures]
    lines.append(f"{1 << g.n} stabilizing operators checked, max deviation from 1: {worst:.3e}")
    return "".join(line + "\n" for line in lines), 1 if failures else 0


def refine_by_sorted_neighbours(nbrs, colors, count):
    """Stable neighbourhood colouring from dense ranks ``colors`` (``count``
    colours): each round ranks the vertices by their colour followed by
    their sorted neighbour colours, so the ranks are isomorphism-invariant
    and every cell keeps its place in the colour order.  A round that adds
    no colour changes no rank, so the loop stops there; a discrete colouring
    needs no round.  Returns (colors, count)."""
    n = len(nbrs)
    while count < n:
        sigs = [(c, *sorted([colors[u] for u in nb])) for c, nb in zip(colors, nbrs)]
        distinct = set(sigs)
        if len(distinct) == count:
            break
        ranks = {s: i for i, s in enumerate(sorted(distinct))}
        colors = [ranks[s] for s in sigs]
        count = len(distinct)
    return colors, count


def group_order(gens, n):
    """Order of the permutation group on range(n) generated by ``gens``
    (tuples mapping v to s[v]), by deterministic Schreier-Sims with the base
    0, 1, ..., n-1."""
    ident = tuple(range(n))

    def mul(a, b):  # v -> a[b[v]]
        return tuple(a[x] for x in b)

    def inv(a):
        out = [0] * n
        for v, x in enumerate(a):
            out[x] = v
        return tuple(out)

    strong = [s for s in gens if s != ident]

    def level_gens(i):
        return [s for s in strong if all(s[j] == j for j in range(i))]

    def transversal(i):
        """point -> an element of the level-i group mapping i to it."""
        t = {i: ident}
        stack = [i]
        gs = level_gens(i)
        while stack:
            p = stack.pop()
            for s in gs:
                if s[p] not in t:
                    t[s[p]] = mul(s, t[p])
                    stack.append(s[p])
        return t

    def strip(h, i):
        for j in range(i, n):
            u = trans[j].get(h[j])
            if u is None:
                return h, j
            h = mul(inv(u), h)
        return h, n

    trans = [transversal(i) for i in range(n)]
    i = n - 1
    while i >= 0:
        # every Schreier generator of level i must sift through the levels above
        failed = None
        for p, u in trans[i].items():
            for s in level_gens(i):
                h, j = strip(mul(inv(trans[i][s[p]]), mul(s, u)), i + 1)
                if h != ident:
                    failed = h, j
                    break
            if failed:
                break
        if failed is None:
            i -= 1
            continue
        h, j = failed
        strong.append(h)
        trans[: j + 1] = [transversal(k) for k in range(j + 1)]
        i = j
    order = 1
    for t in trans:
        order *= len(t)
    return order


def aut_order_by_point_stabilizers(adj):
    """|Aut| of the graph with adjacency masks ``adj``: the product over v of
    the number of vertices w that some automorphism fixing 0..v-1 maps v to,
    each decided by a first-hit backtracking search over vertex images."""
    n = len(adj)
    deg = [a.bit_count() for a in adj]

    def consistent(image, w):
        v = len(image)
        return (
            deg[w] == deg[v]
            and w not in image
            and all(((adj[v] >> u) & 1) == ((adj[w] >> image[u]) & 1) for u in range(v))
        )

    def extends(image):
        if len(image) == n:
            return True
        return any(consistent(image, w) and extends(image + [w]) for w in range(n))

    order = 1
    for v in range(n):
        fixed = list(range(v))
        order *= sum(1 for w in range(n) if consistent(fixed, w) and extends(fixed + [w]))
    return order


def automorphisms_by_backtracking(g):
    """All adjacency-preserving vertex permutations, as 0-based tuples."""
    n, adj = g.n, g.adj
    deg = [m.bit_count() for m in adj]
    perms = []
    image = [-1] * n
    used = [False] * n

    def extend(v):
        if v == n:
            perms.append(tuple(image))
            return
        for w in range(n):
            if used[w] or deg[w] != deg[v]:
                continue
            ok = True
            for u in range(v):
                if ((adj[v] >> u) & 1) != ((adj[w] >> image[u]) & 1):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                extend(v + 1)
                used[w] = False
        image[v] = -1

    extend(0)
    return perms

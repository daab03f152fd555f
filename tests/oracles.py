"""Independent oracles used to freeze expected values.

These deliberately avoid the code paths they check: invariant factors come
from determinantal divisors (gcds of k-minors) or from sympy, ranks from
fraction row-reduction, matrix products, cone blocks, label cuts and the
Hom-to-dual isomorphism into T(C) from dense row lists, and counts from
brute-force enumeration.  The double dual with its evaluation, the
splitting over each star by two label cuts and two shared maps per label,
the contractible-star lemma computed on each maximal simplex's own
cochains, the cap factorization on the full tensor, the diagonal of a
map, whose cone the certificate no longer builds, and the exactness of a
short exact sequence label by label, on its maps' diagonal components, are
the routes the package no longer takes, kept here to check the ones it
does.  The dense row views of a matrix and the corpus K-spaces are read by
tests alone, so they are built here too.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from rkdual.corpus import DOCUMENTS
from rkdual.capproduct import cap_product, cochain_pullback
from rkdual.duality import left_keys, projection_map, tensor_r
from rkdual.linalg import (ChainComplex, ChainComplexError, ChainMap,
                           Matrix, is_acyclic)
from rkdual.rkcore import (RKComplex, RKMap, delta_chain, dual_star,
                           identities, star_ranks)
from rkdual.simplicial import (InputError, KSpace, SimplicialComplex,
                               SimplicialMap, simplex_name, validate_kspace)


def corpus_kspace(name: str) -> KSpace:
    """The K-space of the corpus document ``name``, from its one map."""
    doc = DOCUMENTS[name]
    (mp,) = doc["maps"].values()
    X, K = (SimplicialComplex.build(doc["complexes"][mp[end]]["vertices"],
                                    doc["complexes"][mp[end]]["simplices"])
            for end in ("source", "target"))
    return validate_kspace(X, K, mp["vertices"])


def from_rows(ring, rows) -> Matrix:
    """The matrix with the dense rows ``rows``, through the checked
    constructor."""
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged rows")
    return Matrix(ring, len(rows), ncols, {
        (i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)})


def to_rows(mat: Matrix) -> list:
    """The dense rows of ``mat``, read from its columns."""
    rows = [[mat.ring.zero] * mat.ncols for _ in range(mat.nrows)]
    for j, col in mat.columns():
        for i, v in col:
            rows[i][j] = v
    return rows


def entry(mat: Matrix, i, j):
    """The entry of ``mat`` at row i and column j; out of range raises."""
    if not 0 <= i < mat.nrows:
        raise IndexError(f"row {i} outside matrix")
    return dict(mat.column(j)).get(i, mat.ring.zero)


def det(rows):
    """Laplace expansion; fine for the tiny matrices oracles see."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det(minor)
    return total


def invariant_factors_minors(rows):
    """Invariant factors over the integers via determinantal divisors:
    d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                sub = [[rows[i][j] for j in cs] for i in rs]
                g = gcd(g, abs(det(sub)))
        if g == 0:
            break
        divisors.append(g)
    factors = tuple(divisors[k] // divisors[k - 1]
                    for k in range(1, len(divisors)))
    return factors, len(factors)


def row_reduce_rank(rows):
    """Rank by Gaussian elimination over the rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                c = mat[i][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def sympy_snf(ring, rows, ncols):
    """The ``(factors, rank)`` of an integer matrix given as rows, from
    sympy: the nonzero invariant factors over Z, the rank with unit factors
    over Q and GF(p)."""
    pytest.importorskip("sympy")
    from sympy.polys.domains import GF, QQ, ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors
    if not rows or not ncols:
        return (), 0
    dm = DomainMatrix.from_list(rows, ZZ)
    if ring.kind == "Z":
        factors = tuple(int(f) for f in invariant_factors(dm) if f)
        return factors, len(factors)
    rank = dm.convert_to(QQ if ring.kind == "Q" else GF(ring.p)).rank()
    return (ring.one,) * rank, rank


def dense_product(a, b, ncols):
    """The product of an m×n and an n×``ncols`` matrix given as row lists,
    each entry the sum over k of a[i][k] * b[k][j]."""
    return [[sum(row[k] * b[k][j] for k in range(len(row)))
             for j in range(ncols)] for row in a]


def dense_block(rows, row_picks, col_picks):
    """The block of a matrix given as row lists on the given row and column
    indices, in their order."""
    return [[rows[i][j] for j in col_picks] for i in row_picks]


def inclusion_rows(n, picks):
    """The n × len(picks) 0/1 matrix as row lists with a 1 at (picks[b], b):
    the inclusion of the picked basis vectors."""
    return [[1 if i == p else 0 for p in picks] for i in range(n)]


def projection_rows(n, picks):
    """The len(picks) × n 0/1 matrix as row lists with a 1 at (b, picks[b]):
    the projection onto the picked basis vectors."""
    return [[1 if i == p else 0 for i in range(n)] for p in picks]


def cone_block(dc, f, dd, rows_c, ncols_c, rows_d, ncols_d):
    """The mapping-cone differential [[-dc, 0], [f, dd]] as row lists, from
    the row lists of dc (rows_c × ncols_c), f (rows_d × ncols_c) and dd
    (rows_d × ncols_d)."""
    top = [[-dc[i][j] for j in range(ncols_c)] + [0] * ncols_d
           for i in range(rows_c)]
    bottom = [[f[i][j] for j in range(ncols_c)] +
              [dd[i][j] for j in range(ncols_d)] for i in range(rows_d)]
    return top + bottom


def diagonal(f: RKMap) -> ChainMap:
    """The direct sum of the diagonal components of the degree-0 blocked
    map ``f``, on its whole bases: the map and both sides keep only their
    entries between generators of one label, read entry by entry into the
    checked constructor."""
    assert f.degree == 0

    def one_label(mats, rows, cols, step):
        return {q: Matrix(mat.ring, mat.nrows, mat.ncols, {
            (i, j): v for (i, j), v in mat.entries()
            if rows[q + step][i] == cols[q][j]}) for q, mat in mats.items()}
    src, tgt = f.src, f.tgt
    return ChainMap(
        ChainComplex(src.ring, src.spaces,
                     one_label(src.diff, src.labels, src.labels, -1)),
        ChainComplex(tgt.ring, tgt.spaces,
                     one_label(tgt.diff, tgt.labels, tgt.labels, -1)),
        one_label(f.comps, tgt.labels, src.labels, 0))


def exactness_by_components(i: RKMap, j: RKMap):
    """Where the label-diagonal sequence C' -i-> C -j-> C'' with j∘i = 0 is
    not exact, label by label: the first label, in K's basis order, whose
    diagonal components of i and j make a plain three-term complex
    C'_q -> C_q -> C''_q with homology in some degree q, and the sorted
    degrees where they do; None when every label's sequence is exact."""
    labels = i.src.label_set() | i.tgt.label_set() | j.tgt.label_set()
    for sigma in sorted(labels, key=i.src.K.sort_key):
        a, b = i.diagonal_component(sigma), j.diagonal_component(sigma)
        degrees = [q for q in sorted(set(a.src.degrees())
                                     | set(b.src.degrees())
                                     | set(b.tgt.degrees()))
                   if not is_acyclic(ChainComplex(a.src.ring, {
                       2: a.src.rank(q), 1: b.src.rank(q), 0: b.tgt.rank(q)},
                       {2: a.component(q), 1: b.component(q)}))]
        if degrees:
            return sigma, degrees
    return None


def count_decreasing_chains(simplices, length):
    """Brute-force count of strictly decreasing chains of a given length in
    the face poset of a simplex set."""
    simplices = [frozenset(s) for s in simplices]
    count = 0

    def extend(last, depth):
        nonlocal count
        if depth == length:
            count += 1
            return
        for t in simplices:
            if t < last:
                extend(t, depth + 1)

    for s in simplices:
        extend(s, 1)
    return count


def boundary_alternating(ordering):
    """The alternating-sum boundary of an ordered simplex, by hand."""
    out = {}
    for i in range(len(ordering)):
        face = ordering[:i] + ordering[i + 1:]
        out[face] = out.get(face, 0) + (-1) ** i
    return out


def between_closed(simplices, subset):
    """Fullness by its definition: for every pair of members rho <= tau,
    every simplex sigma with rho <= sigma <= tau is a member."""
    simplices = [frozenset(s) for s in simplices]
    members = set(frozenset(s) for s in subset)
    for rho in members:
        for tau in members:
            if rho <= tau and any(rho <= sigma <= tau and sigma not in members
                                  for sigma in simplices):
                return False
    return True


def kept_pairs(c_labels, d_labels, keep_all=False):
    """The pairs (r, i, s, j) of the blocked tensor of complexes with the
    labels ``c_labels`` and ``d_labels`` (degree -> labels of its basis),
    per total degree, ordered by r, then i, then j: the i-th left generator
    of degree r with the j-th right one of degree s, kept when the right
    label is a face of the left one (every pair with ``keep_all``)."""
    pairs = {}
    for r in sorted(c_labels):
        for i, a in enumerate(c_labels[r]):
            for s in sorted(d_labels):
                for j, b in enumerate(d_labels[s]):
                    if keep_all or set(b) <= set(a):
                        pairs.setdefault(r + s, []).append((r, i, s, j))
    return {q: sorted(ps) for q, ps in pairs.items()}


def blocked_tensor(c_labels, c_diff, d_labels, d_diff, keep_all=False):
    """The blocked tensor of two complexes given densely, by its definition.

    ``c_labels`` and ``d_labels`` map each degree to the labels of its basis
    and ``c_diff``, ``d_diff`` map q to the row lists of d_q.  A pair
    (r, i, s, j) of the i-th left generator of degree r and the j-th right
    one of degree s is kept when the right label is a face of the left one
    (every pair with ``keep_all``).  Returns the kept pairs of each total
    degree, ordered by r, then i, then j, and the row lists of each d_q
    between them, every entry of d(x⊗y) = dx⊗y + (-1)^r x⊗dy summed over
    the pair of the row and the pair of the column.
    """
    pairs = kept_pairs(c_labels, d_labels, keep_all)

    def entry(row, col):
        (r2, i2, s2, j2), (r, i, s, j) = row, col
        total = 0
        if r in c_diff and (r2, s2, j2) == (r - 1, s, j):
            total += c_diff[r][i2][i]
        if s in d_diff and (r2, i2, s2) == (r, i, s - 1):
            total += (-1) ** r * d_diff[s][j2][j]
        return total

    diff = {q: [[entry(row, col) for col in cols] for row in pairs[q - 1]]
            for q, cols in pairs.items() if q - 1 in pairs}
    return pairs, diff


def tensor_map(f_rows, src_pairs, tgt_pairs):
    """f ⊗ 1 between two tensors with one right factor, by its definition.

    ``src_pairs`` and ``tgt_pairs`` hold the kept pairs (r, i, s, j) of each
    total degree, as :func:`blocked_tensor` returns them, and ``f_rows``
    maps a left degree r to the row lists of f_r.  The entry at (x'⊗y',
    x⊗y) is f_r[x', x] when y' = y and x'⊗y' is a kept pair of the target,
    else 0.  Returns the row lists of each degree of the source.
    """
    def entry(row, col):
        (r2, i2, s2, j2), (r, i, s, j) = row, col
        if r in f_rows and (r2, s2, j2) == (r, s, j):
            return f_rows[r][i2][i]
        return 0

    return {q: [[entry(row, col) for col in cols]
                for row in tgt_pairs.get(q, [])]
            for q, cols in src_pairs.items()}


def hom_basis(a_labels, b_labels):
    """The basis of blocked Hom(A, B) over the standard order, by its
    definition: per degree p, a generator (q, j, i) for the j-th generator
    of A_q and the i-th of B_{q+p} when the label of the first is a face of
    the label of the second, ordered by q, then j, then i."""
    out = {}
    for q in sorted(a_labels):
        for j, a in enumerate(a_labels[q]):
            for qb in sorted(b_labels):
                for i, b in enumerate(b_labels[qb]):
                    if set(a) <= set(b):
                        out.setdefault(qb - q, []).append((q, j, i))
    return out


def hom_to_dual_via_double_dual(d_labels, c_labels, cc_labels):
    """Hom(D, C) -> (C* ⊗ D)*, the dual of T(C), by the route through the
    double dual, densely.

    ``d_labels``, ``c_labels`` and ``cc_labels`` give the labels of D, C
    and C** per degree.  First Hom(D, C) -> Hom(D, C**), post-composition
    with C -> C**, the inverse of the evaluation C** -> C, which is
    (-1)^{|c|} on c; then Hom(D, C**) -> (C* ⊗ D)*, which sends
    (y -> x*) for x = c* to (-1)^{|x||y|} times the dual of the pair x⊗y.
    Returns, per degree p, the basis of Hom(D, C) and the row lists of the
    composite, whose rows are the kept pairs of degree -p of C* ⊗ D.
    """
    hom, hom_dd = hom_basis(d_labels, c_labels), hom_basis(d_labels, cc_labels)
    pairs = kept_pairs({-q: ls for q, ls in c_labels.items()}, d_labels)
    out = {}
    for p, gens in hom.items():
        post = [[(-1) ** ((q + p) % 2) if (q, j, i) == dd else 0
                 for q, j, i in gens] for dd in hom_dd.get(p, [])]
        iso = [[(-1) ** ((q * (q + p)) % 2)
                if pair == (-(q + p), i, q, j) else 0
                for q, j, i in hom_dd.get(p, [])]
               for pair in pairs.get(-p, [])]
        out[p] = gens, dense_product(iso, post, len(gens))
    return out


def double_dual(C: RKComplex) -> RKComplex:
    return dual_star(dual_star(C))


def epsilon(C: RKComplex) -> RKMap:
    """The evaluation isomorphism C** -> C, (-1)^q on degree-q generators."""
    return RKMap(double_dual(C), C, identities(C.ring, C.spaces, True))


def star_splitting_by_cuts(dx: RKComplex) -> dict:
    """The splitting of ``dx`` over each star of K, one label at a time.

    Per simplex sigma of K whose star is not all of K, cut ``dx`` to the
    labels outside star(sigma) and to those in it, and return the pair
    (whether the two cuts' ranks add up to the rank of ``dx``, the degree
    at which the inclusion of the first cut or the projection onto the
    second is not a chain map, or None), each map validated as a shared map.
    """
    K = dx.K
    everything = set(K.all_simplices())
    verdicts = {}
    for sigma in K.all_simplices():
        star = set(K.star(sigma))
        rest = everything - star
        if not rest:
            continue
        sub, quo = dx.sub(rest), dx.sub(star)
        ranked = sub.total_rank() + quo.total_rank() == dx.total_rank()
        try:
            RKMap.shared(sub, dx).validate()
            RKMap.shared(dx, quo).validate()
            degree = None
        except ChainComplexError as exc:
            degree = int(str(exc).removeprefix("not a chain map at degree "))
        verdicts[sigma] = ranked, degree
    return verdicts


def lemma_on_its_own_cochains(K, S, ring) -> dict:
    """The contractible-star lemma at the maximal simplex S of K, on the
    cochains of the closed simplex S itself, built, validated, counted and
    cut to each star at S alone."""
    S = K.canonical(S)
    if any(set(S) < set(t) for t in K.star(S)):
        raise InputError(f"{simplex_name(S)} is not maximal")
    X = SimplicialComplex([v for v in K.vertices if v in set(S)], [S])
    ks = KSpace(X, K, SimplicialMap(X, K, {v: v for v in X.vertices}))
    dstar = dual_star(delta_chain(ks, ring)).validate()
    ranks = star_ranks(dstar)
    verdicts = {}
    for sigma in K.all_simplices():
        if not set(sigma) <= set(S):
            verdicts[sigma] = ("zero", ranks[sigma][0] == 0)
        elif sigma == S:        # one generator, in degree -dim S
            sub = dstar.sub(K.star(sigma))
            verdicts[sigma] = ("rank one at top degree",
                               sub.total_rank() == sub.rank(1 - len(S)) == 1)
        else:
            verdicts[sigma] = ("acyclic", is_acyclic(dstar.sub(K.star(sigma))))
    return verdicts


def cap_on_the_full_tensor(data):
    """The cap after the pullback on the full tensor of the chains of X
    with the cochains of K, and the projection of that tensor onto the
    blocked one, for the objects ``data`` (a ``KSpaceData``) of a K-space.
    The cap factorization holds when the first map equals the cell map
    ``data.fundamental_cycles`` after the second."""
    ks, orientation, dx = data.ks, data.orientation, data.deltas.dx
    bx = orientation.bx
    pullback = {rho: dict(pairs) for rho, pairs in
                cochain_pullback(ks, orientation).items()}
    proj = projection_map(tensor_r(dx, data.dualizer.dstar_k), data.cellular)
    dxp, full = data.deltas.dx_prime, proj.src
    simplices = left_keys(full, dx.keys)

    def images(q, k):
        T, signs = simplices[q][k], pullback.get(full.labels[q][k], {})
        for S in ks.X.closure(T):
            if S in signs:
                for flag, c in cap_product(ks.X, T, S, bx).items():
                    yield dxp.index_of(q, flag), signs[S] * c
    return RKMap.from_images(full, dxp, images), proj

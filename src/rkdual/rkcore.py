"""Complexes of free modules blocked over the face poset of a control complex.

A blocked complex, :class:`RKComplex`, is a :class:`ChainComplex` whose basis
generators carry labels, simplices of K; a blocked map, :class:`RKMap`, is a
:class:`ChainMap` between two of them that may only move generators upward
in the face order (or downward, for complexes carried by the opposite
order).  Ranks, differentials, components and d∘d = 0 are the chain
complex's; the subclasses add the labels and the support condition.  One
label cut serves everything, on :meth:`RKComplex.positions` (where the
generators of some labels are): :meth:`RKComplex.sub` keeps them with the
blocks between them, :meth:`RKMap.shared` places a cut in the complex it
was cut from, and :meth:`RKMap.diagonal_component` composes the two.  A
complex whose differential keeps one label is decided whole and cut to each
label only to name the failures, by :meth:`RKComplex.label_verdicts`: every
equivalence's reduced cone and, by :func:`validate_exact`, every short
exact sequence.  :func:`star_ranks` counts the generators over every star
of K from one scan of the labels, with no cut.
The star dual, blocked Hom, and the geometric chain/cochain complexes of a
K-space are all built here.

A generator is its position.  A complex keeps, per degree, the tuple of its
generators' labels, and a dual keeps its source's tuples.  Where input names
the generators (the simplices or flags of a simplicial complex, the
(q, i_a, i_b) of blocked Hom) the complex also keeps those ``keys``, and a
rule that names an image by its key finds it with :meth:`RKComplex.index_of`.
:meth:`RKMap.from_images`, the one assembly function for rules, takes rules
that yield target positions.  The blocked tensor and every map into or out
of one are read from its layout (:mod:`rkdual.duality`).  ``name(q, i)``
renders a generator for messages only; names may coincide.

Sign conventions, fixed once and used everywhere:

* dual differential      d*_{-q} = (-1)^{q+1} (d_{q+1})^T
* double-dual collapse   eps(g**) = (-1)^q g   for g of degree q
* Hom differential       d(f)    = d∘f - (-1)^{|f|} f∘d
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .linalg import (ChainComplex, ChainComplexError, ChainMap, Matrix,
                     homology, is_acyclic)
from .simplicial import (InputError, KSpace, SimplicialComplex, chain_complex,
                         control_kspace, derived_kspace, simplex_name)


class RKComplex(ChainComplex):
    """A bounded chain complex whose bases carry labels in (K, <=) or (K, >=).

    ``labels`` maps a degree to the tuple of its generators' labels, which
    fixes the ranks of the underlying :class:`ChainComplex`; ``diff`` maps q
    to the matrix of d_q against those bases.  ``keys``, where input names
    the generators, maps a degree to their names in basis order, which
    :meth:`index_of` finds; ``name(q, i)`` renders the generator at position
    i of degree q, by default its key as a simplex.  The support condition (every differential component moves
    labels upward in the complex's order) and d∘d = 0 are checked by
    :meth:`validate`.
    """

    __slots__ = ("K", "op", "labels", "keys", "name", "_index", "_cuts")

    def __init__(self, ring, K: SimplicialComplex, op: bool, labels, diff,
                 keys=None, name=None):
        self.K, self.op = K, bool(op)
        self.labels = {q: tuple(ls) for q, ls in labels.items() if ls}
        self.keys, self._index, self._cuts = keys, {}, {}
        for q, ks in (keys or {}).items():
            if len(set(ks)) != len(ks):
                raise ChainComplexError(f"duplicate generators at degree {q}")
        self.name = name or (lambda q, i: "<" + simplex_name(keys[q][i]) + ">"
                             if keys else f"({q}, {i})")
        super().__init__(ring, {q: len(ls) for q, ls in self.labels.items()},
                         diff)

    def index_of(self, q, key):
        """Position of the generator named ``key`` in degree q, or None; a
        degree's keys are indexed on first use."""
        if (index := self._index.get(q)) is None:
            index = self._index[q] = {
                k: i for i, k in enumerate((self.keys or {}).get(q, ()))}
        return index.get(key)

    def leq(self, a, b) -> bool:
        """a <= b in this complex's order on K."""
        if self.op:
            return set(b) <= set(a)
        return set(a) <= set(b)

    def label_set(self):
        """The labels of all generators."""
        return set().union(*self.labels.values())

    def _check(self):
        _check_support(self.diff, self, self, -1, "by d ")
        super()._check()

    def positions(self, labels):
        """Per degree, the positions of the generators labeled in
        ``labels``, in basis order."""
        labels = set(labels)
        return {q: [i for i, s in enumerate(ls) if s in labels]
                for q, ls in self.labels.items()}

    def sub(self, labels) -> "RKComplex":
        """The label cut: the generators labeled in ``labels``, in order,
        with the differential blocks between them."""
        picks, name = self.positions(labels), self.name
        diff = {q: mat.submatrix(picks[q - 1], picks[q])
                for q, mat in self.diff.items() if picks[q - 1] and picks[q]}
        return RKComplex(
            self.ring, self.K, self.op,
            {q: [self.labels[q][i] for i in idxs] for q, idxs in picks.items()},
            diff, name=lambda q, i: name(q, picks[q][i]))

    def label_verdicts(self) -> dict:
        """Per simplex of K, in K's basis order, whether the cut to it is
        acyclic, for a complex whose differential keeps one label: it is
        the direct sum of those cuts, so it is decided whole, and only when
        that fails is each label decided on its cut, to name the failures."""
        labels = sorted(self.K.all_simplices(), key=self.K.sort_key)
        if is_acyclic(self):
            return dict.fromkeys(labels, True)
        return {sigma: is_acyclic(self.sub({sigma})) for sigma in labels}

    def __repr__(self):
        ranks = {q: self.rank(q) for q in self.degrees()}
        order = "op" if self.op else "std"
        return f"RKComplex({self.ring}, {order}, ranks={ranks})"


def _check_support(mats, src, tgt, degree, by=""):
    """Raise at the first entry, by degree and then in (row, col) order, of
    the matrices ``mats[q]`` from ``src`` in degree q to ``tgt`` in degree
    q + ``degree`` that is not upward in ``src``'s order, deciding the order
    once per pair of labels; ``by`` names the matrices in the message."""
    below = {}
    for q, mat in sorted(mats.items()):
        s, t, bad = src.labels.get(q, ()), tgt.labels.get(q + degree, ()), []
        for j, col in mat.columns():
            for i, _ in col:
                pair = s[j], t[i]
                if (ok := below.get(pair)) is None:
                    ok = below[pair] = src.leq(*pair)
                if not ok:
                    bad.append((i, j))
        if bad:
            i, j = min(bad)
            raise ChainComplexError(f"support violated {by}at degree {q}: "
                                    f"{src.name(q, j)} -> "
                                    f"{tgt.name(q + degree, i)}")


def is_full(K: SimplicialComplex, subset) -> bool:
    """Full means: everything between two members is a member.

    The between-condition quantifies over pairs drawn from the subset
    itself, which makes stars and their complements full.  A simplex lies
    between two members exactly when it is in both the union of their stars
    and the union of their closures.
    """
    subset = set(tuple(s) for s in subset)
    up, down = set(), set()
    for s in subset:
        if not K.has(s):
            raise InputError(f"{simplex_name(s)} is not a simplex of K")
        up.update(K.star(s))
        down.update(K.closure(s))
    return up & down == subset


def star_ranks(C: RKComplex) -> dict:
    """Per simplex sigma of K, the pair (generators labeled in star(sigma),
    generators labeled in K outside it), from one scan of the labels: a
    generator labeled a counts toward the star of every face of a, and one
    labeled off K counts in neither."""
    K, per_label = C.K, Counter(a for ls in C.labels.values() for a in ls)
    inside, placed = dict.fromkeys(K.all_simplices(), 0), 0
    for a, n in per_label.items():
        if K.has(a):
            placed += n
            for sigma in K.closure(a):
                inside[sigma] += n
    return {sigma: (n, placed - n) for sigma, n in inside.items()}


class RKMap(ChainMap):
    """A degree-d chain map of labeled complexes over the same (K, order),
    respecting the support condition."""

    __slots__ = ()

    def __init__(self, src: RKComplex, tgt: RKComplex, comps, degree=0):
        if src.K != tgt.K or src.op != tgt.op or src.ring != tgt.ring:
            raise ChainComplexError("blocked map needs matching sides")
        super().__init__(src, tgt, comps, degree)

    @classmethod
    def from_images(cls, src: RKComplex, tgt: RKComplex, images,
                    degree=0) -> "RKMap":
        """The map sending the generator at position j of degree q of
        ``src`` to the sum of the (position in degree q + ``degree`` of
        ``tgt``, coefficient) pairs ``images(q, j)``; None, what
        :meth:`RKComplex.index_of` gives for a key it does not know, or a
        position outside that basis raises.  Coefficients are ring elements,
        or integers times ring elements; the matrix layer reduces the sums.
        """
        comps = {}
        for q in src.degrees():
            n, cols = tgt.rank(q + degree), comps.setdefault(q, {})
            for j in range(src.rank(q)):
                col = {}
                for i, v in images(q, j):
                    if i is None or not 0 <= i < n:
                        raise ChainComplexError(
                            f"an image of {src.name(q, j)} is not a "
                            f"generator of the target in degree {q + degree}")
                    col[i] = col[i] + v if i in col else v
                if col:
                    cols[j] = col
        return cls.from_columns(src, tgt, comps, degree)

    @classmethod
    def from_columns(cls, src: RKComplex, tgt: RKComplex, cols,
                     degree=0) -> "RKMap":
        """The map whose degree-q component has the columns ``cols[q]``,
        {j: {i: sum}} with j and i in range, as :meth:`Matrix._from_sums`
        takes them."""
        return cls(src, tgt, {
            q: Matrix._from_sums(src.ring, tgt.rank(q + degree), src.rank(q), c)
            for q, c in cols.items() if c}, degree)

    @classmethod
    def shared(cls, src: RKComplex, tgt: RKComplex) -> "RKMap":
        """The inclusion of a label cut into the complex it was cut from, or
        the projection of a complex onto one of its cuts: each generator of
        the cut to its place, every other to 0."""
        one = src.ring.one
        cut, whole = sorted((src, tgt), key=RKComplex.total_rank)
        picks = whole.positions(cut.label_set())
        if {q: tuple(whole.labels[q][i] for i in idxs)
                for q, idxs in picks.items() if idxs} != cut.labels:
            raise ChainComplexError("a shared map needs a label cut of the "
                                    "other side")
        return cls.from_columns(src, tgt, {
            q: {j: {i: one} for j, i in enumerate(idxs)} if cut is src else
            {i: {j: one} for j, i in enumerate(idxs)}
            for q, idxs in picks.items()})

    def _check(self):
        _check_support(self.comps, self.src, self.tgt, self.degree)
        super()._check()

    def compose(self, other: "RKMap") -> "RKMap":
        """self ∘ other, through one middle complex."""
        if self.src is not other.tgt:
            raise ChainComplexError("composition through mismatched complexes")
        comps = {}
        for q in other.src.degrees():
            comps[q] = self.component(q + other.degree) * other.component(q)
        return RKMap(other.src, self.tgt, comps, degree=self.degree + other.degree)

    def diagonal_component(self, sigma) -> "RKMap":
        """The map between the sigma-cuts of the two sides: the projection
        onto one after self after the inclusion of the other."""
        src = self.src.sub({sigma})
        return RKMap.shared(self.tgt, self.tgt.sub({sigma})).compose(
            self.compose(RKMap.shared(src, self.src)))

    def __eq__(self, other):
        return (isinstance(other, RKMap) and self.degree == other.degree
                and self.src is other.src and self.tgt is other.tgt
                and all(self.component(q) == other.component(q)
                        for q in set(self.degrees_hit()) | set(other.degrees_hit())))

    def __repr__(self):
        return f"RKMap(degree={self.degree})"


def validate_exact(i: RKMap, j: RKMap):
    """Raise unless 0 -> C' -i-> C -j-> C'' -> 0 is a short exact sequence
    of label-diagonal degree-0 maps; name the first failing label in K's
    basis order, at its lowest inexact degree."""
    if i.tgt is not j.src:
        raise ChainComplexError("sequence maps do not compose")
    if i.degree != 0 or j.degree != 0:
        raise ChainComplexError("sequence maps must have degree 0")
    for f in (i, j):
        f.validate()
        if any(f.tgt.labels[q][r] != f.src.labels[q][c]
               for q, mat in f.comps.items()
               for c, col in mat.columns() for r, _ in col):
            raise ChainComplexError("sequence map is not label-diagonal")
    if not all(m.is_zero() for m in j.compose(i).comps.values()):
        raise ChainComplexError("j∘i != 0")
    # per degree q the sequence is the three-term complex C'_q -> C_q ->
    # C''_q; the k-th degree's sits in degrees 3k + 2, 3k + 1 and 3k of one
    # complex, which with label-diagonal maps keeps one label
    sides = (i.src, i.tgt, j.tgt)
    qs = sorted(set().union(*(C.degrees() for C in sides)))
    labels, diff = {}, {}
    for k, q in enumerate(qs):
        labels.update((3 * k + 2 - n, C.labels.get(q, ()))
                      for n, C in enumerate(sides))
        diff.update({3 * k + 2: i.component(q), 3 * k + 1: j.component(q)})
    three = RKComplex(i.src.ring, i.src.K, i.src.op, labels, diff)
    for sigma, ok in three.label_verdicts().items():
        if not ok:
            n = min(n for n, h in homology(three.sub({sigma})).items()
                    if not h.is_trivial())
            raise ChainComplexError(f"not exact at label {simplex_name(sigma)}"
                                    f", degree {qs[n // 3]}")


def dual_star(C: RKComplex) -> RKComplex:
    """The blocked dual: (C*)_{-q}(s) = C_q(s)* over the opposite order,
    with differential (-1)^{q+1} (d_{q+1})^T, on C's label tuples."""
    diff, name = {}, C.name
    for q, mat in C.diff.items():           # d_q gives d*_{1-q}
        mat = mat.transpose()
        diff[1 - q] = mat.scale(-1) if q % 2 else mat
    return RKComplex(C.ring, C.K, not C.op,
                     {-q: ls for q, ls in C.labels.items()}, diff,
                     name=lambda q, i: name(-q, i) + "*")


def dual_star_map(f: RKMap, tgt: RKComplex = None) -> RKMap:
    """The dual of a degree-0 blocked map: f*(y*) = y*∘f (transpose), into
    ``tgt`` when given, ``dual_star(f.src)`` already built."""
    if f.degree != 0:
        raise ChainComplexError("only degree-0 maps are dualized")
    src = dual_star(f.tgt)
    tgt = dual_star(f.src) if tgt is None else tgt
    comps = {}
    for q in f.degrees_hit():
        comps[-q] = f.component(q).transpose()
    return RKMap(src, tgt, comps)


def identities(ring, ranks, signed) -> dict:
    """Per degree q of ``ranks`` (degree -> rank), the identity matrix,
    times (-1)^q when ``signed``."""
    return {q: (Matrix.identity(ring, n).scale(-1) if signed and q % 2 else
                Matrix.identity(ring, n)) for q, n in ranks.items()}


def hom_rk(A: RKComplex, B: RKComplex) -> RKComplex:
    """Blocked Hom(A, B), a complex over the opposite order.

    Degree-p generators are the maps a -> b with a in A_q, b in B_{q+p} and
    label(b) >= label(a), keyed (q, i_a, i_b) by the positions of a and b;
    such a generator is labeled by label(a).  The differential is
    d(f) = d∘f - (-1)^{|f|} f∘d.
    """
    if A.op or B.op or A.K != B.K:
        raise ChainComplexError("blocked Hom needs two complexes over (K, <=)")
    labels, keys = {}, {}
    for qa in A.degrees():
        for qb in B.degrees():
            here, named = (d.setdefault(qb - qa, []) for d in (labels, keys))
            for i_a, la in enumerate(A.labels[qa]):
                for i_b, lb in enumerate(B.labels[qb]):
                    if A.leq(la, lb):
                        here.append(la)
                        named.append((qa, i_a, i_b))
    name_a, name_b = A.name, B.name

    def name(p, k):
        q, i_a, i_b = keys[p][k]
        return "[" + name_a(q, i_a) + "→" + name_b(q + p, i_b) + "]"
    hom = RKComplex(A.ring, A.K, True, labels, {}, keys, name)
    # precomposing with d_A reads a row of it: one transpose per degree
    rows_a = {q: mat.transpose() for q, mat in A.diff.items()}

    def boundary(p, k):
        q, i_a, i_b = keys[p][k]
        # postcompose with d_B
        if q + p in B.diff:
            for i_b2, v in B.diff[q + p].column(i_b):
                if A.leq(labels[p][k], B.labels[q + p - 1][i_b2]):
                    yield hom.index_of(p - 1, (q, i_a, i_b2)), v
        # precompose with d_A, Koszul sign
        if q + 1 in rows_a:
            sign = -(-1) ** (p % 2)
            for j_a, v in rows_a[q + 1].column(i_a):
                yield hom.index_of(p - 1, (q + 1, j_a, i_b)), sign * v
    # the differential, the degree -1 map of the complex to itself
    hom.diff = RKMap.from_images(hom, hom, boundary, -1).comps
    return hom


def simplicial_rk(ring, K: SimplicialComplex, op: bool, cx: SimplicialComplex,
                  label_of, basis=None) -> RKComplex:
    """A simplicial chain complex as a blocked complex over K.

    One generator per simplex of ``cx``, keyed by it; orientation signs
    against the canonical ordering come from ``basis`` (default +1
    everywhere).
    """
    keys = {p: tuple(cx.simplices_of_dim(p)) for p in range(cx.dim + 1)}
    return RKComplex(ring, K, op,
                     {p: tuple(map(label_of, ks)) for p, ks in keys.items()},
                     chain_complex(cx, ring, basis).diff, keys)


@dataclass
class DeltaComplexes:
    """The three geometric complexes of a K-space, plus their subdivisions."""

    dx: RKComplex            # chains of X, labels pushed forward, opposite order
    dstar_x: RKComplex       # cochains of X = dual of dx
    dx_prime: RKComplex      # chains of the subdivision X'
    derived_x: object
    derived_k: object
    ks_prime: KSpace


def delta_chain(ks: KSpace, ring, basis=None) -> RKComplex:
    """Chains of X labeled by the image simplex, over the opposite order."""
    return simplicial_rk(ring, ks.K, True, ks.X, ks.pi.image, basis)


def delta_star_k(K: SimplicialComplex, ring) -> RKComplex:
    """Cochains of K in its lexicographic basis, blocked over K by the
    underlying simplex."""
    return dual_star(delta_chain(control_kspace(K), ring))


def delta_complexes(ks: KSpace, ring, basis=None) -> DeltaComplexes:
    """Chains, cochains and subdivision chains of a K-space.

    A chain generator of the subdivision <Q0,...,Qp> is labeled by the image
    of its smallest entry Qp.
    """
    dx = delta_chain(ks, ring, basis)
    dstar_x = dual_star(dx)
    derived_x, derived_k, ks_prime = derived_kspace(ks)
    dx_prime = simplicial_rk(ring, ks.K, False, derived_x.prime,
                             lambda chain: ks.pi.image(chain[-1]))
    return DeltaComplexes(dx, dstar_x, dx_prime, derived_x, derived_k, ks_prime)


def maximal_label_ses(C: RKComplex):
    """Split off the generators at a maximal-dimension label.

    Returns (i, j, label), the validated maps of the short exact sequence
    0 -> C' -i-> C -j-> C'' -> 0 and its label: C' is the subcomplex of
    generators labeled by a label of maximum dimension among those present,
    C'' the quotient.  Used to exercise the induction step that reduces a
    general complex to one concentrated at a single simplex.  Returns None
    when C has at most one label.  Over the opposite order a top label is
    no subcomplex: raises.
    """
    if C.op:
        raise ChainComplexError("maximal-label split needs a complex over "
                                "(K, <=), not the opposite order")
    labels = sorted(C.label_set(), key=lambda s: (len(s), s))
    if len(labels) < 2:
        return None
    i = RKMap.shared(C.sub({labels[-1]}), C)
    j = RKMap.shared(C, C.sub(set(labels[:-1])))
    validate_exact(i, j)
    return i, j, labels[-1]


def simplex_lemma(n, ring):
    """The contractible-star lemma on the standard simplex Δⁿ, the closed
    simplex on the vertices 0, ..., n, over itself.

    Returns its cochains and, per face of Δⁿ, what its star-assembly must
    be and whether it is: acyclic at every face but the top, and at the
    top one copy of the ring in degree -n.  The cochains are validated
    once, before they are cut to each star: a full cut of a valid complex
    is valid, and stars are full.
    """
    top = tuple(range(n + 1))
    delta = SimplicialComplex._from_closed(
        top, [s for k in range(1, n + 2) for s in combinations(top, k)])
    dstar = dual_star(delta_chain(control_kspace(delta), ring)).validate()
    faces = {}
    for sigma in delta.all_simplices():
        sub = dstar.sub(delta.star(sigma))
        faces[sigma] = (
            ("rank one at top degree",
             sub.total_rank() == sub.rank(-n) == 1) if sigma == top else
            ("acyclic", is_acyclic(sub)))
    return dstar, faces


def check_lemma_clem(K: SimplicialComplex, S, ring, table=None) -> dict:
    """Cochains of the closed simplex S, assembled over each star: per
    simplex of K, what its star-assembly must be and whether it is.

    For a maximal S the star-assembly is acyclic at every other face of S,
    at S itself it is one copy of the ring in degree -dim S, and off S it
    is zero.  The order-preserving relabelling of Δⁿ onto S, n = dim S,
    carries the cochains of Δⁿ, with their signs, onto those of S and each
    star cut onto a star cut, so the verdicts at the faces of S are those
    of :func:`simplex_lemma`, read from ``table`` (n -> its value, filled
    on first use) when given.  One scan of the relabelled cochains' labels
    counts the generators in every star of K (:func:`star_ranks`), which
    decides the zeros.
    """
    S = K.canonical(S)
    if any(set(S) < set(t) for t in K.star(S)):
        raise InputError(f"{simplex_name(S)} is not maximal")
    table = {} if table is None else table
    if (lemma := table.get(len(S) - 1)) is None:
        lemma = table[len(S) - 1] = simplex_lemma(len(S) - 1, ring)
    dstar, faces = lemma
    relabel = {face: tuple(S[i] for i in face) for face in faces}
    ranks = star_ranks(RKComplex(ring, K, True, {
        q: map(relabel.get, ls) for q, ls in dstar.labels.items()}, {}))
    verdicts = {sigma: ("zero", ranks[sigma][0] == 0)
                for sigma in K.all_simplices()}
    verdicts.update((relabel[face], v) for face, v in faces.items())
    return verdicts

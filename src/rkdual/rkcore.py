"""Complexes of free modules blocked over the face poset of a control complex.

A blocked complex, :class:`RKComplex`, is a :class:`ChainComplex` whose basis
generators carry labels, simplices of K; a blocked map, :class:`RKMap`, is a
:class:`ChainMap` between two of them that may only move generators upward
in the face order (or downward, for complexes carried by the opposite
order).  Ranks, differentials, components and d∘d = 0 are the chain
complex's; the subclasses add the labels and the support condition.  One
label cut serves everything: :meth:`RKComplex.sub` keeps the generators of
some labels with the blocks between them, and :meth:`RKMap.shared` sends
each generator to itself.
:meth:`RKMap.diagonal` is the direct sum of a map's one-label cuts, on its
whole bases, so a label-wise certificate runs once on it.  The star dual, the
evaluation isomorphism to the double dual, blocked Hom, and the geometric
chain/cochain complexes of a K-space are all built here.

A generator is identified by its structure: its label and the record of how
it was built (a simplex, or the dual, tensor or Hom of earlier generators).
Every blocked map, and the differential of blocked Hom, is a rule on
generators that names each image by rebuilding its structure;
:meth:`RKMap.from_images`, the one assembly function for rules, resolves
the images in the target basis.  The blocked tensor, f ⊗ 1 and T(f) are
filled by position instead, from label cuts cached on D (:mod:`rkdual.duality`).
Names are rendered for display only and may coincide.

Sign conventions, fixed once and used everywhere:

* dual differential      d*_{-q} = (-1)^{q+1} (d_{q+1})^T
* double-dual collapse   eps(g**) = (-1)^q g   for g of degree q
* Hom differential       d(f)    = d∘f - (-1)^{|f|} f∘d
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (ChainComplex, ChainComplexError, ChainMap, Matrix,
                     is_acyclic)
from .simplicial import (InputError, KSpace, SimplicialComplex, SimplicialMap,
                         chain_complex, control_kspace, derived_kspace,
                         simplex_name)


class Generator:
    """A basis element carrying a label in K, identified by its structure.

    ``data`` records how the generator was built: ``("simplex", s)``,
    ``("dual", g)``, ``("tensor", left, right)`` or ``("hom", q, a, b)``.
    Two generators are equal when their labels and data are; the hash is
    computed once, at construction, so nested generators hash in constant
    time.  ``name`` renders the structure for display and need not be
    unique.
    """

    __slots__ = ("label", "data", "_hash", "_name")

    def __init__(self, label, data):
        self.label = label
        self.data = data
        self._hash = hash((label, data))
        self._name = None

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Generator) and self._hash == other._hash
            and self.label == other.label and self.data == other.data)

    @property
    def name(self) -> str:
        if self._name is None:
            kind, *parts = self.data
            if kind == "simplex":
                self._name = "<" + simplex_name(parts[0]) + ">"
            elif kind == "dual":
                self._name = parts[0].name + "*"
            elif kind == "tensor":
                self._name = parts[0].name + "⊗" + parts[1].name
            else:
                self._name = "[" + parts[1].name + "→" + parts[2].name + "]"
        return self._name

    def __repr__(self):
        return f"Generator({self.name})"


def simplex_generator(s, label) -> Generator:
    return Generator(label, ("simplex", s))


def dual_generator(g: Generator) -> Generator:
    return Generator(g.label, ("dual", g))


def tensor_generator(gl: Generator, gr: Generator) -> Generator:
    return Generator(gr.label, ("tensor", gl, gr))


def hom_generator(q: int, ga: Generator, gb: Generator) -> Generator:
    return Generator(ga.label, ("hom", q, ga, gb))


class RKComplex(ChainComplex):
    """A bounded chain complex whose bases carry labels in (K, <=) or (K, >=).

    ``gens`` maps a degree to its tuple of generators, which fixes the ranks
    of the underlying :class:`ChainComplex`; ``diff`` maps q to the matrix of
    d_q against those bases.  The support condition (every differential
    component moves labels upward in the complex's order) and d∘d = 0 are
    checked by :meth:`validate`.
    """

    __slots__ = ("K", "op", "gens", "_index", "_by_label", "_cuts")

    def __init__(self, ring, K: SimplicialComplex, op: bool, gens, diff):
        self.K = K
        self.op = bool(op)
        self.gens = {q: tuple(gs) for q, gs in gens.items() if gs}
        self._index = {q: {g: i for i, g in enumerate(gs)}
                       for q, gs in self.gens.items()}
        self._by_label, self._cuts = None, {}
        for q, gs in self.gens.items():
            if len(self._index[q]) != len(gs):
                raise ChainComplexError(f"duplicate generators at degree {q}")
        super().__init__(ring, {q: len(gs) for q, gs in self.gens.items()},
                         diff)

    def gens_at(self, q):
        return self.gens.get(q, ())

    @classmethod
    def from_boundary(cls, ring, K: SimplicialComplex, op: bool, gens,
                      boundary) -> "RKComplex":
        """The complex on ``gens`` whose differential, the degree -1 map of
        the complex to itself, has the generator images ``boundary(q, g)``."""
        cx = cls(ring, K, op, gens, {})
        cx.diff = RKMap.from_images(cx, cx, boundary, -1).comps
        return cx

    def index_of(self, q, gen: Generator) -> int:
        """Position of a generator in the degree-q basis, by structure."""
        return self._index[q][gen]

    def leq(self, a, b) -> bool:
        """a <= b in this complex's order on K."""
        if self.op:
            return set(b) <= set(a)
        return set(a) <= set(b)

    def labels(self):
        out = set()
        for gs in self.gens.values():
            out.update(g.label for g in gs)
        return out

    def same_shape(self, other) -> bool:
        """Same K, order and generators; used to splice separately built maps."""
        return (isinstance(other, RKComplex) and self.ring == other.ring
                and self.K == other.K and self.op == other.op
                and self.gens == other.gens)

    def _check(self):
        _check_support(self.diff, self, self, -1, "by d ")
        super()._check()

    def positions(self, labels):
        """Per degree, the indices of the generators labeled in ``labels``,
        in basis order.  The generators are grouped by label on first use."""
        if self._by_label is None:
            self._by_label = {}
            for q, gs in self.gens.items():
                group = self._by_label[q] = {}
                for i, g in enumerate(gs):
                    group.setdefault(g.label, []).append(i)
        return {q: sorted(i for s in labels for i in group.get(s, ()))
                for q, group in self._by_label.items()}

    def sub(self, labels) -> "RKComplex":
        """The label cut: the generators labeled in ``labels``, in order,
        with the differential blocks between them."""
        picks = self.positions(labels)
        gens = {q: tuple(self.gens[q][i] for i in idxs)
                for q, idxs in picks.items()}
        diff = {q: mat.submatrix(picks[q - 1], picks[q])
                for q, mat in self.diff.items() if picks[q - 1] and picks[q]}
        return RKComplex(self.ring, self.K, self.op, gens, diff)

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
        s, t, bad = src.gens_at(q), tgt.gens_at(q + degree), []
        for j, col in mat.columns():
            for i, _ in col:
                pair = s[j].label, t[i].label
                if (ok := below.get(pair)) is None:
                    ok = below[pair] = src.leq(*pair)
                if not ok:
                    bad.append((i, j))
        if bad:
            i, j = min(bad)
            raise ChainComplexError(f"support violated {by}at degree {q}: "
                                    f"{s[j].name} -> {t[i].name}")


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
        """The map sending each degree-q generator g of ``src`` to the sum
        of the (target generator, coefficient) pairs ``images(q, g)``.

        Targets are resolved by structure in degree q + ``degree`` of
        ``tgt``; an image outside that basis raises.  Coefficients are ring
        elements, or integers times ring elements; the sums are reduced by
        the matrix layer.
        """
        comps = {}
        for q in src.degrees():
            index = tgt._index.get(q + degree, {})
            cols = {}
            for j, g in enumerate(src.gens[q]):
                col = {}
                for h, v in images(q, g):
                    i = index.get(h)
                    if i is None:
                        raise ChainComplexError(
                            f"{h.name}, an image of {g.name}, is not a "
                            f"generator of the target in degree {q + degree}")
                    col[i] = col[i] + v if i in col else v
                if col:
                    cols[j] = col
            if cols:
                comps[q] = Matrix._from_sums(src.ring, tgt.rank(q + degree),
                                             src.rank(q), cols)
        return cls(src, tgt, comps, degree)

    @classmethod
    def shared(cls, src: RKComplex, tgt: RKComplex) -> "RKMap":
        """Each generator of ``src`` that ``tgt`` also has to itself, every
        other to 0: the inclusion of a label cut, or the projection onto
        one."""
        one = src.ring.one
        return cls.from_images(src, tgt, lambda q, g: (
            ((g, one),) if g in tgt._index.get(q, ()) else ()))

    def _check(self):
        _check_support(self.comps, self.src, self.tgt, self.degree)
        super()._check()

    def compose(self, other: "RKMap") -> "RKMap":
        """self ∘ other; the middle complexes must have the same shape."""
        if not self.src.same_shape(other.tgt):
            raise ChainComplexError("composition through mismatched complexes")
        comps = {}
        for q in other.src.degrees():
            comps[q] = self.component(q + other.degree) * other.component(q)
        return RKMap(other.src, self.tgt, comps, degree=self.degree + other.degree)

    def diagonal(self) -> ChainMap:
        """The direct sum of all diagonal components, on the original bases:
        the map and both sides keep only their entries between generators
        of one label."""
        if self.degree != 0:
            raise ChainComplexError("diagonal components need degree 0")
        src, tgt = self.src, self.tgt
        return ChainMap(
            ChainComplex(src.ring, src.spaces, _one_label(src.diff, src, src, -1)),
            ChainComplex(tgt.ring, tgt.spaces, _one_label(tgt.diff, tgt, tgt, -1)),
            _one_label(self.comps, src, tgt, 0))

    def diagonal_component(self, sigma) -> ChainMap:
        """The chain map between the sigma-cuts of the two sides."""
        if self.degree != 0:
            raise ChainComplexError("diagonal components need degree 0")
        rows = self.tgt.positions({sigma})
        cols = self.src.positions({sigma})
        comps = {q: mat.submatrix(rows[q], cols[q])
                 for q, mat in self.comps.items() if rows[q] and cols[q]}
        return ChainMap(self.src.sub({sigma}), self.tgt.sub({sigma}), comps)

    def __eq__(self, other):
        return (isinstance(other, RKMap) and self.degree == other.degree
                and self.src.same_shape(other.src)
                and self.tgt.same_shape(other.tgt)
                and all(self.component(q) == other.component(q)
                        for q in set(self.degrees_hit()) | set(other.degrees_hit())))

    def __repr__(self):
        return f"RKMap(degree={self.degree})"


def _one_label(mats, src, tgt, degree):
    """The matrices ``mats`` from ``src`` to ``tgt`` (degree q to q +
    ``degree``), keeping only their entries between generators of one label."""
    out = {}
    for q, mat in mats.items():
        cols = [g.label for g in src.gens[q]]
        rows = [g.label for g in tgt.gens[q + degree]]
        out[q] = Matrix._from_sums(mat.ring, mat.nrows, mat.ncols, {
            j: {i: v for i, v in col if rows[i] == cols[j]}
            for j, col in mat.columns()})
    return out


@dataclass
class ShortExactSequence:
    """0 -> C' -i-> C -j-> C'' -> 0 with label-diagonal maps."""

    i: RKMap
    j: RKMap

    def validate(self):
        if not self.i.tgt.same_shape(self.j.src):
            raise ChainComplexError("sequence maps do not compose")
        if self.i.degree != 0 or self.j.degree != 0:
            raise ChainComplexError("sequence maps must have degree 0")
        for f in (self.i, self.j):
            f.validate()
            if _one_label(f.comps, f.src, f.tgt, 0) != f.comps:
                raise ChainComplexError("sequence map is not label-diagonal")
        if not all(m.is_zero() for m in self.j.compose(self.i).comps.values()):
            raise ChainComplexError("j∘i != 0")
        # the maps are label-diagonal, so the sequence at degree q is the
        # direct sum of its one-label sequences: decide exactness on the
        # whole, and look for the failing label only when it fails
        i, j = self.i, self.j
        if _inexact_degree(i, j) is None:
            return self
        for sigma in sorted(i.src.labels() | i.tgt.labels() | j.tgt.labels()):
            q = _inexact_degree(i.diagonal_component(sigma),
                                j.diagonal_component(sigma))
            if q is not None:
                raise ChainComplexError(
                    f"not exact at label {simplex_name(sigma)}, degree {q}")
        return self


def _inexact_degree(i, j):
    """A degree where i.src -> j.src -> j.tgt, with j∘i = 0, is not exact,
    or None."""
    degrees = set(i.src.degrees()) | set(j.src.degrees()) | set(j.tgt.degrees())
    for q in degrees:
        three = ChainComplex(
            i.src.ring, {2: i.src.rank(q), 1: j.src.rank(q), 0: j.tgt.rank(q)},
            {2: i.component(q), 1: j.component(q)})
        if not is_acyclic(three):
            return q
    return None


def dual_star(C: RKComplex) -> RKComplex:
    """The blocked dual: (C*)_{-q}(s) = C_q(s)* over the opposite order,
    with differential (-1)^{q+1} (d_{q+1})^T."""
    gens = {-q: tuple(dual_generator(g) for g in gs)
            for q, gs in C.gens.items()}
    diff = {}
    for q, mat in C.diff.items():           # d_q gives d*_{1-q}
        mat = mat.transpose()
        diff[1 - q] = mat.scale(-1) if q % 2 else mat
    return RKComplex(C.ring, C.K, not C.op, gens, diff)


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


def double_dual(C: RKComplex) -> RKComplex:
    return dual_star(dual_star(C))


def epsilon(C: RKComplex) -> RKMap:
    """The evaluation isomorphism C** -> C, (-1)^q on degree-q generators."""
    ring = C.ring
    return RKMap.from_images(
        double_dual(C), C,
        lambda q, g: [(g.data[1].data[1], ring.coerce((-1) ** (q % 2)))])


def hom_rk(A: RKComplex, B: RKComplex) -> RKComplex:
    """Blocked Hom(A, B), a complex over the opposite order.

    Degree-p generators are the maps a -> b with a in A_q, b in B_{q+p} and
    label(b) >= label(a); such a generator is labeled by label(a).  The
    differential is d(f) = d∘f - (-1)^{|f|} f∘d.
    """
    if A.op or B.op or A.K != B.K:
        raise ChainComplexError("blocked Hom needs two complexes over (K, <=)")
    ring = A.ring
    gens = {}
    for qa in A.degrees():
        for qb in B.degrees():
            bucket = gens.setdefault(qb - qa, [])
            for ga in A.gens_at(qa):
                for gb in B.gens_at(qb):
                    if A.leq(ga.label, gb.label):
                        bucket.append(hom_generator(qa, ga, gb))

    # precomposing with d_A reads a row of it: one transpose per degree
    rows_a = {q: mat.transpose() for q, mat in A.diff.items()}

    def boundary(p, g):
        _, q, ga, gb = g.data
        # postcompose with d_B
        if q + p in B.diff:
            for i_b, v in B.diff[q + p].column(B.index_of(q + p, gb)):
                gb2 = B.gens_at(q + p - 1)[i_b]
                if A.leq(ga.label, gb2.label):
                    yield hom_generator(q, ga, gb2), v
        # precompose with d_A, Koszul sign
        if q + 1 in rows_a:
            sign = -(-1) ** (p % 2)
            for j_a, v in rows_a[q + 1].column(A.index_of(q, ga)):
                yield hom_generator(q + 1, A.gens_at(q + 1)[j_a], gb), sign * v
    return RKComplex.from_boundary(ring, A.K, True, gens, boundary)


def hom_post_map(g: RKMap, src: RKComplex, tgt: RKComplex) -> RKMap:
    """Hom(A, g): ``src`` = Hom(A, g.src) -> ``tgt`` = Hom(A, g.tgt) for a
    degree-0 map g."""
    if g.degree != 0:
        raise ChainComplexError("only degree-0 maps are pushed through Hom")

    def images(p, gen):
        _, q, ga, gb = gen.data
        if q + p not in g.comps:
            return
        for i_b, v in g.comps[q + p].column(g.src.index_of(q + p, gb)):
            gb2 = g.tgt.gens_at(q + p)[i_b]
            if set(ga.label) <= set(gb2.label):
                yield hom_generator(q, ga, gb2), v
    return RKMap.from_images(src, tgt, images)


def simplicial_rk(ring, K: SimplicialComplex, op: bool, cx: SimplicialComplex,
                  label_of, basis=None) -> RKComplex:
    """A simplicial chain complex as a blocked complex over K.

    One generator per simplex of ``cx``; orientation signs against the
    canonical ordering come from ``basis`` (default +1 everywhere).
    """
    gens = {p: tuple(simplex_generator(s, label_of(s))
                     for s in cx.simplices_of_dim(p))
            for p in range(cx.dim + 1)}
    return RKComplex(ring, K, op, gens, chain_complex(cx, ring, basis).diff)


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

    Returns (SES, label): C' is the subcomplex of generators labeled by a
    label of maximum dimension among those present, C'' the quotient.  Used
    to exercise the induction step that reduces a general complex to one
    concentrated at a single simplex.  Returns None when C has at most one
    label.  Over the opposite order a top label is no subcomplex: raises.
    """
    if C.op:
        raise ChainComplexError("maximal-label split needs a complex over "
                                "(K, <=), not the opposite order")
    labels = sorted(C.labels(), key=lambda s: (len(s), s))
    if len(labels) < 2:
        return None
    ses = ShortExactSequence(RKMap.shared(C.sub({labels[-1]}), C),
                             RKMap.shared(C, C.sub(set(labels[:-1]))))
    return ses.validate(), labels[-1]


@dataclass
class ClemReport:
    """Per-label verdicts for the contractible-star computation of a closed
    maximal simplex."""

    S: tuple
    verdicts: dict
    passed: bool


def check_lemma_clem(K: SimplicialComplex, S, ring) -> ClemReport:
    """Cochains of the closed simplex S, assembled over each star.

    For a maximal S the star-assembly is acyclic at every other label, and
    at S itself it is one copy of the ring in degree -dim S.
    """
    S = K.canonical(S)
    if any(set(S) < set(t) for t in K.star(S)):
        raise InputError(f"{simplex_name(S)} is not maximal")
    X = SimplicialComplex([v for v in K.vertices if v in set(S)], [S])
    ks = KSpace(X, K, SimplicialMap(X, K, {v: v for v in X.vertices}))
    # validated once: a full cut of a valid complex is valid
    dstar = dual_star(delta_chain(ks, ring)).validate()
    verdicts = {}
    ok = True
    for sigma in K.all_simplices():
        sub = dstar.sub(K.star(sigma))      # stars are full
        if sigma == S:          # one generator, in degree -dim S
            good = sub.total_rank() == sub.rank(1 - len(S)) == 1
            verdicts[sigma] = ("rank one at top degree", good)
        elif set(sigma) <= set(S):
            good = is_acyclic(sub)
            verdicts[sigma] = ("acyclic", good)
        else:
            good = sub.total_rank() == 0
            verdicts[sigma] = ("zero", good)
        ok = ok and good
    return ClemReport(S, verdicts, ok)

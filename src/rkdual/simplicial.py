"""Finite abstract simplicial complexes and control maps.

Simplices are canonical tuples (vertices in the complex's fixed order); an
orientation is a vertex ordering up to even permutation, recorded as a sign
against the canonical order.  Everything is combinatorial: no coordinates
are ever assigned, and the barycentric subdivision is the complex of
strictly decreasing chains in the face poset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations


class InputError(ValueError):
    """A malformed complex, map or document."""


def vertex_name(v) -> str:
    """Display name of a vertex; distinct vertices get distinct names.

    A vertex of a subdivision (a simplex) is parenthesised, and a string
    holding a separator, a parenthesis, a quote or a backslash is written
    as its JSON literal, so joined names still parse back uniquely.
    """
    if isinstance(v, tuple):
        return "(" + simplex_name(v) + ")"
    if isinstance(v, str) and any(c in v for c in '.()"\\'):
        return json.dumps(v)
    return str(v)


def simplex_name(s) -> str:
    return ".".join(vertex_name(v) for v in s)


def permutation_sign(seq, target) -> int:
    """Sign of the permutation carrying seq to target (both duplicate-free)."""
    pos = {v: i for i, v in enumerate(target)}
    perm = [pos[v] for v in seq]
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class SimplicialComplex:
    """A finite abstract simplicial complex with an ordered vertex set.

    The vertex order fixes a canonical form for every simplex (its vertices
    sorted by position) and hence the lexicographic orientation used for all
    default bases.  The constructor is the checked boundary: it
    canonicalizes every simplex and closes the set under faces.  Complexes
    built inside this package from simplices that are canonical and closed
    by construction come from :meth:`_from_closed` instead.
    """

    __slots__ = ("vertices", "_index", "simplices", "_by_dim", "_stars",
                 "_closures")

    def __init__(self, vertices, simplices):
        self.vertices = tuple(vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            v = next(v for i, v in enumerate(self.vertices)
                     if self._index[v] != i)
            raise InputError(f"duplicate vertex {v!r}")
        canon = set()
        for s in simplices:
            canon.add(self.canonical(s))
        for s in list(canon):
            for k in range(1, len(s)):
                for face in combinations(s, k):
                    canon.add(face)
        for v in self.vertices:
            canon.add((v,))
        self.simplices = frozenset(canon)
        by_dim = {}
        for s in canon:
            by_dim.setdefault(len(s) - 1, []).append(s)
        self._by_dim = {
            p: tuple(sorted(lst, key=self.sort_key)) for p, lst in by_dim.items()
        }
        self._stars, self._closures = {}, {}

    @classmethod
    def _from_closed(cls, vertices, simplices):
        """The unchecked constructor: ``vertices`` are distinct, and
        ``simplices`` are canonical tuples, closed under faces, with the
        simplices of each dimension listed in canonical (lexicographic)
        order.  Nothing is sorted, canonicalized or closed here."""
        cx = cls.__new__(cls)
        cx.vertices = tuple(vertices)
        cx._index = {v: i for i, v in enumerate(cx.vertices)}
        by_dim = {}
        for s in simplices:
            by_dim.setdefault(len(s) - 1, []).append(s)
        cx._by_dim = {p: tuple(lst) for p, lst in by_dim.items()}
        cx.simplices = frozenset(simplices)
        cx._stars, cx._closures = {}, {}
        return cx

    @classmethod
    def build(cls, vertices, simplices):
        """Build from maximal simplices; vertices may be None to infer them."""
        if vertices is None:
            seen = set()
            for s in simplices:
                seen.update(s)
            vertices = sorted(seen)
        return cls(vertices, simplices)

    def canonical(self, s):
        vs = sorted(set(s), key=self._index_of)
        if not vs:
            raise InputError("empty simplex")
        if len(vs) != len(s):
            raise InputError(f"repeated vertex in simplex {s!r}")
        return tuple(vs)

    def _index_of(self, v):
        try:
            return self._index[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def sort_key(self, s):
        return tuple(self._index[v] for v in s)

    def has(self, s) -> bool:
        return tuple(s) in self.simplices

    @property
    def dim(self) -> int:
        return max(self._by_dim) if self._by_dim else -1

    def simplices_of_dim(self, p):
        return self._by_dim.get(p, ())

    def all_simplices(self):
        for p in sorted(self._by_dim):
            yield from self._by_dim[p]

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * len(ss) for p, ss in self._by_dim.items())

    def star(self, s):
        """All simplices having s as a face, in deterministic order."""
        got = self._stars.get(s)
        if got is None:
            sset = set(s)
            got = tuple(t for t in self.all_simplices() if sset <= set(t))
            self._stars[s] = got
        return got

    def closure(self, s):
        """All faces of s, in deterministic order."""
        got = self._closures.get(s)
        if got is None:
            faces = []
            for k in range(1, len(s) + 1):
                faces.extend(combinations(s, k))
            got = self._closures[s] = tuple(sorted(faces, key=self.sort_key))
        return got

    def facets(self, s):
        """Codimension-one faces of s with their alternating-sum signs.

        Yields (i, face) where face drops the i-th vertex of the canonical
        ordering, so the boundary of <v_0 ... v_q> is sum_i (-1)^i (i, face).
        """
        if len(s) == 1:
            return
        for i in range(len(s)):
            yield i, s[:i] + s[i + 1:]

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.vertices == other.vertices
                and self.simplices == other.simplices)

    def __hash__(self):
        return hash((self.vertices, self.simplices))

    def __repr__(self):
        counts = ",".join(str(len(self._by_dim[p])) for p in sorted(self._by_dim))
        return f"SimplicialComplex({len(self.vertices)} vertices; {counts})"


def incidence_canonical(s, t) -> int:
    """Incidence number of canonically ordered s against t.

    Zero unless t is a codimension-one face of s; otherwise (-1)^i where t
    drops the i-th vertex of s.
    """
    if len(t) != len(s) - 1 or not set(t) <= set(s):
        return 0
    (dropped,) = set(s) - set(t)
    i = s.index(dropped)
    return -1 if i % 2 else 1


class SimplicialMap:
    """A vertex assignment sending every simplex to a simplex.

    The image of each source simplex is computed once and memoized in
    ``_images``, as :class:`SimplicialComplex` memoizes its stars.
    """

    __slots__ = ("source", "target", "mapping", "_images")

    def __init__(self, source, target, mapping, validate=True):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        self._images = {}
        if validate:
            self.validate()

    def validate(self):
        for v in self.source.vertices:
            if v not in self.mapping:
                raise InputError(f"vertex {vertex_name(v)} has no image")
            if self.mapping[v] not in self.target._index:
                raise InputError(
                    f"vertex {vertex_name(v)} maps outside the target")
        if len(self.mapping) != len(self.source.vertices):
            v = next(v for v in self.mapping if v not in self.source._index)
            raise InputError(
                f"vertex {vertex_name(v)} is not a vertex of the source")
        for s in self.source.all_simplices():
            image = set(self.mapping[v] for v in s)
            if not self.target.has(self.target.canonical(image)):
                raise InputError(
                    f"image of simplex {simplex_name(s)} is not a simplex "
                    f"of the target")
        return self

    def __call__(self, v):
        return self.mapping[v]

    def image(self, s):
        """The image simplex (canonical tuple) of a source simplex."""
        got = self._images.get(s)
        if got is None:
            got = self._images[s] = self.target.canonical(
                set(self.mapping[v] for v in s))
        return got

    def chain_image(self, s):
        """Image of the canonically oriented simplex on chains.

        Returns (image simplex, sign) or None when the map degenerates s.
        """
        seq = tuple(self.mapping[v] for v in s)
        if len(set(seq)) != len(seq):
            return None
        canon = self.target.canonical(seq)
        return canon, permutation_sign(seq, canon)

    def is_injective_on(self, s) -> bool:
        return len(set(self.mapping[v] for v in s)) == len(s)

    def __eq__(self, other):
        return (isinstance(other, SimplicialMap)
                and self.source == other.source
                and self.target == other.target
                and self.mapping == other.mapping)


def identity_map(cx: SimplicialComplex) -> SimplicialMap:
    return SimplicialMap(cx, cx, {v: v for v in cx.vertices}, validate=False)


@dataclass(frozen=True)
class KSpace:
    """A simplicial control map pi: X -> K."""

    X: SimplicialComplex
    K: SimplicialComplex
    pi: SimplicialMap


def validate_kspace(X, K, assignment) -> KSpace:
    """Build a K-space, or raise naming the first simplex with bad image."""
    pi = SimplicialMap(X, K, assignment)
    return KSpace(X, K, pi)


@dataclass(frozen=True)
class KSpaceMap:
    """A simplicial map of the total spaces commuting with the control maps."""

    src: KSpace
    tgt: KSpace
    f: SimplicialMap

    def validate(self):
        if self.src.K != self.tgt.K:
            raise InputError("K-space map needs a common control complex")
        for v in self.src.X.vertices:
            if self.tgt.pi(self.f(v)) != self.src.pi(v):
                raise InputError(
                    f"control maps disagree at vertex {vertex_name(v)}")
        return self


def kspace_identity(ks: KSpace) -> KSpaceMap:
    return KSpaceMap(ks, ks, identity_map(ks.X)).validate()


def control_kspace(K: SimplicialComplex) -> KSpace:
    return KSpace(K, K, identity_map(K))


def control_map(ks: KSpace) -> KSpaceMap:
    """The control map itself as a map of K-spaces (X, pi) -> (K, id)."""
    return KSpaceMap(ks, control_kspace(ks.K), ks.pi).validate()


@dataclass(frozen=True)
class DerivedComplex:
    """The barycentric subdivision: vertices are base simplices, simplices
    are strictly decreasing chains in the face poset.

    The vertex order puts larger-dimensional simplices first, so the
    canonical tuple of a chain runs from largest to smallest; that ordering
    is the canonical oriented basis of the subdivision.

    ``ends``, built on first use, buckets the chains c by (c[0], c[-1]), so
    a set of chains given by its ends is read, not scanned for; ``position``
    numbers the chains in the basis order of ``prime``.
    """

    base: SimplicialComplex
    prime: SimplicialComplex

    @cached_property
    def ends(self) -> dict:
        out = {}
        for c in self.prime.all_simplices():
            out.setdefault((c[0], c[-1]), []).append(c)
        return out

    @cached_property
    def position(self) -> dict:
        return {c: i for i, c in enumerate(self.prime.all_simplices())}

    def in_basis_order(self, chains) -> tuple:
        return tuple(sorted(chains, key=self.position.__getitem__))


def barycentric_subdivision(X: SimplicialComplex) -> DerivedComplex:
    """The subdivision X' of X, read off a depth-first walk of the chains.

    The walk starts from each simplex in the vertex order of X' and extends
    a chain by each proper face of its last entry in that order, so the
    chains it lists are canonical, closed under faces and, within each
    dimension, in canonical order: X' needs no checked construction."""
    verts = sorted(X.all_simplices(), key=lambda s: (-len(s), X.sort_key(s)))
    below = {s: tuple(t for k in range(len(s) - 1, 0, -1)
                      for t in combinations(s, k)) for s in verts}
    chains = []
    stack = [(s,) for s in reversed(verts)]
    while stack:
        chain = stack.pop()
        chains.append(chain)
        stack.extend(chain + (t,) for t in reversed(below[chain[-1]]))
    return DerivedComplex(X, SimplicialComplex._from_closed(verts, chains))


def derived_kspace(ks: KSpace):
    """Subdivide a K-space: returns (derived X, derived K, KSpace X'->K').

    The derived control map is not validated here; the
    ``soundness/derived-control-map`` check and ``rkdual validate`` do."""
    dx = barycentric_subdivision(ks.X)
    dk = barycentric_subdivision(ks.K)
    mapping = {s: ks.pi.image(s) for s in ks.X.all_simplices()}
    pi_prime = SimplicialMap(dx.prime, dk.prime, mapping, validate=False)
    return dx, dk, KSpace(dx.prime, dk.prime, pi_prime)


def chain_complex(X: SimplicialComplex, ring, basis=None):
    """The simplicial chain complex with one oriented simplex per simplex.

    ``basis`` maps a simplex to +-1, the orientation sign of its basis
    element against the canonical (lexicographic) ordering; default all +1.
    """
    from .linalg import ChainComplex, Matrix

    spaces = {p: len(X.simplices_of_dim(p)) for p in range(X.dim + 1)}
    diff = {}
    for p in range(1, X.dim + 1):
        src = X.simplices_of_dim(p)
        tgt = {s: i for i, s in enumerate(X.simplices_of_dim(p - 1))}
        cols = {}
        for j, s in enumerate(src):
            s_sign = basis.get(s, 1) if basis else 1
            col = cols[j] = {}
            for i, face in X.facets(s):
                f_sign = basis.get(face, 1) if basis else 1
                col[tgt[face]] = s_sign * f_sign * (-1 if i % 2 else 1)
        diff[p] = Matrix._from_sums(ring, len(tgt), len(src), cols)
    return ChainComplex(ring, spaces, diff)

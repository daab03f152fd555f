"""Dual cells, the cell structure a control map induces on its source, and
the identification of its cellular chain complex with the dual of cochains.

For a simplex T of X and a face s of pi(T), the dual cell is the set of
strictly decreasing chains in the subdivision that start inside T and end
over s; it has dimension dim T - dim s, its interior consists of the chains
starting exactly at T and ending exactly over s, and the interiors of all
cells partition the subdivision.  The cellular chain complex is the blocked
tensor of X-chains with K-cochains, whose generator at each position is a
cell (T, s), read from the tensor's layout into a table by degree; a basis
cell T⊗s* has the boundary

    d[T_s]  =  sum_{S<T} [T,S] [S_s]  +  (-1)^{1+dim T - dim s} sum_{s<r} [r,s] [T_r]

with all coefficients +-1 on codimension-one cells.

A chain c lies in the cell (T, s) exactly when c[0] <= T and s <= pi(c[-1]),
so cells and dual cells are read, at the cost of their size, from the index
of the subdivision by the two ends of its chains, ``DerivedComplex.ends``.
:func:`dual_cones` scans the subdivision once for all cells, without that
index, so ``cells/dual-cones`` compares the two.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from .rkcore import RKComplex, RKMap, identities
from .duality import left_keys, left_times_one, tensor_k
from .simplicial import (DerivedComplex, InputError, KSpace, KSpaceMap,
                         incidence_canonical, simplex_name)


def cell_name(T, sigma) -> str:
    """Display name of the dual cell of sigma inside T."""
    return f"({simplex_name(T)}|{simplex_name(sigma)})"


def dual_cones(derived: DerivedComplex) -> dict:
    """Every dual cell from one scan of the subdivision: (sigma, tau) ->
    the chains c with sigma a face of c[-1] and tau in the star of c[0], in
    scan order.  Its cost is the total size of the cells."""
    base, out = derived.base, {}
    for c in derived.prime.all_simplices():
        stars = base.star(c[0])
        for k in range(1, len(c[-1]) + 1):
            for sigma in combinations(c[-1], k):
                for tau in stars:
                    out.setdefault((sigma, tau), []).append(c)
    return out


def dual_cell(sigma, tau, derived: DerivedComplex):
    """Chains with smallest entry containing sigma and largest inside tau,
    in the basis order of the subdivision; empty unless sigma <= tau.

    Read from the buckets ``derived.ends[T, rho]`` with T a face of tau and
    sigma <= rho <= T."""
    base, ends, sset = derived.base, derived.ends, set(sigma)
    return derived.in_basis_order(
        c for T in base.closure(base.canonical(tau)) if sset.issubset(T)
        for rho in base.closure(T) if sset.issubset(rho)
        for c in ends.get((T, rho), ()))


@dataclass
class DualCell:
    """One cell of the induced structure: the pair (T, sigma) with its chain
    set, split into interior, inner boundary and outer boundary."""

    T: tuple
    sigma: tuple
    simplices: tuple
    interior: frozenset
    inner_boundary: frozenset
    outer_boundary: frozenset

    @property
    def dim(self):
        return (len(self.T) - 1) - (len(self.sigma) - 1)

    def top_dim_reached(self) -> bool:
        return max(len(c) - 1 for c in self.simplices) == self.dim if self.simplices else False

    @property
    def name(self):
        return cell_name(self.T, self.sigma)


class BallComplex:
    """All dual cells of a K-space, with the combinatorial certificates.

    The buckets ``derived.ends`` are grouped once by (c[0], pi(c[-1])).  The
    cell (T, s) is the union of the groups (S, r) with S <= T and s <= r; its
    interior is (T, s), its inner boundary has r != s, its outer S != T.

    ``check`` verifies: the dimension count dim T_s = dim T - dim s, the
    partition of the subdivision by open cells, the Euler characteristic
    chain X_K ~ X' ~ X, and the boundary decomposition of each cell into
    interior, inner and outer parts.
    """

    def __init__(self, ks: KSpace, derived: DerivedComplex):
        self.ks = ks
        self.derived = derived
        self.cells = {}
        pi = ks.pi
        groups = {}                     # S -> {pi(R): chains from S to R}
        for (S, R), chains in derived.ends.items():
            groups.setdefault(S, {}).setdefault(pi.image(R), []).extend(chains)
        for T in ks.X.all_simplices():
            for sigma in ks.K.closure(pi.image(T)):
                sset = set(sigma)
                members, inner, outer = [], [], []
                for S in ks.X.closure(T):
                    for rho, chains in groups.get(S, {}).items():
                        if sset.issubset(rho):
                            members.extend(chains)
                            if rho != sigma:
                                inner.extend(chains)
                            if S != T:
                                outer.extend(chains)
                self.cells[(T, sigma)] = DualCell(
                    T, sigma, derived.in_basis_order(members),
                    frozenset(groups.get(T, {}).get(sigma, ())),
                    frozenset(inner), frozenset(outer))

    def cell(self, T, sigma) -> DualCell:
        return self.cells[(T, sigma)]

    def census(self):
        return dict(Counter(cell.dim for cell in self.cells.values()))

    def euler_characteristic(self):
        return sum((-1) ** d * n for d, n in self.census().items())

    def check(self):
        failures = []
        # dimension count and nonemptiness
        for cell in self.cells.values():
            if not cell.simplices or not cell.top_dim_reached():
                failures.append(f"{cell.name}: dimension {cell.dim} not realized")
        # open-cell partition of the subdivision
        seen = {}
        for c in self.derived.prime.all_simplices():
            key = (c[0], self.ks.pi.image(c[-1]))
            if key not in self.cells:
                failures.append(f"chain {simplex_name(c)} has no carrier cell")
                continue
            if c not in self.cells[key].interior:
                failures.append(f"chain {simplex_name(c)} missed its interior")
            seen[key] = seen.get(key, 0) + 1
        for (T, sigma), cell in self.cells.items():
            if len(cell.interior) != seen.get((T, sigma), 0):
                failures.append(f"{cell.name}: interior overcounted")
        # boundary decomposition: members = interior with the union of the
        # inner and outer cells, each themselves cells of the complex
        for (T, sigma), cell in self.cells.items():
            inner = set()
            for rho in self.ks.K.star(sigma):
                if rho != sigma and (T, rho) in self.cells:
                    inner.update(self.cells[(T, rho)].simplices)
            outer = set()
            for S in self.ks.X.closure(T):
                if S != T and (S, sigma) in self.cells:
                    outer.update(self.cells[(S, sigma)].simplices)
            if inner != set(cell.inner_boundary):
                failures.append(f"{cell.name}: inner boundary mismatch")
            if outer != set(cell.outer_boundary):
                failures.append(f"{cell.name}: outer boundary mismatch")
            if set(cell.simplices) != cell.interior | inner | outer:
                failures.append(f"{cell.name}: boundary decomposition fails")
        # Euler characteristics agree
        chi_x = self.ks.X.euler_characteristic()
        chi_prime = self.derived.prime.euler_characteristic()
        if not (self.euler_characteristic() == chi_prime == chi_x):
            failures.append("Euler characteristics disagree")
        return failures


class OrientationPair:
    """Oriented bases for the chains of K and of X.

    K keeps its lexicographic basis: each simplex is oriented by its
    canonical ordering.  ``bx`` maps a simplex of X to +-1 against its
    canonical ordering.  A valid pair satisfies the compatibility identity:
    whenever pi is injective on the vertices of T with image s, the
    pushforward of the basis element of T is (-1)^{dim s} times the basis
    element of s.
    """

    def __init__(self, ks: KSpace, bx=None):
        self.ks = ks
        self.bx = {s: 1 for s in ks.X.all_simplices()}
        if bx:
            self.bx.update(bx)

    @classmethod
    def standard(cls, ks: KSpace) -> "OrientationPair":
        """On X, pull the image ordering back through pi and twist by
        (-1)^dim; lexicographic where pi degenerates."""
        bx = {}
        for T in ks.X.all_simplices():
            if ks.pi.is_injective_on(T):
                image, s = ks.pi.chain_image(T)
                bx[T] = s * (-1 if (len(image) - 1) % 2 else 1)
            else:
                bx[T] = 1
        return cls(ks, bx)

    def validate(self):
        for T in self.ks.X.all_simplices():
            if not self.ks.pi.is_injective_on(T):
                continue
            image, s = self.ks.pi.chain_image(T)
            if self.bx[T] * s != (-1 if (len(image) - 1) % 2 else 1):
                raise InputError(
                    f"orientation of {simplex_name(T)} breaks the "
                    f"pushforward-compatibility identity")
        return self


@dataclass
class CellularComplex:
    """The cellular chain complex of the induced cell structure, as the
    blocked tensor of X-chains with K-cochains, plus the cell dictionary."""

    rk: RKComplex
    ball: BallComplex
    orientation: OrientationPair
    cells: dict = field(default_factory=dict)   # degree -> [(T, sigma)]


def cellular_chain_complex(orientation: OrientationPair, dx: RKComplex,
                           dstar_k: RKComplex,
                           ball: BallComplex) -> CellularComplex:
    """The blocked tensor of the X-chains ``dx`` with the K-cochains
    ``dstar_k``, with the generator T⊗sigma* at each position matched to
    its cell (T, sigma) of ``ball``.

    ``dx`` and ``dstar_k`` must carry the bases of ``orientation``; nothing
    is rebuilt here.  The incidence form of the boundary is certified
    separately by :func:`verify_boundary_display`.
    """
    orientation.validate()
    rk = tensor_k(dx, dstar_k)
    cells = {q: list(zip(simplices, rk.labels[q]))
             for q, simplices in left_keys(rk, dx.keys).items()}
    for q, row in cells.items():
        for k, cell in enumerate(row):
            if cell not in ball.cells:
                raise InputError(f"generator {rk.name(q, k)} is not a cell")
    return CellularComplex(rk, ball, orientation, cells)


def verify_boundary_display(ks: KSpace, cx: CellularComplex):
    """Check the incidence form of the cellular boundary, and that nonzero
    coefficients are units on codimension-one cells only."""
    rk = cx.rk
    ring = rk.ring
    bx = cx.orientation.bx
    failures = []
    for q in rk.degrees():
        for j, (T, sigma) in enumerate(cx.cells[q]):
            expect = {}
            for i, S in ks.X.facets(T):
                if not rk.leq(sigma, ks.pi.image(S)):
                    continue
                coeff = bx[T] * bx[S] * (-1 if i % 2 else 1)
                expect[S, sigma] = expect.get((S, sigma), 0) + coeff
            sign_inner = (-1) ** ((1 + len(T) - len(sigma)) % 2)
            for rho in ks.K.star(sigma):
                if len(rho) != len(sigma) + 1 or not rk.leq(rho, ks.pi.image(T)):
                    continue
                coeff = sign_inner * incidence_canonical(rho, sigma)
                expect[T, rho] = expect.get((T, rho), 0) + coeff
            want = {cell: ring.coerce(c) for cell, c in expect.items() if c}
            got = {cx.cells[q - 1][i]: v for i, v in rk.d(q).column(j)}
            if got != want:
                failures.append(f"boundary display fails at {rk.name(q, j)}")
            for (TT, ss), v in got.items():
                if not ring.is_unit(v):
                    failures.append(f"non-unit boundary coefficient at {rk.name(q, j)}")
                if (len(TT) - len(ss)) != (len(T) - len(sigma)) - 1:
                    failures.append(f"boundary of {rk.name(q, j)} hits a non-facet cell")
    return failures


def same_homology(got, want) -> bool:
    """Equal groups in every degree where either side is nontrivial; a
    degree missing on one side is the zero group there."""
    degrees = set(q for q, h in got.items() if not h.is_trivial())
    degrees |= set(q for q, h in want.items() if not h.is_trivial())
    return all(got.get(q) == want.get(q) for q in degrees)


def cellular_iso(tc: RKComplex, cellular: CellularComplex) -> RKMap:
    """The identification of the dual of X-cochains with the cellular
    complex: the double-dual collapse tensored with the identity, sending
    x** ⊗ s* to (-1)^{|x|} x ⊗ s*.

    ``tc`` is T(cochains of X), built from the same X-chains as
    ``cellular``: their left factors have one labeling.
    """
    return left_times_one(
        tc, cellular.rk, lambda s, t: not s.full and s.left == t.left,
        lambda: identities(tc.ring, {r: len(ls) for r, ls in tc.left.items()},
                           True))


def induced_chain_map(fmap: KSpaceMap, src: RKComplex, tgt: RKComplex,
                      or_src: OrientationPair,
                      or_tgt: OrientationPair) -> RKMap:
    """Pushforward on labeled chains ``src`` -> ``tgt`` of ``fmap.src`` and
    ``fmap.tgt`` in the bases of ``or_src`` and ``or_tgt``; kills simplices
    the map degenerates.  Tensored with the cochains of K, it is the map of
    cellular complexes."""
    fmap.validate()

    def images(q, j):
        S = src.keys[q][j]
        out = fmap.f.chain_image(S)
        if out is not None:
            image, s = out
            yield tgt.index_of(q, image), or_src.bx[S] * s * or_tgt.bx[image]
    return RKMap.from_images(src, tgt, images)

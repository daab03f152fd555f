"""Blocked tensor products and the contravariant duality functor.

For C over the opposite order and D over the standard one, the blocked
tensor keeps only the pairs x⊗y whose left label lies in the star of the
right label; it is the quotient of the full tensor by the remaining pairs.
It is built by position: each kept pair is indexed as the basis is laid
out, and its column of the differential is filled from the stored columns
of C and D, an image pair outside the index being one the quotient drops.
Maps between tensors stay rules on generators.

The duality functor sends C to C* ⊗ (cochains of K), and the evaluation of
blocked maps against cochains of K collapses the double dual back to the
identity up to chain equivalence.  That is certified by one mapping cone:
the cone of the direct sum of a map's diagonal components, acyclic iff
each component's cone is.

Koszul signs: d(x⊗y) = dx⊗y + (-1)^{|x|} x⊗dy, and the Hom-to-dual
isomorphism carries the sign (-1)^{|x||y|}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, is_cone_acyclic
from .rkcore import (RKComplex, RKMap, dual_generator, dual_star,
                     dual_star_map, epsilon, hom_rk, hom_post_map,
                     delta_star_k, tensor_generator)
from .simplicial import simplex_name


def _tensor_complex(C, D, keep_all) -> RKComplex:
    if not C.op or D.op or C.K != D.K or C.ring != D.ring:
        raise ValueError(
            "blocked tensor takes (opposite-order) ⊗ (standard-order) over one K")
    # pairs x_i⊗y_j in basis order (r, i, j); d(x⊗y) = dx⊗y + (-1)^r x⊗dy
    # is filled as each is kept: its image pairs precede it, or are dropped
    gens = {r + s: [] for r in C.degrees() for s in D.degrees()}
    data = {q: {} for q in gens}
    column, cuts = {}, {}
    everything = [(s, range(D.rank(s))) for s in D.degrees()]
    for r in C.degrees():
        for i, gl in enumerate(C.gens[r]):
            kept = everything if keep_all else cuts.get(gl.label)
            if kept is None:
                kept = cuts[gl.label] = sorted(
                    D.positions(D.K.closure(gl.label)).items())
            left = C.diff[r].column(i) if r in C.diff else ()
            for s, js in kept:
                bucket, entries = gens[r + s], data[r + s]
                for j in js:
                    at = column[r, i, s, j] = len(bucket)
                    bucket.append(tensor_generator(gl, D.gens[s][j]))
                    col = entries[at] = {}
                    for i2, v in left:
                        if (row := column.get((r - 1, i2, s, j))) is not None:
                            col[row] = v
                    for j2, v in D.diff[s].column(j) if s in D.diff else ():
                        if (row := column.get((r, i, s - 1, j2))) is not None:
                            col[row] = -v if r % 2 else v
    del column          # free the pair index before the basis is indexed
    diff = {q: Matrix._from_sums(C.ring, len(gens.get(q - 1, ())),
                                 len(gens[q]), data.pop(q))
            for q in sorted(data) if any(data[q].values())}
    return RKComplex(C.ring, D.K, False, gens, diff)


def tensor_r(C: RKComplex, D: RKComplex) -> RKComplex:
    """The full tensor product, labeled by the right factor."""
    return _tensor_complex(C, D, keep_all=True)


def tensor_k(C: RKComplex, D: RKComplex) -> RKComplex:
    """The blocked tensor product: pairs with left label in the star of the
    right label, with the induced (filtered Koszul) differential."""
    return _tensor_complex(C, D, keep_all=False)


def projection_map(src: RKComplex, tgt: RKComplex) -> RKMap:
    """The label-diagonal epimorphism from the full tensor ``src`` =
    ``tensor_r(C, D)`` onto the blocked one ``tgt`` = ``tensor_k(C, D)``:
    it keeps the pairs x⊗y of ``tgt``, those with label(y) ⊆ label(x), and
    kills the others."""
    return RKMap.shared(src, tgt)


def tensor_map_left(f: RKMap, src: RKComplex, tgt: RKComplex) -> RKMap:
    """f ⊗ identity on D over the blocked tensor, for a degree-0 map f of
    opposite-order complexes: ``src`` = ``tensor_k(f.src, D)`` to ``tgt`` =
    ``tensor_k(f.tgt, D)``."""
    if f.degree != 0:
        raise ValueError("only degree-0 maps are tensored")
    ldeg = {g: r for r in f.src.degrees() for g in f.src.gens_at(r)}

    def images(q, g):
        _, gl, gr = g.data
        r = ldeg[gl]
        if r not in f.comps:
            return
        for i_l, v in f.comps[r].column(f.src.index_of(r, gl)):
            gl2 = f.tgt.gens_at(r)[i_l]
            if set(gr.label) <= set(gl2.label):
                yield tensor_generator(gl2, gr), v
    return RKMap.from_images(src, tgt, images)


def hom_dual_iso(src: RKComplex, tgt: RKComplex) -> RKMap:
    """The isomorphism ``src`` = Hom(D, C*) -> ``tgt`` = (C ⊗ D)*, the dual
    of the blocked tensor ``tensor_k(C, D)``.

    On the generator (y -> x*) it is (-1)^{|x||y|} times the dual basis
    element of x⊗y; it is label-diagonal and bijective degreewise.
    """
    ring = src.ring

    def images(p, g):
        _, q, gy, gz = g.data          # gy in D_q, gz = x* in (C*)_{q+p}
        deg_x = -(q + p)
        yield (dual_generator(tensor_generator(gz.data[1], gy)),
               ring.coerce((-1) ** ((deg_x * q) % 2)))
    return RKMap.from_images(src, tgt, images)


class Dualizer:
    """The contravariant duality C -> C* ⊗ (cochains of K) over a fixed K.

    One instance holds the cochain complex of K so that separately built
    duals and double duals share generators; maps take T of their ends.
    """

    def __init__(self, K, ring):
        self.K = K
        self.ring = ring
        self.dstar_k = delta_star_k(K, ring)

    def object(self, C: RKComplex) -> RKComplex:
        """T(C): generators x* ⊗ sigma* with the label of sigma."""
        if C.op:
            raise ValueError("duality takes complexes over the standard order")
        return tensor_k(dual_star(C), self.dstar_k)

    def map(self, f: RKMap, src: RKComplex, tgt: RKComplex) -> RKMap:
        """T(f): ``src`` = T(f.tgt) -> ``tgt`` = T(f.src); contravariant."""
        return tensor_map_left(dual_star_map(f), src, tgt)

    def square(self, tc: RKComplex) -> RKComplex:
        """T²C, given ``tc`` = T(C)."""
        return self.object(tc)

    def evaluation(self, C: RKComplex):
        """The evaluation collapse (H ⊗ cochains of K) -> C, H = Hom(cochains of K, C).

        Returns (H, HK, E) where E(f ⊗ s*) = f(s*).
        """
        H = hom_rk(self.dstar_k, C)
        HK = tensor_k(H, self.dstar_k)
        one = self.ring.one

        def images(q, g):
            _, gF, gt = g.data
            _, _, ga, gb = gF.data       # ga = sigma* in cochains, gb = c in C
            if ga == gt:
                yield gb, one
        return H, HK, RKMap.from_images(HK, C, images)

    def hom_to_square(self, C: RKComplex, H: RKComplex, HK: RKComplex,
                      tc: RKComplex, t2: RKComplex) -> RKMap:
        """The isomorphism ``HK`` = (``H`` ⊗ cochains K) -> ``t2`` = T²C
        from the Hom-to-dual isomorphism after untwisting the double dual,
        for ``H``, ``HK`` from :meth:`evaluation` and ``tc`` = T(C)."""
        eps = epsilon(C)                 # C** -> C; C -> C** has its signs
        hom_dd = hom_rk(self.dstar_k, eps.src)
        twist = hom_post_map(RKMap(C, eps.src, eps.comps), H, hom_dd)
        psi = hom_dual_iso(hom_dd, dual_star(tc))
        return tensor_map_left(psi.compose(twist), HK, t2)

    def double_dual_map(self, C: RKComplex, t2: RKComplex) -> RKMap:
        """The natural epimorphism e: ``t2`` = T²C -> C.

        Built directly on the double-dual basis: the generator
        (x* ⊗ s*)* ⊗ t* goes to (-1)^{|x|(1+dim s)} x when s = t, else to 0.
        The defining identity (evaluation = e ∘ (iso ⊗ 1)) is checked in the
        test suite.
        """
        ring = self.ring

        def images(q, g):
            _, gdual, gtau = g.data
            _, gcstar, gsig = gdual.data[1].data
            if gsig == gtau:
                dim_s = len(gsig.label) - 1
                yield gcstar.data[1], ring.coerce((-1) ** ((q * (1 + dim_s)) % 2))
        return RKMap.from_images(t2, C, images)


@dataclass
class EquivalenceReport:
    """Per-label cone-acyclicity verdicts for a degree-0 blocked map."""

    name: str
    verdicts: dict
    passed: bool

    def failures(self):
        return sorted(simplex_name(s) for s, ok in self.verdicts.items()
                      if not ok)


def verify_diagonal_equivalence(f: RKMap, name: str) -> EquivalenceReport:
    """Certify a blocked map as an equivalence: every diagonal component
    must have an acyclic mapping cone.

    The map and its two sides are validated once each, whole: support and
    d∘d = 0 of ``f.src`` and ``f.tgt``, support and the chain-map identity
    of ``f``.  With support, the diagonal blocks of those identities are
    the identities of the diagonal blocks, so every cone built here has
    d∘d = 0.  The cone of :meth:`RKMap.diagonal` is the direct sum of the
    per-label cones, so one acyclic cone passes every label at once:
    homology over Z, Q and Z/p adds up, torsion included.  Only when it is
    not acyclic is each label's cone built, to name the labels that fail.
    """
    f.src.validate()
    f.tgt.validate()
    f.validate()
    labels = sorted(f.src.K.all_simplices(), key=f.src.K.sort_key)
    whole = is_cone_acyclic(f.diagonal())
    verdicts = (dict.fromkeys(labels, True) if whole else
                {sigma: is_cone_acyclic(f.diagonal_component(sigma))
                 for sigma in labels})
    return EquivalenceReport(name, verdicts, all(verdicts.values()))

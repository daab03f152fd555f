"""Blocked tensor products and the contravariant duality functor.

For C over the opposite order and D over the standard one, the blocked
tensor keeps only the pairs x⊗y whose left label lies in the star of the
right label; it is the quotient of the full tensor by the remaining pairs.
One layout, from D's label cuts cached once per label, places every pair
x⊗y of a tensor.  From it the differential d_C ⊗ 1 + (-1)^r 1 ⊗ d_D, f ⊗ 1
and T(f) = f* ⊗ 1 are filled from the stored columns of C, D and f, only
between blocked tensors of f's ends over one D; an image pair the layout
does not place is one the quotient drops.

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

from .linalg import ChainComplexError, Matrix, is_cone_acyclic
from .rkcore import (RKComplex, RKMap, dual_generator, dual_star, epsilon,
                     hom_rk, hom_post_map, delta_star_k, tensor_generator)
from .simplicial import simplex_name


class Tensor(RKComplex):
    """C ⊗ D from :func:`tensor_k` or :func:`tensor_r`; records only ``full``,
    ``left`` (C's generators), ``dual_of`` (what C is dual to), ``right`` (D)."""

    __slots__ = ("full", "left", "dual_of", "right")


def _layout(left, D, full):
    """Where the tensor of ``left`` with D puts its pairs, in basis order (r,
    i, j): per left degree r, cuts[i], the cut {s: (js, rank)} of D to x_i's
    label (all of D when ``full``), cached on D, and starts: x_i⊗y_j is at
    starts[s][i] + rank[j] in degree r + s if j is in js.  Also ints to share."""
    count, out, cache = {}, {}, D._cuts
    for r in sorted(left):
        cuts, starts = out[r] = [], {s: [0] * len(left[r]) for s in D.spaces}
        for i, g in enumerate(left[r]):
            if (cut := cache.get(label := None if full else g.label)) is None:
                picks = D.positions(D.K.closure(label) if label else D.labels())
                cut = cache[label] = {s: (js, {j: k for k, j in enumerate(js)})
                                      for s, js in sorted(picks.items()) if js}
            cuts.append(cut)
            for s, (js, _) in cut.items():
                starts[s][i] = start = count.get(r + s, 0)
                count[r + s] = start + len(js)
    return out, list(range(max(count.values(), default=0)))


def _tensor_complex(C, D, keep_all) -> Tensor:
    if not C.op or D.op or C.K != D.K or C.ring != D.ring:
        raise ValueError(
            "blocked tensor takes (opposite-order) ⊗ (standard-order) over one K")
    # d(x⊗y) = dx⊗y + (-1)^r x⊗dy: x_i⊗y_j goes to x'⊗y_j for x' in dx_i
    # (hits) and to x_i⊗y' for y' in dy_j, wherever the layout places them
    layout, ints = _layout(C.gens, D, keep_all)
    gens = {r + s: [] for r in C.degrees() for s in D.degrees()}
    data = {q: {} for q in gens}
    for r, (cuts, starts) in layout.items():
        dl, (below, at) = C.diff.get(r), layout.get(r - 1, (0, 0))
        sign = -1 if r % 2 else 1
        into = {s: (gens[r + s].append, data[r + s], D.gens[s], D.diff.get(s))
                for s in D.spaces}
        for i, (gl, cut) in enumerate(zip(C.gens[r], cuts)):
            images = dl.column(i) if dl else ()
            for s, (js, _) in cut.items():
                hits = [(below[i2][s][1], at[s][i2], v) for i2, v in images
                        if s in below[i2]] if images else ()
                append, entries, ys, dr = into[s]
                if down := dr and cut.get(s - 1):
                    below_s = starts[s - 1][i]
                for k, j in enumerate(js, starts[s][i]):
                    append(tensor_generator(gl, ys[j]))
                    col = entries[ints[k]] = {}
                    for rank, there, v in hits:
                        if (row := rank.get(j)) is not None:
                            col[ints[there + row]] = v
                    for j2, v in dr.column(j) if down else ():
                        if (row := down[1].get(j2)) is not None:
                            col[ints[below_s + row]] = sign * v
    del layout          # freed before the basis is indexed
    diff = {q: Matrix._from_sums(C.ring, len(gens.get(q - 1, ())),
                                 len(gens[q]), data.pop(q))
            for q in sorted(data) if any(data[q].values())}
    t = Tensor(C.ring, D.K, False, gens, diff)
    t.full, t.left, t.dual_of, t.right = keep_all, C.gens, None, D
    return t


def tensor_r(C: RKComplex, D: RKComplex) -> Tensor:
    """The full tensor product, labeled by the right factor."""
    return _tensor_complex(C, D, keep_all=True)


def tensor_k(C: RKComplex, D: RKComplex) -> Tensor:
    """The blocked tensor product: pairs with left label in the star of the
    right label, with the induced (filtered Koszul) differential."""
    return _tensor_complex(C, D, keep_all=False)


def projection_map(src: RKComplex, tgt: RKComplex) -> RKMap:
    """The label-diagonal epimorphism from the full tensor ``src`` =
    ``tensor_r(C, D)`` onto the blocked one ``tgt`` = ``tensor_k(C, D)``:
    it keeps the pairs x⊗y of ``tgt``, those with label(y) ⊆ label(x), and
    kills the others."""
    return RKMap.shared(src, tgt)


def _left_times_one(f, mats, src, tgt, factor, ends) -> RKMap:
    """M ⊗ 1 for a degree-0 f, between blocked tensors over one D whose
    ``factor`` records the ``ends`` (``dual_of`` their very generators,
    ``left`` equal ones): x_i⊗y goes to x'⊗y, x' in ``mats[r]``."""
    if f.degree != 0 or not all(isinstance(t, Tensor) and not t.full and (
            t.dual_of is end.gens if factor == "dual_of" else
            t.left == end.gens) and t.right.same_shape(src.right)
                                for t, end in zip((src, tgt), ends)):
        raise ChainComplexError("a degree-0 map is tensored only between the "
                                "blocked tensors of its ends over one D")
    (ours, ints), (theirs, rows) = (_layout(t.left, t.right, False)
                                    for t in (src, tgt))
    cols = {q: {} for q in src.degrees()}
    for r, mat in mats.items():
        (cuts, starts), (below, at) = ours[r], theirs[r]
        for i, cut in enumerate(cuts):
            images = mat.column(i)
            for s, (js, _) in cut.items():
                hits = [(below[i2][s][1], at[s][i2], v) for i2, v in images
                        if s in below[i2]]
                for k, j in enumerate(js, starts[s][i]):
                    if col := {rows[there + row]: v for rank, there, v in hits
                               if (row := rank.get(j)) is not None}:
                        cols[r + s][ints[k]] = col
    return RKMap(src, tgt, {
        q: Matrix._from_sums(src.ring, tgt.rank(q), src.rank(q), c)
        for q, c in cols.items() if c})


def tensor_map_left(f: RKMap, src: RKComplex, tgt: RKComplex) -> RKMap:
    """f ⊗ identity on D over the blocked tensor, for a degree-0 map f of
    opposite-order complexes: ``src`` = ``tensor_k(f.src, D)`` to ``tgt`` =
    ``tensor_k(f.tgt, D)``."""
    return _left_times_one(f, f.comps, src, tgt, "left", (f.src, f.tgt))


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
        t = tensor_k(dual_star(C), self.dstar_k)
        t.dual_of = C.gens
        return t

    def map(self, f: RKMap, src: RKComplex, tgt: RKComplex) -> RKMap:
        """T(f) = f* ⊗ 1, f* the transpose of f: ``src`` = T(f.tgt) ->
        ``tgt`` = T(f.src); contravariant."""
        return _left_times_one(
            f, {-q: mat.transpose() for q, mat in f.comps.items()}, src, tgt,
            "dual_of", (f.tgt, f.src))

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

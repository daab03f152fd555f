"""Blocked tensor products and the contravariant duality functor.

For C over the opposite order and D over the standard one, the blocked
tensor keeps only the pairs x⊗y whose left label lies in the star of the
right label; it is the quotient of the full tensor by the remaining pairs.
One layout, from D's label cuts cached once per label, places every pair
x⊗y of a tensor, and a pair is its position there: its label is y's, and
its name is rendered from the names of x and y when a message asks.  The
build computes it once and the tensor keeps it, and every reader takes it
from the tensor.  From it the differential d_C ⊗ 1 + (-1)^r 1 ⊗ d_D is
filled, and so is M ⊗ 1 for a matrix M on the left factors between two
tensors over one D: f ⊗ 1, T(f) = f* ⊗ 1, the projection of the full
tensor onto the blocked one and the cellular identification; an image
pair the target's layout does not place is one the quotient drops.  The
evaluation and the Hom-to-dual isomorphism read the layout of their
tensor, and the double-dual collapse those of T(C) and T²C.

The duality functor sends C to C* ⊗ (cochains of K), and the evaluation of
blocked maps against cochains of K collapses the double dual back to the
identity up to chain equivalence.  That is certified on the diagonal of the
map, the direct sum of its one-label components, by one whole homology
computation: when the diagonal is split surjective on bases, as every
collapse's is, the homology of its kernel, which vanishes exactly when the
cone does; when it is split injective on bases, as the cell map's is, that
of its cokernel; otherwise the cone of the diagonal, acyclic iff each
component's cone is.

Koszul signs: d(x⊗y) = dx⊗y + (-1)^{|x|} x⊗dy, and the Hom-to-dual
isomorphism Hom(D, C*) -> (C ⊗ D)* carries the sign (-1)^{|x||y|}.  Into
the dual of T(C) = C* ⊗ D it starts from Hom(D, C) instead, through the
identification C -> C** that is (-1)^{|c|} on c, so the sign becomes
(-1)^{|x|(|y|+1)} for x = c*.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (ChainComplex, ChainComplexError, Matrix, is_acyclic,
                     is_cone_acyclic)
from .rkcore import (RKComplex, RKMap, dual_star, hom_rk, delta_star_k,
                     identities)
from .simplicial import simplex_name


class Tensor(RKComplex):
    """C ⊗ D from :func:`tensor_k` or :func:`tensor_r`; records only ``full``,
    ``left`` (C's labels), ``dual_of`` (the labels of what C is dual to),
    ``right`` (D) and ``layout``, the :func:`_layout` it was built from."""

    __slots__ = ("full", "left", "dual_of", "right", "layout")


def _layout(left, D, full):
    """Where the tensor of a left factor with the labels ``left`` and D puts
    its pairs, in basis order (r, i, j): per left degree r, cuts[i], the cut
    {s: (js, rank)} of D to x_i's label (all of D when ``full``), cached on
    D, and starts: x_i⊗y_j is at starts[s][i] + rank[j] in degree r + s if j
    is in js.  Also ints to share, and the rank of each degree."""
    count, out, cache = {}, {}, D._cuts
    for r in sorted(left):
        cuts, starts = out[r] = [], {s: [0] * len(left[r]) for s in D.spaces}
        for i, label in enumerate(left[r]):
            if (cut := cache.get(key := None if full else label)) is None:
                picks = (D.positions(D.K.closure(label)) if key else
                         {s: list(range(n)) for s, n in D.spaces.items()})
                cut = cache[key] = {s: (js, {j: k for k, j in enumerate(js)})
                                    for s, js in sorted(picks.items()) if js}
            cuts.append(cut)
            for s, (js, _) in cut.items():
                starts[s][i] = start = count.get(r + s, 0)
                count[r + s] = start + len(js)
    return out, list(range(max(count.values(), default=0))), count


def left_keys(t: Tensor, keys) -> dict:
    """Per degree of the tensor ``t``, the key in ``keys`` (by left degree
    and position) of each pair's left factor, in basis order."""
    out = {q: [] for q in t.degrees()}
    for r, (cuts, _) in t.layout[0].items():
        for key, cut in zip(keys[r], cuts):
            for s, (js, _) in cut.items():
                out[r + s] += [key] * len(js)
    return out


def _pair_names(C, D, full):
    """``name(q, k)`` of the tensor of C and D: the pair at position k of
    degree q, found by counting the pairs of that degree."""
    left, left_name, right, right_name, K = (C.labels, C.name, D.labels,
                                             D.name, D.K)

    def name(q, k):
        for r in sorted(left):
            ys = right.get(q - r, ())
            for i, label in enumerate(left[r]):
                js = [j for j, y in enumerate(ys)
                      if full or y in K.closure(label)]
                if k < len(js):
                    return left_name(r, i) + "⊗" + right_name(q - r, js[k])
                k -= len(js)
        raise IndexError(f"no pair at position {k} of degree {q}")
    return name


def _tensor_complex(C, D, keep_all) -> Tensor:
    if not C.op or D.op or C.K != D.K or C.ring != D.ring:
        raise ValueError(
            "blocked tensor takes (opposite-order) ⊗ (standard-order) over one K")
    # d(x⊗y) = dx⊗y + (-1)^r x⊗dy: x_i⊗y_j goes to x'⊗y_j for x' in dx_i
    # (hits) and to x_i⊗y' for y' in dy_j, wherever the layout places them
    layout, ints, _ = built = _layout(C.labels, D, keep_all)
    labels = {r + s: [] for r in C.degrees() for s in D.degrees()}
    data = {q: {} for q in labels}
    for r, (cuts, starts) in layout.items():
        dl, (below, at) = C.diff.get(r), layout.get(r - 1, (0, 0))
        sign = -1 if r % 2 else 1
        into = {s: (labels[r + s].extend, data[r + s], D.labels[s],
                    D.diff.get(s)) for s in D.spaces}
        for i, cut in enumerate(cuts):
            images = dl.column(i) if dl else ()
            for s, (js, _) in cut.items():
                hits = [(below[i2][s][1], at[s][i2], v) for i2, v in images
                        if s in below[i2]] if images else ()
                extend, entries, ys, dr = into[s]
                extend(map(ys.__getitem__, js))
                if down := dr and cut.get(s - 1):
                    below_s = starts[s - 1][i]
                for k, j in enumerate(js, starts[s][i]):
                    col = entries[ints[k]] = {}
                    for rank, there, v in hits:
                        if (row := rank.get(j)) is not None:
                            col[ints[there + row]] = v
                    for j2, v in dr.column(j) if down else ():
                        if (row := down[1].get(j2)) is not None:
                            col[ints[below_s + row]] = sign * v
    diff = {q: Matrix._from_sums(C.ring, len(labels.get(q - 1, ())),
                                 len(labels[q]), data.pop(q))
            for q in sorted(data) if any(data[q].values())}
    t = Tensor(C.ring, D.K, False, labels, diff,
               name=_pair_names(C, D, keep_all))
    t.full, t.left, t.dual_of, t.right = keep_all, C.labels, None, D
    t.layout = built
    return t


def tensor_r(C: RKComplex, D: RKComplex) -> Tensor:
    """The full tensor product, labeled by the right factor."""
    return _tensor_complex(C, D, keep_all=True)


def tensor_k(C: RKComplex, D: RKComplex) -> Tensor:
    """The blocked tensor product: pairs with left label in the star of the
    right label, with the induced (filtered Koszul) differential."""
    return _tensor_complex(C, D, keep_all=False)


def left_times_one(src, tgt, ends, mats) -> RKMap:
    """M ⊗ 1 from the tensor ``src`` to the blocked tensor ``tgt`` over one
    D, for ``ends(src, tgt)`` true of their left factors: x_i⊗y goes to
    x'⊗y, x' in column i of ``mats()[r]``, the matrices of M by left degree
    r, wherever ``tgt`` places it."""
    if not (isinstance(src, Tensor) and isinstance(tgt, Tensor)
            and not tgt.full and src.right.labels == tgt.right.labels
            and ends(src, tgt)):
        raise ChainComplexError("a degree-0 map is tensored only between the "
                                "blocked tensors of its ends over one D")
    (ours, ints, _), (theirs, rows, _) = src.layout, tgt.layout
    cols = {q: {} for q in src.degrees()}
    for r, mat in mats().items():
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
    return RKMap.from_columns(src, tgt, cols)


def projection_map(src: RKComplex, tgt: RKComplex) -> RKMap:
    """The label-diagonal epimorphism from the full tensor ``src`` =
    ``tensor_r(C, D)`` onto the blocked one ``tgt`` = ``tensor_k(C, D)``:
    it keeps the pairs x⊗y of ``tgt``, those with label(y) ⊆ label(x), and
    kills the others."""
    return left_times_one(
        src, tgt, lambda s, t: s.full and s.left == t.left,
        lambda: identities(src.ring, {r: len(ls) for r, ls in src.left.items()},
                           False))


def tensor_map_left(f: RKMap, src: RKComplex, tgt: RKComplex) -> RKMap:
    """f ⊗ identity on D over the blocked tensor, for a degree-0 map f of
    opposite-order complexes: ``src`` = ``tensor_k(f.src, D)`` to ``tgt`` =
    ``tensor_k(f.tgt, D)``."""
    return left_times_one(src, tgt, lambda s, t: (
        f.degree == 0 and not s.full and s.left == f.src.labels
        and t.left == f.tgt.labels), lambda: f.comps)


def hom_dual_iso(src: RKComplex, t: RKComplex) -> RKMap:
    """The isomorphism from ``src`` onto the dual of the blocked tensor
    ``t``, which it builds; label-diagonal and bijective degreewise.

    For ``t`` = ``tensor_k(C, D)``, ``src`` = Hom(D, C*): the generator
    (y -> x*) goes to (-1)^{|x||y|} times the dual basis element of x⊗y,
    placed by the layout of ``t``.  For ``t`` = T(C) = C* ⊗ D (its
    ``dual_of`` set), ``src`` = Hom(D, C): the generator (y -> c) is
    (y -> x*) for x = c* after the untwist C -> C**, (-1)^{|c|} on c, so
    it goes to (-1)^{|x|(|y|+1)} times the dual of x⊗y.
    """
    ring, layout = src.ring, t.layout[0]
    untwist = t.dual_of is not None

    def images(p, k):
        q, j, i = src.keys[p][k]        # y_j in D_q, x_i* in degree q+p
        r = -(q + p)                    # the degree of x_i
        cuts, starts = layout[r]
        yield (starts[q][i] + cuts[i][q][1][j],
               ring.coerce((-1) ** ((r * (q + untwist)) % 2)))
    return RKMap.from_images(src, dual_star(t), images)


class Dualizer:
    """The contravariant duality C -> C* ⊗ (cochains of K) over a fixed K.

    One instance holds the cochain complex of K, the right factor of every
    dual and double dual it builds; maps take T of their ends.
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
        t.dual_of = C.labels
        return t

    def map(self, f: RKMap, src: RKComplex, tgt: RKComplex) -> RKMap:
        """T(f) = f* ⊗ 1, f* the transpose of f: ``src`` = T(f.tgt) ->
        ``tgt`` = T(f.src); contravariant."""
        return left_times_one(src, tgt, lambda s, t: (
            f.degree == 0 and s.dual_of is f.tgt.labels
            and t.dual_of is f.src.labels), lambda: {
                -q: mat.transpose() for q, mat in f.comps.items()})

    def square(self, tc: RKComplex) -> RKComplex:
        """T²C, given ``tc`` = T(C)."""
        return self.object(tc)

    def evaluation(self, C: RKComplex):
        """The evaluation collapse (H ⊗ cochains of K) -> C, H = Hom(cochains of K, C).

        Returns (H, HK, E) where E(f ⊗ s*) = f(s*): the generator
        (s* -> c) ⊗ s* goes to c, every other pair to 0.
        """
        D, one = self.dstar_k, self.ring.one
        H = hom_rk(D, C)
        HK = tensor_k(H, D)
        cols = {q: {} for q in HK.degrees()}
        for r, (cuts, starts) in HK.layout[0].items():
            for i, ((s, j, c), cut) in enumerate(zip(H.keys[r], cuts)):
                cols[r + s][starts[s][i] + cut[s][1][j]] = {c: one}
        return H, HK, RKMap.from_columns(HK, C, cols)

    def hom_to_square(self, H: RKComplex, HK: RKComplex, tc: RKComplex,
                      t2: RKComplex) -> RKMap:
        """The isomorphism ``HK`` = (``H`` ⊗ cochains K) -> ``t2`` = T²C,
        the Hom-to-dual isomorphism H -> (T C)* tensored with the cochains
        of K, for ``H``, ``HK`` from :meth:`evaluation` and ``tc`` = T(C)."""
        return tensor_map_left(hom_dual_iso(H, tc), HK, t2)

    def double_dual_map(self, C: RKComplex, tc: RKComplex,
                        t2: RKComplex) -> RKMap:
        """The natural epimorphism e: ``t2`` = T²C -> C, for ``tc`` = T(C).

        Read from the layouts of ``tc`` and ``t2``: the generator
        (x* ⊗ s*)* ⊗ t* goes to (-1)^{|x|(1+dim s)} x when s = t, else to 0.
        The defining identity (evaluation = e ∘ (iso ⊗ 1)) is checked in the
        test suite.
        """
        ring, labels = self.ring, self.dstar_k.labels
        if not (isinstance(tc, Tensor) and isinstance(t2, Tensor)
                and tc.dual_of is C.labels and t2.dual_of is tc.labels
                and tc.right.labels == t2.right.labels == labels):
            raise ChainComplexError("the double-dual collapse reads T(C) and "
                                    "T²C of its own C over this dualizer's K")
        inner, outer, cols = tc.layout[0], t2.layout[0], {}
        for r, (cuts, starts) in inner.items():      # x* in degree r of C*
            comp = cols.setdefault(-r, {})
            for i, cut in enumerate(cuts):
                for s, (js, _) in cut.items():        # s = -dim s
                    sign = ring.coerce((-1) ** ((r * (1 - s)) % 2))
                    o_cuts, o_starts = outer[-(r + s)]
                    for k, j in enumerate(js, starts[s][i]):
                        # (x*⊗s_j*)*, left generator k of T², against s_j*
                        comp[o_starts[s][k] + o_cuts[k][s][1][j]] = {i: sign}
        return RKMap.from_columns(t2, C, cols)


@dataclass
class EquivalenceReport:
    """Per-label cone-acyclicity verdicts for a degree-0 blocked map."""

    name: str
    verdicts: dict
    passed: bool

    def failures(self):
        return sorted(simplex_name(s) for s, ok in self.verdicts.items()
                      if not ok)


def _one_label_columns(f: RKMap, q):
    """The nonzero columns of the diagonal of ``f`` in degree q, as (j, its
    [(i, value)] between generators of one label), in storage order."""
    cols, rows = f.src.labels.get(q, ()), f.tgt.labels.get(q, ())
    for j, col in f.comps[q].columns() if q in f.comps else ():
        if on := [(i, v) for i, v in col if rows[i] == cols[j]]:
            yield j, on


def _reduced(C: RKComplex, kept, also, rewrite) -> ChainComplex:
    """The complex on the generators ``kept[q]`` of each degree q of ``C``,
    with the one-label differential of ``C``: the kept generator j stands
    for e_j + c·e_p where ``also[q][j]`` = (p, c), else for e_j, and an
    image e_i counts at the place of i among the kept generators, or, off
    them, as the sum of s·e_k over the pairs (k, s) of ``rewrite[q][i]``,
    or as 0."""
    diff = {}
    for q, mat in C.diff.items():
        if q not in kept or q - 1 not in kept:
            continue
        above, below, cols = C.labels[q], C.labels[q - 1], {}
        places = {i: b for b, i in enumerate(kept[q - 1])}
        extra, rewrites = also.get(q, {}), rewrite.get(q - 1, {})
        for b, j in enumerate(kept[q]):
            col = cols[b] = {}
            for k, c in ((j, 1), extra[j]) if j in extra else ((j, 1),):
                for i, v in mat.column(k):
                    if below[i] != above[k]:
                        continue
                    if (a := places.get(i)) is not None:
                        col[a] = col[a] + c * v if a in col else c * v
                    for i2, s in rewrites.get(i, ()):
                        a, w = places[i2], c * s * v
                        col[a] = col[a] + w if a in col else w
        diff[q] = Matrix._from_sums(C.ring, len(places), len(kept[q]), cols)
    return ChainComplex(C.ring, {q: len(js) for q, js in kept.items()}, diff)


def split_kernel(f: RKMap):
    """The kernel of the diagonal of ``f`` when that diagonal is split
    surjective on bases, else None.

    Split surjective on bases means, in every degree: each column of the
    diagonal (the entries of ``f`` between generators of one label) is zero
    or one unit entry, and every generator of ``f.tgt`` is hit.  Of the
    columns that hit a row, the first, p, is its pivot.  The kernel has the
    basis e_j for a zero column j and e_j - v_j v_p⁻¹ e_p for a column j
    off the pivots that hits the row of p (v_j, v_p the entries), so a
    kernel vector's coordinates are its entries off the pivots.  For a
    chain map ``f`` it is a subcomplex of the one-label differential of
    ``f.src``, returned on the columns off the pivots, in their order.
    """
    src, ring, kept, also = f.src, f.src.ring, {}, {}
    for q in set(src.degrees()) | set(f.tgt.degrees()):
        pivots = {}                 # row -> (its pivot column, v_p)
        for j, on in _one_label_columns(f, q):
            (i, v), *more = on
            if more or not ring.is_unit(v):
                return None
            if (pivot := pivots.get(i)) is None:
                pivots[i] = j, v
            else:
                p, v_p = pivot
                also.setdefault(q, {})[j] = p, -v * ring.invert(v_p)
        if len(pivots) != f.tgt.rank(q):
            return None
        taken = {p for p, _ in pivots.values()}
        kept[q] = [j for j in range(src.rank(q)) if j not in taken]
    return _reduced(src, kept, also, {})


def split_cokernel(f: RKMap):
    """The cokernel of the diagonal of ``f`` when that diagonal is split
    injective on bases, else None.

    Split injective on bases means, in every degree: the columns of the
    diagonal have pairwise disjoint supports, and each column j holds a
    unit entry u_j, the first, at its pivot row p_j.  The diagonal is then
    injective, its image a direct summand, and the quotient has the basis
    of the rows off the pivots: e_{p_j} is e_{p_j} - f(e_j)/u_j there,
    -u_j⁻¹ times the rest of column j, which lies off the pivots since the
    supports are disjoint.  For a chain map ``f`` the quotient's
    differential is the one-label differential of ``f.tgt`` on the rows
    off the pivots, each pivot row in an image so rewritten.
    """
    tgt, ring, kept, rest = f.tgt, f.tgt.ring, {}, {}
    for q in set(f.src.degrees()) | set(tgt.degrees()):
        seen, pivots = set(), 0
        for _, on in _one_label_columns(f, q):
            p, u = next(((i, v) for i, v in on if ring.is_unit(v)),
                        (None, None))
            support = {i for i, _ in on}
            if p is None or support & seen:
                return None
            seen |= support
            pivots += 1
            c = -ring.invert(u)
            rest.setdefault(q, {})[p] = [(i, c * v) for i, v in on if i != p]
        if pivots != f.src.rank(q):
            return None
        kept[q] = [i for i in range(tgt.rank(q)) if i not in rest.get(q, ())]
    return _reduced(tgt, kept, {}, rest)


def verify_diagonal_equivalence(f: RKMap, name: str) -> EquivalenceReport:
    """Certify a blocked map as an equivalence: every diagonal component
    must have an acyclic mapping cone.

    The map and its two sides are validated once each, whole: support and
    d∘d = 0 of ``f.src`` and ``f.tgt``, support and the chain-map identity
    of ``f``.  With support, the diagonal blocks of those identities are
    the identities of the diagonal blocks, so the diagonal, the direct sum
    of the per-label components, is a chain map of complexes with d∘d = 0.
    Its cone is acyclic exactly when every per-label cone is: homology over
    Z, Q and Z/p adds up, torsion included.  When the diagonal is split
    surjective on bases (:func:`split_kernel`) or split injective on bases
    (:func:`split_cokernel`), no cone is built: by the long exact sequence
    of 0 -> ker -> src -> tgt -> 0, or of 0 -> src -> tgt -> coker -> 0,
    free and split in each degree, H_q(ker) = H_{q+1}(cone) and H_q(coker)
    = H_q(cone), so the kernel's or the cokernel's homology decides every
    label at once (the Gaussian-elimination lemma, applied before the
    cone).  Any other diagonal goes through the whole cone.  Only when the
    whole verdict fails is each label's cone built, to name the labels
    that fail.
    """
    f.src.validate()
    f.tgt.validate()
    f.validate()
    labels = sorted(f.src.K.all_simplices(), key=f.src.K.sort_key)
    reduced = split_kernel(f)
    if reduced is None:
        reduced = split_cokernel(f)
    whole = (is_cone_acyclic(f.diagonal()) if reduced is None else
             is_acyclic(reduced))
    verdicts = (dict.fromkeys(labels, True) if whole else
                {sigma: is_cone_acyclic(f.diagonal_component(sigma))
                 for sigma in labels})
    return EquivalenceReport(name, verdicts, all(verdicts.values()))

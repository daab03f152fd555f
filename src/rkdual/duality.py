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
identity up to chain equivalence.  Each such equivalence is certified on
the cone of the map's diagonal, the direct sum of its one-label components,
after its unit entries are cancelled in the cone: a differential
(φ δ; γ ε) with φ invertible is replaced by ε - γφ⁻¹δ, which keeps the
homology (Gaussian elimination, Bar-Natan 2007).  The diagonal's columns
are matched to unit entries so that the matched block is a diagonal of
units.  What is left is the kernel, one degree up, of a split surjective
diagonal, as every collapse's is; the cokernel of a split injective one,
as the cell map's is; the whole cone of one with no unit.  Its differential
keeps one label, so its cut to a label is that label's reduced cone.

Koszul signs: d(x⊗y) = dx⊗y + (-1)^{|x|} x⊗dy, and the Hom-to-dual
isomorphism Hom(D, C*) -> (C ⊗ D)* carries the sign (-1)^{|x||y|}.  Into
the dual of T(C) = C* ⊗ D it starts from Hom(D, C) instead, through the
identification C -> C** that is (-1)^{|c|} on c, so the sign becomes
(-1)^{|x|(|y|+1)} for x = c*.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import ChainComplexError, Matrix, is_acyclic
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


def _pair_names(C, D, layout):
    """``name(q, k)`` of the tensor of C and D laid out by ``layout``, as
    :func:`_layout` gives it: the pair at position k of degree q."""
    left_name, right_name = C.name, D.name

    def name(q, k):
        for r, (cuts, starts) in layout.items():
            for i, cut in enumerate(cuts):
                if (s := q - r) in cut:
                    js, at = cut[s][0], k - starts[s][i]
                    if 0 <= at < len(js):
                        return left_name(r, i) + "⊗" + right_name(s, js[at])
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
               name=_pair_names(C, D, layout))
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


def _cone_columns(pieces, places, labels, cols):
    """Add into ``cols[b]``, for the generator j at place b of ``places``,
    labelled ``labels[j]``, the one-label entries of column j of each
    (matrix, row labels, row places, matched rows, sign) of ``pieces`` that
    land on a place; return the (b, row, value) of those on a matched row,
    and drop the rest, which land on a matched column."""
    off = []
    for mat, rows, at, hit, sign in pieces:
        for j, b in places.items():
            col, label = cols[b], labels[j]
            for i, v in mat.column(j):
                if rows[i] != label:
                    continue
                if (a := at.get(i)) is not None:
                    col[a] = col[a] + sign * v if a in col else sign * v
                elif i in hit:
                    off.append((b, i, v))
    return off


def reduced_cone(f: RKMap) -> RKComplex:
    """The cone of the diagonal of ``f``, Cone_n = src_{n-1} ⊕ tgt_n with
    d(c, x) = (-d c, f c + d x), after its unit entries are cancelled.

    Column j of the diagonal of f_q, read in storage order, is matched to
    its first unit entry u, at row i, when none of its entries lies on a
    matched row and i lies in no matched column's support; the matched
    block is then a diagonal of units.  The unmatched generators are kept,
    in the cone's order, with their labels.  Of the one-label entries of
    d_src, f and d_tgt, one that lands on a matched column is dropped, and
    one, v, on a matched row i whose column is p becomes -v·u⁻¹ times the
    cone's differential of p off the matched rows.
    """
    if f.degree != 0:
        raise ChainComplexError("a mapping cone needs a degree-0 map")
    src, tgt, ring = f.src, f.tgt, f.src.ring
    # pivots[q]: row -> (its column, u⁻¹) of f_q; sp[q], tp[q]: the places
    # in the reduced cone of the kept generators of src_q and tgt_q
    sl, tl, pivots, sp, tp, labels, diff = (f.src.labels, f.tgt.labels, {},
                                            {}, {}, {}, {})
    for q, mat in f.comps.items():
        cols, rows, hit, covered = sl[q], tl[q], {}, set()
        for j, col in mat.columns():
            label, on, unit = cols[j], [], None
            for i, v in col:
                if rows[i] == label:
                    if i in hit:
                        break
                    on.append(i)
                    if unit is None and ring.is_unit(v):
                        unit = i, v
            else:
                if unit and unit[0] not in covered:
                    hit[unit[0]] = j, ring.invert(unit[1])
                    covered.update(on)
        pivots[q] = hit
    for n in {q + 1 for q in sl} | set(tl):
        taken = {p for p, _ in pivots.get(n - 1, {}).values()}
        srcs = [j for j in range(src.rank(n - 1)) if j not in taken]
        tgts = [i for i in range(tgt.rank(n)) if i not in pivots.get(n, ())]
        sp[n - 1] = {j: a for a, j in enumerate(srcs)}
        tp[n] = {i: a for a, i in enumerate(tgts, len(srcs))}
        labels[n] = [sl[n - 1][j] for j in srcs] + [tl[n][i] for i in tgts]
    for n, ls in labels.items():
        hit, below = pivots.get(n - 1, {}), tp.get(n - 1)
        into_src = [piece for piece in (
            (src.diff.get(n - 1), sl.get(n - 2), sp.get(n - 2), {}, -1),
            (f.comps.get(n - 1), tl.get(n - 1), below, hit, 1)) if piece[0]]
        into_tgt = ([(tgt.diff[n], tl[n - 1], below, hit, 1)]
                    if n in tgt.diff else [])
        cols = {b: {} for b in range(len(ls))}
        off = (_cone_columns(into_src, sp[n - 1], sl.get(n - 1), cols)
               + _cone_columns(into_tgt, tp[n], tl.get(n), cols))
        if off:     # each matched row hit, to the cone's column of its pivot
            heads = {i: {} for _, i, _ in off}
            _cone_columns(into_src, {hit[i][0]: i for i in heads},
                          sl[n - 1], heads)
            for b, i, v in off:
                col, c = cols[b], -v * hit[i][1]
                for a, x in heads[i].items():
                    col[a] = col[a] + c * x if a in col else c * x
        diff[n] = Matrix._from_sums(ring, len(labels.get(n - 1, ())),
                                    len(ls), cols)
    return RKComplex(ring, src.K, src.op, labels, diff)


def verify_diagonal_equivalence(f: RKMap, name: str) -> EquivalenceReport:
    """Certify a blocked map as an equivalence: every diagonal component
    must have an acyclic mapping cone.

    The map and its two sides are validated once each, whole: support and
    d∘d = 0 of ``f.src`` and ``f.tgt``, support and the chain-map identity
    of ``f``.  With support, the diagonal blocks of those identities are
    the identities of the diagonal blocks, so the diagonal, the direct sum
    of the per-label components, is a chain map of complexes with d∘d = 0,
    and its cone is the direct sum of the per-label cones.  Cancelling a
    unit entry of a differential keeps the homology over Z, Q and Z/p,
    torsion included (the Gaussian-elimination lemma), so
    :func:`reduced_cone` is acyclic exactly when every per-label cone is.
    Its differential keeps one label, so its cut to σ is the reduced cone
    of σ's component: only when the whole verdict fails is each label
    decided on its cut, to name the labels that fail.
    """
    f.src.validate()
    f.tgt.validate()
    f.validate()
    reduced = reduced_cone(f)
    labels = sorted(f.src.K.all_simplices(), key=f.src.K.sort_key)
    verdicts = (dict.fromkeys(labels, True) if is_acyclic(reduced) else
                {sigma: is_acyclic(reduced.sub({sigma})) for sigma in labels})
    return EquivalenceReport(name, verdicts, all(verdicts.values()))

"""The reduced cone against the whole cone of the diagonal, on random maps.

``duality.reduced_cone`` cancels the unit entries of a map's diagonal inside
its cone.  Here it meets small random label-diagonal chain maps over Z, Q
and Z/2 whose shapes the corpus never reaches: entries that are not units
over Z, two unit columns on one row, a unit column that touches another
column's pivot row, and sides that are zero in some degree.  A map is
g + d h + h d, where h is a random homotopy and g is one of: any map
between complexes with no differential, zero, a multiple of the identity,
the projection of a direct sum onto a summand or the inclusion of one, or
(1 c) from C ⊕ C onto C or its transpose.  The complexes are sums of R and
of R --c--> R.  They, and then both sides of the map, are mixed by
elementary changes of basis within each label, so d∘d = 0 and f is a chain
map by construction.  The reduced cone must have the homology of the cone
of the diagonal (``tests/oracles.py``) in every degree, and its cut to
each label that of the label's own cone; the certificate must name the
labels whose own cones are not acyclic.  Named shapes, each of which a
wrong matching or rewriting rule fails, are checked the same way.
"""

import pytest
from hypothesis import given, settings, strategies as st

from rkdual.duality import verify_diagonal_equivalence
from rkdual.linalg import Matrix
from rkdual.rings import GF2, QQ, ZZ
from rkdual.rkcore import RKComplex, RKMap
from rkdual.simplicial import SimplicialComplex

from oracles import dense_product
from test_duality import assert_reduced_is_the_cone, per_label_failures

K = SimplicialComplex.build(None, [["a", "b"]])
LABELS = (("a",), ("b",), ("a", "b"))
DEGREES = (0, 1, 2)


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def mix(draw, cx, out=(), into=()):
    """Elementary changes of basis e_k' = e_k + c e_l between generators of
    one label of the complex ``cx`` = (labels, d), carried through the
    dense maps ``out`` of it (their columns) and ``into`` it (their
    rows)."""
    labels, d = cx
    for _ in range(draw(st.integers(0, 4))):
        q = draw(st.sampled_from(DEGREES))
        pairs = [(k, l) for k, a in enumerate(labels[q])
                 for l, b in enumerate(labels[q]) if k != l and a == b]
        if not pairs:
            continue
        (k, l), c = draw(st.sampled_from(pairs)), draw(st.sampled_from((1, -1,
                                                                        2)))
        for rows in ([d[q + 1]] if q + 1 in d else []) + [m[q] for m in into]:
            rows[l] = [x - c * y for x, y in zip(rows[l], rows[k])]
        for rows in ([d[q]] if q in d else []) + [m[q] for m in out]:
            for row in rows:
                row[k] += c * row[l]
    return cx


@st.composite
def complexes(draw, max_pieces=4, arrows=True, degrees=DEGREES):
    """(labels, d) of a random complex in degrees 0..2: a sum of R and, when
    ``arrows``, of R --c--> R, each at one label, then mixed within each
    label; d[q] are the dense rows of d_q.  Without arrows the generators
    lie in ``degrees``, and most of them at the label a."""
    labels, arrows = {q: [] for q in DEGREES}, [] if arrows else None
    for _ in range(draw(st.integers(0, max_pieces))):
        q, label = draw(st.sampled_from(degrees)), draw(st.sampled_from(
            LABELS if arrows is not None else LABELS[:1] * 3 + LABELS[1:]))
        if q and arrows is not None and draw(st.booleans()):
            c = draw(st.sampled_from((1, -1, 2, 3)))
            arrows.append((q, len(labels[q]), len(labels[q - 1]), c))
            labels[q - 1].append(label)
        labels[q].append(label)
    d = {q: zeros(len(labels[q - 1]), len(labels[q])) for q in DEGREES[1:]}
    for q, j, i, c in arrows or ():
        d[q][i][j] = c
    return mix(draw, (labels, d))


def direct_sum(a, b):
    (la, da), (lb, db) = a, b
    labels = {q: la[q] + lb[q] for q in DEGREES}
    d = {}
    for q in DEGREES[1:]:
        d[q] = ([row + [0] * len(lb[q]) for row in da[q]]
                + [[0] * len(la[q]) + row for row in db[q]])
    return labels, d


def as_complex(ring, cx):
    labels, d = cx
    return RKComplex(
        ring, K, False, {q: tuple(ls) for q, ls in labels.items()},
        {q: as_matrix(ring, rows, len(labels[q - 1]), len(labels[q]))
         for q, rows in d.items()})


def as_matrix(ring, rows, m, n):
    return Matrix(ring, m, n, {(i, j): v for i, row in enumerate(rows)
                               for j, v in enumerate(row) if v})


@st.composite
def chain_maps(draw, ring):
    """A random label-diagonal chain map g + d h + h d, as an RKMap."""
    kind = draw(st.sampled_from(("free", "zero", "scale", "project",
                                 "include", "fold", "unfold")))
    C, E, c = (draw(complexes()), draw(complexes(max_pieces=2)),
               draw(st.sampled_from((1, -1, 2))))
    n, e = ({q: len(cx[0][q]) for q in DEGREES} for cx in (C, E))
    nothing = ({q: [] for q in DEGREES}, {q: [] for q in DEGREES[1:]})

    def eye(q, k=1):
        return [[k * (i == j) for j in range(n[q])] for i in range(n[q])]
    free = [draw(complexes(7, False, (0, 1))) for _ in "st"]
    src, tgt, g = {
        # no differential, so any map is a chain map
        "free": lambda: (*free, {q: [[
            draw(st.sampled_from((1, 2, 0, -1))) if a == b else 0
            for b in free[0][0][q]] for a in free[1][0][q]] for q in DEGREES}),
        "zero": lambda: (C, draw(complexes()), None),
        "scale": lambda: (C, direct_sum(C, nothing), {
            q: eye(q, c) for q in DEGREES}),
        "project": lambda: (direct_sum(C, E), C, {
            q: [row + [0] * e[q] for row in eye(q)] for q in DEGREES}),
        "include": lambda: (C, direct_sum(C, E), {
            q: eye(q) + zeros(e[q], n[q]) for q in DEGREES}),
        "fold": lambda: (direct_sum(C, C), C, {
            q: [a + b for a, b in zip(eye(q), eye(q, c))] for q in DEGREES}),
        "unfold": lambda: (C, direct_sum(C, C), {
            q: eye(q) + eye(q, c) for q in DEGREES}),
    }[kind]()
    g = g or {q: zeros(len(tgt[0][q]), len(src[0][q])) for q in DEGREES}
    (ls, ds), (lt, dt) = src, tgt
    # h_q: src_q -> tgt_{q+1}, between generators of one label
    h = {q: [[draw(st.sampled_from((0, 0, 1, -1, 2))) if a == b else 0
              for b in ls[q]] for a in lt[q + 1]] for q in DEGREES[:-1]}
    comps = {}
    for q in DEGREES:
        rows, width, terms = [row[:] for row in g[q]], len(ls[q]), []
        if q in h and q + 1 in dt:          # d h
            terms.append(dense_product(dt[q + 1], h[q], width))
        if q - 1 in h and q in ds:          # h d
            terms.append(dense_product(h[q - 1], ds[q], width))
        for term in terms:
            for row, add in zip(rows, term):
                for j, v in enumerate(add):
                    row[j] += v
        comps[q] = rows
    # and changes of basis of both sides, which mix the summands
    mix(draw, src, out=[comps])
    mix(draw, tgt, into=[comps])
    return RKMap(as_complex(ring, src), as_complex(ring, tgt), {
        q: as_matrix(ring, rows, len(lt[q]), len(ls[q]))
        for q, rows in comps.items()})


def assert_certified_as_its_cones(f):
    f.src.validate()
    f.tgt.validate()
    f.validate()
    assert_reduced_is_the_cone(f)
    assert verify_diagonal_equivalence(f).failures() == (
        per_label_failures(f))


@pytest.mark.parametrize("ring", [ZZ, QQ, GF2], ids=["Z", "Q", "Z2"])
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_the_reduced_cone_has_the_homology_of_the_cone(ring, data):
    assert_certified_as_its_cones(data.draw(chain_maps(ring)))


def one_label(ring, ranks, d=None):
    """A complex at the label a with the given rank per degree."""
    return RKComplex(ring, K, False, {q: (("a",),) * n
                                      for q, n in ranks.items()},
                     {q: as_matrix(ring, rows, ranks.get(q - 1, 0), ranks[q])
                      for q, rows in (d or {}).items()})


def shapes(ring):
    """The named shapes, each a map at the label a.  A matrix's columns are
    stored in the order in which its rows first reach them."""
    two, three = one_label(ring, {0: 2}), one_label(ring, {0: 3})
    arrow = one_label(ring, {0: 1, 1: 1}, {1: [[1]]})
    point = one_label(ring, {0: 1})
    return {
        # a 2 and a 3: no unit over Z, so the whole cone stays
        "not a unit": RKMap(two, two, {0: as_matrix(ring, [[2, 0], [0, 3]],
                                                    2, 2)}),
        "two unit columns on one row": RKMap(two, point, {
            0: as_matrix(ring, [[1, 1]], 1, 2)}),
        # over Z column 0 takes row 1; column 2 has the unit -1 on row 2
        # but also touches row 1, so it stays, and column 1 is rewritten
        "a unit column on a pivot row": RKMap(three, three, {
            0: as_matrix(ring, [[2, 0, 2], [-1, 0, 2], [0, 2, -1]], 3, 3)}),
        # column 1 takes row 0 and covers row 1, where column 0 has its
        # first unit: column 0 stays
        "a unit in a matched support": RKMap(three, three, {
            0: as_matrix(ring, [[0, 1, 1], [1, 1, 0], [1, 0, 0]], 3, 3)}),
        # over Q column 0 takes row 0 by the unit 2, and the rows of the
        # other two columns are rewritten through 2⁻¹
        "a pivot of 2": RKMap(three, three, {
            0: as_matrix(ring, [[2, -1, 2], [0, 1, 1], [2, -1, 2]], 3, 3)}),
        # the source is zero in degree 1, the target is not
        "a side zero in a degree": RKMap(point, arrow, {
            0: as_matrix(ring, [[1]], 1, 1)}),
        "a side zero in every degree": RKMap(one_label(ring, {}), arrow, {}),
    }


@pytest.mark.parametrize("ring", [ZZ, QQ, GF2], ids=["Z", "Q", "Z2"])
@pytest.mark.parametrize("name", list(shapes(ZZ)))
def test_each_named_shape_has_the_homology_of_its_cone(ring, name):
    assert_certified_as_its_cones(shapes(ring)[name])

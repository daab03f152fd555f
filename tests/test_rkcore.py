"""Labeled complexes: duals, evaluation, Hom, assembly, geometric complexes."""

import random

import pytest

from rkdual.checks import run_command
from rkdual.duality import Dualizer
from rkdual.linalg import ChainComplexError, Matrix
from rkdual.rings import GF2, ZZ
from rkdual.rkcore import (RKComplex, RKMap, check_lemma_clem,
                           delta_chain, delta_complexes, delta_star_k,
                           dual_star, dual_star_map, hom_rk, is_full,
                           maximal_label_ses)
from rkdual.simplicial import InputError, SimplicialComplex
from rkdual.ballcomplex import OrientationPair, induced_chain_map
from rkdual.simplicial import control_map

from rkdual.corpus import CORPUS_NAMES, document

from oracles import (between_closed, corpus_kspace, count_decreasing_chains,
                     dense_block, double_dual, epsilon, from_rows,
                     inclusion_rows, projection_rows, to_rows)


def build(*maximal):
    return SimplicialComplex.build(None, [list(s) for s in maximal])


def point_complex(ring, degrees_and_diffs):
    """A complex over the one-point control complex, for sign tests."""
    K = build("p")
    labels, keys, diff = {}, {}, {}
    for q, n in degrees_and_diffs["ranks"].items():
        labels[q] = (("p",),) * n
        keys[q] = tuple((f"c{q}.{i}",) for i in range(n))
    for q, rows in degrees_and_diffs.get("diffs", {}).items():
        diff[q] = from_rows(ring, rows)
    return RKComplex(ring, K, False, labels, diff, keys)


# ---------------------------------------------------------------- fullness

def test_full_subsets_of_the_edge():
    K = build("ab")
    assert is_full(K, set(K.all_simplices()))
    for sigma in K.all_simplices():
        assert is_full(K, set(K.star(sigma)))
    # two incomparable vertices: the between-sets are empty, so it is full
    assert is_full(K, {("a",), ("b",)})
    # a vertex together with the edge of a triangle is not full
    K2 = build("abc")
    assert not is_full(K2, {("a",), ("a", "b", "c")})


def test_is_full_agrees_with_the_between_condition():
    # every subset of each corpus control complex, and seeded subsets of
    # the tetrahedron at densities from sparse to dense
    for name in CORPUS_NAMES:
        K = corpus_kspace(name).K
        S = list(K.all_simplices())
        for mask in range(1 << len(S)):
            sub = [s for i, s in enumerate(S) if mask >> i & 1]
            assert is_full(K, sub) == between_closed(S, sub), (name, sub)
    K = build("abcd")
    S = list(K.all_simplices())
    rng = random.Random(0)
    verdicts = set()
    for _ in range(1500):
        density = rng.random()
        sub = [s for s in S if rng.random() < density]
        full = is_full(K, sub)
        verdicts.add(full)
        assert full == between_closed(S, sub), sub
    assert verdicts == {True, False}


def test_is_full_rejects_a_non_simplex():
    with pytest.raises(InputError, match="a.d"):
        is_full(build("abc", "d"), {("a", "d")})


def test_assemble_whole_complex_and_star(edge_ks):
    dx = delta_chain(edge_ks, ZZ)
    whole = dx.sub(set(edge_ks.K.all_simplices()))
    assert whole.total_rank() == dx.total_rank()
    star = dx.sub(set(edge_ks.K.star(("a",))))
    assert star.total_rank() == 2          # the vertex a and the edge
    star.validate()


def test_assemble_incomparable_vertices_has_zero_cross_terms(edge_ks):
    dx = delta_chain(edge_ks, ZZ)
    sub = dx.sub({("a",), ("b",)})
    assert sub.total_rank() == 2
    assert all(sub.d(q).is_zero() for q in sub.degrees())


# ---------------------------------------------------------------- dual star

def test_dual_of_unit_differential_picks_up_a_sign():
    C = point_complex(ZZ, {"ranks": {0: 1, 1: 1}, "diffs": {1: [[1]]}})
    C.validate()
    Cs = dual_star(C)
    assert Cs.degrees() == [-1, 0]
    assert to_rows(Cs.d(0)) == [[-1]]


def test_dual_of_zero_complex():
    C = point_complex(ZZ, {"ranks": {}})
    assert dual_star(C).total_rank() == 0


def test_double_dual_with_epsilon_recovers_the_complex():
    C = point_complex(ZZ, {"ranks": {0: 2, 1: 1}, "diffs": {1: [[1], [2]]}})
    C.validate()
    eps = epsilon(C)
    eps.validate()
    assert eps.is_bijection_on_bases()
    # conjugating the double dual differential by epsilon gives d back
    dd = double_dual(C)
    for q in C.degrees():
        lhs = eps.component(q - 1) * dd.d(q)
        rhs = C.d(q) * eps.component(q)
        assert lhs == rhs


def test_epsilon_signs():
    C0 = point_complex(ZZ, {"ranks": {0: 1}})
    assert to_rows(epsilon(C0).component(0)) == [[1]]
    C1 = point_complex(ZZ, {"ranks": {1: 1}})
    assert to_rows(epsilon(C1).component(1)) == [[-1]]


def test_epsilon_is_a_chain_map_on_hexagon_chains(hex_ks):
    dx = delta_chain(hex_ks, ZZ)
    epsilon(dx).validate()


def test_epsilon_naturality_along_the_control_map(hex_ks):
    fmap = control_map(hex_ks)
    or_src = OrientationPair.standard(hex_ks)
    or_tgt = OrientationPair.standard(fmap.tgt)
    push = induced_chain_map(fmap, delta_chain(hex_ks, ZZ, or_src.bx),
                             delta_chain(fmap.tgt, ZZ, or_tgt.bx),
                             or_src, or_tgt)
    push.validate()
    lhs = push.compose(epsilon(push.src))
    eps = epsilon(push.tgt)
    rhs = eps.compose(dual_star_map(dual_star_map(push), tgt=eps.src))
    # a map is between complexes, not copies: rhs starts from a second
    # double dual of push.src, with the same labels
    assert rhs.src is not lhs.src and rhs.src.labels == lhs.src.labels
    assert RKMap(lhs.src, rhs.tgt, rhs.comps) == lhs


def test_dual_of_a_null_homotopy_is_a_null_homotopy():
    # identity of [Z --1--> Z] is null-homotopic via h = (1)
    C = point_complex(ZZ, {"ranks": {0: 1, 1: 1}, "diffs": {1: [[1]]}})
    h = from_rows(ZZ, [[1]])                     # C_0 -> C_1
    assert C.d(1) * h == Matrix.identity(ZZ, 1)
    assert h * C.d(1) == Matrix.identity(ZZ, 1)
    Cs = dual_star(C)
    hs = h.transpose().scale(-1)                        # (C*)_{-1} -> (C*)_0
    # homotopy identity for the dual: d* h* + h* d* = 1 in both degrees
    assert to_rows((hs * Cs.d(0))) == [[1]]
    assert to_rows((Cs.d(0) * hs)) == [[1]]


# ---------------------------------------------------------------- hom

def test_hom_rank_one_iff_labels_compare():
    K = build("ab")

    def atom(label, q):
        return RKComplex(ZZ, K, False, {q: (label,)}, {}, {q: (label,)})

    a, b, e = ("a",), ("b",), ("a", "b")
    assert hom_rk(atom(a, 0), atom(e, 0)).total_rank() == 1
    assert hom_rk(atom(a, 0), atom(b, 0)).total_rank() == 0
    assert hom_rk(atom(e, 0), atom(a, 0)).total_rank() == 0


def test_hom_contains_the_identity_as_a_zero_cycle(edge_ks):
    dstark = delta_star_k(edge_ks.K, ZZ)
    H = hom_rk(dstark, dstark)
    H.validate()
    # the identity: sum of the diagonal generators in degree 0
    vec = {}
    for k, (q, i_a, i_b) in enumerate(H.keys[0]):
        if dstark.name(q, i_a) == dstark.name(q, i_b):
            vec[k] = 1
    col = Matrix(ZZ, H.rank(0), 1, {(i, 0): v for i, v in vec.items()})
    assert (H.d(0) * col).is_zero()


def test_hom_census_for_edge_cochains(edge_ks):
    # three label-diagonal generators in degree 0, and the two
    # edge-over-vertex generators sit in degree -1: five in total.
    dstark = delta_star_k(edge_ks.K, ZZ)
    H = hom_rk(dstark, dstark)
    assert {q: H.rank(q) for q in H.degrees()} == {-1: 2, 0: 3}
    assert H.total_rank() == 5


# ---------------------------------------------------------------- deltas

def test_delta_complexes_point(corpus):
    dc = delta_complexes(corpus["pt"], ZZ)
    for cx in (dc.dx, dc.dstar_x):
        assert cx.total_rank() == 1
    assert dc.dx.labels[0][0] == ("p",)


def test_delta_complexes_hexagon_label_census(hex_ks):
    dc = delta_complexes(hex_ks, ZZ)
    assert {q: dc.dx.rank(q) for q in dc.dx.degrees()} == {0: 6, 1: 6}
    census = {}
    for q in dc.dx.degrees():
        for label in dc.dx.labels[q]:
            census[label] = census.get(label, 0) + 1
    for sigma, n in census.items():
        assert n == 2


def test_delta_prime_top_rank_for_identity_triangle(id2_ks):
    dc = delta_complexes(id2_ks, ZZ)
    simplices = list(id2_ks.X.all_simplices())
    assert count_decreasing_chains(simplices, 3) == 6
    assert dc.dx_prime.rank(2) == 6
    assert all(len(label) == 1 for label in dc.dx_prime.labels[2])


def test_delta_complexes_validate_on_corpus(corpus):
    for ks in corpus.values():
        dc = delta_complexes(ks, ZZ)
        dc.dx.validate()
        dc.dstar_x.validate()
        dc.dx_prime.validate()


# ---------------------------------------------------------------- lemma

def test_contractible_star_for_the_edge():
    K = build("ab")
    rep = check_lemma_clem(K, ("a", "b"), ZZ)
    assert rep.passed
    assert rep.verdicts[("a",)][0] == "acyclic"
    assert rep.verdicts[("a", "b")][0] == "rank one at top degree"


def test_contractible_star_zero_off_the_simplex():
    K = build("ab", "bc")
    rep = check_lemma_clem(K, ("a", "b"), ZZ)
    assert rep.passed
    assert rep.verdicts[("c",)][0] == "zero"
    assert rep.verdicts[("b", "c")][0] == "zero"


def test_contractible_star_requires_maximal():
    K = build("abc")
    with pytest.raises(InputError):
        check_lemma_clem(K, ("a", "b"), ZZ)


def test_contractible_star_triangle_all_labels():
    K = build("abc")
    rep = check_lemma_clem(K, ("a", "b", "c"), ZZ)
    assert rep.passed


# ---------------------------------------------------------------- sequences

def test_star_splitting_is_exact(hex_ks):
    dx = delta_chain(hex_ks, ZZ)
    K = hex_ks.K
    everything = set(K.all_simplices())
    for sigma in K.all_simplices():
        star = set(K.star(sigma))
        rest = everything - star
        assert is_full(K, star) and is_full(K, rest)
        sub = dx.sub(rest)
        quo = dx.sub(star)
        assert sub.total_rank() + quo.total_rank() == dx.total_rank()


def test_maximal_label_split_validates(hex_ks):
    dc = delta_complexes(hex_ks, ZZ)
    ses, top = maximal_label_ses(dc.dstar_x)
    assert len(top) == 2                      # an edge of the control complex
    ses.validate()


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_maximal_label_split_rejects_the_opposite_order(name):
    # over (K, >=) the generators of a top label are not a subcomplex; the
    # split says so before building anything
    dx = delta_complexes(corpus_kspace(name), ZZ).dx
    assert dx.op
    with pytest.raises(ChainComplexError, match="opposite order"):
        maximal_label_ses(dx)


# ---------------------------------------------------------------- label cut

def picks(cx, q, labels):
    """Indices of the degree-q generators labeled in ``labels``."""
    return [i for i, s in enumerate(cx.labels.get(q, ())) if s in labels]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_label_cuts_are_the_dense_blocks(name):
    ks = corpus_kspace(name)
    dc = delta_complexes(ks, ZZ)
    dz = Dualizer(ks.K, ZZ)
    tc = dz.object(dc.dstar_x)
    e = dz.double_dual_map(dc.dstar_x, tc, dz.square(tc))
    for C, maps in ((dc.dx, [epsilon(dc.dx)]),
                    (dc.dstar_x, [epsilon(dc.dstar_x), e])):
        dense = {q: to_rows(C.d(q)) for q in C.degrees()}
        for sigma in ks.K.all_simplices():
            cut = C.sub({sigma})
            for q in C.degrees():
                assert cut.labels.get(q, ()) == tuple(
                    s for s in C.labels[q] if s == sigma)
                assert [cut.name(q, i) for i in range(cut.rank(q))] == [
                    C.name(q, i) for i in picks(C, q, {sigma})]
                assert to_rows(cut.d(q)) == dense_block(
                    dense[q], picks(C, q - 1, {sigma}), picks(C, q, {sigma}))
        for f in maps:
            comps = {q: to_rows(f.component(q)) for q in f.src.degrees()}
            for sigma in ks.K.all_simplices():
                cm = f.diagonal_component(sigma)
                for q in f.src.degrees():
                    assert to_rows(cm.component(q)) == dense_block(
                        comps[q], picks(f.tgt, q, {sigma}),
                        picks(f.src, q, {sigma}))
    # the split at a top label is a subcomplex over the standard order
    C = dc.dstar_x
    split = maximal_label_ses(C)
    if split is None:
        assert len(C.label_set()) == 1
        return
    ses, top = split
    rest = C.label_set() - {top}
    for q in C.degrees():
        assert to_rows(ses.i.component(q)) == inclusion_rows(
            C.rank(q), picks(C, q, {top}))
        assert to_rows(ses.j.component(q)) == projection_rows(
            C.rank(q), picks(C, q, rest))


def test_a_verify_scales_only_by_minus_one_and_cuts_no_empty_block(
        monkeypatch):
    scales, cuts = [], []
    scale, submatrix = Matrix.scale, Matrix.submatrix
    monkeypatch.setattr(Matrix, "scale", lambda self, c: (
        scales.append(c) or scale(self, c)))
    monkeypatch.setattr(Matrix, "submatrix", lambda self, rows, cols: (
        cuts.append((len(rows), len(cols))) or submatrix(self, rows, cols)))
    assert run_command("verify", document("hex")).passed
    assert scales and all(c == -1 for c in scales)
    assert cuts and all(r and c for r, c in cuts)


def test_support_condition_enforced():
    K = build("ab")
    # an edge-labeled generator mapping onto a vertex label violates the
    # support condition over the standard order
    simplices = {0: (("a",),), 1: (("a", "b"),)}
    diff = {1: from_rows(ZZ, [[1]])}
    bad = RKComplex(ZZ, K, False, simplices, diff, simplices)
    for _ in range(2):      # a failure is not recorded
        with pytest.raises(ChainComplexError, match="support"):
            bad.validate()
    # when every entry violates it, the first in (row, col) order is named,
    # by the complex and by a map alike
    edges = (("a", "b"), ("b", "a"))       # both labeled by the edge
    vertices = (("a",), ("b",))
    mat = Matrix(ZZ, 2, 2, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    with pytest.raises(ChainComplexError, match="1: <b.a> -> <a>$"):
        RKComplex(ZZ, K, False, {0: vertices, 1: (("a", "b"),) * 2}, {1: mat},
                  {0: vertices, 1: edges}).validate()
    src, tgt = (RKComplex(ZZ, K, False, {1: labels}, {}, {1: keys})
                for labels, keys in (((("a", "b"),) * 2, edges),
                                     (vertices, vertices)))
    bad = RKMap(src, tgt, {1: mat})
    for _ in range(2):
        with pytest.raises(ChainComplexError, match="1: <b.a> -> <a>$"):
            bad.validate()


def test_generators_are_identified_by_position():
    K = build("a")
    a = ("a",)
    # a key names one generator of its degree
    with pytest.raises(ChainComplexError, match="duplicate"):
        RKComplex(ZZ, K, False, {0: (a, a)}, {}, {0: (a, a)})
    # separators inside vertex names are quoted, so these names differ
    X = build(("a.b", "c"), ("a", "b.c"))
    edges = X.simplices_of_dim(1)
    cx = RKComplex(ZZ, X, False, {1: edges}, {}, {1: edges})
    assert sorted(cx.name(1, i) for i in range(2)) == ['<"a.b".c>',
                                                        '<a."b.c">']
    # equal display names, different positions (and labels): two generators
    X = build(("a", "b"))
    cx = RKComplex(ZZ, X, False, {1: (("a",), ("a", "b"))}, {},
                   name=lambda q, i: "<a.b>")
    assert cx.name(1, 0) == cx.name(1, 1) == "<a.b>"
    assert (cx.positions({("a",)}), cx.positions({("a", "b")})) == (
        {1: [0]}, {1: [1]})
    # a keyed generator is found by its key alone
    cx = RKComplex(ZZ, X, False, {1: (("a",), ("a", "b"))}, {},
                   {1: (("a", "b"), ("b", "a"))})
    assert (cx.index_of(1, ("a", "b")), cx.index_of(1, ("b", "a")),
            cx.index_of(0, ("a", "b")), cx.index_of(1, ("a",))) == (
        0, 1, None, None)


# ------------------------------------------------- assembly from generator images

def test_images_onto_one_generator_add_up():
    C = point_complex(ZZ, {"ranks": {0: 2, 1: 1}})
    a, b = 0, 1
    f = RKMap.from_images(C, C, lambda q, j: [(a, 1), (b, 5), (a, 2)]
                          if q == 0 else [])
    assert to_rows(f.component(0)) == [[3, 3], [5, 5]]
    assert to_rows(f.component(1)) == [[0]]
    # over Z/2 the sum is reduced: 1 + 1 is no entry
    C2 = point_complex(GF2, {"ranks": {0: 1}})
    c = 0
    twice = RKMap.from_images(C2, C2, lambda q, j: [(j, 1), (c, 1)])
    assert to_rows(twice.component(0)) == [[0]]


def test_images_that_cancel_store_no_entry():
    C = point_complex(ZZ, {"ranks": {0: 2}})
    a, b = 0, 1
    f = RKMap.from_images(C, C, lambda q, j: [(a, 1), (b, 1), (a, -1)])
    assert [key for key, _ in f.component(0).entries()] == [(1, 0), (1, 1)]
    g = RKMap.from_images(C, C, lambda q, j: [(a, 2), (a, -2)])
    assert g.comps == {}


def test_an_image_outside_the_target_basis_raises():
    C = point_complex(ZZ, {"ranks": {0: 1, 1: 1}})
    stray = C.index_of(1, ("stray",))           # a key C does not have
    with pytest.raises(ChainComplexError,
                       match='an image of <"c1.0"> .* degree 1'):
        RKMap.from_images(C, C, lambda q, j: [(stray, 1)] if q == 1 else [])
    # a position past the end of the target basis is outside it
    with pytest.raises(ChainComplexError, match="in degree 1"):
        RKMap.from_images(C, C, lambda q, j: [(1, 1)] if q == 1 else [])
    # a key of the target in another degree is outside it too
    e = C.keys[1][0]
    with pytest.raises(ChainComplexError, match="in degree 0"):
        RKMap.from_images(C, C, lambda q, j: [(C.index_of(q, e), 1)])


def test_a_rule_of_degree_minus_one_places_d_q_in_degree_q_minus_one():
    K = build("p")
    p = ("p",)
    cx = RKComplex(ZZ, K, False, {0: (p, p), 1: (p,)}, {})
    # the differential is the degree -1 map of the complex to itself
    cx.diff = RKMap.from_images(
        cx, cx, lambda q, j: [(1, 1), (0, -1)] if q == 1 else [], -1).comps
    assert sorted(cx.diff) == [1]
    assert to_rows(cx.d(1)) == [[-1], [1]]
    cx.validate()
    # d_1 d_2 = 1: the boundary is assembled, and validate rejects it
    bad = RKComplex(ZZ, K, False, {0: (p,), 1: (p,), 2: (p,)}, {})
    bad.diff = RKMap.from_images(
        bad, bad, lambda q, j: {0: [], 1: [(0, 1)], 2: [(0, 1)]}[q], -1).comps
    assert to_rows(bad.d(2)) == [[1]]
    with pytest.raises(ChainComplexError, match="d∘d"):
        bad.validate()

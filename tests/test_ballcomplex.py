"""Dual cells, the induced cell structure, its cellular chain complex, the
identification with the dual of cochains, and induced maps of cell
structures."""

import pytest

from rkdual.linalg import homology
from rkdual.rings import ZZ
from rkdual.rkcore import RKMap, delta_chain, delta_complexes, delta_star_k
from rkdual.simplicial import (InputError, SimplicialComplex,
                               barycentric_subdivision, chain_complex,
                               control_map, kspace_identity, validate_kspace)
from rkdual.ballcomplex import (BallComplex, OrientationPair,
                                cellular_chain_complex, dual_cell, dual_cones,
                                induced_chain_map, same_homology,
                                verify_boundary_display)
from rkdual.checks import KSpaceData
from rkdual.duality import Dualizer, tensor_map_left
from rkdual.rkcore import dual_star_map

from oracles import blocked_tensor, to_rows


def build(*maximal):
    return SimplicialComplex.build(None, [list(s) for s in maximal])


def ball_of(ks):
    return BallComplex(ks, barycentric_subdivision(ks.X))


def cellular_of(ks, orient):
    return cellular_chain_complex(orient, delta_chain(ks, ZZ, orient.bx),
                                  delta_star_k(ks.K, ZZ), ball_of(ks))


def cell_map_of(fmap, or_src, or_tgt):
    """The map of cellular complexes induced by a map of K-spaces: the
    pushforward of chains tensored with the cochains of K."""
    push = induced_chain_map(fmap, delta_chain(fmap.src, ZZ, or_src.bx),
                             delta_chain(fmap.tgt, ZZ, or_tgt.bx),
                             or_src, or_tgt)
    return tensor_map_left(push, cellular_of(fmap.src, or_src).rk,
                           cellular_of(fmap.tgt, or_tgt).rk)


# --------------------------------------------------------------- dual cells

def test_dual_cone_of_a_vertex_in_the_edge():
    derived = barycentric_subdivision(build("ab"))
    got = {c for (sigma, _), cell in dual_cones(derived).items()
           if sigma == ("a",) for c in cell}
    assert got == {(("a",),), (("a", "b"),), (("a", "b"), ("a",))}


def test_dual_cell_on_the_diagonal_is_one_vertex():
    derived = barycentric_subdivision(build("abc"))
    for tau in [("a",), ("a", "b"), ("a", "b", "c")]:
        assert dual_cell(tau, tau, derived) == ((tau,),)


def test_dual_cell_empty_when_not_a_face():
    derived = barycentric_subdivision(build("ab", "bc"))
    assert dual_cell(("a", "b"), ("b", "c"), derived) == ()


def test_dual_cell_reads_tau_in_any_vertex_order():
    derived = barycentric_subdivision(build("abc"))
    want = dual_cell(("a",), ("a", "b", "c"), derived)
    assert len(want) == 11
    assert dual_cell(("a",), ("c", "a", "b"), derived) == want


# --------------------------------------------------------------- structure

def test_cell_census_identity_edge(edge_ks):
    ball = ball_of(edge_ks)
    assert ball.census() == {0: 3, 1: 2}
    assert sorted(c.name for c in ball.cells.values()) == [
        "(a.b|a)", "(a.b|a.b)", "(a.b|b)", "(a|a)", "(b|b)"]
    assert not ball.check()


def test_cell_census_identity_triangle(id2_ks):
    ball = ball_of(id2_ks)
    assert ball.census() == {0: 7, 1: 9, 2: 3}
    assert ball.euler_characteristic() == 1
    assert not ball.check()


def test_cell_census_hexagon(hex_ks):
    ball = ball_of(hex_ks)
    assert ball.census() == {0: 12, 1: 12}
    assert len(ball.cells) == 24
    assert ball.euler_characteristic() == 0
    assert not ball.check()


def test_cell_census_collapsed_triangle(tri_ks):
    ball = ball_of(tri_ks)
    assert not ball.check()
    # the fiber over the edge keeps one 2-cell per vertex of the edge image
    assert ball.census()[2] == 2


def test_dimension_formula_and_interior_partition(corpus):
    for name, ks in corpus.items():
        ball = ball_of(ks)
        for (T, sigma), cell in ball.cells.items():
            assert cell.dim == (len(T) - 1) - (len(sigma) - 1)
            assert cell.top_dim_reached()
        interiors = {}
        for cell in ball.cells.values():
            for c in cell.interior:
                assert c not in interiors
                interiors[c] = cell
        assert len(interiors) == sum(
            1 for _ in ball.derived.prime.all_simplices())


def test_identity_control_zero_cells_biject_with_simplices(id2_ks):
    ball = ball_of(id2_ks)
    zero_cells = [c for c in ball.cells.values() if c.dim == 0]
    assert len(zero_cells) == sum(1 for _ in id2_ks.K.all_simplices())
    for cell in zero_cells:
        assert cell.T == cell.sigma


# --------------------------------------------------------------- orientation

def test_standard_orientation_satisfies_the_identity(corpus):
    for ks in corpus.values():
        OrientationPair.standard(ks).validate()


def test_lexicographic_orientation_fails_on_identity_edge(edge_ks):
    with pytest.raises(InputError):
        OrientationPair(edge_ks).validate()


def test_standard_orientation_twists_odd_fibers(edge_ks):
    orient = OrientationPair.standard(edge_ks)
    assert orient.bx[("a", "b")] == -1
    assert orient.bx[("a",)] == 1


# --------------------------------------------------------------- cell chains

def test_cellular_point(corpus):
    orient = OrientationPair.standard(corpus["pt"])
    cx = cellular_of(corpus["pt"], orient)
    assert {q: cx.rk.rank(q) for q in cx.rk.degrees()} == {0: 1}


def test_cellular_hexagon_ranks_and_homology(hex_ks):
    orient = OrientationPair.standard(hex_ks)
    cx = cellular_of(hex_ks, orient)
    assert {q: cx.rk.rank(q) for q in cx.rk.degrees()} == {0: 12, 1: 12}
    cell_h = homology(cx.rk)
    assert same_homology(cell_h, homology(chain_complex(hex_ks.X, ZZ)))
    assert (cell_h[0].betti, cell_h[1].betti) == (1, 1)
    assert cell_h[0].torsion == () and cell_h[1].torsion == ()


def test_cellular_identity_triangle_ranks_and_homology(id2_ks):
    orient = OrientationPair.standard(id2_ks)
    cx = cellular_of(id2_ks, orient)
    assert {q: cx.rk.rank(q) for q in cx.rk.degrees()} == {0: 7, 1: 9, 2: 3}
    cell_h = homology(cx.rk)
    assert same_homology(cell_h, homology(chain_complex(id2_ks.X, ZZ)))
    assert cell_h[0].betti == 1
    assert all(cell_h[q].is_trivial() for q in cell_h if q != 0)


def test_cellular_homology_rejects_a_missing_degree(corpus):
    # one 0-cell has no degree-1 homology, so it cannot match the circle
    cell_h = homology(delta_chain(corpus["pt"], ZZ))
    simp_h = homology(chain_complex(corpus["circ3"].X, ZZ))
    assert 1 not in cell_h and not simp_h[1].is_trivial()
    assert not same_homology(cell_h, simp_h)


def test_cellular_boundary_display_and_units(corpus):
    for name, ks in corpus.items():
        orient = OrientationPair.standard(ks)
        cx = cellular_of(ks, orient)
        assert not verify_boundary_display(ks, cx), name
        cx.rk.validate()


def test_cellular_boundary_of_a_half_edge(edge_ks):
    orient = OrientationPair.standard(edge_ks)
    cx = cellular_of(edge_ks, orient)
    rk = cx.rk
    j = [rk.name(1, k) for k in range(rk.rank(1))].index("<a.b>⊗<a>*")
    col = {rk.name(0, i): v
           for (i, jj), v in rk.d(1).entries() if jj == j}
    # the boundary hits the vertex cell and the barycenter cell, units only
    assert set(col) == {"<a>⊗<a>*", "<a.b>⊗<a.b>*"}
    assert sorted(col.values()) == [-1, 1]


# --------------------------------------------------------------- the iso

def test_identification_on_a_point_is_a_signed_identity(corpus):
    iso = KSpaceData.build(corpus["pt"], ZZ).iso
    assert to_rows(iso.component(0)) in ([[1]], [[-1]])


def test_identification_is_bijective_chain_map_on_corpus(corpus):
    for name, ks in corpus.items():
        iso = KSpaceData.build(ks, ZZ).iso
        iso.validate()
        assert iso.is_bijection_on_bases(), name


def test_dual_homology_matches_base_homology(corpus):
    # ranks through the duality functor recover the homology of X
    expected = {
        "hex": {0: 1, 1: 1},
        "id2": {0: 1},
        "circ3": {0: 1, 1: 1},
    }
    for name, want in expected.items():
        ks = corpus[name]
        dc = delta_complexes(ks, ZZ)
        dz = Dualizer(ks.K, ZZ)
        tc = dz.object(dc.dstar_x)
        got = {q: h.betti for q, h in homology(tc).items()
               if not h.is_trivial()}
        assert got == want, name
        assert all(h.torsion == () for h in homology(tc).values())


# --------------------------------------------------------------- naturality

def test_identity_map_induces_the_identity(hex_ks):
    orient = OrientationPair.standard(hex_ks)
    fid = cell_map_of(kspace_identity(hex_ks), orient, orient)
    cx = cellular_of(hex_ks, orient)
    # fid runs between cells built apart from cx: equal labels, one identity
    assert fid.src.labels == fid.tgt.labels == cx.rk.labels
    assert fid == RKMap(fid.src, fid.tgt, RKMap.identity(cx.rk).comps)


def test_hexagon_covering_sends_one_cells_to_one_cells(hex_ks):
    fmap = control_map(hex_ks)
    or_src = OrientationPair.standard(hex_ks)
    or_tgt = OrientationPair.standard(fmap.tgt)
    fk = cell_map_of(fmap, or_src, or_tgt)
    fk.validate()
    for q in fk.src.degrees():
        mat = fk.component(q)
        cols = {}
        for (i, j), v in mat.entries():
            cols.setdefault(j, []).append(v)
            assert v in (1, -1)
        assert len(cols) == fk.src.rank(q)     # nothing degenerates


def test_collapsing_map_kills_degenerate_cells(tri_ks):
    # collapse the solid triangle onto its image edge over the same control
    fmap_src = tri_ks
    target = validate_kspace(tri_ks.K, tri_ks.K,
                             {v: v for v in tri_ks.K.vertices})
    from rkdual.simplicial import KSpaceMap, SimplicialMap
    f = KSpaceMap(fmap_src, target,
                  SimplicialMap(tri_ks.X, tri_ks.K, tri_ks.pi.mapping))
    or_src = OrientationPair.standard(fmap_src)
    or_tgt = OrientationPair.standard(target)
    fk = cell_map_of(f, or_src, or_tgt)
    fk.validate()
    # the triangle itself degenerates, so its cells map to zero
    # the pairs (r, i, s, j) of the source cells T ⊗ s*, T the i-th
    # simplex of dimension r, from the definition of the blocked tensor
    pairs, _ = blocked_tensor(fk.src.left, {}, fk.src.right.labels, {})
    for q in fk.src.degrees():
        hit = set(j for (_, j), _ in fk.component(q).entries())
        for j, (r, i, _, _) in enumerate(pairs[q]):
            T = tri_ks.X.simplices_of_dim(r)[i]
            if not f.f.is_injective_on(T):
                assert j not in hit
            else:
                assert j in hit


def test_naturality_square_for_control_and_identity(corpus):
    for name in ("hex", "edge", "tri"):
        ks = corpus[name]
        or_src = OrientationPair.standard(ks)
        fmap = control_map(ks)
        or_tgt = OrientationPair.standard(fmap.tgt)
        data_x = KSpaceData.build(ks, ZZ)
        data_y = KSpaceData.build(fmap.tgt, ZZ)
        fk = cell_map_of(fmap, or_src, or_tgt)
        push = induced_chain_map(fmap, data_x.deltas.dx, data_y.deltas.dx,
                                 or_src, or_tgt)
        # T(f) takes T of f's very ends: the cochains each side holds
        pullback = RKMap(data_y.deltas.dstar_x, data_x.deltas.dstar_x,
                         dual_star_map(push).comps)
        lhs = data_y.iso.compose(
            data_x.dualizer.map(pullback, data_x.tc, data_y.tc))
        # fk runs between cells built apart: seat it on those each side holds
        assert (fk.src.labels, fk.tgt.labels) == (
            data_x.cellular.rk.labels, data_y.cellular.rk.labels)
        fk = RKMap(data_x.cellular.rk, data_y.cellular.rk, fk.comps)
        rhs = fk.compose(data_x.iso)
        assert lhs == rhs, name

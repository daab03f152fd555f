"""Flag signs, the cap product, its chain-map identities, and the
cell-to-subdivision equivalences."""

import pytest

from rkdual.linalg import homology, smith_normal_form
from rkdual.rings import Ring, ZZ
from rkdual.rkcore import delta_complexes
from rkdual.simplicial import (InputError, SimplicialComplex,
                               barycentric_subdivision)
from rkdual.checks import KSpaceData, check_equivalences
from rkdual.capproduct import (cap_product, flag_sign, fundamental_cycle_map,
                               is_monomorphism, verify_cap_chain_map,
                               verify_cap_factorization,
                               verify_fundamental_cycles)
from rkdual.duality import Dualizer
from rkdual.report import Report

from oracles import to_rows

GF2 = Ring.prime_field(2)


def build(*maximal):
    return SimplicialComplex.build(None, [list(s) for s in maximal])


def cell_map(ks, ring=ZZ):
    """The cell map of ``ks``, with the objects of ``ks`` it maps between."""
    data = KSpaceData.build(ks, ring)
    return fundamental_cycle_map(ks, data.cellular, data.deltas.dx_prime), data


# --------------------------------------------------------------- flag signs

def test_flag_signs_on_the_edge():
    assert flag_sign((("a", "b"), ("b",))) == 1
    assert flag_sign((("a", "b"), ("a",))) == -1


def test_flag_sign_zero_length():
    assert flag_sign((("a",),)) == 1


def test_flag_sign_rejects_non_incident_entries():
    with pytest.raises(InputError):
        flag_sign((("a", "b", "c"), ("a",)))


def test_flag_sign_ignores_interior_orientations():
    # the sign through a length-three flag is a product of two incidence
    # numbers; flipping the middle orientation flips both factors
    flag = (("a", "b", "c"), ("a", "b"), ("a",))
    base = flag_sign(flag)
    # flipping the middle is modeled by negating both adjacent factors
    assert base == (-1) * flag_sign(flag[:2]) * (-1) * flag_sign(flag[1:])
    assert base == flag_sign(flag[:2]) * flag_sign(flag[1:])


# --------------------------------------------------------------- cap values

def test_cap_edge_against_vertex():
    E = build("ab")
    got = cap_product(E, ("a", "b"), ("a",))
    assert got == {(("a", "b"), ("a",)): -1}


def test_cap_diagonal_gives_signed_barycenter():
    cx = build("abc")
    for tau, sign in [(("a",), 1), (("a", "b"), -1), (("a", "b", "c"), 1)]:
        assert cap_product(cx, tau, tau) == {(tau,): sign}


def test_cap_vanishes_when_not_a_face():
    cx = build("ab", "bc")
    assert cap_product(cx, ("a", "b"), ("c",)) == {}


def test_cap_is_basis_independent():
    # flip one edge in the oriented basis; the cap of basis elements picks
    # up exactly the product of the flipped input signs
    cx = build("abc")
    flipped = {("a", "b"): -1}
    for tau in cx.all_simplices():
        for sigma in cx.closure(tau):
            plain = cap_product(cx, tau, sigma)
            twisted = cap_product(cx, tau, sigma, flipped)
            s = flipped.get(tau, 1) * flipped.get(sigma, 1)
            assert twisted == {k: s * v for k, v in plain.items()}


# --------------------------------------------------------------- chain map

@pytest.mark.parametrize("name,maximal", [
    ("interval", ("ab",)),
    ("triangle", ("abc",)),
    ("tetrahedron", ("abcd",)),
    ("hollow-triangle", ("ab", "bc", "ac")),
])
def test_cap_is_a_chain_map(name, maximal):
    failures = verify_cap_chain_map(barycentric_subdivision(build(*maximal)),
                                    ZZ)
    assert not failures, failures


@pytest.mark.parametrize("maximal", [("abc",), ("abcd",)])
def test_interior_face_pairing_is_a_perfect_involution(maximal):
    # exercised inside the chain-map verification: every interior face of a
    # flag pairs with exactly one partner of opposite sign
    failures = verify_cap_chain_map(barycentric_subdivision(build(*maximal)),
                                    ZZ)
    assert not [f for f in failures if f.startswith(("pairing", "interior"))]


# --------------------------------------------------------------- cell map

def test_cell_map_point_is_the_identity(corpus):
    cmap, _ = cell_map(corpus["pt"])
    assert to_rows(cmap.component(0)) == [[1]]


def test_cell_map_values_on_identity_edge(edge_ks):
    cmap, data = cell_map(edge_ks)
    rk = data.cellular.rk
    cols = {}
    for q in rk.degrees():
        for (i, j), v in cmap.component(q).entries():
            cols.setdefault(rk.name(q, j), {})[
                data.deltas.dx_prime.name(q, i)] = v
    # with a compatible orientation pair every 0-cell lands on its
    # barycenter vertex with coefficient +1
    assert cols["<a>⊗<a>*"] == {"<(a)>": 1}
    assert cols["<b>⊗<b>*"] == {"<(b)>": 1}
    assert cols["<a.b>⊗<a.b>*"] == {"<(a.b)>": 1}
    assert cols["<a.b>⊗<a>*"] == {"<(a.b).(a)>": 1}
    assert cols["<a.b>⊗<b>*"] == {"<(a.b).(b)>": -1}


def test_cell_map_matches_the_plain_cap_on_unadjusted_bases(edge_ks):
    # computed against the all-plus-one bases (which are not an admissible
    # orientation pair here), the half-edge cell is the single flag with the
    # sign of the incidence number [ab, a] = -1
    X = edge_ks.X
    got = cap_product(X, ("a", "b"), ("a",))
    assert got == {(("a", "b"), ("a",)): -1}


def test_cell_map_unit_entries_and_injectivity_on_hexagon(hex_ks):
    cmap, data = cell_map(hex_ks)
    for q in data.cellular.rk.degrees():
        for _, v in cmap.component(q).entries():
            assert v in (1, -1)
        mat = cmap.component(q)
        assert smith_normal_form(mat)[1] == mat.ncols
    assert is_monomorphism(cmap)


def test_cell_map_factorization_on_corpus(corpus):
    for name, ks in corpus.items():
        data = KSpaceData.build(ks, ZZ)
        assert verify_cap_factorization(ks, data.fundamental_cycles,
                                        data.cellular), name


# ------------------------------------------------------- fundamental cycles

def test_fundamental_cycle_of_the_barycenter_cell(edge_ks):
    cmap, data = cell_map(edge_ks)
    ball = data.cellular.ball
    cell = ball.cell(("a", "b"), ("a", "b"))
    assert cell.dim == 0
    assert not cell.inner_boundary and not cell.outer_boundary
    verdicts = verify_fundamental_cycles(cmap, data.cellular)
    assert verdicts[("a", "b"), ("a", "b")]


def test_fundamental_cycle_of_a_two_cell(id2_ks):
    cmap, data = cell_map(id2_ks)
    ball = data.cellular.ball
    cell = ball.cell(("a", "b", "c"), ("a",))
    assert cell.dim == 2
    tops = [c for c in cell.simplices if len(c) == 3]
    assert len(tops) == 2
    rk = data.cellular.rk
    j = [rk.name(2, k) for k in range(rk.rank(2))].index("<a.b.c>⊗<a>*")
    col = {data.deltas.dx_prime.keys[2][i]: v
           for (i, jj), v in cmap.component(2).entries() if jj == j}
    assert set(col) == set(tops)
    assert all(v in (1, -1) for v in col.values())
    assert all(verify_fundamental_cycles(cmap, data.cellular).values())


def test_fundamental_cycles_on_hexagon_one_cells(hex_ks):
    cmap, data = cell_map(hex_ks)
    assert all(verify_fundamental_cycles(cmap, data.cellular).values())
    for q in (1,):
        mat = cmap.component(q)
        per_col = {}
        for (i, j), v in mat.entries():
            per_col.setdefault(j, []).append(v)
        for vals in per_col.values():
            assert len(vals) == 1 and vals[0] in (1, -1)


def test_fundamental_cycles_on_corpus(corpus):
    for name, ks in corpus.items():
        cmap, data = cell_map(ks)
        verdicts = verify_fundamental_cycles(cmap, data.cellular)
        assert all(verdicts.values()), name


# ------------------------------------------------------- the equivalences

def equivalences(ks, ring):
    report = Report("verify", str(ring))
    check_equivalences(report, "ks", KSpaceData.build(ks, ring))
    assert len(report.checks) == 3
    return report.passed


def test_equivalences_trivial_on_a_point(corpus):
    assert equivalences(corpus["pt"], ZZ)


def test_equivalences_on_hexagon_over_z(hex_ks):
    assert equivalences(hex_ks, ZZ)


def test_equivalences_on_identity_triangle_over_z2(id2_ks):
    assert equivalences(id2_ks, GF2)


def test_dual_and_subdivision_homology_agree_on_corpus(corpus):
    for name, ks in corpus.items():
        dc = delta_complexes(ks, ZZ)
        dz = Dualizer(ks.K, ZZ)
        tc = dz.object(dc.dstar_x)
        ha = homology(tc)
        hb = homology(dc.dx_prime)
        keys = set(q for q, h in ha.items() if not h.is_trivial())
        keys |= set(q for q, h in hb.items() if not h.is_trivial())
        for q in keys:
            assert ha.get(q) == hb.get(q), (name, q)

"""Exact matrices, Smith normal form, homology and cone acyclicity."""

import random

import pytest

from rkdual.linalg import (ChainComplex, ChainComplexError, ChainMap, Matrix,
                           homology, is_acyclic, is_cone_acyclic,
                           mapping_cone, smith_normal_form)
from rkdual.rings import Ring, ZZ, QQ

from oracles import invariant_factors_minors, row_reduce_rank

GF5 = Ring.prime_field(5)

# the boundary of a hollow triangle: columns ab, ac, bc
CIRCLE_D1 = [[-1, -1, 0],
             [1, 0, -1],
             [0, 1, 1]]

# frozen from the independent oracles:
#   row_reduce_rank(CIRCLE_D1) == 2
#   invariant_factors_minors(CIRCLE_D1) == ((1, 1), 2)
CIRCLE_D1_FACTORS = (1, 1)
CIRCLE_D1_RANK = 2


def test_ring_construction():
    assert str(Ring.parse("Z/5")) == "Z/5"
    with pytest.raises(ValueError):
        Ring.prime_field(6)
    with pytest.raises(ValueError):
        Ring.parse("Z/4")
    with pytest.raises(ValueError):
        Ring.parse("R")


def test_matrix_out_of_range_access():
    m = Matrix.zero(ZZ, 2, 3)
    with pytest.raises(IndexError):
        m.entry(2, 0)
    with pytest.raises(IndexError):
        m.entry(0, 3)
    with pytest.raises(IndexError):
        Matrix(ZZ, 1, 1, {(1, 1): 1})


def test_snf_empty_matrix():
    assert smith_normal_form(Matrix.zero(ZZ, 0, 0)) == ((), 0)


def test_snf_already_diagonal():
    m = Matrix.from_rows(ZZ, [[2, 0], [0, 6]])
    assert smith_normal_form(m) == ((2, 6), 2)


def test_snf_circle_boundary_matches_oracles():
    assert row_reduce_rank(CIRCLE_D1) == CIRCLE_D1_RANK
    assert invariant_factors_minors(CIRCLE_D1) == (CIRCLE_D1_FACTORS,
                                                   CIRCLE_D1_RANK)
    got = smith_normal_form(Matrix.from_rows(ZZ, CIRCLE_D1))
    assert got == (CIRCLE_D1_FACTORS, CIRCLE_D1_RANK)


def test_snf_over_fields_has_unit_factors():
    rows = [[2, 4], [6, 9]]
    for ring in (QQ, GF5):
        factors, rank = smith_normal_form(Matrix.from_rows(ring, rows))
        assert all(ring.is_unit(f) for f in factors)
        assert rank == row_reduce_rank(rows)


@pytest.mark.parametrize("seed", range(20))
def test_snf_divisibility_on_random_integer_matrices(seed):
    rng = random.Random(seed)
    m = rng.randint(0, 5)
    n = rng.randint(0, 5)
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    mat = Matrix.from_rows(ZZ, rows) if m and n else Matrix.zero(ZZ, m, n)
    factors, rank = smith_normal_form(mat)
    assert len(factors) == rank
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    if 1 <= m <= 4 and 1 <= n <= 4:
        assert (factors, rank) == invariant_factors_minors(rows)


def _two_step(ring, d1_rows):
    d1 = Matrix.from_rows(ring, d1_rows)
    return ChainComplex(ring, {0: d1.nrows, 1: d1.ncols}, {1: d1})


def test_homology_circle():
    cx = _two_step(ZZ, CIRCLE_D1)
    h = homology(cx)
    assert (h[0].betti, h[0].torsion) == (1, ())
    assert (h[1].betti, h[1].torsion) == (1, ())


def test_homology_solid_triangle():
    d1 = Matrix.from_rows(ZZ, CIRCLE_D1)
    d2 = Matrix.from_rows(ZZ, [[1], [-1], [1]])
    cx = ChainComplex(ZZ, {0: 3, 1: 3, 2: 1}, {1: d1, 2: d2})
    h = homology(cx)
    assert (h[0].betti, h[0].torsion) == (1, ())
    assert h[1].is_trivial() and h[2].is_trivial()


def test_homology_hexagon_matches_minor_oracle():
    # boundary matrix of the six-edge circle, written out by hand:
    # edge (x_i, x_{i+1}) has boundary x_{i+1} - x_i
    rows = [[0] * 6 for _ in range(6)]
    for i in range(6):
        rows[i][i] -= 1
        rows[(i + 1) % 6][i] += 1
    oracle = invariant_factors_minors(rows)
    assert oracle == ((1, 1, 1, 1, 1), 5)
    h = homology(_two_step(ZZ, rows))
    assert (h[0].betti, h[0].torsion) == (1, ())
    assert (h[1].betti, h[1].torsion) == (1, ())


def test_validate_multiplies_only_stored_matrices(monkeypatch):
    products = []
    mul = Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    d1 = Matrix.from_rows(ZZ, CIRCLE_D1)
    d2 = Matrix.from_rows(ZZ, [[1], [-1], [1]])
    cx = ChainComplex(ZZ, {0: 3, 1: 3, 2: 1}, {1: d1, 2: d2}).validate()
    assert len(products) == 1       # d_1 d_2 only
    ChainMap.identity(cx).validate()
    assert len(products) == 1 + 4   # both sides at degrees 1 and 2


def test_homology_reports_first_bad_degree():
    bad = ChainComplex(ZZ, {0: 1, 1: 1, 2: 1},
                       {1: Matrix.from_rows(ZZ, [[1]]),
                        2: Matrix.from_rows(ZZ, [[1]])})
    with pytest.raises(ChainComplexError, match="degree 2"):
        homology(bad)


def test_homology_torsion():
    cx = _two_step(ZZ, [[2]])
    h = homology(cx)
    assert h[0].torsion == (2,)
    assert homology(_two_step(QQ, [[2]]))[0].is_trivial()


def test_cone_of_identity_is_acyclic():
    cx = _two_step(ZZ, CIRCLE_D1)
    assert is_cone_acyclic(ChainMap.identity(cx))


def test_cone_of_zero_map_detects_nontrivial_homology():
    point = ChainComplex(ZZ, {0: 1}, {})
    zero = ChainMap(point, point, {0: Matrix.zero(ZZ, 1, 1)})
    assert not is_cone_acyclic(zero)


def test_multiplication_by_two_unit_only_over_the_rationals():
    for ring, expect in ((ZZ, False), (QQ, True)):
        point = ChainComplex(ring, {0: 1}, {})
        double = ChainMap(point, point, {0: Matrix.from_rows(ring, [[2]])})
        assert is_cone_acyclic(double) is expect


def test_cone_rejects_non_chain_maps():
    cx = _two_step(ZZ, [[1]])
    bad = ChainMap(cx, cx, {0: Matrix.from_rows(ZZ, [[1]]),
                            1: Matrix.zero(ZZ, 1, 1)})
    with pytest.raises(ChainComplexError):
        is_cone_acyclic(bad)


def test_cone_acyclic_for_explicit_homotopy_equivalence():
    # C = [Z --1--> Z] is contractible: h with dh + hd = id witnesses that
    # the collapse C -> 0 has a homotopy inverse.
    cx = _two_step(ZZ, [[1]])
    h = Matrix.from_rows(ZZ, [[1]])          # C_0 -> C_1
    assert cx.d(1) * h == Matrix.identity(ZZ, 1)
    assert h * cx.d(1) == Matrix.identity(ZZ, 1)
    zero = ChainComplex(ZZ, {}, {})
    collapse = ChainMap(cx, zero, {})
    assert is_cone_acyclic(collapse)


def test_mapping_cone_shape():
    cx = _two_step(ZZ, CIRCLE_D1)
    cone = mapping_cone(ChainMap.identity(cx))
    assert cone.rank(1) == cx.rank(0) + cx.rank(1)
    cone.validate()
    assert is_acyclic(cone)

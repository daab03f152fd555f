"""Exact matrices, Smith normal form, homology and cone acyclicity."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from rkdual import linalg
from rkdual.checks import KSpaceData
from rkdual.corpus import CORPUS_NAMES
from rkdual.linalg import (ChainComplex, ChainComplexError, ChainMap,
                           HomologyGroup, Matrix, homology, is_acyclic,
                           is_cone_acyclic, mapping_cone, smith_normal_form)
from rkdual.rings import PRIME_BOUND, Ring, ZZ, QQ, GF2, _is_prime

from oracles import (cone_block, corpus_kspace, dense_product, entry,
                     from_rows, invariant_factors_minors, row_reduce_rank)

GF3 = Ring.prime_field(3)
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
    assert str(Ring.parse("Z/13")) == "Z/13"
    for text in ("Z/1_3", "Z/٧", "Z/ 7", "Z/+7", "Z/-7", "Z/²"):
        with pytest.raises(ValueError, match="bad modulus"):
            Ring.parse(text)


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_the_prime_check_agrees_with_trial_division():
    assert [n for n in range(20000) if _is_prime(n)] == [
        n for n in range(20000) if trial_division_is_prime(n)]


def test_the_prime_check_agrees_with_sympy_on_large_moduli():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(25)
    numbers = [rng.randrange(2 ** 60, 2 ** 80) for _ in range(400)]
    numbers += [sympy.nextprime(n) for n in numbers[:40]]
    # strong pseudoprimes to the first twelve and to many prime bases
    numbers += [318665857834031151167461, 3825123056546413051,
                2 ** 61 - 1, 2 ** 61 + 1, 2 ** 79 - 67]
    assert [_is_prime(n) for n in numbers] == [sympy.isprime(n)
                                               for n in numbers]
    assert any(_is_prime(n) for n in numbers)


def test_a_modulus_past_the_exact_bound_is_refused():
    sympy = pytest.importorskip("sympy")
    assert _is_prime(PRIME_BOUND - 2) == sympy.isprime(PRIME_BOUND - 2)
    for n in (PRIME_BOUND, 2 ** 127 - 1):
        with pytest.raises(ValueError, match="too large"):
            Ring.prime_field(n)


def test_matrix_out_of_range_access():
    m = Matrix.zero(ZZ, 2, 3)
    with pytest.raises(IndexError):
        m.column(3)
    with pytest.raises(IndexError):
        m.column(-1)
    with pytest.raises(IndexError):
        Matrix(ZZ, 1, 1, {(1, 1): 1})


def test_constructor_rejects_a_non_integer_over_the_integers():
    with pytest.raises(ValueError):
        Matrix(ZZ, 1, 1, {(0, 0): Fraction(1, 2)})


def test_constructor_reduces_mod_p_and_drops_zeros():
    m = Matrix(GF3, 1, 3, {(0, 0): 5, (0, 1): -1, (0, 2): -6})
    assert dict(m.entries()) == {(0, 0): 2, (0, 1): 2}


def test_constructor_stores_rationals_in_canonical_form():
    m = Matrix(QQ, 1, 4, {(0, 0): 3, (0, 1): 0, (0, 2): Fraction(4, 2),
                          (0, 3): Fraction(1, 2)})
    assert dict(m.entries()) == {(0, 0): 3, (0, 2): 2, (0, 3): Fraction(1, 2)}
    assert [type(v) for _, v in m.entries()] == [int, int, Fraction]


def test_rational_division_narrows_integral_quotients():
    assert QQ.zero == 0 and type(QQ.zero) is int
    assert QQ.one == 1 and type(QQ.one) is int
    assert QQ.invert(2) == Fraction(1, 2)
    assert type(QQ.invert(-1)) is int and QQ.invert(-1) == -1
    assert type(QQ.invert(Fraction(-1, 3))) is int
    assert QQ.invert(Fraction(-1, 3)) == -3
    assert type(QQ.coerce(Fraction(4, 2))) is int
    assert QQ.coerce(Fraction(4, 2)) == 2
    assert type(QQ.coerce(7)) is int
    assert QQ.coerce(Fraction(2, 3)) == Fraction(2, 3)


# ------------------------------------- unchecked producers against oracles

def _values(ring):
    values = [0, 0, 0, 1, -1, 2, -2, 3, 4]
    return values + [Fraction(1, 2), Fraction(-2, 3)] if ring == QQ else values


def _random(rng, ring, m, n):
    """Random row lists and their matrix, built at the checked boundary."""
    rows = [[rng.choice(_values(ring)) for _ in range(n)] for _ in range(m)]
    return rows, Matrix(ring, m, n, {(i, j): v for i, row in enumerate(rows)
                                     for j, v in enumerate(row)})


def _assert_matches(mat, ring, rows):
    """``mat`` stores only canonical nonzero ring elements and equals the
    oracle's row lists read in the ring."""
    assert mat.ring == ring
    for _, v in mat.entries():
        assert v != 0
        if ring == QQ and type(v) is not int:
            # an integral rational is stored as an int, never as a Fraction
            assert type(v) is Fraction and v.denominator != 1
        else:
            assert type(v) is int
        if ring.p:
            assert 0 <= v < ring.p
    want = [[x % ring.p if ring.p else x for x in row] for row in rows]
    assert [[entry(mat, i, j) for j in range(mat.ncols)]
            for i in range(mat.nrows)] == want


@pytest.mark.parametrize("ring", [ZZ, QQ, GF2, GF3], ids=str)
def test_unchecked_producers_match_the_dense_oracle(ring):
    rng = random.Random(11)
    cancelled = 0       # product entries that vanish only mod p
    for _ in range(150):
        m, k, n = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a_rows, a = _random(rng, ring, m, k)
        b_rows, b = _random(rng, ring, k, n)
        product = dense_product(a_rows, b_rows, n)
        _assert_matches(a * b, ring, product)
        cancelled += sum(1 for row in product for x in row
                         if x and ring.p and x % ring.p == 0)
        _assert_matches(a.transpose(), ring, [list(c) for c in zip(*a_rows)])
        c = rng.choice([0, 1, -1, 2, 3])
        _assert_matches(a.scale(c), ring, [[c * x for x in row]
                                           for row in a_rows])
        rows = rng.sample(range(m), rng.randint(1, m))
        cols = rng.sample(range(k), rng.randint(1, k))
        _assert_matches(a.submatrix(rows, cols), ring,
                        [[a_rows[i][j] for j in cols] for i in rows])
    assert cancelled > 0 if ring.p else cancelled == 0


def _assert_canonical_zero(mat):
    """A product that cancels stores no zero and no empty column: it is
    zero and equal to the checked matrix of its entries."""
    assert mat.is_zero()
    assert mat == Matrix(mat.ring, mat.nrows, mat.ncols, dict(mat.entries()))
    assert mat == Matrix.zero(mat.ring, mat.nrows, mat.ncols)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF3], ids=str)
def test_a_product_that_cancels_stores_no_zero_and_no_empty_column(ring):
    a = from_rows(ring, [[1, 1, 0], [2, 2, 1]])
    # column 0 of a·b cancels to zero; column 1 keeps both rows
    b = from_rows(ring, [[1, 0], [-1, 1], [0, 3]])
    prod = a * b
    assert prod == Matrix(ring, 2, 2, {(0, 1): 1, (1, 1): 5})
    assert prod == Matrix(ring, 2, 2, dict(prod.entries()))
    assert list(prod.column(0)) == []
    _assert_canonical_zero(a * from_rows(ring, [[1], [-1], [0]]))
    for name in CORPUS_NAMES:
        data = KSpaceData.build(corpus_kspace(name), ring)
        for cx in data.complexes().values():
            for q in cx.diff:
                if q + 1 in cx.diff:
                    _assert_canonical_zero(cx.d(q) * cx.d(q + 1))


@pytest.mark.parametrize("ring", [ZZ, QQ, GF2, GF3], ids=str)
def test_mapping_cone_matches_the_dense_oracle(ring):
    rng = random.Random(12)
    for _ in range(40):
        rc = {q: rng.randint(1, 3) for q in range(3)}
        rd = {q: rng.randint(1, 3) for q in range(3)}
        dc = {q: _random(rng, ring, rc[q - 1], rc[q]) for q in (1, 2)}
        dd = {q: _random(rng, ring, rd[q - 1], rd[q]) for q in (1, 2)}
        fc = {q: _random(rng, ring, rd[q], rc[q]) for q in range(3)}
        cone = mapping_cone(ChainMap(
            ChainComplex(ring, rc, {q: m for q, (_, m) in dc.items()}),
            ChainComplex(ring, rd, {q: m for q, (_, m) in dd.items()}),
            {q: m for q, (_, m) in fc.items()}))
        for q in range(4):
            # an absent block always has a side of rank 0
            want = cone_block(
                dc.get(q - 1, ([],))[0], fc.get(q - 1, ([],))[0],
                dd.get(q, ([],))[0], rc.get(q - 2, 0), rc.get(q - 1, 0),
                rd.get(q - 1, 0), rd.get(q, 0))
            assert cone.rank(q) == rc.get(q - 1, 0) + rd.get(q, 0)
            _assert_matches(cone.d(q), ring, want)


def test_homology_runs_no_snf_for_degrees_without_a_differential(
        monkeypatch):
    calls, zeros = [], []
    snf, zero = linalg.smith_normal_form, Matrix.zero.__func__
    monkeypatch.setattr(linalg, "smith_normal_form",
                        lambda mat, *cancel: calls.append(mat)
                        or snf(mat, *cancel))
    monkeypatch.setattr(Matrix, "zero", classmethod(
        lambda cls, *shape: zeros.append(shape) or zero(cls, *shape)))
    point = ChainComplex(ZZ, {0: 1}, {})
    assert homology(point) == {0: HomologyGroup(1, ())}
    assert calls == [] and zeros == []
    h = homology(_two_step(ZZ, CIRCLE_D1))
    assert [c.nrows for c in calls] == [3] and zeros == []     # d_1 only
    assert h[0] == h[1] == HomologyGroup(1, ())


def test_snf_empty_matrix():
    assert smith_normal_form(Matrix.zero(ZZ, 0, 0)) == ((), 0)


def test_snf_already_diagonal():
    m = from_rows(ZZ, [[2, 0], [0, 6]])
    assert smith_normal_form(m) == ((2, 6), 2)


def test_snf_circle_boundary_matches_oracles():
    assert row_reduce_rank(CIRCLE_D1) == CIRCLE_D1_RANK
    assert invariant_factors_minors(CIRCLE_D1) == (CIRCLE_D1_FACTORS,
                                                   CIRCLE_D1_RANK)
    got = smith_normal_form(from_rows(ZZ, CIRCLE_D1))
    assert got == (CIRCLE_D1_FACTORS, CIRCLE_D1_RANK)


def test_snf_over_fields_has_unit_factors():
    rows = [[2, 4], [6, 9]]
    for ring in (QQ, GF5):
        factors, rank = smith_normal_form(from_rows(ring, rows))
        assert all(ring.is_unit(f) for f in factors)
        assert rank == row_reduce_rank(rows)


@pytest.mark.parametrize("seed", range(20))
def test_snf_divisibility_on_random_integer_matrices(seed):
    rng = random.Random(seed)
    m = rng.randint(0, 5)
    n = rng.randint(0, 5)
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    mat = from_rows(ZZ, rows) if m and n else Matrix.zero(ZZ, m, n)
    factors, rank = smith_normal_form(mat)
    assert len(factors) == rank
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    if 1 <= m <= 4 and 1 <= n <= 4:
        assert (factors, rank) == invariant_factors_minors(rows)


def _two_step(ring, d1_rows):
    d1 = from_rows(ring, d1_rows)
    return ChainComplex(ring, {0: d1.nrows, 1: d1.ncols}, {1: d1})


def test_homology_circle():
    cx = _two_step(ZZ, CIRCLE_D1)
    h = homology(cx)
    assert (h[0].betti, h[0].torsion) == (1, ())
    assert (h[1].betti, h[1].torsion) == (1, ())


def test_homology_solid_triangle():
    d1 = from_rows(ZZ, CIRCLE_D1)
    d2 = from_rows(ZZ, [[1], [-1], [1]])
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
    d1 = from_rows(ZZ, CIRCLE_D1)
    d2 = from_rows(ZZ, [[1], [-1], [1]])
    cx = ChainComplex(ZZ, {0: 3, 1: 3, 2: 1}, {1: d1, 2: d2}).validate()
    assert len(products) == 1       # d_1 d_2 only
    ident = ChainMap.identity(cx).validate()
    assert len(products) == 1 + 4   # both sides at degrees 1 and 2
    # a success is recorded: validating again multiplies nothing
    assert cx.validate() is cx and ident.validate() is ident
    assert len(products) == 1 + 4


def test_validate_reports_first_bad_degree():
    bad = ChainComplex(ZZ, {0: 1, 1: 1, 2: 1},
                       {1: from_rows(ZZ, [[1]]),
                        2: from_rows(ZZ, [[1]])})
    with pytest.raises(ChainComplexError, match="degree 2"):
        bad.validate()
    # a failure is not recorded: the corrupt complex raises again, and so
    # does a map that is not a chain map
    with pytest.raises(ChainComplexError, match="degree 2"):
        bad.validate()
    twice = ChainMap(bad, bad, {0: from_rows(ZZ, [[2]])})
    for _ in range(2):
        with pytest.raises(ChainComplexError, match="degree 1"):
            twice.validate()


def test_homology_and_cone_acyclicity_validate_nothing(monkeypatch):
    def refuse(self):
        raise AssertionError("validated inside a kernel")
    for cls in (ChainComplex, ChainMap):
        monkeypatch.setattr(cls, "validate", refuse)
    cx = _two_step(ZZ, CIRCLE_D1)
    assert homology(cx)[1] == HomologyGroup(1, ())
    assert is_cone_acyclic(ChainMap.identity(cx))


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
        double = ChainMap(point, point, {0: from_rows(ring, [[2]])})
        assert is_cone_acyclic(double) is expect


def test_cone_acyclic_for_explicit_homotopy_equivalence():
    # C = [Z --1--> Z] is contractible: h with dh + hd = id witnesses that
    # the collapse C -> 0 has a homotopy inverse.
    cx = _two_step(ZZ, [[1]])
    h = from_rows(ZZ, [[1]])          # C_0 -> C_1
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

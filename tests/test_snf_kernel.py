"""The Smith normal form kernel: sparse unit pivots, then, over Z, least-entry
reduction on the same rows.

Verify runs on the corpus documents eliminate every pivot in the unit pass,
so the steps after it (least pivot, remainders, divisibility) are covered
here by matrices with few or no unit entries, by RP², whose d₂ has 2-torsion,
and by torsion-heavy matrices.  The references share no code with the
kernel: the minor and row-reduction oracles of ``oracles.py``, sympy's
integer invariant factors and ranks over Q and GF(p), and, for the
torsion-heavy matrices, the diagonal they are built from.
"""

import glob
import json
import os
import random

import pytest

from rkdual import linalg
from rkdual.checks import run_command
from rkdual.linalg import Matrix, smith_normal_form
from rkdual.rings import Ring, ZZ, QQ, GF2

from oracles import (entry, from_rows, invariant_factors_minors,
                     row_reduce_rank, sympy_snf, to_rows)

GF3 = Ring.prime_field(3)
DOCUMENTS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), os.pardir, "documents", "*.json")))

# the six-vertex real projective plane: H_1 = Z/2, H_2 = 0 over Z
RP2_TRIANGLES = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                 (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]


def _rp2_d2():
    edges = sorted({e for t in RP2_TRIANGLES
                    for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))})
    row = {e: i for i, e in enumerate(edges)}
    rows = [[0] * len(RP2_TRIANGLES) for _ in edges]
    for j, (a, b, c) in enumerate(RP2_TRIANGLES):
        rows[row[(b, c)]][j] += 1
        rows[row[(a, c)]][j] -= 1
        rows[row[(a, b)]][j] += 1
    return rows


def _matrix(ring, rows, ncols):
    return from_rows(ring, rows) if rows else Matrix.zero(ring, 0, ncols)


def _random_rows(rng, m, n, entries):
    return [[rng.choice(entries) for _ in range(n)] for _ in range(m)]


@pytest.fixture(scope="module")
def captured():
    """Every distinct matrix handed to the kernel by ``verify`` of the corpus
    documents over Z, Q and Z/2, differentials and mapping-cone matrices,
    each with the set of its columns that homology's cancellation left out."""
    seen = {}
    original = linalg.smith_normal_form

    def record(mat, drop=(), pivots=None):
        key = (mat.ring, mat.nrows, mat.ncols, frozenset(mat.entries()),
               frozenset(drop))
        seen.setdefault(key, (mat, frozenset(drop)))
        return original(mat, drop, pivots)

    linalg.smith_normal_form = record
    try:
        for path in DOCUMENTS:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            for ring in ("Z", "Q", "Z/2"):
                assert run_command("verify", payload, ring_override=ring).passed
    finally:
        linalg.smith_normal_form = original
    return list(seen.values())


def _oracles_snf(ring, rows):
    """The expected ``(factors, rank)`` from the minor and row-reduction
    oracles, for a small matrix given as integer rows."""
    if ring == ZZ:
        return invariant_factors_minors(rows)
    rank = row_reduce_rank(rows)
    return (ring.one,) * rank, rank


@pytest.mark.parametrize("ring", ["Z", "Q", "Z/2"])
def test_kernel_matches_sympy_on_captured_matrices(captured, ring):
    mats = [(m, drop) for m, drop in captured if str(m.ring) == ring]
    assert len(DOCUMENTS) == 6
    assert sum(1 for m, _ in mats if m.nrows and m.ncols) > 50
    assert any(drop for _, drop in mats)
    for mat, drop in mats:
        # the rows actually eliminated: the columns not left out
        kept = [j for j in range(mat.ncols) if j not in drop]
        rows = to_rows(mat.submatrix(range(mat.nrows), kept))
        assert all(type(v) is int for row in rows for v in row)
        got = smith_normal_form(mat, drop)
        assert got == sympy_snf(mat.ring, rows, len(kept)), mat
        if 0 < mat.nrows <= 4 and 0 < len(kept) <= 4 and ring != "Z/2":
            assert got == _oracles_snf(mat.ring, rows), mat


@pytest.mark.parametrize("ring", [ZZ, QQ, GF2, GF3], ids=str)
def test_kernel_matches_sympy_on_random_matrices(ring):
    rng = random.Random(6)
    for _ in range(300):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        rows = _random_rows(rng, m, n, [0, 0, 0, 1, -1, 2, -2, 3, 4, -6])
        got = smith_normal_form(_matrix(ring, rows, n))
        assert got == sympy_snf(ring, rows, n), rows
        if 0 < m <= 4 and 0 < n <= 4 and ring in (ZZ, QQ):
            assert got == _oracles_snf(ring, rows), rows


def test_kernel_matches_minor_and_row_reduction_oracles():
    rng = random.Random(7)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = _random_rows(rng, m, n, [0, 0, 1, -1, 2, -3, 4])
        assert smith_normal_form(from_rows(ZZ, rows)) == \
            invariant_factors_minors(rows), rows
        factors, rank = smith_normal_form(from_rows(QQ, rows))
        assert rank == row_reduce_rank(rows)
        assert factors == (QQ.one,) * rank


def test_kernel_matches_sympy():
    rng = random.Random(8)
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_rows(rng, m, n, [0, 0, 0, 1, -1, 2, -2, 3, 6])
        for ring in (ZZ, QQ, GF2, GF3):
            assert smith_normal_form(from_rows(ring, rows)) == \
                sympy_snf(ring, rows, n), (ring, rows)


@pytest.mark.parametrize("rows, factors", [
    ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], (2, 2, 2)),
    ([[2, 4], [6, 8]], (2, 4)),
    ([[2, 0], [0, 3]], (1, 6)),             # the divisibility step
    ([[-3, 6], [9, 12]], (3, 30)),          # a negative least entry
    ([[4, -2, 6], [6, 10, -4]], (2, 26)),   # negative, off the diagonal
])
def test_matrices_without_unit_entries(rows, factors):
    assert smith_normal_form(from_rows(ZZ, rows)) == \
        (factors, len(factors))
    assert invariant_factors_minors(rows) == (factors, len(factors))
    assert smith_normal_form(from_rows(QQ, rows))[1] == len(factors)


def test_rp2_boundary_has_one_factor_two():
    rows = _rp2_d2()
    assert smith_normal_form(from_rows(ZZ, rows)) == \
        ((1,) * 9 + (2,), 10)
    assert smith_normal_form(from_rows(GF2, rows))[1] == 9
    assert smith_normal_form(from_rows(QQ, rows))[1] == 10
    assert row_reduce_rank(rows) == 10


def _torsion_rows(rng, m, n, diagonal, steps):
    """An m×n matrix with the given invariant factors: the diagonal matrix
    of ``diagonal``, then ``steps`` seeded unimodular row and column
    operations (adding ±1 or 2 times one row or column to another)."""
    rows = [[0] * n for _ in range(m)]
    for t, f in enumerate(diagonal):
        rows[t][t] = f
    for _ in range(steps):
        c = rng.choice([1, -1, 2])
        if rng.random() < 0.5:
            a, b = rng.sample(range(m), 2)
            rows[a] = [x + c * y for x, y in zip(rows[a], rows[b])]
        else:
            a, b = rng.sample(range(n), 2)
            for row in rows:
                row[a] += c * row[b]
    return rows


@pytest.mark.parametrize("m, n, steps", [(40, 35, 100), (60, 60, 150)])
def test_kernel_matches_sympy_on_torsion_heavy_matrices(m, n, steps):
    rng = random.Random(m * n)
    k = min(m, n) - 5
    diagonal = (1,) * (k // 4) + (2,) * (k // 4) + (4,) * (k // 4)
    diagonal += (12,) * (k - len(diagonal))
    rows = _torsion_rows(rng, m, n, diagonal, steps)
    got = smith_normal_form(from_rows(ZZ, rows))
    assert got == (diagonal, k)
    assert got == sympy_snf(ZZ, rows, n)
    assert smith_normal_form(from_rows(GF2, rows))[1] == k // 4
    assert smith_normal_form(from_rows(GF3, rows))[1] == 3 * (k // 4)


def _assert_kernel_leaves_unchanged(mat):
    """The kernel eliminates on copies: ``mat`` reads the same after it."""
    dense = [[entry(mat, i, j) for j in range(mat.ncols)]
             for i in range(mat.nrows)]
    data = dict(mat.entries())
    smith_normal_form(mat)
    assert dict(mat.entries()) == data
    assert [[entry(mat, i, j) for j in range(mat.ncols)]
            for i in range(mat.nrows)] == dense
    assert mat == Matrix(mat.ring, mat.nrows, mat.ncols, data)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF2, GF3], ids=str)
def test_kernel_leaves_its_input_unchanged(ring):
    rng = random.Random(9)
    for rows in [_rp2_d2()] + [_random_rows(rng, 6, 5, [0, 1, -1, 2])
                               for _ in range(20)]:
        mat = from_rows(ring, rows)
        _assert_kernel_leaves_unchanged(mat)
        assert mat == from_rows(ring, rows)


def test_kernel_leaves_the_captured_verify_matrices_unchanged(captured):
    # the matrices a verify builds share their stored columns with the
    # complexes they came from, so a copy too shallow would show here
    for mat, _ in captured:
        _assert_kernel_leaves_unchanged(mat)

"""The Smith normal form kernel: sparse unit-pivot stage plus dense residual.

Verify runs on the corpus eliminate every pivot sparsely, so the dense
residual path is covered here by matrices with few or no unit entries.  The
reference for the whole kernel is the dense loop applied to the whole
matrix (``linalg._dense_snf``), the independent minor and row-reduction
oracles of ``oracles.py``, and sympy's integer Smith normal form and ranks
over Q and GF(p) where sympy is installed.
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

from oracles import invariant_factors_minors, row_reduce_rank

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
    return Matrix.from_rows(ring, rows) if rows else Matrix.zero(ring, 0, ncols)


def _random_rows(rng, m, n, entries):
    return [[rng.choice(entries) for _ in range(n)] for _ in range(m)]


@pytest.fixture(scope="module")
def captured():
    """Every distinct matrix handed to the kernel by ``verify`` of the corpus
    documents over Z, Q and Z/2: differentials and mapping-cone matrices."""
    seen = {}
    original = linalg.smith_normal_form

    def record(mat):
        key = (mat.ring, mat.nrows, mat.ncols, frozenset(mat._data.items()))
        seen.setdefault(key, mat)
        return original(mat)

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


@pytest.mark.parametrize("ring", ["Z", "Q", "Z/2"])
def test_kernel_matches_dense_loop_on_captured_matrices(captured, ring):
    mats = [m for m in captured if str(m.ring) == ring]
    assert len(DOCUMENTS) == 6
    assert sum(1 for m in mats if m.nrows and m.ncols) > 50
    for mat in mats:
        assert smith_normal_form(mat) == linalg._dense_snf(mat), mat


@pytest.mark.parametrize("ring", [ZZ, QQ, GF2, GF3], ids=str)
def test_kernel_matches_dense_loop_on_random_matrices(ring):
    rng = random.Random(6)
    for _ in range(300):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        rows = _random_rows(rng, m, n, [0, 0, 0, 1, -1, 2, -2, 3, 4, -6])
        mat = _matrix(ring, rows, n)
        assert smith_normal_form(mat) == linalg._dense_snf(mat), rows


def test_kernel_matches_minor_and_row_reduction_oracles():
    rng = random.Random(7)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = _random_rows(rng, m, n, [0, 0, 1, -1, 2, -3, 4])
        assert smith_normal_form(Matrix.from_rows(ZZ, rows)) == \
            invariant_factors_minors(rows), rows
        factors, rank = smith_normal_form(Matrix.from_rows(QQ, rows))
        assert rank == row_reduce_rank(rows)
        assert factors == (QQ.one,) * rank


def test_kernel_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    from sympy.polys.domains import GF, QQ as SQQ, ZZ as SZZ
    from sympy.polys.matrices import DomainMatrix
    rng = random.Random(8)
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_rows(rng, m, n, [0, 0, 0, 1, -1, 2, -2, 3, 6])
        want = tuple(int(f) for f in invariant_factors(sympy.Matrix(rows),
                                                       domain=SZZ) if f != 0)
        assert smith_normal_form(Matrix.from_rows(ZZ, rows)) == \
            (want, len(want)), rows
        dm = DomainMatrix.from_list(rows, SZZ)
        for ring, domain in ((QQ, SQQ), (GF2, GF(2)), (GF3, GF(3))):
            assert smith_normal_form(Matrix.from_rows(ring, rows))[1] == \
                dm.convert_to(domain).rank(), (ring, rows)


@pytest.mark.parametrize("rows, factors", [
    ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], (2, 2, 2)),
    ([[2, 4], [6, 8]], (2, 4)),
])
def test_matrices_without_unit_entries_go_to_the_dense_loop(
        monkeypatch, rows, factors):
    residuals = []
    dense = linalg._dense_snf

    def spy(mat):
        residuals.append((mat.nrows, mat.ncols))
        return dense(mat)

    monkeypatch.setattr(linalg, "_dense_snf", spy)
    assert smith_normal_form(Matrix.from_rows(ZZ, rows)) == \
        (factors, len(factors))
    assert residuals == [(len(rows), len(rows[0]))]
    assert invariant_factors_minors(rows) == (factors, len(factors))
    assert smith_normal_form(Matrix.from_rows(QQ, rows))[1] == len(factors)


def test_unit_pivots_run_first_and_leave_the_torsion_residual(monkeypatch):
    rows = _rp2_d2()
    residuals = []
    dense = linalg._dense_snf

    def spy(mat):
        residuals.append(mat)
        return dense(mat)

    monkeypatch.setattr(linalg, "_dense_snf", spy)
    assert smith_normal_form(Matrix.from_rows(ZZ, rows)) == \
        ((1,) * 9 + (2,), 10)
    (residual,) = residuals
    assert 0 < residual.nrows < len(rows) and 0 < residual.ncols < len(rows[0])
    assert dense(residual)[0][-1] == 2
    assert smith_normal_form(Matrix.from_rows(GF2, rows))[1] == 9
    assert smith_normal_form(Matrix.from_rows(QQ, rows))[1] == 10
    assert row_reduce_rank(rows) == 10


@pytest.mark.parametrize("ring", [ZZ, QQ, GF2, GF3], ids=str)
def test_kernel_leaves_its_input_unchanged(ring):
    rng = random.Random(9)
    for rows in [_rp2_d2()] + [_random_rows(rng, 6, 5, [0, 1, -1, 2])
                               for _ in range(20)]:
        mat = Matrix.from_rows(ring, rows)
        rowmap = {i: list(r) for i, r in mat._rows().items()}
        data = dict(mat._data)
        smith_normal_form(mat)
        assert mat._data == data
        assert mat._rowmap == rowmap
        assert mat == Matrix.from_rows(ring, rows)

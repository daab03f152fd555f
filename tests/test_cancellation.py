"""Homology by cancellation across degrees, cross-checked.

``homology`` eliminates the differentials from the top degree down, each
without the generators that a unit pivot of the one above cancelled.  Its
result is compared here with the homology read from the Smith normal form
of each whole differential, taken by the same kernel and by sympy.  The
complexes are those whose acyclicity ``verify`` decides on the corpus
documents over Z, Q and Z/2 (the reduced cones of the certified maps, the
lemma's star cuts and the exactness checks' three-term complexes; a
passing verify builds no mapping cone), and seeded random complexes over Z
with torsion, whose homology is also known from how they are built.
"""

import glob
import json
import os
import random
import sys
from math import gcd

import pytest

from rkdual import duality, linalg
from rkdual.checks import run_command
from rkdual.linalg import ChainComplex, HomologyGroup, Matrix, homology
from rkdual.rings import Ring, ZZ, QQ, GF2

from oracles import dense_product, from_rows, sympy_snf, to_rows

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

import ladder  # noqa: E402

GF3 = Ring.prime_field(3)
DOCUMENTS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), os.pardir, "documents", "*.json")))


def per_degree(cx, snf):
    """Homology from ``snf(d_q)`` = (factors, rank) of each whole
    differential: betti = rank C_q - rank d_q - rank d_{q+1}, torsion the
    factors of d_{q+1} that are not units."""
    got = {q: snf(mat) for q, mat in cx.diff.items()}
    degs, out = cx.degrees(), {}
    for q in range(min(degs, default=0), max(degs, default=-1) + 1):
        _, r_out = got.get(q, ((), 0))
        fac_in, r_in = got.get(q + 1, ((), 0))
        out[q] = HomologyGroup(
            cx.rank(q) - r_out - r_in,
            tuple(f for f in fac_in if not cx.ring.is_unit(f)))
    return out


def whole_kernel(mat):
    return linalg.smith_normal_form(mat)


def by_sympy(mat):
    return sympy_snf(mat.ring, to_rows(mat), mat.ncols)


def assert_cross_checked(cx):
    got = homology(cx)
    assert got == per_degree(cx, whole_kernel)
    assert got == per_degree(cx, by_sympy)
    return got


@pytest.fixture(scope="module")
def cones():
    """Every distinct complex whose acyclicity a ``verify`` of the corpus
    documents over Z, Q and Z/2 decides, with how it was built: "cone" for
    a mapping cone, "reduced" for the reduced cone of a certified map,
    "other" for the rest (the lemma's star cuts, the exactness checks'
    three-term complexes)."""
    seen = {}
    cone, reduced, acyclic = (linalg.mapping_cone, duality.reduced_cone,
                              linalg.is_acyclic)
    bound = [(module, key) for name, module in list(sys.modules.items())
             if name == "rkdual" or name.startswith("rkdual.")
             for key, value in vars(module).items() if value is acyclic]

    def keep(kind, cx):
        key = (cx.ring, tuple(sorted(cx.spaces.items())), frozenset(
            (q, frozenset(mat.entries())) for q, mat in cx.diff.items()))
        seen.setdefault(key, (kind, cx))
        return cx

    linalg.mapping_cone = lambda f: keep("cone", cone(f))
    duality.reduced_cone = lambda f: keep("reduced", reduced(f))
    for module, key in bound:
        setattr(module, key, lambda cx: acyclic(keep("other", cx)))
    try:
        for path in DOCUMENTS:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            for ring in ("Z", "Q", "Z/2"):
                assert run_command("verify", payload, ring_override=ring).passed
    finally:
        linalg.mapping_cone, duality.reduced_cone = cone, reduced
        for module, key in bound:
            setattr(module, key, acyclic)
    return list(seen.values())


@pytest.mark.parametrize("ring", ["Z", "Q", "Z/2"])
def test_homology_of_captured_cones_matches_the_per_degree_snf(cones, ring):
    mine = [(kind, cx) for kind, cx in cones if str(cx.ring) == ring]
    assert len(DOCUMENTS) == 6
    assert len(mine) > 25
    assert {kind for kind, _ in mine} == {"reduced", "other"}
    for _, cx in mine:
        # every complex a passing verify finds acyclic is acyclic
        assert all(h.is_trivial() for h in assert_cross_checked(cx).values())


def _diagonal_factors(ks):
    """The invariant factors other than 1 of the diagonal matrix of ``ks``:
    pairs are replaced by their gcd and lcm until each divides the next."""
    fs = sorted(abs(k) for k in ks)
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            g = gcd(fs[i], fs[j])
            fs[i], fs[j] = g, fs[i] * fs[j] // g
    return tuple(f for f in fs if f != 1)


def _unimodular(rng, n):
    """A seeded n×n unimodular integer matrix and its inverse, as rows: a
    product of elementary operations, each adding c times one row to
    another, with the inverse operations in the opposite order."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range(2 * n if n > 1 else 0):
        a, b = rng.sample(range(n), 2)
        c = rng.choice([1, -1, 2])
        u[a] = [x + c * y for x, y in zip(u[a], u[b])]     # E·u
        for row in inv:                                     # inv·E⁻¹
            row[b] -= c * row[a]
    return u, inv


def random_complex(rng, ring=ZZ):
    """A seeded complex over Z in degrees 0..top, with its homology.

    It is a direct sum of pieces Z in one degree (free homology) and pieces
    Z --k--> Z from degree q to q - 1 (Z/k in degree q - 1 when |k| > 1),
    each degree's basis then changed by a seeded unimodular matrix U_q:
    d_q = U_{q-1} D_q U_q⁻¹, so d∘d = 0 holds by construction."""
    top = rng.randint(1, 4)
    basis = {q: [] for q in range(top + 1)}
    pairs = {q: [] for q in range(1, top + 1)}
    for q in range(top + 1):
        basis[q] += ["free"] * rng.randint(0, 2)
    for q in range(1, top + 1):
        for _ in range(rng.randint(0, 3)):
            k = rng.choice([1, 1, -1, 2, -2, 3, 4, 6, 12])
            pairs[q].append((len(basis[q - 1]), len(basis[q]), k))
            basis[q - 1].append("target")
            basis[q].append("source")
    change = {q: _unimodular(rng, len(gs)) for q, gs in basis.items()}
    diff = {}
    for q, entries in pairs.items():
        m, n = len(basis[q - 1]), len(basis[q])
        if not m or not n:
            continue
        diag = [[0] * n for _ in range(m)]
        for i, j, k in entries:
            diag[i][j] = k
        rows = dense_product(dense_product(change[q - 1][0], diag, n),
                             change[q][1], n)
        diff[q] = from_rows(ring, rows)
    cx = ChainComplex(ring, {q: len(gs) for q, gs in basis.items()}, diff)
    want = {q: HomologyGroup(basis[q].count("free"), _diagonal_factors(
        [k for _, _, k in pairs.get(q + 1, ()) if abs(k) > 1]))
        for q in range(top + 1)}
    return cx.validate(), want


def test_random_complexes_with_torsion(monkeypatch):
    finished = []
    snf = linalg.smith_normal_form

    def spy(mat, drop=(), pivots=None):
        factors, rank = snf(mat, drop, pivots)
        if drop and any(f != 1 for f in factors):
            finished.append(factors)    # least-entry finish after a cancel
        return factors, rank
    monkeypatch.setattr(linalg, "smith_normal_form", spy)
    rng = random.Random(21)
    torsion = 0
    for _ in range(250):
        cx, want = random_complex(rng)
        got = homology(cx)
        assert got == {q: h for q, h in want.items() if q in got}
        assert all(h.is_trivial() for q, h in want.items() if q not in got)
        assert got == per_degree(cx, whole_kernel)
        assert got == per_degree(cx, by_sympy)
        torsion += any(h.torsion for h in got.values())
    assert torsion >= 100
    assert finished


@pytest.mark.parametrize("ring", [QQ, GF2, GF3], ids=str)
def test_random_complexes_over_fields(ring):
    rng = random.Random(22)
    for _ in range(100):
        cx, _ = random_complex(rng, ring)
        assert_cross_checked(cx)


def test_rp2_over_z_reaches_the_least_entry_finish(monkeypatch):
    # the unit pass yields only unit factors: a factor 2 is the finish's
    factors = []
    snf = linalg.smith_normal_form

    def spy(mat, *cancel):
        got = snf(mat, *cancel)
        factors.extend(got[0])
        return got
    monkeypatch.setattr(linalg, "smith_normal_form", spy)
    doc = dict(ladder.RUNGS)["id-rp2"]()[0]
    assert run_command("verify", doc, ring_override="Z").passed
    assert 2 in factors

"""The indexed cell combinatorics against brute-force scans.

``dual_cell``, ``BallComplex`` and ``RKComplex.positions`` read indexes
built once per object, and ``dual_cones`` files every dual cell in one
scan.  The oracles here are the plain per-cell scans they replaced,
written in this file and reading nothing but the simplices of the
subdivision and the generators of a complex.  Results are compared as
tuples in basis order.
"""

import os
import random
import sys

import pytest

from rkdual.ballcomplex import BallComplex, dual_cell, dual_cones
from rkdual.checks import KSpaceData, check_cells, parse_document
from rkdual.corpus import CORPUS_NAMES, random_kspace
from rkdual.report import Report
from rkdual.rings import ZZ
from rkdual.rkcore import delta_complexes
from rkdual.simplicial import SimplicialComplex, barycentric_subdivision

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

import ladder  # noqa: E402
from oracles import corpus_kspace  # noqa: E402


def scan_dual_cell(sigma, tau, prime):
    return tuple(c for c in prime.all_simplices()
                 if set(sigma) <= set(c[-1]) and set(c[0]) <= set(tau))


def scan_cell(ks, prime, T, sigma):
    """(members, interior, inner, outer) of the cell (T, sigma), each in
    basis order."""
    members = tuple(c for c in prime.all_simplices()
                    if set(c[0]) <= set(T)
                    and set(sigma) <= set(ks.pi.image(c[-1])))
    interior = tuple(c for c in members
                     if c[0] == T and ks.pi.image(c[-1]) == sigma)
    inner = tuple(c for c in members if ks.pi.image(c[-1]) != sigma)
    outer = tuple(c for c in members if c[0] != T)
    return members, interior, inner, outer


def scan_positions(cx, labels):
    return {q: [i for i, s in enumerate(ls) if s in labels]
            for q, ls in cx.labels.items()}


def kspaces():
    out = [(name, corpus_kspace(name)) for name in CORPUS_NAMES]
    rng = random.Random(9)
    out += [(f"random{i}", random_kspace(rng)) for i in range(50)]
    rungs = dict(ladder.RUNGS)
    for rung in ("id-torus-7", "id-sphere-2", "grid-4-edge"):
        (_, ks), = parse_document(rungs[rung]()[0]).kspaces
        out.append((rung, ks))
    return out


KSPACES = kspaces()
IDS = [name for name, _ in KSPACES]


@pytest.mark.parametrize("name,ks", KSPACES, ids=IDS)
def test_dual_cells_and_cones_match_the_scan(name, ks):
    derived = barycentric_subdivision(ks.K)
    cones = dual_cones(derived)
    for sigma in ks.K.all_simplices():
        for tau in ks.K.all_simplices():
            want = scan_dual_cell(sigma, tau, derived.prime)
            assert dual_cell(sigma, tau, derived) == want, (sigma, tau)
            assert tuple(cones.pop((sigma, tau), ())) == want, (sigma, tau)
    # nothing is filed under a pair of K that is not a pair of simplices
    assert not cones


@pytest.mark.parametrize("name", ["hex", "id-torus-7"])
def test_the_dual_cones_check_scans_the_subdivision_of_k_once(monkeypatch,
                                                              name):
    data = KSpaceData(dict(KSPACES)[name], ZZ)
    dk = data.deltas.derived_k
    dk.ends, dk.position        # the index under test, built before the count
    scans = []
    scan = SimplicialComplex.all_simplices

    def spied(self):
        if self is dk.prime:
            scans.append(self)
        return scan(self)
    monkeypatch.setattr(SimplicialComplex, "all_simplices", spied)
    report = Report("verify", "Z")
    check_cells(report, name, data)
    assert report.passed and "cells/dual-cones" in {
        c.name for c in report.checks}
    # of the cells checks only cells/dual-cones reads K', and it scans once
    assert len(scans) == 1


@pytest.mark.parametrize("name,ks", KSPACES, ids=IDS)
def test_ball_cells_match_the_scan(name, ks):
    derived = barycentric_subdivision(ks.X)
    prime = derived.prime
    order = {c: i for i, c in enumerate(prime.all_simplices())}

    def ordered(chains):
        return tuple(sorted(chains, key=order.__getitem__))
    ball = BallComplex(ks, derived)
    want = {(T, sigma) for T in ks.X.all_simplices()
            for sigma in ks.K.all_simplices()
            if set(sigma) <= set(ks.pi.image(T))}
    assert set(ball.cells) == want
    for (T, sigma), cell in ball.cells.items():
        got = (cell.simplices, ordered(cell.interior),
               ordered(cell.inner_boundary), ordered(cell.outer_boundary))
        assert got == scan_cell(ks, prime, T, sigma), (T, sigma)


@pytest.mark.parametrize("name,ks", KSPACES, ids=IDS)
def test_label_positions_match_the_scan(name, ks):
    dc = delta_complexes(ks, ZZ)
    for cx in (dc.dx, dc.dstar_x, dc.dx_prime):
        for sigma in ks.K.all_simplices():
            for labels in ({sigma}, set(ks.K.star(sigma))):
                assert cx.positions(labels) == scan_positions(cx, labels)

"""The acceptance gate: every criterion, exact arithmetic, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  Everything is an exact integer statement; there are no
tolerances to tune.
"""

import json
import time

import pytest

from rkdual.linalg import homology
from rkdual.rings import Ring, ZZ
from rkdual.simplicial import (SimplicialComplex, barycentric_subdivision,
                               control_map, kspace_identity)
from rkdual.duality import tensor_map_left, verify_diagonal_equivalence
from rkdual.ballcomplex import induced_chain_map
from rkdual.rkcore import dual_star_map
from rkdual.capproduct import verify_cap_chain_map, verify_fundamental_cycles
from rkdual.corpus import CORPUS_NAMES, document, random_kspaces
from rkdual.checks import KSpaceData, check_equivalences
from rkdual.cli import main
from rkdual.report import Report

from oracles import corpus_kspace

GF2 = Ring.prime_field(2)


def announce(number, text, passed):
    print(f"criterion {number} ({text}): {'PASS' if passed else 'FAIL'}")
    assert passed


@pytest.fixture(scope="module")
def corpus_data():
    return {name: KSpaceData.build(corpus_kspace(name), ZZ)
            for name in CORPUS_NAMES}


def test_criterion_1_differential_soundness(corpus_data):
    started = time.monotonic()
    ok = True
    for name, data in corpus_data.items():
        for cx in data.complexes().values():
            cx.validate()
    for ks in random_kspaces(0, 100):
        data = KSpaceData.build(ks, ZZ)
        for cx in data.complexes().values():
            cx.validate()
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 30.0
    announce(1, f"d∘d = 0 on corpus and 100 random K-spaces in "
                f"{elapsed:.2f}s < 30s", ok)


def test_criterion_2_cellular_identification(corpus_data):
    ok = True
    for name, data in corpus_data.items():
        data.iso.validate()
        ok = ok and data.iso.is_bijection_on_bases()
    expected = {"hex": {0: (1, ()), 1: (1, ())},
                "id2": {0: (1, ())},
                "circ3": {0: (1, ()), 1: (1, ())}}
    for name, want in expected.items():
        got = {q: (h.betti, h.torsion)
               for q, h in homology(corpus_data[name].tc).items()
               if not h.is_trivial()}
        ok = ok and got == want
    announce(2, "dual of cochains is the cellular complex, with the right "
                "homology", ok)


def test_criterion_3_double_dual_equivalence(corpus_data):
    ok = True
    for name in CORPUS_NAMES:
        for ring in (ZZ, GF2):
            data = KSpaceData.build(corpus_kspace(name), ring)
            dz = data.dualizer
            for cx in (data.deltas.dstar_x, data.deltas.dx_prime,
                       data.cellular.rk):
                tc = dz.object(cx)
                e = dz.double_dual_map(cx, tc, dz.square(tc))
                rep = verify_diagonal_equivalence(e, "double-dual")
                ok = ok and rep.passed
    announce(3, "double-dual collapse has acyclic cones over Z and Z/2", ok)


def test_criterion_4_cap_chain_map():
    ok = True
    for maximal in (("ab",), ("abc",), ("abcd",), ("ab", "bc", "ac")):
        cx = SimplicialComplex.build(None, [list(s) for s in maximal])
        # each identity that fails adds a line naming itself
        ok = ok and not verify_cap_chain_map(barycentric_subdivision(cx), ZZ)
    announce(4, "cap product is a chain map with a perfect interior-face "
                "pairing", ok)


def test_criterion_5_fundamental_cycles(corpus_data):
    ok = True
    for name, data in corpus_data.items():
        verdicts = verify_fundamental_cycles(data.fundamental_cycles,
                                             data.cellular)
        ok = ok and all(verdicts.values())
    announce(5, "every cell maps to a unit-coefficient fundamental cycle",
             ok)


def test_criterion_6_composite_equivalences(corpus_data):
    ok = True
    for name, data in corpus_data.items():
        report = Report("verify", "Z")
        check_equivalences(report, name, data)
        ok = ok and len(report.checks) == 3 and report.passed
    announce(6, "cell map and both composites are equivalences over Z", ok)


def test_criterion_7_cell_structure_combinatorics(corpus_data):
    ok = True
    for name, data in corpus_data.items():
        ok = ok and not data.ball.check()
    census = {name: corpus_data[name].ball.census()
              for name in ("edge", "id2", "hex")}
    ok = ok and census["edge"] == {0: 3, 1: 2}
    ok = ok and census["id2"] == {0: 7, 1: 9, 2: 3}
    ok = ok and census["hex"] == {0: 12, 1: 12}
    announce(7, "cell dimensions, interior partition, Euler counts and "
                "censuses", ok)


def test_criterion_8_naturality(corpus_data):
    ok = True
    for name in CORPUS_NAMES:
        data = corpus_data[name]
        cells, dx = data.cellular.rk, data.deltas.dx
        fid = tensor_map_left(
            induced_chain_map(kspace_identity(data.ks), dx, dx,
                              data.orientation, data.orientation),
            cells, cells)
        from rkdual.rkcore import RKMap
        ok = ok and fid == RKMap.identity(cells)
        fmap = control_map(data.ks)
        data_y = KSpaceData.build(fmap.tgt, ZZ)
        push = induced_chain_map(fmap, dx, data_y.deltas.dx,
                                 data.orientation, data_y.orientation)
        fk = tensor_map_left(push, cells, data_y.cellular.rk)
        # T(f) takes T of f's very ends: the cochains each side holds
        pullback = RKMap(data_y.deltas.dstar_x, data.deltas.dstar_x,
                         dual_star_map(push).comps)
        lhs = data_y.iso.compose(
            data.dualizer.map(pullback, data.tc, data_y.tc))
        rhs = fk.compose(data.iso)
        ok = ok and lhs == rhs
    announce(8, "identification commutes with induced maps (identity and "
                "control)", ok)


def test_criterion_9_deterministic_reports(tmp_path):
    path = tmp_path / "hex.json"
    path.write_text(json.dumps(document("hex")), encoding="utf-8")
    outs = []
    for i in (1, 2):
        out = tmp_path / f"report{i}.json"
        code = main(["verify", str(path), "--format", "json",
                     "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    announce(9, "repeated verify runs are byte-identical", outs[0] == outs[1])

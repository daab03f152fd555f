"""KSpaceData builds each object of a K-space once, on first use.

The counts are taken by rebinding a function at every place a module of
the package binds it, so calls through ``from .x import y`` names are
counted too.
"""

import sys

from rkdual import ballcomplex, capproduct, duality, rkcore, simplicial
from rkdual.checks import KSpaceData, quick_sweep_kspace, verify_kspace
from rkdual.corpus import corpus_kspace
from rkdual.duality import Dualizer
from rkdual.report import Report
from rkdual.rings import ZZ


def counting(fn, calls):
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return counted


def count_calls(monkeypatch, fn):
    """Route every binding of ``fn`` in the package through a counter;
    returns the list that records one entry per call."""
    calls = []
    for name, module in list(sys.modules.items()):
        if name == "rkdual" or name.startswith("rkdual."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counting(fn, calls))
    return calls


def test_verify_subdivides_twice_and_squares_at_most_six_times(monkeypatch):
    ks = corpus_kspace("hex")
    subdivisions = count_calls(monkeypatch, simplicial.barycentric_subdivision)
    squares = []
    monkeypatch.setattr(Dualizer, "square", counting(Dualizer.square, squares))
    report = Report("verify", "Z")
    verify_kspace(report, "hex", ks, ZZ)
    assert report.checks and report.passed
    # X and K, once each; T² of the cochains of X is built once
    assert len(subdivisions) == 2
    assert len(squares) <= 6


def test_verify_builds_each_tensor_and_hom_once(monkeypatch):
    ks = corpus_kspace("hex")
    tensors = count_calls(monkeypatch, duality.tensor_k)
    homs = count_calls(monkeypatch, rkcore.hom_rk)
    pushes = count_calls(monkeypatch, ballcomplex.induced_chain_map)
    report = Report("verify", "Z")
    verify_kspace(report, "hex", ks, ZZ)
    assert report.checks and report.passed
    # maps take the complexes they map between instead of rebuilding them
    assert len(tensors) <= 20
    assert len(homs) <= 3
    # the pushforward along the control map, and the identity
    assert len(pushes) == 2


def test_verify_dualizes_the_ends_of_the_split_once(monkeypatch):
    objects = []
    monkeypatch.setattr(Dualizer, "object", counting(Dualizer.object, objects))
    report = Report("verify", "Z")
    verify_kspace(report, "hex", corpus_kspace("hex"), ZZ)
    assert report.checks and report.passed
    # T of the two ends of the split sequence is shared by duality/exactness
    # and double-dual/natural-rows (16 calls when each built its own)
    assert len(objects) == 14


def test_quick_sweep_dualizes_twice_and_squares_once(monkeypatch):
    objects, squares = [], []
    monkeypatch.setattr(Dualizer, "object", counting(Dualizer.object, objects))
    monkeypatch.setattr(Dualizer, "square", counting(Dualizer.square, squares))
    report = Report("random", "Z")
    quick_sweep_kspace(report, "hex", corpus_kspace("hex"), ZZ)
    assert report.checks and report.passed
    # T of the cochains, and T of that inside the one square
    assert len(objects) == 2
    assert len(squares) == 1


def test_quick_sweep_builds_no_cell_map(monkeypatch):
    ks = corpus_kspace("hex")
    calls = count_calls(monkeypatch, capproduct.fundamental_cycle_map)
    report = Report("random", "Z")
    quick_sweep_kspace(report, "hex", ks, ZZ)
    assert report.checks and report.passed
    assert calls == []


def test_objects_are_built_on_first_use_and_kept():
    data = KSpaceData.build(corpus_kspace("edge"), ZZ)
    assert "cellular" not in vars(data)
    assert data.cellular is data.cellular
    assert data.cellular.ball is data.ball
    assert data.t2 is data.e.src
    assert data.push.src is data.deltas.dx
    assert data.e.tgt is data.deltas.dstar_x

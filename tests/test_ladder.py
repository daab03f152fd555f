"""The benchmark ladder generates the documented rungs and times them."""

import glob
import json
import os
import re
import sys
import time

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

import ladder  # noqa: E402
from rkdual import duality, linalg  # noqa: E402
from rkdual.ballcomplex import cellular_iso  # noqa: E402
from rkdual.checks import KSpaceData, run_command  # noqa: E402
from rkdual.corpus import document  # noqa: E402
from rkdual.rings import ZZ  # noqa: E402

from oracles import corpus_kspace  # noqa: E402

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def test_rung_sizes():
    sizes = {name: make()[1:] for name, make in ladder.RUNGS}
    assert sizes == {
        "id-simplex-3": (15, 15), "id-simplex-4": (31, 31),
        "id-sphere-2": (14, 14), "id-sphere-3": (30, 30),
        "id-sphere-4": (62, 62), "id-torus-7": (42, 42),
        "grid-4-edge": (113, 3), "grid-6-edge": (241, 3),
        "grid-8-edge": (417, 3), "torus-8-circle": (384, 16),
        "torus-12-circle": (864, 24), "id-torus-7-q": (42, 42),
        "grid-8-edge-q": (417, 3), "id-rp2": (31, 31),
        "id-simplex-5": (63, 63), "id-sphere-5": (126, 126),
    }


def test_q_rungs_are_their_z_rungs_over_the_rationals():
    rungs = dict(ladder.RUNGS)
    for name in ("id-torus-7", "grid-8-edge"):
        doc, x, k = rungs[name]()
        assert rungs[f"{name}-q"]() == ({**doc, "ring": "Q"}, x, k)
        assert doc["ring"] == "Z"


def test_child_run_and_skip():
    doc = ladder.identity_rung(ladder.boundary(3))[0]
    got = ladder.run_rung(doc, SRC, 60)
    assert got["passed"] and got["checks"] > 0 and got["wall_s"] > 0
    assert 0 <= got["tensor_s"] <= got["wall_s"]
    assert 0 <= got["fill_s"] <= got["wall_s"] - got["tensor_s"] + 0.001
    assert 0 < got["certify_s"] <= got["wall_s"]
    # every group of a full verify runs checks, inside the wall time (each
    # figure is rounded to the millisecond)
    assert list(got["groups_s"]) == [
        "soundness", "assembly", "tensor", "duality", "cells", "cap",
        "equivalences", "naturality"]
    assert 0 < sum(got["groups_s"].values()) <= got["wall_s"] + 0.005
    # and every check by its name, the same seconds split finer
    assert len(got["checks_s"]) == got["checks"]
    assert "cells/dual-cones" in got["checks_s"]
    assert abs(sum(got["checks_s"].values())
               - sum(got["groups_s"].values())) <= 0.001 * got["checks"]
    # the collector, timed from outside: inside the wall time, and counted
    # by generation
    assert 0 <= got["gc_s"] <= got["wall_s"]
    assert sorted(got["gc_collections"]) == ["0", "1", "2"]
    assert all(n >= 0 for n in got["gc_collections"].values())
    assert got["gc_collections"]["0"] > 0
    # the child's own peak: at least the interpreter with rkdual imported
    assert 5 < got["peak_rss_mb"] < 1000
    assert re.fullmatch(r"[0-9a-f]{64}", got["report_sha256"])
    assert ladder.run_rung(doc, SRC, 0.001) == "skipped"


def run(wall, digest="d", groups=0.1, rss=20.0, passed=True):
    """One child's result, with seven checks, the first the slowest, and
    one collection of the oldest generation per tenth of a second."""
    checks = {f"c{i}": round(wall / (i + 2), 3) for i in range(7)}
    return {"wall_s": wall, "tensor_s": wall / 2, "fill_s": wall / 5,
            "certify_s": wall / 10,
            "groups_s": {"soundness": groups}, "checks_s": checks,
            "gc_s": wall / 4, "gc_collections": {
                "0": 100, "1": 9, "2": round(wall * 10)},
            "peak_rss_mb": rss, "checks": 3, "passed": passed,
            "report_sha256": digest}


def test_runs_are_summarized_by_their_median_and_spread():
    got = ladder.summarize([run(0.3, rss=31.5), run(0.1, groups=0.3),
                            run(0.2, rss=24.25)])
    assert got == {"wall_s": 0.2, "wall_min_s": 0.1, "wall_max_s": 0.3,
                   "tensor_s": 0.1, "fill_s": 0.04, "certify_s": 0.02,
                   "groups_s": {"soundness": 0.1},
                   "slowest_s": {"c0": 0.1, "c1": 0.067, "c2": 0.05,
                                 "c3": 0.04, "c4": 0.033},
                   "gc_s": 0.05, "gc_collections": {"0": 100, "1": 9, "2": 2},
                   "peak_rss_mb": 24.2, "checks": 3, "passed": True,
                   "report_sha256": "d"}
    assert list(got["slowest_s"]) == ["c0", "c1", "c2", "c3", "c4"]
    assert ladder.summarize([run(0.1), "skipped"]) == "skipped"
    assert "error" in ladder.summarize([run(0.1), run(0.1, "e")])


def test_the_fill_is_timed_at_every_binding_apart_from_the_builds(
        monkeypatch):
    # the cellular identification fills M ⊗ 1 through the binding in
    # ballcomplex, the projection through the one in duality; neither
    # builds a tensor once its two ends are built
    data = KSpaceData(corpus_kspace("hex"), ZZ)
    tc, cells = data.tc, data.cellular
    timed = (duality.tensor_k, duality.tensor_r, duality.left_times_one)
    for name, module in list(sys.modules.items()):
        if name == "rkdual" or name.startswith("rkdual."):
            for key, value in list(vars(module).items()):
                if any(value is fn for fn in timed):
                    monkeypatch.setattr(module, key, value)   # put back after
    spent = ladder.time_tensors()
    cellular_iso(tc, cells)
    assert list(spent) == ["fill"] and spent["fill"] > 0
    after_iso = spent["fill"]
    C, D = data.deltas.dx, data.dualizer.dstar_k
    full, blocked = duality.tensor_r(C, D), duality.tensor_k(C, D)
    assert spent["tensor"] > 0 and spent["fill"] == after_iso
    duality.projection_map(full, blocked)
    assert spent["fill"] > after_iso


def test_a_tree_without_the_fill_times_the_rest_and_leaves_its_field_out(
        monkeypatch):
    # trees older than duality.left_times_one have no fill to time: the
    # other timers still run, and the child's record and its summary have
    # no fill_s rather than a 0
    data = KSpaceData(corpus_kspace("hex"), ZZ)
    C, D = data.deltas.dx, data.dualizer.dstar_k
    timed = (duality.tensor_k, duality.tensor_r,
             duality.verify_diagonal_equivalence)
    for name, module in list(sys.modules.items()):
        if name == "rkdual" or name.startswith("rkdual."):
            for key, value in list(vars(module).items()):
                if any(value is fn for fn in timed):
                    monkeypatch.setattr(module, key, value)   # put back after
    monkeypatch.delattr(duality, "left_times_one")
    spent = ladder.time_tensors()
    duality.tensor_k(C, D)
    assert list(spent) == ["tensor"] and spent["tensor"] > 0
    fields = ladder.timer_fields(spent)
    assert list(fields) == ["tensor_s", "certify_s"]
    assert fields["certify_s"] == 0.0
    older = [{k: v for k, v in run(wall).items() if k != "fill_s"}
             for wall in (0.1, 0.2, 0.3)]
    got = ladder.summarize(older)
    assert "fill_s" not in got and got["tensor_s"] == 0.1


def test_the_certificate_is_timed_at_every_binding(monkeypatch):
    # checks and capproduct call the certificate through their own
    # bindings; each is routed through the timer, inside the verify
    certify = duality.verify_diagonal_equivalence
    bound = [(module, key) for name, module in list(sys.modules.items())
             if name == "rkdual" or name.startswith("rkdual.")
             for key, value in list(vars(module).items()) if value is certify]
    assert {module.__name__ for module, _ in bound} >= {
        "rkdual.duality", "rkdual.checks", "rkdual.capproduct"}
    for module, key in bound:
        monkeypatch.setattr(module, key, certify)   # put back after
    spent = ladder.time_tensors()
    assert all(getattr(module, key) is not certify for module, key in bound)
    started = time.perf_counter()
    assert run_command("verify", document("hex")).passed
    wall = time.perf_counter() - started
    assert 0 < spent["certify"] < wall


@pytest.mark.parametrize("ring, homology", [
    ("Z", {"0": "Z", "1": "Z/2"}),
    ("Q", {"0": "Q"}),
    ("Z/2", {"0": "Z/2", "1": "Z/2", "2": "Z/2"}),
])
def test_rp2_rung_verifies_with_its_torsion(monkeypatch, ring, homology):
    """The one rung with torsion: over Z its verify reaches the steps of
    the Smith normal form after the unit pivots."""
    doc = dict(ladder.RUNGS)["id-rp2"]()[0]
    torsion = []
    snf = linalg.smith_normal_form

    def spy(mat, *cancel):
        factors, rank = snf(mat, *cancel)
        if any(not mat.ring.is_unit(f) for f in factors):
            torsion.append(factors)
        return factors, rank
    monkeypatch.setattr(linalg, "smith_normal_form", spy)
    report = run_command("verify", doc, ring_override=ring)
    assert report.passed
    (cells,) = [c for c in report.checks if c.name == "cells/homology"]
    assert cells.details["homology"] == homology
    assert run_command("homology", doc, ring_override=ring).tables == \
        {"homology/X": homology}
    assert len(torsion) == (4 if ring == "Z" else 0)


@pytest.mark.parametrize("runs, status", [
    ([run(0.1)] * 3, 0),
    (["skipped"], 0),
    ([run(0.1, passed=False)] * 3, 1),
    ([{"error": "Traceback"}], 1),
    ([run(0.1), run(0.1, "e"), run(0.1)], 1),
], ids=["passes", "skipped", "fails", "errors", "disagrees"])
def test_the_exit_status_names_a_rung_that_does_not_verify(
        monkeypatch, capsys, runs, status):
    results = iter(runs)
    monkeypatch.setattr(ladder, "RUNGS", ladder.RUNGS[:1])
    monkeypatch.setattr(ladder, "run_rung",
                        lambda doc, src, max_seconds: next(results))
    assert ladder.main(["--src", f"ci={SRC}"]) == status
    out, err = capsys.readouterr()
    assert [row["rung"] for row in json.loads(out)["rungs"]] == [
        "id-simplex-3"]
    assert ("id-simplex-3 (ci)" in err) == bool(status)


def test_each_source_records_the_lines_of_its_package(
        monkeypatch, capsys, tmp_path):
    # every line of rkdual/*.py counts, the last one without a newline
    # too; other files and the package's subdirectories do not
    (tmp_path / "rkdual" / "sub").mkdir(parents=True)
    (tmp_path / "rkdual" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "rkdual" / "b.py").write_text("z = 3")
    (tmp_path / "rkdual" / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "rkdual" / "sub" / "c.py").write_text("w = 4\n")
    assert ladder.src_lines(tmp_path) == 4
    package = 0
    for path in glob.glob(os.path.join(SRC, "rkdual", "*.py")):
        with open(path, encoding="utf-8") as fh:
            package += fh.read().count("\n")
    monkeypatch.setattr(ladder, "RUNGS", ladder.RUNGS[:1])
    monkeypatch.setattr(ladder, "run_rung",
                        lambda doc, src, max_seconds: run(0.1))
    assert ladder.main(["--src", f"tiny={tmp_path}", "--src",
                        f"ci={SRC}"]) == 0
    assert json.loads(capsys.readouterr().out)["src_lines"] == {
        "tiny": 4, "ci": package}

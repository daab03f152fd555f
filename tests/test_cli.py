"""The command-line front end: commands, exit codes, determinism, and the
cell-incidence file format."""

import json
import os
import subprocess
import sys
import time

import pytest

from rkdual.cli import main
from rkdual.checks import parse_document, run_command
from rkdual.corpus import CORPUS_NAMES, document
from rkdual.report import Report
from rkdual.simplicial import InputError


def write_doc(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(document(name)), encoding="utf-8")
    return str(path)


def test_verify_hexagon_document_passes(tmp_path, capsys):
    code = main(["verify", write_doc(tmp_path, "hex")])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: ok" in out
    assert "FAIL" not in out


def test_homology_table_for_the_hollow_triangle(tmp_path, capsys):
    code = main(["homology", write_doc(tmp_path, "circ3"), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tables"]["homology/CIRC3"] == {"0": "Z", "1": "Z"}


def test_homology_respects_ring_override(tmp_path, capsys):
    code = main(["homology", write_doc(tmp_path, "circ3"),
                 "--ring", "Z/2", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ring"] == "Z/2"
    assert payload["tables"]["homology/CIRC3"] == {"0": "Z/2", "1": "Z/2"}


def test_validate_names_the_offending_simplex(tmp_path, capsys):
    bad = {
        "complexes": {
            "X": {"vertices": ["a", "b"], "simplices": [["a", "b"]]},
            "K": {"vertices": ["u", "w"], "simplices": [["u"], ["w"]]},
        },
        "maps": {"pi": {"source": "X", "target": "K",
                        "vertices": {"a": "u", "b": "w"}}},
        "ring": "Z",
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "a.b" in err


def test_validate_rejects_a_map_naming_a_vertex_outside_its_source(
        tmp_path, capsys):
    bad = {
        "complexes": {
            "X": {"vertices": ["a", "b"], "simplices": [["a", "b"]]},
            "K": {"vertices": ["k"], "simplices": [["k"]]},
        },
        "maps": {"pi": {"source": "X", "target": "K",
                        "vertices": {"a": "k", "b": "k", "zz": "k"}}},
        "ring": "Z",
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("rkdual: error: ") and "zz" in err
    assert "Traceback" not in err


def test_parse_error_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json", encoding="utf-8")
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err


def test_missing_file_is_an_input_error(capsys):
    assert main(["verify", "no-such-file.json"]) == 2


def test_unreadable_input_is_an_input_error(tmp_path, capsys):
    assert main(["verify", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rkdual: error: cannot read input file")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "emit-cells"])
def test_unwritable_output_is_an_input_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "report.json"
    assert main([command, write_doc(tmp_path, "pt"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rkdual: error: cannot write output file {out}")
    assert "Traceback" not in err


def run_cli(*argv):
    """The command in a fresh interpreter, killed after 60 s."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from rkdual.cli import main; sys.exit(main())", *argv],
        env=env, capture_output=True, text=True, timeout=60)


def test_a_large_prime_modulus_verifies_in_seconds(tmp_path):
    start = time.perf_counter()
    done = run_cli("verify", write_doc(tmp_path, "edge"),
                   "--ring", f"Z/{2 ** 61 - 1}")
    assert done.returncode == 0 and "result: ok" in done.stdout
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("modulus", [2 ** 61 + 1, 10 ** 40, 2 ** 127 - 1])
def test_a_composite_or_too_large_modulus_is_rejected(tmp_path, modulus):
    done = run_cli("verify", write_doc(tmp_path, "edge"),
                   "--ring", f"Z/{modulus}")
    assert done.returncode == 2
    assert f"bad ring 'Z/{modulus}'" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("ring", ["Z/1_3", "Z/٧", "Z/ 7", "Z/+7", "Z/7.0",
                                  "Z/"])
def test_a_modulus_not_in_ascii_digits_is_rejected(tmp_path, capsys, ring):
    # int() reads "1_3" as 13 and "٧" and " 7" as 7: from the document or
    # from --ring, such a ring exits 2 instead of verifying over Z/13 or Z/7
    path = tmp_path / "doc.json"
    for doc_ring, argv in ((ring, []), ("Z", ["--ring", ring])):
        path.write_text(json.dumps({**document("edge"), "ring": doc_ring}),
                        encoding="utf-8")
        assert main(["verify", str(path)] + argv) == 2
        err = capsys.readouterr().err
        assert f"bad modulus in ring {ring!r}" in err
        assert "Traceback" not in err


def test_check_failures_exit_one(monkeypatch, tmp_path, capsys):
    failing = Report("verify", "Z", "doc")
    failing.add("synthetic", "t", False)
    monkeypatch.setattr("rkdual.cli.run_command",
                        lambda *a, **k: failing)
    code = main(["verify", write_doc(tmp_path, "pt")])
    assert code == 1


def test_machine_reports_are_deterministic(tmp_path):
    path = write_doc(tmp_path, "edge")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", path, "--format", "json", "--out", str(out1)]) == 0
    assert main(["verify", path, "--format", "json", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_random_sweep_is_seeded_and_deterministic(tmp_path):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    args = ["random", "--seed", "3", "--count", "5", "--format", "json"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_subdivide_command(tmp_path, capsys):
    code = main(["subdivide", write_doc(tmp_path, "id2"), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tables"]["subdivision/ID2"] == {"0": 7, "1": 12, "2": 6}


def test_ball_complex_command(tmp_path, capsys):
    code = main(["ball-complex", write_doc(tmp_path, "hex"), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tables"]["cells/pi"] == {"0": 12, "1": 12}


def test_dualize_command_emits_ranks_and_differentials(tmp_path, capsys):
    code = main(["dualize", write_doc(tmp_path, "edge"), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    table = payload["tables"]["dual/pi"]
    assert table["ranks"] == {"0": 3, "1": 2}
    assert table["ranks-by-label"] == {"a": 2, "a.b": 1, "b": 2}
    assert "1" in table["differentials"]


def test_emit_cells_identity_edge(tmp_path, capsys):
    code = main(["emit-cells", write_doc(tmp_path, "edge")])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 5
    by_id = {l.split()[0]: l for l in lines}
    assert by_id["(a|a)"] == "(a|a) 0"
    # the half-edge boundary carries one +1 and one -1, on the vertex cell
    # and the barycenter cell, matching the cellular boundary display
    parts = by_id["(a.b|a)"].split()
    assert parts[1] == "1"
    assert sorted(parts[2:]) == ["+1:(a|a)", "-1:(a.b|a.b)"]


def test_emit_cells_point_and_record_counts(tmp_path, capsys):
    code = main(["emit-cells", write_doc(tmp_path, "pt")])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert lines == ["(p|p) 0"]
    from rkdual.ballcomplex import BallComplex
    from rkdual.simplicial import barycentric_subdivision
    from oracles import corpus_kspace
    for name in CORPUS_NAMES:
        main(["emit-cells", write_doc(tmp_path, name)])
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        ks = corpus_kspace(name)
        ball = BallComplex(ks, barycentric_subdivision(ks.X))
        assert len(lines) == len(ball.cells)


EXPECTED_CHECKS = {
    "soundness/d-squared-and-support/chains",
    "soundness/d-squared-and-support/cochains",
    "soundness/d-squared-and-support/subdivision-chains",
    "soundness/d-squared-and-support/cell-chains",
    "soundness/d-squared-and-support/dual",
    "soundness/d-squared-and-support/double-dual",
    "soundness/derived-control-map",
    "soundness/subdivision-euler",
    "assembly/star-splitting",
    "tensor/projection-epimorphism",
    "tensor/hom-dual-isomorphism",
    "duality/functor-identity",
    "double-dual/defining-identity",
    "double-dual/naturality",
    "double-dual/equivalence/cochains",
    "double-dual/equivalence/subdivision-chains",
    "double-dual/equivalence/cell-chains",
    "cells/ball-structure",
    "cells/dual-cones",
    "cells/census",
    "cells/boundary-display",
    "cells/homology",
    "cells/identification-isomorphism",
    "cells/dual-homology",
    "cap/chain-map-and-pairing/control",
    "cap/factorization",
    "cap/monomorphism",
    "cap/fundamental-cycles",
    "equivalences/cells-to-subdivision",
    "equivalences/dual-to-subdivision",
    "equivalences/subdivision-dual-to-cochains",
    "naturality/identity-map",
    "naturality/control-square",
}


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_verify_covers_every_operation_on_each_corpus_document(name):
    report = run_command("verify", document(name), document_name=name)
    assert report.passed, [c.name for c in report.checks if not c.passed]
    names = set(c.name for c in report.checks)
    missing = EXPECTED_CHECKS - names
    assert not missing, missing
    # the contractible-star computation runs for every maximal simplex
    assert any(n.startswith("assembly/contractible-star/") for n in names)


def test_document_checks_filter():
    doc = document("edge")
    doc["checks"] = ["soundness"]
    report = run_command("verify", doc, document_name="edge")
    assert report.checks
    assert all(c.name.startswith("soundness/") for c in report.checks)


def test_parse_document_requires_complexes():
    with pytest.raises(InputError):
        parse_document({"maps": {}})
    with pytest.raises(InputError):
        parse_document({"complexes": {"X": {"simplices": [[]]}}})


def test_identity_kspaces_when_no_maps():
    doc = {"complexes": {"C": {"vertices": ["a", "b"],
                               "simplices": [["a", "b"]]}}, "ring": "Z"}
    parsed = parse_document(doc)
    assert len(parsed.kspaces) == 1
    name, ks = parsed.kspaces[0]
    assert name == "C" and ks.X == ks.K


COLLIDING = {"complexes": {"X": {"simplices": [["a.b", "c"], ["a", "b.c"]]}}}


@pytest.mark.parametrize("command", ["verify", "dualize", "emit-cells"])
def test_simplices_with_colliding_display_names(tmp_path, capsys, command):
    # the edges {a.b, c} and {a, b.c} both display as "a.b.c"
    path = tmp_path / "collide.json"
    path.write_text(json.dumps(COLLIDING), encoding="utf-8")
    code = main([command, str(path), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    if command != "emit-cells":
        payload = json.loads(out)
        assert payload["checks"]
        assert all(c["passed"] for c in payload["checks"])
    if command == "verify":
        names = [c["name"] for c in payload["checks"]]
        assert set(EXPECTED_CHECKS) <= set(names)
        assert len(names) == len(set(names))
        assert {'assembly/contractible-star/"a.b".c',
                'assembly/contractible-star/a."b.c"'} <= set(names)
    if command == "dualize":
        by_label = payload["tables"]["dual/X"]["ranks-by-label"]
        # six labels: four vertices and the two edges
        assert len(by_label) == 6
        assert sum(by_label.values()) == sum(
            payload["tables"]["dual/X"]["ranks"].values())


@pytest.mark.parametrize("patch,argv,bad", [
    ({"checks": ["bogus"]}, [], "'bogus'"),
    ({"checks": "cells"}, [], "'cells'"),
    ({}, ["--count", "-5"], "-5"),
    ({"complexes": {"X": {"simplices": [["a", "a"]]}}, "maps": {}}, [],
     "'a', 'a'"),
    ({"ring": "Z/4"}, [], "'Z/4'"),
    ({}, ["--ring", "Z/4"], "'Z/4'"),
    ({"ring": 5}, [], "5"),
    ({"complexes": {"X": {"simplices": [["a", 1]]}}, "maps": {}}, [], "1"),
    ({"complexes": {"X": {"simplices": [[True, "b"]]}}, "maps": {}}, [],
     "True"),
    ({"complexes": {"X": {"simplices": [[["a"], "b"]]}}, "maps": {}}, [],
     "['a']"),
    ({"maps": {"pi": {"source": "EDGE", "target": "EDGE",
                      "vertices": ["a", "b"]}}}, [], "['a', 'b']"),
    ({"maps": {"pi": {"source": ["X"], "target": "EDGE",
                      "vertices": {"a": "a", "b": "b"}}}}, [], "['X']"),
    ({"maps": [1]}, [], "[1]"),
    ({"maps": {"pi": 5}}, [], "5"),
    (b'{"complexes": {"X": {"simplices": [["\xff"]]}}}', [], "\\xff"),
    ({"complexes": {"X": {"simplices": []}}, "maps": {}}, [], "'X' is empty"),
    ({"maps": []}, [], "got []"),
    ({"maps": None}, [], "got None"),
    ({"maps": False}, [], "got False"),
    ({"maps": 0}, [], "got 0"),
    ({"maps": ""}, [], "got ''"),
    ({"complexes": {"X": {"vertices": ["a", "b", "a"],
                          "simplices": [["a", "b"]]}}, "maps": {}}, [],
     "duplicate vertex 'a'"),
    pytest.param(b'{"complexes": {"X": {"simplices": [["a", "b"]]}, '
                 b'"X": {"simplices": [["p"]]}}}', [], "repeated key 'X'",
                 id="repeated-complex"),
    pytest.param(b'{"complexes": {"E": {"simplices": [["a", "b"]]}}, '
                 b'"maps": {"pi": {"source": "E", "target": "E", "vertices": '
                 b'{"a": "a", "b": "b", "a": "b"}}}}', [], "repeated key 'a'",
                 id="repeated-vertex"),
    pytest.param(b'{"ring": "Z", "complexes": {"X": {"simplices": [["a"]]}}, '
                 b'"ring": "Q"}', [], "repeated key 'ring'",
                 id="repeated-ring"),
    # deeper than the parser recurses
    pytest.param(b"[" * 100000, [], "input nests too deeply",
                 id="nested-arrays"),
    pytest.param(b'{"a": ' * 100000, [], "input nests too deeply",
                 id="nested-objects"),
])
def test_malformed_input_is_rejected_with_its_value(tmp_path, capsys, patch,
                                                    argv, bad):
    path = tmp_path / "bad.json"
    if isinstance(patch, bytes):
        path.write_bytes(patch)
    else:
        doc = document("edge")
        doc.update(patch)
        path.write_text(json.dumps(doc), encoding="utf-8")
    command = "random" if "--count" in argv else "verify"
    code = main([command, str(path)] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("rkdual: error: ") and bad in err
    assert "Traceback" not in err


@pytest.mark.parametrize("builder,broken", [
    ("projection_map", ["tensor/projection-epimorphism"]),
    ("verify_equivalences", ["equivalences/cells-to-subdivision",
                             "equivalences/dual-to-subdivision",
                             "equivalences/subdivision-dual-to-cochains"]),
    ("maximal_label_ses", ["duality/exactness", "double-dual/natural-rows"]),
    # a shared build fails exactly the checks that read it
    ("KSpaceData.t_sub", ["double-dual/equivalence/subdivision-chains",
                          "equivalences/subdivision-dual-to-cochains"]),
    ("KSpaceData.t_k", ["double-dual/naturality",
                        "naturality/control-square"]),
])
def test_an_unexpected_exception_fails_only_its_check(tmp_path, capsys,
                                                      monkeypatch, builder,
                                                      broken):
    from rkdual import checks
    path = write_doc(tmp_path, "hex")
    assert main(["verify", path, "--format", "json"]) == 0
    clean = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]

    def raises(*args):
        raise KeyError("missing generator")
    owner, _, attr = builder.rpartition(".")
    if owner:                   # a lazy object of KSpaceData
        monkeypatch.setattr(getattr(checks, owner), attr, property(raises))
    else:
        monkeypatch.setattr(checks, builder, raises)
    code = main(["verify", path, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    payload = json.loads(captured.out)
    assert [c["name"] for c in payload["checks"]] == clean
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == broken
    for c in failed:
        assert c["details"]["error"] == "KeyError: 'missing generator'"


def test_a_raising_build_of_the_complexes_fails_checks(tmp_path, capsys,
                                                       monkeypatch):
    from rkdual import checks
    path = write_doc(tmp_path, "hex")
    assert main(["verify", path, "--format", "json"]) == 0
    clean = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]

    def raises(*args):
        raise KeyError("missing generator")
    monkeypatch.setattr(checks, "delta_complexes", raises)
    code = main(["verify", path, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    payload = json.loads(captured.out)
    assert [c["name"] for c in payload["checks"]] == clean
    failed = [c for c in payload["checks"] if not c["passed"]]
    # every check that reads the chains fails alone; the star lemma does not
    assert "soundness/d-squared-and-support/chains" in [c["name"] for c in failed]
    assert all(c["name"].startswith("assembly/contractible-star")
               for c in payload["checks"] if c["passed"])
    for c in failed:
        assert c["details"]["error"] == "KeyError: 'missing generator'"


def test_checks_accept_all_and_every_group():
    from rkdual.checks import CHECK_GROUPS
    for checks in (["all"], [group for group, _ in CHECK_GROUPS]):
        doc = document("pt")
        doc["checks"] = checks
        assert parse_document(doc).checks == checks

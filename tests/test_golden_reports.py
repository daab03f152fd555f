"""Byte-for-byte pins of the machine-readable reports.

The golden files under ``tests/golden`` hold the ``--format json`` output of
``verify``, ``dualize``, ``emit-cells``, ``ball-complex``, ``subdivide``,
``validate`` and ``homology`` on each document in ``documents/``, of
``verify --ring Q`` and ``verify --ring Z/2`` on each document, plus one
seeded ``random`` sweep.  A refactor that keeps behaviour keeps these bytes.  Regenerate them deliberately with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import os

import pytest

from rkdual.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
DOCUMENTS = sorted(f[:-5] for f in os.listdir(os.path.join(ROOT, "documents"))
                   if f.endswith(".json"))
CASES = [(cmd, doc, None) for doc in DOCUMENTS
         for cmd in ("verify", "dualize", "emit-cells", "ball-complex")
         ] + [("random", None, None)] + [
    ("verify", doc, ring) for doc in DOCUMENTS for ring in ("Q", "Z/2")] + [
    (cmd, doc, None) for doc in DOCUMENTS for cmd in ("subdivide", "validate", "homology")]


def case_id(cmd, doc, ring):
    """``verify-hex`` over the document's ring, ``verify-hex-Z2`` over Z/2."""
    return "-".join([cmd, str(doc)] + ([ring.replace("/", "")] if ring else []))


def golden_path(cmd, doc, ring):
    ext = "txt" if cmd == "emit-cells" else "json"
    name = case_id(cmd, doc or "seed0-count20", ring)
    return os.path.join(GOLDEN, f"{name}.{ext}")


def render(cmd, doc, ring, out_path):
    if doc is None:
        argv = ["random", "--seed", "0", "--count", "20"]
    else:
        argv = [cmd, os.path.join(ROOT, "documents", f"{doc}.json")]
    if ring:
        argv += ["--ring", ring]
    return main(argv + ["--format", "json", "--out", out_path])


@pytest.mark.parametrize("cmd,doc,ring", CASES,
                         ids=[case_id(*case) for case in CASES])
def test_report_bytes_match_golden(cmd, doc, ring, tmp_path):
    out = tmp_path / "report.json"
    assert render(cmd, doc, ring, str(out)) == 0
    with open(golden_path(cmd, doc, ring), "rb") as fh:
        assert out.read_bytes() == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for case in CASES:
        assert render(*case, golden_path(*case)) == 0, case

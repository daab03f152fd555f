"""Byte-for-byte pins of the machine-readable reports.

The golden files under ``tests/golden`` hold the ``--format json`` output of
``verify``, ``dualize``, ``emit-cells`` and ``ball-complex`` on each document
in ``documents/``, plus one seeded ``random`` sweep.  A refactor that keeps
behaviour keeps these bytes.  Regenerate them deliberately with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import os

import pytest

from rkdual.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
DOCUMENTS = sorted(f[:-5] for f in os.listdir(os.path.join(ROOT, "documents"))
                   if f.endswith(".json"))
CASES = [(cmd, doc) for doc in DOCUMENTS
         for cmd in ("verify", "dualize", "emit-cells", "ball-complex")
         ] + [("random", None)]


def golden_path(cmd, doc):
    ext = "txt" if cmd == "emit-cells" else "json"
    return os.path.join(GOLDEN, f"{cmd}-{doc or 'seed0-count20'}.{ext}")


def render(cmd, doc, out_path):
    if doc is None:
        argv = ["random", "--seed", "0", "--count", "20"]
    else:
        argv = [cmd, os.path.join(ROOT, "documents", f"{doc}.json")]
    return main(argv + ["--format", "json", "--out", out_path])


@pytest.mark.parametrize("cmd,doc", CASES)
def test_report_bytes_match_golden(cmd, doc, tmp_path):
    out = tmp_path / "report.json"
    assert render(cmd, doc, str(out)) == 0
    with open(golden_path(cmd, doc), "rb") as fh:
        assert out.read_bytes() == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for cmd, doc in CASES:
        assert render(cmd, doc, golden_path(cmd, doc)) == 0, (cmd, doc)

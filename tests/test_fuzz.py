"""Any JSON document ends in one of three ways under every document command:
it verifies (exit 0), a named check fails (exit 1), or it is rejected with
a message (exit 2).  Never a traceback, and never a vacuous pass."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from rkdual.cli import main

DOCUMENT_COMMANDS = ("validate", "subdivide", "ball-complex", "dualize",
                     "homology", "verify", "emit-cells")
NAMES = ("a", "b", "c", "d")
BAD = (1, None, "", "a", ["a"], {"a": "b"}, [], "Y")
GROUPS = ("all", "soundness", "assembly", "tensor", "duality", "cells", "cap",
          "equivalences", "naturality", "bogus", 3)


def complex_entry(draw, names):
    """A complex on some of ``names``: one simplex on all of them, or a few
    smaller ones, with or without a vertex list."""
    if len(names) <= 3 and draw(st.booleans()):
        simplices = [list(names)]
    else:
        simplices = draw(st.lists(
            st.lists(st.sampled_from(names), min_size=1, max_size=3,
                     unique=True), min_size=1, max_size=4))
    entry = {"simplices": simplices}
    if draw(st.booleans()):
        entry["vertices"] = sorted({v for s in simplices for v in s})
    return entry


@st.composite
def documents(draw):
    """A well-formed document of at most four vertex names, then, in about
    half the draws, one value replaced by one of another type or shape."""
    pick = st.lists(st.sampled_from(NAMES), min_size=1, max_size=4,
                    unique=True)
    x, k = complex_entry(draw, draw(pick)), complex_entry(draw, draw(pick))
    doc = {"complexes": {"X": x, "K": k}}
    if draw(st.booleans()):
        targets = sorted({v for s in k["simplices"] for v in s})
        images = {v: draw(st.sampled_from(targets))
                  for v in sorted({v for s in x["simplices"] for v in s})}
        doc["maps"] = {"pi": {"source": "X", "target": "K",
                              "vertices": images}}
    if draw(st.booleans()):
        doc["ring"] = draw(st.sampled_from(("Z", "Q", "Z/2", "Z/3", "Z/4", 5)))
    if draw(st.booleans()):
        doc["checks"] = draw(st.lists(st.sampled_from(GROUPS), max_size=2))
    # the first slot is drawn most often, so the slots go from a single
    # vertex up to the whole table of complexes
    slots = [(x["simplices"][0], 0), (k, "vertices"), (doc, "checks"),
             (doc, "ring"), (x["simplices"], 0), (doc, "maps"),
             (x, "simplices"), (doc["complexes"], "X"), (doc, "complexes")]
    if "maps" in doc:
        pi = doc["maps"]["pi"]
        slots[1:1] = [(pi["vertices"], sorted(pi["vertices"])[0]),
                      (pi, "vertices"), (pi, "source"), (pi, "target"),
                      (doc["maps"], "pi")]
    if draw(st.booleans()):
        holder, key = draw(st.sampled_from(slots))
        holder[key] = draw(st.sampled_from(BAD))
    return doc


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(command=st.sampled_from(DOCUMENT_COMMANDS), doc=documents())
def test_every_document_ends_in_one_of_three_ways(command, doc):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path, "--format", "json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("rkdual: error: ")
    if command == "verify" and code == 0:
        assert json.loads(out.getvalue())["checks"]

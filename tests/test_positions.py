"""A generator is its position: its label and name are read per degree.

``tests/data/names-hex.json`` pins the display name of every generator, in
basis order, of the complexes a verify builds on ``hex``, as rendered when
each generator was an object that recorded how it was built.  Names now
come from ``name(q, i)`` of each complex, and messages such as ``support
violated …`` and ``boundary display fails at …`` keep their text.
"""

import gc
import json
import os
import sys

import pytest

from rkdual import duality
from rkdual.checks import KSpaceData, run_command
from rkdual.corpus import document
from rkdual.rings import ZZ

from oracles import corpus_kspace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

import ladder  # noqa: E402

NAMES = os.path.join(os.path.dirname(__file__), "data", "names-hex.json")


def test_names_match_the_pinned_names_on_hex():
    data = KSpaceData(corpus_kspace("hex"), ZZ)
    H, HK, _ = data.dualizer.evaluation(data.deltas.dstar_x)
    complexes = {
        "dx": data.deltas.dx, "dstar_x": data.deltas.dstar_x,
        "dx_prime": data.deltas.dx_prime, "cells": data.cellular.rk,
        "tc": data.tc, "t2": data.t2, "t_sub": data.t_sub, "H": H, "HK": HK}
    with open(NAMES, encoding="utf-8") as fh:
        want = json.load(fh)
    assert list(want) == list(complexes)
    for key, cx in complexes.items():
        got = {str(q): [cx.name(q, i) for i in range(cx.rank(q))]
               for q in cx.degrees()}
        assert got == want[key], key


def test_the_square_allocates_nothing_per_generator():
    # the collector tracks no new object per generator of T²: its labels
    # are D's, shared, and its pairs are positions in one layout
    data = KSpaceData(corpus_kspace("hex"), ZZ)
    tc, dualizer = data.tc, data.dualizer
    gc.collect()
    before = len(gc.get_objects())
    t2 = dualizer.square(tc)
    gc.collect()
    assert len(gc.get_objects()) - before < t2.total_rank() == 36


@pytest.mark.parametrize("name", ["hex", "tri", "id-torus-7"])
def test_each_tensor_lays_out_its_pairs_once(monkeypatch, name):
    # every reader of a tensor's layout (f ⊗ 1, T(f), the projection, the
    # cellular identification, the Hom-to-dual isomorphism, the evaluation
    # and the collapse) takes it from the tensor its build left it on
    doc = (dict(ladder.RUNGS)[name]()[0] if name.startswith("id-") else
           document(name))
    calls = {"_layout": 0, "_tensor_complex": 0}
    for key in calls:
        def spy(*args, fn=getattr(duality, key), key=key, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(duality, key, spy)
    assert run_command("verify", doc).passed
    assert calls == {"_layout": 17, "_tensor_complex": 17}

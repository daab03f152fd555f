"""The combinatorics of a K-space, computed once, against checked rebuilds.

The subdivision X' is built by :meth:`SimplicialComplex._from_closed`,
which trusts its chains; the basis order of X' is read from a position
index; and every image under the control map is memoized.  Each is
compared here with the checked constructor, the ``(len, sort_key)`` sort
and a fresh canonicalization, on the corpus documents, three ladder rungs
and seeded random K-spaces.
"""

import gc
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

import ladder  # noqa: E402
from rkdual.checks import (KSpaceData, Report, parse_document,  # noqa: E402
                           verify_kspace)
from rkdual.corpus import CORPUS_NAMES, random_kspace  # noqa: E402
from rkdual.rings import ZZ  # noqa: E402
from rkdual.simplicial import SimplicialComplex  # noqa: E402

from oracles import corpus_kspace  # noqa: E402

RUNGS = ("id-torus-7", "grid-4-edge", "id-rp2")


def rung_kspace(name):
    doc = parse_document(dict(ladder.RUNGS)[name]()[0])
    (_, ks), = doc.kspaces
    return ks


def kspaces():
    for name in CORPUS_NAMES:
        yield name, corpus_kspace(name)
    for name in RUNGS:
        yield name, rung_kspace(name)
    for seed in range(50):
        yield f"random-{seed}", random_kspace(random.Random(seed))


CASES = list(kspaces())


@pytest.mark.parametrize("name,ks", CASES, ids=[name for name, _ in CASES])
def test_trusted_combinatorics_match_their_checked_rebuilds(name, ks):
    data = KSpaceData.build(ks, ZZ)
    assert not data.ball.check()            # fills the image memo too
    derived = data.deltas.derived_x
    prime = derived.prime
    chains = list(prime.all_simplices())

    checked = SimplicialComplex(prime.vertices, chains)
    assert prime == checked
    for p in range(checked.dim + 1):
        assert prime.simplices_of_dim(p) == checked.simplices_of_dim(p)

    random.Random(name).shuffle(chains)
    key = checked.sort_key
    for part in (chains, chains[: len(chains) // 3], chains[1::2]):
        assert derived.in_basis_order(part) == tuple(
            sorted(part, key=lambda c: (len(c), key(c))))

    memo = ks.pi._images
    assert set(ks.X.all_simplices()) <= set(memo)
    for s, image in memo.items():
        assert image == ks.K.canonical(set(ks.pi.mapping[v] for v in s))


@pytest.mark.parametrize("doc", ["hex", "id-torus-7"])
def test_a_verify_leaves_no_reference_cycles(doc):
    ks = corpus_kspace(doc) if doc in CORPUS_NAMES else rung_kspace(doc)
    gc.collect()
    gc.disable()
    try:
        report = Report("verify", str(ZZ), None)
        verify_kspace(report, doc, ks, ZZ)
        assert report.passed
        del report
    finally:
        gc.enable()
    assert gc.collect() == 0

"""The theorem in any vertex order: verify is invariant under relabelling.

K is always oriented in its lexicographic basis and the orientation pair
picks X's basis, so the order of the vertices fixes every sign of every
complex.  Here each complex of a document keeps its list of vertex names,
and every simplex is renamed by the bijection that reverses that list: the
first vertex takes the last name, and so on.  The 7-vertex torus is also
renamed by a seeded random bijection, since the reversal is one of its
automorphisms.  Each map is carried along.  The renamed K-space is
isomorphic to the original one, with its vertex order permuted, so an odd
permutation of a simplex's vertices flips its sign.  A verify over Z, Q
and Z/2 must give the same check names, verdicts and details under both
namings.  The check names that hold a simplex are
compared through the bijection.  The one exception is the ``split-label``
of ``duality/exactness``: it is the largest label in the sort order of the
names, which the bijection does not keep.
"""

import json
import os
import random
import sys

import pytest

from rkdual.checks import parse_document, run_command
from rkdual.corpus import CORPUS_NAMES, document

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

import ladder  # noqa: E402

RUNG = "id-torus-7"
# the checks whose names end in a simplex of K
LABELLED = "assembly/contractible-star/"


def payload(name):
    return dict(ladder.RUNGS)[name]()[0] if name == RUNG else document(name)


def renamed_by(doc, permute):
    """``doc`` with every vertex renamed by the bijection from the vertex
    order of K, the target of its map, onto ``permute`` of that list, and
    that bijection.  Each complex keeps its list of vertex names."""
    out = json.loads(json.dumps(doc))
    (entry,) = out["maps"].values()
    order = out["complexes"][entry["target"]]["vertices"]
    rename = dict(zip(order, permute(order)))
    for cx in out["complexes"].values():
        cx["simplices"] = [[rename.get(v, v) for v in s]
                           for s in cx["simplices"]]
    entry["vertices"] = {rename.get(v, v): rename.get(w, w)
                         for v, w in entry["vertices"].items()}
    return out, rename


def reversed_names(doc):
    """``doc`` renamed by the bijection that reverses K's vertex order."""
    return renamed_by(doc, lambda order: order[::-1])


def shuffled_names(doc, seed=7):
    """``doc`` renamed by a random bijection of K's vertices, drawn from
    ``seed``."""
    return renamed_by(doc, lambda order: random.Random(seed).sample(
        order, len(order)))


def verdicts(doc, ring, rename=None, order=None):
    """Check name and target -> verdict and details of a verify of ``doc``
    over ``ring``, without ``split-label``; the simplex in a check name is
    renamed by ``rename`` and written in ``order``."""
    out = {}
    for check in run_command("verify", doc, ring_override=ring).checks:
        name = check.name
        if rename and name.startswith(LABELLED):
            simplex = sorted((rename[v] for v in
                              name[len(LABELLED):].split(".")),
                             key=order.index)
            name = LABELLED + ".".join(simplex)
        details = {k: v for k, v in check.details.items()
                   if k != "split-label"}
        assert (name, check.target) not in out
        out[name, check.target] = (check.passed, details)
    return out


def same_verdicts(doc, renamed, rename, ring):
    """The verify of ``renamed``, ``doc`` renamed by ``rename``, gives the
    verdicts of ``doc``, and all pass."""
    (_, ks), = parse_document(doc).kspaces
    want = verdicts(doc, ring, rename, list(ks.K.vertices))
    got = verdicts(renamed, ring)
    assert got == want
    assert all(passed for passed, _ in got.values())


@pytest.mark.parametrize("ring", ["Z", "Q", "Z/2"])
@pytest.mark.parametrize("name", [*CORPUS_NAMES, RUNG])
def test_verify_is_the_same_under_the_reversed_vertex_order(name, ring):
    doc = payload(name)
    same_verdicts(doc, *reversed_names(doc), ring)


@pytest.mark.parametrize("ring", ["Z", "Q", "Z/2"])
def test_verify_of_the_torus_is_the_same_under_a_random_vertex_order(ring):
    doc = payload(RUNG)
    same_verdicts(doc, *shuffled_names(doc), ring)


# the reversal is an automorphism of pt, edge, id2, circ3 and the 7-vertex
# torus with their identity maps; on hex and tri it gives another map
@pytest.mark.parametrize("name", ["hex", "tri"])
def test_the_reversed_order_is_another_k_space(name):
    doc = payload(name)
    renamed, _ = reversed_names(doc)
    maps = [parse_document(d).kspaces[0][1].pi.mapping for d in (doc, renamed)]
    assert maps[0] != maps[1]
    # and T of its cochains has other entries
    duals = [run_command("dualize", d).tables for d in (doc, renamed)]
    assert duals[0] != duals[1]


def test_a_random_order_makes_the_torus_another_k_space():
    # the torus's triangles {i, i+1, i+3} go to other triples of names, so
    # the renamed K has other simplices, and T of its cochains other entries
    doc = payload(RUNG)
    renamed, rename = shuffled_names(doc)
    assert list(rename.values()) != list(rename)[::-1]
    simplices = [{frozenset(s) for s in
                  parse_document(d).kspaces[0][1].K.all_simplices()}
                 for d in (doc, renamed)]
    assert simplices[0] != simplices[1]
    duals = [run_command("dualize", d).tables for d in (doc, renamed)]
    assert duals[0] != duals[1]

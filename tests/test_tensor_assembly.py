"""The blocked tensor against its definition, computed densely.

``tests.oracles.blocked_tensor`` enumerates every pair of generators, keeps
those whose right label is a face of the left one, and writes each entry of
the Koszul differential from the row and column pairs; it shares no code
with :mod:`rkdual.duality`.  Both tensors are compared on the inputs a
verify gives them when it builds T and T² of the cochains of X.
"""

import pytest
from oracles import blocked_tensor

from rkdual.checks import KSpaceData
from rkdual.corpus import corpus_kspace
from rkdual.duality import tensor_k, tensor_r
from rkdual.rings import QQ, ZZ, Ring
from rkdual.rkcore import dual_star

RINGS = {"Z": ZZ, "Q": QQ, "Z/2": Ring.prime_field(2)}


def dense(C):
    labels = {q: [g.label for g in C.gens[q]] for q in C.degrees()}
    return labels, {q: mat.to_rows() for q, mat in C.diff.items()}


def inputs(name, ring):
    data = KSpaceData(corpus_kspace(name), ring)
    D = data.dualizer.dstar_k
    # the inputs of T and of T² of the cochains of X
    return (dual_star(data.deltas.dstar_x), D), (dual_star(data.tc), D)


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("name", ["tri", "circ3", "hex", "id2"])
@pytest.mark.parametrize("build,keep_all", [(tensor_k, False),
                                            (tensor_r, True)])
def test_tensor_matches_the_dense_definition(name, ring, build, keep_all):
    ring = RINGS[ring]
    for C, D in inputs(name, ring):
        got = build(C, D)
        pairs, diff = blocked_tensor(*dense(C), *dense(D), keep_all)
        assert got.degrees() == sorted(pairs)
        for q, ps in pairs.items():
            assert [g.data for g in got.gens[q]] == [
                ("tensor", C.gens[r][i], D.gens[s][j]) for r, i, s, j in ps]
        for q in got.degrees():
            want = diff.get(q)
            if want is None:
                assert q not in got.diff
            else:
                assert got.d(q).to_rows() == [[ring.coerce(v) for v in row]
                                              for row in want]

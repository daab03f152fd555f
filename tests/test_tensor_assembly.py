"""The blocked tensor against its definition, computed densely.

``tests.oracles.blocked_tensor`` enumerates every pair of generators, keeps
those whose right label is a face of the left one, and writes each entry of
the Koszul differential from the row and column pairs; it shares no code
with :mod:`rkdual.duality`.  Both tensors are compared on the inputs a
verify gives them when it builds T and T² of the cochains of X.

``tests.oracles.tensor_map`` writes f ⊗ 1 the same way, entry by entry
from the pairs of its two sides, and checks ``tensor_map_left`` and T(f) =
f* ⊗ 1 from ``Dualizer.map`` on the maps a verify tensors and dualizes.
"""

import pytest
from oracles import blocked_tensor, corpus_kspace, tensor_map, to_rows

from rkdual.checks import KSpaceData
from rkdual.duality import Dualizer, tensor_k, tensor_map_left, tensor_r
from rkdual.linalg import ChainComplexError
from rkdual.rings import QQ, ZZ, Ring
from rkdual.rkcore import RKMap, dual_star, maximal_label_ses

RINGS = {"Z": ZZ, "Q": QQ, "Z/2": Ring.prime_field(2)}


def dense(C):
    return C.labels, {q: to_rows(mat) for q, mat in C.diff.items()}


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
            # a pair is labeled by its right factor, and named by both
            assert got.labels[q] == tuple(D.labels[s][j] for _, _, s, j in ps)
            assert [got.name(q, k) for k in range(got.rank(q))] == [
                C.name(r, i) + "⊗" + D.name(s, j) for r, i, s, j in ps]
        for q in got.degrees():
            want = diff.get(q)
            if want is None:
                assert q not in got.diff
            else:
                assert to_rows(got.d(q)) == [[ring.coerce(v) for v in row]
                                              for row in want]


def pairs_of(left_labels, D, keep_all=False):
    """The kept pairs of the tensor of a left factor with the labels
    ``left_labels`` (by degree) and D, from the dense definition."""
    return blocked_tensor(left_labels, {}, D.labels, {}, keep_all)[0]


def labels(C, sign=1):
    """The labels of C by degree; with ``sign`` -1, those of its dual."""
    return {sign * q: C.labels[q] for q in C.degrees()}


def rows_of(f, transpose=False):
    """The row lists of each component of f, or of its transpose placed at
    the negated degree (the dual map f*)."""
    if not transpose:
        return {q: to_rows(mat) for q, mat in f.comps.items()}
    return {-q: [list(col) for col in zip(*to_rows(mat))]
            for q, mat in f.comps.items()}


def assert_matches(got, want, ring):
    for q in got.src.degrees():
        assert to_rows(got.component(q)) == [
            [ring.coerce(v) for v in row] for row in want[q]], q


def dualized_maps(data):
    """(name, f, T(f.tgt), T(f.src)) for the maps a verify dualizes: the
    inclusion and projection of the cochain split, the pullback along the
    control map and the cell map after the cellular identification."""
    dz = data.dualizer
    i, j, _ = maximal_label_ses(data.deltas.dstar_x)
    t_sub, t_quo = dz.object(i.src), dz.object(j.tgt)
    return [("inclusion", i, data.tc, t_sub),
            ("projection", j, t_quo, data.tc),
            ("pullback", data.pullback, data.tc, data.t_k),
            ("composite", data.composite, data.t_sub, data.t2)]


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("name", ["tri", "circ3", "hex", "id2"])
def test_duality_on_maps_matches_the_dense_definition(name, ring):
    ring = RINGS[ring]
    data = KSpaceData(corpus_kspace(name), ring)
    D = data.dualizer.dstar_k
    for key, f, src, tgt in dualized_maps(data):
        got = data.dualizer.map(f, src, tgt)
        want = tensor_map(rows_of(f, transpose=True),
                          pairs_of(labels(f.tgt, -1), D),
                          pairs_of(labels(f.src, -1), D))
        assert_matches(got, want, ring)


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("name", ["tri", "circ3", "hex", "id2"])
def test_the_pushforward_tensored_matches_the_dense_definition(name, ring):
    ring = RINGS[ring]
    data = KSpaceData(corpus_kspace(name), ring)
    D, push = data.dualizer.dstar_k, data.push
    got = tensor_map_left(push, tensor_k(push.src, D), tensor_k(push.tgt, D))
    want = tensor_map(rows_of(push), pairs_of(labels(push.src), D),
                      pairs_of(labels(push.tgt), D))
    assert_matches(got, want, ring)


@pytest.mark.parametrize("name", ["hex", "tri"])
def test_tensored_maps_refuse_sides_that_are_not_their_tensors(name):
    data = KSpaceData(corpus_kspace(name), ZZ)
    dz, push = data.dualizer, data.push
    D, other = dz.dstar_k, data.deltas.dstar_x      # two D over one K
    cells, cells_k = tensor_k(push.src, D), tensor_k(push.tgt, D)
    refused = [
        # swapped ends
        lambda: tensor_map_left(push, cells_k, cells),
        lambda: dz.map(data.pullback, data.t_k, data.tc),
        # a tensor over another D
        lambda: tensor_map_left(push, cells, tensor_k(push.tgt, other)),
        # a full tensor
        lambda: tensor_map_left(push, tensor_r(push.src, D), cells_k),
        lambda: tensor_map_left(push, cells, tensor_r(push.tgt, D)),
    ]
    for build in refused:
        with pytest.raises(ChainComplexError):
            build()


def test_the_dual_map_refuses_a_tensor_over_another_d():
    data = KSpaceData(corpus_kspace("hex"), ZZ)
    dz, pullback = data.dualizer, data.pullback
    other = Dualizer(data.ks.K, ZZ)
    other.dstar_k = data.deltas.dstar_x     # T over another D, same K
    t_x = other.object(pullback.tgt)
    assert t_x.dual_of is pullback.tgt.labels
    with pytest.raises(ChainComplexError):
        dz.map(pullback, t_x, data.t_k)


def test_the_dual_map_refuses_the_tensor_of_an_equal_copy():
    data = KSpaceData(corpus_kspace("hex"), ZZ)
    dz = data.dualizer
    # T(C) is of C itself: a second dual of the chains of X has the same
    # labels and names, but data.tc was built from the cochains of X
    copy = RKMap(data.pullback.src, dual_star(data.push.src),
                 data.pullback.comps)
    cochains = data.deltas.dstar_x
    assert copy.tgt.labels == cochains.labels
    assert all(copy.tgt.name(q, i) == cochains.name(q, i)
               for q in cochains.degrees() for i in range(cochains.rank(q)))
    assert dz.map(data.pullback, data.tc, data.t_k).src is data.tc
    with pytest.raises(ChainComplexError):
        dz.map(copy, data.tc, data.t_k)

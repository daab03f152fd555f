"""Complexes, orientations, incidence numbers, subdivision, K-spaces."""

import random

import pytest

from rkdual.linalg import homology
from rkdual.rings import ZZ
from rkdual.simplicial import (InputError, SimplicialComplex, SimplicialMap,
                               barycentric_subdivision, chain_complex,
                               derived_kspace, incidence_canonical,
                               permutation_sign, validate_kspace)
from rkdual.corpus import random_kspace

from oracles import boundary_alternating, count_decreasing_chains, to_rows


def build(*maximal):
    return SimplicialComplex.build(None, [list(s) for s in maximal])


def test_face_closure_and_vertex_simplices():
    cx = build("abc")
    assert cx.has(("a",)) and cx.has(("a", "b")) and cx.has(("a", "b", "c"))
    assert [len(cx.simplices_of_dim(p)) for p in range(3)] == [3, 3, 1]


def test_incidence_of_an_edge():
    edge = build("ab").canonical(("a", "b"))
    assert incidence_canonical(edge, ("b",)) == 1
    assert incidence_canonical(edge, ("a",)) == -1


def test_incidence_zero_unless_codimension_one():
    assert incidence_canonical(("a", "b", "c"), ("a",)) == 0
    assert incidence_canonical(("a", "b"), ("a", "c")) == 0


def test_incidence_triangle_against_ac():
    # Frozen from the hand expansion of the alternating sum.
    oracle = boundary_alternating(("a", "b", "c"))
    assert oracle[("a", "c")] == -1
    assert incidence_canonical(("a", "b", "c"), ("a", "c")) == -1


def test_incidence_respects_orientation_signs():
    cx = build("ab")
    flipped = ("b", "a")
    sign = permutation_sign(flipped, cx.canonical(flipped))
    assert sign == -1
    assert sign * incidence_canonical(cx.canonical(flipped), ("a",)) == 1


def test_chain_complex_point():
    cx = chain_complex(build("a"), ZZ)
    assert cx.degrees() == [0] and cx.rank(0) == 1
    assert cx.d(0).is_zero()


def test_chain_complex_circle_boundary():
    cx = chain_complex(build("ab", "bc", "ac"), ZZ)
    assert (cx.rank(0), cx.rank(1)) == (3, 3)
    # columns ab, ac, bc against rows a, b, c
    assert to_rows(cx.d(1)) == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]


def test_chain_complex_solid_triangle_d_squared():
    cx = chain_complex(build("abc"), ZZ)
    assert [cx.rank(p) for p in (0, 1, 2)] == [3, 3, 1]
    cx.validate()


def test_subdivision_of_an_edge():
    derived = barycentric_subdivision(build("ab"))
    assert sorted(derived.prime.all_simplices()) == [
        (("a",),),
        (("a", "b"),),
        (("a", "b"), ("a",)),
        (("a", "b"), ("b",)),
        (("b",),),
    ]


def test_subdivision_of_a_triangle():
    base = build("abc")
    derived = barycentric_subdivision(base)
    counts = [len(derived.prime.simplices_of_dim(p)) for p in range(3)]
    assert counts == [7, 12, 6]
    assert derived.prime.euler_characteristic() == 1


@pytest.mark.parametrize("maximal", [("ab",), ("abc",), ("abcd",),
                                     ("abc", "cd")])
def test_subdivision_counts_are_chain_counts(maximal):
    base = build(*maximal)
    derived = barycentric_subdivision(base)
    simplices = list(base.all_simplices())
    for p in range(derived.prime.dim + 1):
        assert (len(derived.prime.simplices_of_dim(p))
                == count_decreasing_chains(simplices, p + 1))


def test_validate_kspace_identity():
    cx = build("abc")
    ks = validate_kspace(cx, cx, {v: v for v in "abc"})
    assert ks.pi.image(("a", "b", "c")) == ("a", "b", "c")


def test_validate_kspace_hexagon_over_circle():
    hexagon = SimplicialComplex.build(
        None, [[f"x{i}", f"x{(i + 1) % 6}"] for i in range(6)])
    circle = SimplicialComplex.build(
        None, [["v0", "v1"], ["v1", "v2"], ["v0", "v2"]])
    assignment = {f"x{i}": f"v{i % 3}" for i in range(6)}
    ks = validate_kspace(hexagon, circle, assignment)
    # every hexagon edge lands on a circle edge
    for i in range(6):
        image = ks.pi.image((f"x{min(i, (i + 1) % 6)}",
                             f"x{max(i, (i + 1) % 6)}"))
        assert len(image) == 2 and circle.has(image)


def test_validate_kspace_collapse_cases():
    edge = build("ab")
    point = build("p")
    ks = validate_kspace(edge, point, {"a": "p", "b": "p"})
    assert ks.pi.image(("a", "b")) == ("p",)
    two_points = SimplicialComplex.build(["u", "w"], [["u"], ["w"]])
    with pytest.raises(InputError, match="a.b"):
        validate_kspace(edge, two_points, {"a": "u", "b": "w"})


def test_chain_image_signs():
    edge = build("ab")
    m = SimplicialMap(edge, edge, {"a": "b", "b": "a"})
    image, sign = m.chain_image(("a", "b"))
    assert image == ("a", "b") and sign == -1
    collapse = SimplicialMap(edge, build("p"), {"a": "p", "b": "p"})
    assert collapse.chain_image(("a", "b")) is None


@pytest.mark.parametrize("seed", range(100))
def test_random_complex_d_squared_and_subdivision_euler(seed):
    ks = random_kspace(random.Random(seed))
    chain_complex(ks.X, ZZ).validate()
    derived = barycentric_subdivision(ks.X)
    assert (derived.prime.euler_characteristic()
            == ks.X.euler_characteristic())


@pytest.mark.parametrize("seed", range(25))
def test_random_derived_control_map_is_simplicial(seed):
    ks = random_kspace(random.Random(seed))
    _, _, ks_prime = derived_kspace(ks)
    ks_prime.pi.validate()


def test_corpus_derived_control_maps(corpus):
    for name, ks in corpus.items():
        _, _, ks_prime = derived_kspace(ks)
        ks_prime.pi.validate()


def test_betti_over_q_matches_z_on_corpus(corpus):
    from rkdual.rings import QQ
    for ks in corpus.values():
        hz = homology(chain_complex(ks.X, ZZ))
        hq = homology(chain_complex(ks.X, QQ))
        for q in set(hz) | set(hq):
            assert hz[q].betti == hq[q].betti
            assert hq[q].torsion == ()

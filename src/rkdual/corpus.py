"""The curated document corpus and the seeded random K-space generator.

Six desk-scale documents: a point, the identity edge, a triangle collapsed
onto an edge, the triangle-boundary circle, the hexagon double-covering that
circle, and the identity solid triangle.  Random K-spaces take an arbitrary
complex on at most eight vertices and map it into a full simplex, so the
vertex assignment is automatically simplicial while still exercising
degenerate collapses.
"""

from __future__ import annotations

import random

from .simplicial import KSpace, SimplicialComplex, SimplicialMap


DOCUMENTS = {
    "pt": {
        "complexes": {"PT": {"vertices": ["p"], "simplices": [["p"]]}},
        "maps": {"pi": {"source": "PT", "target": "PT", "vertices": {"p": "p"}}},
        "ring": "Z",
    },
    "edge": {
        "complexes": {"EDGE": {"vertices": ["a", "b"], "simplices": [["a", "b"]]}},
        "maps": {"pi": {"source": "EDGE", "target": "EDGE",
                        "vertices": {"a": "a", "b": "b"}}},
        "ring": "Z",
    },
    "tri": {
        "complexes": {
            "TRI": {"vertices": ["a", "b", "c"], "simplices": [["a", "b", "c"]]},
            "EDGE": {"vertices": ["a", "b"], "simplices": [["a", "b"]]},
        },
        "maps": {"pi": {"source": "TRI", "target": "EDGE",
                        "vertices": {"a": "a", "b": "b", "c": "b"}}},
        "ring": "Z",
    },
    "circ3": {
        "complexes": {"CIRC3": {"vertices": ["a", "b", "c"],
                                "simplices": [["a", "b"], ["b", "c"], ["a", "c"]]}},
        "maps": {"pi": {"source": "CIRC3", "target": "CIRC3",
                        "vertices": {"a": "a", "b": "b", "c": "c"}}},
        "ring": "Z",
    },
    "hex": {
        "complexes": {
            "HEX": {"vertices": [f"x{i}" for i in range(6)],
                    "simplices": [[f"x{i}", f"x{(i + 1) % 6}"] for i in range(6)]},
            "CIRC3": {"vertices": ["v0", "v1", "v2"],
                      "simplices": [["v0", "v1"], ["v1", "v2"], ["v0", "v2"]]},
        },
        "maps": {"pi": {"source": "HEX", "target": "CIRC3",
                        "vertices": {f"x{i}": f"v{i % 3}" for i in range(6)}}},
        "ring": "Z",
    },
    "id2": {
        "complexes": {"ID2": {"vertices": ["a", "b", "c"],
                              "simplices": [["a", "b", "c"]]}},
        "maps": {"pi": {"source": "ID2", "target": "ID2",
                        "vertices": {"a": "a", "b": "b", "c": "c"}}},
        "ring": "Z",
    },
}

CORPUS_NAMES = tuple(DOCUMENTS)


def document(name: str) -> dict:
    import copy
    return copy.deepcopy(DOCUMENTS[name])


def random_kspace(rng: random.Random) -> KSpace:
    """A random complex on at most 8 vertices over a full simplex on at most
    4 vertices; small enough that double duals stay desk-scale."""
    n = rng.randint(1, 8)
    verts = [f"x{i}" for i in range(n)]
    maximal = [[v] for v in verts]
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, min(4, n))
        maximal.append(rng.sample(verts, size))
    X = SimplicialComplex.build(verts, maximal)
    m = rng.randint(1, 4)
    kverts = [f"k{i}" for i in range(m)]
    K = SimplicialComplex.build(kverts, [kverts])
    assignment = {v: rng.choice(kverts) for v in verts}
    return KSpace(X, K, SimplicialMap(X, K, assignment))


def random_kspaces(seed: int, count: int):
    rng = random.Random(seed)
    return [random_kspace(rng) for _ in range(count)]

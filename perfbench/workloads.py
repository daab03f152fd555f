"""Seeded inputs for the benchmark workloads, and the expected results.

Every input is generated here, from the benchmark seed alone, as an rkdual
JSON document: the program sees nothing but those documents.  Nothing in
this module imports rkdual, so the expectations it states (check counts,
textbook homology, Euler characteristics, cell censuses) are independent of
the code they check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable

# Documents per workload.  The fixed complexes get one vertex relabelling
# per document; a run cycles through the list, so later (faster) code only
# makes more passes over the same inputs.
RELABELINGS = 8
RANDOM_POOL = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str            # "verify" (full battery) or "random" (quick sweep)
    make: Callable          # random.Random -> list of documents
    group_counts: dict      # check-name prefix -> checks per K-space, at the seed
    homology: dict | None   # textbook homology table of X, or None if not reported
    trace_docs: int         # documents the traced run verifies, a fixed prefix

    def documents(self, seed: int) -> list:
        return self.make(random.Random(seed))


# --- fixed complexes ------------------------------------------------------

def grid_collapse(n: int):
    """The n x n grid, each square split along a diagonal, mapped onto an
    edge: column <= n/2 goes to one end, the rest to the other."""
    facets = []
    for r in range(n):
        for c in range(n):
            facets.append([(r, c), (r, c + 1), (r + 1, c + 1)])
            facets.append([(r, c), (r + 1, c), (r + 1, c + 1)])
    x_verts = [(r, c) for r in range(n + 1) for c in range(n + 1)]
    pi = {(r, c): 0 if c <= n / 2 else 1 for r, c in x_verts}
    return x_verts, facets, ([0, 1], [[0, 1]], pi)


def torus_identity():
    """The 7-vertex (Möbius) torus with its identity control map."""
    facets = []
    for i in range(7):
        facets.append([i, (i + 1) % 7, (i + 3) % 7])
        facets.append([i, (i + 2) % 7, (i + 3) % 7])
    return list(range(7)), facets, None


def relabel(space, rng: random.Random, ring: str) -> dict:
    """The same combinatorial type under fresh vertex names drawn by a
    random permutation; vertex lists are sorted by the new names, so the
    canonical order (and every default orientation) changes with the seed.
    ``space`` is (vertices, facets, control) with control None for the
    identity, else (control vertices, control facets, vertex map)."""
    x_verts, x_facets, control = space
    x_names = _shuffled_names("x", x_verts, rng)
    complexes = {"X": _complex_doc(x_verts, x_facets, x_names)}
    if control is None:
        target, assignment = "X", {n: n for n in x_names.values()}
    else:
        k_verts, k_facets, pi = control
        k_names = _shuffled_names("k", k_verts, rng)
        complexes["K"] = _complex_doc(k_verts, k_facets, k_names)
        target = "K"
        assignment = {x_names[a]: k_names[b] for a, b in pi.items()}
    return {"complexes": complexes,
            "maps": {"pi": {"source": "X", "target": target,
                            "vertices": assignment}},
            "ring": ring, "checks": ["all"]}


def _complex_doc(verts, facets, names):
    return {"vertices": sorted(names[v] for v in verts),
            "simplices": [[names[v] for v in s] for s in facets]}


def _shuffled_names(prefix, verts, rng):
    order = list(range(len(verts)))
    rng.shuffle(order)
    width = len(str(len(verts) - 1))
    return {v: f"{prefix}{order[i]:0{width}d}" for i, v in enumerate(verts)}


# --- random K-spaces ------------------------------------------------------

def frozen_random_document(rng: random.Random) -> dict:
    """A random complex on at most 8 vertices over a full simplex on at most
    4 vertices.  This freezes the distribution of ``corpus.random_kspace``
    at the commit that defined the benchmark (the same draws, in the same
    order), so a later change to that generator cannot move this workload."""
    n = rng.randint(1, 8)
    verts = [f"x{i}" for i in range(n)]
    maximal = [[v] for v in verts]
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, min(4, n))
        maximal.append(rng.sample(verts, size))
    m = rng.randint(1, 4)
    kverts = [f"k{i}" for i in range(m)]
    assignment = {v: rng.choice(kverts) for v in verts}
    return {"complexes": {"K": {"vertices": kverts, "simplices": [kverts]},
                          "X": {"vertices": verts, "simplices": maximal}},
            "maps": {"pi": {"source": "X", "target": "K",
                            "vertices": assignment}},
            "ring": "Z"}


# --- workloads ------------------------------------------------------------

def _relabelled(space, ring):
    return lambda rng: [relabel(space, rng, ring) for _ in range(RELABELINGS)]


def _random_pool(rng):
    return [frozen_random_document(rng) for _ in range(RANDOM_POOL)]


# Checks per name prefix in one K-space's report.  "assembly" holds one
# contractible-star check per maximal simplex of K (one on an edge).
VERIFY_GROUPS = {"soundness": 8, "assembly": 2, "tensor": 2, "duality": 2,
                 "double-dual": 6, "cells": 7, "cap": 4, "equivalences": 3,
                 "naturality": 2}

WORKLOADS = {w.name: w for w in (
    Workload(
        "grid-collapse",
        "verify over Z, 4x4 grid collapsed onto an edge: few labels, large "
        "per-label pieces, so Smith normal form (linalg) dominates",
        "verify", _relabelled(grid_collapse(4), "Z"), VERIFY_GROUPS,
        {"0": "Z"}, 1),
    Workload(
        "torus-identity",
        "verify over Z, identity on the 7-vertex torus: many small SNF calls; "
        "time goes to rkcore, ballcomplex and duality combinatorics",
        "verify", _relabelled(torus_identity(), "Z"),
        dict(VERIFY_GROUPS, assembly=15), {"0": "Z", "1": "Z^2", "2": "Z"}, 1),
    Workload(
        "random-sweep",
        "quick battery over 1000 seeded random K-spaces: no SNF, per-K-space "
        "fixed cost of building the complexes; throughput",
        "random", _random_pool, {"soundness": 8, "cells": 2}, None, 300),
    Workload(
        "grid-collapse-q",
        "verify over Q, 3x3 grid collapse: the same layers as grid-collapse "
        "on the field pivot path with Fraction entries",
        "verify", _relabelled(grid_collapse(3), "Q"), VERIFY_GROUPS,
        {"0": "Q"}, 1),
)}


# --- independent expectations ---------------------------------------------

def closure(facets) -> set:
    """Every nonempty face of the given simplices, as frozensets."""
    out = set()
    for s in facets:
        s = frozenset(s)
        for k in range(1, len(s) + 1):
            out.update(frozenset(f) for f in combinations(s, k))
    return out


def census(doc: dict) -> dict:
    """Simplices per dimension of X and of K, counted without rkdual."""
    mp = doc["maps"]["pi"]
    out = {}
    for side in ("source", "target"):
        spec = doc["complexes"][mp[side]]
        faces = closure(spec["simplices"] + [[v] for v in spec["vertices"]])
        dims = {}
        for f in faces:
            dims[len(f) - 1] = dims.get(len(f) - 1, 0) + 1
        out[side] = [dims[d] for d in sorted(dims)]
    return out


def euler(doc: dict) -> int:
    return sum((-1) ** d * n for d, n in enumerate(census(doc)["source"]))


def cell_census(doc: dict) -> dict:
    """Dual cells per dimension: one cell (T, s) for each simplex T of X and
    each face s of pi(T), of dimension dim T - dim s."""
    spec = doc["complexes"][doc["maps"]["pi"]["source"]]
    pi = doc["maps"]["pi"]["vertices"]
    out = {}
    for T in closure(spec["simplices"] + [[v] for v in spec["vertices"]]):
        image = {pi[v] for v in T}
        for k in range(1, len(image) + 1):
            dim = str(len(T) - k)
            out[dim] = out.get(dim, 0) + comb(len(image), k)
    return out

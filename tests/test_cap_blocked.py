"""The caps over the blocked tensor certify what the full tensor did.

``verify_cap_chain_map`` checks the identity d∘cap = cap∘d between the
blocked tensor of the chains of K with its cochains, the pairs tau ⊗ sigma*
with sigma <= tau, and the subdivision chains.  The oracle here keeps the
identity on the full tensor, every pair tau ⊗ sigma*, with the cap 0 off
the faces of tau as ``cap_product`` gives it; the two must agree, on sound
caps and on caps with a sign flipped.  Likewise ``verify_cap_factorization``
compares the cap after the pullback with the cell map on the blocked tensor
of the chains of X with the cochains of K, and the oracle on the full one,
through the projection; there the cap has no entry off the blocked pairs.
"""

import os
import random
import sys

import pytest

from rkdual import capproduct
from rkdual.checks import KSpaceData, parse_document
from rkdual.corpus import CORPUS_NAMES
from rkdual.duality import left_keys, tensor_r
from rkdual.linalg import Matrix
from rkdual.rings import QQ, Ring, ZZ
from rkdual.rkcore import RKMap, delta_chain, dual_star, simplicial_rk
from rkdual.simplicial import barycentric_subdivision, control_kspace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

import ladder  # noqa: E402
from oracles import (blocked_tensor, cap_on_the_full_tensor,  # noqa: E402
                     corpus_kspace)

RINGS = {"Z": ZZ, "Q": QQ, "Z/2": Ring.prime_field(2)}


def control_complexes():
    out = [(name, corpus_kspace(name).K) for name in CORPUS_NAMES]
    rungs = dict(ladder.RUNGS)
    for rung in ("id-sphere-3", "id-torus-7", "id-rp2"):
        (_, ks), = parse_document(rungs[rung]()[0]).kspaces
        out.append((rung, ks.K))
    return out


COMPLEXES = control_complexes()
IDS = [name for name, _ in COMPLEXES]


def full_tensor_identity(derived, ring) -> bool:
    """d∘cap = cap∘d on the full tensor of the chains of K with its
    cochains, capping every pair through ``capproduct.cap_product``."""
    cx = derived.base
    dxk = delta_chain(control_kspace(cx), ring)
    dual = dual_star(dxk)
    domain = tensor_r(dxk, dual)
    target = simplicial_rk(ring, cx, False, derived.prime, lambda c: c[-1])
    # the pair tau ⊗ sigma* of each position, from the tensor's definition
    pairs, _ = blocked_tensor(dxk.labels, {}, dual.labels, {}, True)

    def images(q, k):
        r, i, s, j = pairs[q][k]
        tau, sigma = dxk.keys[r][i], dxk.keys[-s][j]
        for flag, c in capproduct.cap_product(cx, tau, sigma).items():
            yield target.index_of(q, flag), c
    cap = RKMap.from_images(domain, target, images)
    return all(target.d(q) * cap.component(q)
               == cap.component(q - 1) * domain.d(q) for q in domain.degrees())


def full_identity(failures) -> bool:
    """Whether ``verify_cap_chain_map``, which found ``failures``, found the
    identity d∘cap = cap∘d on the blocked tensor to hold in every degree."""
    return not any(f.startswith("full identity") for f in failures)


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("name,K", COMPLEXES, ids=IDS)
def test_the_blocked_identity_agrees_with_the_full_one(name, K, ring):
    derived = barycentric_subdivision(K)
    failures = capproduct.verify_cap_chain_map(derived, RINGS[ring])
    assert full_identity(failures) == full_tensor_identity(derived,
                                                           RINGS[ring])
    assert not failures, failures


# a sign is invisible over Z/2, so the flip fails over Z and Q only, and
# only where the cap has a boundary: not on an isolated vertex
@pytest.mark.parametrize("ring", ["Z", "Q"])
@pytest.mark.parametrize("name,K", COMPLEXES, ids=IDS)
def test_a_flipped_cap_sign_fails_both_identities(monkeypatch, name, K, ring):
    cap, rng, ring = capproduct.cap_product, random.Random(name), RINGS[ring]
    for _ in range(3):
        tau = rng.choice(list(K.all_simplices()))
        sigma = rng.choice(K.closure(tau))
        flag = rng.choice(sorted(cap(K, tau, sigma)))

        def flip(cx, t, s, basis=None):
            out = cap(cx, t, s, basis)
            if (t, s) == (tau, sigma):
                out[flag] = -out[flag]
            return out
        monkeypatch.setattr(capproduct, "cap_product", flip)
        derived = barycentric_subdivision(K)
        got = full_identity(capproduct.verify_cap_chain_map(derived, ring))
        assert got == full_tensor_identity(derived, ring)
        assert got == (K.star(tau) == (tau,) == K.closure(tau)), (tau, sigma)


@pytest.mark.parametrize("name,K", COMPLEXES, ids=IDS)
def test_the_cap_domain_is_the_pairs_of_faces(monkeypatch, name, K):
    domains = []
    blocked = capproduct.tensor_k

    def spied(C, D):
        domains.append(blocked(C, D))
        return domains[-1]
    monkeypatch.setattr(capproduct, "tensor_k", spied)
    capproduct.verify_cap_chain_map(barycentric_subdivision(K), ZZ)
    (domain,) = domains
    # tau ⊗ sigma* sits in degree dim tau - dim sigma
    want = {}
    for tau in K.all_simplices():
        for sigma in K.closure(tau):
            q = len(tau) - len(sigma)
            want[q] = want.get(q, 0) + 1
    assert {q: domain.rank(q) for q in domain.degrees()
            if domain.rank(q)} == want
    if name == "id-torus-7":
        assert domain.total_rank() == 168


def cell_map(name):
    """The K-space of a corpus document or ladder rung, and its objects."""
    rungs = dict(ladder.RUNGS)
    if name in rungs:
        doc = parse_document(rungs[name]()[0])
        (_, ks), = doc.kspaces
        return ks, KSpaceData.build(ks, doc.ring)
    ks = corpus_kspace(name)
    return ks, KSpaceData.build(ks, ZZ)


@pytest.mark.parametrize("name", [*CORPUS_NAMES,
                                  *(rung for rung, _ in ladder.RUNGS)])
def test_the_cap_factorization_on_the_blocked_tensor_is_the_full_one(name):
    ks, data = cell_map(name)
    cmap = data.fundamental_cycles
    lhs, proj = cap_on_the_full_tensor(data)
    assert capproduct.verify_cap_factorization(ks, cmap, data.cellular)
    assert lhs == cmap.compose(proj)
    # only a face S of T caps against T, and then pi(S) = rho ⊆ pi(T): the
    # cap has no entry at a pair T ⊗ rho* the projection kills
    full, simplices = lhs.src, left_keys(lhs.src, data.deltas.dx.keys)
    assert full.total_rank() > data.cellular.rk.total_rank() or name == "pt"
    for q, mat in lhs.comps.items():
        for k, _ in mat.columns():
            assert set(full.labels[q][k]) <= set(ks.pi.image(simplices[q][k]))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_a_negated_cell_map_entry_fails_both_factorizations(name):
    ks, data = cell_map(name)
    cmap = data.fundamental_cycles
    lhs, proj = cap_on_the_full_tensor(data)
    rng = random.Random(name)
    for _ in range(3):
        q = rng.choice(sorted(cmap.comps))
        entries = dict(cmap.comps[q].entries())
        key = rng.choice(sorted(entries))
        entries[key] = -entries[key]
        comps = {**cmap.comps, q: Matrix(
            data.ring, cmap.comps[q].nrows, cmap.comps[q].ncols, entries)}
        bad = RKMap(cmap.src, cmap.tgt, comps)
        assert not capproduct.verify_cap_factorization(ks, bad, data.cellular)
        assert lhs != bad.compose(proj)

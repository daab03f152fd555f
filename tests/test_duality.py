"""Blocked tensor products, the duality functor, and the double-dual
collapse, including the single-label case and the induction splitting."""

import os
import sys

import pytest

from rkdual import capproduct, checks, duality, linalg
from rkdual.checks import parse_document, verify_kspace
from rkdual.corpus import CORPUS_NAMES
from rkdual.linalg import (ChainComplexError, HomologyGroup, Matrix, homology,
                           is_acyclic, is_cone_acyclic, mapping_cone,
                           smith_normal_form)
from rkdual.report import Report
from rkdual.rings import QQ, Ring, ZZ
from rkdual.rkcore import (RKComplex, RKMap, ShortExactSequence,
                           delta_chain, delta_complexes, delta_star_k,
                           dual_star, dual_star_map, hom_rk,
                           maximal_label_ses)
from rkdual.duality import (Dualizer, hom_dual_iso, projection_map,
                            reduced_cone, tensor_k, tensor_map_left, tensor_r,
                            verify_diagonal_equivalence)
from rkdual.simplicial import SimplicialComplex, control_map, simplex_name
from rkdual.ballcomplex import OrientationPair, induced_chain_map

from oracles import (blocked_tensor, corpus_kspace, diagonal, double_dual,
                     epsilon, from_rows, hom_to_dual_via_double_dual, to_rows)
from test_kspace_data import count_calls

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

import ladder  # noqa: E402

GF2 = Ring.prime_field(2)


def build(*maximal):
    return SimplicialComplex.build(None, [list(s) for s in maximal])


def atom(K, label, q, op=False):
    return RKComplex(ZZ, K, op, {q: (label,)}, {}, {q: (label,)})


def proj_of(C, D):
    """The projection from the full tensor of C and D onto the blocked one."""
    return projection_map(tensor_r(C, D), tensor_k(C, D))


def psi_of(C, D):
    """The isomorphism Hom(D, C*) -> (C ⊗ D)* over the blocked tensor."""
    return hom_dual_iso(hom_rk(D, dual_star(C)), tensor_k(C, D))


def collapse(dz, C):
    """T(C) and the double-dual collapse of C, whose source is T²C."""
    tc = dz.object(C)
    return tc, dz.double_dual_map(C, tc, dz.square(tc))


def control_pullback(ks):
    """The pullback of cochains along the control map of ``ks``."""
    fmap = control_map(ks)
    or_src = OrientationPair.standard(ks)
    or_tgt = OrientationPair.standard(fmap.tgt)
    return dual_star_map(induced_chain_map(
        fmap, delta_chain(ks, ZZ, or_src.bx),
        delta_chain(fmap.tgt, ZZ, or_tgt.bx), or_src, or_tgt))


# ------------------------------------------------------------- tensors

def test_tensor_and_hom_without_differentials_build_no_zero_matrix(
        monkeypatch):
    K = build("ab")

    def flat(op):
        simplices = {0: (("a",), ("b",)), 1: (("a", "b"),)}
        return RKComplex(ZZ, K, op, simplices, {}, simplices)

    zeros, zero = [], Matrix.zero.__func__
    monkeypatch.setattr(Matrix, "zero", classmethod(
        lambda cls, *shape: zeros.append(shape) or zero(cls, *shape)))
    tk = tensor_k(flat(True), flat(False))
    hom = hom_rk(flat(False), flat(False))
    assert zeros == []
    assert tk.total_rank() == 5 and not tk.diff
    assert hom.total_rank() == 5 and not hom.diff


def test_tensor_over_a_point_is_the_full_tensor(corpus):
    dc = delta_complexes(corpus["pt"], ZZ)
    dstark = delta_star_k(corpus["pt"].K, ZZ)
    tk = tensor_k(dc.dx, dstark)
    tr = tensor_r(dc.dx, dstark)
    assert {q: tk.rank(q) for q in tk.degrees()} == \
           {q: tr.rank(q) for q in tr.degrees()}


def test_tensor_census_on_the_edge(edge_ks):
    dc = delta_complexes(edge_ks, ZZ)
    dstark = delta_star_k(edge_ks.K, ZZ)
    tk = tensor_k(dc.dx, dstark)
    assert {q: tk.rank(q) for q in tk.degrees()} == {0: 3, 1: 2}
    names = sorted(tk.name(1, i) for i in range(tk.rank(1)))
    assert names == ["<a.b>⊗<a>*", "<a.b>⊗<b>*"]
    tk.validate()                     # includes d∘d = 0


def test_projection_on_surviving_and_dying_pairs(edge_ks):
    dc = delta_complexes(edge_ks, ZZ)
    dstark = delta_star_k(edge_ks.K, ZZ)
    proj = proj_of(dc.dx, dstark)
    proj.validate()                   # chain map over each degree
    src_names, tgt_names = ({q: [t.name(q, i) for i in range(t.rank(q))]
                             for q in t.degrees()}
                            for t in (proj.src, proj.tgt))
    # a pair whose left label contains the right label maps to itself
    q = 0
    j = src_names[0].index("<a>⊗<a>*")
    col = [(i, v) for (i, jj), v in proj.component(0).entries() if jj == j]
    assert col == [(tgt_names[0].index("<a>⊗<a>*"), 1)]
    # a pair whose left label misses the star dies
    j = src_names[0].index("<a>⊗<b>*")
    assert all(jj != j for (_, jj), _ in proj.component(0).entries())


def test_projection_chain_identity_on_hexagon(hex_ks):
    dc = delta_complexes(hex_ks, ZZ)
    dstark = delta_star_k(hex_ks.K, ZZ)
    proj_of(dc.dx, dstark).validate()


def test_blocked_tensor_is_the_image_of_the_projection(edge_ks, hex_ks):
    for ks in (edge_ks, hex_ks):
        dc = delta_complexes(ks, ZZ)
        dstark = delta_star_k(ks.K, ZZ)
        proj = proj_of(dc.dx, dstark)
        # the pairs (r, i, s, j) of the full tensor, from its definition
        pairs, _ = blocked_tensor(dc.dx.labels, {}, dstark.labels, {}, True)
        for q in proj.src.degrees():
            survivors = set()
            for k, (r, i, s, j) in enumerate(pairs[q]):
                if set(dstark.labels[s][j]) <= set(dc.dx.labels[r][i]):
                    survivors.add(k)
            hit = set(j for (_, j), _ in proj.component(q).entries())
            assert hit == survivors
            assert len(survivors) == proj.tgt.rank(q)


# ------------------------------------------------------------- hom-dual iso

def test_hom_dual_iso_on_a_point_is_the_identity(corpus):
    pt = corpus["pt"]
    dc = delta_complexes(pt, ZZ)
    dstark = delta_star_k(pt.K, ZZ)
    psi = psi_of(dc.dx, dstark)
    psi.validate()
    assert to_rows(psi.component(0)) == [[1]]


def test_hom_dual_iso_sign_in_odd_degrees():
    # |x| = |y| = 1 forces the sign -1
    K = build("p")
    C = atom(K, ("p",), 1, op=True)
    D = atom(K, ("p",), 1, op=False)
    psi = psi_of(C, D)
    (mat,) = [psi.component(q) for q in psi.degrees_hit()
              if not psi.component(q).is_zero()]
    assert to_rows(mat) == [[-1]]


def test_hom_dual_iso_rank_equality_on_the_edge(edge_ks):
    dc = delta_complexes(edge_ks, ZZ)
    dstark = delta_star_k(edge_ks.K, ZZ)
    psi = psi_of(dc.dx, dstark)
    psi.validate()
    assert psi.is_bijection_on_bases()
    # per-degree, per-label ranks agree on both sides
    for q in set(psi.src.degrees()) | set(psi.tgt.degrees()):
        src, tgt = psi.src.labels.get(q, ()), psi.tgt.labels.get(q, ())
        for side_label in set(src) | set(tgt):
            n_src = sum(1 for label in src if label == side_label)
            n_tgt = sum(1 for label in tgt if label == side_label)
            assert n_src == n_tgt


@pytest.mark.parametrize("name", [*CORPUS_NAMES, "id-torus-7", "id-rp2"])
def test_hom_dual_iso_into_t_is_the_route_through_the_double_dual(name):
    # into T(C) the isomorphism starts from Hom(D, C); the oracle goes
    # through Hom(D, C**) and the identification C -> C**
    rungs = dict(ladder.RUNGS)
    ks = (parse_document(rungs[name]()[0]).kspaces[0][1] if name in rungs
          else corpus_kspace(name))
    C, D = delta_complexes(ks, ZZ).dstar_x, delta_star_k(ks.K, ZZ)
    want = hom_to_dual_via_double_dual(D.labels, C.labels,
                                       double_dual(C).labels)
    for ring in (ZZ, QQ, GF2):
        dz = Dualizer(ks.K, ring)
        cochains = delta_complexes(ks, ring).dstar_x
        H, tc = hom_rk(dz.dstar_k, cochains), dz.object(cochains)
        psi = hom_dual_iso(H, tc)
        assert set(want) == {p for p in H.degrees() if H.rank(p)}
        for p, (gens, rows) in want.items():
            assert list(H.keys[p]) == gens
            assert to_rows(psi.component(p)) == [
                [ring.coerce(v) for v in row] for row in rows], (name, p)


# ------------------------------------------------------------- the functor

def test_duality_over_a_point_is_the_plain_dual(corpus):
    pt = corpus["pt"]
    dc = delta_complexes(pt, ZZ)
    dz = Dualizer(pt.K, ZZ)
    tc = dz.object(dc.dstar_x)
    plain = dual_star(dc.dstar_x)
    assert {q: tc.rank(q) for q in tc.degrees()} == \
           {q: plain.rank(q) for q in plain.degrees()}


def test_duality_ranks_for_identity_edge(edge_ks):
    dc = delta_complexes(edge_ks, ZZ)
    dz = Dualizer(edge_ks.K, ZZ)
    tc = dz.object(dc.dstar_x)
    assert {q: tc.rank(q) for q in tc.degrees()} == {0: 3, 1: 2}


def test_duality_functor_identity_and_composition(hex_ks):
    dc = delta_complexes(hex_ks, ZZ)
    dz = Dualizer(hex_ks.K, ZZ)
    tc = dz.object(dc.dstar_x)
    assert dz.map(RKMap.identity(dc.dstar_x), tc, tc) == RKMap.identity(tc)
    # contravariance on a composable pair
    pullback = control_pullback(hex_ks)     # control cochains -> X cochains
    t_x = dz.object(pullback.tgt)
    t_k, e_k = collapse(dz, pullback.src)   # T^2 -> control cochains
    t3_k = dz.object(e_k.src)
    composite = pullback.compose(e_k)
    assert dz.map(composite, t_x, t3_k) == \
        dz.map(e_k, t_k, t3_k).compose(dz.map(pullback, t_x, t_k))


def test_duality_preserves_exactness(hex_ks):
    dc = delta_complexes(hex_ks, ZZ)
    dz = Dualizer(hex_ks.K, ZZ)
    ses, _ = maximal_label_ses(dc.dstar_x)
    t_sub, t_tot, t_quo = (dz.object(C) for C in
                           (ses.i.src, ses.i.tgt, ses.j.tgt))
    ShortExactSequence(dz.map(ses.j, t_quo, t_tot),
                       dz.map(ses.i, t_tot, t_sub)).validate()


def test_dual_star_preserves_exactness(hex_ks):
    dc = delta_complexes(hex_ks, ZZ)
    ses, _ = maximal_label_ses(dc.dx_prime)
    i_star = dual_star_map(ses.i)           # j* lands on the dual i* leaves
    flipped = ShortExactSequence(dual_star_map(ses.j, tgt=i_star.src), i_star)
    flipped.validate()


# ------------------------------------------------------------- the collapse

def test_collapse_on_a_point_is_an_isomorphism_up_to_sign(corpus):
    pt = corpus["pt"]
    dz = Dualizer(pt.K, ZZ)
    for q in (0, 1, 2):
        C = atom(pt.K, ("p",), q)
        _, e = collapse(dz, C)
        mat = e.component(q)
        assert to_rows(mat) == [[(-1) ** (q % 2)]]
        eps = epsilon(C)
        assert mat == eps.component(q)


def test_collapse_defining_identity_on_corpus(corpus):
    for name, ks in corpus.items():
        dc = delta_complexes(ks, ZZ)
        dz = Dualizer(ks.K, ZZ)
        H, HK, ev = dz.evaluation(dc.dstar_x)
        ev.validate()
        tc, e = collapse(dz, dc.dstar_x)
        iso = tensor_map_left(hom_dual_iso(H, tc), HK, e.src)
        iso.validate()
        assert iso.is_bijection_on_bases()
        assert e.compose(iso) == ev, name


def test_collapse_naturality_along_control_pullback(hex_ks):
    dz = Dualizer(hex_ks.K, ZZ)
    pullback = control_pullback(hex_ks)
    t_x, e_x = collapse(dz, pullback.tgt)
    t_k, e_k = collapse(dz, pullback.src)
    tt = dz.map(dz.map(pullback, t_x, t_k), e_k.src, e_x.src)
    assert e_x.compose(tt) == pullback.compose(e_k)


def test_the_collapse_reads_t_and_t_squared_of_its_own_complex(hex_ks):
    # a twin with the labels, ranks and differential of C is not C: the
    # collapse of C refuses T and T² of the twin, a T² that is not T² of
    # the T(C) it is given, and a tensor given as T(C) that is not T(C)
    dz = Dualizer(hex_ks.K, ZZ)
    C = delta_complexes(hex_ks, ZZ).dstar_x
    twin = RKComplex(ZZ, C.K, C.op, C.labels, C.diff)
    tc, t_twin = dz.object(C), dz.object(twin)
    dz.double_dual_map(C, tc, dz.square(tc)).validate()
    for args in ((C, tc, dz.square(t_twin)), (C, t_twin, dz.square(t_twin)),
                 (C, tensor_k(dual_star(C), dz.dstar_k), dz.square(tc)),
                 (C, dz.square(tc), dz.square(tc)), (C, tc, tc)):
        with pytest.raises(ChainComplexError, match="of its own C"):
            dz.double_dual_map(*args)


def test_collapse_is_an_epimorphism_per_label(edge_ks, tri_ks):
    for ks in (edge_ks, tri_ks):
        dc = delta_complexes(ks, ZZ)
        dz = Dualizer(ks.K, ZZ)
        _, e = collapse(dz, dc.dstar_x)
        for sigma in ks.K.all_simplices():
            cm = e.diagonal_component(sigma)
            for q in cm.tgt.degrees():
                mat = cm.component(q)
                factors, rank = smith_normal_form(mat)
                assert rank == mat.nrows
                assert all(ZZ.is_unit(f) for f in factors)


def test_single_label_collapse_is_an_isomorphism_there():
    # a complex concentrated at a maximal simplex: the diagonal component at
    # that simplex is a bijection on bases, all other labels acyclic
    K = build("abc")
    S = ("a", "b", "c")
    C = RKComplex(ZZ, K, False, {0: (S,), 1: (S,)},
                  {1: from_rows(ZZ, [[2]])})
    dz = Dualizer(K, ZZ)
    _, e = collapse(dz, C)
    cm = e.diagonal_component(S)
    for q in (0, 1):
        assert to_rows(cm.component(q)) in ([[1]], [[-1]])
    rep = verify_diagonal_equivalence(collapse(dz, C)[1], "double-dual")
    assert rep.passed


def test_diagonal_equivalence_rejects_non_chain_maps():
    K = build("abc")
    S = ("a", "b", "c")
    C = RKComplex(ZZ, K, False, {0: (S,), 1: (S,)},
                  {1: from_rows(ZZ, [[1]])})
    bad = RKMap(C, C, {0: from_rows(ZZ, [[1]]),
                       1: Matrix.zero(ZZ, 1, 1)})
    with pytest.raises(ChainComplexError, match="not a chain map at degree 1"):
        verify_diagonal_equivalence(bad, "bad")


def test_collapse_equivalence_on_corpus_over_z_and_z2(corpus):
    for name, ks in corpus.items():
        for ring in (ZZ, GF2):
            dc = delta_complexes(ks, ring)
            dz = Dualizer(ks.K, ring)
            for cx in (dc.dstar_x, dc.dx_prime):
                rep = verify_diagonal_equivalence(collapse(dz, cx)[1],
                                                  "double-dual")
                assert rep.passed, (name, str(ring), rep.failures())


def test_induction_splitting_diagram(hex_ks):
    # rows exact, verticals natural, for the split at a maximal label
    dc = delta_complexes(hex_ks, ZZ)
    dz = Dualizer(hex_ks.K, ZZ)
    ses, top = maximal_label_ses(dc.dstar_x)
    t_sub, e_sub = collapse(dz, ses.i.src)
    t_tot, e_tot = collapse(dz, ses.i.tgt)
    t_quo, e_quo = collapse(dz, ses.j.tgt)
    ShortExactSequence(dz.map(ses.j, t_quo, t_tot),    # exact rows downstairs
                       dz.map(ses.i, t_tot, t_sub)).validate()
    tt_i = dz.map(dz.map(ses.i, t_tot, t_sub), e_sub.src, e_tot.src)
    tt_j = dz.map(dz.map(ses.j, t_quo, t_tot), e_tot.src, e_quo.src)
    assert e_tot.compose(tt_i) == ses.i.compose(e_sub)
    assert e_quo.compose(tt_j) == ses.j.compose(e_tot)
    assert len(top) == 2


def test_betti_over_q_matches_z_for_all_built_complexes(corpus):
    from rkdual.rings import Ring
    from rkdual.checks import KSpaceData
    QQ = Ring.rationals()
    for name, ks in corpus.items():
        dz = KSpaceData.build(ks, ZZ)
        dq = KSpaceData.build(ks, QQ)
        for key in dz.complexes():
            hz = homology(dz.complexes()[key])
            hq = homology(dq.complexes()[key])
            for q in set(hz) | set(hq):
                assert hz[q].betti == hq[q].betti, (name, key, q)
                assert hq[q].torsion == ()


def per_label_failures(f):
    """The labels whose own diagonal component has a non-acyclic cone."""
    K = f.src.K
    return sorted(simplex_name(s) for s in K.all_simplices()
                  if not is_cone_acyclic(f.diagonal_component(s)))


def certified_maps(monkeypatch, corpus, ring):
    """Every map that a verify of the corpus over ``ring`` certifies."""
    certified = []
    verify = duality.verify_diagonal_equivalence

    def spy(f, name):
        certified.append(f)
        return verify(f, name)
    for module in (duality, capproduct, checks):
        monkeypatch.setattr(module, "verify_diagonal_equivalence", spy)
    for name, ks in corpus.items():
        report = Report("verify", str(ring))
        verify_kspace(report, name, ks, ring)
        assert report.checks and report.passed, name
    assert len(certified) == 6 * len(corpus)
    return certified


@pytest.mark.parametrize("ring", [ZZ, QQ, GF2], ids=["Z", "Q", "Z2"])
def test_the_one_cone_decides_as_the_per_label_cones_do(monkeypatch, corpus,
                                                        ring):
    # every map a verify certifies: the cone of the diagonal is the direct
    # sum of the per-label cones, so its homology is theirs added up
    for f in certified_maps(monkeypatch, corpus, ring):
        whole = homology(mapping_cone(diagonal(f)))
        parts = [homology(mapping_cone(f.diagonal_component(s)))
                 for s in f.src.K.all_simplices()]
        for q, h in whole.items():
            assert h.betti == sum(p[q].betti for p in parts if q in p)
        assert is_cone_acyclic(diagonal(f)) == (per_label_failures(f) == [])


def assert_same_homology(got, want):
    zero = HomologyGroup(0, ())
    for q in set(got) | set(want):
        assert got.get(q, zero) == want.get(q, zero), q


def assert_reduced_is_the_cone(f):
    """The reduced cone of ``f`` has the homology of the cone of its
    diagonal in every degree, and its cut to each label that of the
    label's cone; returns it."""
    reduced = reduced_cone(f)
    assert_same_homology(homology(reduced),
                         homology(mapping_cone(diagonal(f))))
    for sigma in f.src.K.all_simplices():
        assert_same_homology(
            homology(reduced.sub({sigma})),
            homology(mapping_cone(f.diagonal_component(sigma))))
    assert is_acyclic(reduced) == is_cone_acyclic(diagonal(f))
    return reduced


@pytest.mark.parametrize("ring", [ZZ, QQ, GF2], ids=["Z", "Q", "Z2"])
def test_the_reduced_cone_decides_as_the_cone_of_the_diagonal_does(
        monkeypatch, corpus, ring):
    # every certified diagonal is split surjective on bases, as every
    # collapse's is, and the reduced cone is its kernel, on |src| - |tgt|
    # generators; or split injective on bases, and it is the cokernel, on
    # |tgt| - |src|: no certificate of a passing verify needs a whole cone
    kernels = cokernels = 0
    for f in certified_maps(monkeypatch, corpus, ring):
        reduced = assert_reduced_is_the_cone(f)
        gap = f.src.total_rank() - f.tgt.total_rank()
        assert reduced.total_rank() == abs(gap)
        kernels += gap >= 0
        cokernels += gap < 0
    # the three double-dual collapses of every document, at least, and the
    # cells map into the subdivision chains off a bijection on id2 and tri,
    # for each of the two maps that start from the cells
    assert kernels >= 3 * len(corpus)
    assert cokernels == 4


@pytest.mark.parametrize("ring", [ZZ, QQ, GF2], ids=["Z", "Q", "Z2"])
@pytest.mark.parametrize("top", [0, 2], ids=["R", "R-2->R"])
def test_a_split_surjection_with_homology_in_its_kernel_names_its_label(
        monkeypatch, ring, top):
    # C ⊕ A -> C, C = (x -> u) at a plus w at ab, and A at ab: R in degree
    # 0, or R --top--> R from degree 1, whose homology is R/2 (0 over Q).
    # The reduced cone is the kernel A, with no whole cone built, and it
    # fails at ab alone
    K = build("ab")
    a, ab = ("a",), ("a", "b")
    C = RKComplex(ring, K, False, {0: (a, ab), 1: (a,)},
                  {1: Matrix(ring, 2, 1, {(0, 0): 1})})
    if top:                     # A = (y -> v) at ab, d y = top v
        src = RKComplex(ring, K, False, {0: (a, ab, ab), 1: (a, ab)},
                        {1: Matrix(ring, 3, 2, {(0, 0): 1, (2, 1): top})})
    else:                       # A = v at ab
        src = RKComplex(ring, K, False, {0: (a, ab, ab), 1: (a,)},
                        {1: Matrix(ring, 3, 1, {(0, 0): 1})})
    f = RKMap(src, C, {q: Matrix(ring, C.rank(q), src.rank(q), {
        (i, i): 1 for i in range(C.rank(q))}) for q in C.degrees()})
    assert assert_reduced_is_the_cone(f).total_rank() == (2 if top else 1)
    cones = count_calls(monkeypatch, linalg.mapping_cone)
    rep = verify_diagonal_equivalence(f, "summand")
    assert cones == []
    fails = not (top and ring is QQ)
    assert rep.passed is not fails
    assert rep.failures() == per_label_failures(f)
    assert rep.failures() == (["a.b"] if fails else [])


@pytest.mark.parametrize("ring", [ZZ, QQ, GF2], ids=["Z", "Q", "Z2"])
@pytest.mark.parametrize("top", [0, 2], ids=["R", "R-2->R"])
def test_a_split_injection_with_homology_in_its_cokernel_names_its_label(
        monkeypatch, ring, top):
    # C -> C ⊕ A, C = (x -> u) at a plus w at ab, and A at ab: R in degree
    # 0, or R --top--> R from degree 1.  The reduced cone is the cokernel
    # A, with no whole cone built, and it fails at ab alone
    K = build("ab")
    a, ab = ("a",), ("a", "b")
    C = RKComplex(ring, K, False, {0: (a, ab), 1: (a,)},
                  {1: Matrix(ring, 2, 1, {(0, 0): 1})})
    if top:                     # A = (y -> v) at ab, d y = top v
        tgt = RKComplex(ring, K, False, {0: (a, ab, ab), 1: (a, ab)},
                        {1: Matrix(ring, 3, 2, {(0, 0): 1, (2, 1): top})})
    else:                       # A = v at ab
        tgt = RKComplex(ring, K, False, {0: (a, ab, ab), 1: (a,)},
                        {1: Matrix(ring, 3, 1, {(0, 0): 1})})
    f = RKMap(C, tgt, {q: Matrix(ring, tgt.rank(q), C.rank(q), {
        (i, i): 1 for i in range(C.rank(q))}) for q in C.degrees()})
    assert assert_reduced_is_the_cone(f).total_rank() == (2 if top else 1)
    cones = count_calls(monkeypatch, linalg.mapping_cone)
    rep = verify_diagonal_equivalence(f, "summand")
    assert cones == []
    fails = not (top and ring is QQ)
    assert rep.passed is not fails
    assert rep.failures() == per_label_failures(f)
    assert rep.failures() == (["a.b"] if fails else [])


def test_a_diagonal_neither_split_surjective_nor_injective_cancels_its_units(
        monkeypatch):
    # the matched units are cancelled and the rest of the cone is kept; a
    # diagonal with no unit keeps the whole cone, |src| + |tgt| generators
    K = build("ab")
    a, ab = ("a",), ("a", "b")
    C = RKComplex(ZZ, K, False, {0: (a, ab)}, {})
    twice = RKComplex(ZZ, K, False, {0: (a, a)}, {})
    maps = {
        # the unit at a is cancelled, the 2 at ab is kept
        "a column with no unit": (RKMap(C, C, {0: from_rows(ZZ, [[1, 0],
                                                                 [0, 2]])}),
                                  2),
        # the second column lies on the first one's row: it stays
        "overlapping supports": (RKMap(twice, twice, {
            0: from_rows(ZZ, [[1, 1], [0, 1]])}), 2),
        # a zero column, and the generator at ab is missed
        "a missed row": (RKMap(twice, C, {0: from_rows(ZZ, [[1, 0],
                                                            [0, 0]])}), 2),
        "no unit": (RKMap(C, C, {0: from_rows(ZZ, [[2, 0], [0, 3]])}), 4),
    }
    for name, (f, rank) in maps.items():
        assert assert_reduced_is_the_cone(f).total_rank() == rank, name
        cones = count_calls(monkeypatch, linalg.mapping_cone)
        rep = verify_diagonal_equivalence(f, name)
        assert cones == [], name
        monkeypatch.undo()
        assert rep.failures() == per_label_failures(f), name
        assert rep.passed is (name == "overlapping supports"), name


def test_several_columns_on_a_row_or_rows_in_a_column_take_no_cone(
        monkeypatch):
    # two unit columns on one row: the kernel has e_1 - v_1 v_0⁻¹ e_0; one
    # column on two rows, or a row missed: the cokernel has the other row
    K = build("ab")
    a, ab = ("a",), ("a", "b")
    C = RKComplex(ZZ, K, False, {0: (a, ab)}, {})
    D = RKComplex(ZZ, K, False, {0: (a,)}, {})
    twice = RKComplex(ZZ, K, False, {0: (a, a)}, {})
    maps = {
        "two columns on a row": RKMap(twice, D, {0: from_rows(ZZ, [[1, -1]])}),
        "two rows in a column": RKMap(D, twice, {0: from_rows(ZZ, [[1], [1]])}),
        "a row missed": RKMap(D, C, {0: from_rows(ZZ, [[1], [0]])}),
    }
    for name, f in maps.items():
        assert assert_reduced_is_the_cone(f).total_rank() == 1, name
        cones = count_calls(monkeypatch, linalg.mapping_cone)
        rep = verify_diagonal_equivalence(f, name)
        # no cone is built; the reduced cone's label cuts name the failures
        assert cones == [], name
        monkeypatch.undo()
        assert not rep.passed
        assert rep.failures() == per_label_failures(f), name
        assert rep.failures() == (["a"] if name != "a row missed" else
                                  ["a.b"]), name


def test_a_diagonal_entry_scaled_by_two_fails_its_label_alone():
    # x -> u at a, w at ab; the identity with the entry of w scaled by 2 is
    # a chain map whose cone has homology Z/2 at ab alone
    K = build("ab")
    u, w, x = ("a",), ("a", "b"), ("a",)          # the labels
    C = RKComplex(ZZ, K, False, {0: (u, w), 1: (x,)},
                  {1: from_rows(ZZ, [[1], [0]])})
    f = RKMap(C, C, {0: from_rows(ZZ, [[1, 0], [0, 2]]),
                     1: Matrix.identity(ZZ, 1)})
    cone = homology(mapping_cone(diagonal(f)))
    assert [h.torsion for h in cone.values() if not h.is_trivial()] == [(2,)]
    rep = verify_diagonal_equivalence(f, "scaled")
    assert not rep.passed
    assert rep.failures() == per_label_failures(f) == ["a.b"]


def test_a_sequence_not_exact_at_one_label_names_it():
    # 0 -> C' -> C -> C'' -> 0 in degree 1: exact at a, but at ab the image
    # of C' is twice the kernel of C -> C''
    K = build("ab")
    a, ab = ("a",), ("a", "b")

    def cx(*gens):
        return RKComplex(ZZ, K, False, {1: tuple(s for s, _ in gens)}, {})
    sub, mid, quo = cx((ab, "u")), cx((a, "v"), (ab, "w")), cx((a, "z"))
    ses = ShortExactSequence(
        RKMap(sub, mid, {1: from_rows(ZZ, [[0], [2]])}),
        RKMap(mid, quo, {1: from_rows(ZZ, [[1, 0]])}))
    with pytest.raises(ChainComplexError,
                       match=f"^not exact at label {simplex_name(ab)}, "
                             f"degree 1$"):
        ses.validate()


@pytest.mark.parametrize("doubled", [(-1, -2), (-1, -3)])
def test_a_sequence_not_exact_at_two_degrees_names_the_lowest(doubled):
    # 0 -> C' -> C -> 0 -> 0 at the label a in degrees 0..-3, one generator
    # and no differential each: i is 2 at the doubled degrees, so the
    # sequence is not exact at both of them
    K = build("ab")
    a = ("a",)

    def cx(degrees):
        return RKComplex(ZZ, K, False, {q: (a,) for q in degrees}, {})
    mid = cx(range(-3, 1))
    ses = ShortExactSequence(
        RKMap(cx(range(-3, 1)), mid, {
            q: from_rows(ZZ, [[2 if q in doubled else 1]])
            for q in range(-3, 1)}),
        RKMap(mid, cx(()), {}))
    with pytest.raises(ChainComplexError,
                       match=f"^not exact at label {simplex_name(a)}, "
                             f"degree {min(doubled)}$"):
        ses.validate()


def test_a_sequence_not_exact_at_two_labels_names_the_first():
    # 0 -> C' -> C -> 0 -> 0, i = 2 on u at a in degree 1 and on w at b in
    # degree 0: the first label in sorted order is named, not the one at the
    # lowest degree
    K = build("ab")
    a, b = ("a",), ("b",)

    def cx(labels):
        return RKComplex(ZZ, K, False, labels, {})
    mid, two = cx({1: (a,), 0: (b,)}), from_rows(ZZ, [[2]])
    ses = ShortExactSequence(RKMap(cx({1: (a,), 0: (b,)}), mid,
                                   {1: two, 0: two}),
                             RKMap(mid, cx({}), {}))
    with pytest.raises(ChainComplexError,
                       match=f"^not exact at label {simplex_name(a)}, "
                             f"degree 1$"):
        ses.validate()


@pytest.mark.parametrize("message", [
    "sequence maps do not compose", "sequence maps must have degree 0",
    "j∘i != 0"])
def test_a_sequence_is_refused_before_its_exactness(message):
    # one generator at a per side: j∘i is the identity unless i goes into
    # another middle, or from degree 0 with degree 1
    K = build("ab")
    a = ("a",)

    def cx(q=1):
        return RKComplex(ZZ, K, False, {q: (a,)}, {})
    one, mid = from_rows(ZZ, [[1]]), cx()
    i = {"sequence maps do not compose": RKMap(cx(), cx(), {1: one}),
         "sequence maps must have degree 0": RKMap(cx(0), mid, {0: one},
                                                   degree=1),
         "j∘i != 0": RKMap(cx(), mid, {1: one})}[message]
    ses = ShortExactSequence(i, RKMap(mid, cx(), {1: one}))
    with pytest.raises(ChainComplexError, match=f"^{message}$"):
        ses.validate()


def test_a_sequence_map_moving_a_label_up_is_not_label_diagonal():
    # u at a goes to w at ab: the support condition allows it, a sequence
    # of label-diagonal maps does not
    K = build("ab")
    a, ab = ("a",), ("a", "b")

    def cx(*gens):
        return RKComplex(ZZ, K, False, {1: tuple(s for s, _ in gens)}, {})
    sub, mid, quo = cx((a, "u")), cx((a, "v"), (ab, "w")), cx((a, "z"))
    i = RKMap(sub, mid, {1: from_rows(ZZ, [[0], [1]])}).validate()
    ses = ShortExactSequence(
        i, RKMap(mid, quo, {1: from_rows(ZZ, [[1, 0]])}))
    with pytest.raises(ChainComplexError,
                       match="^sequence map is not label-diagonal$"):
        ses.validate()


def test_a_whole_equivalence_off_the_diagonal_fails_both_labels():
    # 0 -> (u -> v), u at a and v at ab: the cone of the whole map is
    # acyclic, but each label's cone keeps one generator and no differential
    K = build("ab")
    u, v = ("a",), ("a", "b")                     # the labels
    D = RKComplex(ZZ, K, False, {1: (u,), 0: (v,)},
                  {1: from_rows(ZZ, [[1]])})
    zero = RKComplex(ZZ, K, False, {}, {})
    # into D the diagonal has no unit and the reduced cone is all of D; out
    # of D the diagonal is split surjective and it is the kernel, all of D:
    # either way it keeps only D's one-label differential
    for f in (RKMap(zero, D, {}), RKMap(D, zero, {})):
        assert is_cone_acyclic(f)
        assert assert_reduced_is_the_cone(f).total_rank() == 2
        rep = verify_diagonal_equivalence(f, "off-diagonal")
        assert not rep.passed
        assert rep.failures() == per_label_failures(f) == ["a", "a.b"]

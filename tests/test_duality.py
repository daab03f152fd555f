"""Blocked tensor products, the duality functor, and the double-dual
collapse, including the single-label case and the induction splitting."""

from rkdual.linalg import Matrix, homology, smith_normal_form
from rkdual.rings import Ring, ZZ
from rkdual.rkcore import (Generator, RKComplex, RKMap, delta_complexes,
                           delta_star_k, dual_generator, dual_star,
                           dual_star_map, epsilon, maximal_label_ses,
                           simplex_generator, tensor_generator)
from rkdual.duality import (Dualizer, hom_dual_iso, projection_map, tensor_k,
                            tensor_r, verify_e_equivalence)
from rkdual.simplicial import SimplicialComplex, control_map
from rkdual.ballcomplex import OrientationPair, induced_chain_map

GF2 = Ring.prime_field(2)


def build(*maximal):
    return SimplicialComplex.build(None, [list(s) for s in maximal])


def atom(K, label, q, op=False):
    gens = {q: (Generator(label, ("simplex", label)),)}
    return RKComplex(ZZ, K, op, gens, {})


# ------------------------------------------------------------- tensors

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
    names = sorted(g.name for g in tk.gens_at(1))
    assert names == ["<a.b>⊗<a>*", "<a.b>⊗<b>*"]
    tk.validate()                     # includes d∘d = 0


def test_projection_on_surviving_and_dying_pairs(edge_ks):
    dc = delta_complexes(edge_ks, ZZ)
    dstark = delta_star_k(edge_ks.K, ZZ)
    proj = projection_map(dc.dx, dstark)
    proj.validate()                   # chain map over each degree
    src_names = {q: [g.name for g in proj.src.gens_at(q)]
                 for q in proj.src.degrees()}
    # a pair whose left label contains the right label maps to itself
    q = 0
    j = src_names[0].index("<a>⊗<a>*")
    col = [(i, v) for (i, jj), v in proj.component(0).entries() if jj == j]
    a = ("a",)
    gen = tensor_generator(simplex_generator(a, a),
                           dual_generator(simplex_generator(a, a)))
    assert col == [(proj.tgt.index_of(0, gen), 1)]
    # a pair whose left label misses the star dies
    j = src_names[0].index("<a>⊗<b>*")
    assert all(jj != j for (_, jj), _ in proj.component(0).entries())


def test_projection_chain_identity_on_hexagon(hex_ks):
    dc = delta_complexes(hex_ks, ZZ)
    dstark = delta_star_k(hex_ks.K, ZZ)
    projection_map(dc.dx, dstark).validate()


def test_blocked_tensor_is_the_image_of_the_projection(edge_ks, hex_ks):
    for ks in (edge_ks, hex_ks):
        dc = delta_complexes(ks, ZZ)
        dstark = delta_star_k(ks.K, ZZ)
        proj = projection_map(dc.dx, dstark)
        for q in proj.src.degrees():
            survivors = set()
            for j, g in enumerate(proj.src.gens_at(q)):
                _, gl, gr = g.data
                if set(gr.label) <= set(gl.label):
                    survivors.add(j)
            hit = set(j for (_, j), _ in proj.component(q).entries())
            assert hit == survivors
            assert len(survivors) == proj.tgt.rank(q)


# ------------------------------------------------------------- hom-dual iso

def test_hom_dual_iso_on_a_point_is_the_identity(corpus):
    pt = corpus["pt"]
    dc = delta_complexes(pt, ZZ)
    dstark = delta_star_k(pt.K, ZZ)
    psi = hom_dual_iso(dc.dx, dstark)
    psi.validate()
    assert psi.component(0).to_rows() == [[1]]


def test_hom_dual_iso_sign_in_odd_degrees():
    # |x| = |y| = 1 forces the sign -1
    K = build("p")
    C = atom(K, ("p",), 1, op=True)
    D = atom(K, ("p",), 1, op=False)
    psi = hom_dual_iso(C, D)
    (mat,) = [psi.component(q) for q in psi.degrees_hit()
              if not psi.component(q).is_zero()]
    assert mat.to_rows() == [[-1]]


def test_hom_dual_iso_rank_equality_on_the_edge(edge_ks):
    dc = delta_complexes(edge_ks, ZZ)
    dstark = delta_star_k(edge_ks.K, ZZ)
    psi = hom_dual_iso(dc.dx, dstark)
    psi.validate()
    assert psi.is_bijection_on_bases()
    # per-degree, per-label ranks agree on both sides
    for q in set(psi.src.degrees()) | set(psi.tgt.degrees()):
        for side_label in set(g.label for g in psi.src.gens_at(q)) | \
                set(g.label for g in psi.tgt.gens_at(q)):
            n_src = sum(1 for g in psi.src.gens_at(q) if g.label == side_label)
            n_tgt = sum(1 for g in psi.tgt.gens_at(q) if g.label == side_label)
            assert n_src == n_tgt


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
    assert dz.map(RKMap.identity(dc.dstar_x)) == RKMap.identity(tc)
    # contravariance on a composable pair
    fmap = control_map(hex_ks)
    or_src = OrientationPair.standard(hex_ks)
    or_tgt = OrientationPair.standard(fmap.tgt)
    push = induced_chain_map(fmap, ZZ, or_src, or_tgt)
    pullback = dual_star_map(push)          # control cochains -> X cochains
    e_k = dz.double_dual_map(pullback.src)  # T^2 -> control cochains
    composite = pullback.compose(e_k)
    assert dz.map(composite) == dz.map(e_k).compose(dz.map(pullback))


def test_duality_preserves_exactness(hex_ks):
    dc = delta_complexes(hex_ks, ZZ)
    dz = Dualizer(hex_ks.K, ZZ)
    ses, _ = maximal_label_ses(dc.dstar_x)
    dz.sequence(ses)                        # validates exactness


def test_dual_star_preserves_exactness(hex_ks):
    from rkdual.rkcore import ShortExactSequence
    dc = delta_complexes(hex_ks, ZZ)
    ses, _ = maximal_label_ses(dc.dx_prime)
    flipped = ShortExactSequence(dual_star_map(ses.j), dual_star_map(ses.i))
    flipped.validate()


# ------------------------------------------------------------- the collapse

def test_collapse_on_a_point_is_an_isomorphism_up_to_sign(corpus):
    pt = corpus["pt"]
    dz = Dualizer(pt.K, ZZ)
    for q in (0, 1, 2):
        C = atom(pt.K, ("p",), q)
        e = dz.double_dual_map(C)
        mat = e.component(q)
        assert mat.to_rows() == [[(-1) ** (q % 2)]]
        eps = epsilon(C)
        assert mat == eps.component(q)


def test_collapse_defining_identity_on_corpus(corpus):
    for name, ks in corpus.items():
        dc = delta_complexes(ks, ZZ)
        dz = Dualizer(ks.K, ZZ)
        _, _, ev = dz.evaluation(dc.dstar_x)
        ev.validate()
        iso = dz.hom_to_square(dc.dstar_x)
        iso.validate()
        assert iso.is_bijection_on_bases()
        assert dz.double_dual_map(dc.dstar_x).compose(iso) == ev, name


def test_collapse_naturality_along_control_pullback(hex_ks):
    dz = Dualizer(hex_ks.K, ZZ)
    fmap = control_map(hex_ks)
    or_src = OrientationPair.standard(hex_ks)
    or_tgt = OrientationPair.standard(fmap.tgt)
    pullback = dual_star_map(induced_chain_map(fmap, ZZ, or_src, or_tgt))
    e_x = dz.double_dual_map(pullback.tgt)
    e_k = dz.double_dual_map(pullback.src)
    assert e_x.compose(dz.map(dz.map(pullback))) == pullback.compose(e_k)


def test_collapse_is_an_epimorphism_per_label(edge_ks, tri_ks):
    for ks in (edge_ks, tri_ks):
        dc = delta_complexes(ks, ZZ)
        dz = Dualizer(ks.K, ZZ)
        e = dz.double_dual_map(dc.dstar_x)
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
    C = RKComplex(ZZ, K, False,
                  {0: (Generator(S, ("simplex", ("u",))),),
                   1: (Generator(S, ("simplex", ("w",))),)},
                  {1: Matrix.from_rows(ZZ, [[2]])})
    dz = Dualizer(K, ZZ)
    e = dz.double_dual_map(C)
    cm = e.diagonal_component(S)
    for q in (0, 1):
        assert cm.component(q).to_rows() in ([[1]], [[-1]])
    rep = verify_e_equivalence(C, dz)
    assert rep.passed


def test_collapse_equivalence_on_corpus_over_z_and_z2(corpus):
    for name, ks in corpus.items():
        for ring in (ZZ, GF2):
            dc = delta_complexes(ks, ring)
            dz = Dualizer(ks.K, ring)
            for cx in (dc.dstar_x, dc.dx_prime):
                rep = verify_e_equivalence(cx, dz)
                assert rep.passed, (name, str(ring), rep.failures())


def test_induction_splitting_diagram(hex_ks):
    # rows exact, verticals natural, for the split at a maximal label
    dc = delta_complexes(hex_ks, ZZ)
    dz = Dualizer(hex_ks.K, ZZ)
    ses, top = maximal_label_ses(dc.dstar_x)
    t_ses = dz.sequence(ses)                # exact rows downstairs
    e_sub = dz.double_dual_map(ses.i.src)
    e_tot = dz.double_dual_map(ses.i.tgt)
    e_quo = dz.double_dual_map(ses.j.tgt)
    assert e_tot.compose(dz.map(dz.map(ses.i))) == ses.i.compose(e_sub)
    assert e_quo.compose(dz.map(dz.map(ses.j))) == ses.j.compose(e_tot)
    assert len(top) == 2


def test_betti_over_q_matches_z_for_all_built_complexes(corpus):
    from rkdual.rings import Ring
    from rkdual.checks import KSpaceData
    QQ = Ring.rationals()
    for name, ks in corpus.items():
        dz = KSpaceData.build(ks, ZZ)
        dq = KSpaceData.build(ks, QQ)
        for key in dz.complexes():
            hz = homology(dz.complexes()[key].underlying())
            hq = homology(dq.complexes()[key].underlying())
            for q in set(hz) | set(hq):
                assert hz[q].betti == hq[q].betti, (name, key, q)
                assert hq[q].torsion == ()

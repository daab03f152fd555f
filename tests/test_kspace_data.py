"""KSpaceData builds each object of a K-space once, on first use.

The counts are taken by rebinding a function at every place a module of
the package binds it, so calls through ``from .x import y`` names are
counted too.
"""

import os
import sys
from collections import Counter

import pytest

from rkdual import (ballcomplex, capproduct, checks, duality, linalg, rkcore,
                    simplicial)
from rkdual.checks import (KSpaceData, parse_document, quick_sweep_kspace,
                           verify_kspace)
from rkdual.duality import Dualizer
from rkdual.report import Report
from rkdual.rings import QQ, ZZ
from rkdual.rkcore import RKComplex

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

import ladder  # noqa: E402
from oracles import corpus_kspace  # noqa: E402


def counting(fn, calls):
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return counted


def rebind(monkeypatch, fn, wrapped):
    """Route every binding of ``fn`` in the package through ``wrapped``."""
    for name, module in list(sys.modules.items()):
        if name == "rkdual" or name.startswith("rkdual."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapped)


def count_calls(monkeypatch, fn):
    """Route every binding of ``fn`` in the package through a counter;
    returns the list that records one entry per call."""
    calls = []
    rebind(monkeypatch, fn, counting(fn, calls))
    return calls


def test_verify_subdivides_twice_and_squares_at_most_six_times(monkeypatch):
    ks = corpus_kspace("hex")
    subdivisions = count_calls(monkeypatch, simplicial.barycentric_subdivision)
    squares = []
    monkeypatch.setattr(Dualizer, "square", counting(Dualizer.square, squares))
    report = Report("verify", "Z")
    verify_kspace(report, "hex", ks, ZZ)
    assert report.checks and report.passed
    # X and K, once each; T² of the cochains of X is built once
    assert len(subdivisions) == 2
    assert len(squares) <= 6


def test_verify_builds_each_tensor_and_hom_once(monkeypatch):
    ks = corpus_kspace("hex")
    tensors = count_calls(monkeypatch, duality.tensor_k)
    homs = count_calls(monkeypatch, rkcore.hom_rk)
    pushes = count_calls(monkeypatch, ballcomplex.induced_chain_map)
    report = Report("verify", "Z")
    verify_kspace(report, "hex", ks, ZZ)
    assert report.checks and report.passed
    # maps take the complexes they map between instead of rebuilding them
    assert len(tensors) <= 20
    assert len(homs) == 2
    # the pushforward along the control map, and the identity
    assert len(pushes) == 2


def ladder_kspace(name):
    """A K-space of the committed ladder, or a corpus one."""
    rungs = dict(ladder.RUNGS)
    if name not in rungs:
        return corpus_kspace(name)
    return parse_document(rungs[name]()[0]).kspaces[0][1]


def verified(name):
    """The objects of one passing verify of ``name`` over Z."""
    report = Report("verify", "Z")
    data = verify_kspace(report, name, ladder_kspace(name), ZZ)
    assert report.checks and report.passed
    return data


def same_shape(a, b):
    """Same ring, K, order, labels and generator names."""
    return ((a.ring, a.K, a.op, a.labels) == (b.ring, b.K, b.op, b.labels)
            and all(a.name(q, i) == b.name(q, i)
                    for q in a.degrees() for i in range(a.rank(q))))


@pytest.mark.parametrize("name", ["hex", "id-torus-7"])
def test_verify_dualizes_each_complex_once(monkeypatch, name):
    objects = []
    monkeypatch.setattr(Dualizer, "object", counting(Dualizer.object, objects))
    data = verified(name)
    # T of the cochains, of the two ends of their split, of the cochains
    # of (K, id), of the subdivision chains and of the cell chains, and T
    # of each of those five inside the square
    assert len(objects) == 12
    args = [cx for _, cx in objects]
    repeats = [(a, b) for i, b in enumerate(args) for a in args[:i]
               if same_shape(a, b)]
    if name == "hex":
        assert repeats == []
    else:
        # pi is the identity, so the cochains of (K, id) have the shape of
        # the cochains of X: T of the two, built from different complexes,
        # coincide in shape, and so do the T of those inside the squares
        (x0, k0), (x1, k1) = repeats
        assert x0 is data.deltas.dstar_x and k0 is not x0
        assert x1 is data.tc and k1 is data.t_k


@pytest.mark.parametrize("name", ["hex", "id-torus-7"])
def test_verify_builds_the_full_tensor_once_per_reader(monkeypatch, name):
    tensors = count_calls(monkeypatch, duality.tensor_r)
    verified(name)
    # tensor/projection-epimorphism alone: the cap factorization and the cap
    # chain map on K read the blocked tensor
    assert len(tensors) == 1


@pytest.mark.parametrize("name", ["hex", "id-torus-7"])
def test_verify_caps_each_pair_of_k_once(monkeypatch, name):
    caps = count_calls(monkeypatch, capproduct.cap_product)
    inside = []
    chain_map = capproduct.verify_cap_chain_map

    def spied(*args, **kwargs):
        start = len(caps)
        try:
            return chain_map(*args, **kwargs)
        finally:
            inside.extend(caps[start:])
    monkeypatch.setattr(checks, "verify_cap_chain_map", spied)
    K = verified(name).ks.K
    pairs = [(tau, sigma) for tau in K.all_simplices()
             for sigma in K.closure(tau)]
    assert sorted(args[1:3] for args in inside) == sorted(pairs)


@pytest.mark.parametrize("name", ["hex", "id-torus-7"])
def test_cap_factorization_caps_only_faces_onto_the_label(monkeypatch, name):
    caps = count_calls(monkeypatch, capproduct.cap_product)
    inside = []
    factorization = capproduct.verify_cap_factorization

    def spied(*args, **kwargs):
        start = len(caps)
        try:
            return factorization(*args, **kwargs)
        finally:
            inside.extend(caps[start:])
    monkeypatch.setattr(checks, "verify_cap_factorization", spied)
    ks = verified(name).ks
    # T ⊗ rho* caps T against each S ⊆ T that pi maps onto rho, once; the
    # generators T ⊗ rho* run over all T in X and all rho in K
    pairs = [(T, S) for T in ks.X.all_simplices() for S in ks.X.closure(T)
             if len(ks.pi.image(S)) == len(S)]
    assert sorted(args[1:3] for args in inside) == sorted(pairs)


def test_the_square_looks_up_no_generator(monkeypatch):
    data = KSpaceData(ladder_kspace("id-torus-7"), ZZ)
    assert data.tc.total_rank() > 0      # built before the count starts
    lookups = []
    monkeypatch.setattr(RKComplex, "index_of",
                        counting(RKComplex.index_of, lookups))
    t2 = data.t2
    # the differential is read by position: no image is looked up by key
    assert t2.total_rank() > 0 and lookups == []


def test_the_duality_functor_on_maps_builds_no_dual_complex(monkeypatch):
    duals = count_calls(monkeypatch, rkcore.dual_star)
    made = []               # lookups of a generator by its key
    monkeypatch.setattr(RKComplex, "index_of",
                        counting(RKComplex.index_of, made))
    inside = []
    functor = Dualizer.map

    def spied(self, *args):
        start = len(duals), len(made)
        try:
            return functor(self, *args)
        finally:
            inside.append((len(duals) - start[0], len(made) - start[1]))
    monkeypatch.setattr(Dualizer, "map", spied)
    verified("hex")
    # T(f) = f* ⊗ 1 reads f's transpose and the layout of its two sides:
    # it dualizes no complex and looks up no generator
    assert len(inside) == 11
    assert set(inside) == {(0, 0)}
    # one dual each: the 12 objects T(C), the cochains of X and of K, the
    # cochains of the standard simplex of the three maximal simplices' one
    # dimension, the targets of the two Hom-to-dual isomorphisms, the cap on
    # K and the source of the one pullback, the cochains of (K, id).  The
    # pullback's target is the cochains of X, not a second copy
    assert len(duals) == 19


def test_quick_sweep_dualizes_twice_and_squares_once(monkeypatch):
    objects, squares = [], []
    monkeypatch.setattr(Dualizer, "object", counting(Dualizer.object, objects))
    monkeypatch.setattr(Dualizer, "square", counting(Dualizer.square, squares))
    report = Report("random", "Z")
    quick_sweep_kspace(report, "hex", corpus_kspace("hex"), ZZ)
    assert report.checks and report.passed
    # T of the cochains, and T of that inside the one square
    assert len(objects) == 2
    assert len(squares) == 1


def test_quick_sweep_builds_no_cell_map(monkeypatch):
    ks = corpus_kspace("hex")
    calls = count_calls(monkeypatch, capproduct.fundamental_cycle_map)
    report = Report("random", "Z")
    quick_sweep_kspace(report, "hex", ks, ZZ)
    assert report.checks and report.passed
    assert calls == []


def test_objects_are_built_on_first_use_and_kept():
    data = KSpaceData.build(corpus_kspace("edge"), ZZ)
    assert "cellular" not in vars(data)
    assert data.cellular is data.cellular
    assert data.cellular.ball is data.ball
    assert data.t2 is data.e.src
    assert data.push.src is data.deltas.dx
    assert data.e.tgt is data.deltas.dstar_x


def test_verify_validates_no_full_cut_and_no_map_inside_a_cone(monkeypatch):
    stack, entered, validations, certificates = [], set(), [], []

    def within(fn, where):
        def spied(*args, **kwargs):
            stack.append(where)
            entered.add(where)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return spied

    def recorded(cls):
        validate = cls.validate

        def spied(self):
            validations.append((cls, tuple(stack)))
            # the outermost validate of an object, directly in a certificate
            if stack and stack[-1] == "certificate":
                certificates[-1][1].append(self)
            stack.append("validate")
            try:
                return validate(self)
            finally:
                stack.pop()
        monkeypatch.setattr(cls, "validate", spied)
    certificate = within(duality.verify_diagonal_equivalence, "certificate")

    def certify(f, name):
        certificates.append((f, []))
        return certificate(f, name)
    monkeypatch.setattr(rkcore.RKComplex, "sub",
                        within(rkcore.RKComplex.sub, "cut"))
    # a cone's construction and its acyclicity test, whole or per label
    for fn in (linalg.is_cone_acyclic, linalg.mapping_cone):
        rebind(monkeypatch, fn, within(fn, "cone"))
    # the reduced cone that decides a certificate instead of its cone
    monkeypatch.setattr(duality, "reduced_cone",
                        within(duality.reduced_cone, "reduced"))
    rebind(monkeypatch, duality.verify_diagonal_equivalence, certify)
    for cls in (linalg.ChainComplex, linalg.ChainMap, rkcore.RKComplex,
                rkcore.RKMap):
        recorded(cls)
    verified("id-torus-7")
    # a passing verify builds no cone
    assert entered == {"cut", "reduced", "certificate"}
    # a full cut of a valid complex is valid, and a cone of a chain map of
    # valid complexes has d∘d = 0, reduced or not: none is validated
    assert not [v for v in validations if "cut" in v[1]]
    assert not [v for v in validations if "cone" in v[1]]
    assert not [v for v in validations if "reduced" in v[1]]
    # each cone certificate validates its map and both sides, once each
    assert len(certificates) == 6
    for f, seen in certificates:
        assert sorted(map(id, seen)) == sorted(map(id, (f, f.src, f.tgt)))


@pytest.mark.parametrize("name", ["hex", "id2"])
def test_a_verify_multiplies_each_d_squared_at_most_once(monkeypatch, name):
    # certificates share objects (the subdivision and cell chains are read
    # by four), but a validation is recorded, so each is checked once
    products, calls, checked, kept = Counter(), Counter(), [], []
    mul = linalg.Matrix.__mul__

    def multiplied(a, b):
        kept.append((a, b))         # alive, so no id is reused
        products[id(a), id(b)] += 1
        return mul(a, b)
    monkeypatch.setattr(linalg.Matrix, "__mul__", multiplied)
    for cls in (linalg.ChainComplex, linalg.ChainMap):
        def spied(self, validate=cls.validate):
            kept.append(self)
            calls[id(self)] += 1
            return validate(self)
        monkeypatch.setattr(cls, "validate", spied)
        monkeypatch.setattr(cls, "_check", counting(cls._check, checked))
    verified(name)
    assert max(calls.values()) >= 4
    squares = [products[id(mat), id(cx.diff[q + 1])] for cx in kept
               if isinstance(cx, linalg.ChainComplex)
               for q, mat in cx.diff.items() if q + 1 in cx.diff]
    assert all(n <= 1 for n in squares)
    assert squares or name == "hex"     # hex is a graph: no d∘d to take
    checked = [id(args[0]) for args in checked]
    assert len(checked) == len(set(checked)) == len(calls)


def test_a_passing_verify_decides_each_equivalence_by_one_reduced_cone(
        monkeypatch):
    running, routes, kernels, cones, certified, full = [], [], [], [], [], []
    guard = checks._guard

    def named(report, name, target, fn):
        running.append(name)
        try:
            return guard(report, name, target, fn)
        finally:
            running.pop()

    def by_check(fn, calls):
        def recorded(*args, **kwargs):
            calls.append(running[-1] if running else None)
            return fn(*args, **kwargs)
        return recorded

    def reduced(f, reduce=duality.reduced_cone):
        cx = reduce(f)
        rank, gap = cx.total_rank(), f.src.total_rank() - f.tgt.total_rank()
        routes.append((running[-1], "|src| - |tgt|" if rank == gap else
                       "|tgt| - |src|" if rank == -gap else rank))
        return cx
    monkeypatch.setattr(checks, "_guard", named)
    monkeypatch.setattr(duality, "reduced_cone", reduced)
    monkeypatch.setattr(duality, "is_acyclic",
                        by_check(duality.is_acyclic, kernels))
    rebind(monkeypatch, linalg.mapping_cone,
           by_check(linalg.mapping_cone, cones))
    rebind(monkeypatch, linalg.is_cone_acyclic,
           by_check(linalg.is_cone_acyclic, certified))
    rebind(monkeypatch, rkcore.is_full, by_check(rkcore.is_full, full))
    components = []
    monkeypatch.setattr(rkcore.RKMap, "diagonal_component",
                        counting(rkcore.RKMap.diagonal_component, components))
    data = verified("id-torus-7")
    # every diagonal of a double-dual collapse, and of the subdivision dual
    # on the torus, is split surjective on bases: its reduced cone is its
    # kernel; the cell chains map into the subdivision chains split
    # injectively on bases, so the reduced cone of those two is the
    # cokernel.  One whole computation per certificate, no cone, and a
    # label cut of the reduced cone only to name a failure.
    kernel_route = [f"double-dual/equivalence/{key}" for key in
                    ("cochains", "subdivision-chains", "cell-chains")]
    cokernel_route = ["equivalences/cells-to-subdivision",
                      "equivalences/dual-to-subdivision"]
    last = "equivalences/subdivision-dual-to-cochains"
    assert routes == [(name, "|src| - |tgt|") for name in kernel_route] + [
        (name, "|tgt| - |src|") for name in cokernel_route] + [
        (last, "|src| - |tgt|")]
    assert kernels == kernel_route + cokernel_route + [last]
    assert certified == cones == []
    assert components == []
    # a star and its complement, once per label, by star-splitting alone
    labels = sum(1 for _ in data.ks.K.all_simplices())
    assert full == ["assembly/star-splitting"] * (2 * labels)


@pytest.mark.parametrize("name", ["pt", "edge", "circ3", "hex", "id2", "tri",
                                  "id-torus-7", "grid-4-edge"])
def test_a_passing_verify_builds_no_mapping_cone(monkeypatch, name):
    cones = count_calls(monkeypatch, linalg.mapping_cone)
    verified(name)
    assert cones == []


def test_verify_of_the_torus_makes_at_most_200_matrix_products(monkeypatch):
    products = []
    monkeypatch.setattr(linalg.Matrix, "__mul__",
                        counting(linalg.Matrix.__mul__, products))
    verified("id-torus-7")
    assert 0 < len(products) <= 200


@pytest.mark.parametrize("name", ["hex", "id2"])
def test_a_verify_over_the_rationals_stores_its_integral_entries_as_ints(
        name):
    # every matrix a verify builds is integral: simplicial boundaries and
    # unit tensor, dual and map entries, so no entry is left a Fraction
    report = Report("verify", str(QQ))
    data = verify_kspace(report, name, corpus_kspace(name), QQ)
    assert report.checks and report.passed
    mats = [mat for cx in (data.deltas.dx, data.tc, data.t2, data.t_sub,
                           data.cellular.rk) for mat in cx.diff.values()]
    mats += data.e.comps.values()
    assert {type(v) for mat in mats for _, v in mat.entries()} == {int}

"""Every certificate can fail: seeded corruptions through ``verify``.

Each test corrupts one object a check family certifies, by one minimal,
seeded change made through a monkeypatched builder, runs ``rkdual verify``
on a corpus document, and asserts exit 1 with exactly the expected check
families failing.  A corruption of a cached property must run
and must not raise, or its test fails.
"""

import json
import os
import random
from functools import cached_property

import pytest

from rkdual import capproduct, checks, rkcore
from rkdual.ballcomplex import DualCell
from rkdual.checks import KSpaceData
from rkdual.cli import main
from rkdual.duality import Dualizer
from rkdual.linalg import ChainComplex, ChainComplexError, Matrix
from rkdual.rkcore import RKMap
from rkdual.simplicial import (DerivedComplex, KSpace, SimplicialComplex,
                               SimplicialMap)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# per corruption ``patch_lazy`` installed in the running test, what each of
# its calls raised, None when it returned: a corruption that raises fails
# every reader of its object, the very set its test expects, without having
# corrupted anything, so ``failing_checks`` asks that each ran and none raised
LAZY_RUNS = []


@pytest.fixture(autouse=True)
def fresh_lazy_runs():
    LAZY_RUNS.clear()
    yield
    LAZY_RUNS.clear()


def failing_checks(doc, tmp_path, ring=None):
    out = tmp_path / "report.json"
    code = main(["verify", os.path.join(ROOT, "documents", f"{doc}.json"),
                 "--format", "json", "--out", str(out)]
                + (["--ring", ring] if ring else []))
    for name, runs in LAZY_RUNS:
        assert runs, f"the corruption of {name} never ran"
        raised = [exc for exc in runs if exc is not None]
        assert not raised, f"the corruption of {name} raised {raised[0]!r}"
    report = json.loads(out.read_text())
    return code, {c["name"] for c in report["checks"] if not c["passed"]}


def over_z_and_q(cases, ids):
    """``cases`` over the documents' ring Z under ``ids``, then over Q under
    the same ids with ``-Q``: a ±1 entry negated changes the same checks
    over both rings (over Z/2 it would change nothing)."""
    return ([pytest.param(*case, None, id=i) for case, i in zip(cases, ids)]
            + [pytest.param(*case, "Q", id=f"{i}-Q")
               for case, i in zip(cases, ids)])


def set_lazy(monkeypatch, cls, name, build):
    """Make ``build(self)`` the cached property ``cls.name``."""
    prop = cached_property(build)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)


def patch_lazy(monkeypatch, cls, name, fn):
    """Replace the cached property ``cls.name`` by ``fn(self, original)``,
    recording each call of ``fn`` in ``LAZY_RUNS``."""
    original, runs = cls.__dict__[name].func, []
    LAZY_RUNS.append((f"{cls.__name__}.{name}", runs))

    def corrupted(self):
        built = original(self)
        try:
            out = fn(self, built)
        except Exception as exc:
            runs.append(exc)
            raise
        runs.append(None)
        return out
    set_lazy(monkeypatch, cls, name, corrupted)


def test_a_corruption_that_raises_fails_its_mutation(monkeypatch, tmp_path):
    def raises(self, e):
        raise AttributeError("no such field")
    patch_lazy(monkeypatch, KSpaceData, "e", raises)
    with pytest.raises(AssertionError, match="KSpaceData.e raised"):
        failing_checks("hex", tmp_path)


def test_a_corruption_that_never_runs_fails_its_mutation(monkeypatch,
                                                         tmp_path):
    # the builder under the corruption raises, so the corruption never runs
    def raises(self):
        raise KeyError("missing generator")
    set_lazy(monkeypatch, KSpaceData, "e", raises)
    patch_lazy(monkeypatch, KSpaceData, "e", lambda self, e: e)
    with pytest.raises(AssertionError, match="KSpaceData.e never ran"):
        failing_checks("hex", tmp_path)


# the subdivision index feeds the cells of X (ball structure, fundamental
# cycles) and the dual cells of K, which the cone scan cross-checks
INDEX_FAILS = {"cells/ball-structure", "cells/dual-cones",
               "cap/fundamental-cycles"}


@pytest.mark.parametrize("doc,seed", [("hex", 0), ("id2", 3), ("tri", 5)])
def test_a_chain_dropped_from_one_bucket_of_the_index(monkeypatch, tmp_path,
                                                      doc, seed):
    def drop(self, ends):
        rng = random.Random(seed)
        buckets = {key: list(chains) for key, chains in ends.items()}
        key = rng.choice(sorted(buckets))
        buckets[key].pop(rng.randrange(len(buckets[key])))
        return buckets
    patch_lazy(monkeypatch, DerivedComplex, "ends", drop)
    assert failing_checks(doc, tmp_path) == (1, INDEX_FAILS)


@pytest.mark.parametrize("doc,seed,fails", [
    # an interior chain below the top dimension: only the containment of
    # the interior in the members sees it
    ("id2", 0, {"cells/ball-structure"}),
    # a boundary chain: the decomposition into interior, inner and outer
    ("hex", 0, {"cells/ball-structure"}),
    # a top chain: the fundamental cycle of the cell no longer matches too
    ("hex", 1, {"cells/ball-structure", "cap/fundamental-cycles"}),
])
def test_a_chain_dropped_from_one_cell(monkeypatch, tmp_path, doc, seed,
                                       fails):
    def drop(self, ball):
        rng = random.Random(seed)
        key = rng.choice(list(ball.cells))
        cell = ball.cells[key]
        gone = rng.choice(cell.simplices)
        ball.cells[key] = DualCell(
            cell.T, cell.sigma, tuple(c for c in cell.simplices if c != gone),
            cell.interior, cell.inner_boundary, cell.outer_boundary)
        return ball
    patch_lazy(monkeypatch, KSpaceData, "ball", drop)
    assert failing_checks(doc, tmp_path) == (1, fails)


@pytest.mark.parametrize("doc,seed", [("hex", 0), ("id2", 1), ("tri", 2)])
def test_a_sign_flipped_in_the_cochain_pullback(monkeypatch, tmp_path, doc,
                                                seed):
    pullback = capproduct.cochain_pullback

    def flip(ks, orientation):
        rng = random.Random(seed)
        table = pullback(ks, orientation)
        rho = rng.choice(sorted(table))
        i = rng.randrange(len(table[rho]))
        S, sign = table[rho][i]
        table[rho][i] = (S, -sign)
        return table
    monkeypatch.setattr(capproduct, "cochain_pullback", flip)
    assert failing_checks(doc, tmp_path) == (1, {"cap/factorization"})


# the cap product on K is built inside its one check; the cap on X, read by
# the factorization, is another call, and on hex and tri X is not K
@pytest.mark.parametrize("doc,seed", [("hex", 0), ("hex", 1), ("tri", 2),
                                      ("tri", 3)])
def test_a_sign_flipped_in_the_cap_product_on_the_control_complex(
        monkeypatch, tmp_path, doc, seed):
    chain_map, cap = checks.verify_cap_chain_map, capproduct.cap_product
    chosen = []

    def on_k(derived, ring):
        K, rng = derived.base, random.Random(seed)
        tau = rng.choice(list(K.all_simplices()))
        chosen.append((K, tau, rng.choice(K.closure(tau)), rng))
        try:
            return chain_map(derived, ring)
        finally:
            chosen.pop()

    def flip(cx, tau, sigma, basis=None):
        out = cap(cx, tau, sigma, basis)
        if chosen and chosen[-1][:3] == (cx, tau, sigma):
            flag = chosen[-1][3].choice(sorted(out))
            out[flag] = -out[flag]
        return out
    monkeypatch.setattr(checks, "verify_cap_chain_map", on_k)
    monkeypatch.setattr(capproduct, "cap_product", flip)
    assert failing_checks(doc, tmp_path) == (
        1, {"cap/chain-map-and-pairing/control"})


# T(subdivision chains) is read by the double-dual collapse of the
# subdivision chains and by the one composite equivalence that starts there
T_SUB_READERS = {"double-dual/equivalence/subdivision-chains",
                 "equivalences/subdivision-dual-to-cochains"}


@pytest.mark.parametrize("doc,seed", [("hex", 0), ("id2", 1), ("tri", 2)])
def test_an_entry_negated_in_the_dual_of_the_subdivision_chains(
        monkeypatch, tmp_path, doc, seed):
    def negate(self, t_sub):
        rng = random.Random(seed)
        q = rng.choice(sorted(t_sub.diff))
        mat = t_sub.diff[q]
        entries = dict(mat.entries())
        key = rng.choice(sorted(entries))
        entries[key] = -entries[key]
        t_sub.diff[q] = Matrix(mat.ring, mat.nrows, mat.ncols, entries)
        return t_sub
    patch_lazy(monkeypatch, KSpaceData, "t_sub", negate)
    assert failing_checks(doc, tmp_path) == (1, T_SUB_READERS)


# T of the cochains is read by the cellular identification, the dual and
# double-dual checks built on it, and by the one composite equivalence that
# starts there; the subdivision dual reaches the cochains through T², whose
# differential its map never reads
TC_READERS = {"cells/dual-homology", "cells/identification-isomorphism",
              "double-dual/defining-identity",
              "double-dual/equivalence/cochains",
              "equivalences/dual-to-subdivision"}
SOUNDNESS = {"soundness/d-squared-and-support/dual",
             "soundness/d-squared-and-support/double-dual"}


@pytest.mark.parametrize("doc,seed,also,ring", over_z_and_q([
    # d∘d stays 0 here; the entry lies inside T(C''), the sub of the split
    # of T, where the chain-map identity of its inclusion reads it
    ("hex", 0, {"duality/exactness"}),
    ("id2", 1, {"duality/exactness"} | SOUNDNESS),
    # the entry goes from T(C'), the quotient of the split of T, back to
    # T(C''), its sub: no map of the sequence reads that block
    ("tri", 2, SOUNDNESS),
], ["hex-0-also0", "id2-1-also1", "tri-2-also2"]))
def test_an_entry_negated_in_the_dual_of_the_cochains(monkeypatch, tmp_path,
                                                      doc, seed, also, ring):
    def negate(self, tc):
        rng = random.Random(seed)
        q = rng.choice(sorted(tc.diff))
        mat = tc.diff[q]
        entries = dict(mat.entries())
        key = rng.choice(sorted(entries))
        entries[key] = -entries[key]
        tc.diff[q] = Matrix(mat.ring, mat.nrows, mat.ncols, entries)
        return tc
    patch_lazy(monkeypatch, KSpaceData, "tc", negate)
    assert failing_checks(doc, tmp_path, ring) == (1, TC_READERS | also)


def negated(mat, key):
    """``mat`` with the entry at ``key`` negated."""
    entries = dict(mat.entries())
    entries[key] = -entries[key]
    return Matrix(mat.ring, mat.nrows, mat.ncols, entries)


def is_valid(obj):
    try:
        obj.validate()
    except ChainComplexError:
        return False
    return True


def negate_one_that_breaks(seed, mats, breaks, where=lambda q, key: True):
    """Negate one entry of ``mats`` (degree -> matrix) in place: the first,
    in a seeded order, among those ``where`` admits, whose negation alone
    makes ``breaks`` true of the changed table."""
    keys = sorted((q, key) for q, mat in mats.items()
                  for key, _ in mat.entries() if where(q, key))
    random.Random(seed).shuffle(keys)
    for q, key in keys:
        changed = {**mats, q: negated(mats[q], key)}
        if breaks(changed):
            mats[q] = changed[q]
            return
    raise AssertionError("no single entry breaks it")


def breaks_d_squared(cx):
    return lambda diff: not is_valid(ChainComplex(cx.ring, cx.spaces, diff))


# the double-dual collapse of the cochains is read by its own equivalence,
# the double-dual identities and the composite that ends on the cochains
E_READERS = {"double-dual/equivalence/cochains",
             "double-dual/defining-identity", "double-dual/natural-rows",
             "double-dual/naturality",
             "equivalences/subdivision-dual-to-cochains"}


@pytest.mark.parametrize("doc,seed,whole", [
    # on hex and id2 no single entry of a diagonal block breaks the
    # chain-map identity of its label's diagonal component, only that of
    # the whole map, which the certificate validates first
    pytest.param("hex", 0, True, id="hex-0"),
    pytest.param("id2", 1, True, id="id2-1"),
    # on tri the entry breaks the identity of its label's diagonal
    # component, which only that label's cone reads
    pytest.param("tri", 2, False, id="tri-2"),
])
def test_a_diagonal_block_of_the_double_dual_collapse_off_the_identity(
        monkeypatch, tmp_path, doc, seed, whole):
    def corrupt(self, e):
        src, tgt = e.src.labels, e.tgt.labels
        labels = list(e.src.K.all_simplices())

        def breaks(comps):
            f = RKMap(e.src, e.tgt, comps)
            return not (is_valid(f) if whole else all(
                is_valid(f.diagonal_component(s)) for s in labels))
        negate_one_that_breaks(
            seed, e.comps, breaks,
            lambda q, key: tgt[q][key[0]] == src[q][key[1]])
        return e
    patch_lazy(monkeypatch, KSpaceData, "e", corrupt)
    assert failing_checks(doc, tmp_path) == (1, E_READERS)


@pytest.mark.parametrize("doc,seed,ring", over_z_and_q(
    [("hex", 0), ("id2", 1), ("tri", 2)], ["hex-0", "id2-1", "tri-2"]))
def test_an_entry_of_the_square_of_the_subdivision_chains_breaks_d_squared(
        monkeypatch, tmp_path, doc, seed, ring):
    # T² of the subdivision chains is built inside its one reader, the
    # double-dual collapse of the subdivision chains: corrupt the square of
    # T(subdivision chains) and no other
    seen = []
    patch_lazy(monkeypatch, KSpaceData, "t_sub",
               lambda self, t_sub: seen.append(t_sub) or t_sub)
    square = Dualizer.square

    def corrupt(self, tc):
        t2 = square(self, tc)
        if any(tc is t_sub for t_sub in seen):
            negate_one_that_breaks(seed, t2.diff, breaks_d_squared(t2))
        return t2
    monkeypatch.setattr(Dualizer, "square", corrupt)
    assert failing_checks(doc, tmp_path, ring) == (
        1, {"double-dual/equivalence/subdivision-chains"})


@pytest.mark.parametrize("doc,seed,ring", over_z_and_q(
    [("hex", 0), ("id2", 1), ("tri", 2)], ["hex-0", "id2-1", "tri-2"]))
def test_an_entry_of_the_square_of_the_cell_chains_breaks_d_squared(
        monkeypatch, tmp_path, doc, seed, ring):
    # T and T² of the cell chains are built inside their one reader, the
    # double-dual collapse of the cell chains: corrupt the square of T(cell
    # chains) and no other
    cells, duals = [], []
    patch_lazy(monkeypatch, KSpaceData, "cellular",
               lambda self, cellular: cells.append(cellular) or cellular)
    obj, square = Dualizer.object, Dualizer.square

    def dual(self, C):
        tc = obj(self, C)
        if any(C is rk for rk in cells):
            duals.append(tc)
        return tc

    def corrupt(self, tc):
        t2 = square(self, tc)
        if any(tc is t for t in duals):
            negate_one_that_breaks(seed, t2.diff, breaks_d_squared(t2))
        return t2
    monkeypatch.setattr(Dualizer, "object", dual)
    monkeypatch.setattr(Dualizer, "square", corrupt)
    assert failing_checks(doc, tmp_path, ring) == (
        1, {"double-dual/equivalence/cell-chains"})


# the cell map is read by the three composite equivalences, all of which
# start from it, and by the cap checks built on it
CELL_MAP_READERS = {"equivalences/cells-to-subdivision",
                    "equivalences/dual-to-subdivision",
                    "equivalences/subdivision-dual-to-cochains",
                    "cap/factorization"}


@pytest.mark.parametrize("doc,seed", [("hex", 0), ("id2", 1), ("tri", 2)])
def test_an_entry_negated_in_the_cell_map(monkeypatch, tmp_path, doc, seed):
    def negate(self, cmap):
        rng = random.Random(seed)
        comps = cmap.comps
        q = rng.choice(sorted(comps))
        comps[q] = negated(comps[q], rng.choice(
            [key for key, _ in comps[q].entries()]))
        return cmap
    patch_lazy(monkeypatch, KSpaceData, "fundamental_cycles", negate)
    assert failing_checks(doc, tmp_path) == (1, CELL_MAP_READERS)


# the chains of X are read by the assembly, the cells built on them and
# the tensor and naturality checks that read the cells
DX_READERS = {"assembly/star-splitting", "cells/boundary-display",
              "cells/homology", "cells/identification-isomorphism",
              "double-dual/equivalence/cell-chains",
              "equivalences/cells-to-subdivision", "naturality/control-square",
              "soundness/d-squared-and-support/cell-chains",
              "soundness/d-squared-and-support/chains",
              "tensor/hom-dual-isomorphism"}


# only id2 and tri have chains of dimension 2, where d∘d can break
@pytest.mark.parametrize("doc,seed", [("id2", 0), ("id2", 1), ("tri", 2)])
def test_an_entry_of_the_chains_breaks_d_squared(monkeypatch, tmp_path, doc,
                                                 seed):
    def corrupt(self, deltas):
        negate_one_that_breaks(seed, deltas.dx.diff,
                               breaks_d_squared(deltas.dx))
        return deltas
    patch_lazy(monkeypatch, KSpaceData, "deltas", corrupt)
    assert failing_checks(doc, tmp_path) == (1, DX_READERS)


# the subdivision chains are the target of the double-dual collapse and of
# the three composite equivalences, each of which validates its target
# whole; a cone sees only the diagonal blocks, and on tri-0 the cell map's
# chain-map identity never reads the broken entry
DX_PRIME_READERS = {"soundness/d-squared-and-support/subdivision-chains",
                    "double-dual/equivalence/subdivision-chains",
                    "equivalences/cells-to-subdivision",
                    "equivalences/dual-to-subdivision",
                    "equivalences/subdivision-dual-to-cochains"}


@pytest.mark.parametrize("doc,seed", [("id2", 1), ("tri", 0), ("tri", 2)])
def test_an_entry_of_the_subdivision_chains_off_the_label_diagonal_breaks_d_squared(
        monkeypatch, tmp_path, doc, seed):
    def corrupt(self, deltas):
        dxp = deltas.dx_prime
        labels = dxp.labels
        negate_one_that_breaks(
            seed, dxp.diff, breaks_d_squared(dxp),
            lambda q, key: labels[q - 1][key[0]] != labels[q][key[1]])
        return deltas
    patch_lazy(monkeypatch, KSpaceData, "deltas", corrupt)
    assert failing_checks(doc, tmp_path) == (1, DX_PRIME_READERS)


# T² of the cochains is read by its soundness check, the double-dual
# collapse of the cochains and everything built on that collapse
T2_READERS = {"soundness/d-squared-and-support/double-dual",
              "double-dual/defining-identity",
              "double-dual/equivalence/cochains", "double-dual/natural-rows",
              "double-dual/naturality",
              "equivalences/subdivision-dual-to-cochains"}


@pytest.mark.parametrize("doc", ["hex", "id2", "tri"])
def test_a_raising_square_of_the_cochains_fails_only_its_readers(
        monkeypatch, tmp_path, doc):
    def raises(self):
        raise KeyError("missing generator")
    monkeypatch.setattr(KSpaceData, "t2", property(raises))
    assert failing_checks(doc, tmp_path) == (1, T2_READERS)


@pytest.mark.parametrize("doc,seed", [("hex", 0), ("id2", 1), ("tri", 2)])
def test_an_entry_of_the_cochains_of_a_closed_simplex_doubled(
        monkeypatch, tmp_path, doc, seed):
    # the cochains of each closed maximal simplex are built inside the
    # contractible-star lemma and read by nothing else; the lemma cuts them
    # to every star with no fullness guard, so it must fail on its own
    inside = []
    lemma, dual = rkcore.check_lemma_clem, rkcore.dual_star

    def in_lemma(*args):
        inside.append(True)
        try:
            return lemma(*args)
        finally:
            inside.pop()

    def corrupt(C):
        cochains = dual(C)
        if inside:
            rng = random.Random(seed)
            q = rng.choice(sorted(cochains.diff))
            mat = cochains.diff[q]
            entries = dict(mat.entries())
            key = rng.choice(sorted(entries))
            entries[key] *= 2
            cochains.diff[q] = Matrix(mat.ring, mat.nrows, mat.ncols, entries)
        return cochains
    monkeypatch.setattr(checks, "check_lemma_clem", in_lemma)
    monkeypatch.setattr(rkcore, "dual_star", corrupt)
    code, failing = failing_checks(doc, tmp_path)
    assert code == 1 and failing
    assert {name.rsplit("/", 1)[0] for name in failing} == {
        "assembly/contractible-star"}


def is_flag(simplices) -> bool:
    """Whether simplices of K, as vertex tuples, are totally ordered by
    inclusion: exactly when they span a simplex of the subdivision of K."""
    by_size = sorted(set(simplices), key=len)
    return (len({len(s) for s in by_size}) == len(by_size)
            and all(set(a) < set(b) for a, b in zip(by_size, by_size[1:])))


# the derived control map is built unchecked, and only its own soundness
# check validates it: no other check reads it
@pytest.mark.parametrize("doc,seed", [("hex", 0), ("id2", 1), ("tri", 2)])
def test_a_vertex_of_the_subdivision_sent_off_the_derived_control_map(
        monkeypatch, tmp_path, doc, seed):
    def resend(self, deltas):
        pi = deltas.ks_prime.pi
        breaking = []
        for v in pi.source.vertices:
            for w in pi.target.vertices:
                moved = {**pi.mapping, v: w}
                if any(not is_flag([moved[u] for u in c])
                       for c in pi.source.all_simplices() if v in c):
                    breaking.append((v, w))
        v, w = random.Random(seed).choice(breaking)
        pi.mapping[v] = w
        return deltas
    patch_lazy(monkeypatch, KSpaceData, "deltas", resend)
    assert failing_checks(doc, tmp_path) == (
        1, {"soundness/derived-control-map"})


# X' is built unchecked; without a top chain its Euler characteristic moves,
# the cells of X lose a chain, and the fundamental cycles through it land
# outside the subdivision chains, which breaks every map built on them
SUBDIVISION_READERS = {"soundness/subdivision-euler", "cells/ball-structure",
                       "cap/fundamental-cycles", "cap/monomorphism",
                       "cap/factorization",
                       "equivalences/cells-to-subdivision",
                       "equivalences/dual-to-subdivision",
                       "equivalences/subdivision-dual-to-cochains"}


@pytest.mark.parametrize("doc,seed", [("hex", 0), ("id2", 1), ("tri", 2)])
def test_a_top_chain_dropped_from_the_subdivision(monkeypatch, tmp_path, doc,
                                                  seed):
    derived = rkcore.derived_kspace

    def drop(ks):
        dx, dk, ks_prime = derived(ks)
        prime = dx.prime
        gone = random.Random(seed).choice(prime.simplices_of_dim(prime.dim))
        prime = SimplicialComplex._from_closed(
            prime.vertices, [c for c in prime.all_simplices() if c != gone])
        pi = SimplicialMap(prime, dk.prime, ks_prime.pi.mapping,
                           validate=False)
        return (DerivedComplex(ks.X, prime), dk,
                KSpace(prime, dk.prime, pi))
    monkeypatch.setattr(rkcore, "derived_kspace", drop)
    assert failing_checks(doc, tmp_path) == (1, SUBDIVISION_READERS)


# the cell chains match each of their generators to its cell of the ball,
# so without one cell every reader of the cells fails; the census, counted
# from X and pi alone, fails on its own
CELL_READERS = {"cells/census", "cells/ball-structure", "cells/homology",
                "cells/boundary-display", "cells/identification-isomorphism",
                "soundness/d-squared-and-support/cell-chains",
                "tensor/projection-epimorphism", "tensor/hom-dual-isomorphism",
                "double-dual/equivalence/cell-chains",
                "cap/fundamental-cycles", "cap/monomorphism",
                "cap/factorization", "equivalences/cells-to-subdivision",
                "equivalences/dual-to-subdivision",
                "equivalences/subdivision-dual-to-cochains",
                "naturality/identity-map", "naturality/control-square"}


@pytest.mark.parametrize("doc,seed", [("hex", 0), ("id2", 1), ("tri", 2)])
def test_a_cell_dropped_from_the_ball(monkeypatch, tmp_path, doc, seed):
    def drop(self, ball):
        del ball.cells[random.Random(seed).choice(sorted(ball.cells))]
        return ball
    patch_lazy(monkeypatch, KSpaceData, "ball", drop)
    assert failing_checks(doc, tmp_path) == (1, CELL_READERS)


# the projection of the full tensor onto the blocked one is built inside
# its one check
@pytest.mark.parametrize("doc,seed", [("hex", 0), ("id2", 1), ("tri", 2)])
def test_a_kept_pair_killed_in_the_projection_onto_the_blocked_tensor(
        monkeypatch, tmp_path, doc, seed):
    project = checks.projection_map

    def kill(src, tgt):
        proj = project(src, tgt)
        rng = random.Random(seed)
        q = rng.choice(sorted(proj.comps))
        mat = proj.comps[q]
        entries = dict(mat.entries())
        del entries[rng.choice(sorted(entries))]
        proj.comps[q] = Matrix(mat.ring, mat.nrows, mat.ncols, entries)
        return proj
    monkeypatch.setattr(checks, "projection_map", kill)
    assert failing_checks(doc, tmp_path) == (
        1, {"tensor/projection-epimorphism"})


def negate_one_seeded(f, seed):
    """Negate one entry of the map f in place, chosen by ``seed``."""
    rng = random.Random(seed)
    q = rng.choice(sorted(f.comps))
    f.comps[q] = negated(f.comps[q], rng.choice(
        sorted(key for key, _ in f.comps[q].entries())))
    return f


MAP_CASES = over_z_and_q([("hex", 0), ("id2", 1), ("tri", 2), ("circ3", 3)],
                         ["hex", "id2", "tri", "circ3"])


# T of the identity of the cochains is built inside duality/functor-identity
# alone: no other map the functor takes has one complex at both ends
@pytest.mark.parametrize("doc,seed,ring", MAP_CASES)
def test_an_entry_of_the_duality_functor_on_the_identity_negated(
        monkeypatch, tmp_path, doc, seed, ring):
    functor = Dualizer.map

    def negate(self, f, src, tgt):
        tf = functor(self, f, src, tgt)
        return negate_one_seeded(tf, seed) if f.src is f.tgt else tf
    monkeypatch.setattr(Dualizer, "map", negate)
    assert failing_checks(doc, tmp_path, ring) == (
        1, {"duality/functor-identity"})


# the identity of the cells tensored is built inside naturality/identity-map
# alone; the control square tensors the pushforward onto other cells
@pytest.mark.parametrize("doc,seed,ring", MAP_CASES)
def test_an_entry_of_the_identity_tensored_with_the_cochains_of_k_negated(
        monkeypatch, tmp_path, doc, seed, ring):
    tensored = checks.tensor_map_left

    def negate(f, src, tgt):
        fk = tensored(f, src, tgt)
        return negate_one_seeded(fk, seed) if src is tgt else fk
    monkeypatch.setattr(checks, "tensor_map_left", negate)
    assert failing_checks(doc, tmp_path, ring) == (
        1, {"naturality/identity-map"})


# two cells of one degree and label sent to one cycle: the cell map is no
# longer injective, the first cell's cycle is not its own, and every reader
# of the cell map sees the changed column
@pytest.mark.parametrize("doc,seed", [("hex", 0), ("id2", 1), ("tri", 2)])
def test_a_cell_sent_to_the_fundamental_cycle_of_another_cell_of_its_label(
        monkeypatch, tmp_path, doc, seed):
    def resend(self, cmap):
        rng = random.Random(seed)
        labels = cmap.src.labels
        q, j, k = rng.choice([(q, j, k) for q, ls in sorted(labels.items())
                              for j in range(len(ls)) for k in range(len(ls))
                              if j != k and ls[j] == ls[k]])
        mat = cmap.comps[q]
        entries = {key: v for key, v in mat.entries() if key[1] != j}
        entries.update({(i, j): v for (i, col), v in mat.entries()
                        if col == k})
        cmap.comps[q] = Matrix(mat.ring, mat.nrows, mat.ncols, entries)
        return cmap
    patch_lazy(monkeypatch, KSpaceData, "fundamental_cycles", resend)
    assert failing_checks(doc, tmp_path) == (1, CELL_MAP_READERS | {
        "cap/monomorphism", "cap/fundamental-cycles"})


def other_branch(iso, into_t):
    """``hom_dual_iso`` taking the other branch of its sign rule on one kind
    of target: into T(C) as into a plain tensor when ``into_t``, else into
    a plain tensor as into T(C).  The other kind keeps its branch."""
    def swapped(src, t):
        kept = t.dual_of
        if (kept is not None) != into_t:
            return iso(src, t)
        t.dual_of = t.left if kept is None else None
        try:
            return iso(src, t)
        finally:
            t.dual_of = kept
    return swapped


BRANCH_CASES = over_z_and_q([("hex",), ("id2",), ("tri",)],
                            ["hex", "id2", "tri"])


# the isomorphism into T of the cochains is tensored into the square's
# isomorphism, which only the defining identity reads
@pytest.mark.parametrize("doc,ring", BRANCH_CASES)
def test_the_hom_to_dual_sign_into_t_taken_as_into_a_plain_tensor(
        monkeypatch, tmp_path, doc, ring):
    monkeypatch.setattr(checks, "hom_dual_iso",
                        other_branch(checks.hom_dual_iso, True))
    assert failing_checks(doc, tmp_path, ring) == (
        1, {"double-dual/defining-identity"})


# the isomorphism into the cells, a plain tensor, is built inside its one
# check
@pytest.mark.parametrize("doc,ring", BRANCH_CASES)
def test_the_hom_to_dual_sign_into_a_plain_tensor_taken_as_into_t(
        monkeypatch, tmp_path, doc, ring):
    monkeypatch.setattr(checks, "hom_dual_iso",
                        other_branch(checks.hom_dual_iso, False))
    assert failing_checks(doc, tmp_path, ring) == (
        1, {"tensor/hom-dual-isomorphism"})

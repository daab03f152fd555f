"""The splitting of the chains of X over each star of K, which
``dx.validate()`` proves, against the route that cuts the complex twice per
label and validates two shared maps; the one scan of the star ranks, which
the contractible-star lemma reads, against the ranks of the cuts; and the
lemma computed once per dimension on the standard simplex against the
lemma computed on the cochains of each maximal simplex."""

import os
import random
import sys

import pytest

from rkdual import checks, rkcore
from rkdual.checks import KSpaceData, parse_document
from rkdual.corpus import CORPUS_NAMES
from rkdual.linalg import ChainComplexError, Matrix
from rkdual.report import Report
from rkdual.rings import GF2, QQ, ZZ
from rkdual.rkcore import (RKComplex, RKMap, check_lemma_clem, delta_chain,
                           dual_star, star_ranks)

import oracles
from oracles import (corpus_kspace, lemma_on_its_own_cochains,
                     star_splitting_by_cuts)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

import ladder  # noqa: E402

NAMES = [*CORPUS_NAMES, "id-torus-7", "id-rp2", "id-sphere-3"]


def kspace(name):
    rungs = dict(ladder.RUNGS)
    return (parse_document(rungs[name]()[0]).kspaces[0][1] if name in rungs
            else corpus_kspace(name))


def by_scan(C):
    """Per simplex of K whose star is not all of K, whether the ranks of
    the star and the rest add up, read from :func:`star_ranks`."""
    ranks = star_ranks(C)
    return {sigma: sum(ranks[sigma]) == C.total_rank()
            for sigma in C.K.all_simplices() if len(C.K.star(sigma)) < len(ranks)}


def ranks_of(cut):
    return {sigma: ranked for sigma, (ranked, _) in cut.items()}


def crossings(cut):
    return {sigma: q for sigma, (_, q) in cut.items() if q is not None}


@pytest.mark.parametrize("ring", [ZZ, QQ, GF2], ids=str)
@pytest.mark.parametrize("name", NAMES)
def test_the_scan_gives_the_verdicts_of_the_cuts(name, ring):
    dx = delta_chain(kspace(name), ring)
    for C in (dx, dual_star(dx)):
        assert by_scan(C) == ranks_of(star_splitting_by_cuts(C))
        assert all(by_scan(C).values())
    # on the cochains each star is a subcomplex, not a quotient, so the
    # rest's inclusion fails wherever an entry crosses: the oracle can fail
    crossed = crossings(star_splitting_by_cuts(dual_star(dx)))
    assert crossed or len(list(dx.K.all_simplices())) == 1


@pytest.mark.parametrize("name", [*CORPUS_NAMES, *dict(ladder.RUNGS)])
def test_the_cuts_find_no_crossing_on_a_validated_complex(name):
    # support over the opposite order sends an entry from label a to a face
    # of a, so once the chains validate no entry enters a star from outside
    dx = delta_chain(kspace(name), ZZ).validate()
    cut = star_splitting_by_cuts(dx)
    assert all(ranks_of(cut).values()) and crossings(cut) == {}
    assert cut or len(list(dx.K.all_simplices())) == 1


@pytest.mark.parametrize("name", NAMES)
def test_the_star_ranks_are_the_ranks_of_the_cuts(name):
    dx = delta_chain(kspace(name), ZZ)
    everything = set(dx.K.all_simplices())
    for sigma, (inside, outside) in star_ranks(dx).items():
        star = set(dx.K.star(sigma))
        assert inside == dx.sub(star).total_rank()
        assert outside == dx.sub(everything - star).total_rank()


def off_the_support(C, seed):
    """``C`` with one entry added from a generator to one whose label is
    not below it in C's order, unvalidated; the degree of the entry."""
    rng = random.Random(seed)
    spots = [(q, i, j) for q, mat in sorted(C.diff.items())
             for j, a in enumerate(C.labels[q])
             for i, b in enumerate(C.labels[q - 1]) if not C.leq(a, b)]
    q, i, j = rng.choice(spots)
    mat = C.diff[q]
    entries = dict(mat.entries())
    entries[i, j] = entries.get((i, j), 0) + 1
    diff = dict(C.diff)
    diff[q] = Matrix(mat.ring, mat.nrows, mat.ncols, entries)
    return RKComplex(C.ring, C.K, C.op, C.labels, diff, name=C.name), q


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["hex", "id2", "tri", "id-torus-7"])
def test_an_entry_off_the_support_is_found_by_both_routes(name, seed):
    dx, q = off_the_support(delta_chain(kspace(name), ZZ), seed)
    # the cuts see the entry cross into a star at its degree; validation
    # sees it break the support there, and star-splitting fails with it
    assert set(crossings(star_splitting_by_cuts(dx)).values()) == {q}
    data = verify_data(name)
    data.deltas.dx = dx
    report = Report("verify", "Z")
    checks.check_assembly(report, name, data)
    assert not report.passed
    with pytest.raises(ChainComplexError,
                       match=f"support violated by d at degree {q}:"):
        dx.validate()


def test_a_label_off_k_fails_the_ranks_of_both_routes():
    dx = delta_chain(corpus_kspace("hex"), ZZ)
    labels = dict(dx.labels)
    labels[0] = (("nowhere",),) + labels[0][1:]
    C = RKComplex(dx.ring, dx.K, dx.op, labels, dx.diff, name=dx.name)
    # a generator off K lies in no star and in no rest
    scanned, cut = by_scan(C), ranks_of(star_splitting_by_cuts(C))
    assert scanned.keys() == cut.keys()
    assert not any([*scanned.values(), *cut.values()])


def verify_data(name):
    data = KSpaceData.build(kspace(name), ZZ)
    data.deltas.dx.validate()
    return data


@pytest.mark.parametrize("name", ["hex", "id-torus-7"])
def test_star_splitting_cuts_nothing_and_places_no_shared_map(monkeypatch,
                                                              name):
    data = verify_data(name)
    calls = []

    def spy(what):
        def called(*args, **kwargs):
            calls.append(what)
            raise AssertionError(f"{what} called")
        return called
    monkeypatch.setattr(RKComplex, "sub", spy("sub"))
    monkeypatch.setattr(RKMap, "shared", spy("shared"))
    report = Report("verify", "Z")
    checks.check_assembly(report, name, data)
    assert calls == [] and report.passed
    assert [c.name for c in report.checks] == ["assembly/star-splitting"]


@pytest.mark.parametrize("name", ["circ3", "hex", "id2", "id-torus-7"])
def test_the_lemma_cuts_once_per_face_of_its_simplex(monkeypatch, name):
    K = kspace(name).K
    maximal = [s for s in K.all_simplices()
               if all(not set(s) < set(t) for t in K.star(s))]
    cuts, sub = [], RKComplex.sub

    def counted(self, labels):
        cuts.append(labels)
        return sub(self, labels)
    monkeypatch.setattr(RKComplex, "sub", counted)
    for S in maximal:
        cuts.clear()
        verdicts = check_lemma_clem(K, S, ZZ)
        assert all(ok for _, ok in verdicts.values())
        assert len(verdicts) == len(list(K.all_simplices()))
        assert len(cuts) == len(K.closure(S))


def test_the_lemma_reads_a_zero_off_its_simplex_from_the_counts(monkeypatch):
    K = corpus_kspace("circ3").K
    verdicts = check_lemma_clem(K, ("a", "b"), ZZ)
    zeros = {s for s, (kind, ok) in verdicts.items() if kind == "zero"}
    assert zeros == {("c",), ("a", "c"), ("b", "c")}
    # a count that is not zero fails the verdict at its label alone
    ranks = rkcore.star_ranks

    def miscounted(C):
        out = ranks(C)
        out[("c",)] = (1, out[("c",)][1])
        return out
    monkeypatch.setattr(rkcore, "star_ranks", miscounted)
    verdicts = check_lemma_clem(K, ("a", "b"), ZZ)
    assert not all(ok for _, ok in verdicts.values())
    assert [s for s, (_, ok) in verdicts.items() if not ok] == [("c",)]


def maximal_simplices(K):
    return [s for s in K.all_simplices()
            if all(not set(s) < set(t) for t in K.star(s))]


@pytest.mark.parametrize("ring", [ZZ, QQ, GF2], ids=str)
@pytest.mark.parametrize("name", [*CORPUS_NAMES,
                                  *(rung for rung, _ in ladder.RUNGS)])
def test_the_lemma_read_from_the_standard_simplex_is_the_lemma_on_each(
        name, ring):
    K, table = kspace(name).K, {}
    for S in maximal_simplices(K):
        verdicts = check_lemma_clem(K, S, ring, table)
        assert verdicts == lemma_on_its_own_cochains(K, S, ring)
        assert all(ok for _, ok in verdicts.values())
    assert sorted(table) == sorted({len(S) - 1 for S in maximal_simplices(K)})


@pytest.mark.parametrize("name", ["hex", "id2", "tri", "id-torus-7"])
def test_a_doubled_cochain_entry_moves_both_lemmas_alike(monkeypatch, name):
    # the cochains of Δⁿ and of a closed n-simplex have the same matrices,
    # so doubling the same entry of each gives the same verdicts, or the
    # same error when d∘d = 0 breaks
    dual = rkcore.dual_star

    def doubled(C):
        cochains = dual(C)
        q = max(cochains.diff)
        mat = cochains.diff[q]
        entries = dict(mat.entries())
        key = min(entries)
        entries[key] *= 2
        cochains.diff[q] = Matrix(mat.ring, mat.nrows, mat.ncols, entries)
        return cochains

    def outcome(lemma, *args):
        try:
            return lemma(*args)
        except ChainComplexError as exc:
            return str(exc)
    monkeypatch.setattr(rkcore, "dual_star", doubled)
    monkeypatch.setattr(oracles, "dual_star", doubled)
    K, table, failed = kspace(name).K, {}, 0
    for S in maximal_simplices(K):
        got = outcome(check_lemma_clem, K, S, ZZ, table)
        assert got == outcome(lemma_on_its_own_cochains, K, S, ZZ)
        failed += isinstance(got, str) or not all(
            ok for _, ok in got.values())
    assert failed == len(maximal_simplices(K))


@pytest.mark.parametrize("name", ["hex", "id2", "id-torus-7", "id-sphere-3"])
def test_a_verify_computes_the_lemma_once_per_dimension(monkeypatch, name):
    data = KSpaceData.build(kspace(name), ZZ)
    calls, lemma = [], rkcore.simplex_lemma

    def counted(n, ring):
        calls.append(n)
        return lemma(n, ring)
    monkeypatch.setattr(rkcore, "simplex_lemma", counted)
    report = Report("verify", "Z")
    checks.check_lemmas(report, name, data)
    maximal = maximal_simplices(data.ks.K)
    assert report.passed and len(report.checks) == len(maximal)
    assert sorted(calls) == sorted({len(S) - 1 for S in maximal})

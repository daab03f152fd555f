"""Document ingestion and the check pipeline behind the CLI.

Every theorem the package implements is exercised here as a named check on
a concrete K-space; the verify command runs the full battery.  Checks never
raise on mathematical failure: they record a failed verdict with details so
a run reports every broken property at once.  Malformed input raises
:class:`InputError`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from math import comb

from .rings import Ring
from .linalg import ChainComplexError, homology
from .simplicial import (InputError, KSpace, SimplicialComplex,
                         barycentric_subdivision, chain_complex,
                         control_kspace, control_map, derived_kspace,
                         kspace_identity, simplex_name, validate_kspace)
from .rkcore import (DeltaComplexes, RKMap, check_lemma_clem, delta_chain,
                     delta_complexes, dual_star_map, hom_rk, is_full,
                     maximal_label_ses, validate_exact)
from .duality import (Dualizer, hom_dual_iso, projection_map, tensor_map_left,
                      tensor_r, verify_diagonal_equivalence)
from .ballcomplex import (BallComplex, OrientationPair, cell_name,
                          cellular_chain_complex, cellular_iso, dual_cell,
                          dual_cones, induced_chain_map, same_homology,
                          verify_boundary_display)
from .capproduct import (fundamental_cycle_map, is_monomorphism,
                         verify_cap_chain_map, verify_cap_factorization,
                         verify_equivalences, verify_fundamental_cycles)
from .report import Report, homology_table
from . import corpus


@dataclass
class Document:
    """A parsed input document: named complexes, K-spaces and a ring."""

    complexes: dict
    kspaces: list                     # (name, KSpace)
    ring: Ring
    checks: list = field(default_factory=list)


def parse_document(payload: dict) -> Document:
    if not isinstance(payload, dict):
        raise InputError("document must be a JSON object")
    complexes = {}
    raw_cx = payload.get("complexes")
    if not isinstance(raw_cx, dict) or not raw_cx:
        raise InputError("document needs a non-empty 'complexes' table")
    for name in sorted(raw_cx):
        entry = raw_cx[name]
        if not isinstance(entry, dict) or "simplices" not in entry:
            raise InputError(f"complex {name!r} needs a 'simplices' list")
        vertices = entry.get("vertices")
        simplices = entry["simplices"]
        if not isinstance(simplices, list) or not all(
                isinstance(s, list) and s for s in simplices):
            raise InputError(f"complex {name!r} has a malformed simplex")
        if not simplices:
            raise InputError(f"complex {name!r} is empty: it has no simplices")
        if not isinstance(vertices, (list, type(None))):
            raise InputError(f"complex {name!r}: 'vertices' must be a list, "
                             f"got {vertices!r}")
        for s in simplices + [vertices or []]:
            for v in s:
                if not isinstance(v, str):
                    raise InputError(f"complex {name!r}: vertex {v!r} is not "
                                     f"a string")
        complexes[name] = SimplicialComplex.build(vertices, simplices)
    kspaces = []
    raw_maps = payload.get("maps", {})
    if not isinstance(raw_maps, dict):
        raise InputError(f"'maps' must be a table of maps, got {raw_maps!r}")
    for name in sorted(raw_maps):
        entry = raw_maps[name]
        if not isinstance(entry, dict):
            raise InputError(f"map {name!r} must be a table, got {entry!r}")
        for key in ("source", "target", "vertices"):
            if key not in entry:
                raise InputError(f"map {name!r} needs '{key}'")
        assignment = entry["vertices"]
        if not isinstance(assignment, dict) or not all(
                isinstance(v, str) for v in assignment.values()):
            raise InputError(f"map {name!r}: 'vertices' must send vertices "
                             f"to vertices, got {assignment!r}")
        for side in ("source", "target"):
            if not isinstance(entry[side], str):
                raise InputError(f"map {name!r}: {side} {entry[side]!r} "
                                 f"is not a complex name")
            if entry[side] not in complexes:
                raise InputError(f"map {name!r} references unknown complex "
                                 f"{entry[side]!r}")
        ks = validate_kspace(complexes[entry["source"]],
                             complexes[entry["target"]], entry["vertices"])
        kspaces.append((name, ks))
    if not kspaces:
        for name in sorted(complexes):
            cx = complexes[name]
            kspaces.append((name, control_kspace(cx)))
    ring = parse_ring(payload.get("ring", "Z"))
    checks = payload.get("checks", [])
    if not isinstance(checks, list):
        raise InputError(f"'checks' must be a list of check groups, got {checks!r}")
    known = ["all"] + [group for group, _ in CHECK_GROUPS]
    for group in checks:
        if group not in known:
            raise InputError(f"unknown check group {group!r}; expected one of "
                             + ", ".join(known))
    return Document(complexes, kspaces, ring, list(checks))


def parse_ring(value) -> Ring:
    """The coefficient ring named by a document or the command line."""
    if not isinstance(value, str):
        raise InputError(f"ring must be 'Z', 'Q' or 'Z/p', got {value!r}")
    try:
        return Ring.parse(value)
    except ValueError as exc:
        raise InputError(f"bad ring {value!r}: {exc}") from None


def _guard(report: Report, name: str, target: str, fn):
    """Run a check body; an exception becomes a failed check, named by its type
    when unexpected, so one broken check hides no other verdict."""
    try:
        passed, details = fn()
    except (ChainComplexError, InputError) as exc:
        report.add(name, target, False, error=str(exc))
        return False
    except Exception as exc:
        report.add(name, target, False, error=f"{type(exc).__name__}: {exc}")
        return False
    report.add(name, target, passed, **details)
    return passed


# the complex each soundness check reads, by the name of the check
COMPLEXES = {
    "chains": lambda d: d.deltas.dx, "cochains": lambda d: d.deltas.dstar_x,
    "subdivision-chains": lambda d: d.deltas.dx_prime,
    "cell-chains": lambda d: d.cellular, "dual": lambda d: d.tc,
    "double-dual": lambda d: d.t2}


@dataclass
class KSpaceData:
    """The objects of one K-space over one ring, each built on first use and
    only once.

    Each object a verify reads has one construction site: a cached
    property here if two check groups read it, else its one reader.
    Builders and certificates take the objects they use as arguments, so a
    check that runs alone builds only what it reads.
    """

    ks: KSpace
    ring: Ring

    @classmethod
    def build(cls, ks: KSpace, ring: Ring) -> "KSpaceData":
        return cls(ks, ring)

    @cached_property
    def orientation(self) -> OrientationPair:
        return OrientationPair.standard(self.ks)

    @cached_property
    def deltas(self) -> DeltaComplexes:
        """Chains, cochains and subdivision chains, with the subdivisions
        of X and K."""
        return delta_complexes(self.ks, self.ring, self.orientation.bx)

    @cached_property
    def dualizer(self) -> Dualizer:
        return Dualizer(self.ks.K, self.ring)

    @cached_property
    def ball(self) -> BallComplex:
        return BallComplex(self.ks, self.deltas.derived_x)

    @cached_property
    def cellular(self):
        """The cell chains, keyed by their cells (T, sigma) of ``ball``."""
        return cellular_chain_complex(self.orientation, self.deltas.dx,
                                      self.dualizer.dstar_k, self.ball)

    @cached_property
    def tc(self):
        """T(cochains of X)."""
        return self.dualizer.object(self.deltas.dstar_x)

    @cached_property
    def t2(self):
        """T²(cochains of X)."""
        return self.dualizer.square(self.tc)

    @cached_property
    def t_sub(self):
        """T(subdivision chains)."""
        return self.dualizer.object(self.deltas.dx_prime)

    @cached_property
    def e(self) -> RKMap:
        """The double-dual collapse ``t2`` -> cochains of X."""
        return self.dualizer.double_dual_map(self.deltas.dstar_x, self.tc,
                                             self.t2)

    @cached_property
    def iso(self) -> RKMap:
        """The cellular identification of ``tc`` with the cell chains."""
        return cellular_iso(self.tc, self.cellular)

    @cached_property
    def fundamental_cycles(self) -> RKMap:
        """The cell map: cell chains -> subdivision chains."""
        return fundamental_cycle_map(self.ks, self.cellular,
                                     self.deltas.dx_prime, self.orientation)

    @cached_property
    def push(self) -> RKMap:
        """The pushforward of chains along the control map onto (K, id)."""
        fmap = control_map(self.ks)
        or_k = OrientationPair.standard(fmap.tgt)
        dk = delta_chain(fmap.tgt, self.ring, or_k.bx)
        return induced_chain_map(fmap, self.deltas.dx, dk, self.orientation,
                                 or_k)

    @cached_property
    def pullback(self) -> RKMap:
        """The dual of ``push``: cochains of (K, id) -> ``deltas.dstar_x``."""
        return dual_star_map(self.push, tgt=self.deltas.dstar_x)

    @cached_property
    def t_k(self):
        """T(cochains of (K, id)), the source of ``pullback``."""
        return self.dualizer.object(self.pullback.src)

    @cached_property
    def composite(self) -> RKMap:
        """The cell map after ``iso``: ``tc`` -> subdivision chains."""
        return self.fundamental_cycles.compose(self.iso)

    def complexes(self):
        """The complexes named by :data:`COMPLEXES`, in its order."""
        return {key: read(self) for key, read in COMPLEXES.items()}

    @cached_property
    def x_homology(self):
        """Homology of X, the reference for the cellular and dual checks."""
        return homology(chain_complex(self.ks.X, self.ring).validate())


def check_soundness(report: Report, target: str, data: KSpaceData):
    """d∘d = 0 and the support condition for each standard complex alone."""
    for key, read in COMPLEXES.items():
        def body(read=read):
            read(data).validate()
            return True, {}
        _guard(report, f"soundness/d-squared-and-support/{key}", target, body)


def check_derived(report: Report, target: str, data: KSpaceData):
    def body():
        data.deltas.ks_prime.pi.validate()
        return True, {}
    _guard(report, "soundness/derived-control-map", target, body)

    def chi_body():
        chi = data.ks.X.euler_characteristic()
        ok = data.deltas.derived_x.prime.euler_characteristic() == chi
        return ok, {"chi": chi}
    _guard(report, "soundness/subdivision-euler", target, chi_body)


def check_assembly(report: Report, target: str, data: KSpaceData):
    """Stars and their complements are full, and the chains of X split over
    each star: the generators labeled in star(sigma) form a quotient
    complex and the rest a subcomplex.

    The splitting is what ``dx.validate()`` proves.  Support over the
    opposite order sends every entry of d from a generator labeled a to one
    labeled by a face b of a, and star(sigma) holds b only if it holds a,
    so no entry runs from outside a star into it: the inclusion of the rest
    and the projection onto the star are chain maps.  Every label is a
    simplex of K, since the K-space was validated when it was parsed, so
    the star and the rest split the generators and their ranks add up.
    What is left to certify is the fullness of each star and its
    complement, which depends on K alone.
    """
    K = data.ks.K

    def body():
        data.deltas.dx.validate()
        all_simplices = set(K.all_simplices())
        for sigma in K.all_simplices():
            star = set(K.star(sigma))
            rest = all_simplices - star
            if not is_full(K, star) or (rest and not is_full(K, rest)):
                return False, {"label": simplex_name(sigma)}
        return True, {}
    _guard(report, "assembly/star-splitting", target, body)


def check_lemmas(report: Report, target: str, data: KSpaceData):
    """The contractible-star lemma at each maximal simplex S of K.

    Its verdicts at the faces of S depend on dim S alone, so the lemma is
    computed once per dimension, on the standard simplex, into a table this
    call keeps, and each S reads them through its relabelling.
    """
    maximal = [s for s in data.ks.K.all_simplices()
               if all(not set(s) < set(t) for t in data.ks.K.star(s))]
    table = {}
    for S in maximal:
        def body(S=S):
            verdicts = check_lemma_clem(data.ks.K, S, data.ring, table)
            return _failures(sorted(simplex_name(s) for s, (_, ok)
                                    in verdicts.items() if not ok), None)
        _guard(report, f"assembly/contractible-star/{simplex_name(S)}",
               target, body)


def check_tensor(report: Report, target: str, data: KSpaceData):
    def proj_body():
        proj = projection_map(tensor_r(data.deltas.dx, data.dualizer.dstar_k),
                              data.cellular)
        proj.validate()
        # kernel is spanned exactly by the non-star pairs
        for q in proj.src.degrees():
            if sum(1 for _ in proj.component(q).columns()) != proj.tgt.rank(q):
                return False, {"degree": q}
        return True, {}
    _guard(report, "tensor/projection-epimorphism", target, proj_body)

    def psi_body():
        psi = hom_dual_iso(hom_rk(data.dualizer.dstar_k, data.deltas.dstar_x),
                           data.cellular)
        psi.validate()
        return psi.is_bijection_on_bases(), {}
    _guard(report, "tensor/hom-dual-isomorphism", target, psi_body)


def check_duality(report: Report, target: str, data: KSpaceData):
    def ident_body():
        lhs = data.dualizer.map(RKMap.identity(data.deltas.dstar_x), data.tc,
                                data.tc)
        return lhs == RKMap.identity(data.tc), {}
    _guard(report, "duality/functor-identity", target, ident_body)

    try:
        split = maximal_label_ses(data.deltas.dstar_x)
    except Exception as exc:        # fails the two checks of the split below
        split = exc
    if split is not None:
        t_ends = []                 # T(C') and T(C''), built once for both

        def ends():
            if isinstance(split, Exception):
                raise split
            if not t_ends:
                # the middle of the sequence is the cochain complex itself
                t_ends.extend(data.dualizer.object(cx)
                              for cx in (split[0].src, split[1].tgt))
            return (*split, *t_ends)

        def exact_body():
            i, j, top, t_sub, t_quo = ends()
            dz = data.dualizer
            # T reverses the arrows: T(C'') -> T(C) -> T(C')
            validate_exact(dz.map(j, t_quo, data.tc),
                           dz.map(i, data.tc, t_sub))
            return True, {"split-label": simplex_name(top)}
        _guard(report, "duality/exactness", target, exact_body)

        def rows_body():
            i, j, _, t_sub, t_quo = ends()
            dz = data.dualizer
            e_sub = _collapse(dz, i.src, t_sub)
            e_quo = _collapse(dz, j.tgt, t_quo)
            tt_i = dz.map(dz.map(i, data.tc, t_sub), e_sub.src, data.t2)
            tt_j = dz.map(dz.map(j, t_quo, data.tc), data.t2, e_quo.src)
            ok = (data.e.compose(tt_i) == i.compose(e_sub)
                  and e_quo.compose(tt_j) == j.compose(data.e))
            return ok, {}
        _guard(report, "double-dual/natural-rows", target, rows_body)
        t_ends.clear()              # freed before the larger checks below

    def defining_body():
        dstar_x = data.deltas.dstar_x
        H, HK, ev = data.dualizer.evaluation(dstar_x)
        ev.validate()
        # H -> (T C)*, tensored with the cochains of K: HK -> T²C
        iso = tensor_map_left(hom_dual_iso(H, data.tc), HK, data.t2)
        iso.validate()
        return (data.e.compose(iso) == ev and iso.is_bijection_on_bases()), {}
    _guard(report, "double-dual/defining-identity", target, defining_body)

    def natural_body():
        pullback = data.pullback
        dz = data.dualizer
        e_k = _collapse(dz, pullback.src, data.t_k)
        tt = dz.map(dz.map(pullback, data.tc, data.t_k), e_k.src, data.t2)
        return data.e.compose(tt) == pullback.compose(e_k), {}
    _guard(report, "double-dual/naturality", target, natural_body)

    # the collapse e: T²C -> C of each complex C; T and T² of the
    # subdivision and cell chains are built for this check alone
    dz = data.dualizer
    collapses = (
        ("cochains", lambda: data.e),
        ("subdivision-chains", lambda: _collapse(
            dz, data.deltas.dx_prime, data.t_sub)),
        ("cell-chains", lambda: _collapse(
            dz, data.cellular, dz.object(data.cellular))))
    for key, e in collapses:
        _guard(report, f"double-dual/equivalence/{key}", target,
               lambda e=e: _failures(
                   verify_diagonal_equivalence(e()).failures(), None))


def _collapse(dz, C, tc):
    """The double-dual collapse T²C -> C, given ``tc`` = T(C)."""
    return dz.double_dual_map(C, tc, dz.square(tc))


def _failures(failures, keep=5):
    """The verdict and details of a check body that found ``failures``: it
    passes when there are none, and names the first ``keep``, or all of
    them when ``keep`` is None."""
    return not failures, ({"failures": failures[:keep]} if failures else {})


def _identification(data: KSpaceData):
    data.iso.validate()
    return data.iso.is_bijection_on_bases(), {}


def _homology_of_x(data: KSpaceData, cx):
    got = homology(cx.validate())
    return (same_homology(got, data.x_homology),
            {"homology": homology_table(got, data.ring)})


def check_cells(report: Report, target: str, data: KSpaceData):
    _guard(report, "cells/ball-structure", target,
           lambda: _failures(data.ball.check()))

    def cones_body():
        # one scan of K' files each chain under its cells, a cell is a read
        # of the index of K': the two agree on every pair sigma <= tau
        dk = data.deltas.derived_k
        K = data.ks.K
        cones = dual_cones(dk)
        for sigma in K.all_simplices():
            for tau in K.star(sigma):
                if list(dual_cell(sigma, tau, dk)) != cones.get((sigma, tau)):
                    return False, {"label": simplex_name(sigma)}
        return True, {}
    _guard(report, "cells/dual-cones", target, cones_body)

    def census_body():
        # counted from X and pi alone: a cell (T, s) of dimension
        # dim T - dim s for each simplex T and each nonempty face s of pi(T)
        want = Counter()
        for T in data.ks.X.all_simplices():
            n = len(data.ks.pi.image(T))
            want.update({len(T) - m: comb(n, m) for m in range(1, n + 1)})
        got = data.ball.census()
        return got == want, {"census": {str(d): k for d, k in
                                        sorted(got.items())}}
    _guard(report, "cells/census", target, census_body)

    _guard(report, "cells/boundary-display", target, lambda: _failures(
        verify_boundary_display(data.ks, data.cellular, data.orientation.bx)))

    _guard(report, "cells/homology", target,
           lambda: _homology_of_x(data, data.cellular))
    _guard(report, "cells/identification-isomorphism", target,
           lambda: _identification(data))
    _guard(report, "cells/dual-homology", target,
           lambda: _homology_of_x(data, data.tc))


def check_cap(report: Report, target: str, data: KSpaceData):
    _guard(report, "cap/chain-map-and-pairing/control", target,
           lambda: _failures(verify_cap_chain_map(data.deltas.derived_k,
                                                  data.ring)))

    def fact_body():
        return verify_cap_factorization(data.ks, data.fundamental_cycles,
                                        data.orientation), {}
    _guard(report, "cap/factorization", target, fact_body)

    def mono_body():
        return is_monomorphism(data.fundamental_cycles), {}
    _guard(report, "cap/monomorphism", target, mono_body)

    def cycles_body():
        verdicts = verify_fundamental_cycles(data.fundamental_cycles,
                                             data.ball)
        return _failures(sorted(cell_name(*cell)
                                for cell, ok in verdicts.items() if not ok))
    _guard(report, "cap/fundamental-cycles", target, cycles_body)


def check_equivalences(report: Report, target: str, data: KSpaceData):
    # each composite's map, built from the objects it reads alone: the cell
    # map, it after the cellular identification of T(cochains of X), and T
    # of that from T(subdivision chains) followed by the double-dual collapse
    maps = {
        "cells-to-subdivision": lambda: data.fundamental_cycles,
        "dual-to-subdivision": lambda: data.composite,
        "subdivision-dual-to-cochains": lambda: data.e.compose(
            data.dualizer.map(data.composite, data.t_sub, data.e.src))}
    for key, build in maps.items():
        _guard(report, f"equivalences/{key}", target,
               lambda build=build: _failures(
                   verify_equivalences(build()).failures(), None))


def check_naturality(report: Report, target: str, data: KSpaceData):
    def ident_body():
        dx, cells = data.deltas.dx, data.cellular
        push = induced_chain_map(kspace_identity(data.ks), dx, dx,
                                 data.orientation, data.orientation)
        return tensor_map_left(push, cells, cells) == RKMap.identity(cells), {}
    _guard(report, "naturality/identity-map", target, ident_body)

    def square_body():
        fmap = control_map(data.ks)
        or_k = OrientationPair.standard(fmap.tgt)
        dz = data.dualizer
        # the cells of the control K-space (K, id), on the subdivision of K
        ball_k = BallComplex(fmap.tgt, data.deltas.derived_k)
        cells_k = cellular_chain_complex(or_k, data.push.tgt, dz.dstar_k,
                                         ball_k)
        fk = tensor_map_left(data.push, data.cellular, cells_k)
        fk.validate()
        t_pullback = dz.map(data.pullback, data.tc, data.t_k)
        iso_y = cellular_iso(t_pullback.tgt, cells_k)
        return iso_y.compose(t_pullback) == fk.compose(data.iso), {}
    _guard(report, "naturality/control-square", target, square_body)


CHECK_GROUPS = (
    ("soundness", (check_soundness, check_derived)),
    ("assembly", (check_assembly, check_lemmas)),
    ("tensor", (check_tensor,)),
    ("duality", (check_duality,)),
    ("cells", (check_cells,)),
    ("cap", (check_cap,)),
    ("equivalences", (check_equivalences,)),
    ("naturality", (check_naturality,)),
)


def verify_kspace(report: Report, name: str, ks: KSpace, ring: Ring,
                  groups=None):
    data = KSpaceData.build(ks, ring)
    for group, fns in CHECK_GROUPS:
        if groups is not None and group not in groups:
            continue
        for fn in fns:
            fn(report, name, data)
    return data


def quick_sweep_kspace(report: Report, name: str, ks: KSpace, ring: Ring):
    """The random-sweep battery: differential soundness for all six
    complexes, the cell-structure combinatorics, and the identification."""
    data = KSpaceData.build(ks, ring)
    check_soundness(report, name, data)
    check_derived(report, name, data)
    _guard(report, "cells/ball-structure", name,
           lambda: _failures(data.ball.check()))
    _guard(report, "cells/identification-isomorphism", name,
           lambda: _identification(data))
    return data


def cell_incidence_lines(rk) -> list:
    """One line per cell of the cell chains ``rk``: ``id dim
    sign:boundary_id ...`` with the signed boundary matching the cellular
    boundary display."""
    lines = []
    for q in rk.degrees():
        mat = rk.d(q)
        for j, (T, sigma) in enumerate(rk.keys[q]):
            terms = []
            for i, v in mat.column(j):
                bid = cell_name(*rk.keys[q - 1][i])
                sign = "+1" if v == rk.ring.one else str(v)
                terms.append(f"{sign}:{bid}")
            terms.sort(key=lambda t: t.split(":", 1)[1])
            dim = (len(T) - 1) - (len(sigma) - 1)
            lines.append(" ".join([cell_name(T, sigma), str(dim)] + terms))
    return lines


def run_command(command: str, payload: dict | None, *, ring_override=None,
                seed=0, count=100, document_name=None) -> Report:
    """Execute one CLI command against a parsed document payload."""
    doc = parse_document(payload) if payload is not None else None
    ring = parse_ring(ring_override) if ring_override else (
        doc.ring if doc else Ring.integers())
    report = Report(command, str(ring), document_name)

    if command == "validate":
        for name in sorted(doc.complexes):
            cx = doc.complexes[name]
            report.tables[f"complex/{name}"] = {
                "vertices": len(cx.vertices),
                "simplices": sum(1 for _ in cx.all_simplices()),
                "dim": cx.dim,
                "euler": cx.euler_characteristic(),
            }
        for name, ks in doc.kspaces:
            def body(ks=ks):
                derived_kspace(ks)[2].pi.validate()
                return True, {}
            _guard(report, "validate/kspace", name, body)
    elif command == "subdivide":
        for name in sorted(doc.complexes):
            cx = doc.complexes[name]
            derived = barycentric_subdivision(cx)
            counts = {str(p): len(derived.prime.simplices_of_dim(p))
                      for p in range(derived.prime.dim + 1)}
            report.tables[f"subdivision/{name}"] = counts
            report.add("subdivide/euler-preserved", name,
                       derived.prime.euler_characteristic()
                       == cx.euler_characteristic())
    elif command == "homology":
        for name in sorted(doc.complexes):
            cx = chain_complex(doc.complexes[name], ring)
            def body(cx=cx, name=name):
                groups = homology(cx.validate())
                report.tables[f"homology/{name}"] = homology_table(groups, ring)
                return True, {}
            _guard(report, "homology/computed", name, body)
    elif command == "ball-complex":
        for name, ks in doc.kspaces:
            def body(ks=ks, name=name):
                ball = BallComplex(ks, barycentric_subdivision(ks.X))
                failures = ball.check()
                report.tables[f"cells/{name}"] = {
                    str(d): n for d, n in sorted(ball.census().items())}
                return _failures(failures)
            _guard(report, "cells/ball-structure", name, body)
    elif command == "dualize":
        for name, ks in doc.kspaces:
            def body(ks=ks, name=name):
                data = KSpaceData.build(ks, ring)
                tc = data.tc
                ranks = {str(q): tc.rank(q) for q in tc.degrees()}
                by_label = Counter(simplex_name(s) for q in tc.degrees()
                                   for s in tc.labels[q])
                diffs = {}
                for q in tc.degrees():
                    entries = [[i, j, str(v)] for (i, j), v in tc.d(q).entries()]
                    if entries:
                        diffs[str(q)] = entries
                report.tables[f"dual/{name}"] = {
                    "ranks": ranks, "ranks-by-label": by_label,
                    "differentials": diffs}
                tc.validate()
                return True, {}
            _guard(report, "dualize/sound", name, body)
    elif command == "verify":
        groups = None
        if doc.checks and "all" not in doc.checks:
            groups = set(doc.checks)
        for name, ks in doc.kspaces:
            verify_kspace(report, name, ks, ring, groups)
    elif command == "random":
        if count < 1:
            raise InputError(f"--count must be positive, got {count}")
        rng_spaces = corpus.random_kspaces(seed, count)
        for idx, ks in enumerate(rng_spaces):
            quick_sweep_kspace(report, f"seed{seed}/{idx}", ks, ring)
        report.tables["sweep"] = {"seed": seed, "count": count}
    elif command == "emit-cells":
        for name, ks in doc.kspaces:
            def body(ks=ks, name=name):
                data = KSpaceData.build(ks, ring)
                errors = verify_boundary_display(ks, data.cellular,
                                                 data.orientation.bx)
                if errors:
                    return False, {"error": "; ".join(errors)}
                report.tables[f"cells/{name}"] = cell_incidence_lines(
                    data.cellular)
                return True, {}
            _guard(report, "emit-cells/built", name, body)
    else:
        raise InputError(f"unknown command {command!r}")
    return report

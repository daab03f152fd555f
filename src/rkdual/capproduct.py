"""The flag-sum cap product into the barycentric subdivision.

A flag is a strictly decreasing chain of simplices; its sign is the product
of consecutive incidence numbers, which only depends on the orientations of
the two endpoints.  Capping a simplex against a dual cochain sums the top
flags of the corresponding dual cell with these signs, landing in chains of
the subdivision; the same recipe sends each cell of the induced cell
structure to a fundamental cycle of its dual cell, giving a label-by-label
equivalence from the cellular complex to subdivision chains.

Convention: a zero-length flag has sign +1, so a 0-cell goes to its
barycenter vertex with coefficient (-1)^dim times the orientation
comparison.
"""

from __future__ import annotations

from .linalg import smith_normal_form
from .rkcore import RKComplex, RKMap, delta_chain, dual_star, simplicial_rk
from .duality import left_keys, tensor_k, verify_diagonal_equivalence
from .simplicial import (DerivedComplex, InputError, KSpace, control_kspace,
                         incidence_canonical, simplex_name)
from .ballcomplex import CellularComplex


def flag_sign(flag, first_sign=1, last_sign=1) -> int:
    """Product of consecutive incidence numbers along a flag.

    Interior entries carry canonical orientations (their contribution
    cancels); the endpoint orientations enter through the two sign
    arguments.  A zero-length flag has sign +1.  Raises if consecutive
    entries are not codimension-one incident.
    """
    total = first_sign * last_sign
    for a, b in zip(flag, flag[1:]):
        inc = incidence_canonical(a, b)
        if inc == 0:
            raise InputError(
                f"flag entries {simplex_name(a)} > {simplex_name(b)} are not "
                f"codimension-one incident")
        total *= inc
    return total


def _saturated_flags(facets_of, top, keep, is_bottom):
    """Descending codimension-one chains from ``top`` whose entries satisfy
    ``keep``, stopping at entries satisfying ``is_bottom``."""
    out = []
    stack = [(top,)] if keep(top) else []
    while stack:
        flag = stack.pop()
        if is_bottom(flag[-1]):
            out.append(flag)
            continue
        below = [flag + (face,) for _, face in facets_of(flag[-1])
                 if keep(face)]
        stack.extend(reversed(below))
    return out


def cap_product(cx, tau, sigma, basis=None):
    """Cap a basis simplex against a dual basis cochain of one complex.

    Returns the chain in the subdivision as a dict flag -> coefficient:
    zero unless sigma <= tau, else the signed sum of the top flags of the
    dual cell of sigma inside tau, with overall sign (-1)^{dim sigma}.
    The output does not change under a change of oriented basis.
    """
    tau = cx.canonical(tau)
    sigma = cx.canonical(sigma)
    if not set(sigma) <= set(tau):
        return {}
    b = basis or {}
    s_tau = b.get(tau, 1)
    s_sigma = b.get(sigma, 1)
    sset = set(sigma)
    flags = _saturated_flags(
        cx.facets, tau,
        keep=lambda s: sset <= set(s),
        is_bottom=lambda s: s == sigma)
    overall = -1 if (len(sigma) - 1) % 2 else 1
    out = {}
    for flag in flags:
        out[flag] = overall * flag_sign(flag, s_tau, s_sigma)
    return out


def _face_part(chain, i):
    """Drop the i-th entry of every flag in a chain, without the (-1)^i."""
    out = {}
    for flag, c in chain.items():
        face = flag[:i] + flag[i + 1:]
        out[face] = out.get(face, 0) + c
    return {k: v for k, v in out.items() if v}


def verify_cap_chain_map(derived: DerivedComplex, ring) -> list:
    """Check that capping commutes with the differentials on the complex
    ``derived.base``, against its subdivision ``derived``; return the
    failures, one line each, none when it holds.

    The full identity is checked as matrices between the blocked tensor of
    chains with cochains, the pairs tau ⊗ sigma* with sigma <= tau, and the
    subdivision chains: off those pairs the cap and every term of a pair's
    boundary vanish, so it is the identity on the full tensor.  The
    first-face, last-face and interior-face identities are checked pair by
    pair, the last one through its perfect sign-reversing pairing.  Each
    pair sigma <= tau is capped once, and every identity reads that table.
    """
    cx = derived.base
    dxk = delta_chain(control_kspace(cx), ring)
    domain = tensor_k(dxk, dual_star(dxk))
    # a flag capped from tau ⊗ sigma* ends at sigma, its label
    target = simplicial_rk(ring, cx, False, derived.prime, lambda c: c[-1])
    caps = {(tau, sigma): cap_product(cx, tau, sigma)
            for tau in cx.all_simplices() for sigma in cx.closure(tau)}
    # the pair tau ⊗ sigma* is labeled by sigma
    taus = left_keys(domain, dxk.keys)

    def images(q, k):
        for flag, c in caps[taus[q][k], domain.labels[q][k]].items():
            yield target.index_of(q, flag), c
    cap = RKMap.from_images(domain, target, images)

    failures = []
    for q in domain.degrees():
        if target.d(q) * cap.component(q) != cap.component(q - 1) * domain.d(q):
            failures.append(f"full identity fails in degree {q}")

    for (tau, sigma), chain in caps.items():
        p = len(tau) - len(sigma)
        if p == 0:
            continue
        # first face: drop the top of every flag = cap the boundary
        want = {}
        for i, rho in cx.facets(tau):
            coeff = -1 if i % 2 else 1
            for flag, c in caps.get((rho, sigma), {}).items():
                want[flag] = want.get(flag, 0) + coeff * c
        want = {k: v for k, v in want.items() if v}
        if _face_part(chain, 0) != want:
            failures.append(
                f"first-face identity fails at ({simplex_name(tau)},"
                f"{simplex_name(sigma)})")
        # last face, against the cochain differential
        sign_l = (-1) ** (p % 2)
        lhs = {k: sign_l * v for k, v in _face_part(chain, p).items()}
        want = {}
        cod = (-1) ** ((len(sigma) - 1 + 1) % 2)
        for rho in cx.star(sigma):
            if len(rho) != len(sigma) + 1:
                continue
            coeff = cod * incidence_canonical(rho, sigma)
            for flag, c in caps.get((tau, rho), {}).items():
                want[flag] = want.get(flag, 0) + coeff * c
        sign_t = (-1) ** ((len(tau) - 1) % 2)
        want = {k: sign_t * v for k, v in want.items() if v}
        if lhs != {k: v for k, v in want.items() if v}:
            failures.append(
                f"last-face identity fails at ({simplex_name(tau)},"
                f"{simplex_name(sigma)})")
        # interior faces vanish through a perfect sign-reversing pairing
        for i in range(1, p):
            if _face_part(chain, i):
                failures.append(
                    f"interior face {i} fails at ({simplex_name(tau)},"
                    f"{simplex_name(sigma)})")
            groups = {}
            for flag, c in chain.items():
                groups.setdefault(flag[:i] + flag[i + 1:], []).append(c)
            for face, cs in groups.items():
                if len(cs) != 2 or cs[0] + cs[1] != 0:
                    failures.append(
                        f"pairing fails at ({simplex_name(tau)},"
                        f"{simplex_name(sigma)}), face {simplex_name(face)}")
    return failures


def _top_flags(ks: KSpace, T, rho):
    """Saturated flags from T ending on a simplex mapping onto rho."""
    rset = set(rho)
    return _saturated_flags(
        ks.X.facets, T,
        keep=lambda s: rset <= set(ks.pi.image(s)),
        is_bottom=lambda s: len(s) == len(rho) and ks.pi.image(s) == rho)


def fundamental_cycle_map(ks: KSpace, cellular: CellularComplex,
                          dx_prime: RKComplex) -> RKMap:
    """The monomorphism from the cellular complex into subdivision chains.

    A basis cell T⊗rho* of degree q goes to the signed sum of the top flags
    of its dual cell: each flag T = S_0 > ... > S_q with S_q mapping onto
    rho contributes (-1)^{dim rho} times its sign, endpoints oriented by the
    basis of X on top and the orientation pulled back from rho at the
    bottom.  For q = 0 this is the barycenter vertex with coefficient
    (-1)^{dim T} times the orientation comparison.

    Its source is ``cellular.rk`` and its target ``dx_prime``, the
    subdivision chains of ``ks``; both must be built with the bases of
    ``cellular.orientation``, and nothing is rebuilt here.
    """
    orientation = cellular.orientation
    orientation.validate()
    bx = orientation.bx
    # the orientation parity of each simplex that pi does not collapse
    parity = {S: out[1] for S in ks.X.all_simplices()
              if (out := ks.pi.chain_image(S)) is not None}

    def images(q, k):
        T, rho = cellular.cells[q][k]
        overall = -1 if (len(rho) - 1) % 2 else 1
        for flag in _top_flags(ks, T, rho):
            yield (dx_prime.index_of(q, flag),
                   overall * flag_sign(flag, bx[T], parity[flag[-1]]))
    return RKMap.from_images(cellular.rk, dx_prime, images)


def cochain_pullback(ks: KSpace, orientation) -> dict:
    """The pullback of cochains along pi: rho -> [(S, coefficient of S* in
    pi*(rho*))], in the bases of ``orientation``."""
    bx = orientation.bx
    table = {}
    for S in ks.X.all_simplices():
        out = ks.pi.chain_image(S)
        if out is not None:
            rho, sign = out
            table.setdefault(rho, []).append((S, bx[S] * sign))
    return table


def verify_cap_factorization(ks: KSpace, cmap: RKMap,
                             cellular: CellularComplex) -> bool:
    """The defining property of the cell map ``cmap``: capping in X after
    pulling cochains back through pi agrees with the cell map after
    projecting the full tensor of the chains of X with the cochains of K
    onto the blocked one, ``cellular.rk``.

    It is decided on the blocked tensor alone.  The pullback of rho* is
    supported on the simplices S that pi maps onto rho, and only a face S
    of T caps against T, so a pair T ⊗ rho* caps to zero unless rho =
    pi(S) ⊆ pi(T): exactly the pairs the projection kills.  Off the blocked
    pairs both sides vanish, and on them the projection is the identity,
    so the identity holds on the full tensor exactly when the cap after the
    pullback equals the cell map on the blocked one.
    """
    bx = cellular.orientation.bx
    pullback = {rho: dict(pairs) for rho, pairs in
                cochain_pullback(ks, cellular.orientation).items()}
    dxp, cells = cmap.tgt, cellular.cells

    def images(q, k):
        T, rho = cells[q][k]
        signs = pullback.get(rho, {})
        for S in ks.X.closure(T):        # only a face of T caps against T
            if S in signs:
                for flag, c in cap_product(ks.X, T, S, bx).items():
                    yield dxp.index_of(q, flag), signs[S] * c
    return RKMap.from_images(cellular.rk, dxp, images) == cmap


def verify_fundamental_cycles(cmap: RKMap, cellular: CellularComplex) -> dict:
    """Each cell maps under ``cmap`` to a fundamental cycle of its dual
    cell: every top flag appears with a unit coefficient and nothing else in
    that degree, and the boundary is supported on the inner and outer
    boundary flags.  Returns the verdict of each cell (T, rho) of
    ``cellular.ball``."""
    ball, rk, dxp = cellular.ball, cellular.rk, cmap.tgt
    ring = rk.ring
    verdicts = {}
    for q in rk.degrees():
        mat = cmap.component(q)
        bmat = dxp.d(q) * mat
        for j, (T, rho) in enumerate(cellular.cells[q]):
            cell = ball.cell(T, rho)
            tops = set(c for c in cell.simplices if len(c) - 1 == cell.dim)
            support = {dxp.keys[q][i]: v for i, v in mat.column(j)}
            ok = set(support) == tops and all(ring.is_unit(v)
                                              for v in support.values())
            boundary_flags = set(cell.inner_boundary) | set(cell.outer_boundary)
            for i, _ in bmat.column(j):
                if dxp.keys[q - 1][i] not in boundary_flags:
                    ok = False
            verdicts[T, rho] = ok
    return verdicts


def is_monomorphism(f: RKMap) -> bool:
    """Injective in every degree: full column rank."""
    for q in f.src.degrees():
        mat = f.component(q)
        if smith_normal_form(mat)[1] != mat.ncols:
            return False
    return True


def verify_equivalences(name: str, f: RKMap):
    """Label-by-label cone acyclicity for the composite equivalence ``name``,
    whose map is ``f``, as an :class:`~rkdual.duality.EquivalenceReport`."""
    return verify_diagonal_equivalence(f, name)

"""Exact sparse matrices, Smith normal form, and bounded chain complexes.

A matrix holds each nonzero entry once, in a sparse column: every producer
emits one column at a time, nearly every reader reads one, and a product
builds each column of A·B from columns of A.  No other module reads that
storage.  Entries are checked once, at the public constructor: indices in
range, values coerced into the ring, zeros dropped.  Matrices computed
inside the package (products, transposes, blocks, cones, assembled blocked
maps) are sums formed with native ``+``, ``-`` and ``*``; they go through
one unchecked constructor, which reduces each entry mod p once over Z/p,
stores an integral rational as an ``int`` over Q, and drops zeros; so over
Q a matrix of integers is multiplied and eliminated in ``int`` arithmetic.
The Smith normal form is the package's one elimination: it eliminates unit
pivots on sparse copies of the columns, then, over Z, reduces what is left
on the same copies with the least entry as pivot.
Chain complexes are graded families of free modules with explicit
differentials; homology, mapping cones and cone-acyclicity (the certificate
used for "chain equivalence" of bounded free complexes over Z, Q and Z/p)
live here.  Homology eliminates the differentials from the top degree down,
each without the generators that a unit pivot of the one above cancelled.
These only compute: d∘d = 0 and the chain-map identities are checked by
``validate``, by the certificates that read the object, once per object.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import Ring


class Matrix:
    """A sparse matrix over an exact ring.

    Entries are held once, as columns ``{col: {row: value}}``; no zero and
    no empty column is stored.  Out-of-range access raises rather than
    zero-extending.  The constructor is the checked boundary: it
    range-checks every index and coerces every value into the ring.
    Matrices computed from other matrices come from :meth:`_from_sums`
    instead, which trusts its input.
    """

    __slots__ = ("ring", "nrows", "ncols", "_cols")

    def __init__(self, ring: Ring, nrows: int, ncols: int, data=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimensions")
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self._cols = {}
        if data:
            for (i, j), v in data.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError(f"entry ({i},{j}) outside "
                                     f"{nrows}x{ncols} matrix")
                v = ring.coerce(v)
                if v:
                    self._cols.setdefault(j, {})[i] = v

    @classmethod
    def _from_sums(cls, ring, nrows, ncols, cols):
        """The unchecked constructor for matrices computed inside this
        package: ``cols`` maps in-range columns to dicts from in-range rows
        to sums of products of ring elements (or of ring elements and
        integers), and becomes the matrix's storage.  Over Z/p each entry is
        reduced once, over Q an integral ``Fraction`` becomes an ``int``,
        zeros and empty columns are dropped, and other columns kept as given."""
        mat = cls.__new__(cls)
        mat.ring, mat.nrows, mat.ncols, mat._cols = ring, nrows, ncols, cols
        mod, narrow, empty = ring.p, ring.kind == "Q", []
        for j, col in cols.items():
            if mod:
                col = cols[j] = {i: r for i, v in col.items() if (r := v % mod)}
            elif not all(vals := col.values()) or (
                    # ints sum to an int, and one Fraction makes a Fraction
                    narrow and type(sum(vals)) is not int):
                col = cols[j] = {i: ring.coerce(v) for i, v in col.items() if v}
            if not col:
                empty.append(j)
        for j in empty:
            del cols[j]
        return mat

    @classmethod
    def zero(cls, ring, nrows, ncols):
        return cls(ring, nrows, ncols)

    @classmethod
    def identity(cls, ring, n):
        return cls._from_sums(ring, n, n, {i: {i: ring.one} for i in range(n)})

    def entries(self):
        """Nonzero entries ((row, col), value) in (row, col) order."""
        yield from sorted(((i, j), v) for j, col in self._cols.items()
                          for i, v in col.items())

    def columns(self):
        """(j, its (row, value) pairs) for each nonzero column j, unsorted."""
        return ((j, col.items()) for j, col in self._cols.items())

    def column(self, j):
        """Nonzero entries of column j as (row, value) pairs."""
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} outside matrix")
        return self._cols.get(j, {}).items()

    def submatrix(self, rows, cols):
        """The block on the given row and column indices, in their order."""
        rpos = {i: a for a, i in enumerate(rows)}
        return Matrix._from_sums(self.ring, len(rows), len(cols), {
            b: {a: v for i, v in self._cols.get(j, {}).items()
                if (a := rpos.get(i)) is not None}
            for b, j in enumerate(cols)})

    def transpose(self):
        out = {}
        for j, col in self._cols.items():
            for i, v in col.items():
                out.setdefault(i, {})[j] = v
        return Matrix._from_sums(self.ring, self.ncols, self.nrows, out)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows or self.ring != other.ring:
            raise ValueError("incompatible matrix product")
        acols, out = self._cols, {}
        for j, bcol in other._cols.items():
            acc = {}
            for k, b in bcol.items():
                if acol := acols.get(k):
                    for i, a in acol.items():
                        acc[i] = acc.get(i, 0) + a * b
            if acc:
                out[j] = acc
        return Matrix._from_sums(self.ring, self.nrows, other.ncols, out)

    def scale(self, c):
        """c times this matrix, for an integer or a ring element c."""
        return Matrix._from_sums(self.ring, self.nrows, self.ncols, {
            j: {i: c * v for i, v in col.items()}
            for j, col in self._cols.items()})

    def is_zero(self):
        return not self._cols

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ring == other.ring
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self._cols == other._cols)

    def __repr__(self):
        return (f"Matrix({self.ring}, {self.nrows}x{self.ncols}, "
                f"{sum(map(len, self._cols.values()))} nonzero)")


def smith_normal_form(mat: Matrix, drop=(), pivots=None):
    """Invariant factors and rank of a matrix over Z, Q or Z/p, less its
    columns in ``drop``.

    Returns ``(factors, rank)`` with each factor dividing the next and
    normalized to its canonical associate (positive over Z, 1 over a field).
    It eliminates the transpose, which has the same factors, so its rows
    are copies of the stored columns.  Unit pivots (±1 over Z, any nonzero
    over a field) go first: one pass over the columns by initial count, each
    taking the shortest row with a unit there, each a factor 1, its column
    (a row of ``mat``) added to the set ``pivots`` if one is given.  Over Z
    the rest takes as pivot the entry of least absolute value (ties by row,
    then column), clears its column by floor-quotient row operations and
    reduces its row mod the pivot; a nonzero remainder is a smaller pivot.
    A pivot alone in its row and column that divides every entry left is
    recorded as its absolute value and its row dropped; otherwise the row
    of an entry it does not divide is added to its row.
    """
    ring = mat.ring
    mod = ring.p
    rows = {i: dict(row) for i, row in mat._cols.items() if i not in drop}
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    units = 0
    for j in sorted(cols, key=lambda c: (len(cols[c]), c)):
        live = cols[j]
        p = min((i for i in live if ring.is_unit(rows[i][j])),
                key=lambda i: (len(rows[i]), i), default=None)
        if p is None:
            continue
        del cols[j]
        if pivots is not None:
            pivots.add(j)
        live.discard(p)
        prow = rows.pop(p)
        inv = ring.invert(prow.pop(j))
        for k in prow:
            cols[k].discard(p)
        for i in live:
            row = rows[i]
            c = row.pop(j) * inv
            for k, v in prow.items():
                x = row.get(k, 0) - c * v
                if mod:
                    x %= mod
                if x:
                    row[k] = x
                    cols[k].add(i)
                else:
                    del row[k]
                    cols[k].discard(i)
        units += 1
    # Over a field every nonzero entry is a unit, so nothing is left here;
    # over Z the rest is reduced with the least entry as pivot.
    rows = {i: row for i, row in rows.items() if row}
    factors = [ring.one] * units
    while rows:
        _, p, j = min((abs(v), i, k) for i, row in rows.items()
                      for k, v in row.items())
        prow = rows[p]
        a = prow[j]
        for i in [i for i, row in rows.items() if i != p and j in row]:
            row = rows[i]
            q = row[j] // a
            for k, v in prow.items():
                x = row.get(k, 0) - q * v
                if x:
                    row[k] = x
                else:
                    del row[k]
            if not row:
                del rows[i]
        if any(j in row for i, row in rows.items() if i != p):
            continue        # a nonzero remainder is a smaller pivot
        if len(prow) == 1:
            bad = next((row for row in rows.values()
                        if any(v % a for v in row.values())), None)
            if bad is None:
                factors.append(abs(a))
                del rows[p]
                continue
            prow.update(bad)    # column j is clear, so this adds bad's row
        for k in [k for k in prow if k != j]:
            x = prow[k] % a     # a column operation: only row p meets column j
            if x:
                prow[k] = x
            else:
                del prow[k]
    return tuple(factors), len(factors)


class ChainComplexError(ValueError):
    pass


class ChainComplex:
    """A bounded complex of finitely generated free modules.

    ``spaces`` maps a degree to its rank, ``diff`` maps a degree q to the
    matrix of d_q : C_q -> C_{q-1}.
    """

    __slots__ = ("ring", "spaces", "diff", "_valid")

    def __init__(self, ring, spaces, diff):
        self.ring, self._valid = ring, False
        self.spaces = {q: n for q, n in spaces.items() if n}
        self.diff = {}
        for q, mat in diff.items():
            if mat.is_zero():
                continue
            if mat.ncols != self.rank(q) or mat.nrows != self.rank(q - 1):
                raise ChainComplexError(
                    f"differential at degree {q} has shape "
                    f"{mat.nrows}x{mat.ncols}, expected "
                    f"{self.rank(q - 1)}x{self.rank(q)}")
            self.diff[q] = mat

    def degrees(self):
        return sorted(self.spaces)

    def rank(self, q) -> int:
        return self.spaces.get(q, 0)

    def total_rank(self) -> int:
        return sum(self.spaces.values())

    def d(self, q) -> Matrix:
        mat = self.diff.get(q)
        if mat is None:
            return Matrix.zero(self.ring, self.rank(q - 1), self.rank(q))
        return mat

    def validate(self):
        """Check d∘d = 0 where both factors are stored, reporting the first
        failing degree; the constructor has already checked the shapes.  A
        success is recorded and later calls return at once; a failure is not."""
        if not self._valid:
            self._check()
            self._valid = True
        return self

    def _check(self):
        for q in sorted(self.diff):
            if q + 1 in self.diff and not (
                    self.diff[q] * self.diff[q + 1]).is_zero():
                raise ChainComplexError(
                    f"d∘d != 0 starting from degree {q + 1}")


@dataclass(frozen=True)
class HomologyGroup:
    betti: int
    torsion: tuple

    def is_trivial(self) -> bool:
        return self.betti == 0 and not self.torsion

    def describe(self, ring: Ring) -> str:
        if self.is_trivial():
            return "0"
        free = str(ring)
        parts = []
        if self.betti == 1:
            parts.append(free)
        elif self.betti > 1:
            parts.append(f"{free}^{self.betti}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts)


def homology(cx: ChainComplex):
    """Per-degree homology of a bounded free complex.

    Over Z the value at q is (betti, invariant factors of the incoming
    differential that are not units); over Q and Z/p torsion is empty.
    The complex is taken as valid: d∘d = 0 is not checked here.

    The differentials are eliminated from the top degree down, d_q without
    the generators of C_q that took a unit pivot of d_{q+1}: Gaussian
    elimination across degrees.  On the generators of C_{q+1} that held
    those pivots, d_{q+1} splits into φ on the cancelled generators,
    invertible because the unit pass reduced it to a triangle of units,
    and γ on the rest of C_q; split d_q = (μ ν) the same way.  Then
    d_q d_{q+1} = 0 gives μφ + νγ = 0, so μ = -νγφ⁻¹: the columns left out
    lie in the span of ν, and d_q has the rank and factors of ν.
    """
    degs = cx.degrees()
    if not degs:
        return {}
    ring = cx.ring
    snf, pivots, zero = {}, {}, ((), 0)
    for q in sorted(cx.diff, reverse=True):
        drop, pivots[q] = pivots.pop(q + 1, ()), set()
        snf[q] = smith_normal_form(cx.diff[q], drop, pivots[q])
    out = {}
    for q in range(min(degs), max(degs) + 1):
        _, r_out = snf.get(q, zero)
        fac_in, r_in = snf.get(q + 1, zero)
        betti = cx.rank(q) - r_out - r_in
        torsion = tuple(f for f in fac_in if not ring.is_unit(f))
        out[q] = HomologyGroup(betti, torsion)
    return out


def is_acyclic(cx: ChainComplex) -> bool:
    return all(h.is_trivial() for h in homology(cx).values())


class ChainMap:
    """A degree-d map of chain complexes: d^D f = (-1)^d f d^C."""

    __slots__ = ("src", "tgt", "degree", "comps", "_valid")

    def __init__(self, src, tgt, comps, degree=0):
        self.src = src
        self.tgt = tgt
        self.degree, self._valid = degree, False
        self.comps = {}
        for q, mat in comps.items():
            if mat.ncols != src.rank(q) or mat.nrows != tgt.rank(q + degree):
                raise ChainComplexError(
                    f"component at degree {q} has shape "
                    f"{mat.nrows}x{mat.ncols}, expected "
                    f"{tgt.rank(q + degree)}x{src.rank(q)}")
            if not mat.is_zero():
                self.comps[q] = mat

    @classmethod
    def identity(cls, cx):
        return cls(cx, cx, {q: Matrix.identity(cx.ring, cx.rank(q))
                            for q in cx.degrees()})

    def component(self, q) -> Matrix:
        mat = self.comps.get(q)
        if mat is None:
            return Matrix.zero(self.src.ring, self.tgt.rank(q + self.degree),
                               self.src.rank(q))
        return mat

    def degrees_hit(self):
        return sorted(set(self.src.degrees()) | set(self.comps))

    def validate(self):
        """Check the chain-map identity; a success is recorded."""
        if not self._valid:
            self._check()
            self._valid = True
        return self

    def _check(self):
        for q in self.degrees_hit():
            if ((q + self.degree not in self.tgt.diff or q not in self.comps)
                    and (q - 1 not in self.comps or q not in self.src.diff)):
                continue    # both sides are products with a zero factor
            lhs = self.tgt.d(q + self.degree) * self.component(q)
            rhs = self.component(q - 1) * self.src.d(q)
            if self.degree % 2:
                rhs = rhs.scale(-1)
            if lhs != rhs:
                raise ChainComplexError(f"not a chain map at degree {q}")

    def is_bijection_on_bases(self) -> bool:
        """Exactly one unit entry per row and per column in every degree."""
        is_unit = self.src.ring.is_unit
        for q in self.degrees_hit():
            mat = self.component(q)
            cols = [tuple(col) for _, col in mat.columns()]
            rows = {col[0][0] for col in cols}
            if not (mat.nrows == mat.ncols == len(cols) == len(rows) and all(
                    len(col) == 1 and is_unit(col[0][1]) for col in cols)):
                return False
        return True


def mapping_cone(f: ChainMap) -> ChainComplex:
    """Cone of a degree-0 chain map f: C -> D.

    Cone_q = C_{q-1} (+) D_q with d(c, x) = (-d c, f c + d x).
    """
    if f.degree != 0:
        raise ChainComplexError("mapping cone needs a degree-0 chain map")
    C, D = f.src, f.tgt
    ring = C.ring
    spaces = {q: C.rank(q - 1) + D.rank(q)
              for q in set(d + 1 for d in C.degrees()) | set(D.degrees())}
    diff = {}
    for q in spaces:
        rows_c, nc = C.rank(q - 2), C.rank(q - 1)
        data = {}
        for mat, di, dj, sign in ((C.diff.get(q - 1), 0, 0, -1),
                                  (f.comps.get(q - 1), rows_c, 0, 1),
                                  (D.diff.get(q), rows_c, nc, 1)):
            if mat is not None:
                for j, col in mat.columns():
                    out = data.setdefault(dj + j, {})
                    for i, v in col:
                        out[di + i] = sign * v
        if data:
            diff[q] = Matrix._from_sums(ring, rows_c + D.rank(q - 1),
                                        nc + D.rank(q), data)
    return ChainComplex(ring, spaces, diff)


def is_cone_acyclic(f: ChainMap) -> bool:
    """True iff the mapping cone of f has vanishing homology in every degree.

    For bounded complexes of finitely generated free modules over Z, Q or
    Z/p this is equivalent to f being a chain equivalence.  Precondition: f
    is a chain map between complexes with d∘d = 0, so that d∘d = 0 on the
    cone; nothing here checks it.  A map passed in as a temporary is freed
    before the elimination runs.
    """
    cone = mapping_cone(f)
    del f
    return is_acyclic(cone)

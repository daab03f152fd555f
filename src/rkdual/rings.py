"""Exact coefficient rings: the integers, the rationals and prime fields.

Elements are plain Python values: ``int`` for Z and Z/p; over Q an ``int``
when integral and a ``Fraction`` otherwise, so integral rationals never pay
for ``Fraction`` arithmetic.  Matrix code adds and multiplies them with
native ``+``, ``-`` and ``*``; a :class:`Ring` instance coerces values into
the ring and supplies what native arithmetic does not: units and their
inverses.  Over Q, :meth:`Ring.invert` is the package's only division; it
divides through ``Fraction`` and narrows an integral quotient to ``int``.
Reducing sums mod p, narrowing integral sums over Q and the floor
divisions of the Smith normal form over Z are left to the matrix layer.
There is no floating point anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction


def _narrow(q: Fraction):
    """The canonical rational: ``q`` as an ``int`` when it is integral."""
    return q.numerator if q.denominator == 1 else q


# Miller-Rabin to the first thirteen prime bases is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster, 2015;
# the first twelve let 318665857834031151167461 through); a larger modulus
# is refused, not guessed.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin; raises ValueError
    for n at or above :data:`PRIME_BOUND`."""
    if n >= PRIME_BOUND:
        raise ValueError(f"modulus {n} is too large: primality is decided "
                         f"only below {PRIME_BOUND}")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Ring:
    """Z, Q or Z/p with exact element arithmetic.

    Z/p requires a prime modulus, checked at construction: invariant-factor
    bookkeeping silently breaks over a non-field Z/n.
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("Z", "Q", "Zp"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "Zp":
            if not isinstance(p, int) or not _is_prime(p):
                raise ValueError(f"modulus must be a prime integer, got {p!r}")
        elif p is not None:
            raise ValueError("only Z/p takes a modulus")
        self.kind = kind
        self.p = p

    @classmethod
    def integers(cls) -> "Ring":
        return cls("Z")

    @classmethod
    def rationals(cls) -> "Ring":
        return cls("Q")

    @classmethod
    def prime_field(cls, p: int) -> "Ring":
        return cls("Zp", p)

    @classmethod
    def parse(cls, text: str) -> "Ring":
        """Parse ``"Z"``, ``"Q"`` or ``"Z/p"`` (for example ``"Z/2"``), p in
        ASCII digits."""
        text = text.strip()
        if text == "Z":
            return cls.integers()
        if text == "Q":
            return cls.rationals()
        if text.startswith("Z/"):
            digits = text[2:]       # int() also reads "1_3", "٧" and " 7"
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"bad modulus in ring {text!r}")
            return cls.prime_field(int(digits))
        raise ValueError(f"unknown ring {text!r}; expected Z, Q or Z/p")

    zero = 0
    one = 1

    def coerce(self, x):
        """Promote an int (or a Fraction, over Q) to a ring element."""
        if self.kind == "Q":
            return x if type(x) is int else _narrow(Fraction(x))
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"{x} is not an element of {self}")
            x = x.numerator
        if self.kind == "Zp":
            return int(x) % self.p
        return int(x)

    def is_unit(self, a) -> bool:
        if self.kind == "Z":
            return a == 1 or a == -1
        return a != 0

    def invert(self, a):
        if self.kind == "Zp":
            if a % self.p == 0:
                raise ZeroDivisionError("0 is not invertible")
            return pow(a, self.p - 2, self.p)
        if a in (1, -1):
            return a
        if self.kind == "Q":
            return _narrow(Fraction(1) / a)
        raise ValueError(f"{a} is not a unit in Z")

    def __eq__(self, other):
        return isinstance(other, Ring) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __str__(self):
        return f"Z/{self.p}" if self.kind == "Zp" else self.kind

    def __repr__(self):
        return f"Ring({str(self)!r})"


ZZ = Ring.integers()
QQ = Ring.rationals()
GF2 = Ring.prime_field(2)

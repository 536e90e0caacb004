"""Exact coefficient fields.

Two fields are supported: the rationals (elements are
:class:`fractions.Fraction`) and prime fields GF(p) (elements are plain ints
in ``[0, p)``).  No floating point is used anywhere in the package.

A field object bundles the primitive operations the linear-algebra layer
needs.  Elements are ordinary Python values, so callers may also use native
operators when they know which field they are in; the method form exists so
generic code can run over either field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; valid only for ``p < 3.3e24``.

    The first 13 prime bases (2 to 41) decide every ``p`` below
    3317044064679887385961981; 12 bases would not, as
    318665857834031151167461 is a strong pseudoprime to all of 2 to 37.
    """
    if p < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for b in bases:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in bases:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of rational numbers; elements are ``Fraction``."""

    name = "Q"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x) -> Fraction:
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, text: str) -> Fraction:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {text!r}") from exc

    def to_str(self, a) -> str:
        return str(a)

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("Q")

    def __repr__(self) -> str:
        return "Rationals()"


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for a prime p; elements are ints reduced into ``[0, p)``."""

    p: int

    def __post_init__(self):
        if self.p >= 33 * 10**23:
            raise InputError(f"field order {self.p} is too large (the limit is 3.3e24)")
        if not _is_prime(self.p):
            raise InputError(f"field order {self.p} is not prime")

    @property
    def name(self) -> str:
        return f"GF({self.p})"

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def of(self, x) -> int:
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise InputError(f"denominator of {x} vanishes in GF({self.p})")
            return (x.numerator * pow(den, -1, self.p)) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def parse(self, text: str) -> int:
        try:
            return self.of(Fraction(text))
        except ValueError as exc:
            raise InputError(f"bad field literal {text!r}") from exc

    def to_str(self, a) -> str:
        return str(a % self.p)


QQ = Rationals()


def field_from_descriptor(desc: str):
    """Parse a CLI-style field descriptor: ``q`` or ``p:<prime>``."""
    d = desc.strip().lower()
    if d in ("q", "qq", "rational", "rationals"):
        return QQ
    if d.startswith("p:"):
        try:
            p = int(d[2:])
        except ValueError as exc:
            raise InputError(f"bad field descriptor {desc!r}") from exc
        return PrimeField(p)
    raise InputError(f"bad field descriptor {desc!r} (expected 'q' or 'p:<prime>')")

"""Exact coefficient fields.

Two fields are supported: the rationals QQ, whose elements are ints or
:class:`fractions.Fraction`, and prime fields GF(p), whose elements are ints
in ``[0, p)``.  No floating point is used anywhere in the package: ``of``
takes ints and Fractions only.  Both are canonical QQ elements, so ``QQ.of``
returns an int or a Fraction as it is (a bool becomes a Fraction), and
integer entries stay on int arithmetic.

A field object bundles the primitive operations the linear-algebra layer
needs, and GF(p)'s keep the reduction mod p to themselves.  Every value a
field hands out (``zero``, ``one``, ``of``, ``parse``, ``add``, ``sub``,
``mul``, ``neg``) is canonical, so zero is its only falsy value and callers
test elements for zero by truthiness.
Both ``parse`` read literals as the workspace files do, through ``parse_exact``:
integers and fractions only, with no decimals (``1e999999999`` would expand in
full) and at most ``MAX_DIGITS`` digits (QQ elimination multiplies entry sizes).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError

# digits of a parsed coefficient's numerator and denominator
MAX_DIGITS = 100
_DIGITS_PAST = 10**MAX_DIGITS
_EXPONENT = re.compile(r"[+-]?\d[\d_]*[eE][+-]?\d[\d_]*")


def _exact(x):
    if not isinstance(x, (int, Fraction)):
        raise InputError(f"coefficient {x!r} is not an int or a Fraction")
    return x


def _literal(text: str) -> str:
    """A literal as an error message quotes it: whole, or cut after 40 characters."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def parse_exact(text: str) -> Fraction:
    """An integer or fraction literal; anything else raises InputError."""
    if "." in text or _EXPONENT.fullmatch(text):
        raise InputError(f"decimal literal {_literal(text)}; use an integer or fraction")
    try:
        x = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad numeric literal {_literal(text)}") from None
    if max(abs(x.numerator), x.denominator) >= _DIGITS_PAST:
        raise InputError(f"numeric literal {_literal(text)} has over {MAX_DIGITS} digits")
    return x


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


@dataclass(frozen=True)
class Rationals:
    """The field of rational numbers; elements are ints or ``Fraction``s."""

    name = "Q"
    zero = 0
    one = 1

    def of(self, x):
        return x if type(x) is int or type(x) is Fraction else Fraction(_exact(x))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def parse(self, text: str) -> Fraction:
        return parse_exact(text)

    def to_str(self, a) -> str:
        return str(a)


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for a prime p; elements are ints reduced into ``[0, p)``."""

    p: int
    zero = 0
    one = 1

    def __post_init__(self):
        if not isinstance(self.p, int):
            raise InputError(f"field order {self.p!r} is not an int")
        if self.p >= 33 * 10**23:
            raise InputError(f"field order {self.p} is too large (the limit is 3.3e24)")
        if not _is_prime(self.p):
            raise InputError(f"field order {self.p} is not prime")

    @property
    def name(self) -> str:
        return f"GF({self.p})"

    def of(self, x) -> int:
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise InputError(f"denominator of {x} vanishes in GF({self.p})")
            return (x.numerator * pow(den, -1, self.p)) % self.p
        return _exact(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def parse(self, text: str) -> int:
        return self.of(parse_exact(text))

    def to_str(self, a) -> str:
        return str(a % self.p)


QQ = Rationals()


def field_from_descriptor(desc: str):
    """Parse a CLI-style field descriptor: ``q`` or ``p:<prime>``."""
    if not isinstance(desc, str):
        raise InputError(f"bad field descriptor {desc!r}")
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

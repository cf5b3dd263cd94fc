"""Exact base fields: the rationals and prime fields GF(p).

Scalars are plain Python values interpreted by a field object: ``Fraction``
for Q, ``int`` in ``[0, p)`` for GF(p).  All arithmetic is exact; there is no
floating point anywhere in the scalar layer.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatch, HopffactError

# GF(p) arrays hold residues as float64, which is exact on integers below
# 2**53.  The supported primes are those whose product of two residues fits,
# (p - 1)**2 < 2**53; the largest is 94906249.
_FLOAT_EXACT_LIMIT = 2**53


class Field:
    """Common interface for exact fields."""

    tag: str

    def scalar(self, value):
        raise NotImplementedError

    def parse(self, text):
        """Parse an integer or a "p/q" string into a field element."""
        if isinstance(text, bool):
            raise HopffactError("booleans are not scalars")
        if isinstance(text, (int, Fraction)):
            return self.scalar(text)
        if isinstance(text, str):
            s = text.strip()
            if "/" in s:
                num, den = s.split("/", 1)
                return self.div(self.scalar(int(num)), self.scalar(int(den)))
            return self.scalar(int(s))
        raise HopffactError(f"cannot parse scalar from {text!r}")

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == self.zero

    def format(self, a) -> str:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return self.tag


class RationalField(Field):
    """The field Q; elements are ``Fraction`` in lowest terms."""

    tag = "Q"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def scalar(self, value):
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / Fraction(a)

    def format(self, a) -> str:
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"


class PrimeField(Field):
    """GF(p) for a supported prime p; elements are ints reduced to ``[0, p)``."""

    def __init__(self, p: int):
        if (p - 1) ** 2 >= _FLOAT_EXACT_LIMIT:
            raise HopffactError(
                f"GF({p}) is outside the supported range: primes p need "
                "(p-1)**2 < 2**53, i.e. p <= 94906249"
            )
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise HopffactError(f"{p} is not prime")
        self.p = p
        self.tag = f"GF({p})"
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def scalar(self, value):
        if isinstance(value, Fraction):
            return self.div(value.numerator % self.p, value.denominator % self.p)
        return int(value) % self.p

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
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def format(self, a) -> str:
        return str(a % self.p)


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Return the (cached) prime field GF(p)."""
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def require_same_field(a: Field, b: Field):
    if a != b:
        raise FieldMismatch(f"mixed fields {a} and {b}")


def field_from_spec(spec) -> Field:
    """Decode the bundle-file field descriptor: "Q" or {"GFp": p}."""
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"GFp"}:
        return GF(int(spec["GFp"]))
    raise HopffactError(f"unknown field descriptor {spec!r}")


def field_to_spec(field: Field):
    if field == QQ:
        return "Q"
    return {"GFp": field.p}

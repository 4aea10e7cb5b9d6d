"""Exact integer Laurent-polynomial arithmetic in one variable v.

All Fock-space coefficients live in Z[v, v^-1].  Coefficients are plain
Python ints, so LaurentPoly never overflows.  fock.FockVector packs each
of its coefficients into one int with a W-bit digit per exponent; there
nothing overflows silently because every vector carries a bound on its
digits and an operation that would let it reach 2^(W-2) raises.
"""

from __future__ import annotations

from typing import Iterator, Mapping


class NotDivisibleError(ArithmeticError):
    """No exact quotient exists in Z[v, v^-1]."""


class LaurentPoly:
    """An integer-coefficient Laurent polynomial in v.

    Terms are stored sparsely as exponent -> nonzero coefficient.
    Exponents and coefficients are ints: a bool, a float or any other
    type raises TypeError (it is not truncated).  A LaurentPoly equals
    and multiplies only another LaurentPoly, and it is unhashable.
    Instances are immutable by convention: every operation builds a new
    object, so values can be shared freely between workers.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        terms = terms or {}
        if not set(map(type, terms)) | set(map(type, terms.values())) <= {int}:
            raise TypeError(f"exponents and coefficients must be ints, got {terms!r}")
        self._terms = {e: c for e, c in terms.items() if c}

    # construction helpers

    @staticmethod
    def _own(terms: dict[int, int]) -> "LaurentPoly":
        """A polynomial over a finished exponent dict (no zero coefficient),
        without copying it; the dict must never be mutated afterwards."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = terms
        return out

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly({exp: coeff})

    # inspection

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        """Terms as (exponent, coefficient), ascending exponent."""
        return iter(sorted(self._terms.items()))

    def min_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    def max_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    # arithmetic

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self._terms, other._terms
        if not b:
            return self
        if not a:
            return other
        t = dict(a)
        for e, c in b.items():
            n = t.get(e, 0) + c
            if n:
                t[e] = n
            else:
                del t[e]  # c != 0, so a zero sum means e was in t
        return LaurentPoly._own(t)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._own({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return _ZERO
        if len(b) == 1:
            ((be, bc),) = b.items()
            return LaurentPoly._own({e + be: c * bc for e, c in a.items()})
        t: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                n = t.get(e, 0) + c1 * c2
                if n:
                    t[e] = n
                else:
                    del t[e]
        return LaurentPoly._own(t)

    def shift(self, exp: int) -> "LaurentPoly":
        """Multiply by the monomial v^exp; self when exp is 0."""
        if exp == 0:
            return self
        return LaurentPoly._own({e + exp: c for e, c in self._terms.items()})

    # comparisons

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self._terms)

    # rendering

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for e, c in sorted(self._terms.items(), reverse=True):
            if e == 0:
                mono = str(abs(c))
            else:
                head = "v" if e == 1 else f"v^{e}"
                mono = head if abs(c) == 1 else f"{abs(c)}*{head}"
            if not bits:
                bits.append(mono if c > 0 else f"-{mono}")
            else:
                bits.append(f"+ {mono}" if c > 0 else f"- {mono}")
        return " ".join(bits)

    __repr__ = __str__


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})


def qint(n: int) -> LaurentPoly:
    """Balanced quantum integer [n] = v^(n-1) + v^(n-3) + ... + v^-(n-1); [0] = 0."""
    if n < 0:
        raise ValueError(f"qint needs n >= 0, got {n}")
    if n == 0:
        return _ZERO
    return LaurentPoly({e: 1 for e in range(-(n - 1), n, 2)})


def exact_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Exact quotient r with r*q = p; raises NotDivisibleError otherwise.

    Used to realize divided powers; a failure here means an upstream
    coefficient computation is wrong, so it must never be swallowed.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return _ZERO
    plo, phi = p.min_exponent(), p.max_exponent()
    qlo, qhi = q.min_exponent(), q.max_exponent()
    a = [p.coeff(e) for e in range(plo, phi + 1)]
    b = [q.coeff(e) for e in range(qlo, qhi + 1)]
    dn = len(a) - len(b)
    if dn < 0:
        raise NotDivisibleError(f"({p}) is not divisible by ({q})")
    out = [0] * (dn + 1)
    lead = b[-1]
    for i in range(dn, -1, -1):
        c = a[i + len(b) - 1]
        if c % lead:
            raise NotDivisibleError(f"({p}) is not divisible by ({q})")
        f = c // lead
        out[i] = f
        if f:
            for j, bj in enumerate(b):
                a[i + j] -= f * bj
    if any(a):
        raise NotDivisibleError(f"({p}) is not divisible by ({q})")
    return LaurentPoly({plo - qlo + i: c for i, c in enumerate(out)})



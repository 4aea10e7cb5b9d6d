"""Fock space over Z[v, v^-1]: node combinatorics and the divided
powers f_i^(k) of the v-weighted lowering operator.

f_i^(k) adds each k-subset T of the addable i-nodes at v^(sum_T N_t -
C(k,2)), N_t = #addable - #removable i-nodes above t (Kashiwara, Duke
Math. J. 69, 1993): adding an i-node only turns its slot removable, so
the k! orders of adding T under f_i^k sum to [k]! times that monomial.
Only apply_f_divided and closedform.family_term read this exponent.

Ordering convention used everywhere ("above"/"below"): component 1 is
topmost, and within a component a smaller row index is higher.  A single
row carries at most one node of a given residue (the removable box at its
end and the addable slot just past it differ by one residue), so listing
nodes by (component, row) is unambiguous.  A node is the plain int
tuple (component, row, column), all 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations
from operator import or_
from typing import Iterator, Mapping

from .laurent import LaurentPoly, exact_div
from .partitions import Multipartition, Partition, mps_from_json


class CoefficientError(ValueError):
    """A vector's coefficients break a bound its check was asked for."""


@dataclass(frozen=True)
class FockContext:
    """Rank e >= 2 together with the charge sequence (k_1, ..., k_r).

    Charges fix every node residue and the highest weight
    Lambda = Lambda_{k_1} + ... + Lambda_{k_r}.  Components sharing a
    charge must occupy a contiguous block.  A bool, a float or any other
    non-int rank or charge raises TypeError (it is not truncated).
    """

    e: int
    charges: tuple[int, ...]

    def __post_init__(self):
        charges = tuple(self.charges)
        if type(self.e) is not int or not set(map(type, charges)) <= {int}:
            raise TypeError(f"rank and charges must be ints, got {self.e!r} and {charges!r}")
        if self.e < 2:
            raise ValueError(f"rank must be >= 2, got {self.e}")
        object.__setattr__(self, "charges", charges)
        if len(self.charges) < 1:
            raise ValueError("need at least one charge")
        if any(not 0 <= c < self.e for c in self.charges):
            raise ValueError(f"charges must lie in 0..{self.e - 1}: {self.charges}")
        seen = set()
        prev = None
        for c in self.charges:
            if c != prev:
                if c in seen:
                    raise ValueError(f"equal charges must be contiguous: {self.charges}")
                seen.add(c)
                prev = c

    @property
    def level(self) -> int:
        return len(self.charges)

    @property
    def weight_multiplicities(self) -> tuple[int, ...]:
        """a_i = multiplicity of Lambda_i in the highest weight."""
        out = [0] * self.e
        for c in self.charges:
            out[c] += 1
        return tuple(out)

    def highest_weight_vertex(self) -> Multipartition:
        return ((),) * self.level

    def dual(self) -> "FockContext":
        """Charges negated mod e and reversed."""
        return FockContext(self.e, tuple((-c) % self.e for c in reversed(self.charges)))


def symmetric_context(a: int) -> FockContext:
    """e = 2 with highest weight a*Lambda_0 + a*Lambda_1 (charges 0^a 1^a)."""
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    return FockContext(2, (0,) * a + (1,) * a)


Node = tuple[int, int, int]


def i_node_slots(ctx: FockContext, mp: Multipartition, i: int) -> list[tuple[Node, bool]]:
    """Addable (True) and removable (False) i-nodes, top to bottom."""
    out = []
    e = ctx.e
    for u, (comp, ch) in enumerate(zip(mp, ctx.charges), start=1):
        # row j of length cur ends in a removable i-node when (cur - j) % e
        # is rem, and its addable slot is an i-node when it is add
        add, rem = (i - ch - 1) % e, (i - ch) % e
        t = len(comp)
        for j, cur in enumerate(comp, start=1):
            d = (cur - j) % e
            if d == add:
                # addable when the row above is strictly longer
                if j == 1 or comp[j - 2] > cur:
                    out.append(((u, j, cur + 1), True))
            elif d == rem:
                # removable when the row below is strictly shorter
                if j == t or comp[j] < cur:
                    out.append(((u, j, cur), False))
        if (-t - 1) % e == add:  # the slot past the last row is always addable
            out.append(((u, t + 1, 1), True))
    return out


def addable_exponents(ctx: FockContext, mp: Multipartition, i: int) -> list[tuple[Node, int]]:
    """Addable i-nodes, top to bottom, each with its f_i exponent
    N = #{addable i-nodes above it} - #{removable i-nodes above it}."""
    out, nr = [], 0
    for node, isadd in i_node_slots(ctx, mp, i):
        if isadd:
            out.append((node, len(out) - nr))
        else:
            nr += 1
    return out


def add_node(mp: Multipartition, node: Node) -> Multipartition:
    u, row, _ = node
    comp = mp[u - 1]
    if row == len(comp) + 1:
        new = comp + (1,)
    else:
        new = comp[: row - 1] + (comp[row - 1] + 1,) + comp[row:]
    return mp[: u - 1] + (new,) + mp[u:]


def remove_node(mp: Multipartition, node: Node) -> Multipartition:
    u, row, _ = node
    comp = mp[u - 1]
    r = comp[row - 1] - 1
    if r == 0:
        new = comp[: row - 1] + comp[row:]
    else:
        new = comp[: row - 1] + (r,) + comp[row:]
    return mp[: u - 1] + (new,) + mp[u:]


# One object per distinct component that divided_power_term builds, and
# per distinct multipartition of an _expansion (hash-consing): equal terms
# share their tuples, so they are stored once and dict lookups on them hit
# on identity.  A splice builds a fresh tuple every time, even a new row
# (1,), which add_node's comp + (1,) takes from the code's constants:
# without the sharing the splice costs memory.
_PARTS: dict[Partition, Partition] = {}
_TERMS: dict[Multipartition, Multipartition] = {}


def divided_power_term(mp: Multipartition, subset) -> tuple[Multipartition, int]:
    """The term of f_i^(k) at a k-subset of addable_exponents(ctx, mp, i):
    mp with those nodes added, and its exponent sum(N) - C(k,2).  A node's
    new row length is its column, whether it starts a row or extends one."""
    k = len(subset)
    expo = -(k * (k - 1) // 2)
    comps = list(mp)
    share = _PARTS.setdefault
    for (u, row, col), n in subset:
        comp = comps[u - 1]
        comp = comp[: row - 1] + (col,) + comp[row:]
        comps[u - 1] = share(comp, comp)
        expo += n
    return tuple(comps), expo


def content(ctx: FockContext, mp: Multipartition) -> tuple[int, ...]:
    """Number of nodes of each residue, as a length-e vector.  A row of
    length r adds r // e to every residue, and 1 more to the r % e
    consecutive residues from its first cell's."""
    e = ctx.e
    out = [0] * e
    full = 0
    for comp, ch in zip(mp, ctx.charges):
        for j, row in enumerate(comp, start=1):
            q, r = divmod(row, e)
            full += q
            first = ch + 1 - j
            for c in range(first, first + r):
                out[c % e] += 1
    return tuple(n + full for n in out)


# Coefficient storage: Kronecker substitution (D. Harvey, J. Symbolic
# Comput. 44, 2009).  A coefficient sum_e c_e v^e of a vector with
# exponent base lo is stored as the one int X = sum_e c_e 2^(W (e - lo)),
# its value at v = 2^W: a shift by v^s is X << W*s, a sum is +, a product
# is *, exactly.  Reading the digits c_e back off X is right only while
# every |c_e| < 2^(W-1), so each vector carries a bound on its |c_e|, and
# building one whose bound reaches LIMIT, or from exponents spread over
# SPAN or more, raises CoefficientError.
W = 64
LIMIT = 1 << (W - 2)
SPAN = 1 << 12  # exponents one vector may spread over: a packed int stays below W * SPAN bits
_MASK = (1 << W) - 1
_HALF = 1 << (W - 1)


def _encode(c: Mapping[int, int], lo: int) -> int:
    """The int of an exponent -> coefficient map over the base lo <= every exponent."""
    return sum(n << W * (e - lo) for e, n in c.items())


def _decode(x: int, lo: int) -> dict[int, int]:
    """The exponent -> nonzero coefficient dict of x over the base lo,
    exponents ascending; every digit must lie strictly within 2^(W-1)."""
    out = {}
    e = lo
    while x:
        d = x & _MASK
        if d:
            if d >= _HALF:
                d -= 1 << W
            out[e] = d
            x -= d
        x >>= W
        e += 1
    return out


def _top_bits(digits: int) -> int:
    """The top bit of each of the lowest `digits` digits."""
    return _HALF * (((1 << W * digits) - 1) // _MASK)


class FockVector:
    """Finite formal sum multipartition -> Laurent polynomial.

    Each coefficient is stored as one int over the vector's exponent base
    (see W above), so the collector never tracks a vector's dict; it is
    handed out as a LaurentPoly decoded from that int.  A stored dict is
    never mutated.  `_bound` is at least every |coefficient of a v^e|.
    """

    __slots__ = ("_terms", "_lo", "_bound")

    def __init__(self, terms=None):
        pairs = terms.items() if isinstance(terms, dict) else terms or ()
        v = FockVector._encoded([(mp, c._terms) for mp, c in pairs])
        self._terms, self._lo, self._bound = v._terms, v._lo, v._bound

    @staticmethod
    def _wrap(terms: dict[Multipartition, int], lo: int, bound: int) -> "FockVector":
        """A vector over a finished dict: no zero coefficient, nothing to merge."""
        if bound >= LIMIT:
            raise CoefficientError(f"coefficient bound {bound} reaches 2^{W - 2}")
        v = FockVector.__new__(FockVector)
        v._terms, v._lo, v._bound = terms, lo, bound
        return v

    @staticmethod
    def _encoded(pairs: list[tuple[Multipartition, Mapping[int, int]]]) -> "FockVector":
        """Sum (multipartition, exponent -> coefficient map) pairs into a
        vector, dropping every coefficient that adds up to zero.  Pairs
        may share one map object, which is then encoded once."""
        maps = list({id(c): c for _, c in pairs}.values())
        exponents = [e for c in maps for e in c]
        lo = min(exponents, default=0)
        if exponents and max(exponents) - lo >= SPAN:
            raise CoefficientError(f"exponents {lo}..{max(exponents)} span {SPAN} or more")
        codes = {id(c): _encode(c, lo) for c in maps}
        t: dict[Multipartition, int] = {}
        extra = 0  # pairs summed onto a term already there
        for mp, c in pairs:
            x = codes[id(c)]
            prev = t.get(mp)
            if prev is not None:
                x += prev
                extra += 1
            if x:
                t[mp] = x
            elif prev is not None:
                del t[mp]
        # a stored term sums at most 1 + extra pairs, each within top
        top = max((abs(n) for c in maps for n in c.values()), default=0)
        return FockVector._wrap(t, lo, top * (1 + extra))

    @staticmethod
    def basis(mp: Multipartition) -> "FockVector":
        return FockVector._wrap({mp: 1}, 0, 1)

    @staticmethod
    def zero() -> "FockVector":
        return FockVector._wrap({}, 0, 0)

    def coefficient(self, mp: Multipartition) -> LaurentPoly:
        x = self._terms.get(mp)
        return LaurentPoly.zero() if x is None else LaurentPoly._own(_decode(x, self._lo))

    def terms(self) -> Iterator[tuple[Multipartition, LaurentPoly]]:
        lo = self._lo
        return ((mp, LaurentPoly._own(_decode(x, lo))) for mp, x in self._terms.items())

    def __iter__(self) -> Iterator[Multipartition]:
        return iter(self._terms)

    def support(self) -> list[Multipartition]:
        return sorted(self._terms)

    def rebased(self, lo: int) -> "FockVector":
        """The same vector over the exponent base lo, which must not lie
        above the vector's own: lowering it drops nothing."""
        if lo > self._lo:
            raise ValueError(f"rebased only lowers the exponent base {self._lo}, got {lo}")
        if lo == self._lo:
            return self
        s = W * (self._lo - lo)
        return FockVector._wrap({mp: x << s for mp, x in self._terms.items()}, lo, self._bound)

    def interned(self, table: dict[int, int]) -> "FockVector":
        """The same vector over the exponent base 0, each coefficient the
        int `table` holds for its value (added when new), so that equal
        coefficients are one object.  Only for a vector over a base <= 0
        with no exponent below 0, such as a checked canonical element: the
        shift to base 0 then drops nothing, and ints over one base are
        equal exactly when their coefficients are."""
        s = W * -self._lo
        xs = [x >> s for x in self._terms.values()]
        t = dict(zip(self._terms, map(table.setdefault, xs, xs)))
        return FockVector._wrap(t, 0, self._bound)

    # int-level reads for the reduction and the element checks: no
    # LaurentPoly per term

    def outside_vzv(self, among: "FockVector | None" = None) -> list[Multipartition]:
        """The multipartitions whose coefficient lies outside vZ[v], only
        those in the support of `among` when it is given."""
        if self._lo > 0:
            return []
        # the digits at exponents <= 0 are zero exactly when X has no bit below them
        low = (1 << W * (1 - self._lo)) - 1
        t = self._terms
        if among is None:
            return [mp for mp, x in t.items() if x & low]
        return [mp for mp in among._terms if t.get(mp, 0) & low]

    def symmetric_low(self, mp: Multipartition) -> LaurentPoly:
        """The coefficient at mp cut to exponents <= 0 and made
        bar-symmetric; zero when the coefficient lies in vZ[v]."""
        x, lo = self._terms.get(mp, 0), self._lo
        if lo > 0 or not x:
            return LaurentPoly.zero()
        bits = W * (1 - lo)
        x &= (1 << bits) - 1
        if x >> (bits - 1):  # the low digits sum to a negative number
            x -= 1 << bits
        low = _decode(x, lo)
        return LaurentPoly._own({**low, **{-e: c for e, c in low.items()}})

    def shape(self, defect: int, label: Multipartition | None = None) -> tuple[int, ...]:
        """Entry l sums the coefficients of v^l over all terms; every
        exponent must lie in 0..defect.  Given a label, the check also
        covers what the canonical element G(label) satisfies: coefficient
        1 at the label, and every other coefficient in vZ[v] with no
        negative coefficient; the bound then drops to max(shape), which
        bounds every coefficient once none is negative.  A failed check
        raises CoefficientError."""
        t, lo = self._terms, self._lo
        if label is not None and (lo > 0 or t.get(label) != 1 << W * -lo):
            raise CoefficientError(f"the coefficient at the label {label} is not 1")
        if not t:
            return (0,) * (defect + 1)
        xs = t.values()
        if label is not None:
            # no negative digit exactly when X >= 0 and no digit has its top bit
            ored = reduce(or_, xs)
            if min(xs) < 0 or ored & _top_bits(ored.bit_length() // W + 1):
                bad = next(mp for mp, x in t.items() if min(_decode(x, lo).values()) < 0)
                raise CoefficientError(f"negative coefficient at {bad}: {self.coefficient(bad)}")
        else:
            ored = reduce(or_, map(abs, xs))
        # the lowest and the highest digit of the ints with |digit| < 2^(W-1)
        first = lo + ((ored & -ored).bit_length() - 1) // W
        last = lo + ored.bit_length() // W
        if first < 0 or last > defect:
            bad, c = next(
                (mp, c) for mp, c in self.terms()
                if not 0 <= c.min_exponent() <= c.max_exponent() <= defect
            )
            raise CoefficientError(f"coefficient {c} at {bad}: an exponent outside 0..{defect}")
        if self._bound * len(t) >= LIMIT:
            raise CoefficientError(f"the shape's bound {self._bound} * {len(t)} reaches 2^{W - 2}")
        total = _decode(sum(xs), lo)
        shape = tuple(total.get(e, 0) for e in range(defect + 1))
        if label is not None:
            # every coefficient is positive, so v^0 occurs only at the label
            # exactly when entry 0 is the label's 1
            if shape[0] != 1:
                bad = next(mp for mp, x in t.items() if x & _MASK << W * -lo and mp != label)
                raise CoefficientError(f"coefficient {self.coefficient(bad)} at {bad} not in vZ[v]")
            self._bound = max(shape)
        return shape

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        lo = min(self._lo, other._lo)
        return self.rebased(lo)._terms == other.rebased(lo)._terms

    __hash__ = None

    def __add__(self, other: "FockVector") -> "FockVector":
        return self.add_scaled(other, LaurentPoly.one())

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self.add_scaled(other, LaurentPoly.from_int(-1))

    def add_scaled(self, other: "FockVector", mult: LaurentPoly) -> "FockVector":
        """self + mult * other."""
        m = mult._terms
        if not m or not other._terms:
            return self
        mlo = min(m)
        base = other._lo + mlo  # the products' exponent base
        lo = min(self._lo, base)
        t = dict(self.rebased(lo)._terms)
        mult_x = _encode(m, mlo) << W * (base - lo)
        for mp, x in other._terms.items():
            n = t.get(mp, 0) + x * mult_x
            if n:
                t[mp] = n
            else:
                del t[mp]  # x * mult_x != 0, so a zero sum means mp was in t
        return FockVector._wrap(t, lo, self._bound + other._bound * sum(map(abs, m.values())))

    def exact_div(self, q: LaurentPoly) -> "FockVector":
        return FockVector([(mp, exact_div(c, q)) for mp, c in self.terms()])

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = [f"({c})*{list(map(list, mp))}" for mp, c in sorted(self.terms())]
        return " + ".join(bits)

    __repr__ = __str__

    def to_json(self) -> list[dict]:
        """Terms in increasing tuple order.  A multipartition stays a tuple
        of tuples, which json writes as nested lists; a coefficient is an
        exponent-string -> coefficient map, exponents ascending, decoded
        once per distinct coefficient and shared by the terms that have it."""
        t, lo = self._terms, self._lo
        maps = {x: {str(e): n for e, n in _decode(x, lo).items()} for x in set(t.values())}
        return [{"multipartition": mp, "coefficient": maps[t[mp]]} for mp in sorted(t)]

    @staticmethod
    def from_json(data) -> "FockVector":
        """The vector of to_json's terms, or of their JSON.  Every
        coefficient value must be an int (a bool or float is refused, not
        truncated) and every exponent key the decimal string of its int;
        each distinct partition and coefficient is checked once."""
        coefs = [d["coefficient"] for d in data]
        if not set(map(type, coefs)) <= {dict}:
            bad = next(c for c in coefs if type(c) is not dict)
            raise TypeError(f"a coefficient is a JSON object, got {bad!r}")
        # the value types are checked before the memo: True == 1 and
        # 1.0 == 1 hash alike, so a bool or float could share an int's map
        if not set(map(type, chain.from_iterable(map(dict.values, coefs)))) <= {int}:
            bad = next(c for c in coefs if not set(map(type, c.values())) <= {int})
            raise TypeError(f"a coefficient maps exponents to ints, got {bad!r}")
        keys = list(map(tuple, map(dict.items, coefs)))
        maps = {k: _exponent_map(k) for k in set(keys)}
        mps = mps_from_json([d["multipartition"] for d in data])
        return FockVector._encoded(list(zip(mps, map(maps.__getitem__, keys))))


def _exponent_map(items) -> dict[int, int]:
    """The exponent -> coefficient map of a JSON coefficient's items; each
    key must be the decimal string of its int ("+1", "01" and "1_0" are
    refused)."""
    out = {}
    for key, n in items:
        if type(key) is not str or str(int(key)) != key:
            raise ValueError(f"an exponent key is the decimal string of an int, got {key!r}")
        out[int(key)] = n
    return out


# f_i^(k) of every basis term seen so far, per (e, charges, i, k): the
# multipartition -> (low, mps, shifts) memo that apply_f_divided reads.
# Each entry holds two flat tuples in subset order and no tuple per term:
# one (term, shift) pair per term took 10.7 MB on the a = 2 benchmark.
_EXPANSIONS: dict[tuple, dict[Multipartition, tuple[int, tuple, tuple]]] = {}
# one int per distinct shift: CPython shares only ints up to 256, and a
# shift W * d of d >= 5 would otherwise be a fresh int in every entry
_SHIFTS: dict[int, int] = {}


def _expansion(ctx: FockContext, mp: Multipartition, i: int, k: int):
    """f_i^(k) of the basis vector mp: the least exponent `low` (0 when
    there is no term), then, one per k-subset of mp's addable i-nodes, the
    multipartitions and the shifts W * (exponent - low) that put each
    term's v^exponent onto v^low.  Distinct subsets add distinct nodes, so
    no multipartition occurs twice, and each is the one object _TERMS
    holds for its value."""
    terms = [
        divided_power_term(mp, subset)
        for subset in combinations(addable_exponents(ctx, mp, i), k)
    ]
    low = min((expo for _, expo in terms), default=0)
    mps = [nmp for nmp, _ in terms]
    shifts = [W * (expo - low) for _, expo in terms]
    return low, tuple(map(_TERMS.setdefault, mps, mps)), tuple(map(_SHIFTS.setdefault, shifts, shifts))


def apply_f_divided(ctx: FockContext, vec: FockVector, i: int, k: int) -> FockVector:
    """The divided power f_i^(k) = f_i^k / [k]! by the subset rule of the
    module docstring; k = 1 is f_i.  The iterative route (f_i k times,
    then exact division by [k]!) lives in the tests as a cross-check."""
    if k < 0:
        raise ValueError(f"divided power needs k >= 0, got {k}")
    if k == 0:
        return vec
    t = vec._terms
    memo = _EXPANSIONS.setdefault((ctx.e, ctx.charges, i, k), {})
    # a miss runs under the caller's context and stores its entry
    expansions = [memo.get(mp) or memo.setdefault(mp, _expansion(ctx, mp, i, k)) for mp in t]
    low = min((lo for lo, mps, _ in expansions if mps), default=0)
    out: dict[Multipartition, int] = {}
    for x, (lo, mps, shifts) in zip(t.values(), expansions):
        x <<= W * (lo - low)
        for nmp, s in zip(mps, shifts):
            n = out.get(nmp, 0) + (x << s)
            if n:
                out[nmp] = n
            else:
                del out[nmp]  # x << s != 0, so a zero sum means nmp was in out
    # a term of the output sums at most one term per input term
    return FockVector._wrap(out, vec._lo + low, vec._bound * len(t))

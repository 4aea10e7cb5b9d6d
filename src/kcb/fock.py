"""Fock space over Z[v, v^-1]: node combinatorics and the divided
powers f_i^(k) of the v-weighted lowering operator.

f_i^(k) adds each k-subset T of the addable i-nodes at v^(sum_T N_t -
C(k,2)), N_t = #addable - #removable i-nodes above t (Kashiwara, Duke
Math. J. 69, 1993): adding an i-node only turns its slot removable, so
the k! orders of adding T under f_i^k sum to [k]! times that monomial.
subset_terms alone turns a subset into its term and this exponent;
apply_f_divided and closedform's family engine read both from it.

Ordering convention used everywhere ("above"/"below"): component 1 is
topmost, and within a component a smaller row index is higher.  A single
row carries at most one node of a given residue (the removable box at its
end and the addable slot just past it differ by one residue), so listing
nodes by (component, row) is unambiguous.  A node is the plain int
tuple (component, row, column), all 1-based.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations
from operator import eq, or_
from sys import intern
from typing import Iterator, Mapping

from .laurent import LaurentPoly, exact_div
from .partitions import Multipartition, mps_from_json


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
    """e = 2 with highest weight a*Lambda_0 + a*Lambda_1 (charges 0^a 1^a).
    A bool, a float or any other non-int a raises TypeError."""
    if type(a) is not int:
        raise TypeError(f"a must be an int, got {a!r}")
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    return FockContext(2, (0,) * a + (1,) * a)


Node = tuple[int, int, int]


# One object per distinct value the f_i^(k) expansions build
# (hash-consing, Filliatre and Conchon, ML Workshop 2006): each component
# a node table fills, each multipartition of an _expansion and each shift
# int.  Equal terms share their tuples, so they are stored once and dict
# lookups on them hit on identity.  A fill builds a fresh tuple every
# time, even a new row (1,), and CPython shares only the ints up to 256.
# The three kinds never compare equal (a non-empty tuple of ints, a
# non-empty tuple of tuples, an int), so one table keeps one object per
# value.
_SHARED: dict = {}


# The i-nodes of each component, keyed by (e, (i - charge) mod e, component):
# a component's slots depend on its charge and on i only through that
# offset.  An entry is (slots, balance, adds, fills).  slots are its
# addable (True) and removable (False) i-nodes, top to bottom, as (row,
# column, is_addable); balance is #addable - #removable; adds are the
# addable ones as (row, column, local), local = #addable - #removable above
# the node in its component.  fills maps a subset of adds, as the mask
# with bit p for adds[p], to the component with those nodes added, each
# made only when f_i^(k) first asks for it (_filled).  Every row is
# scanned for i-nodes here and nowhere else.
_NODES: dict[tuple, tuple] = {}


def _component_nodes(e: int, off: int, comp) -> tuple:
    key = (e, off, comp)
    got = _NODES.get(key)
    if got is not None:
        return got
    # row j of length cur ends in a removable i-node when (cur - j) % e
    # is off, and its addable slot is an i-node when it is off - 1
    add, t = (off - 1) % e, len(comp)
    slots, adds, na, nr = [], [], 0, 0
    for j, cur in enumerate(comp, start=1):
        d = (cur - j) % e
        if d == add:
            # addable when the row above is strictly longer
            if j == 1 or comp[j - 2] > cur:
                slots.append((j, cur + 1, True))
                adds.append((j, cur + 1, na - nr))
                na += 1
        elif d == off:
            # removable when the row below is strictly shorter
            if j == t or comp[j] < cur:
                slots.append((j, cur, False))
                nr += 1
    if (-t - 1) % e == add:  # the slot past the last row is always addable
        slots.append((t + 1, 1, True))
        adds.append((t + 1, 1, na - nr))
        na += 1
    got = _NODES[key] = (tuple(slots), na - nr, tuple(adds), {})
    return got


def _filled(comp, entry: tuple, mask: int):
    """comp with the addable nodes of its entry that mask picks added, each
    new row length the node's column, whether it starts a row or extends
    one; kept in the entry's fills, one object per value through _SHARED."""
    rows = list(comp)
    for p, (row, col, _) in enumerate(entry[2]):
        if mask >> p & 1:
            if row > len(rows):
                rows.append(col)
            else:
                rows[row - 1] = col
    rows = tuple(rows)
    got = entry[3][mask] = _SHARED.setdefault(rows, rows)
    return got


def i_node_slots(ctx: FockContext, mp: Multipartition, i: int) -> list[tuple[Node, bool]]:
    """Addable (True) and removable (False) i-nodes, top to bottom."""
    e = ctx.e
    return [
        ((u, row, col), isadd)
        for u, (comp, ch) in enumerate(zip(mp, ctx.charges), start=1)
        for row, col, isadd in _component_nodes(e, (i - ch) % e, comp)[0]
    ]


def addable_count(ctx: FockContext, mp: Multipartition, i: int) -> int:
    """The number of addable i-nodes of mp, read off the node tables."""
    e = ctx.e
    return sum(len(_component_nodes(e, (i - ch) % e, comp)[2]) for comp, ch in zip(mp, ctx.charges))


def subset_terms(ctx: FockContext, mp: Multipartition, i: int, k: int) -> tuple[list, list[int]]:
    """The terms of f_i^(k) on the basis vector mp by the subset rule of
    the module docstring, as two lists: the multipartitions and their
    exponents, one per k-subset of mp's addable i-nodes, in combinations
    order over those nodes top to bottom (both empty when fewer than k
    are addable; mp at exponent 0 when k = 0).  A node's exponent is O_c
    + its local one, O_c the balance of the components above its
    component c, so a subset's is sum_c (j_c * O_c + its local sum in c)
    - C(k,2) for j_c nodes in c; and its term replaces each component it
    touches by the node table's fill at the mask of the nodes it takes
    there.  Distinct subsets add distinct nodes, so no multipartition
    occurs twice."""
    if k == 0:
        return [mp], [0]
    e = ctx.e
    # the node-table entry of each component with an addable i-node, and
    # each such node as (component position, its bit there, exponent)
    entries, nodes, above = {}, [], 0
    for u, (comp, ch) in enumerate(zip(mp, ctx.charges)):
        entry = _component_nodes(e, (i - ch) % e, comp)
        if entry[2]:
            entries[u] = entry
            nodes += [(u, 1 << p, above + local) for p, (_, _, local) in enumerate(entry[2])]
        above += entry[1]
    mps, expos = [], []
    for subset in combinations(nodes, k):
        # the nodes of one component are consecutive: gather each
        # component's mask, then put in its fill
        term = list(mp)
        expo = -(k * (k - 1) // 2)
        at, mask = subset[0][0], 0
        for u, bit, n in subset:
            expo += n
            if u != at:
                fills = entries[at][3]
                term[at] = fills.get(mask) or _filled(mp[at], entries[at], mask)
                at, mask = u, bit
            else:
                mask |= bit
        fills = entries[at][3]
        term[at] = fills.get(mask) or _filled(mp[at], entries[at], mask)
        mps.append(tuple(term))
        expos.append(expo)
    return mps, expos


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


class SortedTerms:
    """The read-only terms of a stored vector: its multipartitions in
    ascending tuple order and their coefficient ints, as two tuples of one
    pointer a term each, where a dict entry takes 40 bytes or more.  It
    has the reads FockVector makes of a dict (iteration, len, items,
    values, get); get bisects."""

    __slots__ = ("mps", "xs")

    def __init__(self, mps: tuple, xs: tuple):
        self.mps, self.xs = mps, xs

    def __len__(self) -> int:
        return len(self.mps)

    def __iter__(self) -> Iterator[Multipartition]:
        return iter(self.mps)

    def items(self):
        return zip(self.mps, self.xs)

    def values(self) -> tuple:
        return self.xs

    def get(self, mp: Multipartition, default=None):
        mps = self.mps
        j = bisect_left(mps, mp)
        return self.xs[j] if j < len(mps) and mps[j] == mp else default

    def __eq__(self, other) -> bool:
        if not isinstance(other, SortedTerms):
            return NotImplemented
        return self.mps == other.mps and self.xs == other.xs

    __hash__ = None


class FockVector:
    """Finite formal sum multipartition -> Laurent polynomial.

    Each coefficient is stored as one int over the vector's exponent base
    (see W above), so the collector never tracks a vector's terms; it is
    handed out as a LaurentPoly decoded from that int.  The terms are a
    dict while the vector is built, and SortedTerms once it is stored
    (`stored`, which every checked canonical element is); neither is ever
    mutated.  `_bound` is at least every |coefficient of a v^e|.
    """

    __slots__ = ("_terms", "_lo", "_bound")

    def __init__(self, terms=None):
        pairs = terms.items() if isinstance(terms, dict) else terms or ()
        v = FockVector._encoded([(mp, c._terms) for mp, c in pairs])
        self._terms, self._lo, self._bound = v._terms, v._lo, v._bound

    @staticmethod
    def _wrap(terms: dict[Multipartition, int] | SortedTerms, lo: int, bound: int) -> "FockVector":
        """A vector over finished terms: no zero coefficient, nothing to merge."""
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

    def coefficient(self, mp: Multipartition) -> LaurentPoly:
        x = self._terms.get(mp)
        return LaurentPoly.zero() if x is None else LaurentPoly._own(_decode(x, self._lo))

    def terms(self) -> Iterator[tuple[Multipartition, LaurentPoly]]:
        lo = self._lo
        return ((mp, LaurentPoly._own(_decode(x, lo))) for mp, x in self._terms.items())

    def __iter__(self) -> Iterator[Multipartition]:
        return iter(self._terms)

    def support(self) -> list[Multipartition]:
        return list(self.stored()._terms.mps)

    def stored(self) -> "FockVector":
        """The same vector over SortedTerms: the one place terms are
        sorted, and a stored vector is its own."""
        t = self._terms
        if isinstance(t, SortedTerms):
            return self
        mps = tuple(sorted(t))
        xs = tuple(map(t.__getitem__, mps))
        return FockVector._wrap(SortedTerms(mps, xs), self._lo, self._bound)

    def rebased(self, lo: int) -> "FockVector":
        """The same vector over the exponent base lo, which must not lie
        above the vector's own: lowering it drops nothing.  A stored
        vector stays stored."""
        if lo > self._lo:
            raise ValueError(f"rebased only lowers the exponent base {self._lo}, got {lo}")
        if lo == self._lo:
            return self
        s = W * (self._lo - lo)
        t = self._terms
        if isinstance(t, SortedTerms):
            shifted = SortedTerms(t.mps, tuple(x << s for x in t.xs))
        else:
            shifted = {mp: x << s for mp, x in t.items()}
        return FockVector._wrap(shifted, lo, self._bound)

    def interned(self, table: dict[int, int]) -> "FockVector":
        """The stored vector over the exponent base 0, each coefficient the
        int `table` holds for its value (added when new), so that equal
        coefficients are one object; the multipartition tuple of a stored
        vector is kept.  Only for a vector over a base <= 0 with no
        exponent below 0, such as a checked canonical element: the shift to
        base 0 then drops nothing, and ints over one base are equal exactly
        when their coefficients are."""
        t = self.stored()._terms
        s = W * -self._lo
        xs = [x >> s for x in t.xs] if s else t.xs
        shared = tuple(map(table.setdefault, xs, xs))
        return FockVector._wrap(SortedTerms(t.mps, shared), 0, self._bound)

    # int-level reads for the reduction, the element checks and the
    # duality suite: no LaurentPoly per term

    def bar_shifted(self, w: int, relabel) -> "FockVector":
        """sum_lam v^w bar(c_lam) relabel(lam), for a one-to-one relabel.
        Each distinct coefficient int is decoded once and its digits
        reversed into an int over the base w - (the largest exponent), so
        the bound is kept; a relabel that sends two terms to one raises
        ValueError."""
        t, lo = self._terms, self._lo
        maps = {x: _decode(x, lo) for x in set(t.values())}
        top = max((max(c) for c in maps.values()), default=lo)
        rev = {x: _encode({top - e: n for e, n in c.items()}, 0) for x, c in maps.items()}
        out = dict(zip(map(relabel, t), map(rev.__getitem__, t.values())))
        if len(out) != len(t):
            raise ValueError(f"relabel sends two of {len(t)} terms to one")
        return FockVector._wrap(out, w - top, self._bound)

    def with_coefficient(self, p: LaurentPoly) -> list[Multipartition]:
        """The multipartitions whose coefficient is p, in term order: one
        int comparison per term.  Empty when p has an exponent below the
        vector's base or a coefficient above its bound, as then no
        coefficient can equal p (and p's int would not decode to p)."""
        c = p._terms
        if not c or min(c) < self._lo or max(map(abs, c.values())) > self._bound:
            return []
        x = _encode(c, self._lo)
        return [mp for mp, y in self._terms.items() if y == x]

    def outside_vzv(self) -> list[Multipartition]:
        """The multipartitions whose coefficient lies outside vZ[v]."""
        if self._lo > 0:
            return []
        # the digits at exponents <= 0 are zero exactly when X has no bit below them
        low = (1 << W * (1 - self._lo)) - 1
        return [mp for mp, x in self._terms.items() if x & low]

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

    def shape(self, defect: int, label: Multipartition) -> tuple[int, ...]:
        """Entry l sums the coefficients of v^l over all terms, once the
        vector passes the checks of the canonical element G(label):
        coefficient 1 at the label, every other coefficient in vZ[v] with
        no negative coefficient, and every exponent in 0..defect.  The
        bound then drops to max(shape), which bounds every coefficient once
        none is negative.  A failed check raises CoefficientError."""
        t, lo = self._terms, self._lo
        if lo > 0 or t.get(label) != 1 << W * -lo:
            raise CoefficientError(f"the coefficient at the label {label} is not 1")
        xs = t.values()
        # no negative digit exactly when X >= 0 and no digit has its top bit
        ored = reduce(or_, xs)
        if min(xs) < 0 or ored & _top_bits(ored.bit_length() // W + 1):
            bad = next(mp for mp, x in t.items() if min(_decode(x, lo).values()) < 0)
            raise CoefficientError(f"negative coefficient at {bad}: {self.coefficient(bad)}")
        # the lowest and the highest digit of the ints with |digit| < 2^(W-1)
        first = lo + ((ored & -ored).bit_length() - 1) // W
        last = lo + ored.bit_length() // W
        if first < 0 or last > defect:
            bad, c = next(
                (mp, c) for mp, c in self.terms()
                if not 0 <= c.min_exponent() <= c.max_exponent() <= defect
            )
            raise CoefficientError(f"coefficient {c} at {bad}: an exponent outside 0..{defect}")
        # each entry sums len(t) digits: within the bound, or the true largest
        bound = self._bound if self._bound * len(t) < LIMIT else self._max_digit()
        if bound * len(t) >= LIMIT:
            raise CoefficientError(f"the shape's bound {bound} * {len(t)} reaches 2^{W - 2}")
        total = _decode(sum(xs), lo)
        shape = tuple(total.get(e, 0) for e in range(defect + 1))
        # every coefficient is positive, so v^0 occurs only at the label
        # exactly when entry 0 is the label's 1
        if shape[0] != 1:
            bad = next(mp for mp, x in t.items() if x & _MASK << W * -lo and mp != label)
            raise CoefficientError(f"coefficient {self.coefficient(bad)} at {bad} not in vZ[v]")
        self._bound = max(shape)
        return shape

    def _max_digit(self) -> int:
        """The largest |digit|, exact as _wrap keeps every bound below LIMIT."""
        digits = (_decode(x, self._lo).values() for x in self._terms.values())
        return max(map(abs, chain.from_iterable(digits)), default=0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        lo = min(self._lo, other._lo)
        a, b = self.rebased(lo)._terms, other.rebased(lo)._terms
        if type(a) is type(b):
            return a == b
        if isinstance(b, SortedTerms):
            a, b = b, a  # b is the dict
        return len(a) == len(b) and all(map(eq, map(b.get, a), a.values()))

    __hash__ = None

    def __add__(self, other: "FockVector") -> "FockVector":
        return self.add_scaled(other, LaurentPoly.one())

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self.add_scaled(other, LaurentPoly.monomial(0, -1))

    def add_scaled(self, other: "FockVector", mult: LaurentPoly) -> "FockVector":
        """self + mult * other."""
        m = mult._terms
        if not m or not other._terms:
            return self
        mlo = min(m)
        base = other._lo + mlo  # the products' exponent base
        lo = min(self._lo, base)
        src = self.rebased(lo)._terms
        t = dict(src) if type(src) is dict else dict(src.items())
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
        bits = [f"({c})*{list(map(list, mp))}" for mp, c in self.stored().terms()]
        return " + ".join(bits)

    __repr__ = __str__

    def to_json(self, maps: dict[int, dict[str, int]] | None = None) -> list[dict]:
        """Terms in increasing tuple order, read off the stored terms (a
        stored vector is not sorted again).  A multipartition stays a tuple
        of tuples, which json writes as nested lists; a coefficient is an
        exponent-string -> coefficient map, exponents ascending, decoded
        once per distinct coefficient and shared by the terms that have it.
        `maps` keeps each decoded map by its int for the next call: only
        for vectors over the exponent base 0, such as the interned
        elements of one basis, whose ints are equal exactly when their
        coefficients are.  Every exponent key is the one interned string
        of its value."""
        t, lo = self.stored()._terms, self._lo
        if maps is None:
            maps = {}
        elif lo:
            raise ValueError(f"a shared map table needs the exponent base 0, got {lo}")
        for x in {x for x in t.xs if x not in maps}:
            maps[x] = {intern(str(e)): n for e, n in _decode(x, lo).items()}
        return [{"multipartition": mp, "coefficient": maps[x]} for mp, x in t.items()]

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
# multipartition -> entry memo that apply_f_divided reads.  An entry is
# one flat tuple (mp_1, s_1, ..., mp_n, s_n, low), read as zip(it, it),
# which stops at the odd last item: one tuple header per entry.
_EXPANSIONS: dict[tuple, dict[Multipartition, tuple]] = {}


def rotation_class(ctx: FockContext) -> tuple:
    """(e, charges - c_1 mod e): equal for contexts whose charges differ by
    one constant shift s.  i_node_slots reads a charge c only through
    (i - c) mod e (the residue of a node is its charge plus its column
    minus its row; Uglov, 2000), so two such contexts are one Fock space
    with residue i renamed i + s: the same crystal vertices, f_i^(k) on
    one is f_(i+s)^(k) on the other, and G(lam) is the same vector under
    both.  ctx.dual() lies in ctx's class for symmetric_context(a) and for
    e = 3 with charges (0, 1, 2), not for e = 3 with (0, 0, 1)."""
    e, first = ctx.e, ctx.charges[0]
    return e, tuple((c - first) % e for c in ctx.charges)


def _expansion(ctx: FockContext, mp: Multipartition, i: int, k: int) -> tuple:
    """f_i^(k) of the basis vector mp as an _EXPANSIONS entry: each term
    of subset_terms as the multipartition with its shift W * (exponent -
    low), then the least exponent `low` (0 when there is no term).  Each
    multipartition and shift is the one object _SHARED holds for its
    value: a shift W * d of d >= 5 would otherwise be a fresh int in every
    entry."""
    mps, expos = subset_terms(ctx, mp, i, k)
    if not mps:
        return (0,)
    low = min(expos)
    shifts = [W * (x - low) for x in expos]
    share = _SHARED.setdefault
    out = [low] * (2 * len(mps) + 1)
    out[0:-1:2] = map(share, mps, mps)
    out[1:-1:2] = map(share, shifts, shifts)
    return tuple(out)


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
    expansions = [memo.get(mp) or memo.setdefault(mp, _expansion(ctx, mp, i, k)) for mp in t]
    low = min((entry[-1] for entry in expansions if len(entry) > 1), default=0)
    out: dict[Multipartition, int] = {}
    get = out.get
    for x, entry in zip(t.values(), expansions):
        x <<= W * (entry[-1] - low)
        it = iter(entry)
        for nmp, s in zip(it, it):
            n = get(nmp, 0) + (x << s)
            if n:
                out[nmp] = n
            else:
                del out[nmp]  # x << s != 0, so a zero sum means nmp was in out
    # a term of the output sums at most one term per input term, each within
    # vec's bound or, once compounding has made it loose, its largest digit
    bound = vec._bound if vec._bound * len(t) < LIMIT else vec._max_digit()
    return FockVector._wrap(out, vec._lo + low, bound * len(t))

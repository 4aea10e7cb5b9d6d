"""Fock space over Z[v, v^-1]: residues, node combinatorics, and the
divided powers f_i^(k) of the v-weighted lowering operator.

f_i^(k) adds each k-subset T of the addable i-nodes at v^(sum_T N_t -
C(k,2)), N_t = #addable - #removable i-nodes above t (Kashiwara, Duke
Math. J. 69, 1993): adding an i-node only turns its slot removable, so
the k! orders of adding T under f_i^k sum to [k]! times that monomial.
apply_f_divided and closedform both read this exponent from here.

Ordering convention used everywhere ("above"/"below"): component 1 is
topmost, and within a component a smaller row index is higher.  A single
row carries at most one node of a given residue (the removable box at its
end and the addable slot just past it differ by one residue), so listing
nodes by (component, row) is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Mapping, NamedTuple

from .laurent import LaurentPoly, _add, _mul, _shift, exact_div
from .partitions import Multipartition, mp_from_json


class CoefficientError(ValueError):
    """A vector's coefficients break a bound its check was asked for."""


class NodeRef(NamedTuple):
    comp: int  # 1-based component index
    row: int   # 1-based row
    col: int   # 1-based column


@dataclass(frozen=True)
class FockContext:
    """Rank e >= 2 together with the charge sequence (k_1, ..., k_r).

    Charges fix every node residue and the highest weight
    Lambda = Lambda_{k_1} + ... + Lambda_{k_r}.  Components sharing a
    charge must occupy a contiguous block.
    """

    e: int
    charges: tuple[int, ...]

    def __post_init__(self):
        if self.e < 2:
            raise ValueError(f"rank must be >= 2, got {self.e}")
        object.__setattr__(self, "charges", tuple(int(c) for c in self.charges))
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


def residue(ctx: FockContext, node: NodeRef) -> int:
    """(charge of the component + column - row) mod e."""
    return (ctx.charges[node.comp - 1] + node.col - node.row) % ctx.e


def i_node_slots(ctx: FockContext, mp: Multipartition, i: int) -> list[tuple[NodeRef, bool]]:
    """Addable (True) and removable (False) i-nodes, top to bottom."""
    out = []
    e = ctx.e
    for u, comp in enumerate(mp, start=1):
        ch = ctx.charges[u - 1]
        t = len(comp)
        for j in range(1, t + 2):
            cur = comp[j - 1] if j <= t else 0
            # addable slot at (j, cur+1) when the row above is strictly longer
            if j == 1 or comp[j - 2] > cur:
                if (ch + cur + 1 - j) % e == i:
                    out.append((NodeRef(u, j, cur + 1), True))
            # removable box at (j, cur) when the row below is strictly shorter
            if j <= t and (j == t or comp[j] < cur):
                if (ch + cur - j) % e == i:
                    out.append((NodeRef(u, j, cur), False))
    return out


def addable_nodes(ctx: FockContext, mp: Multipartition, i: int) -> list[NodeRef]:
    return [n for n, add in i_node_slots(ctx, mp, i) if add]


def addable_exponents(ctx: FockContext, mp: Multipartition, i: int) -> list[tuple[NodeRef, int]]:
    """Addable i-nodes, top to bottom, each with its f_i exponent
    N = #{addable i-nodes above it} - #{removable i-nodes above it}."""
    out, nr = [], 0
    for node, isadd in i_node_slots(ctx, mp, i):
        if isadd:
            out.append((node, len(out) - nr))
        else:
            nr += 1
    return out


def removable_nodes(ctx: FockContext, mp: Multipartition, i: int) -> list[NodeRef]:
    return [n for n, add in i_node_slots(ctx, mp, i) if not add]


def add_node(mp: Multipartition, node: NodeRef) -> Multipartition:
    comp = mp[node.comp - 1]
    if node.row == len(comp) + 1:
        new = comp + (1,)
    else:
        new = comp[: node.row - 1] + (comp[node.row - 1] + 1,) + comp[node.row :]
    return mp[: node.comp - 1] + (new,) + mp[node.comp :]


def remove_node(mp: Multipartition, node: NodeRef) -> Multipartition:
    comp = mp[node.comp - 1]
    r = comp[node.row - 1] - 1
    if r == 0:
        new = comp[: node.row - 1] + comp[node.row :]
    else:
        new = comp[: node.row - 1] + (r,) + comp[node.row :]
    return mp[: node.comp - 1] + (new,) + mp[node.comp :]


def divided_power_term(mp: Multipartition, subset) -> tuple[Multipartition, int]:
    """The term of f_i^(k) at a k-subset of addable_exponents(ctx, mp, i):
    mp with those nodes added, and its exponent sum(N) - C(k,2)."""
    k = len(subset)
    expo = -(k * (k - 1) // 2)
    for node, n in subset:
        mp = add_node(mp, node)
        expo += n
    return mp, expo


def content(ctx: FockContext, mp: Multipartition) -> tuple[int, ...]:
    """Number of nodes of each residue, as a length-e vector."""
    out = [0] * ctx.e
    for u, comp in enumerate(mp, start=1):
        ch = ctx.charges[u - 1]
        for j, row in enumerate(comp, start=1):
            for c in range(1, row + 1):
                out[(ch + c - j) % ctx.e] += 1
    return tuple(out)


class FockVector:
    """Finite formal sum multipartition -> Laurent polynomial.

    Each coefficient is stored as a plain exponent -> nonzero coefficient
    dict (the collector never tracks one) and handed out as a LaurentPoly
    view over it; a stored dict is never mutated.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        pairs = terms.items() if isinstance(terms, dict) else terms or ()
        self._terms = _merged((mp, c._terms) for mp, c in pairs)

    @staticmethod
    def _wrap(terms: dict[Multipartition, dict[int, int]]) -> "FockVector":
        """A vector over a finished dict: no zero coefficient, nothing to merge."""
        v = FockVector.__new__(FockVector)
        v._terms = terms
        return v

    @staticmethod
    def basis(mp: Multipartition) -> "FockVector":
        return FockVector._wrap({mp: LaurentPoly.one()._terms})

    @staticmethod
    def zero() -> "FockVector":
        return FockVector._wrap({})

    def coefficient(self, mp: Multipartition) -> LaurentPoly:
        c = self._terms.get(mp)
        return LaurentPoly.zero() if c is None else LaurentPoly._own(c)

    def terms(self) -> Iterator[tuple[Multipartition, LaurentPoly]]:
        return zip(self._terms.keys(), map(LaurentPoly._own, self._terms.values()))

    def __iter__(self) -> Iterator[Multipartition]:
        return iter(self._terms)

    def support(self) -> list[Multipartition]:
        return sorted(self._terms)

    # dict-level reads for the reduction and the element checks: no
    # LaurentPoly view per term

    def outside_vzv(self, among: "FockVector | None" = None) -> list[Multipartition]:
        """The multipartitions whose coefficient lies outside vZ[v], only
        those in the support of `among` when it is given."""
        t = self._terms
        if among is None:
            return [mp for mp, c in t.items() if min(c) <= 0]
        return [mp for mp in among._terms if (c := t.get(mp)) and min(c) <= 0]

    def symmetric_low(self, mp: Multipartition) -> LaurentPoly:
        """The coefficient at mp cut to exponents <= 0 and made
        bar-symmetric; zero when the coefficient lies in vZ[v]."""
        low = {e: c for e, c in self._terms.get(mp, {}).items() if e <= 0}
        return LaurentPoly._own({**low, **{-e: c for e, c in low.items()}})

    def shape(self, defect: int, label: Multipartition | None = None) -> tuple[int, ...]:
        """Entry l sums the coefficients of v^l over all terms, in one pass;
        every exponent must lie in 0..defect.  Given a label, the pass also
        checks what the canonical element G(label) satisfies: coefficient
        1 at the label, and every other coefficient in vZ[v] with no
        negative coefficient.  A failed check raises CoefficientError."""
        t = self._terms
        if label is not None and t.get(label) != {0: 1}:
            raise CoefficientError(f"the coefficient at the label {label} is not 1")
        shape = [0] * (defect + 1)
        for mp, c in t.items():
            for e, n in c.items():
                if not 0 <= e <= defect:
                    raise CoefficientError(f"coefficient exponent {e} outside 0..{defect} at {mp}")
                if n < 0 and label is not None:
                    raise CoefficientError(f"negative coefficient {n}*v^{e} at {mp}")
                shape[e] += n
        # every coefficient is positive, so v^0 occurs only at the label
        # exactly when entry 0 is the label's 1
        if label is not None and shape[0] != 1:
            bad = next(mp for mp, c in t.items() if 0 in c and mp != label)
            raise CoefficientError(
                f"coefficient {LaurentPoly._own(t[bad])} at {bad} not in vZ[v]"
            )
        return tuple(shape)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __add__(self, other: "FockVector") -> "FockVector":
        return self.add_scaled(other, LaurentPoly.one())

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self.add_scaled(other, LaurentPoly.from_int(-1))

    def add_scaled(self, other: "FockVector", mult: LaurentPoly) -> "FockVector":
        """self + mult * other."""
        t = dict(self._terms)
        m = mult._terms
        if m:
            for mp, c in other._terms.items():
                p = _mul(c, m)
                prev = t.get(mp)
                n = p if prev is None else _add(prev, p)
                if n:
                    t[mp] = n
                elif prev is not None:
                    del t[mp]
        return FockVector._wrap(t)

    def exact_div(self, q: LaurentPoly) -> "FockVector":
        return FockVector._wrap({mp: exact_div(c, q)._terms for mp, c in self.terms()})

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = [f"({c})*{list(map(list, mp))}" for mp, c in sorted(self.terms())]
        return " + ".join(bits)

    __repr__ = __str__

    def to_json(self) -> list[dict]:
        """Terms in increasing tuple order.  A multipartition stays a tuple
        of tuples, which json writes as nested lists; a coefficient is an
        exponent-string -> coefficient map, exponents ascending."""
        t = self._terms
        return [
            {"multipartition": mp, "coefficient": {str(e): n for e, n in sorted(t[mp].items())}}
            for mp in sorted(t)
        ]

    @staticmethod
    def from_json(data) -> "FockVector":
        def exponents(c) -> dict[int, int]:
            if not isinstance(c, Mapping):
                raise TypeError(f"a coefficient is a JSON object, got {c!r}")
            return {e: n for e, n in ((int(e), int(n)) for e, n in c.items()) if n}

        return FockVector._wrap(
            _merged((mp_from_json(d["multipartition"]), exponents(d["coefficient"])) for d in data)
        )


def _merged(pairs) -> dict[Multipartition, dict[int, int]]:
    """Sum (multipartition, exponent dict) pairs into a vector's storage,
    dropping every coefficient that adds up to zero."""
    t: dict[Multipartition, dict[int, int]] = {}
    for mp, c in pairs:
        prev = t.get(mp)
        n = c if prev is None else _add(prev, c)
        if n:
            t[mp] = n
        elif prev is not None:
            del t[mp]
    return t


@lru_cache(maxsize=None)
def _expansion(e: int, charges: tuple[int, ...], mp: Multipartition, i: int, k: int):
    """f_i^(k) of the basis vector mp under FockContext(e, charges), as
    (multipartition, exponent) pairs, one per k-subset of its addable
    i-nodes; distinct subsets add distinct nodes, so no two pairs share a
    multipartition.  The key holds the context's fields, not the context:
    the collector untracks a tuple of ints and tuples, never a context."""
    ctx = FockContext(e, charges)
    return tuple(
        divided_power_term(mp, subset)
        for subset in combinations(addable_exponents(ctx, mp, i), k)
    )


def apply_f_divided(ctx: FockContext, vec: FockVector, i: int, k: int) -> FockVector:
    """The divided power f_i^(k) = f_i^k / [k]! by the subset rule of the
    module docstring; k = 1 is f_i.  The iterative route (f_i k times,
    then exact division by [k]!) lives in the tests as a cross-check."""
    if k < 0:
        raise ValueError(f"divided power needs k >= 0, got {k}")
    if k == 0:
        return vec
    out: dict[Multipartition, dict[int, int]] = {}
    for mp, c in vec._terms.items():
        for nmp, expo in _expansion(ctx.e, ctx.charges, mp, i, k):
            p = _shift(c, expo)
            prev = out.get(nmp)
            n = p if prev is None else _add(prev, p)
            if n:
                out[nmp] = n
            elif prev is not None:
                del out[nmp]
    return FockVector._wrap(out)

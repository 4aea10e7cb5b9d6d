"""Reference f_i, e_i, the iterative divided power and the per-branch
family enumerator, kept beside the tests as independent cross-checks of
kcb.fock.apply_f_divided and kcb.closedform.expand_family, the way
tests/test_canonical.py::PathSeedRoute keeps the path seed.

apply_f and apply_e sum over the addable (removable) i-nodes one at a
time; apply_f_divided_iterative applies apply_f k times and divides
exactly by [k]!.  None of them shares the subset rule of kcb.fock.
expand_family_branches carries every choice branch separately to the
last stage, with its own plain and corrected exponents and the choice
sequences it took, and merges none.
dict_add_scaled and dict_apply_f_divided work on plain
multipartition -> {exponent: coefficient} dicts, so they check the packed
int storage of kcb.fock.FockVector against arithmetic that has none.

The *_reference functions are plain kernels for kcb.partitions
dominates and for kcb.fock i_node_slots, add_node, remove_node,
addable_count, subset_terms, the f_i^(k) expansion and content: a
dominance walk over every row with no memo, a slot walk over every row
with a charge lookup per component and no node table, a splice that sets
the node's row to the length its column gives and checks that the
result is a partition, one such splice per added node and one term per
subset of the addable nodes of the whole multipartition, and a count of
every cell.  Every reference here (apply_f, apply_e, the iterative
divided power, expand_family_branches, dict_apply_f_divided and the
crystal steps below) builds its terms with these; none imports kcb's
node code.

f_tilde_iterated and e_tilde_until_none step through an i-string one
crystal operator at a time, each step reading a fresh signature off
i_node_slots_reference, against kcb.crystal, which reads one signature
per string (f_tilde_string, string_top).

weight_info_reference computes the hub and defect through the affine
Cartan matrix, against kcb.crystal.weight_info, which reads the two
neighbours of each residue.  qfact, iter_partitions and
iter_multipartitions are the quantum factorial and the enumerators that
only the tests use.

bar is the bar involution of one coefficient, and bar_shifted_reference
the duality suite's expected vector built from it term by term, one
decoded LaurentPoly per term, against kcb.fock.FockVector.bar_shifted,
which reverses the digits of each distinct packed coefficient once.

tau_sum is the paper's form of the top row and its string images: v^inv(S)
tau^n_i(S) summed over the choice sequences S(a, k), term by term, with its
label, against the weyl family of kcb.closedform.closed_canonical_family,
which builds the divided-power monomial of the family's path.
"""

from functools import lru_cache
from itertools import combinations, zip_longest
from typing import Iterator

from kcb.fock import FockContext, FockVector
from kcb.closedform import ChoiceSequence, choice_sequences, inv, tau
from kcb.laurent import LaurentPoly, qint
from kcb.partitions import Multipartition, Partition


@lru_cache(maxsize=None)
def qfact(n: int) -> LaurentPoly:
    """Quantum factorial [n]! = [n][n-1]...[1]; [0]! = 1."""
    if n < 0:
        raise ValueError(f"qfact needs n >= 0, got {n}")
    if n == 0:
        return LaurentPoly.one()
    return qfact(n - 1) * qint(n)


@lru_cache(maxsize=None)
def _partitions_of(n: int, cap: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def iter_partitions(n: int) -> Iterator[Partition]:
    """All partitions of exactly n, descending-lex order."""
    return iter(_partitions_of(n, n))


def iter_multipartitions(n: int, level: int) -> Iterator[Multipartition]:
    """All multipartitions of exactly n with the given level."""
    if level == 0:
        if n == 0:
            yield ()
        return
    if level == 1:
        for p in iter_partitions(n):
            yield (p,)
        return
    for head in range(n, -1, -1):
        for p in iter_partitions(head):
            for rest in iter_multipartitions(n - head, level - 1):
                yield (p,) + rest


def apply_f(ctx: FockContext, vec: FockVector, i: int) -> FockVector:
    """f_i: sum over addable i-nodes n of v^N(n,i) * (add n), extended linearly.

    N(n,i) = #{addable i-nodes above n} - #{removable i-nodes above n}.
    """
    out: dict[Multipartition, LaurentPoly] = {}
    for mp, c in vec.terms():
        na = nr = 0
        for node, isadd in i_node_slots_reference(ctx, mp, i):
            if isadd:
                nmp = add_node_reference(mp, node)
                p = c.shift(na - nr)
                prev = out.get(nmp)
                n = p if prev is None else prev + p
                if n:
                    out[nmp] = n
                elif nmp in out:
                    del out[nmp]
                na += 1
            else:
                nr += 1
    return FockVector(out)


def apply_e(ctx: FockContext, vec: FockVector, i: int) -> FockVector:
    """e_i: sum over removable i-nodes m of v^M(m,i) * (remove m).

    M(m,i) = #{addable i-nodes below m} - #{removable i-nodes below m}.
    """
    out: dict[Multipartition, LaurentPoly] = {}
    for mp, c in vec.terms():
        slots = i_node_slots_reference(ctx, mp, i)
        ta = sum(1 for _, isadd in slots if isadd)
        tr = len(slots) - ta
        na = nr = 0
        for node, isadd in slots:
            if isadd:
                na += 1
            else:
                nmp = remove_node_reference(mp, node)
                p = c.shift((ta - na) - (tr - nr - 1))
                prev = out.get(nmp)
                n = p if prev is None else prev + p
                if n:
                    out[nmp] = n
                elif nmp in out:
                    del out[nmp]
                nr += 1
    return FockVector(out)


def apply_f_divided_iterative(ctx: FockContext, vec: FockVector, i: int, k: int) -> FockVector:
    """f_i iterated k times followed by exact division by [k]!."""
    out = vec
    for _ in range(k):
        out = apply_f(ctx, out, i)
    return out.exact_div(qfact(k))


def expand_family_branches(
    ctx: FockContext, stages, m: int, branch_cap: int | None = None
) -> list[tuple[Multipartition, int, int, tuple]]:
    """All branches (multipartition, plain exponent, corrected exponent,
    picks): picks holds one 0/1 choice sequence per stage before m, the
    bits of the addable nodes the branch took there."""
    branches = [(ctx.highest_weight_vertex(), 0, 0, ())]
    for idx, (i, mult) in enumerate(stages):
        nxt = []
        for mp, ep, ec, picks in branches:
            adds = addable_exponents_reference(ctx, mp, i)
            kk = len(adds) if mult is None else mult
            if kk > len(adds):
                raise ValueError(
                    f"stage {idx + 1} asks for {kk} nodes, only {len(adds)} addable"
                )
            if idx >= m and kk < len(adds):
                raise ValueError(
                    f"stage {idx + 1} is past the choice stages but leaves "
                    f"{len(adds) - kk} nodes unused"
                )
            for T in combinations(range(len(adds)), kk):
                nmp, dc = divided_power_term_reference(mp, [adds[pos] for pos in T])
                took = picks
                if idx < m:
                    took += (tuple(int(pos in T) for pos in range(len(adds))),)
                nxt.append((nmp, ep + sum(T) - kk * (kk - 1) // 2, ec + dc, took))
        branches = nxt
        if branch_cap is not None and len(branches) > branch_cap:
            raise ValueError(f"branch budget exceeded ({len(branches)} > {branch_cap})")
    conts = {content_reference(ctx, branch[0]) for branch in branches}
    if len(conts) > 1:
        raise ValueError(f"branches ended at different weights: {sorted(conts)}")
    return branches


def as_dicts(vec: FockVector) -> dict[Multipartition, dict[int, int]]:
    """A vector as multipartition -> {exponent: coefficient}."""
    return {mp: dict(c.items()) for mp, c in vec.terms()}


def _accumulate(out: dict, mp: Multipartition, e: int, n: int) -> None:
    c = out.setdefault(mp, {})
    c[e] = c.get(e, 0) + n
    if not c[e]:
        del c[e]
        if not c:
            del out[mp]


def dict_add_scaled(a: dict, b: dict, mult: dict[int, int]) -> dict:
    """a + mult * b, one (exponent, coefficient) product at a time."""
    out = {mp: dict(c) for mp, c in a.items()}
    for mp, c in b.items():
        for e1, n1 in c.items():
            for e2, n2 in mult.items():
                _accumulate(out, mp, e1 + e2, n1 * n2)
    return out


def dict_apply_f_divided(ctx: FockContext, a: dict, i: int, k: int) -> dict:
    """f_i^(k) by the subset rule, one subset and one exponent at a time."""
    out: dict = {}
    for mp, c in a.items():
        for subset in combinations(addable_exponents_reference(ctx, mp, i), k):
            nmp, expo = divided_power_term_reference(mp, subset)
            for e, n in c.items():
                _accumulate(out, nmp, e + expo, n)
    return out


def dominates_reference(mu: Multipartition, lam: Multipartition) -> bool:
    """mu >= lam: every prefix sum, component by component and row by row."""
    if len(mu) != len(lam):
        raise ValueError("dominance needs equal levels")
    run, below = 0, False
    for p, q in zip(mu, lam):
        if p == q:
            continue
        for a, b in zip_longest(p, q, fillvalue=0):
            run += a - b
            if run < 0:
                below = True
    if run:
        raise ValueError("dominance needs equal total size")
    return not below


def i_node_slots_reference(ctx: FockContext, mp: Multipartition, i: int) -> list:
    """Addable (True) and removable (False) i-nodes, top to bottom."""
    out = []
    e = ctx.e
    for u, comp in enumerate(mp, start=1):
        ch = ctx.charges[u - 1]
        t = len(comp)
        for j in range(1, t + 2):
            cur = comp[j - 1] if j <= t else 0
            if j == 1 or comp[j - 2] > cur:
                if (ch + cur + 1 - j) % e == i:
                    out.append(((u, j, cur + 1), True))
            if j <= t and (j == t or comp[j] < cur):
                if (ch + cur - j) % e == i:
                    out.append(((u, j, cur), False))
    return out


def _signature_reference(ctx: FockContext, mp: Multipartition, i: int) -> list:
    """Surviving (node, is_addable) entries, bottom to top, after '-+' cancellation."""
    stack = []
    for node, isadd in reversed(i_node_slots_reference(ctx, mp, i)):
        if isadd and stack and not stack[-1][1]:
            stack.pop()
        else:
            stack.append((node, isadd))
    return stack


def f_tilde_iterated(ctx: FockContext, mp: Multipartition, i: int, k: int):
    """f~_i applied k times, each time adding the rightmost surviving + of
    a fresh signature; None if the i-string ends first."""
    for _ in range(k):
        adds = [node for node, isadd in _signature_reference(ctx, mp, i) if isadd]
        if not adds:
            return None
        mp = add_node_reference(mp, adds[-1])
    return mp


def e_tilde_until_none(ctx: FockContext, mp: Multipartition, i: int) -> tuple[int, Multipartition]:
    """(k, e~_i^k(mp)) with e~_i, the leftmost surviving - of a fresh
    signature removed, applied until there is none."""
    k = 0
    while True:
        rems = [node for node, isadd in _signature_reference(ctx, mp, i) if not isadd]
        if not rems:
            return k, mp
        mp, k = remove_node_reference(mp, rems[0]), k + 1


def _set_row(mp: Multipartition, node, was: int, now: int) -> Multipartition:
    """mp with row j of component u changed from length was to now, for
    node (u, j, c); a ValueError unless it was that long and the result
    is a partition."""
    u, j, _ = node
    rows = list(mp[u - 1]) + [0]
    if rows[j - 1] != was:
        raise ValueError(f"row {j} of component {u} has length {rows[j - 1]}, not {was}")
    rows[j - 1] = now
    if rows != sorted(rows, reverse=True):
        raise ValueError(f"{node} leaves component {u} no partition: {rows}")
    return mp[: u - 1] + (tuple(r for r in rows if r),) + mp[u:]


def add_node_reference(mp: Multipartition, node) -> Multipartition:
    """mp with the cell (u, j, c) added: row j grows from c - 1 to c cells."""
    return _set_row(mp, node, node[2] - 1, node[2])


def remove_node_reference(mp: Multipartition, node) -> Multipartition:
    """mp with the cell (u, j, c) removed: row j shrinks from c to c - 1 cells."""
    return _set_row(mp, node, node[2], node[2] - 1)


def divided_power_term_reference(mp: Multipartition, subset) -> tuple[Multipartition, int]:
    """mp with the subset's nodes added one add_node_reference at a time,
    and sum(N) - C(k,2)."""
    k = len(subset)
    expo = -(k * (k - 1) // 2)
    for node, n in subset:
        mp = add_node_reference(mp, node)
        expo += n
    return mp, expo


def addable_exponents_reference(ctx: FockContext, mp: Multipartition, i: int) -> list:
    """Addable i-nodes of the reference slot walk, top to bottom, each with
    N = #{addable i-nodes above it} - #{removable i-nodes above it}."""
    out, nr = [], 0
    for node, isadd in i_node_slots_reference(ctx, mp, i):
        if isadd:
            out.append((node, len(out) - nr))
        else:
            nr += 1
    return out


def expansion_reference(ctx: FockContext, mp: Multipartition, i: int, k: int) -> dict:
    """f_i^(k) of the basis vector mp by the subset rule, as multipartition
    -> exponent: one term per k-subset of the reference addable nodes, each
    built one add_node_reference at a time."""
    subsets = combinations(addable_exponents_reference(ctx, mp, i), k)
    return dict(divided_power_term_reference(mp, subset) for subset in subsets)


def content_reference(ctx: FockContext, mp: Multipartition) -> tuple[int, ...]:
    """Number of nodes of each residue, one cell at a time."""
    out = [0] * ctx.e
    for u, comp in enumerate(mp, start=1):
        ch = ctx.charges[u - 1]
        for j, row in enumerate(comp, start=1):
            for c in range(1, row + 1):
                out[(ch + c - j) % ctx.e] += 1
    return tuple(out)


def weight_info_reference(ctx: FockContext, cont) -> tuple[tuple[int, ...], int]:
    """(hub, defect) = (a - C c, a.c - (c.Cc)/2) through the affine Cartan
    matrix C of the rank-e cycle (e = 2 gives [[2, -2], [-2, 2]])."""
    e = ctx.e
    C = [[0] * e for _ in range(e)]
    for i in range(e):
        C[i][i] = 2
        C[i][(i + 1) % e] -= 1
        C[i][(i - 1) % e] -= 1
    a = ctx.weight_multiplicities
    hub = tuple(a[i] - sum(C[i][j] * cont[j] for j in range(e)) for i in range(e))
    defect = sum(a[i] * cont[i] - cont[i] ** 2 for i in range(e)) - sum(
        C[i][j] * cont[i] * cont[j] for i in range(e) for j in range(i + 1, e)
    )
    return hub, defect


def bar(p: LaurentPoly) -> LaurentPoly:
    """The bar involution v -> v^-1 (exponent negation term-wise)."""
    return LaurentPoly({-e: c for e, c in p.items()})


def bar_shifted_reference(vec: FockVector, w: int, relabel) -> FockVector:
    """sum_lam v^w bar(c_lam) relabel(lam), one term at a time."""
    return FockVector([(relabel(lam), bar(c).shift(w)) for lam, c in vec.terms()])


def tau_sum(a: int, i: int, k: int, n: int) -> tuple[FockVector, Multipartition]:
    """sum over S(a, k) of v^inv(S) tau^n_i(S), and its label: tau^n_i at
    the all-ones-first choice."""
    vec = FockVector(
        [(tau(a, i, n, s), LaurentPoly.monomial(inv(s))) for s in choice_sequences(a, k)]
    )
    return vec, tau(a, i, n, ChoiceSequence((1,) * k + (0,) * (a - k)))

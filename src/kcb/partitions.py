"""Partitions, multipartitions, and the small builder combinators.

A partition is a tuple of weakly decreasing positive ints; a
multipartition is a tuple of partitions (its length is the level).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, zip_longest

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]


class IllFormedPartitionError(ValueError):
    """Rows fail to be weakly decreasing positive integers."""


def as_partition(p: tuple[int, ...]) -> Partition:
    """A tuple of ints (mps_from_json checks the types), once its rows are
    checked to be positive and weakly decreasing."""
    if any(r <= 0 for r in p):
        raise IllFormedPartitionError(f"non-positive row in {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise IllFormedPartitionError(f"rows not weakly decreasing: {p}")
    return p


@lru_cache(maxsize=None)
def transpose(p: Partition) -> Partition:
    if not p:
        return ()
    return tuple(sum(1 for r in p if r > c) for c in range(p[0]))


def triangular(n: int) -> Partition:
    """T_n = (n, n-1, ..., 1) for n > 0, the empty partition otherwise."""
    if n <= 0:
        return ()
    return tuple(range(n, 0, -1))


def vee(p: Partition, q: Partition) -> Partition:
    """Rows of p followed by the rows of q; must stay a partition."""
    out = p + q
    if p and q and p[-1] < q[0]:
        raise IllFormedPartitionError(f"{p} v {q} is not weakly decreasing")
    return out


def u_family(variant: int, n: int) -> Partition:
    """U^n_1 = (n+1) v T_{n-2} and its transpose U^n_2 = T_{n-1} v (1,1)."""
    if n < 1:
        raise ValueError(f"u_family needs n >= 1, got {n}")
    if variant == 1:
        return vee((n + 1,), triangular(n - 2))
    if variant == 2:
        return vee(triangular(n - 1), (1, 1))
    raise ValueError(f"variant must be 1 or 2, got {variant}")


def conjugate(mp: Multipartition) -> Multipartition:
    """Reverse the component order and transpose every component."""
    return tuple(map(transpose, reversed(mp)))


def transpose_each(mp: Multipartition) -> Multipartition:
    """Transpose every component, keeping the order."""
    return tuple(transpose(c) for c in mp)


def total_size(mp: Multipartition) -> int:
    return sum(sum(c) for c in mp)


# p -> {q -> (low, diff)} for each pair of unequal components, process-wide:
# one inner dict per component p of a dominating multipartition, so a call
# fetches it once per depth and looks each q up in it.  low is the least
# running difference of their row prefix sums (0 or below), diff the
# difference of their sizes
_STEPS: dict[Partition, dict[Partition, tuple[int, int]]] = {}


def _step(p: Partition, q: Partition) -> tuple[int, int]:
    run = low = 0
    for a, b in zip_longest(p, q, fillvalue=0):
        run += a - b
        if run < low:
            low = run
    return low, run


def dominates(mu: Multipartition, *lams: Multipartition) -> bool:
    """mu >= lam in the dominance order for every lam: every prefix sum of
    mu, taken component by component and row by row, is at least lam's.
    With `run` the size difference of the components before, that holds
    exactly when run + low >= 0 at every pair of unequal components (low
    as in _STEPS); the final run checks equal size.  Every lam is walked,
    and a lam of another level or size raises ValueError.

    The lams are walked in the given order, and each restarts at the first
    component that is not the previous lam's component object: the running
    difference before each depth is kept, so the terms of a sorted vector,
    which share their leading component tuples, pay only for the
    components where they differ.  A failed pair in the shared components
    failed the previous lam already.  Components are tuples, as in
    Multipartition: unequal ones are memo keys, so a list there raises
    TypeError."""
    level = len(mu)
    runs = [0] * (level + 1)  # runs[j]: the running difference before depth j
    rows: list = [None] * level  # _STEPS[mu[j]], fetched at its first unequal pair
    # mu as the lam before the first: a component of lam that is mu's own
    # is an equal pair, which leaves the running difference at 0
    prev = mu
    every = True
    for lam in lams:
        if len(lam) != level:
            raise ValueError("dominance needs equal levels")
        j = 0
        while j < level and lam[j] is prev[j]:
            j += 1
        run = runs[j]
        while j < level:
            p, q = mu[j], lam[j]
            if p != q:  # an equal pair leaves the running difference as it is
                row = rows[j]
                if row is None:
                    row = rows[j] = _STEPS.get(p) or _STEPS.setdefault(p, {})
                step = row.get(q)
                if step is None:
                    step = row[q] = _step(p, q)
                low, diff = step
                if run + low < 0:
                    every = False
                run += diff
            j += 1
            runs[j] = run
        if run:
            raise ValueError("dominance needs equal total size")
        prev = lam
    return every


def is_e_regular(mp: Multipartition, e: int) -> bool:
    """No component repeats a row e times in a row."""
    if e < 2:
        raise ValueError(f"rank must be >= 2, got {e}")
    for comp in mp:
        for i in range(len(comp) - e + 1):
            if comp[i] == comp[i + e - 1]:
                return False
    return True


def mp_to_json(mp: Multipartition) -> list[list[int]]:
    return [list(c) for c in mp]


def mp_from_json(data) -> Multipartition:
    return mps_from_json([data])[0]


_SEQUENCES = {list, tuple}


def mps_from_json(data: list) -> list[Multipartition]:
    """The multipartitions of a list of JSON multipartitions.  Each distinct
    partition is validated once, and equal partitions come back as one
    tuple.  One pass over the types of all rows refuses a bool or float
    row up front: True == 1 and 1.0 == 1 hash alike, so such a row would
    otherwise find the memo entry of an int partition."""
    if not set(map(type, data)) <= _SEQUENCES:
        bad = next(mp for mp in data if type(mp) not in _SEQUENCES)
        raise IllFormedPartitionError(f"a multipartition is a list of partitions, got {bad!r}")
    comps = list(chain.from_iterable(data))
    if not set(map(type, comps)) <= _SEQUENCES or not set(
        map(type, chain.from_iterable(comps))
    ) <= {int}:
        bad = next(c for c in comps if type(c) not in _SEQUENCES or not set(map(type, c)) <= {int})
        raise IllFormedPartitionError(f"a partition is a list of ints, got {bad!r}")
    memo = {p: as_partition(p) for p in set(map(tuple, comps))}
    return [tuple(map(memo.__getitem__, map(tuple, mp))) for mp in data]


def ints_from_json(values) -> tuple[int, ...]:
    """A JSON list of ints as a tuple; a bool, a float or any other value
    raises TypeError (True == 1 and 1.0 == 1, but would be kept as given)."""
    if type(values) not in _SEQUENCES or not set(map(type, values)) <= {int}:
        raise TypeError(f"expected a list of ints, got {values!r}")
    return tuple(values)

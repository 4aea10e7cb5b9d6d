"""Partitions, multipartitions, and the small builder combinators.

A partition is a tuple of weakly decreasing positive ints; a
multipartition is a tuple of partitions (its length is the level).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, zip_longest
from typing import Iterator

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
    return tuple(transpose(c) for c in reversed(mp))


def transpose_each(mp: Multipartition) -> Multipartition:
    """Transpose every component, keeping the order."""
    return tuple(transpose(c) for c in mp)


def total_size(mp: Multipartition) -> int:
    return sum(sum(c) for c in mp)


# (p, q) -> (low, diff) for a pair of unequal components, process-wide:
# low is the least running difference of their row prefix sums (0 or
# below), diff the difference of their sizes
_STEPS: dict[tuple[Partition, Partition], tuple[int, int]] = {}


def _step(p: Partition, q: Partition) -> tuple[int, int]:
    run = low = 0
    for a, b in zip_longest(p, q, fillvalue=0):
        run += a - b
        if run < low:
            low = run
    return low, run


def dominates(mu: Multipartition, lam: Multipartition) -> bool:
    """mu >= lam in the dominance order: every prefix sum of mu, taken
    component by component and row by row, is at least lam's.  With `run`
    the size difference of the components before, that holds exactly when
    run + low >= 0 at every pair of unequal components (low as in _STEPS);
    the final run checks equal size.  Components are tuples, as in
    Multipartition: unequal ones are memo keys, so a list there raises
    TypeError."""
    if len(mu) != len(lam):
        raise ValueError("dominance needs equal levels")
    run, below = 0, False
    for p, q in zip(mu, lam):
        if p == q:
            continue  # leaves the running difference, and so `below`, as it is
        step = _STEPS.get((p, q))
        if step is None:
            step = _STEPS[p, q] = _step(p, q)
        low, diff = step
        if run + low < 0:
            below = True
        run += diff
    if run:
        raise ValueError("dominance needs equal total size")
    return not below


def is_e_regular(mp: Multipartition, e: int) -> bool:
    """No component repeats a row e times in a row."""
    if e < 2:
        raise ValueError(f"rank must be >= 2, got {e}")
    for comp in mp:
        for i in range(len(comp) - e + 1):
            if comp[i] == comp[i + e - 1]:
                return False
    return True


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

"""The per-term kernels against the plain ones in fock_reference: the
memoised dominance steps, the slot walk, the one-splice divided-power
term, the per-row content and the one-signature crystal strings; the
sharing of equal f_i terms; and the layout of the f_i^(k) memo."""

from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from kcb import fock, partitions
from kcb.canonical import CanonicalBasis
from kcb.crystal import (
    NotAVertexError,
    e_tilde,
    f_tilde,
    f_tilde_string,
    generate_crystal,
    string_top,
)
from kcb.fock import (
    FockContext,
    FockVector,
    addable_exponents,
    apply_f_divided,
    content,
    divided_power_term,
    i_node_slots,
)
from kcb.partitions import dominates, iter_multipartitions

from fock_reference import (
    content_reference,
    divided_power_term_reference,
    dominates_reference,
    e_tilde_until_none,
    f_tilde_iterated,
    i_node_slots_reference,
)

partitions_st = st.lists(st.integers(1, 6), max_size=5).map(
    lambda rows: tuple(sorted(rows, reverse=True))
)


@st.composite
def contexts(draw):
    """e in 2..4, level 1..4, equal charges contiguous in first-seen order."""
    e = draw(st.integers(2, 4))
    raw = draw(st.lists(st.integers(0, e - 1), min_size=1, max_size=4))
    return FockContext(e, tuple(sorted(raw, key=raw.index)))


@st.composite
def context_terms(draw):
    ctx = draw(contexts())
    mp = tuple(draw(partitions_st) for _ in range(ctx.level))
    return ctx, mp, draw(st.integers(0, ctx.e - 1))


@settings(max_examples=60)
@given(context_terms())
def test_i_node_slots_matches_reference(case):
    ctx, mp, i = case
    assert i_node_slots(ctx, mp, i) == i_node_slots_reference(ctx, mp, i)


# deadline=None: a draw can have 15 addable i-nodes, whose 2^15 subsets
# take longer than the default 200 ms deadline; every subset is still checked
@settings(max_examples=40, deadline=None)
@given(context_terms())
def test_divided_power_term_matches_reference(case):
    ctx, mp, i = case
    adds = addable_exponents(ctx, mp, i)
    for k in range(len(adds) + 1):
        for subset in combinations(adds, k):
            assert divided_power_term(mp, subset) == divided_power_term_reference(mp, subset)


@settings(max_examples=60)
@given(context_terms())
def test_content_matches_per_cell_count(case):
    ctx, mp, _ = case
    assert content(ctx, mp) == content_reference(ctx, mp)


# the crystal strings: one signature per string against one per step


@st.composite
def crystal_vertices(draw):
    """A context and a vertex of its crystal: the highest weight vertex
    taken along a drawn residue word by the reference f~ (a residue with
    no cogood node is skipped)."""
    ctx = draw(contexts())
    mp = ctx.highest_weight_vertex()
    for i in draw(st.lists(st.integers(0, ctx.e - 1), max_size=12)):
        mp = f_tilde_iterated(ctx, mp, i, 1) or mp
    return ctx, mp


@settings(max_examples=80)
@given(context_terms())
@example((FockContext(2, (0,)), ((2,),), 1))  # the cogood node starts a new row
@example((FockContext(3, (0, 0, 1)), ((), (), ()), 0))  # a string of two new rows
def test_f_tilde_string_matches_iterated_steps(case):
    ctx, mp, i = case
    assert f_tilde(ctx, mp, i) == f_tilde_iterated(ctx, mp, i, 1)
    k = 0
    while (want := f_tilde_iterated(ctx, mp, i, k)) is not None:
        assert f_tilde_string(ctx, mp, i, k) == want
        k += 1
    with pytest.raises(NotAVertexError):
        f_tilde_string(ctx, mp, i, k)


@settings(max_examples=80)
@given(crystal_vertices())
@example((FockContext(2, (0,)), ((1,),)))  # the good node empties the row
@example((FockContext(2, (0, 0)), ((1,), (1,))))  # two removals empty two rows
def test_string_top_matches_e_tilde_until_none(case):
    ctx, mp = case
    strings = [e_tilde_until_none(ctx, mp, i) for i in range(ctx.e)]
    for i, (k, top) in enumerate(strings):
        # e_tilde is the one-step case: stepping it down the string ends at the same top
        cur, steps = mp, 0
        while (nxt := e_tilde(ctx, cur, i)) is not None:
            cur, steps = nxt, steps + 1
        assert (steps, cur) == (k, top)
    first = next(((i, k, top) for i, (k, top) in enumerate(strings) if k), None)
    assert string_top(ctx, mp) == first
    assert (first is None) == (mp == ctx.highest_weight_vertex())


@lru_cache(maxsize=None)
def _of_size(n, level):
    return list(iter_multipartitions(n, level))


@st.composite
def equal_size_pairs(draw):
    """Two multipartitions of one size and level, then the same component
    put at the same place in both a few times, so that some pairs share
    components (which dominates skips) around unequal ones."""
    n, level = draw(st.integers(0, 7)), draw(st.integers(1, 3))
    mu = draw(st.sampled_from(_of_size(n, level)))
    lam = draw(st.sampled_from(_of_size(n, level)))
    for _ in range(draw(st.integers(0, 2))):
        pos, comp = draw(st.integers(0, len(mu))), draw(partitions_st)
        mu, lam = mu[:pos] + (comp,) + mu[pos:], lam[:pos] + (comp,) + lam[pos:]
    return mu, lam


@settings(max_examples=150)
@given(equal_size_pairs())
def test_dominates_matches_reference(pair):
    mu, lam = pair
    for x, y in (pair, pair[::-1]):
        want = dominates_reference(x, y)
        assert dominates(x, y) == want
        # every step of this pair is memoised now
        assert all((p, q) in partitions._STEPS for p, q in zip(x, y) if p != q)
        assert dominates(x, y) == want
    # a copy with fresh component tuples finds the same memo entries
    assert dominates(tuple(map(tuple, map(list, mu))), lam) == dominates_reference(mu, lam)


def _raises_value_error(mu, lam):
    with pytest.raises(ValueError):
        dominates(mu, lam)


@settings(max_examples=60)
@given(st.lists(partitions_st, min_size=1, max_size=3), st.lists(partitions_st, min_size=1, max_size=3))
def test_dominates_errors_with_every_step_memoised(mu, lam):
    mu, lam = tuple(mu), tuple(lam)
    level = min(len(mu), len(lam))
    same_level = (mu[:level], lam[:level])
    if partitions.total_size(same_level[0]) != partitions.total_size(same_level[1]):
        for _ in range(2):  # the first call memoises every step
            _raises_value_error(*same_level)
        assert all((p, q) in partitions._STEPS for p, q in zip(*same_level) if p != q)
    else:
        dominates(*same_level)
    if len(mu) != len(lam):
        _raises_value_error(mu, lam)


def test_dominates_refuses_an_unequal_list_component():
    # components are hashed: a list raises TypeError unless its partner
    # equals it, which is skipped before the memo; no list gets a wrong answer
    with pytest.raises(TypeError):
        dominates(([2], ()), ((1,), (1,)))
    with pytest.raises(TypeError):
        dominates(((2,), ()), ((1,), [1]))
    with pytest.raises(TypeError):
        dominates(([1],), ((1,),))  # a list never equals its tuple
    assert dominates(([2], (1,)), ([2], (1,)))
    assert dominates(([1], (2,)), ([1], (1, 1)))
    assert not dominates(([1], (1, 1)), ([1], (2,)))


@settings(max_examples=100)
@given(equal_size_pairs(), st.lists(st.booleans(), min_size=5, max_size=5))
def test_dominates_list_components_never_answer_wrong(pair, as_list):
    mu, lam = pair
    listed = tuple(list(c) if flag else c for c, flag in zip(mu, as_list))
    unequal = [p != q for p, q in zip(listed, lam)]
    if any(u and type(p) is list for u, p in zip(unequal, listed)):
        with pytest.raises(TypeError):
            dominates(listed, lam)
    else:
        assert dominates(listed, lam) == dominates_reference(mu, lam)


# sharing: one object per distinct f_i term and per new component

C01 = FockContext(2, (0, 1))


def test_expansion_misses_share_equal_terms(monkeypatch):
    # ((1,), (1,)) is f_1 of ((1,), ()) and f_0 of ((), (1,))
    monkeypatch.setattr(fock, "_EXPANSIONS", {})
    apply_f_divided(C01, FockVector.basis(((1,), ())), 1, 1)
    apply_f_divided(C01, FockVector.basis(((), (1,))), 0, 1)
    # one miss under each key
    (first,) = fock._EXPANSIONS[2, (0, 1), 1, 1].values()
    (second,) = fock._EXPANSIONS[2, (0, 1), 0, 1].values()
    (a,) = [mp for mp in first[1] if mp == ((1,), (1,))]
    (b,) = [mp for mp in second[1] if mp == ((1,), (1,))]
    assert a is b


def test_equal_new_components_are_one_object():
    node = ((1, 2, 1), 0)  # a second row under (1,)
    left, _ = divided_power_term(((1,), ()), [node])
    right, _ = divided_power_term(((1,), (2,)), [node])
    assert left[0] == (1, 1) and left[0] is right[0]
    # an untouched component is the input's own object
    mp = ((3,), (2, 1))
    out, _ = divided_power_term(mp, [((1, 1, 4), 0)])
    assert out == ((4,), (2, 1)) and out[1] is mp[1]


def test_every_computed_term_is_shared():
    ctx = FockContext(2, (0, 0, 1, 1))
    basis = CanonicalBasis(ctx)
    for mp in sorted(generate_crystal(ctx, 6).degrees):
        g = basis.element(mp)
        for lam in g.vector:
            assert lam == g.label or fock._TERMS.get(lam) is lam, (mp, lam)


# the expansion memo: per (e, charges, i, k), one (low, mps, shifts) entry
# of two flat tuples per multipartition


def _checked_entry(ctx, mp, i, k, shared):
    """The memo entry of f_i^(k) of mp under ctx once apply_f_divided has
    read it, checked against the reference terms of every k-subset: the
    same multipartitions in subset order, the least exponent as `low`, and
    each shift W * (exponent - low) as the int `shared` holds for its value
    (added when new), so equal shifts of all entries checked are one object."""
    apply_f_divided(ctx, FockVector.basis(mp), i, k)
    entry = fock._EXPANSIONS[ctx.e, ctx.charges, i, k][mp]
    terms = [
        divided_power_term_reference(mp, subset)
        for subset in combinations(addable_exponents(ctx, mp, i), k)
    ]
    low = min((expo for _, expo in terms), default=0)
    assert entry == (low, tuple(nmp for nmp, _ in terms), tuple(fock.W * (x - low) for _, x in terms))
    _, mps, shifts = entry
    # flat: the terms are the shared multipartitions and the shifts are ints
    assert all(fock._TERMS.get(nmp) is nmp for nmp in mps)
    assert all(type(s) is int and shared.setdefault(s, s) is s for s in shifts)
    return entry


@settings(max_examples=40, deadline=None)
@given(context_terms())
@example((FockContext(2, (0,)), ((6, 5, 4, 3, 2, 1),), 0))  # shifts up to W * 12
def test_expansion_entries_match_reference(case):
    ctx, mp, i = case
    shared = {}
    n = len(addable_exponents(ctx, mp, i))
    # k = n + 1 has no subset: the entry is (0, (), ())
    entries = [_checked_entry(ctx, mp, i, k, shared) for k in range(1, n + 2)]
    assert entries[-1] == (0, (), ())
    assert len(set(map(id, entries))) == len(entries)  # one entry per k


@st.composite
def context_pairs(draw):
    """Two contexts of one rank and level with different charges, a
    multipartition of that level and a residue."""
    e, level = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    charges = st.lists(st.integers(0, e - 1), min_size=level, max_size=level).map(
        lambda raw: tuple(sorted(raw, key=raw.index))
    )
    pair = draw(st.lists(charges, min_size=2, max_size=2, unique=True))
    mp = tuple(draw(partitions_st) for _ in range(level))
    return [FockContext(e, c) for c in pair], mp, draw(st.integers(0, e - 1))


@settings(max_examples=40, deadline=None)
@given(context_pairs())
@example(([FockContext(2, (0, 1)), FockContext(2, (1, 0))], ((1,), ()), 1))
def test_expansion_entries_keyed_by_charges_and_k(case):
    ctx_pair, mp, i = case
    shared = {}
    for ctx in ctx_pair:
        one, two = (_checked_entry(ctx, mp, i, k, shared) for k in (1, 2))
        assert one is not two
    first, second = (_checked_entry(ctx, mp, i, 1, shared) for ctx in ctx_pair)
    assert first is not second

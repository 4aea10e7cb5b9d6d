"""The per-term kernels against the plain ones in fock_reference: the
memoised dominance steps, the slot walk and addable count off the
component node tables, the subset terms of f_i^(k) by whole components
and the memo entries built from them, the per-row content and the
one-signature crystal strings; the sharing of equal f_i terms; and the
layout of the f_i^(k) memo."""

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
    addable_count,
    apply_f_divided,
    content,
    i_node_slots,
    subset_terms,
)
from kcb.partitions import dominates

from fock_reference import (
    addable_exponents_reference,
    content_reference,
    divided_power_term_reference,
    dominates_reference,
    e_tilde_until_none,
    expansion_reference,
    f_tilde_iterated,
    i_node_slots_reference,
    iter_multipartitions,
    weight_info_reference,
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
    # every k from 0 to n + 1: the terms and exponents of subset_terms are
    # the reference's subsets of the reference addable nodes, in order
    ctx, mp, i = case
    adds = addable_exponents_reference(ctx, mp, i)
    for k in range(len(adds) + 2):
        want = [divided_power_term_reference(mp, subset) for subset in combinations(adds, k)]
        mps, expos = subset_terms(ctx, mp, i, k)
        assert list(zip(mps, expos)) == want, k


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
@example((FockContext(2, (0, 1)), ((2,), (2, 1))))  # the lowest top is not at the smallest i
def test_string_top_matches_e_tilde_until_none(case):
    ctx, mp = case
    strings = [e_tilde_until_none(ctx, mp, i) for i in range(ctx.e)]
    for i, (k, top) in enumerate(strings):
        # e_tilde is the one-step case: stepping it down the string ends at the same top
        cur, steps = mp, 0
        while (nxt := e_tilde(ctx, cur, i)) is not None:
            cur, steps = nxt, steps + 1
        assert (steps, cur) == (k, top)
    # the lowest-defect top, built; the smallest i on a tie
    lowest = min(
        ((weight_info_reference(ctx, content_reference(ctx, top))[1], i, k, top)
         for i, (k, top) in enumerate(strings) if k),
        default=None,
    )
    assert string_top(ctx, mp) == (lowest and lowest[1:])
    assert (lowest is None) == (mp == ctx.highest_weight_vertex())


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
        assert all(q in partitions._STEPS.get(p, {}) for p, q in zip(x, y) if p != q)
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
        assert all(q in partitions._STEPS.get(p, {}) for p, q in zip(*same_level) if p != q)
    else:
        dominates(*same_level)
    if len(mu) != len(lam):
        _raises_value_error(mu, lam)


@st.composite
def dominance_lists(draw):
    """A multipartition and a list of others of its size and level, sorted
    or shuffled, their components either one object per value (as in a
    stored vector, whose terms share their leading components) or every
    one a freshly built tuple."""
    n, level = draw(st.integers(0, 7)), draw(st.integers(1, 4))
    pool = _of_size(n, level)
    mu = draw(st.sampled_from(pool))
    lams = draw(st.lists(st.sampled_from(pool), max_size=12))
    if draw(st.booleans()):
        shared: dict = {}
        lams = [tuple(shared.setdefault(c, c) for c in lam) for lam in lams]
    else:
        lams = [tuple(tuple(list(c)) for c in lam) for lam in lams]
    lams = sorted(lams) if draw(st.booleans()) else draw(st.permutations(lams))
    return mu, lams


@settings(max_examples=200)
@given(dominance_lists())
def test_dominates_every_term_matches_reference(case):
    mu, lams = case
    below = [lam for lam in lams if dominates_reference(mu, lam)]
    assert dominates(mu, *lams) == (len(below) == len(lams))
    # the terms mu dominates, in the same order, with mu among them as the
    # label is among the terms of its canonical element
    assert dominates(mu, *below[:1], mu, *below[1:])


def test_dominates_walks_every_term():
    mu, below, above = ((2,), (1,)), ((1, 1), (1,)), ((3,), ())
    assert dominates(mu) and dominates(mu, below, below)
    assert not dominates(mu, below, above, below)
    # every term is walked: a later one of another size or level raises
    with pytest.raises(ValueError, match="total size"):
        dominates(mu, above, ((1,), ()))
    with pytest.raises(ValueError, match="levels"):
        dominates(mu, below, ((3,),))


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


def test_shifted_contexts_share_expansions(monkeypatch):
    # each dual has its context's charges plus 1, so f_i on the context and
    # f_(i+1) on the dual give one vector: symmetric_context(2) and e = 3
    # with charges (0, 1, 2).  Each context keeps tables of its own, and
    # their entries share every term object through _SHARED
    for ctx, shifted in [
        (FockContext(2, (0, 0, 1, 1)), FockContext(2, (1, 1, 0, 0))),
        (FockContext(3, (0, 1, 2)), FockContext(3, (1, 2, 0))),
    ]:
        assert ctx.dual() == shifted
        monkeypatch.setattr(fock, "_EXPANSIONS", {})
        mp = ((2,), (1,), (), (1,))[: ctx.level]
        for i in range(ctx.e):
            j = (i + 1) % ctx.e
            got = apply_f_divided(ctx, FockVector.basis(mp), i, 1)
            assert apply_f_divided(shifted, FockVector.basis(mp), j, 1) == got
            entry = fock._EXPANSIONS[ctx.e, ctx.charges, i, 1][mp]
            other = fock._EXPANSIONS[shifted.e, shifted.charges, j, 1][mp]
            # two entries, except that an entry with no term is the constant (0,)
            assert other == entry and (other is not entry or entry == (0,))
            assert all(x is y for x, y in zip(other[0:-1:2], entry[0:-1:2]))
        assert len(fock._EXPANSIONS) == 2 * ctx.e  # one table per context and i


@pytest.mark.parametrize("ctx, shifted, degree", [
    (FockContext(2, (0, 0, 1, 1)), FockContext(2, (1, 1, 0, 0)), 7),
    (FockContext(3, (0, 1, 2)), FockContext(3, (1, 2, 0)), 7),
    (FockContext(4, (0, 1, 3)), FockContext(4, (1, 2, 0)), 7),
    (FockContext(3, (0, 0, 1)), FockContext(3, (1, 1, 2)), 6),
])
def test_charge_rotation_keeps_every_element(monkeypatch, ctx, shifted, degree):
    # charges c and c + 1 (mod e) are one Fock space with residue i named
    # i + 1: the same crystal vertices and the same G(lam) at each.  Each side
    # is reduced with a table of f_i^(k) of its own, so neither reads the
    # other's expansions.  The first two pairs are a context and its dual.
    assert shifted.charges == tuple((c + 1) % ctx.e for c in ctx.charges)
    assert fock.rotation_class(shifted) == fock.rotation_class(ctx)
    vertices = generate_crystal(ctx, degree).degrees
    assert generate_crystal(shifted, degree).degrees == vertices
    elements = {}
    for c in (ctx, shifted):
        monkeypatch.setattr(fock, "_EXPANSIONS", {})
        basis = CanonicalBasis(c)
        elements[c] = [basis.element(mp).vector for mp in sorted(vertices)]
    assert elements[shifted] == elements[ctx]


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
    (a,) = [mp for mp in first[0:-1:2] if mp == ((1,), (1,))]
    (b,) = [mp for mp in second[0:-1:2] if mp == ((1,), (1,))]
    assert a is b


def test_equal_new_components_are_one_object():
    # a second row under (1,): the 1-node (1, 2, 1) at e = 2 and the 2-node
    # at e = 3, filled by two node tables
    (left,) = [mp for mp in subset_terms(C01, ((1,), ()), 1, 1)[0] if mp[0] == (1, 1)]
    right_ctx = FockContext(3, (0, 0))
    (right,) = [mp for mp in subset_terms(right_ctx, ((1,), (2,)), 2, 1)[0] if mp[0] == (1, 1)]
    assert left[0] is right[0]
    # an untouched component is the input's own object
    mp = ((3,), (2, 1))
    (out,) = [nmp for nmp in subset_terms(C01, mp, 1, 1)[0] if nmp[0] == (4,)]
    assert out == ((4,), (2, 1)) and out[1] is mp[1]


def test_every_computed_term_is_shared():
    ctx = FockContext(2, (0, 0, 1, 1))
    basis = CanonicalBasis(ctx)
    for mp in sorted(generate_crystal(ctx, 6).degrees):
        g = basis.element(mp)
        for lam in g.vector:
            assert lam == g.label or fock._SHARED.get(lam) is lam, (mp, lam)


def test_every_entry_value_is_shared(monkeypatch):
    # separate misses along a path from the highest weight vertex, so every
    # component was built by a node table's fill; the third has shifts up
    # to W * 9, ints that CPython does not share, and the k = 1 step after
    # it puts in the single-node fills, made as they are first asked for
    monkeypatch.setattr(fock, "_EXPANSIONS", {})
    monkeypatch.setattr(fock, "_SHARED", {})
    monkeypatch.setattr(fock, "_NODES", {})
    ctx = FockContext(2, (0, 0))
    vec = FockVector.basis(ctx.highest_weight_vertex())
    for i, k in ((0, 2), (1, 4), (0, 3), (1, 1)):
        vec = apply_f_divided(ctx, vec, i, k)
    entries = [entry for memo in fock._EXPANSIONS.values() for entry in memo.values()]
    assert len(entries) == 3 + 20 and max(entries[2][1:-1:2]) == fock.W * 9
    values = [x for entry in entries for mp in entry[0:-1:2] for x in (mp, *mp)]
    values += [s for entry in entries for s in entry[1:-1:2]]
    assert all(fock._SHARED[x] is x for x in values)


# the expansion memo: per (e, charges, i, k), one flat entry
# (mp_1, s_1, ..., mp_n, s_n, low) per multipartition


def _checked_entry(ctx, mp, i, k):
    """The memo entry of f_i^(k) of mp under ctx once apply_f_divided has
    read it, checked against the subset rule of fock_reference: the same
    multipartitions, the least exponent as `low`, and the shifts W *
    (exponent - low); each multipartition and shift is the object _SHARED
    holds for its value, so equal ones of all entries are one object."""
    apply_f_divided(ctx, FockVector.basis(mp), i, k)
    entry = fock._EXPANSIONS[ctx.e, ctx.charges, i, k][mp]
    want = expansion_reference(ctx, mp, i, k)
    low = min(want.values(), default=0)
    assert type(entry) is tuple and len(entry) == 2 * len(want) + 1 and entry[-1] == low
    mps, shifts = entry[0:-1:2], entry[1:-1:2]
    assert dict(zip(mps, shifts)) == {nmp: fock.W * (x - low) for nmp, x in want.items()}
    # flat: the terms are the shared multipartitions and the shifts are ints
    assert all(fock._SHARED.get(nmp) is nmp for nmp in mps)
    assert all(type(s) is int and fock._SHARED.get(s) is s for s in shifts)
    return entry


@settings(max_examples=40, deadline=None)
@given(context_terms())
@example((FockContext(2, (0,)), ((6, 5, 4, 3, 2, 1),), 0))  # shifts up to W * 12
def test_expansion_entries_match_reference(case):
    ctx, mp, i = case
    n = addable_count(ctx, mp, i)
    # k = n + 1 has no subset: the entry is (0,)
    entries = [_checked_entry(ctx, mp, i, k) for k in range(1, n + 2)]
    assert entries[-1] == (0,)
    assert len(set(map(id, entries))) == len(entries)  # one entry per k


# deadline=None: the reference builds every k-subset one add_node at a time
@settings(max_examples=150, deadline=None)
@given(context_terms(), st.integers(1, 6))
@example((FockContext(3, (0, 0, 1)), ((2,), (2,), (1,)), 2), 3)  # equal components under one charge
@example((FockContext(2, (0, 1, 1)), ((3, 1), (), (2, 1)), 1), 2)  # nodes in three components
def test_expansion_matches_subset_rule(case, k):
    # multipartitions off the crystal too, repeated charges, e = 2..4 and
    # k <= 6: the component tables give the subset rule's terms and
    # exponents, and its addable nodes and their number
    ctx, mp, i = case
    assert fock.addable_count(ctx, mp, i) == len(addable_exponents_reference(ctx, mp, i))
    entry = fock._expansion(ctx, mp, i, k)
    want = expansion_reference(ctx, mp, i, k)
    low = entry[-1]
    assert low == min(want.values(), default=0)
    it = iter(entry)
    assert {nmp: low + s // fock.W for nmp, s in zip(it, it)} == want
    assert len(entry) == 2 * len(want) + 1  # no multipartition twice


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
    for ctx in ctx_pair:
        one, two = (_checked_entry(ctx, mp, i, k) for k in (1, 2))
        assert one is not two or one == two == (0,)  # the one constant of no term
        assert all(mp in fock._EXPANSIONS[ctx.e, ctx.charges, i, k] for k in (1, 2))
    first, second = (_checked_entry(ctx, mp, i, 1) for ctx in ctx_pair)
    assert first is not second or first == second == (0,)

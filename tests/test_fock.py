import json

import pytest
from hypothesis import given, strategies as st

from kcb import fock
from kcb.canonical import CanonicalBasis
from kcb.closedform import inv
from kcb.crystal import generate_crystal
from kcb.fock import (
    LIMIT,
    SPAN,
    CoefficientError,
    FockContext,
    FockVector,
    add_node,
    addable_exponents,
    apply_f_divided,
    content,
    i_node_slots,
    symmetric_context,
)
from kcb.laurent import LaurentPoly
from kcb.partitions import iter_multipartitions

from fock_reference import (
    apply_e,
    apply_f,
    apply_f_divided_iterative,
    as_dicts,
    dict_add_scaled,
    dict_apply_f_divided,
)

C01 = FockContext(2, (0, 1))
A3 = symmetric_context(3)


def mono(e):
    return LaurentPoly.monomial(e)


def vec(*pairs):
    return FockVector([(mp, mono(e)) for mp, e in pairs])


class TestContext:
    def test_grouping_enforced(self):
        with pytest.raises(ValueError):
            FockContext(2, (0, 1, 0))

    def test_dual(self):
        assert C01.dual().charges == (1, 0)
        assert FockContext(2, (0, 0, 1, 1)).dual().charges == (1, 1, 0, 0)
        assert FockContext(3, (0, 1, 1)).dual().charges == (2, 2, 0)

    def test_weight_multiplicities(self):
        assert A3.weight_multiplicities == (3, 3)

    def test_rank_bound(self):
        with pytest.raises(ValueError):
            FockContext(1, (0,))

    @pytest.mark.parametrize(
        "e, charges",
        [(2, (1.7, 0.2)), (2, (0, 1.0)), (2, (True, 0)), (2, ("0", "1")),
         (2.5, (0, 1)), (2.0, (0, 1)), (True, (0,)), ("2", (0,))],
    )
    def test_non_int_refused(self, e, charges):
        # neither truncated nor coerced: FockContext(2, (1.7, 0.2)) once became (1, 0)
        with pytest.raises(TypeError):
            FockContext(e, charges)

    def test_charges_become_a_tuple(self):
        assert FockContext(2, [0, 1]) == C01


class TestResidue:
    def test_examples(self):
        # a node (component, row, column) has residue charge + column - row mod e
        assert ((2, 1, 2), True) in i_node_slots(C01, ((), (1,)), 0)
        assert ((1, 1, 1), True) in i_node_slots(C01, ((), ()), 0)
        assert i_node_slots(FockContext(3, (0,)), ((1,),), 2) == [((1, 2, 1), True)]


class TestNodes:
    def test_addable_highest_weight(self):
        assert addable_exponents(C01, ((), ()), 0) == [((1, 1, 1), 0)]

    def test_addable_ordering(self):
        nodes = addable_exponents(C01, ((), (1,)), 0)
        assert nodes == [((1, 1, 1), 0), ((2, 1, 2), 1), ((2, 2, 1), 2)]

    def test_highest_weight_corners(self):
        ctx = FockContext(2, (0, 0, 0, 1, 1, 1))
        assert len(addable_exponents(ctx, ((),) * 6, 0)) == 3

    def test_removable(self):
        assert i_node_slots(C01, ((1,), ()), 0) == [((1, 1, 1), False)]
        assert i_node_slots(C01, ((2,), ()), 1) == [
            ((1, 1, 2), False), ((1, 2, 1), True), ((2, 1, 1), True)
        ]
        assert all(isadd for _, isadd in i_node_slots(C01, ((), ()), 0))


class TestApplyF:
    def test_displayed_sum_a3(self):
        u = FockVector.basis(((),) * 6)
        got = apply_f_divided(A3, u, 0, 1)
        want = vec(
            (((1,), (), (), (), (), ()), 0),
            (((), (1,), (), (), (), ()), 1),
            (((), (), (1,), (), (), ()), 2),
        )
        assert got == want

    def test_linearity_zero(self):
        assert apply_f_divided(C01, FockVector.zero(), 0, 1).is_zero()

    def test_derived_example(self):
        got = apply_f_divided(C01, FockVector.basis(((), (1,))), 0, 1)
        want = vec(
            (((1,), (1,)), 0),
            (((), (2,)), 1),
            (((), (1, 1)), 2),
        )
        assert got == want


class TestApplyE:
    def test_single_node(self):
        got = apply_e(C01, FockVector.basis(((1,), ())), 0)
        assert got == vec(((((), ())), 0))

    def test_highest_weight(self):
        u = FockVector.basis(((), ()))
        assert apply_e(C01, u, 0).is_zero()
        assert apply_e(C01, u, 1).is_zero()

    def test_two_removables(self):
        # removables of [(2),(1)] at residue 1: c1(1,2) and c2(1,1);
        # M = (addables below) - (removables below) gives 0 for both
        got = apply_e(C01, FockVector.basis(((2,), (1,))), 1)
        want = vec(
            (((1,), (1,)), 0),
            (((2,), ()), 0),
        )
        assert got == want


class TestDividedPowers:
    def test_k0_identity(self):
        v = vec((((1,), ()), 2))
        assert apply_f_divided(C01, v, 0, 0) == v

    def test_choose_two_of_three(self):
        u = FockVector.basis(((),) * 6)
        got = apply_f_divided(A3, u, 0, 2)
        want = vec(
            (((1,), (1,), (), (), (), ()), 0),
            (((1,), (), (1,), (), (), ()), 1),
            (((), (1,), (1,), (), (), ()), 2),
        )
        assert got == want

    def test_direct_equals_iterative(self):
        # dual-route check, including shapes with removable nodes present.
        # The same (mp, i, k) recurs under other charges (each pair in both
        # orders, twice) and under other coefficients, several terms to a
        # vector: a reused expansion must be keyed by the context and
        # shifted per term and per subset.
        cases = [
            (C01, ((), ())),
            (C01, ((1,), (1,))),
            (C01, ((2,), (1,))),
            (FockContext(2, (0, 0, 1, 1)), ((1,), (), (1,), ())),
            (FockContext(3, (0, 1)), ((2, 1), (1,))),
        ]
        for pair in ((C01, FockContext(2, (1, 0))), (FockContext(3, (0, 1)), FockContext(3, (1, 2)))):
            for ctx in (*pair, *pair, *pair[::-1], *pair[::-1]):
                cases += [(ctx, ((2, 1), (1,))), (ctx, ((1,), (2,)))]
        a, b = LaurentPoly({-2: 1, 1: 3}), LaurentPoly({5: -1})
        for ctx, mp in cases:
            other = ((1,),) + ((),) * (ctx.level - 1)
            if other == mp:
                other = ((),) * ctx.level
            for v in (
                FockVector.basis(mp),
                FockVector([(mp, a), (other, b)]),
                FockVector([(mp, b), (other, a)]),
            ):
                for i in range(ctx.e):
                    for k in range(4):
                        assert apply_f_divided(ctx, v, i, k) == apply_f_divided_iterative(
                            ctx, v, i, k
                        ), (ctx, v, i, k)

    def test_exactness_sweep(self):
        # k-fold f_i is divisible by [k]! on a spread of small vectors
        for ctx in (
            C01,
            FockContext(2, (0, 0, 1)),
            FockContext(3, (0, 1)),
            FockContext(2, (0, 0, 1, 1)),
        ):
            for n in range(4):
                for mp in iter_multipartitions(n, ctx.level):
                    v = FockVector.basis(mp)
                    for i in range(ctx.e):
                        for k in (2, 3):
                            apply_f_divided_iterative(ctx, v, i, k)  # must not raise


class TestInvLaw:
    def test_coefficient_is_v_inv(self):
        # for mu with no removable i-nodes, coefficient of each lambda in
        # f_i^(l) mu is v^Inv(S) for the choice sequence S selecting it
        from itertools import combinations

        for ctx in (C01, FockContext(2, (0, 0, 1))):
            for n in range(4):
                for mp in iter_multipartitions(n, ctx.level):
                    for i in range(ctx.e):
                        slots = i_node_slots(ctx, mp, i)
                        if not all(isadd for _, isadd in slots):
                            continue
                        adds = [node for node, _ in slots]
                        for k in range(1, min(3, len(adds)) + 1):
                            got = apply_f_divided(ctx, FockVector.basis(mp), i, k)
                            for pos in combinations(range(len(adds)), k):
                                lam = mp
                                for p in pos:
                                    lam = add_node(lam, adds[p])
                                bits = [0] * len(adds)
                                for p in pos:
                                    bits[p] = 1
                                assert got.coefficient(lam) == mono(inv(bits))


class TestContent:
    def test_highest_weight(self):
        assert content(C01, ((), ())) == (0, 0)

    def test_row(self):
        assert content(C01, ((3,), ())) == (2, 1)

    def test_two_corners(self):
        assert content(C01, ((1,), (1,))) == (1, 1)


def test_weight_bookkeeping():
    # every term of f_i gains exactly one i-node; e_i loses one
    ctx = FockContext(2, (0, 0, 1))
    for n in range(4):
        for mp in iter_multipartitions(n, 3):
            c0 = content(ctx, mp)
            for i in range(2):
                for lam, _ in apply_f(ctx, FockVector.basis(mp), i).terms():
                    c1 = content(ctx, lam)
                    assert c1[i] == c0[i] + 1 and sum(c1) == sum(c0) + 1
                for lam, _ in apply_e(ctx, FockVector.basis(mp), i).terms():
                    c1 = content(ctx, lam)
                    assert c1[i] == c0[i] - 1 and sum(c1) == sum(c0) - 1


def test_fock_vector_json_roundtrip():
    v = vec((((2,), (1,)), 3), (((1, 1), ()), -2))
    assert FockVector.from_json(v.to_json()) == v


def test_from_json_shares_equal_partitions():
    v = vec((((2,), (1,)), 1), (((1,), (2,)), 2), (((2, 1), (1,)), 1))
    doc = json.loads(json.dumps(v.to_json()))
    mps = list(FockVector.from_json(doc))
    ones = [c for mp in mps for c in mp if c == (1,)]
    twos = [c for mp in mps for c in mp if c == (2,)]
    assert len(ones) == 3 and len(twos) == 2
    assert all(c is ones[0] for c in ones) and twos[0] is twos[1]


@pytest.mark.parametrize("term", [
    {"multipartition": [[1], []], "coefficient": {"0": 1.0}},
    {"multipartition": [[1], []], "coefficient": {"0": True}},
    {"multipartition": [[1], []], "coefficient": {"0": "1"}},
    {"multipartition": [[1], []], "coefficient": {"+1": 1}},
    {"multipartition": [[1], []], "coefficient": {"01": 1}},
    {"multipartition": [[1], []], "coefficient": {"1_0": 1}},
    {"multipartition": [[1], []], "coefficient": {"-0": 1}},
    {"multipartition": [[1], []], "coefficient": [1]},
    {"multipartition": [[True], []], "coefficient": {"0": 1}},
    {"multipartition": [[1.0], []], "coefficient": {"0": 1}},
    {"multipartition": [[1, 2], []], "coefficient": {"0": 1}},
    {"multipartition": [1, []], "coefficient": {"0": 1}},
])
def test_from_json_refuses(term):
    # after an int twin of each partition and coefficient, so that a memo
    # keyed on equal-hashing values alone would let the term through
    first = {"multipartition": [[1], [1]], "coefficient": {"0": 1}}
    with pytest.raises((TypeError, ValueError)):
        FockVector.from_json([first, term])


def test_expansion_misses_share_one_context(monkeypatch):
    built = []
    post_init = FockContext.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(fock, "_EXPANSIONS", {})
    monkeypatch.setattr(FockContext, "__post_init__", counting)
    ctx = symmetric_context(2)
    v = FockVector.basis(ctx.highest_weight_vertex())
    for i in (0, 1, 0, 1, 0):
        v = apply_f_divided(ctx, v, i, 1)
    assert sum(map(len, fock._EXPANSIONS.values())) > 2  # the misses
    assert built == [ctx]  # a miss runs under the caller's context


MPS = (((2,), (1,)), ((1, 1), ()), ((), (3,)))
coefficients = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=4).map(LaurentPoly)


@given(st.lists(coefficients, min_size=len(MPS), max_size=len(MPS)))
def test_dict_level_reads(cs):
    # the reads that skip the LaurentPoly views agree with the views
    v = FockVector(zip(MPS, cs))
    assert FockVector.from_json(json.loads(json.dumps(v.to_json()))) == v
    outside = {mp for mp, c in v.terms() if c.min_exponent() <= 0}
    assert set(v.outside_vzv()) == outside
    first = [MPS[0]] if MPS[0] in outside else []
    assert v.outside_vzv(among=FockVector.basis(MPS[0])) == first
    for mp, c in zip(MPS, cs):
        low = LaurentPoly({e: n for e, n in c.items() if e <= 0})
        assert v.symmetric_low(mp) == low + LaurentPoly({-e: n for e, n in c.items() if e < 0})


# the packed int storage of FockVector against plain dicts

near_limit = st.one_of(
    st.integers(1 - LIMIT, LIMIT - 1),
    st.sampled_from([LIMIT - 1, 1 - LIMIT, LIMIT // 2 + 1, -(LIMIT // 2) - 1, 1, -1]),
)
wide = st.dictionaries(st.integers(-40, 40), near_limit.filter(bool), max_size=6)
small = st.dictionaries(st.integers(-5, 5), st.integers(-3, 3).filter(bool), max_size=4)


def packed(cs, mps=MPS) -> FockVector:
    return FockVector([(mp, LaurentPoly(c)) for mp, c in zip(mps, cs)])


@given(st.lists(wide, min_size=len(MPS), max_size=len(MPS)))
def test_packed_roundtrip(cs):
    v = packed(cs)
    want = {mp: c for mp, c in zip(MPS, cs) if c}
    assert as_dicts(v) == want
    for other in (v.rebased(-60), FockVector.from_json(json.loads(json.dumps(v.to_json())))):
        assert other == v and as_dicts(other) == want
    for mp, c in want.items():
        assert v.coefficient(mp) == LaurentPoly(c)
        low = {e: n for e, n in c.items() if e <= 0}
        assert v.symmetric_low(mp) == LaurentPoly({**low, **{-e: n for e, n in low.items()}})


@given(
    st.lists(small, min_size=len(MPS), max_size=len(MPS)),
    st.lists(small, min_size=len(MPS), max_size=len(MPS)),
    small,
)
def test_packed_arithmetic_matches_dicts(ca, cb, m):
    a, b = packed(ca), packed(cb, MPS[::-1])
    da, db = as_dicts(a), as_dicts(b)
    # each vector over its own least exponent and over two lower bases
    ras = (a, a.rebased(-5), a.rebased(-9))
    rbs = (b, b.rebased(-6), b.rebased(-5))
    want = dict_add_scaled(da, db, m)
    for x in ras:
        for y in rbs:
            assert as_dicts(x.add_scaled(y, LaurentPoly(m))) == want
            assert (x == y) == (da == db)
        assert x == a and x != a + FockVector.basis(MPS[0])
    for i in range(C01.e):
        for k in range(3):
            want = dict_apply_f_divided(C01, da, i, k)
            for x in ras:
                assert as_dicts(apply_f_divided(C01, x, i, k)) == want


def test_rebased_only_lowers():
    v = packed([{-2: 1, 3: -2}, {0: 3}, {}])
    assert v.rebased(-2) is v and v.rebased(-7) == v
    with pytest.raises(ValueError, match="lowers"):
        v.rebased(-1)


@given(st.lists(st.dictionaries(st.integers(0, 5), st.integers(1, 3), max_size=4),
                min_size=len(MPS), max_size=len(MPS)), st.integers(0, 4))
def test_interned_moves_to_base_zero_through_the_table(cs, drop):
    v = packed(cs).rebased(-drop)
    table = {}
    w = v.interned(table)
    assert w._lo == 0 and w._bound == v._bound and as_dicts(w) == as_dicts(v)
    assert all(table[x] is x for x in w._terms.values())
    again = v.interned(table)._terms
    assert all(again[mp] is x for mp, x in w._terms.items())


def test_bound_reaching_limit_raises():
    half = LaurentPoly({0: LIMIT // 2})
    v = FockVector([(MPS[0], half)])
    with pytest.raises(CoefficientError):
        v + v  # the bound adds up to 2^(W-2) even though no digit does yet
    with pytest.raises(CoefficientError):
        v - v  # a bound, not the value: the difference is zero
    with pytest.raises(CoefficientError):
        FockVector([(MPS[0], LaurentPoly({-3: LIMIT}))])
    with pytest.raises(CoefficientError):
        FockVector([(MPS[0], half), (MPS[1], half), (MPS[0], half)])  # one term sums two
    with pytest.raises(CoefficientError):
        FockVector.from_json([{"multipartition": [[1], []], "coefficient": {"2": -LIMIT}}])
    assert packed([{0: 1}, {SPAN - 1: -1}]).coefficient(MPS[1]) == LaurentPoly({SPAN - 1: -1})
    with pytest.raises(CoefficientError):
        # a packed int has a digit per exponent in between: refused, not allocated
        FockVector.from_json([
            {"multipartition": [[1], []], "coefficient": {"0": 1}},
            {"multipartition": [[], [1]], "coefficient": {str(10**12): 1}},
        ])
    with pytest.raises(CoefficientError):
        # the shape sums the terms: the bound times the number of terms
        FockVector([(MPS[0], half), (MPS[1], half)]).shape(0)
    with pytest.raises(CoefficientError):
        # f_i^(k): the input bound times the number of input terms
        apply_f_divided(C01, FockVector([(MPS[0], half), (MPS[1], half)]), 0, 1)


def test_element_bound_is_at_most_max_shape(tmp_path):
    # without the reset to max(shape) the bounds compound through the recursion
    ctx = FockContext(2, (0, 0, 1, 1))
    labels = sorted(generate_crystal(ctx, 7).degrees)
    for basis in (CanonicalBasis(ctx, str(tmp_path)), CanonicalBasis(ctx, str(tmp_path))):
        for mp in labels:
            g = basis.element(mp)
            assert g.vector._bound <= max(g.shape), (mp, g.vector._bound, g.shape)


def test_shape_reads_signs_off_the_digits():
    # v^2 - v packs to 2^(2W) - 2^W > 0: only its digits show the -1
    label, other = MPS[0], MPS[1]
    v = FockVector([(label, LaurentPoly.one()), (other, LaurentPoly({1: -1, 2: 1}))])
    assert v.shape(2) == (1, -1, 1)
    with pytest.raises(CoefficientError, match="negative"):
        v.shape(2, label)
    w = FockVector([(label, LaurentPoly.one()), (other, LaurentPoly({1: 2, 2: 1}))])
    assert w.shape(2, label) == (1, 2, 1) and w._bound == 2
    with pytest.raises(CoefficientError, match="outside"):
        w.shape(1, label)

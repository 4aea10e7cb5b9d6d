import json

import pytest
from hypothesis import given, strategies as st

from kcb.fock import FockVector
from kcb.laurent import (
    LaurentPoly,
    NotDivisibleError,
    exact_div,
    qint,
)

from fock_reference import bar, qfact


def P(d):
    return LaurentPoly(d)


class TestQint:
    def test_one(self):
        assert qint(1) == P({0: 1})

    def test_three(self):
        assert qint(3) == P({2: 1, 0: 1, -2: 1})

    def test_zero(self):
        assert qint(0) == P({})
        assert qint(0).is_zero()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            qint(-1)


class TestQfact:
    def test_zero_is_one(self):
        assert qfact(0) == LaurentPoly.one()

    def test_two(self):
        assert qfact(2) == qint(2) == P({1: 1, -1: 1})

    def test_three_expansion(self):
        # direct expansion of (v + v^-1)(v^2 + 1 + v^-2)
        assert qfact(3) == P({3: 1, 1: 2, -1: 2, -3: 1})


class TestBar:
    def test_definition(self):
        assert bar(P({2: 1, -1: 3})) == P({-2: 1, 1: 3})

    def test_qint_fixed(self):
        assert bar(qint(3)) == qint(3)

    def test_zero(self):
        assert bar(LaurentPoly.zero()).is_zero()

    def test_balanced_fixed_up_to_12(self):
        for n in range(13):
            assert bar(qint(n)) == qint(n)
            assert bar(qfact(n)) == qfact(n)


class TestExactDiv:
    def test_basic(self):
        assert exact_div(P({0: 1, 2: 1}), P({1: 1, -1: 1})) == P({1: 1})

    def test_identity_divisor(self):
        p = P({3: 2, -1: 5})
        assert exact_div(p, LaurentPoly.one()) == p

    def test_not_divisible(self):
        with pytest.raises(NotDivisibleError):
            exact_div(P({1: 1, -1: 1, 0: 1}), P({1: 1, -1: 1}))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(P({0: 1}), LaurentPoly.zero())


class TestOnlyLaurentPoly:
    # a coefficient meets only coefficients: no int reading, no hash
    def test_not_equal_to_int(self):
        assert LaurentPoly.one() != 1
        assert LaurentPoly.zero() != 0

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(LaurentPoly.one())

    def test_no_int_product(self):
        with pytest.raises(TypeError):
            qint(2) * 3
        with pytest.raises(TypeError):
            3 * qint(2)

    @pytest.mark.parametrize("terms", [{1.5: 2}, {True: 1}, {"1": 1}, {0: 1.5}, {0: True}])
    def test_non_int_refused(self, terms):
        with pytest.raises(TypeError):
            LaurentPoly(terms)


small_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPoly)


@given(small_polys)
def test_bar_involution(p):
    assert bar(bar(p)) == p


@given(small_polys, small_polys)
def test_exact_div_roundtrip(p, q):
    if q.is_zero():
        return
    assert exact_div(p * q, q) == p


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(small_polys)
def test_json_roundtrip(p):
    # a coefficient is serialised as part of a vector
    v = FockVector([(((1,), ()), p)])
    assert FockVector.from_json(json.loads(json.dumps(v.to_json()))).coefficient(((1,), ())) == p


@given(small_polys, st.integers(min_value=-6, max_value=6))
def test_shift_is_monomial_product(p, k):
    assert p.shift(k) == p * LaurentPoly.monomial(k)


@given(small_polys)
def test_in_v_zv(p):
    # vZ[v] membership of a coefficient is read at the vector level
    v = FockVector([(((1,), ()), p)])
    assert (not v.outside_vzv()) == all(e > 0 for e, _ in p.items())

import pytest

from kcb.partitions import (
    IllFormedPartitionError,
    conjugate,
    dominates,
    is_e_regular,
    mp_from_json,
    mp_to_json,
    transpose,
    transpose_each,
    triangular,
    u_family,
    vee,
)

from fock_reference import iter_multipartitions, iter_partitions


class TestTriangular:
    def test_three(self):
        assert triangular(3) == (3, 2, 1)

    def test_zero_and_negative(self):
        assert triangular(0) == ()
        assert triangular(-1) == ()


class TestVee:
    def test_concat(self):
        assert vee((3,), (2, 1)) == (3, 2, 1)

    def test_family_shape(self):
        # (n+1) v T_{n-2} at n=3
        assert vee((4,), triangular(1)) == (4, 1)

    def test_ill_formed(self):
        with pytest.raises(IllFormedPartitionError):
            vee((1,), (2,))


class TestUFamily:
    def test_base_cases(self):
        assert u_family(1, 1) == (2,)
        assert u_family(2, 1) == (1, 1)

    def test_n3(self):
        assert u_family(1, 3) == (4, 1)

    def test_transpose_pairing(self):
        for n in range(1, 11):
            assert u_family(2, n) == transpose(u_family(1, n))

    def test_range(self):
        with pytest.raises(ValueError):
            u_family(1, 0)


class TestConjugate:
    def test_basic(self):
        assert conjugate(((3,), ())) == ((), (1, 1, 1))

    def test_triangles_fixed(self):
        t2 = triangular(2)
        assert conjugate((t2, t2)) == (t2, t2)

    def test_mixed(self):
        assert conjugate(((2,), (1,))) == ((1,), (1, 1))

    def test_involution_small(self):
        for n in range(9):
            for level in (1, 2, 3):
                for mp in iter_multipartitions(n, level):
                    assert conjugate(conjugate(mp)) == mp


class TestTransposeEach:
    def test_basic(self):
        assert transpose_each(((3,), ())) == ((1, 1, 1), ())

    def test_triangles(self):
        assert transpose_each((triangular(3), (1,))) == (triangular(3), (1,))

    def test_componentwise(self):
        assert transpose_each(((2,), (1, 1))) == ((1, 1), (2,))


def padded_profile(mp, depth):
    """Cumulative box counts component by component, row by row, each
    component padded with zero rows to `depth` (an independent oracle)."""
    out, run = [], 0
    for comp in mp:
        for j in range(depth):
            run += comp[j] if j < len(comp) else 0
            out.append(run)
    return out


class TestDominates:
    def test_example(self):
        assert dominates(((3,), ()), ((1,), (2,)))

    def test_reflexive(self):
        mu = ((2, 1), (1,))
        assert dominates(mu, mu)

    def test_padding_example(self):
        assert dominates(((1,), (1,)), ((), (1, 1)))

    def test_equal_component_after_a_negative_difference(self):
        # the equal middle component is skipped; the deficit before it still counts
        low, high = ((1,), (2,), (1,)), ((2,), (2,), ())
        assert not dominates(low, high)
        assert dominates(high, low)

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominates(((1,), ()), ((1,),))
        with pytest.raises(ValueError):
            dominates(((2,), ()), ((1,), ()))
        with pytest.raises(ValueError):  # the running difference goes negative first
            dominates(((1,), ()), ((2,), ()))

    def test_partial_order_exhaustive(self):
        # reflexive, antisymmetric, transitive on everything of size <= 6, level <= 3;
        # equal to the padded-profile definition, and refined by the tuple order
        for level in (1, 2, 3):
            for n in range(7):
                mps = list(iter_multipartitions(n, level))
                profile = {x: padded_profile(x, max(1, n)) for x in mps}
                rel = {
                    (x, y)
                    for x in mps
                    for y in mps
                    if dominates(x, y)
                }
                for x in mps:
                    for y in mps:
                        by_profile = all(a >= b for a, b in zip(profile[x], profile[y]))
                        assert ((x, y) in rel) == by_profile
                for x, y in rel:
                    assert x >= y
                for x in mps:
                    assert (x, x) in rel
                for x, y in rel:
                    if (y, x) in rel:
                        assert x == y
                out = {}
                for x, y in rel:
                    out.setdefault(x, []).append(y)
                for x, y in rel:
                    for z in out.get(y, ()):
                        assert (x, z) in rel


class TestERegular:
    def test_repeated_rows(self):
        assert not is_e_regular(((2, 2), ()), 2)

    def test_distinct_rows(self):
        assert is_e_regular(((3, 2, 1), (1,)), 2)

    def test_empty(self):
        assert is_e_regular(((), ()), 2)

    def test_e3(self):
        assert is_e_regular(((2, 2), ()), 3)
        assert not is_e_regular(((2, 2, 2), ()), 3)


def test_iter_partitions_counts():
    # partition numbers 1, 1, 2, 3, 5, 7, 11
    assert [len(list(iter_partitions(n))) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]


def test_mp_json_roundtrip():
    mp = ((4, 2, 1), (), (3, 3))
    assert mp_from_json(mp_to_json(mp)) == mp
    assert mp_to_json(mp) == [[4, 2, 1], [], [3, 3]]

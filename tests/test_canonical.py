import os

import pytest

from kcb.canonical import (
    CanonicalBasis,
    ReductionError,
    compute_shape,
    diamond,
    dominance_sort_key,
    element_from_json,
    element_to_json,
    get_basis,
    is_svelte,
)
from kcb.crystal import NotAVertexError
from kcb.fock import FockContext, FockVector, content, symmetric_context
from kcb.laurent import LaurentPoly
from kcb.partitions import conjugate, dominates

C01 = FockContext(2, (0, 1))


def mono(e):
    return LaurentPoly.monomial(e)


def vec(*pairs):
    return FockVector([(mp, mono(e)) for mp, e in pairs])


GOLDEN = vec(
    (((3,), ()), 0),
    (((1, 1, 1), ()), 1),
    (((1,), (2,)), 1),
    (((1,), (1, 1)), 2),
)


class TestGoldenExample:
    def test_element(self):
        elem = get_basis(C01).element(((3,), ()))
        assert elem.vector == GOLDEN

    def test_shape(self):
        elem = get_basis(C01).element(((3,), ()))
        assert elem.shape == (1, 2, 1)
        assert compute_shape(elem.vector, elem.weight.defect) == (1, 2, 1)
        assert not is_svelte(elem)


class TestMonomial:
    def test_highest_weight(self):
        assert CanonicalBasis(C01).monomial(((), ())) == FockVector.basis(((), ()))

    def test_golden_monomial_already_reduced(self):
        assert CanonicalBasis(C01).monomial(((3,), ())) == GOLDEN

    def test_hand_checked(self):
        got = CanonicalBasis(C01).monomial(((2, 1), ()))
        assert got == vec(
            (((2, 1), ()), 0),
            (((2,), (1,)), 1),
            (((1, 1), (1,)), 2),
        )


class TestAtWeight:
    def test_content_11(self):
        w = get_basis(C01).at_weight((1, 1))
        assert set(w) == {((2,), ()), ((1,), (1,))}
        assert w[((2,), ())].vector == vec(
            (((2,), ()), 0), (((1, 1), ()), 1), (((1,), (1,)), 2)
        )
        assert w[((1,), (1,))].vector == vec(
            (((1,), (1,)), 0), (((), (2,)), 1), (((), (1, 1)), 2)
        )

    def test_content_21(self):
        w = get_basis(C01).at_weight((2, 1))
        assert w[((3,), ())].vector == GOLDEN

    def test_content_12(self):
        # [(2,1),()] carries one 0-node and two 1-nodes
        w = get_basis(C01).at_weight((1, 2))
        assert w[((2, 1), ())].vector == vec(
            (((2, 1), ()), 0), (((2,), (1,)), 1), (((1, 1), (1,)), 2)
        )

    def test_trivial_weight(self):
        w = get_basis(C01).at_weight((0, 0))
        assert w == {((), ()): w[((), ())]}
        assert w[((), ())].vector == FockVector.basis(((), ()))

    def test_not_a_vertex(self):
        with pytest.raises(NotAVertexError):
            get_basis(C01).element(((2, 2), ()))


class TestInvariants:
    def test_sweep_small(self):
        # leading 1, positivity, dominance, unique v^defect term = (diamond)'
        for ctx in (C01, symmetric_context(2)):
            basis = get_basis(ctx)
            g = basis.crystal(7)
            for mp in sorted(m for m, d in g.degrees.items() if d <= 7):
                elem = basis.element(mp)
                assert elem.vector.coefficient(mp) == LaurentPoly.one()
                for lam, c in elem.vector.terms():
                    if lam != mp:
                        assert c.in_v_zv()
                        assert dominates(mp, lam)
                top = mono(elem.weight.defect)
                tops = [lam for lam, c in elem.vector.terms() if c == top]
                _, md = diamond(ctx, mp)
                assert tops == [conjugate(md)]

    def test_defect_characterizations(self):
        for ctx in (C01, symmetric_context(2)):
            basis = get_basis(ctx)
            g = basis.crystal(7)
            for mp in sorted(m for m, d in g.degrees.items() if d <= 7):
                elem = basis.element(mp)
                _, md = diamond(ctx, mp)
                if elem.weight.defect == 0:
                    assert elem.vector == FockVector.basis(mp)
                    assert mp == conjugate(md)
                if elem.weight.defect == 1:
                    assert elem.vector == vec((mp, 0), (conjugate(md), 1))


class TestOrderIndependence:
    def test_reversed_tie_order(self):
        plain = CanonicalBasis(symmetric_context(2))
        flipped = CanonicalBasis(symmetric_context(2), tie_reverse=True)
        g = plain.crystal(6)
        for mp in sorted(g.degrees):
            assert plain.element(mp).vector == flipped.element(mp).vector


class TestDiamond:
    def test_example(self):
        dctx, md = diamond(C01, ((3,), ()))
        assert dctx.charges == (1, 0)
        assert md == ((2,), (1,))

    def test_highest(self):
        dctx, md = diamond(C01, ((), ()))
        assert md == ((), ())

    def test_defect0_conjugate_fixed(self):
        basis = get_basis(symmetric_context(2))
        g = basis.crystal(6)
        for mp in sorted(m for m, d in g.degrees.items() if d <= 6):
            if basis.element(mp).weight.defect == 0:
                _, md = diamond(symmetric_context(2), mp)
                assert conjugate(md) == mp


class TestDecompositionEntry:
    def test_examples(self):
        elem = get_basis(C01).element(((3,), ()))
        assert elem.vector.coefficient(((1,), (1, 1))) == mono(2)
        assert elem.vector.coefficient(((3,), ())) == LaurentPoly.one()
        assert elem.vector.coefficient(((2, 1), ())).is_zero()


class TestSvelte:
    def test_svelte_examples(self):
        b1 = get_basis(symmetric_context(1))
        assert is_svelte(b1.element(((2,), ())))
        assert not is_svelte(b1.element(((3,), ())))

    def test_defect0_always_svelte(self):
        basis = get_basis(symmetric_context(2))
        g = basis.crystal(6)
        for mp in sorted(m for m, d in g.degrees.items() if d <= 6):
            elem = basis.element(mp)
            if elem.weight.defect == 0:
                assert elem.shape == (1,)
                assert is_svelte(elem)


class TestSerialization:
    def test_roundtrip(self):
        elem = get_basis(C01).element(((3,), ()))
        back = element_from_json(element_to_json(elem))
        assert back.label == elem.label
        assert back.vector == elem.vector
        assert back.shape == elem.shape
        assert back.weight == elem.weight

    def test_terms_sorted_by_decreasing_dominance(self):
        elem = get_basis(C01).element(((3,), ()))
        doc = element_to_json(elem)
        mps = [tuple(tuple(c) for c in t["multipartition"]) for t in doc["terms"]]
        keys = [dominance_sort_key(mp) for mp in mps]
        assert keys == sorted(keys, reverse=True)
        assert mps[0] == ((3,), ())

    def test_disk_cache(self, tmp_path):
        basis = CanonicalBasis(C01, cache_dir=str(tmp_path))
        elem = basis.element(((3,), ()))
        fresh = CanonicalBasis(C01, cache_dir=str(tmp_path))
        again = fresh.element(((3,), ()))
        assert again.vector == elem.vector
        assert list(tmp_path.glob("*.json"))

    def test_disk_cache_private_temporary_files(self, tmp_path):
        # a leftover (or another writer's) <digest>.json.tmp must not block a store
        basis = CanonicalBasis(C01, cache_dir=str(tmp_path))
        os.mkdir(basis._cache_path(((3,), ())) + ".tmp")
        elem = basis.element(((3,), ()))
        again = CanonicalBasis(C01, cache_dir=str(tmp_path)).element(((3,), ()))
        assert again.vector == elem.vector
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".json", ".tmp"]


def test_canonical_element_shared_registry():
    a = get_basis(C01).element(((3,), ()))
    b = get_basis(C01).element(((3,), ()))
    assert a is b


class TestHigherRank:
    def test_level_one_rank_two(self):
        b = get_basis(FockContext(2, (0,)))
        assert b.element(((2,),)).vector == vec((((2,),), 0), (((1, 1),), 1))
        assert b.element(((1,),)).vector == vec((((1,),), 0))

    def test_crystal_inverse_e3(self):
        from kcb.crystal import e_tilde, f_tilde, generate_crystal

        ctx = FockContext(3, (0, 2, 2))
        g = generate_crystal(ctx, 5)
        for mp in g.degrees:
            for i in range(3):
                up = f_tilde(ctx, mp, i)
                if up is not None:
                    assert e_tilde(ctx, up, i) == mp

    def test_duality_e3(self):
        from kcb.verify import verify_duality

        assert verify_duality(FockContext(3, (0, 1)), 5).passed
        assert verify_duality(FockContext(3, (1,)), 6).passed

import gc
import hashlib
import json
import os
import re
import struct
import sys
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from kcb import canonical, fock
from kcb.canonical import (
    CanonicalBasis,
    ReductionError,
    checked_element,
    diamond,
    element_to_json,
    is_svelte,
    reduce_seed,
)
from kcb.closedform import (
    FamilySpec,
    _partners,
    closed_canonical_family,
    family_label,
    path_monomial,
)
from kcb.crystal import (
    NotAVertexError,
    _reduced_signature,
    f_tilde_string,
    generate_crystal,
    residue_collected_path,
    string_top,
    weight_info,
)
from kcb.fock import FockContext, FockVector, apply_f_divided, content, symmetric_context
from kcb.laurent import LaurentPoly
from kcb.partitions import conjugate, dominates, is_e_regular, mp_to_json
from kcb.verify import _difference, verify_duality

from fock_reference import e_tilde_until_none, iter_multipartitions

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
        elem = CanonicalBasis(C01).element(((3,), ()))
        assert elem.vector == GOLDEN

    def test_shape(self):
        elem = CanonicalBasis(C01).element(((3,), ()))
        assert elem.shape == (1, 2, 1)
        assert checked_element(C01, elem.label, elem.vector).shape == (1, 2, 1)
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

    def test_seed_reaches_above_the_label(self):
        # a seed that carries G(above), whose label dominates the seed's, so
        # the elimination must range over vertices above the label too:
        # the basis's own seed of G((2),(),(1),(1)) carries
        # G((2,1),(),(1),()); the f_0 seed of G((2),(2,1)), f_0 G((2),(2)),
        # carries G((3),(2)), which its string_top seed, at i = 1, does not
        for ctx, mp, above in [
            (symmetric_context(2), ((2,), (), (1,), (1,)), ((2, 1), (), (1,), ())),
            (C01, ((2,), (2, 1)), ((3,), (2,))),
        ]:
            assert dominates(above, mp) and above != mp
            basis = CanonicalBasis(ctx)
            if ctx == C01:
                k, top = e_tilde_until_none(ctx, mp, 0)
                assert k and string_top(ctx, mp)[0] != 0
                assert basis.monomial(mp).coefficient(above) == LaurentPoly.zero()
                seed = apply_f_divided(ctx, basis.element(top).vector, 0, k)
            else:
                seed = basis.monomial(mp)
            assert seed.coefficient(above) == LaurentPoly.one()
            elem, certificate = reduce_seed(ctx, mp, seed, basis.element)
            assert above in dict(certificate)
            assert elem.vector.coefficient(above) == LaurentPoly.zero()
            assert elem.vector == basis.element(mp).vector


class TestAtWeight:
    def test_content_11(self):
        w = CanonicalBasis(C01).at_weight((1, 1))
        assert set(w) == {((2,), ()), ((1,), (1,))}
        assert w[((2,), ())].vector == vec(
            (((2,), ()), 0), (((1, 1), ()), 1), (((1,), (1,)), 2)
        )
        assert w[((1,), (1,))].vector == vec(
            (((1,), (1,)), 0), (((), (2,)), 1), (((), (1, 1)), 2)
        )

    def test_content_21(self):
        w = CanonicalBasis(C01).at_weight((2, 1))
        assert w[((3,), ())].vector == GOLDEN

    def test_content_12(self):
        # [(2,1),()] carries one 0-node and two 1-nodes
        w = CanonicalBasis(C01).at_weight((1, 2))
        assert w[((2, 1), ())].vector == vec(
            (((2, 1), ()), 0), (((2,), (1,)), 1), (((1, 1), (1,)), 2)
        )

    def test_trivial_weight(self):
        w = CanonicalBasis(C01).at_weight((0, 0))
        assert w == {((), ()): w[((), ())]}
        assert w[((), ())].vector == FockVector.basis(((), ()))

    def test_not_a_vertex(self):
        # every multipartition off the crystal up to degree 5, e-regular ones included
        for ctx in (C01, symmetric_context(2)):
            vertices = generate_crystal(ctx, 5).degrees
            off = [mp for n in range(6) for mp in iter_multipartitions(n, ctx.level)
                   if mp not in vertices]
            assert any(is_e_regular(mp, ctx.e) for mp in off)
            basis = CanonicalBasis(ctx)
            for mp in off:
                with pytest.raises(NotAVertexError):
                    basis.element(mp)

    def test_non_vertex_left_by_a_wrong_seed(self):
        # ((1,1),()) is not a vertex at (0,1); a seed that leaves it outside
        # vZ[v] is a failed reduction, not a bad label
        class WrongSeedBasis(CanonicalBasis):
            def monomial(self, mp):
                seed = super().monomial(mp)
                if mp == ((2,), ()):
                    seed = seed + FockVector.basis(((1, 1), ()))
                return seed

        with pytest.raises(ReductionError):
            WrongSeedBasis(C01).element(((2,), ()))


class TestElementChecks:
    # G((3,), ()) has defect 2 and shape (1, 2, 1); each bad vector fails one check
    def test_checked_element(self):
        elem = checked_element(C01, ((3,), ()), GOLDEN)
        assert (elem.label, elem.vector, elem.shape) == (((3,), ()), GOLDEN, (1, 2, 1))
        assert elem.weight == CanonicalBasis(C01).element(((3,), ())).weight

    def test_label_coefficient_not_one_rejected(self):
        bad = FockVector([(((3,), ()), LaurentPoly({0: 1, 1: 1}))])
        with pytest.raises(ReductionError, match="is not 1"):
            checked_element(C01, ((3,), ()), bad)

    def test_negative_coefficient_rejected(self):
        # leading 1, the rest in vZ[v] within the defect: only the sign is wrong
        bad = vec((((3,), ()), 0), (((1,), (2,)), 1)).add_scaled(
            FockVector.basis(((1, 1, 1), ())), LaurentPoly.monomial(1, -1)
        )
        with pytest.raises(ReductionError, match="negative"):
            checked_element(C01, ((3,), ()), bad)

    def test_exponent_above_defect_rejected(self):
        bad = vec((((3,), ()), 0), (((1, 1, 1), ()), 3))
        with pytest.raises(ReductionError, match=r"outside 0\.\.2"):
            checked_element(C01, ((3,), ()), bad)

    def test_undominated_term_rejected(self):
        # ((1,), (2,)) does not dominate ((3,), ()); the coefficients are fine
        bad = vec((((1,), (2,)), 0), (((3,), ()), 1))
        with pytest.raises(ReductionError, match="not dominated"):
            checked_element(C01, ((1,), (2,)), bad)

    @pytest.mark.parametrize("term, why", [
        (((1,), (1,)), "dominance needs equal total size"),
        (((1,), (1,), ()), "dominance needs equal levels"),
    ])
    def test_term_of_another_size_or_level_rejected(self, term, why):
        # a failed check (kcb exits 1), not the ValueError of a usage error (exit 2)
        bad = GOLDEN.add_scaled(FockVector.basis(term), mono(1))
        with pytest.raises(ReductionError, match=re.escape(f"{term} in G(((3,), ())): {why}")):
            checked_element(C01, ((3,), ()), bad)

    @pytest.mark.parametrize("planted", [((8,), (), (), ()), ((5,), (3,), (), ())])
    def test_undominated_term_named_among_many(self, planted):
        # G of a = 2 at degree 8 with 1,476 terms plus one term at v that the
        # label does not dominate: sorted after every real term (it lies above
        # the label in tuple order), or among them, built from their components
        ctx = symmetric_context(2)
        g = CanonicalBasis(ctx).element(((5, 1), (1,), (1,), ()))
        assert len(g.vector) == 1476 and g.weight.defect >= 1
        assert not dominates(g.label, planted)
        shared = {c: c for lam in g.vector for c in lam}
        planted = tuple(shared.get(c, c) for c in planted)
        bad = g.vector.add_scaled(FockVector.basis(planted), mono(1))
        assert (bad.stored().support()[-1] == planted) == (planted > g.label)
        with pytest.raises(ReductionError, match=re.escape(f"{planted} in G({g.label})")):
            checked_element(ctx, g.label, bad)
        assert checked_element(ctx, g.label, g.vector).vector == g.vector

    def test_negative_coefficient_computed(self):
        class NegativeSeedBasis(CanonicalBasis):
            def monomial(self, mp):
                seed = super().monomial(mp)
                if mp == ((3,), ()):
                    seed = seed.add_scaled(
                        FockVector.basis(((1, 1, 1), ())), LaurentPoly.monomial(1, -2)
                    )
                return seed

        with pytest.raises(ReductionError, match="negative"):
            NegativeSeedBasis(C01).element(((3,), ()))

    def test_not_in_vzv_rejected(self):
        bad = vec((((3,), ()), 0), (((1,), (2,)), 0))
        with pytest.raises(ReductionError, match="not in vZ"):
            checked_element(C01, ((3,), ()), bad)
        with pytest.raises(ReductionError, match="is not 1"):
            checked_element(C01, ((2, 1), ()), bad)  # a label not in the support


class TestInvariants:
    def test_sweep_small(self):
        # leading 1, positivity, dominance, unique v^defect term = (diamond)'
        for ctx in (C01, symmetric_context(2)):
            basis = CanonicalBasis(ctx)
            g = generate_crystal(ctx, 7)
            for mp in sorted(m for m, d in g.degrees.items() if d <= 7):
                elem = basis.element(mp)
                assert elem.vector.coefficient(mp) == LaurentPoly.one()
                for lam, c in elem.vector.terms():
                    if lam != mp:
                        assert c.min_exponent() > 0
                        assert all(n > 0 for _, n in c.items())
                        assert dominates(mp, lam)
                top = mono(elem.weight.defect)
                tops = [lam for lam, c in elem.vector.terms() if c == top]
                _, md = diamond(ctx, mp)
                assert tops == [conjugate(md)]

    def test_defect_characterizations(self):
        for ctx in (C01, symmetric_context(2)):
            basis = CanonicalBasis(ctx)
            g = generate_crystal(ctx, 7)
            for mp in sorted(m for m, d in g.degrees.items() if d <= 7):
                elem = basis.element(mp)
                _, md = diamond(ctx, mp)
                if elem.weight.defect == 0:
                    assert elem.vector == FockVector.basis(mp)
                    assert mp == conjugate(md)
                if elem.weight.defect == 1:
                    assert elem.vector == vec((mp, 0), (conjugate(md), 1))


class PathSeedRoute:
    """G(b) without the recursion across weights: reduce_seed applied to
    M(b), the divided-power monomial of b's residue-collected path on the
    highest weight vector.  Every G(nu) the pass subtracts lies at b's
    weight and is built the same way, memoised by the route with its
    certificate.  Kashiwara's eps_i rule is one of f_i^(k) G(top), not of
    M(b), so only positivity is checked per subtraction."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.elements, self.certificates = {}, {}

    def element(self, mp):
        if mp not in self.elements:
            seed = path_monomial(self.ctx, residue_collected_path(self.ctx, mp))[0]
            self.elements[mp], self.certificates[mp] = reduce_seed(self.ctx, mp, seed, self.element)
        return self.elements[mp]


# (e, charges, degree): every vertex up to degree
SEED_CASES = ((2, (0, 1), 10), (2, (0, 0, 1, 1), 7), (3, (0, 1, 2), 8))


def vertices_up_to(basis, degree):
    g = generate_crystal(basis.ctx, degree)
    return sorted(m for m, d in g.degrees.items() if d <= degree)


# every vertex up to degree 7 of these contexts; at (0, 0, 1, 1) and at
# e = 3 string_top's lowest-defect string is not the smallest residue's
# at some vertices
SEED_RULE_CONTEXTS = (
    FockContext(2, (0, 1)),
    FockContext(2, (0, 0, 1, 1)),
    FockContext(3, (0, 1, 2)),
    FockContext(3, (0, 0, 1)),
)


class TestSeedRule:
    @pytest.mark.parametrize("ctx", SEED_RULE_CONTEXTS, ids=str)
    def test_every_valid_seed_reduces_to_one_element(self, ctx):
        # Kashiwara's divided-power rule holds for every i with eps_i > 0:
        # each such seed reduces to the basis's G, and its certificate keeps
        # eps_i(nu) > k
        basis = CanonicalBasis(ctx)
        seeds = 0
        for mp in vertices_up_to(basis, 7):
            want = basis.element(mp).vector
            if mp == ctx.highest_weight_vertex():
                continue
            for i in range(ctx.e):
                k, top = e_tilde_until_none(ctx, mp, i)
                if not k:
                    continue
                seed = apply_f_divided(ctx, basis.element(top).vector, i, k)
                elem, certificate = reduce_seed(ctx, mp, seed, basis.element)
                assert elem.vector == want, (mp, i)
                assert all(len(_reduced_signature(ctx, nu, i)[1]) > k for nu, _ in certificate)
                seeds += 1
        assert seeds > len(basis._elements)  # some vertex has two valid seeds

    @pytest.mark.parametrize("ctx", SEED_RULE_CONTEXTS, ids=str)
    def test_seed_string_has_the_lowest_top_defect(self, ctx):
        # string_top, the seed's string, against the defect of each built
        # top; a tie goes to the smallest i
        differs = 0
        for mp in vertices_up_to(CanonicalBasis(ctx), 7):
            if mp == ctx.highest_weight_vertex():
                assert string_top(ctx, mp) is None
                continue
            tops = [(weight_info(ctx, content(ctx, top)).defect, i, k, top)
                    for i in range(ctx.e)
                    for k, top in [e_tilde_until_none(ctx, mp, i)] if k]
            _, i, k, top = min(tops)
            assert string_top(ctx, mp) == (i, k, top)
            smallest = tops[0][1]  # the smallest residue with eps_i > 0
            if len({d for d, *_ in tops}) == 1:
                assert i == smallest
            differs += i != smallest
        assert differs or ctx == C01

    @pytest.mark.parametrize("ctx", SEED_RULE_CONTEXTS, ids=str)
    def test_seed_string_ends_the_path(self, ctx):
        # the basis seeds G(mp) with the last segment of mp's path
        basis = CanonicalBasis(ctx)
        for mp in vertices_up_to(basis, 7):
            if mp == ctx.highest_weight_vertex():
                continue
            i, k = residue_collected_path(ctx, mp)[-1]
            assert string_top(ctx, mp)[:2] == (i, k), mp
            top = e_tilde_until_none(ctx, mp, i)[1]
            assert basis.monomial(mp) == apply_f_divided(ctx, basis.element(top).vector, i, k), mp

    def test_diamond_does_not_depend_on_the_path(self):
        # the diamond is a crystal isomorphism: replaying the smallest-residue
        # peel through the dual crystal lands where string_top's path does
        ctx = FockContext(3, (0, 0, 1))
        dctx, differs = ctx.dual(), 0
        for mp in vertices_up_to(CanonicalBasis(ctx), 7):
            segs, cur = [], mp
            while cur != ctx.highest_weight_vertex():
                i = next(i for i in range(ctx.e) if e_tilde_until_none(ctx, cur, i)[0])
                k, cur = e_tilde_until_none(ctx, cur, i)
                segs.append((i, k))
            md = dctx.highest_weight_vertex()
            for i, k in reversed(segs):
                md = f_tilde_string(dctx, md, (-i) % ctx.e, k)
            assert (dctx, md) == diamond(ctx, mp), mp
            differs += tuple(reversed(segs)) != residue_collected_path(ctx, mp)
        assert differs


class TestSeed:
    def test_path_seed_oracle(self):
        for e, charges, degree in SEED_CASES:
            ctx = FockContext(e, charges)
            basis, oracle = CanonicalBasis(ctx), PathSeedRoute(ctx)
            for mp in vertices_up_to(basis, degree):
                assert basis.element(mp).vector == oracle.element(mp).vector, mp

    def test_path_seed_long_paths(self):
        # the monomials of these paths once compounded their coefficient
        # bound past 2^62 (1.57e18 * 3640 at the shape), though no
        # coefficient exceeds 152; both labels lie at one weight, so the
        # route builds each G it subtracts once
        ctx = symmetric_context(2)
        basis, route = CanonicalBasis(ctx), PathSeedRoute(ctx)
        for mp in (((10,), (), (), ()), ((9,), (), (1,), ())):
            assert route.element(mp).vector == basis.element(mp).vector, mp

    def test_output_bytes_pinned(self):
        # digest of the path-seed implementation's output over 484 vertices
        h = hashlib.sha256()
        for e, charges, degree in SEED_CASES[1:]:
            basis = CanonicalBasis(FockContext(e, charges))
            for mp in vertices_up_to(basis, degree):
                h.update(json.dumps(element_to_json(basis.element(mp))).encode() + b"\n")
        assert h.hexdigest() == (
            "e1f473c9c55db4c237b23d8401c3fcfbb5db092db8de9573fe9114e8e61cdb78"
        )


    def test_no_crystal_graph(self, monkeypatch):
        # the reduction walks the seed's own terms: a degree-43 label needs no BFS
        def refuse(*args, **kwargs):
            raise AssertionError("computing an element generated the crystal")

        monkeypatch.setattr("kcb.canonical.generate_crystal", refuse)
        monkeypatch.setattr("kcb.crystal.generate_crystal", refuse)
        closed = closed_canonical_family(FamilySpec("p010k", 3, 3, 3))
        assert sum(map(sum, closed.label)) == 43
        got = CanonicalBasis(symmetric_context(3)).element(closed.label)
        assert got.vector == closed.vector


class TestCertificate:
    # the route's certificate at a path family's label is the closed form's
    # partner table: 1 G(p0k1), [2][3] G(p0k1) and 1 G(p10k)
    @pytest.mark.parametrize(
        "family, a, k, n", [("p10k", 2, 1, 1), ("p010k", 2, 2, 1), ("p010k", 3, 3, 0)]
    )
    def test_certificate_is_the_partner_table(self, family, a, k, n):
        spec = FamilySpec(family, a, k, n)
        route, label = PathSeedRoute(spec.ctx), family_label(spec)
        assert route.element(label).vector == closed_canonical_family(spec).vector
        partners = [
            (family_label(replace(spec, family=family)), coeff)
            for family, coeff in _partners(spec)
            if coeff
        ]
        assert len(partners) == 1
        assert route.certificates[label] == partners

    def test_wrong_leading_coefficient_raises(self):
        # 2 M(b): the pass subtracts 2 m_nu G(nu) and ends at 2 G(b)
        mp = ((3,), ())
        seed = path_monomial(C01, residue_collected_path(C01, mp))[0]
        with pytest.raises(ReductionError, match="is not 1"):
            reduce_seed(C01, mp, seed.add_scaled(seed, LaurentPoly.one()), PathSeedRoute(C01).element)


class TestOrderIndependence:
    def test_reversed_request_order(self):
        # request order decides which elements are first built inside seeds
        forward = CanonicalBasis(symmetric_context(2))
        backward = CanonicalBasis(symmetric_context(2))
        verts = vertices_up_to(forward, 7)
        got = {mp: backward.element(mp).vector for mp in reversed(verts)}
        for mp in verts:
            assert forward.element(mp).vector == got[mp]


class TestDiamond:
    def test_example(self):
        dctx, md = diamond(C01, ((3,), ()))
        assert dctx.charges == (1, 0)
        assert md == ((2,), (1,))

    def test_highest(self):
        dctx, md = diamond(C01, ((), ()))
        assert md == ((), ())

    def test_defect0_conjugate_fixed(self):
        basis = CanonicalBasis(symmetric_context(2))
        g = generate_crystal(symmetric_context(2), 6)
        for mp in sorted(m for m, d in g.degrees.items() if d <= 6):
            if basis.element(mp).weight.defect == 0:
                _, md = diamond(symmetric_context(2), mp)
                assert conjugate(md) == mp


class TestDecompositionEntry:
    def test_examples(self):
        elem = CanonicalBasis(C01).element(((3,), ()))
        assert elem.vector.coefficient(((1,), (1, 1))) == mono(2)
        assert elem.vector.coefficient(((3,), ())) == LaurentPoly.one()
        assert elem.vector.coefficient(((2, 1), ())).is_zero()


class TestSvelte:
    def test_svelte_examples(self):
        b1 = CanonicalBasis(symmetric_context(1))
        assert is_svelte(b1.element(((2,), ())))
        assert not is_svelte(b1.element(((3,), ())))

    def test_defect0_always_svelte(self):
        basis = CanonicalBasis(symmetric_context(2))
        g = generate_crystal(symmetric_context(2), 6)
        for mp in sorted(m for m, d in g.degrees.items() if d <= 6):
            elem = basis.element(mp)
            if elem.weight.defect == 0:
                assert elem.shape == (1,)
                assert is_svelte(elem)


def _with(doc, **fields):
    return json.dumps({**doc, **fields})


# ways to spoil the cache file of G((3),()): (file text, its JSON) -> new text
SPOILED = {
    "truncated": lambda text, doc: text[: len(text) // 2],
    # shape kept consistent, so only the element check can catch it
    "coefficient-moved-to-v0": lambda text, doc: _with(
        doc, terms=[doc["terms"][0], {**doc["terms"][1], "coefficient": {"0": 1}},
                    *doc["terms"][2:]], shape=[2, 1, 1]
    ),
    # shape kept consistent, so only the positivity check can catch it
    "negative-coefficient": lambda text, doc: _with(
        doc, terms=[doc["terms"][0], {**doc["terms"][1], "coefficient": {"1": -1}},
                    *doc["terms"][2:]], shape=[1, 0, 1]
    ),
    # one digit per exponent in between would not fit in memory
    "exponent-far-out": lambda text, doc: _with(
        doc, terms=[doc["terms"][0], {**doc["terms"][1], "coefficient": {"1": 1, str(10**15): 1}},
                    *doc["terms"][2:]]
    ),
    "coefficient-not-an-object": lambda text, doc: _with(
        doc, terms=[doc["terms"][0], {**doc["terms"][1], "coefficient": [1]}, *doc["terms"][2:]]
    ),
    # a float truncated by int() would read as the stored 1
    "coefficient-float": lambda text, doc: _with(
        doc, terms=[*doc["terms"][:1], {**doc["terms"][1], "coefficient": {"1": 1.9}},
                    *doc["terms"][2:]]
    ),
    "coefficient-bool": lambda text, doc: _with(
        doc, terms=[*doc["terms"][:1], {**doc["terms"][1], "coefficient": {"1": True}},
                    *doc["terms"][2:]]
    ),
    "exponent-not-canonical": lambda text, doc: _with(
        doc, terms=[*doc["terms"][:1], {**doc["terms"][1], "coefficient": {"+1": 1}},
                    *doc["terms"][2:]]
    ),
    # the last term ((1,), (1, 1)) with a row equal to, and hashing like, the
    # int row of the term ((1,), (2,)) before it: a memo keyed on the rows
    # alone would serve it
    "row-is-bool": lambda text, doc: _with(
        doc, terms=[*doc["terms"][:3], {**doc["terms"][3], "multipartition": [[True], [1, 1]]}]
    ),
    "row-is-float": lambda text, doc: _with(
        doc, terms=[*doc["terms"][:3], {**doc["terms"][3], "multipartition": [[1.0], [1, 1]]}]
    ),
    # equal to the computed weight and shape, but served as floats or bools
    "defect-float": lambda text, doc: _with(doc, defect=float(doc["defect"])),
    "shape-float": lambda text, doc: _with(doc, shape=[float(n) for n in doc["shape"]]),
    "content-bool": lambda text, doc: _with(
        doc, content=[True if n == 1 else n for n in doc["content"]]
    ),
    "other-label": lambda text, doc: _with(doc, label=[[2, 1], []]),
    "ill-formed-label": lambda text, doc: _with(doc, label=[[3], 5]),
    "wrong-shape": lambda text, doc: _with(doc, shape=[1, 3, 0]),
    "wrong-weight": lambda text, doc: _with(doc, defect=3),
    "missing-key": lambda text, doc: json.dumps({k: v for k, v in doc.items() if k != "hub"}),
}


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        elem = CanonicalBasis(C01).element(((3,), ()))
        CanonicalBasis(C01, cache_dir=str(tmp_path))._disk_store(elem)
        back = CanonicalBasis(C01, cache_dir=str(tmp_path))._disk_load(elem.label)
        assert back.label == elem.label
        assert back.vector == elem.vector
        assert back.shape == elem.shape
        assert back.weight == elem.weight

    def test_terms_sorted_by_decreasing_dominance(self):
        elem = CanonicalBasis(C01).element(((3,), ()))
        doc = element_to_json(elem)
        mps = [tuple(tuple(c) for c in t["multipartition"]) for t in doc["terms"]]
        # decreasing tuple order refines dominance: no later term dominates an earlier one
        assert mps == sorted(mps, reverse=True)
        assert not any(dominates(y, x) for i, x in enumerate(mps) for y in mps[i + 1:])
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
        blocker = basis._cache_path(((3,), ())) + ".tmp"
        os.mkdir(blocker)
        elem = basis.element(((3,), ()))
        again = CanonicalBasis(C01, cache_dir=str(tmp_path)).element(((3,), ()))
        assert again.vector == elem.vector
        # one file per computed element (the seeds' string tops too), no other .tmp
        stored = {basis._cache_path(mp) for mp in basis._elements}
        assert basis._cache_path(((3,), ())) in stored
        assert {str(p) for p in tmp_path.iterdir()} == stored | {blocker}

    def test_disk_cache_file_is_the_json_text(self, tmp_path):
        # one json.dumps per element: the bytes json.dump would have written
        basis = CanonicalBasis(C01, cache_dir=str(tmp_path))
        for mp in vertices_up_to(basis, 4):
            elem = basis.element(mp)
            with open(basis._cache_path(mp), "rb") as fh:
                assert fh.read() == json.dumps(element_to_json(elem)).encode()

    def test_disk_cache_failed_encoding_leaves_no_file(self, tmp_path, monkeypatch):
        elem = CanonicalBasis(C01).element(((3,), ()))

        def failing(elem):
            raise RuntimeError("cannot encode")

        monkeypatch.setattr(canonical, "element_to_json", failing)
        with pytest.raises(RuntimeError):
            CanonicalBasis(C01, cache_dir=str(tmp_path))._disk_store(elem)
        assert list(tmp_path.iterdir()) == []

    def test_disk_cache_directory_at_the_path(self, tmp_path):
        # reading it is a miss; renaming onto it fails, the temporary file
        # goes, and the computed element is returned with one warning
        mp = ((3,), ())
        basis = CanonicalBasis(C01, cache_dir=str(tmp_path))
        path = basis._cache_path(mp)
        os.mkdir(path)
        assert basis._disk_load(mp) is None
        with pytest.warns(RuntimeWarning) as record:
            assert basis.element(mp).vector == GOLDEN
        (warning,) = record
        assert path in str(warning.message) and "Is a directory" in str(warning.message)
        assert not list(tmp_path.glob("*.tmp"))
        assert os.path.isdir(path)
        assert basis.element(mp) is basis._elements[mp]  # memoised

    def test_disk_cache_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        elem = CanonicalBasis(C01).element(((3,), ()))
        real_fdopen = os.fdopen
        # a file opened for reading: its write raises io.UnsupportedOperation, an OSError
        monkeypatch.setattr(os, "fdopen", lambda fd, *args, **kwargs: real_fdopen(fd, "r"))
        with pytest.raises(OSError):
            CanonicalBasis(C01, cache_dir=str(tmp_path))._disk_store(elem)
        assert list(tmp_path.iterdir()) == []

    def test_disk_cache_unversioned_file_not_served(self, tmp_path):
        # a file under the key of the unversioned format, valid as it is, is not read
        mp = ((3,), ())
        key = json.dumps({"e": 2, "charges": [0, 1], "mp": [[3], []]}, sort_keys=True)
        old = tmp_path / f"{hashlib.sha256(key.encode()).hexdigest()[:32]}.json"
        doc = element_to_json(CanonicalBasis(C01).element(mp))
        old.write_text(json.dumps(doc), encoding="utf-8")
        fresh = CanonicalBasis(C01, cache_dir=str(tmp_path))
        assert fresh._cache_path(mp) != str(old)
        assert fresh._disk_load(mp) is None

    @pytest.mark.parametrize("spoil", sorted(SPOILED))
    def test_disk_cache_rejects_bad_file(self, tmp_path, spoil):
        mp = ((3,), ())
        path = CanonicalBasis(C01, cache_dir=str(tmp_path))._cache_path(mp)
        CanonicalBasis(C01, cache_dir=str(tmp_path)).element(mp)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(SPOILED[spoil](text, json.loads(text)))
        fresh = CanonicalBasis(C01, cache_dir=str(tmp_path))
        assert fresh._disk_load(mp) is None
        assert fresh.element(mp).vector == GOLDEN
        # the miss was recomputed and the file rewritten
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == text


def test_element_memo_holds_no_per_term_tracked_object():
    # coefficients are stored as ints, so the collector tracks neither them
    # nor the vector's dict of tuples and ints; a LaurentPoly per term would
    # be one tracked object each.  An element itself is three (the element,
    # its WeightInfo and its FockVector), allowed for apart from the
    # per-term bound.
    def tracked():
        # a tuple is untracked only once what it holds is, a pass at a time
        for _ in range(8):
            gc.collect()
        return len(gc.get_objects())

    basis = CanonicalBasis(C01)
    verts = vertices_up_to(basis, 8)
    before = tracked()
    elems = [basis.element(mp) for mp in verts]
    added = tracked() - before
    terms = sum(len(g.vector) for g in elems)
    assert added < 3 * len(elems) + terms // 10, (added, len(elems), terms)


class TestCoefficientTable:
    # every computed element's coefficient ints go through its basis's table
    @pytest.fixture(scope="class")
    def basis(self):
        basis = CanonicalBasis(C01)
        for mp in vertices_up_to(basis, 8):
            basis.element(mp)
        return basis

    @staticmethod
    def stored(basis):
        return [x for g in basis._elements.values() for x in g.vector._terms.values()]

    def test_equal_coefficients_are_one_int(self, basis):
        xs = self.stored(basis)
        assert len(set(xs)) < len(xs)  # values repeat across elements
        assert len({id(x) for x in xs}) == len(set(xs))

    def test_table_holds_the_stored_coefficients(self, basis):
        xs = self.stored(basis)
        assert basis._coefficients == {x: x for x in xs}
        assert all(basis._coefficients[x] is x for x in xs)

    def test_base_zero_and_bound_max_shape(self, basis):
        for g in basis._elements.values():
            assert (g.vector._lo, g.vector._bound) == (0, max(g.shape)), g.label

    def test_bases_do_not_share_a_table(self, basis):
        other = CanonicalBasis(C01)
        assert other._coefficients == {}
        for mp, g in basis._elements.items():
            mine, theirs = g.vector._terms, other.element(mp).vector._terms
            assert mine == theirs
            # ints beyond CPython's small-int cache are only shared by a table
            assert not any(x is theirs[nu] for nu, x in mine.items() if x > 256), mp

    def test_disk_reads_go_through_the_table(self, basis, tmp_path):
        writer = CanonicalBasis(C01, cache_dir=str(tmp_path))
        for mp in basis._elements:
            writer.element(mp)
        reader = CanonicalBasis(C01, cache_dir=str(tmp_path))
        reader._compute = None  # every element is read from its file
        for mp in basis._elements:
            reader.element(mp)
        xs = self.stored(reader)
        assert len({id(x) for x in xs}) == len(set(xs)) < len(xs)
        assert all(reader._coefficients[x] is x for x in xs)


def test_reduction_and_serialisation_build_no_view_per_term(monkeypatch):
    # the reduction, the element checks and element_to_json read the stored
    # ints; LaurentPoly views come only with an elimination step
    # (its multiplier), never per output term
    own, add_scaled = LaurentPoly._own, FockVector.add_scaled
    counts = Counter()

    def counting_own(terms):
        counts["views"] += 1
        return own(terms)

    def counting_add_scaled(self, other, mult):
        counts["steps"] += 1
        return add_scaled(self, other, mult)

    monkeypatch.setattr(LaurentPoly, "_own", staticmethod(counting_own))
    monkeypatch.setattr(FockVector, "add_scaled", counting_add_scaled)
    basis = CanonicalBasis(C01)
    for mp in vertices_up_to(basis, 8):
        json.dumps(element_to_json(basis.element(mp)))
    elements = len(basis._elements)
    terms = sum(len(g.vector) for g in basis._elements.values())
    assert counts["views"] <= elements + 2 * counts["steps"] < terms, (counts, elements, terms)


# (context, degree): every vertex up to degree, stored as checked_element leaves it
STORE_CASES = (
    (symmetric_context(1), 8),
    (symmetric_context(2), 6),
    (symmetric_context(3), 5),
    (FockContext(3, (0, 1, 2)), 6),
)


def _parent_to_json(vector):
    # the serialisation before stored vectors: sort the support, then look
    # each coefficient up
    coefficients = dict(vector.terms())
    return [
        {"multipartition": mp, "coefficient": {str(e): n for e, n in coefficients[mp].items()}}
        for mp in sorted(coefficients)
    ]


@pytest.fixture(scope="module", params=STORE_CASES, ids=lambda case: str(case[0].charges))
def stored_elements(request):
    ctx, degree = request.param
    basis = CanonicalBasis(ctx)
    return ctx, [basis.element(mp) for mp in vertices_up_to(basis, degree)]


class TestStoredElements:
    def test_multipartitions_strictly_ascending(self, stored_elements):
        for g in stored_elements[1]:
            mps = g.vector._terms.mps
            assert all(a < b for a, b in zip(mps, mps[1:])), g.label
            assert g.vector.support() == list(mps)

    def test_equal_to_the_dict_both_ways(self, stored_elements):
        for g in stored_elements[1]:
            as_dict = FockVector(list(g.vector.terms()))
            assert g.vector == as_dict and as_dict == g.vector
            # one coefficient changed: the label's 1 becomes 1 + v
            bumped = as_dict + FockVector([(g.label, mono(1))])
            assert g.vector != bumped and bumped != g.vector
            assert g.vector != bumped.stored() and bumped.stored() != g.vector

    def test_coefficient_present_and_absent(self, stored_elements):
        ctx, elems = stored_elements
        labels = {g.label for g in elems}
        for g in elems:
            as_dict = dict(g.vector.terms())
            for mp, c in as_dict.items():
                assert g.vector.coefficient(mp) == c
            # below, between and above the stored terms
            absent = labels | {ctx.highest_weight_vertex(), ((99,),) * ctx.level}
            for mp in absent - set(as_dict):
                assert g.vector.coefficient(mp) == LaurentPoly.zero(), (g.label, mp)

    def test_difference_of_stored_vectors(self, stored_elements):
        for g in stored_elements[1]:
            assert _difference(g.vector, g.vector) is None
            other = (g.vector + FockVector([(g.label, mono(2))])).stored()
            want = [{"multipartition": mp_to_json(g.label), "coefficient": {"2": 1}}]
            assert _difference(g.vector, other) == {"symbolic_difference": want}

    def test_to_json_bytes_as_sort_then_lookup(self, stored_elements):
        for g in stored_elements[1]:
            want = json.dumps(_parent_to_json(g.vector))
            assert json.dumps(g.vector.to_json()) == want
            assert json.dumps(FockVector(list(g.vector.terms())).to_json()) == want

    def test_json_maps_decoded_once_per_basis(self, stored_elements, monkeypatch):
        # the documents of one basis read one shared dict per coefficient
        # value, decoded the first time any of them needs it, and keep the
        # bytes of a decode per element
        _, elems = stored_elements
        maps = elems[0].json_maps
        assert all(g.json_maps is maps for g in elems)
        before = set(maps)
        decoded = []
        real = fock._decode
        monkeypatch.setattr(fock, "_decode", lambda x, lo: decoded.append(x) or real(x, lo))
        docs = [element_to_json(g) for g in elems]
        values = {x for g in elems for x in g.vector._terms.xs}
        assert sorted(decoded) == sorted(values - before)
        for g, doc in zip(elems, docs):
            assert json.dumps(doc["terms"]) == json.dumps(_parent_to_json(g.vector)[::-1])
            xs = g.vector._terms.xs[::-1]
            assert all(t["coefficient"] is maps[x] for t, x in zip(doc["terms"], xs))

    def test_disk_cache_round_trip(self, stored_elements, tmp_path, monkeypatch):
        ctx, elems = stored_elements
        writer = CanonicalBasis(ctx, cache_dir=str(tmp_path))
        for g in elems:
            writer.element(g.label)
        reader = CanonicalBasis(ctx, cache_dir=str(tmp_path))
        monkeypatch.setattr(reader, "_compute", None)  # every element comes off the disk
        for g in elems:
            back = reader.element(g.label)
            assert back == g and back.vector._terms.mps == g.vector._terms.mps


def test_stored_terms_take_two_pointers_a_term():
    # the term containers of every G for a = 2 to degree 8: two tuples of
    # one pointer a term each, where a dict takes 40 bytes or more a term
    basis = CanonicalBasis(symmetric_context(2))
    elems = [basis.element(mp) for mp in vertices_up_to(basis, 8)]
    pointer, header = struct.calcsize("P"), sys.getsizeof(())
    used = terms = 0
    for g in elems:
        t = g.vector._terms
        containers = [getattr(t, name) for name in getattr(t, "__slots__", ())] or [t]
        used += sum(map(sys.getsizeof, containers))
        terms += len(g.vector)
    assert used <= 2 * pointer * terms + 2 * header * len(elems), (used / terms, terms)


class TestSubtractionChecks:
    # at charges (0, 1), G(((3,), ())) is seeded by f_0 G(top) and
    # G(((2,), (2,))) by f_1 G(top); ((1,), (2,)) lies at the first one's
    # weight, ((3,), (1,)) at the second one's
    @staticmethod
    def planted(label, nu, mult):
        class PlantedSeedBasis(CanonicalBasis):
            def monomial(self, mp):
                seed = super().monomial(mp)
                if mp == label:
                    seed = seed.add_scaled(self.element(nu).vector, mult)
                return seed

        return PlantedSeedBasis(C01)

    def test_negative_multiplicity_raises(self):
        # eps_0(((1,), (2,))) = 2 > 1 passes Kashiwara's rule, and the pass
        # would add G(nu) back and end at the right element
        basis = self.planted(((3,), ()), ((1,), (2,)), LaurentPoly.monomial(0, -1))
        with pytest.raises(ReductionError, match="multiplicity"):
            basis.element(((3,), ()))

    def test_small_eps_raises(self):
        # eps_1(((3,), (1,))) = 0 <= 1
        basis = self.planted(((2,), (2,)), ((3,), (1,)), LaurentPoly.one())
        with pytest.raises(ReductionError, match="eps_1 is 0"):
            basis.element(((2,), (2,)))

    def test_planted_allowed_string_passes_the_rule(self):
        # eps_0(((1,), (2,))) = 2 > 1: the rule holds, and the pass
        # subtracts the planted G(nu) again
        basis = self.planted(((3,), ()), ((1,), (2,)), LaurentPoly.one())
        assert basis.element(((3,), ())).vector == CanonicalBasis(C01).element(((3,), ())).vector


def test_no_basis_outlives_its_suite(monkeypatch):
    # each suite builds its own bases and drops them, with their elements
    # and coefficient tables, when it returns: one basis when the dual is
    # a charge rotation ((0, 1) -> (2, 0)), two otherwise ((0, 0, 1) -> (2, 0, 0))
    built = []
    init = CanonicalBasis.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(CanonicalBasis, "__init__", recording_init)
    for charges, bases in (((0, 1), 1), ((0, 0, 1), 2)):
        built.clear()
        assert verify_duality(FockContext(3, charges), 5).passed
        gc.collect()
        assert len(built) == bases and all(ref() is None for ref in built)


class TestHigherRank:
    def test_level_one_rank_two(self):
        b = CanonicalBasis(FockContext(2, (0,)))
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

import gc
import hashlib
import json
import os
from collections import Counter

import pytest

from kcb import canonical
from kcb.canonical import (
    CanonicalBasis,
    ReductionError,
    compute_shape,
    diamond,
    element_from_json,
    element_to_json,
    get_basis,
    is_svelte,
)
from kcb.closedform import FamilySpec, closed_canonical_family
from kcb.crystal import NotAVertexError, generate_crystal, residue_collected_path
from kcb.fock import FockContext, FockVector, apply_f_divided, symmetric_context
from kcb.laurent import LaurentPoly
from kcb.partitions import conjugate, dominates, is_e_regular, iter_multipartitions

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

    def test_seed_reaches_above_the_label(self):
        # the seed of G((2),(2,1)) carries G((3),(2)), whose label dominates it,
        # so the elimination must range over vertices above the label too
        mp, above = ((2,), (2, 1)), ((3,), (2,))
        assert dominates(above, mp) and above != mp
        basis = CanonicalBasis(C01)
        assert basis.monomial(mp).coefficient(above) == LaurentPoly.one()
        assert basis.element(mp).vector.coefficient(above) == LaurentPoly.zero()


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
        # every multipartition off the crystal up to degree 5, e-regular ones included
        for ctx in (C01, symmetric_context(2)):
            vertices = generate_crystal(ctx, 5).degrees
            off = [mp for n in range(6) for mp in iter_multipartitions(n, ctx.level)
                   if mp not in vertices]
            assert any(is_e_regular(mp, ctx.e) for mp in off)
            basis = get_basis(ctx)
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
    def test_negative_coefficient_rejected(self):
        # leading 1, the rest in vZ[v] within the defect: only the sign is wrong
        bad = vec((((3,), ()), 0), (((1,), (2,)), 1)).add_scaled(
            FockVector.basis(((1, 1, 1), ())), LaurentPoly.monomial(1, -1)
        )
        with pytest.raises(ReductionError, match="negative"):
            compute_shape(bad, 2, ((3,), ()))
        # without a label the shape is all that is asked for
        assert compute_shape(bad, 2) == (1, 0, 0)

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
            compute_shape(bad, 2, ((3,), ()))
        with pytest.raises(ReductionError, match="is not 1"):
            compute_shape(bad, 2, ((2, 1), ()))  # a label not in the support


class TestInvariants:
    def test_sweep_small(self):
        # leading 1, positivity, dominance, unique v^defect term = (diamond)'
        for ctx in (C01, symmetric_context(2)):
            basis = get_basis(ctx)
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
            basis = get_basis(ctx)
            g = generate_crystal(ctx, 7)
            for mp in sorted(m for m, d in g.degrees.items() if d <= 7):
                elem = basis.element(mp)
                _, md = diamond(ctx, mp)
                if elem.weight.defect == 0:
                    assert elem.vector == FockVector.basis(mp)
                    assert mp == conjugate(md)
                if elem.weight.defect == 1:
                    assert elem.vector == vec((mp, 0), (conjugate(md), 1))


class PathSeedBasis(CanonicalBasis):
    """The reference seed: divided powers folded along the whole
    residue-collected path from the highest weight vector, so no seed
    depends on another canonical element."""

    def monomial(self, mp):
        vec = FockVector.basis(self.ctx.highest_weight_vertex())
        for i, k in residue_collected_path(self.ctx, mp):
            vec = apply_f_divided(self.ctx, vec, i, k)
        return vec


# (e, charges, degree): every vertex up to degree
SEED_CASES = ((2, (0, 1), 10), (2, (0, 0, 1, 1), 7), (3, (0, 1, 2), 8))


def vertices_up_to(basis, degree):
    g = generate_crystal(basis.ctx, degree)
    return sorted(m for m, d in g.degrees.items() if d <= degree)


class TestSeed:
    def test_path_seed_oracle(self):
        for e, charges, degree in SEED_CASES:
            ctx = FockContext(e, charges)
            basis, oracle = CanonicalBasis(ctx), PathSeedBasis(ctx)
            for mp in vertices_up_to(basis, degree):
                assert basis.element(mp).vector == oracle.element(mp).vector, mp

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
        basis = get_basis(symmetric_context(2))
        g = generate_crystal(symmetric_context(2), 6)
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
        # reading it is a miss; renaming onto it fails, and the temporary
        # file goes before the error is raised
        mp = ((3,), ())
        basis = CanonicalBasis(C01, cache_dir=str(tmp_path))
        path = basis._cache_path(mp)
        os.mkdir(path)
        assert basis._disk_load(mp) is None
        with pytest.raises(IsADirectoryError):
            basis.element(mp)
        assert not list(tmp_path.glob("*.tmp"))
        assert os.path.isdir(path)
        assert basis.element(mp).vector == GOLDEN  # computed, so served from memory

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
        old.write_text(json.dumps(element_to_json(get_basis(C01).element(mp))), encoding="utf-8")
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

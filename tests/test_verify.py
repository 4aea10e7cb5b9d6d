import dataclasses
import json

import pytest

from kcb import closedform, verify
from kcb.canonical import CanonicalBasis, ReductionError, diamond
from kcb.closedform import StageError
from kcb.fock import CoefficientError, FockContext, FockVector, symmetric_context
from kcb.laurent import LaurentPoly, NotDivisibleError
from kcb.partitions import conjugate
from kcb.verify import (
    _difference,
    conjecture_scan,
    verify_duality,
    verify_top_row_forms,
    verify_path_families,
    verify_structural,
    verify_svelte_step,
    verify_weyl_stability,
)

from fock_reference import bar_shifted_reference


class TestTopRowForms:
    def test_display_instance(self):
        r = verify_top_row_forms(3, 0, 1)
        assert r.passed and r.instances[0].verdict == "match"

    def test_trivial_k0(self):
        assert verify_top_row_forms(2, 0, 0).passed

    def test_shape_instance(self):
        r = verify_top_row_forms(3, 0, 2)
        assert r.passed
        assert r.instances[0].detail["shape"] == [1, 1, 1]


class TestWeyl:
    def test_a1(self):
        r = verify_weyl_stability(1, 0, 1, 2)
        assert r.passed
        assert all(i.verdict == "match" for i in r.instances)

    def test_a2(self):
        assert verify_weyl_stability(2, 0, 1, 1).passed

    def test_n0_reduces_to_top_row(self):
        r = verify_weyl_stability(2, 1, 2, 0)
        assert r.passed and len(r.instances) == 1

    def test_negative_n_max_raises(self):
        # an empty range of n is no pass
        with pytest.raises(ValueError, match="need n_max >= 0"):
            verify_weyl_stability(2, 0, 1, -2)

    def test_failed_closed_form_is_a_mismatch(self, monkeypatch):
        # the builder's monomials times v: the label's coefficient is not 1,
        # so no closed form passes its check; the suite records each and goes on
        real = closedform.path_monomial

        def times_v(ctx, stages):
            vec, path, m = real(ctx, stages)
            return FockVector.zero().add_scaled(vec, LaurentPoly.monomial(1)), path, m

        closedform._canonical_vector.cache_clear()
        monkeypatch.setattr(closedform, "path_monomial", times_v)
        try:
            r = verify_weyl_stability(2, 0, 1, 1)
            assert [i.verdict for i in r.instances] == ["mismatch", "mismatch"]
            assert all("is not 1" in i.detail["check"] for i in r.instances)
            r = verify_top_row_forms(2, 0, 1)
            assert [i.verdict for i in r.instances] == ["mismatch"]
        finally:
            closedform._canonical_vector.cache_clear()

    def test_residue_out_of_range_raises(self):
        # FamilySpec reads i = 1 as dual: i = 2 must not pass as i = 0
        with pytest.raises(ValueError, match="residue must be 0 or 1"):
            verify_top_row_forms(2, 2, 1)
        with pytest.raises(ValueError, match="residue must be 0 or 1"):
            verify_weyl_stability(2, 2, 1, 1)

    def test_negative_degree_cap_raises(self):
        # a cap below the top row's degree k would skip every instance: no
        # instance checked is no pass
        with pytest.raises(ValueError, match="need max_degree >= k"):
            verify_weyl_stability(1, 0, 1, 1, max_degree=-5)
        with pytest.raises(ValueError, match="got max_degree=1, k=2"):
            verify_weyl_stability(2, 0, 2, 1, max_degree=1)

    def test_degree_cap_skips(self):
        r = verify_weyl_stability(2, 0, 2, 2, max_degree=13)
        verds = [i.verdict for i in r.instances]
        assert "info" in verds  # n = 2 instance exceeds the cap
        assert r.passed


class TestPathFamilies:
    def test_p0k1_clean(self):
        r = verify_path_families(2, "p0k1", 1, 2)
        assert r.passed
        assert all(i.verdict == "match" for i in r.instances)

    def test_negative_n_max_raises(self):
        with pytest.raises(ValueError, match="need n_max >= 0"):
            verify_path_families(2, "p0k1", 1, -1)

    def test_weyl_is_no_path_family(self):
        # the weyl family has no partners and no plain reading to report
        with pytest.raises(ValueError, match="need a path family"):
            verify_path_families(2, "weyl", 1, 1)

    def test_p10k_n0_clean(self):
        r = verify_path_families(2, "p10k", 2, 0)
        assert r.passed

    def test_p10k_flagged_not_hard_mismatch(self):
        r = verify_path_families(2, "p10k", 1, 1)
        verds = {i.verdict for i in r.instances}
        assert "flagged" in verds
        assert r.passed  # flagged entries do not fail the suite

    def test_p010k_n0_corrected_reading(self):
        r = verify_path_families(2, "p010k", 2, 0)
        assert r.passed
        for inst in r.instances:
            assert inst.detail["rule_matches"]["corrected"]


class TestDuality:
    def test_level2(self):
        r = verify_duality(FockContext(2, (0, 1)), 5)
        assert r.passed and all(i.verdict == "match" for i in r.instances)

    def test_level4(self):
        assert verify_duality(FockContext(2, (0, 0, 1, 1)), 5).passed

    @pytest.mark.parametrize("ctx, degree", [
        (symmetric_context(2), 6),
        (FockContext(3, (0, 1, 2)), 7),
        (FockContext(3, (0, 0, 1)), 5),
        (FockContext(4, (0, 1, 3)), 6),
    ])
    def test_images_are_diamond(self, monkeypatch, ctx, degree):
        # the suite reads G(mu) and then G(diamond mu) for every vertex mu;
        # each image it takes along mu's string top is diamond's replay
        element, depth, read = CanonicalBasis.element, [0], []

        def recording(basis, mp):
            if depth[0] == 0:
                read.append(mp)
            depth[0] += 1
            try:
                return element(basis, mp)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(CanonicalBasis, "element", recording)
        assert verify_duality(ctx, degree).passed
        assert sorted(read[::2]) == sorted(verify.generate_crystal(ctx, degree).degrees)
        assert read[1::2] == [diamond(ctx, mp)[1] for mp in read[::2]]


def _reference_problems(ctx, elem, delem):
    """The duality and v^defect details of one instance by the per-term
    route: one LaurentPoly per term, barred, shifted and re-encoded."""
    md = diamond(ctx, elem.label)[1]
    w = elem.weight.defect
    expected = bar_shifted_reference(elem.vector, w, conjugate)
    problems = {}
    if expected != delem.vector:
        problems["duality"] = _difference(expected, delem.vector)
    tops = [lam for lam, c in elem.vector.terms() if c == LaurentPoly.monomial(w)]
    if len(tops) != 1 or tops[0] != conjugate(md):
        problems["v_defect_term"] = [str(t) for t in tops]
    return problems


class TestDualityMismatch:
    # the dual of (0, 1) is the rotation (1, 0): both sides come from one
    # basis.  The dual of e = 3 (0, 0, 1) is (2, 0, 0), which has its own.
    CTX = FockContext(2, (0, 1))
    SEPARATE = FockContext(3, (0, 0, 1))

    def _planted(self, monkeypatch, ctx, plant_ctx, plant_mp, change):
        """verify_duality(ctx, 5) with the element G(plant_mp) of plant_ctx
        replaced by change(G) wherever the suite asks for it; the bases' own
        recursion still reads the true G."""
        element, depth = CanonicalBasis.element, [0]

        def planted(basis, mp):
            depth[0] += 1
            try:
                got = element(basis, mp)
            finally:
                depth[0] -= 1
            if depth[0] == 0 and basis.ctx == plant_ctx and mp == plant_mp:
                return dataclasses.replace(got, vector=change(got.vector))
            return got

        monkeypatch.setattr(CanonicalBasis, "element", planted)
        return verify_duality(ctx, 5)

    def _target(self, ctx):
        basis = CanonicalBasis(ctx)
        for mp in sorted(verify.generate_crystal(ctx, 5).degrees):
            elem = basis.element(mp)
            if elem.weight.defect >= 2 and len(elem.vector) >= 3:
                return elem
        raise AssertionError("no element of defect 2 or more with 3 terms")

    def _check(self, report, ctx, pairs, keys):
        """The mismatches are one per (G(mu), G(diamond mu)) pair, as the
        suite read them, with the per-term route's details; keys[n] are
        the detail keys of the n-th pair's instance."""
        bad = {i.params["mp"]: i for i in report.instances if i.verdict == "mismatch"}
        assert not report.passed
        assert set(bad) == {str(elem.label) for elem, _ in pairs}
        for (elem, delem), want in zip(pairs, keys):
            inst = bad[str(elem.label)]
            assert set(inst.detail) == want
            assert inst.detail == _reference_problems(ctx, elem, delem)
            assert f"  [mismatch] {inst.params}: {inst.detail}" in report.to_text()
        return {mp: inst.detail for mp, inst in bad.items()}

    def _bump(self, elem, md):
        """v at a term of G(md) other than md, and that term."""
        lam = next(mp for mp in elem.vector if mp != md)
        return FockVector([(lam, LaurentPoly.monomial(1))]), lam

    def _assert_bump(self, detail, lam):
        # the difference is the planted v at lam, with lam as nested lists
        assert detail["duality"] == {"symbolic_difference": [
            {"multipartition": [list(c) for c in lam], "coefficient": {"1": 1}}
        ]}

    def test_one_dual_coefficient_changed(self, monkeypatch):
        # G(md) is the dual side of mu's instance and the left side of md's
        # own, whose dual side is G(mu) (diamond is an involution): both fail.
        # The v lands on G(md)'s v^defect term, which md's instance names too
        elem = self._target(self.CTX)
        md = diamond(self.CTX, elem.label)[1]
        assert md != elem.label and diamond(self.CTX, md)[1] == elem.label
        true = CanonicalBasis(self.CTX).element(md)
        bump, lam = self._bump(true, md)
        report = self._planted(monkeypatch, self.CTX, self.CTX, md, lambda v: v + bump)
        planted = dataclasses.replace(true, vector=true.vector + bump)
        details = self._check(
            report, self.CTX, [(elem, planted), (planted, elem)],
            [{"duality"}, {"duality", "v_defect_term"}],
        )
        self._assert_bump(details[str(elem.label)], lam)

    def test_one_dual_coefficient_changed_in_the_dual_basis(self, monkeypatch):
        # a dual basis of its own: the planted G(md) is read once
        elem = self._target(self.SEPARATE)
        dctx, md = diamond(self.SEPARATE, elem.label)
        true = CanonicalBasis(dctx).element(md)
        bump, lam = self._bump(true, md)
        report = self._planted(monkeypatch, self.SEPARATE, dctx, md, lambda v: v + bump)
        planted = dataclasses.replace(true, vector=true.vector + bump)
        details = self._check(report, self.SEPARATE, [(elem, planted)], [{"duality"}])
        self._assert_bump(details[str(elem.label)], lam)

    def test_second_v_defect_term(self, monkeypatch):
        # the planted G(mu) is also the dual side of md's instance
        elem = self._target(self.CTX)
        w = elem.weight.defect
        top = LaurentPoly.monomial(w)
        lam = next(mp for mp in elem.vector if elem.vector.coefficient(mp) != top)
        move = FockVector([(lam, top - elem.vector.coefficient(lam))])
        report = self._planted(monkeypatch, self.CTX, self.CTX, elem.label, lambda v: v + move)
        planted = dataclasses.replace(elem, vector=elem.vector + move)
        md = diamond(self.CTX, elem.label)[1]
        delem = CanonicalBasis(self.CTX).element(md)
        self._check(
            report, self.CTX, [(planted, delem), (delem, planted)],
            [{"duality", "v_defect_term"}, {"duality"}],
        )
        assert len(planted.vector.with_coefficient(top)) == 2


class TestSvelte:
    def test_a1(self):
        r = verify_svelte_step(symmetric_context(1), 9)
        assert r.passed
        assert any(i.verdict == "match" for i in r.instances)

    def test_a2(self):
        assert verify_svelte_step(symmetric_context(2), 9).passed

    @pytest.mark.parametrize("e, charges", [(3, (0, 1, 2)), (3, (0, 0, 1)), (2, (0, 0, 1))])
    def test_length_law_only_in_symmetric_context(self, e, charges):
        # string lengths that are no odd multiple of a_0 occur here (31 of
        # them to degree 9); the svelte and defect checks still pass
        r = verify_svelte_step(FockContext(e, charges), 9)
        assert r.passed
        assert any(i.verdict == "match" for i in r.instances)


class TestStructural:
    def test_a2(self):
        r = verify_structural(2, 7)
        assert r.passed

    def test_a4_classes(self):
        r = verify_structural(4, 6)
        assert r.passed
        first = r.instances[0]
        assert first.params["check"] == "defect-congruences"
        assert first.detail["classes"] == [0, 3, 4]


class TestConjectureScan:
    def test_a1_informational(self):
        r = conjecture_scan(1, 8)
        assert r.passed  # info-only suite can never fail
        assert all(i.verdict == "info" for i in r.instances)
        assert any(i.detail.get("status") == "supported" for i in r.instances)

    def test_supported_instances_record_m(self):
        r = conjecture_scan(2, 6)
        for inst in r.instances:
            if inst.detail.get("status") == "supported":
                m = inst.detail["m"]
                assert inst.params["t"] <= m <= inst.params["t_prime"]

    def test_reduction_error_recorded_other_errors_propagate(self, monkeypatch):
        def fail(exc):
            def element(self, mp):
                raise exc
            return element

        monkeypatch.setattr(CanonicalBasis, "element", fail(ReductionError("broken")))
        r = conjecture_scan(1, 6)
        assert r.instances
        assert all(i.detail == {"oracle_error": "broken"} for i in r.instances)
        for exc in (KeyError("bug"), NotDivisibleError("no longer caught")):
            monkeypatch.setattr(CanonicalBasis, "element", fail(exc))
            with pytest.raises(type(exc)):
                conjecture_scan(1, 6)


    def test_coefficient_overflow_is_an_error_not_unsupported(self, monkeypatch):
        def overflow(ctx, stages):
            raise CoefficientError("the bound reaches 2^62")

        monkeypatch.setattr(verify, "path_monomial", overflow)
        r = conjecture_scan(2, 6)
        assert r.instances
        assert all(i.detail["status"] == "error" for i in r.instances)
        assert all(i.detail["error"] == "the bound reaches 2^62" for i in r.instances)

    def test_stage_error_is_unsupported(self, monkeypatch):
        def no_sum(ctx, stages):
            raise StageError("stage 1 asks for 2 nodes, only 1 addable")

        monkeypatch.setattr(verify, "path_monomial", no_sum)
        r = conjecture_scan(2, 6)
        assert r.instances
        assert all(i.detail["status"] == "unsupported" for i in r.instances)
        assert not any("error" in i.detail for i in r.instances)

    def test_plain_fold_budget_hides_no_corrected_match(self, monkeypatch):
        # the plain fold runs only when M(path) misses the oracle
        def over_budget(ctx, stages, branch_cap=None):
            raise StageError("branch budget exceeded (200001 > 200000)")

        def corrected(report):
            return [i.params for i in report.instances if i.detail.get("rule") == "corrected"]

        expected = corrected(conjecture_scan(2, 10))
        monkeypatch.setattr(verify, "expand_family", over_budget)
        assert expected and corrected(conjecture_scan(2, 10)) == expected


class TestReportShape:
    def test_json_and_text(self):
        r = verify_top_row_forms(2, 0, 1)
        doc = r.to_json()
        json.dumps(doc)  # serializable
        assert doc["suite"] == "top-row"
        assert doc["passed"] is True
        text = r.to_text()
        assert "top-row" in text and "PASS" in text

    def test_deterministic(self):
        a = verify_structural(2, 6)
        b = verify_structural(2, 6)
        assert a.to_json() == b.to_json()
        assert a.to_text() == b.to_text()

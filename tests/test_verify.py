import json

import pytest

from kcb import closedform, verify
from kcb.canonical import CanonicalBasis, ReductionError
from kcb.closedform import StageError
from kcb.fock import CoefficientError, FockContext, symmetric_context
from kcb.laurent import NotDivisibleError
from kcb.verify import (
    conjecture_scan,
    verify_duality,
    verify_top_row_forms,
    verify_path_families,
    verify_structural,
    verify_svelte_step,
    verify_weyl_stability,
)


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
        # every coefficient v^1: the label's is not 1, so no closed form
        # passes its check; the suite records each and goes on
        monkeypatch.setattr(closedform, "inv", lambda s: 1)
        r = verify_weyl_stability(2, 0, 1, 1)
        assert [i.verdict for i in r.instances] == ["mismatch", "mismatch"]
        assert all("is not 1" in i.detail["check"] for i in r.instances)
        r = verify_top_row_forms(2, 0, 1)
        assert [i.verdict for i in r.instances] == ["mismatch"]

    def test_degree_cap_skips(self):
        r = verify_weyl_stability(2, 0, 2, 2, degree_cap=13)
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

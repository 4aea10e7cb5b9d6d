"""Acceptance suite: one test per criterion, exact symbolic equality.

Run with `pytest -v tests/test_acceptance.py` for the per-criterion
pass/fail lines (add -s for the timing prints).
"""

import time
from itertools import combinations, permutations
from math import comb

from kcb.canonical import CanonicalBasis
from kcb.closedform import (
    FamilySpec,
    closed_canonical_family,
    family_label,
    inv,
    shape_fn,
    shape_fn_closed,
    shape_row,
)
from kcb.fock import (
    FockContext,
    FockVector,
    add_node,
    i_node_slots,
    symmetric_context,
)
from kcb.laurent import LaurentPoly
from kcb.partitions import total_size, transpose_each
from kcb.verify import (
    conjecture_scan,
    verify_duality,
    verify_structural,
    verify_svelte_step,
)

from fock_reference import apply_f_divided_iterative, iter_multipartitions, qfact, tau_sum


def _report(criterion, t0, budget, note=""):
    dt = time.perf_counter() - t0
    print(f"[criterion {criterion}] PASS in {dt:.2f}s (budget {budget}s) {note}")
    assert dt < budget, f"criterion {criterion} exceeded its {budget}s budget ({dt:.1f}s)"


def test_criterion_01_golden_example():
    t0 = time.perf_counter()
    elem = CanonicalBasis(FockContext(2, (0, 1))).element(((3,), ()))
    want = FockVector(
        [
            (((3,), ()), LaurentPoly.one()),
            (((1, 1, 1), ()), LaurentPoly.monomial(1)),
            (((1,), (2,)), LaurentPoly.monomial(1)),
            (((1,), (1, 1)), LaurentPoly.monomial(2)),
        ]
    )
    assert elem.vector == want
    _report(1, t0, 1)


def test_criterion_02_top_row_forms():
    t0 = time.perf_counter()
    for a in (1, 2, 3):
        basis = CanonicalBasis(symmetric_context(a))
        for i in (0, 1):
            for k in range(a + 1):
                paper, label = tau_sum(a, i, k, 0)
                closed = closed_canonical_family(FamilySpec("weyl", a, k, 0, i))
                oracle = basis.element(label)
                assert oracle.vector == paper == closed.vector, (a, i, k)
                assert closed.label == label, (a, i, k)
                assert closed.shape == shape_row(a, k) == oracle.shape, (a, i, k)
    _report(2, t0, 10)


def test_criterion_03_weyl_stability():
    t0 = time.perf_counter()
    checked = 0
    for a, n_max in ((1, 2), (2, 2), (3, 1)):
        basis = CanonicalBasis(symmetric_context(a))
        for i in (0, 1):
            for k in range(a + 1):
                for n in range(n_max + 1):
                    paper, label = tau_sum(a, i, k, n)
                    if total_size(label) > 13:
                        continue
                    closed = closed_canonical_family(FamilySpec("weyl", a, k, n, i))
                    oracle = basis.element(label)
                    assert oracle.vector == paper == closed.vector, (a, i, k, n)
                    assert closed.label == label, (a, i, k, n)
                    assert closed.shape == shape_row(a, k) == oracle.shape, (a, i, k, n)
                    checked += 1
    assert checked >= 30
    _report(3, t0, 300, f"({checked} instances)")


def _family_instances(a_n_pairs):
    for a, ns in a_n_pairs:
        for family, kmin in (("p0k1", 1), ("p10k", 1), ("p010k", 2)):
            for k in range(kmin, a + 1):
                for n in ns:
                    for i in (0, 1):
                        yield FamilySpec(family, a, k, n, i)


def test_criterion_04_single_step_families():
    t0 = time.perf_counter()
    failures = []
    for spec in _family_instances([(1, (0,)), (2, (0,)), (3, (0,))]):
        basis = CanonicalBasis(spec.ctx)
        label = family_label(spec)
        oracle = basis.element(label)
        closed = closed_canonical_family(spec)
        if closed.vector != oracle.vector:
            failures.append((spec, label))
    dt = time.perf_counter() - t0
    print(f"[criterion 4] {'PASS' if not failures else 'FAIL'} in {dt:.2f}s "
          f"(budget 60s); mismatching instances: {[ (f.family, f.a, f.k, f.i) for f, _ in failures ]}")
    assert dt < 60
    assert not failures, (
        "partner closed form != recursive element (see README.md, 'Known discrepancies') for: "
        + "; ".join(f"{f.family} a={f.a} k={f.k} i={f.i} label={l}" for f, l in failures)
    )


def test_criterion_05_prop_general_families():
    t0 = time.perf_counter()
    rows = []
    for spec in _family_instances([(1, (1, 2)), (2, (1, 2)), (3, (1,))]):
        basis = CanonicalBasis(spec.ctx)
        label = family_label(spec)
        oracle = basis.element(label)
        closed = closed_canonical_family(spec)
        supp = set(oracle.vector.support())
        rows.append(
            {
                "spec": spec,
                "partner": closed.vector == oracle.vector,
                "defect_ok": oracle.weight.defect == spec.defect,
                "transpose_ok": {transpose_each(m) for m in supp} == supp,
            }
        )
    dt = time.perf_counter() - t0
    defect_bad = [r["spec"] for r in rows if not r["defect_ok"]]
    transpose_bad = [r["spec"] for r in rows if not r["transpose_ok"]]
    unmatched = [r["spec"] for r in rows if not r["partner"]]
    print(f"[criterion 5] {'PASS' if not unmatched else 'FAIL'} "
          f"in {dt:.2f}s (budget 600s); instances={len(rows)}, "
          f"unmatched={[(s.family, s.a, s.k, s.n, s.i) for s in unmatched]}")
    assert dt < 600
    assert not defect_bad, f"defect formula fails for {defect_bad}"
    assert not transpose_bad, f"transpose closure fails for {transpose_bad}"
    assert not unmatched, (
        "the partner reading does not reproduce the recursive element (see README.md, "
        "'Known discrepancies') for: "
        + "; ".join(f"{s.family} a={s.a} k={s.k} n={s.n} i={s.i}" for s in unmatched)
    )


def test_criterion_06_shape_function():
    t0 = time.perf_counter()
    for a in range(1, 11):
        for k in (1, 2, 3):
            if k > a:
                continue
            for ell in range(-1, k * (a - k) + 2):
                assert shape_fn_closed(a, k, ell) == shape_fn(a, k, ell), (a, k, ell)
        for k in range(a + 1):
            assert sum(shape_row(a, k)) == comb(a, k)
    _report(6, t0, 1)


def test_criterion_07_divided_power_law():
    t0 = time.perf_counter()
    contexts = [
        FockContext(2, (0,)),
        FockContext(2, (0, 1)),
        FockContext(2, (0, 0, 1)),
    ]
    checked = 0
    for ctx in contexts:
        for n in range(6):
            for mp in iter_multipartitions(n, ctx.level):
                for i in range(ctx.e):
                    slots = i_node_slots(ctx, mp, i)
                    if not all(isadd for _, isadd in slots):
                        continue
                    adds = [node for node, _ in slots]
                    for ell in range(1, min(3, len(adds)) + 1):
                        got = apply_f_divided_iterative(ctx, FockVector.basis(mp), i, ell)
                        for pos in combinations(range(len(adds)), ell):
                            lam = mp
                            for p in pos:
                                lam = add_node(lam, adds[p])
                            bits = [0] * len(adds)
                            for p in pos:
                                bits[p] = 1
                            assert got.coefficient(lam) == LaurentPoly.monomial(inv(bits))
                            checked += 1
    # MacMahon: sum over S_ell of v^(2 Inv(pi) - C(ell,2)) = [ell]!
    for ell in range(8):
        total = LaurentPoly.zero()
        base = ell * (ell - 1) // 2
        for pi in permutations(range(ell)):
            invs = sum(1 for x, y in combinations(pi, 2) if x > y)
            total = total + LaurentPoly.monomial(2 * invs - base)
        assert total == qfact(ell), ell
    assert checked > 300
    _report(7, t0, 30, f"({checked} coefficients)")


def test_criterion_08_fayers_duality():
    t0 = time.perf_counter()
    for charges in ((0, 1), (0, 0, 1, 1)):
        report = verify_duality(FockContext(2, charges), 8)
        bad = [i for i in report.instances if i.verdict != "match"]
        assert not bad, f"duality failures for charges {charges}: {bad[:3]}"
    _report(8, t0, 300)


def test_criterion_09_svelte_above_defect0():
    t0 = time.perf_counter()
    for a in (1, 2):
        report = verify_svelte_step(symmetric_context(a), 13)
        bad = [i for i in report.instances if i.verdict == "mismatch"]
        assert not bad, f"svelte failures at a={a}: {bad[:3]}"
        assert any(i.verdict == "match" for i in report.instances)
    _report(9, t0, 300)


def test_criterion_10_structural_facts():
    t0 = time.perf_counter()
    for a in (1, 2, 3, 4):
        report = verify_structural(a, 9)
        bad = [i for i in report.instances if i.verdict == "mismatch"]
        assert not bad, f"structural failures at a={a}: {bad[:3]}"
    _report(10, t0, 120)


def test_criterion_11_conjecture_scan():
    t0 = time.perf_counter()
    report = conjecture_scan(3, 13)
    # informational only: every instance reports, none can fail
    assert report.passed
    assert all(i.verdict == "info" for i in report.instances)
    assert len(report.instances) >= 20
    supported = sum(1 for i in report.instances if i.detail.get("status") == "supported")
    _report(11, t0, 900, f"({supported}/{len(report.instances)} supported)")

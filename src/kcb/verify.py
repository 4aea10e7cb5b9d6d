"""Systematic comparison of the closed forms against the recursive
computation, duality checks across dual crystals, structural facts over
generated graphs, and the exploratory stabilized-path scan.

Every suite returns a VerificationReport; mismatches never abort a run,
they are collected so one invocation characterizes a whole statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canonical import CanonicalBasis, ReductionError, is_svelte
from .closedform import (
    PATH_FAMILIES,
    FamilySpec,
    StageError,
    closed_canonical_family,
    defect_congruences,
    expand_family,
    family_label,
    family_vectors,
    path_monomial,
    shape_row,
)
from .crystal import (
    block_reduced,
    e_tilde,
    f_tilde_string,
    generate_crystal,
    is_external,
    residue_collected_path,
    string_steps,
    string_top,
    weight_info,
)
from .fock import CoefficientError, FockContext, FockVector, rotation_class, symmetric_context
from .laurent import LaurentPoly
from .partitions import Multipartition, conjugate, mp_to_json, total_size, transpose_each


@dataclass
class Instance:
    params: dict
    verdict: str  # "match" | "mismatch" | "flagged" | "info"
    detail: dict | None = None


@dataclass
class VerificationReport:
    suite: str
    params: dict
    instances: list[Instance] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(inst.verdict != "mismatch" for inst in self.instances)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for inst in self.instances:
            out[inst.verdict] = out.get(inst.verdict, 0) + 1
        return out

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "passed": self.passed,
            "counts": self.counts(),
            "instances": [
                {"params": i.params, "verdict": i.verdict, "detail": i.detail}
                for i in self.instances
            ],
        }

    def to_text(self) -> str:
        lines = [
            f"suite {self.suite} {self.params}: "
            f"{'PASS' if self.passed else 'FAIL'} {self.counts()}"
        ]
        for i in self.instances:
            if i.verdict in ("mismatch", "flagged"):
                lines.append(f"  [{i.verdict}] {i.params}: {i.detail}")
        return "\n".join(lines) + "\n"


def _difference(expected: FockVector, got: FockVector) -> dict | None:
    delta = got - expected
    if delta.is_zero():
        return None
    # lists, not the tuples to_json keeps, so that to_text prints them as lists
    terms = [{**t, "multipartition": mp_to_json(t["multipartition"])} for t in delta.to_json()]
    return {"symbolic_difference": terms}


def _weyl_spec(a: int, i: int, k: int, n: int) -> FamilySpec:
    if i not in (0, 1):  # FamilySpec reads i = 1 as dual: i = 2 must not pass as 0
        raise ValueError(f"residue must be 0 or 1, got {i}")
    return FamilySpec("weyl", a, k, n, i == 1)


def verify_top_row_forms(a: int, i: int = 0, k: int = 1) -> VerificationReport:
    """Top-row closed form equals the recursive element; shape matches the
    recursive shape function."""
    report = VerificationReport("top-row", {"a": a, "i": i, "k": k})
    try:
        closed = closed_canonical_family(_weyl_spec(a, i, k, 0))
    except ReductionError as exc:
        report.instances.append(Instance({"a": a, "i": i, "k": k}, "mismatch", {"check": str(exc)}))
        return report
    oracle = CanonicalBasis(symmetric_context(a)).element(closed.label)
    detail: dict = {"label": str(closed.label)}
    ok = closed.vector == oracle.vector
    expected_shape = shape_row(a, k)
    shape_ok = closed.shape == expected_shape == oracle.shape
    detail["shape"] = list(closed.shape)
    if not ok:
        detail.update(_difference(oracle.vector, closed.vector) or {})
    if not shape_ok:
        detail["expected_shape"] = list(expected_shape)
    report.instances.append(
        Instance({"a": a, "i": i, "k": k}, "match" if ok and shape_ok else "mismatch", detail)
    )
    return report


def verify_weyl_stability(
    a: int, i: int = 0, k: int = 1, n: int = 1, max_degree: int = 13
) -> VerificationReport:
    """String-reflected top-row elements keep the same coefficients and
    shape, for 0..n strings; labels beyond max_degree are skipped."""
    report = VerificationReport(
        "weyl-stability", {"a": a, "i": i, "k": k, "n_max": n, "degree_cap": max_degree}
    )
    if n < 0:
        raise ValueError(f"need n_max >= 0, got {n}")
    if max_degree < k:  # the top row has degree k and each string adds to it: all skipped
        raise ValueError(f"need max_degree >= k, got max_degree={max_degree}, k={k}")
    basis = CanonicalBasis(symmetric_context(a))
    for strings in range(n + 1):
        try:
            closed = closed_canonical_family(_weyl_spec(a, i, k, strings))
        except ReductionError as exc:
            params = {"a": a, "i": i, "k": k, "n": strings}
            report.instances.append(Instance(params, "mismatch", {"check": str(exc)}))
            continue
        size = total_size(closed.label)
        params = {"a": a, "i": i, "k": k, "n": strings, "degree": size}
        if size > max_degree:
            report.instances.append(Instance(params, "info", {"skipped": "beyond degree cap"}))
            continue
        oracle = basis.element(closed.label)
        ok = closed.vector == oracle.vector and closed.shape == shape_row(a, k) == oracle.shape
        detail = None if ok else (_difference(oracle.vector, closed.vector) or {"shape": list(closed.shape)})
        report.instances.append(Instance(params, "match" if ok else "mismatch", detail))
    return report


def verify_path_families(a: int, family: str = "p0k1", k: int = 1, n: int = 1) -> VerificationReport:
    """Path-family closed forms against the recursive elements.

    Each instance records which raw exponent reading (plain / corrected)
    reproduces the oracle.  Instances in flagged sub-cases never count as
    hard mismatches.  closed_canonical_family, which subtracts the sibling
    families' closed forms, is not reported.
    """
    report = VerificationReport(
        "path-families", {"a": a, "family": family, "k": k, "n_max": n}
    )
    if n < 0:
        raise ValueError(f"need n_max >= 0, got {n}")
    if family not in PATH_FAMILIES:
        raise ValueError(f"need a path family {PATH_FAMILIES}, got {family!r}")
    ctx = symmetric_context(a)
    basis = CanonicalBasis(ctx)
    for dual in (False, True):
        for strings in range(n + 1):
            spec = FamilySpec(family, a, k, strings, dual)
            label = family_label(ctx, spec)
            params = {"a": a, "family": family, "k": k, "n": strings, "dual": dual,
                      "degree": total_size(label)}
            plain, corrected = family_vectors(ctx, spec)
            oracle = basis.element(label)
            match_plain = plain == oracle.vector
            match_corr = corrected == oracle.vector
            detail: dict = {
                "label": str(label),
                "rule_matches": {"plain": match_plain, "corrected": match_corr},
                "flagged_subcase": spec.flagged,
            }
            if strings >= 1:
                expected_defect = (k - 1) * (a - k + 1) + 2 * a
                detail["defect_ok"] = oracle.weight.defect == expected_defect
            supp = set(oracle.vector.support())
            detail["transpose_closed"] = {transpose_each(m) for m in supp} == supp
            ok = (match_corr or match_plain) and detail.get("defect_ok", True) and detail[
                "transpose_closed"
            ]
            if ok:
                verdict = "match"
            elif spec.flagged:
                verdict = "flagged"
                detail.update(_difference(oracle.vector, corrected) or {})
            else:
                verdict = "mismatch"
                detail.update(_difference(oracle.vector, corrected) or {})
            report.instances.append(Instance(params, verdict, detail))
    return report


def verify_duality(ctx: FockContext, max_degree: int = 8) -> VerificationReport:
    """The conjugate/diamond duality across the dual pair of crystals, plus
    the defect-0 and defect-1 characterizations and the uniqueness of the
    v^defect term.

    When ctx.dual() lies in ctx's rotation_class (its charges are ctx's
    shifted by one constant, as for symmetric_context(a)), both contexts
    hold the same G(lam) at every vertex, so one basis serves both sides;
    each instance still compares two elements G(mu) and G(diamond mu),
    each reduced from its own seed.  Otherwise the dual side has its own
    basis.  Vertices are visited by degree, so the image of mu's string
    top is known: mu's residue-collected path is its top's followed by
    (i, k), and diamond(ctx, mu) is f~_(-i)^k of that image."""
    report = VerificationReport(
        "duality", {"e": ctx.e, "charges": list(ctx.charges), "max_degree": max_degree}
    )
    dctx = ctx.dual()
    basis = CanonicalBasis(ctx)
    dual_basis = basis if rotation_class(dctx) == rotation_class(ctx) else CanonicalBasis(dctx)
    images: dict[Multipartition, Multipartition] = {}
    conjugates: dict[Multipartition, Multipartition] = {}

    def conj(mp: Multipartition) -> Multipartition:
        got = conjugates.get(mp)
        if got is None:
            got = conjugates[mp] = conjugate(mp)
        return got

    g = generate_crystal(ctx, max_degree)
    for mp, deg in sorted(g.degrees.items(), key=lambda kv: (kv[1], kv[0])):
        elem = basis.element(mp)
        step = string_top(ctx, mp)
        if step is None:
            md = dctx.highest_weight_vertex()
        else:
            i, k, top = step
            md = f_tilde_string(dctx, images[top], (-i) % ctx.e, k)
        images[mp] = md
        delem = dual_basis.element(md)
        w = elem.weight.defect
        expected = elem.vector.bar_shifted(w, conj)
        problems = {}
        if expected != delem.vector:
            problems["duality"] = _difference(expected, delem.vector)
        tops = elem.vector.with_coefficient(LaurentPoly.monomial(w))
        if len(tops) != 1 or tops[0] != conj(md):
            problems["v_defect_term"] = [str(t) for t in tops]
        if w == 0 and not (
            elem.vector == FockVector.basis(mp) and mp == conj(md)
        ):
            problems["defect0"] = str(md)
        if w == 1:
            want = FockVector([(mp, LaurentPoly.one()), (conj(md), LaurentPoly.monomial(1))])
            if elem.vector != want:
                problems["defect1"] = _difference(want, elem.vector)
        report.instances.append(
            Instance(
                {"mp": str(mp), "degree": deg, "defect": w},
                "match" if not problems else "mismatch",
                problems or None,
            )
        )
    return report


def verify_svelte_step(ctx: FockContext, max_degree: int = 13) -> VerificationReport:
    """Above every defect-0 bottom end of an i-string, the single-step-up
    element is svelte with defect one less than the string length.  In a
    symmetric context (e = 2, a_0 = a_1 = a) the length is also an odd
    multiple of a; that law is checked there only."""
    report = VerificationReport(
        "svelte", {"e": ctx.e, "charges": list(ctx.charges), "max_degree": max_degree}
    )
    mult = ctx.weight_multiplicities
    a = mult[0] if ctx.e == 2 and mult[0] == mult[1] else None
    basis = CanonicalBasis(ctx)
    g = generate_crystal(ctx, max_degree)
    bg = block_reduced(g)
    for cont, info in bg.weights.items():
        if info.defect != 0:
            continue
        for i in range(ctx.e):
            if string_steps(bg, cont, i, 1):
                continue  # not the bottom end of its i-string
            length = string_steps(bg, cont, i, -1)
            params = {"content": list(cont), "i": i, "string_length": length}
            if length == 0:
                report.instances.append(Instance(params, "info", {"trivial": True}))
                continue
            verts = g.by_content()[cont]
            problems = {}
            if len(verts) != 1:
                problems["defect0_dimension"] = len(verts)
            else:
                mu = e_tilde(ctx, verts[0], i)
                if mu is None:
                    problems["no_step_up"] = True
                else:
                    elem = basis.element(mu)
                    if not is_svelte(elem):
                        problems["not_svelte"] = list(elem.shape)
                    if elem.weight.defect != length - 1:
                        problems["defect"] = elem.weight.defect
                    if a is not None and (length % a != 0 or (length // a) % 2 != 1):
                        problems["length_form"] = length
            report.instances.append(
                Instance(params, "match" if not problems else "mismatch", problems or None)
            )
    return report


KNOWN_CONGRUENCE_CLASSES = {1: {0}, 2: {0, 1}, 3: {0, 2}, 4: {0, 3, 4}}


def verify_structural(a: int, max_degree: int = 9) -> VerificationReport:
    """Defect congruence classes, the (k,1)/(1,k) weight-space dimensions,
    and the hub/string-length law over a generated symmetric graph."""
    report = VerificationReport("structural", {"a": a, "max_degree": max_degree})
    ctx = symmetric_context(a)
    g = generate_crystal(ctx, max_degree)
    bg = block_reduced(g)

    classes = defect_congruences(a)
    bad = sorted(
        {bg.weights[c].defect % (2 * a) for c in bg.weights} - classes
    )
    detail: dict = {"classes": sorted(classes)}
    if a in KNOWN_CONGRUENCE_CLASSES and classes != KNOWN_CONGRUENCE_CLASSES[a]:
        bad.append(f"class table mismatch: {sorted(classes)}")
    report.instances.append(
        Instance(
            {"check": "defect-congruences", "a": a},
            "match" if not bad else "mismatch",
            detail if not bad else {**detail, "violations": bad},
        )
    )

    for k in range(1, a + 1):
        for cont in ((k, 1), (1, k)):
            if k + 1 > max_degree:
                continue
            dim = bg.dims.get(cont)
            want = 2 if k == 1 else 3
            report.instances.append(
                Instance(
                    {"check": "weight-dimension", "content": list(cont)},
                    "match" if dim == want else "mismatch",
                    {"dimension": dim, "expected": want},
                )
            )

    for cont, info in bg.weights.items():
        for i in range(ctx.e):
            if string_steps(bg, cont, i, -1):
                continue  # not the top of its i-string
            h = info.hub[i]
            params = {"check": "hub-string", "content": list(cont), "i": i, "hub": h}
            if h < 0:
                report.instances.append(Instance(params, "mismatch", {"negative_hub_at_top": h}))
                continue
            if sum(cont) + h + 1 > max_degree:
                report.instances.append(Instance(params, "info", {"skipped": "string truncated"}))
                continue
            steps = string_steps(bg, cont, i, 1)
            ok = steps == h
            report.instances.append(
                Instance(params, "match" if ok else "mismatch", None if ok else {"steps": steps})
            )
    return report


def conjecture_scan(a: int, max_degree: int = 13) -> VerificationReport:
    """Exploratory scan: for every external weight and every vertex there,
    test whether the staged sums of its residue-collected path (the
    corrected divided-power monomial, then the plain inversion sum)
    reproduce the recursive element.  Reports the smallest number m of
    choice stages the path allows and whether it lies in the conjectured
    window [t, t'].  Informational only; instances never fail."""
    report = VerificationReport("conjecture-scan", {"a": a, "max_degree": max_degree})
    ctx = symmetric_context(a)
    basis = CanonicalBasis(ctx)
    g = generate_crystal(ctx, max_degree)
    bg = block_reduced(g)
    for cont in bg.weights:
        if cont == (0,) * ctx.e or not is_external(bg, cont):
            continue
        for mp in g.by_content()[cont]:
            path = residue_collected_path(ctx, mp)
            w = len(path)
            cum = [0] * ctx.e
            defects = []
            for i, mult in path:
                cum[i] += mult
                defects.append(weight_info(ctx, tuple(cum)).defect)
            t = w
            while t > 1 and defects[t - 2] == defects[-1]:
                t -= 1
            cum2 = [0] * ctx.e
            tprime = w
            for idx, (i, mult) in enumerate(path, start=1):
                cum2[i] += mult
                if idx >= t and is_external(bg, tuple(cum2)):
                    tprime = idx
                    break
            params = {
                "content": list(cont),
                "mp": str(mp),
                "defects": defects,
                "t": t,
                "t_prime": tprime,
            }
            try:
                oracle = basis.element(mp)
            except ReductionError as exc:  # keep scanning
                report.instances.append(Instance(params, "info", {"oracle_error": str(exc)}))
                continue
            # with every count explicit, a truncation m only asks that the
            # stages after m be full, and every m that passes gives the
            # same sums: the smallest is path_monomial's m
            found_m = found_rule = error = None
            try:  # the plain fold only when M(path) misses: its budget hides no match
                corrected, _, m = path_monomial(ctx, path)
                if corrected == oracle.vector:
                    found_m, found_rule = m, "corrected"
                elif FockVector(dict(expand_family(ctx, path, branch_cap=200_000))) == oracle.vector:
                    found_m, found_rule = m, "plain"
            except StageError:
                pass  # no staged sum, or none within the branch budget: unsupported
            except CoefficientError as exc:  # a sum too large to decode: no verdict
                error = str(exc)
            status = "supported" if found_m is not None else "unsupported"
            detail = {
                "status": "error" if error else status,
                "m": found_m,
                "rule": found_rule,
                "within_window": found_m is not None and t <= found_m <= tprime,
            }
            if error:
                detail["error"] = error
            report.instances.append(Instance(params, "info", detail))
    return report


# `kcb verify --suite NAME` runs SUITES[NAME] and reads its signature: the
# first parameter, a or ctx, is the context (--a, or --e with --charges);
# every other is the verify option of its name, and its default is the
# command's
SUITES = {
    "top-row": verify_top_row_forms,
    "weyl": verify_weyl_stability,
    "families": verify_path_families,
    "duality": verify_duality,
    "svelte": verify_svelte_step,
    "structural": verify_structural,
    "conjecture": conjecture_scan,
}

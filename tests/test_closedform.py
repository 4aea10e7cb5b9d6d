import pytest

from kcb import closedform
from kcb.canonical import CanonicalBasis, ReductionError
from kcb.cli import main
from kcb.closedform import (
    ChoiceSequence,
    FamilySpec,
    StageError,
    choice_sequences,
    closed_canonical_family,
    defect_congruences,
    expand_family,
    family_label,
    family_stages,
    family_term,
    family_vectors,
    inv,
    path_monomial,
    shape_fn,
    shape_fn_closed,
    shape_row,
    shape_table,
    small_defect_families,
    tau,
)
from kcb.crystal import (
    block_reduced,
    generate_crystal,
    is_external,
    residue_collected_path,
    weight_info,
)
from kcb.fock import FockVector, addable_count, apply_f_divided, content, symmetric_context
from kcb.laurent import LaurentPoly
from kcb.partitions import total_size, transpose_each, triangular

from fock_reference import expand_family_branches, tau_sum


def S(*bits):
    return ChoiceSequence(tuple(bits))


def gaussian_binomial(a, k):
    """The coefficients of [a choose k]_q, one factor of the product at a
    time: after factor j it is [a-k+j choose j]_q, so each division by
    1 - q^j is exact."""
    poly = [1]
    for j in range(1, k + 1):
        m = a - k + j
        out = poly + [0] * m
        for d, c in enumerate(poly):
            out[d + m] -= c
        for d in range(j, len(out)):
            out[d] += out[d - j]
        assert out[len(out) - j:] == [0] * j
        poly = out[: len(out) - j]
    return tuple(poly)


class TestInv:
    def test_examples(self):
        assert inv(S(0, 0, 1)) == 2
        assert inv(S(1, 1, 0, 0)) == 0
        assert inv(S(0, 1, 0, 1)) == 3

    def test_plain_tuples(self):
        assert inv((0, 1)) == 1


class TestChoiceSequences:
    def test_three_choose_one(self):
        assert [s.bits for s in choice_sequences(3, 1)] == [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        ]

    def test_zero_ones(self):
        assert [s.bits for s in choice_sequences(4, 0)] == [(0, 0, 0, 0)]

    def test_inversion_multiset(self):
        got = sorted(inv(s) for s in choice_sequences(4, 2))
        assert got == [0, 1, 2, 2, 3, 4]

    def test_range_check(self):
        with pytest.raises(ValueError):
            choice_sequences(2, 3)


class TestShapeFn:
    def test_base_cases(self):
        assert shape_fn(1, 0, 0) == 1
        assert shape_fn(1, 1, 0) == 1

    def test_k1_constant(self):
        for ell in range(3):
            assert shape_fn(3, 1, ell) == 1
        assert shape_fn(3, 1, 3) == 0

    def test_42_row(self):
        assert shape_row(4, 2) == (1, 1, 2, 1, 1)

    def test_matches_inversion_histogram(self):
        for a in range(1, 9):
            for k in range(a + 1):
                hist = [0] * (k * (a - k) + 1)
                for s in choice_sequences(a, k):
                    hist[inv(s)] += 1
                assert shape_row(a, k) == tuple(hist)

    def test_row_sums_are_binomials(self):
        from math import comb

        for a in range(1, 11):
            for k in range(a + 1):
                assert sum(shape_row(a, k)) == comb(a, k)

    def test_symmetry_k_le_2(self):
        for a in range(1, 11):
            for k in (1, 2):
                if k > a:
                    continue
                d = k * (a - k)
                for ell in range(d + 1):
                    assert shape_fn(a, k, ell) == shape_fn(a, k, d - ell)

    def test_symmetry_k3_observed(self):
        # the k = 3 case pointwise through shape_fn; every row of the
        # table is checked below
        for a in range(3, 11):
            d = 3 * (a - 3)
            assert all(
                shape_fn(a, 3, ell) == shape_fn(a, 3, d - ell) for ell in range(d + 1)
            )

    def test_rows_are_palindromic(self):
        # reversing a sequence of S(a, k) maps inv to k(a-k) - inv
        for a in range(1, 41):
            for k, row in shape_table(a).items():
                assert row == row[::-1], (a, k)

    def test_matches_gaussian_binomial(self):
        # sum_l s(a, k, l) q^l = prod_j (1 - q^(a-k+j)) / (1 - q^j), j = 1..k
        for a in range(1, 41):
            for k, row in shape_table(a).items():
                assert row == gaussian_binomial(a, k), (a, k)

    def test_zero_outside_the_rows(self):
        assert shape_fn(0, 0, 0) == 0
        assert shape_fn(3, -1, 0) == shape_fn(3, 4, 0) == 0
        assert shape_fn(4, 2, -1) == shape_fn(4, 2, 5) == 0
        assert shape_fn(4, 2, 4) == 1

    @pytest.mark.parametrize("a", [0, -1])
    def test_table_needs_a_at_least_one(self, a):
        # a = 0 once printed a table for a weight that does not exist
        with pytest.raises(ValueError, match="need a >= 1"):
            shape_table(a)


class TestShapeClosedForms:
    def test_k2_example(self):
        assert shape_fn_closed(4, 2, 2) == 2

    def test_k1(self):
        for a in range(1, 11):
            for ell in range(a):
                assert shape_fn_closed(a, 1, ell) == 1

    def test_530(self):
        assert shape_fn_closed(5, 3, 0) == 1

    def test_matches_recursion(self):
        for a in range(1, 11):
            for k in (1, 2, 3):
                if k > a:
                    continue
                for ell in range(-1, k * (a - k) + 2):
                    assert shape_fn_closed(a, k, ell) == shape_fn(a, k, ell)

    def test_k_range(self):
        with pytest.raises(ValueError):
            shape_fn_closed(5, 4, 0)


class TestTau:
    def test_middle_term(self):
        got = tau(3, 0, 0, S(0, 1, 0))
        assert got == ((), (1,), (), (), (), ())

    def test_n1(self):
        got = tau(3, 0, 1, S(1, 0, 0))
        assert got == (triangular(2), (), (), (1,), (1,), (1,))

    def test_a1(self):
        assert tau(1, 0, 1, S(1)) == (triangular(2), (1,))

    def test_residue_one(self):
        got = tau(2, 1, 0, S(1, 0))
        assert got == ((), (), (1,), ())

    @pytest.mark.parametrize("i", [True, 1.0, "1"])
    def test_residue_must_be_an_int(self, i):
        with pytest.raises(TypeError):
            tau(2, i, 1, S(1, 0))

    def test_residue_out_of_range(self):
        with pytest.raises(ValueError, match="residue must be 0 or 1, got 2"):
            tau(2, 2, 1, S(1, 0))

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="choice sequence must have length"):
            tau(2, 0, 1, S(1, 0, 0))


def weyl(a, i, k, n):
    return closed_canonical_family(FamilySpec("weyl", a, k, n, i))


class TestClosedTop:
    @pytest.mark.parametrize("a,k", [(2, 1), (1, 0)])
    def test_negative_n_raises(self, a, k):
        with pytest.raises(ValueError, match="need n >= 0"):
            FamilySpec("weyl", a, k, -1)

    @pytest.mark.parametrize("k", [-1, 3])
    def test_k_out_of_range_raises(self, k):
        with pytest.raises(ValueError, match=rf"^need 0 <= k <= a, got k={k}, a=2$"):
            FamilySpec("weyl", 2, k)

    @pytest.mark.parametrize("family,a,k,n", [
        ("weyl", True, 1, 0), ("weyl", 2, 1, True), ("p0k1", 2, 1.0, 0),
        ("weyl", 2.0, 1, 0), ("p10k", 2, 1, 1.0),
    ])
    def test_non_int_parameter_refused(self, family, a, k, n):
        # FamilySpec("weyl", True, 1) once built G for a = 1, and a float k
        # died inside the builder on a slice index
        with pytest.raises(TypeError):
            FamilySpec(family, a, k, n)

    @pytest.mark.parametrize("i", ["no", True, 1.0])
    def test_non_int_residue_refused(self, i):
        # a residue read by truth once built the i = 1 element for "no"
        with pytest.raises(TypeError):
            FamilySpec("weyl", 2, 1, 0, i)

    @pytest.mark.parametrize("i", [2, -1])
    def test_residue_out_of_range_refused(self, i):
        with pytest.raises(ValueError, match="residue must be 0 or 1"):
            FamilySpec("weyl", 2, 1, 0, i)

    def test_context_is_read_off_the_spec(self):
        assert FamilySpec("p10k", 2, 1, 1, 1).ctx == symmetric_context(2)

    def test_a3_display(self):
        elem = weyl(3, 0, 1, 0)
        assert elem.vector == FockVector(
            [
                ((((1,), (), (), (), (), ())), LaurentPoly.one()),
                ((((), (1,), (), (), (), ())), LaurentPoly.monomial(1)),
                ((((), (), (1,), (), (), ())), LaurentPoly.monomial(2)),
            ]
        )

    def test_k0_is_highest_weight(self):
        elem = weyl(2, 0, 0, 0)
        assert elem.vector == FockVector.basis(((),) * 4)

    def test_k_equals_a(self):
        elem = weyl(2, 0, 2, 0)
        assert len(elem.vector) == 1
        assert elem.weight.defect == 0

    def test_matches_oracle(self):
        for a in (1, 2, 3):
            basis = CanonicalBasis(symmetric_context(a))
            for i in (0, 1):
                for k in range(a + 1):
                    elem = weyl(a, i, k, 0)
                    assert elem.vector == basis.element(elem.label).vector
                    assert elem.shape == shape_row(a, k)


class TestClosedWeyl:
    def test_degree_jump(self):
        # one Weyl step from tau^0 at a=3, k=1 adds the 2k+a = 5 string
        e0 = weyl(3, 0, 1, 0)
        e1 = weyl(3, 0, 1, 1)
        assert total_size(e1.label) - total_size(e0.label) == 5

    def test_matches_oracle_small(self):
        basis = CanonicalBasis(symmetric_context(2))
        for i in (0, 1):
            for k in range(3):
                for n in (0, 1):
                    elem = weyl(2, i, k, n)
                    assert elem.vector == basis.element(elem.label).vector
                    assert elem.shape == shape_row(2, k)

    def test_string_node_counts(self):
        # tau^n has k(n+2) + (a-k)n + a(n+1) addable nodes of the next residue
        for a, k in ((2, 1), (3, 1), (3, 2)):
            ctx = symmetric_context(a)
            for n in (0, 1, 2):
                elem = weyl(a, 0, k, n)
                nxt = 1 if n % 2 == 0 else 0
                count = addable_count(ctx, elem.label, nxt)
                assert count == k * (n + 2) + (a - k) * n + a * (n + 1), (a, k, n)

    def test_forms_are_path_monomials(self):
        # the weyl family is the top row's i-string of k, then n strings
        # filled to the end, alternating from 1 - i, and its monomial is the
        # paper's tau-sum: each filled string leaves the coefficients as they
        # are (Kashiwara's divided-power rule, Duke Math. J. 69, 1993)
        checked = 0
        for a in range(1, 9):
            for i in (0, 1):
                for k in range(a + 1):
                    for n in range(4 if a <= 6 else 2):
                        spec = FamilySpec("weyl", a, k, n, i)
                        assert family_stages(spec) == [(i, k)] + [
                            ((1 - i + j) % 2, None) for j in range(n)
                        ]
                        vec, label = tau_sum(a, i, k, n)
                        elem = closed_canonical_family(spec)
                        assert (elem.vector, elem.label) == (vec, label), (a, i, k, n)
                        checked += 1
        assert checked == 284


class TestPiTerms:
    def test_pi0_p0k1_examples(self):
        spec = FamilySpec("p0k1", 1, 1, 0)
        # j_2 = 3 among the three addable 1-nodes
        mp, _, e = family_term(spec, [S(1), S(0, 0, 1)])
        assert mp == ((1,), (1,)) and e == 2
        mp, _, e = family_term(spec, [S(1), S(1, 0, 0)])
        assert mp == ((2,), ()) and e == 0
        mp, _, e = family_term(spec, [S(1), S(0, 1, 0)])
        assert mp == ((1, 1), ()) and e == 1

    def test_pi0_p10k_example(self):
        spec = FamilySpec("p10k", 1, 1, 0)
        mp, _, e = family_term(spec, [S(1), S(0, 1, 0)])
        assert mp == ((), (2,)) and e == 1
        mp, _, e = family_term(spec, [S(1), S(1, 0, 0)])
        assert mp == ((1,), (1,)) and e == 0

    def test_pin_family_a_examples(self):
        spec = FamilySpec("p0k1", 1, 1, 1)
        mp, _, e = family_term(spec, [S(1), S(1, 1, 0)])  # single 0 in position j_2 = 3
        assert mp == ((2, 1), ()) and e == 0
        mp, _, e = family_term(spec, [S(1), S(1, 0, 1)])
        assert mp == ((2,), (1,)) and e == 1
        mp, _, e = family_term(spec, [S(1), S(0, 1, 1)])
        assert mp == ((1, 1), (1,)) and e == 2

    def test_flagged_subcase_readings_differ(self):
        spec = FamilySpec("p10k", 2, 1, 1)
        # S_2 = (1,0|0,0) then omitting the middle addable reaches the
        # inconsistent printed rows: plain and corrected exponents differ
        mp, ep, ec = family_term(spec, [S(1, 0), S(1, 0, 0, 0), S(1, 0, 1)])
        assert ec == 0 and mp == ((2,), (), (1,), (1,))
        assert ep == 1

    def test_pi_validation(self):
        spec = FamilySpec("p0k1", 2, 1, 0)
        with pytest.raises(ValueError):
            family_term(spec, [S(1, 0), S(1, 0)])  # wrong length at stage 2

    def test_every_branch(self):
        # every branch of the per-branch reference, whose nodes and terms
        # share no code with kcb.fock: family_term at its choice sequences
        # gives its multipartition, plain and corrected exponent
        checked = 0
        for a in range(1, 4):
            ctx = symmetric_context(a)
            weyl_specs = [
                FamilySpec("weyl", a, k, n, i)
                for k in range(a + 1) for n in (0, 1) for i in (0, 1)
            ]
            for spec in weyl_specs + family_specs(a, 1):
                stages = family_stages(spec)
                m = sum(mult is not None for _, mult in stages)
                for mp, ep, ec, picks in expand_family_branches(ctx, stages, m):
                    assert family_term(spec, picks) == (mp, ep, ec), (spec, picks)
                    checked += 1
        assert checked == 2074  # 96 specs


class TestClosedFamilies:
    def test_p0k1_n1_a1(self):
        spec = FamilySpec("p0k1", 1, 1, 1)
        elem = closed_canonical_family(spec)
        assert elem.vector == FockVector(
            [
                (((2, 1), ()), LaurentPoly.one()),
                (((2,), (1,)), LaurentPoly.monomial(1)),
                (((1, 1), (1,)), LaurentPoly.monomial(2)),
            ]
        )
        assert elem.label == ((2, 1), ())

    def test_p10k_n0_a1(self):
        spec = FamilySpec("p10k", 1, 1, 0)
        elem = closed_canonical_family(spec)
        basis = CanonicalBasis(symmetric_context(1))
        assert elem.vector == basis.element(((1,), (1,))).vector

    def test_top_row_a3_is_oracle(self):
        spec = FamilySpec("p0k1", 3, 1, 0)
        elem = closed_canonical_family(spec)
        basis = CanonicalBasis(symmetric_context(3))
        assert elem.vector == basis.element(elem.label).vector

    @pytest.fixture
    def flipped_p10k_partner(self, monkeypatch):
        # -[a-1] in place of [a-1]: at a = 2 the p10k closed form is then
        # M(p10k) + G(p0k1) = G(p10k) + 2 G(p0k1), which fails the checks of G
        real = closedform._partners

        def flipped(spec):
            return [(f, -c if spec.family == "p10k" else c) for f, c in real(spec)]

        monkeypatch.setattr(closedform, "_partners", flipped)

    def test_wrong_partner_fails_the_element_check(self, flipped_p10k_partner):
        with pytest.raises(ReductionError):
            closed_canonical_family(FamilySpec("p10k", 2, 1, 1))

    def test_wrong_partner_exits_1(self, capsys, flipped_p10k_partner):
        code = main(["closed-form", "--family", "p10k", "--a", "2", "--k", "1", "--n", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("kcb: G(") and captured.err.count("\n") == 1

    def test_p010k_needs_k2(self):
        with pytest.raises(ValueError):
            FamilySpec("p010k", 2, 1, 0)

    def test_known_discrepancy_p10k_n1_a2(self):
        # regression pin for the recorded conflict: the staged monomial sum
        # exceeds the recursive element by exactly the canonical element of
        # the p0k1 label at the same weight (its partner, coefficient [a-1] = 1)
        ctx = symmetric_context(2)
        basis = CanonicalBasis(ctx)
        spec = FamilySpec("p10k", 2, 1, 1)
        label = family_label(spec)
        plain, corrected = family_vectors(spec)
        oracle = basis.element(label)
        assert plain != oracle.vector and corrected != oracle.vector
        other = basis.element(((2, 1), (), (1,), ()))
        assert corrected == oracle.vector + other.vector

    @pytest.mark.parametrize("a", [3, 4, 5])
    def test_partner_reading_is_oracle_beyond_acceptance_ranges(self, a):
        basis = CanonicalBasis(symmetric_context(a))
        checked = 0
        for family, kmin in (("p0k1", 1), ("p10k", 1), ("p010k", 2)):
            for k in range(kmin, a + 1):
                for n in range({3: 4, 4: 4, 5: 2}[a]):
                    for i in (0, 1):
                        spec = FamilySpec(family, a, k, n, i)
                        elem = closed_canonical_family(spec)
                        assert elem.vector == basis.element(elem.label).vector, spec
                        checked += 1
        assert checked == {3: 64, 4: 88, 5: 56}[a]

    def test_partner_reading_needs_no_recursive_basis(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("closed_canonical_family called CanonicalBasis")

        for name, attr in vars(CanonicalBasis).items():
            if callable(attr) and not name.startswith("__"):
                monkeypatch.setattr(CanonicalBasis, name, refuse)
        elem = closed_canonical_family(FamilySpec("p010k", 3, 3, 1))
        assert elem.vector.coefficient(elem.label) == LaurentPoly.one()

    def test_transpose_closure_on_oracle_families(self):
        ctx = symmetric_context(2)
        basis = CanonicalBasis(ctx)
        for k in (1, 2):
            for i in (0, 1):
                spec = FamilySpec("p0k1", 2, k, 1, i)
                elem = closed_canonical_family(spec)
                supp = set(elem.vector.support())
                assert {transpose_each(m) for m in supp} == supp
                assert elem.vector == basis.element(elem.label).vector


def family_specs(a, n_max):
    return [
        FamilySpec(family, a, k, n, i)
        for family, kmin in (("p0k1", 1), ("p10k", 1), ("p010k", 2))
        for k in range(kmin, a + 1)
        for n in range(n_max + 1)
        for i in (0, 1)
    ]


class TestStagePath:
    def test_corrected_sum_is_stage_path_monomial(self):
        # the corrected staged sum is the divided-power monomial of the
        # family's own stage path; a None stage fills every addable node
        checked = 0
        for a in range(1, 5):
            ctx = symmetric_context(a)
            for spec in family_specs(a, 2):
                vec = FockVector.basis(ctx.highest_weight_vertex())
                for i, mult in family_stages(spec):
                    if mult is None:
                        (mult,) = {addable_count(ctx, mp, i) for mp, _ in vec.terms()}
                    vec = apply_f_divided(ctx, vec, i, mult)
                assert family_vectors(spec)[1] == vec, spec
                checked += 1
        assert checked == 156

    def test_each_sibling_built_once(self, monkeypatch):
        # one monomial per family a call subtracts from (a = k = 3, so no
        # partner coefficient is [0]), the p0k1 partner that p010k and p10k
        # share built once; a second, identical call keeps nothing of the
        # first and builds them all again
        builds = []
        real = closedform.path_monomial

        def counting(ctx, stages):
            builds.append(tuple(stages))
            return real(ctx, stages)

        monkeypatch.setattr(closedform, "path_monomial", counting)
        for family, n, built in (
            ("p010k", 1, 3), ("p010k", 2, 3), ("p010k", 0, 2), ("p10k", 1, 2), ("p10k", 2, 2),
            ("p10k", 0, 1), ("p0k1", 1, 1), ("weyl", 1, 1),
        ):
            spec = FamilySpec(family, 3, 3, n)
            builds.clear()
            closed_canonical_family(spec)
            assert len(builds) == len(set(builds)) == built, spec
            closed_canonical_family(spec)
            assert builds == builds[:built] * 2, spec

    def test_fill_stage_terms_disagree(self):
        # after f_0 f_1 at a = 1 the three terms have one or two addable
        # 0-nodes, so a fill stage has no single count
        ctx = symmetric_context(1)
        stages = [(0, 1), (1, 1), (0, None)]
        with pytest.raises(StageError, match="disagree"):
            path_monomial(ctx, stages)
        with pytest.raises(ValueError, match="different weights"):
            expand_family_branches(ctx, stages, 2)


def reference_sums(branches):
    """The plain and the corrected sum of expand_family_branches' branches."""
    return tuple(
        FockVector((b[0], LaurentPoly.monomial(b[pick])) for b in branches) for pick in (1, 2)
    )


def folds_like_branches(ctx, stages, branch_cap=None):
    """The plain fold and the monomial against the per-branch reference
    truncated at each m = 1..len(stages), branch_cap bounding only the
    reference's branches: the reference expands at some m exactly when
    both build, path_monomial's m is the smallest such m, every larger m
    expands too, and at each of them the reference's plain and corrected
    sums are the fold's and the monomial.  Returns the number of m at
    which the reference expanded."""
    refs = {}
    for m in range(1, len(stages) + 1):
        try:
            refs[m] = expand_family_branches(ctx, stages, m, branch_cap)
        except ValueError:
            pass
    try:
        monomial, path, m = path_monomial(ctx, stages)
        terms = expand_family(ctx, path)
    except ValueError:
        assert not refs, stages
        return 0
    assert list(refs) == list(range(m, len(stages) + 1)), (stages, m)
    assert len({mp for mp, _ in terms}) == len(terms)
    for branches in refs.values():
        assert reference_sums(branches) == (FockVector(dict(terms)), monomial), stages
    return len(refs)


class TestFoldReference:
    def test_family_specs(self):
        checked = 0
        for a in range(1, 5):
            ctx = symmetric_context(a)
            for spec in family_specs(a, 2):
                checked += folds_like_branches(ctx, family_stages(spec)) > 0
        assert checked == 156

    @pytest.mark.parametrize("a,degree,tried,expanded", [(2, 14, 110, 48), (3, 13, 64, 34)])
    def test_conjecture_scan_paths(self, a, degree, tried, expanded):
        # the path of each vertex of an external weight, as the scan
        # walks them, m = 1..len(path); no path reaches the reference's
        # cap of 200,000 branches
        ctx = symmetric_context(a)
        g = generate_crystal(ctx, degree)
        bg = block_reduced(g)
        paths = [
            residue_collected_path(ctx, mp)
            for cont in bg.weights
            if any(cont) and is_external(bg, cont)
            for mp in g.by_content()[cont]
        ]
        assert sum(map(len, paths)) == tried
        assert sum(folds_like_branches(ctx, list(path), 200_000) for path in paths) == expanded

    def test_branch_cap_counts_branches(self):
        # four choice stages and a full string: branches merge, so the
        # fold has fewer terms than the reference has branches, which its
        # cap counts
        ctx = symmetric_context(3)
        stages = family_stages(FamilySpec("p010k", 3, 3, 2))
        _, path, _ = path_monomial(ctx, stages)
        count = len(expand_family_branches(ctx, stages, len(stages)))
        assert len(expand_family(ctx, path)) < count - 1
        assert folds_like_branches(ctx, stages, branch_cap=count)

    def test_stage_asking_for_too_many_nodes(self):
        # the highest weight vertex at a = 1 has one addable 0-node
        ctx = symmetric_context(1)
        with pytest.raises(StageError, match="only 1 addable"):
            path_monomial(ctx, [(0, 2)])
        with pytest.raises(StageError, match="only 1 addable"):
            expand_family(ctx, [(0, 2)])


class TestDefectHelpers:
    def test_spec_defect_is_the_label_defect(self):
        # the abstract's claim, k(a-k) for weyl and k'(a-k') + 2a with
        # k' = k - 1 for the path families, on every spec at a <= 6, n <= 2
        assert FamilySpec("weyl", 3, 1).defect == 2
        assert FamilySpec("weyl", 4, 2).defect == 4
        assert FamilySpec("p0k1", 3, 1, 0, 1).defect == 6
        assert FamilySpec("p010k", 4, 3, 2).defect == 12
        count = 0
        for family, kmin in (("weyl", 0), ("p0k1", 1), ("p10k", 1), ("p010k", 2)):
            for a in range(1, 7):
                for k in range(kmin, a + 1):
                    for n in range(3):
                        for i in (0, 1):
                            spec = FamilySpec(family, a, k, n, i)
                            ctx = spec.ctx
                            got = weight_info(ctx, content(ctx, family_label(spec))).defect
                            assert got == spec.defect, spec
                            count += 1
        assert count == 504

    def test_congruences(self):
        assert defect_congruences(4) == {0, 3, 4}
        assert defect_congruences(1) == {0}
        assert defect_congruences(3) == {0, 2}
        assert defect_congruences(2) == {0, 1}


class TestSmallDefectFamilies:
    def test_a1_members(self):
        fams = dict((tag, mp) for mp, tag in small_defect_families(1, 3))
        assert fams["triangles:mu"] == (triangular(4), triangular(1))
        assert fams["hook:mu"] == ((4, 1), (1,))

    def test_a3_members(self):
        fams = dict((tag, mp) for mp, tag in small_defect_families(3, 2))
        assert fams["one-up:mu"] == (
            triangular(3),
            triangular(1),
            triangular(1),
            triangular(2),
            triangular(2),
            triangular(2),
        )

    def test_degree3_example_is_golden(self):
        fams = dict((tag, mp) for mp, tag in small_defect_families(1, 2))
        assert fams["hook:mu"] == ((3,), ())

    def test_members_have_defect_two(self):
        for a in (1, 3):
            ctx = symmetric_context(a)
            basis = CanonicalBasis(ctx)
            for n in (1, 2, 3):
                for mp, tag in small_defect_families(a, n):
                    if total_size(mp) > 9:
                        continue
                    from kcb.crystal import weight_info

                    assert weight_info(ctx, content(ctx, mp)).defect == 2, (a, n, tag)

import json

import pytest
from hypothesis import given, strategies as st

from kcb import crystal
from kcb.crystal import (
    NotAVertexError,
    block_reduced,
    block_to_dot,
    block_to_json,
    crystal_to_json,
    e_tilde,
    f_tilde,
    f_tilde_string,
    generate_crystal,
    is_external,
    residue_collected_path,
    string_steps,
    string_top,
    weight_info,
)
from kcb.fock import FockContext, content, symmetric_context

from fock_reference import iter_multipartitions, weight_info_reference

C01 = FockContext(2, (0, 1))


@st.composite
def any_charges(draw):
    """e in 2..5 and any valid charge tuple of level 1..4: charges in
    0..e-1, equal ones contiguous, the blocks in any order."""
    e = draw(st.integers(2, 5))
    blocks = draw(st.lists(st.integers(0, e - 1), min_size=1, max_size=4, unique=True))
    sizes = draw(st.lists(st.integers(1, 4), min_size=len(blocks), max_size=len(blocks)))
    return FockContext(e, tuple(c for c, n in zip(blocks, sizes) for _ in range(n))[:4])


@given(any_charges(), st.data())
def test_weight_info_matches_cartan_matrix(ctx, data):
    # the neighbour formula against a - C c and a.c - (c.Cc)/2; at e = 2
    # both neighbours are the other residue, C's -2 entries
    cont = tuple(data.draw(st.lists(st.integers(0, 8), min_size=ctx.e, max_size=ctx.e)))
    w = weight_info(ctx, cont)
    assert (w.content, w.hub, w.defect) == (cont, *weight_info_reference(ctx, cont))


class TestWeightInfo:
    def test_hub_and_defect(self):
        w = weight_info(symmetric_context(3), (1, 0))
        assert w.hub == (1, 5)
        assert w.defect == 2
        assert weight_info(symmetric_context(3), [1, 0]) == w

    def test_highest(self):
        w = weight_info(symmetric_context(3), (0, 0))
        assert w.hub == (3, 3) and w.defect == 0

    def test_a1(self):
        w = weight_info(symmetric_context(1), (1, 1))
        assert w.hub == (1, 1) and w.defect == 2

    def test_symmetric_formula(self):
        # defect = a(c0+c1) - (c0-c1)^2 for symmetric weights, e = 2
        for a in (1, 2, 3):
            ctx = symmetric_context(a)
            for c0 in range(5):
                for c1 in range(5):
                    w = weight_info(ctx, (c0, c1))
                    assert w.defect == a * (c0 + c1) - (c0 - c1) ** 2

    @pytest.mark.parametrize("cont", [(1.9, 1), (1, True)])
    def test_non_int_content_refused(self, cont):
        # no entry is truncated: (1.9, True) is not the content (1, 1)
        with pytest.raises(TypeError):
            weight_info(symmetric_context(2), cont)


class TestCrystalOperators:
    def test_f_single_node(self):
        assert f_tilde(C01, ((), ()), 0) == ((1,), ())

    def test_f_signature(self):
        assert f_tilde(C01, ((), (1,)), 0) == ((1,), (1,))

    def test_f_row(self):
        assert f_tilde(C01, ((2,), ()), 0) == ((3,), ())

    def test_f_string(self):
        assert f_tilde_string(C01, ((), ()), 0, 0) == ((), ())
        assert f_tilde_string(C01, ((2,), ()), 0, 1) == ((3,), ())
        with pytest.raises(NotAVertexError, match="residue 0"):
            f_tilde_string(C01, ((), ()), 0, 2)  # phi_0 = 1 at the highest weight

    def test_e_inverse_example(self):
        assert e_tilde(C01, ((3,), ()), 0) == ((2,), ())

    def test_e_highest(self):
        assert e_tilde(C01, ((), ()), 0) is None
        assert e_tilde(C01, ((), ()), 1) is None

    def test_inverse_property_exhaustive(self):
        for ctx in (C01, symmetric_context(2)):
            g = generate_crystal(ctx, 8)
            for mp in g.degrees:
                for i in range(ctx.e):
                    up = f_tilde(ctx, mp, i)
                    if up is not None:
                        assert e_tilde(ctx, up, i) == mp
                    down = e_tilde(ctx, mp, i)
                    if down is not None:
                        assert f_tilde(ctx, down, i) == mp

    def test_one_signature_per_string(self, monkeypatch):
        # f_tilde_string reads one i-signature whatever k is, and
        # string_top at most one per residue
        ctx = symmetric_context(2)
        verts = sorted(generate_crystal(ctx, 6).degrees)
        calls = []
        real = crystal._reduced_signature

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(crystal, "_reduced_signature", counting)
        longest = {"f": 0, "e": 0}
        for mp in verts:
            for i in range(ctx.e):
                for k in range(4):
                    calls.clear()
                    try:
                        f_tilde_string(ctx, mp, i, k)
                        longest["f"] = max(longest["f"], k)
                    except NotAVertexError:
                        pass
                    assert len(calls) == 1, (mp, i, k)
            calls.clear()
            step = string_top(ctx, mp)
            assert len(calls) <= ctx.e, mp
            if step is not None:
                longest["e"] = max(longest["e"], step[1])
        assert min(longest.values()) >= 3  # strings of several steps were counted


class TestGenerate:
    def test_degree_two_vertices(self):
        g = generate_crystal(C01, 2)
        deg2 = sorted(mp for mp, d in g.degrees.items() if d == 2)
        assert deg2 == [((1,), (1,)), ((2,), ())]

    def test_degree_zero(self):
        g = generate_crystal(C01, 0)
        assert list(g.degrees) == [((), ())]
        assert not g.edges

    def test_all_vertices_regular(self):
        from kcb.partitions import is_e_regular

        g = generate_crystal(symmetric_context(2), 7)
        assert all(is_e_regular(mp, 2) for mp in g.degrees)

    def test_unique_incoming_per_residue(self):
        g = generate_crystal(C01, 6)
        seen = {}
        for src, i, dst in g.edges:
            assert (dst, i) not in seen
            seen[(dst, i)] = src


class TestBlockReduced:
    def test_single_vertex(self):
        bg = block_reduced(generate_crystal(C01, 0))
        assert list(bg.weights) == [(0, 0)]

    def test_a1_first_string_defects(self):
        bg = block_reduced(generate_crystal(symmetric_context(1), 4))
        # the 0-string through (0,1) carries defects 0-2-2-0
        string = [(0, 1), (1, 1), (2, 1), (3, 1)]
        assert [bg.weights[c].defect for c in string] == [0, 2, 2, 0]
        assert string_steps(bg, (0, 1), 0, 1) == 3 and string_steps(bg, (3, 1), 0, -1) == 3
        assert string_steps(bg, (0, 1), 0, -1) == 0  # no content below 0

    @pytest.mark.parametrize("ctx", [C01, symmetric_context(2), FockContext(3, (0, 1, 2))])
    def test_weights_in_degree_content_order(self, ctx):
        # the order every walk over the weights and both renderings read
        bg = block_reduced(generate_crystal(ctx, 7))
        assert list(bg.weights) == sorted(bg.weights, key=lambda c: (sum(c), c))

    def test_defects_nonnegative(self):
        for a in (1, 2, 3):
            bg = block_reduced(generate_crystal(symmetric_context(a), 9))
            assert all(info.defect >= 0 for info in bg.weights.values())

    def test_a3_top(self):
        bg = block_reduced(generate_crystal(symmetric_context(3), 5))
        assert bg.weights[(0, 0)].hub == (3, 3)
        assert bg.weights[(0, 0)].defect == 0
        assert bg.weights[(1, 0)].hub == (1, 5)

    def test_string_lengths_match_hubs(self):
        # positive hub entry at a string top equals the string length
        for a in (1, 2, 3):
            bg = block_reduced(generate_crystal(symmetric_context(a), 9))
            for cont, info in bg.weights.items():
                for i in range(2):
                    raised = list(cont)
                    raised[i] -= 1
                    if cont[i] > 0 and tuple(raised) in bg.weights:
                        continue  # not a string top
                    h = info.hub[i]
                    assert h >= 0
                    if sum(cont) + h + 1 > 9:
                        continue  # truncated; checked in the verify suite
                    steps = 0
                    cur = list(cont)
                    while True:
                        cur[i] += 1
                        if tuple(cur) not in bg.weights:
                            break
                        steps += 1
                    assert steps == h, (cont, i)


class TestExternal:
    def test_examples(self):
        bg = block_reduced(generate_crystal(symmetric_context(3), 4))
        assert is_external(bg, (1, 0))
        assert is_external(bg, (0, 0))
        bg1 = block_reduced(generate_crystal(symmetric_context(1), 4))
        assert not is_external(bg1, (1, 1))
        assert is_external(bg, [1, 0]) and not is_external(bg1, [1, 1])

    def test_unknown_vertex(self):
        bg = block_reduced(generate_crystal(symmetric_context(1), 2))
        with pytest.raises(ValueError):
            is_external(bg, (9, 9))

    @pytest.mark.parametrize("cont", [(0.7, 1.2), (True, 0)])
    def test_non_int_content_refused(self, cont):
        # no entry is truncated: (0.7, 1.2) is not the content (0, 1)
        bg = block_reduced(generate_crystal(symmetric_context(1), 2))
        with pytest.raises(TypeError):
            is_external(bg, cont)


class TestPath:
    def test_example(self):
        assert residue_collected_path(C01, ((3,), ())) == ((0, 1), (1, 1), (0, 1))

    def test_highest(self):
        assert residue_collected_path(C01, ((), ())) == ()

    def test_two_step_string(self):
        assert residue_collected_path(C01, ((2, 1), ())) == ((0, 1), (1, 2))

    def test_not_a_vertex(self):
        with pytest.raises(NotAVertexError):
            residue_collected_path(C01, ((2, 2), ()))

    def test_path_join_property(self):
        # (0^j, 1, 0^(k-j)) reaches one fixed vertex for every j >= 2,
        # the same vertex as the (0^k, 1) path; j = 1 is a different vertex
        # (the alternating-path family), j = 0 yet another
        for a, k in ((2, 2), (3, 2), (3, 3)):
            ctx = symmetric_context(a)

            def walk(j):
                cur = ctx.highest_weight_vertex()
                for _ in range(j):
                    cur = f_tilde(ctx, cur, 0)
                cur = f_tilde(ctx, cur, 1)
                for _ in range(k - j):
                    cur = f_tilde(ctx, cur, 0)
                return cur

            high = {walk(j) for j in range(2, k + 1)}
            assert len(high) == 1
            assert walk(1) not in high
            assert walk(0) not in high and walk(0) != walk(1)


class TestWeightDimensions:
    def test_k1_contents(self):
        for a in (1, 2, 3):
            g = generate_crystal(symmetric_context(a), a + 2)
            buckets = g.by_content()
            for k in range(1, a + 1):
                want = 2 if k == 1 else 3
                assert len(buckets[(k, 1)]) == want
                assert len(buckets[(1, k)]) == want


class TestSerialization:
    def test_crystal_roundtrip(self):
        # the document, through json, lists exactly the graph's vertices
        # (by degree, then multipartition), degrees, contents and edges
        g = generate_crystal(FockContext(3, (0, 0, 1)), 4)
        doc = json.loads(json.dumps(crystal_to_json(g)))
        assert (doc["e"], doc["charges"], doc["max_degree"]) == (3, [0, 0, 1], 4)
        mp = lambda v: tuple(map(tuple, v))
        verts = [
            (mp(v["multipartition"]), v["degree"], tuple(v["content"])) for v in doc["vertices"]
        ]
        assert verts == sorted(
            ((m, d, content(g.ctx, m)) for m, d in g.degrees.items()), key=lambda v: (v[1], v[0])
        )
        edges = [(mp(e["source"]), e["residue"], mp(e["target"])) for e in doc["edges"]]
        assert edges == g.edges

    def test_block_roundtrip(self):
        # the document, through json, lists exactly the graph's weights in
        # its order, with their hubs, defects and dimensions, and its edges
        bg = block_reduced(generate_crystal(symmetric_context(2), 5))
        doc = json.loads(json.dumps(block_to_json(bg)))
        assert (doc["e"], doc["charges"], doc["max_degree"]) == (2, [0, 0, 1, 1], 5)
        verts = [
            (tuple(v["content"]), tuple(v["hub"]), v["defect"], v["dimension"])
            for v in doc["vertices"]
        ]
        assert verts == [(c, w.hub, w.defect, bg.dims[c]) for c, w in bg.weights.items()]
        edges = [(tuple(e["source"]), e["residue"], tuple(e["target"])) for e in doc["edges"]]
        assert edges == bg.edges

    def test_dot_labels(self):
        bg = block_reduced(generate_crystal(symmetric_context(3), 3))
        dot = block_to_dot(bg)
        assert dot.startswith("digraph")
        assert '"[3,3]^0"' in dot
        assert '"[1,5]^2"' in dot


class TestPathOnBfsVertices:
    # every multipartition up to degree 7, e = 2, 3, 4, levels 2 to 4
    CONTEXTS = [
        FockContext(2, (0, 1)),
        FockContext(2, (0, 0, 1, 1)),
        FockContext(2, (0, 0, 0, 1)),
        FockContext(3, (0, 1, 2)),
        FockContext(3, (0, 0, 1, 2)),
        FockContext(4, (0, 2)),
        FockContext(4, (0, 1, 2, 3)),
    ]

    @pytest.mark.parametrize(
        "ctx", CONTEXTS, ids=lambda c: f"e{c.e}-" + "".join(map(str, c.charges))
    )
    def test_path_exactly_on_vertices_and_replays(self, ctx):
        degree = 7
        vertices = generate_crystal(ctx, degree).degrees
        found = 0
        for n in range(degree + 1):
            for mp in iter_multipartitions(n, ctx.level):
                if mp not in vertices:
                    with pytest.raises(NotAVertexError):
                        residue_collected_path(ctx, mp)
                    continue
                cur = ctx.highest_weight_vertex()
                for i, mult in residue_collected_path(ctx, mp):
                    for _ in range(mult):
                        cur = f_tilde(ctx, cur, i)
                assert cur == mp
                found += 1
        assert found == len(vertices)

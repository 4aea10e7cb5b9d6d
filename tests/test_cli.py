import argparse
import inspect
import json

import pytest

from kcb import cli
from kcb.canonical import CanonicalBasis, element_to_json
from kcb.cli import main
from kcb.closedform import FamilySpec, family_label, family_vectors
from kcb.crystal import block_from_json, crystal_from_json
from kcb.fock import symmetric_context
from kcb.verify import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCrystal:
    def test_json(self, capsys):
        code, out = run(capsys, "crystal", "--e", "2", "--charges", "0,1",
                        "--max-degree", "3")
        assert code == 0
        doc = json.loads(out)
        g = crystal_from_json(doc)
        assert g.degrees[((), ())] == 0
        assert len(doc["vertices"]) == len(g.degrees)

    def test_degree_zero(self, capsys):
        code, out = run(capsys, "crystal", "--a", "1", "--max-degree", "0")
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 1

    def test_ungrouped_charges_exit_2(self, capsys):
        code = main(["crystal", "--e", "2", "--charges", "0,1,0", "--max-degree", "2"])
        assert code == 2


@pytest.mark.parametrize("argv", [
    ("crystal", "--max-degree", "1"),
    ("canonical", "--mp", "[[1],[]]"),
    ("verify", "--suite", "duality"),
    ("verify", "--suite", "svelte"),
])
def test_a_with_other_rank_exit_2(capsys, argv):
    # --a means charges 0^a 1^a at rank 2
    code = main([*argv, "--a", "1", "--e", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--e" in captured.err


class TestBlockGraph:
    def test_roundtrip(self, capsys):
        code, out = run(capsys, "block-graph", "--a", "2", "--max-degree", "5")
        assert code == 0
        bg = block_from_json(json.loads(out))
        assert (0, 0) in bg.weights

    def test_dot_figure_shape(self, capsys):
        code, out = run(capsys, "block-graph", "--e", "2", "--charges", "0,0,0,1,1,1",
                        "--max-degree", "6", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert '"[3,3]^0"' in out and '"[1,5]^2"' in out


class TestCanonical:
    def test_golden(self, capsys):
        code, out = run(capsys, "canonical", "--e", "2", "--charges", "0,1",
                        "--mp", "[[3],[]]")
        assert code == 0
        doc = json.loads(out)
        assert doc["defect"] == 2
        assert doc["shape"] == [1, 2, 1]
        assert doc["terms"][0]["multipartition"] == [[3], []]
        assert doc["terms"][0]["coefficient"] == {"0": 1}

    def test_trivial(self, capsys):
        code, out = run(capsys, "canonical", "--e", "2", "--charges", "0,1",
                        "--mp", "[[],[]]")
        assert code == 0
        assert json.loads(out)["shape"] == [1]

    @pytest.mark.parametrize(
        "literal", ["5", "[1,2]", "null", "[[1],2]", '[["1"]]', "[[1.5]]", "[[true]]"]
    )
    def test_malformed_literal_exit_2(self, capsys, literal):
        # IllFormedPartitionError, not a TypeError traceback (exit 1 is a mismatch)
        assert main(["canonical", "--a", "1", "--mp", literal]) == 2

    def test_non_vertex_exit_3(self, capsys):
        code = main(["canonical", "--e", "2", "--charges", "0,1", "--mp", "[[2,2],[]]"])
        assert code == 3

    def test_byte_identical(self, capsys):
        _, a = run(capsys, "canonical", "--a", "2", "--mp", "[[2],[],[1],[]]")
        _, b = run(capsys, "canonical", "--a", "2", "--mp", "[[2],[],[1],[]]")
        assert a == b

    def test_unwritable_cache_dir_still_prints(self, capsys, tmp_path):
        # the disk cache is optional: a regular file at --cache-dir costs
        # one warning, not the element, and no store is tried after it
        argv = ("canonical", "--a", "1", "--mp", "[[2],[1]]")
        code, plain = run(capsys, *argv)
        assert code == 0
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="not stored in the disk cache") as record:
            code, out = run(capsys, *argv, "--cache-dir", str(blocker))
        assert len(record) == 1
        assert (code, out) == (0, plain)
        assert blocker.read_text(encoding="utf-8") == ""


class TestShapeTable:
    def test_row(self, capsys):
        code, out = run(capsys, "shape-table", "--a", "4")
        assert code == 0
        row = next(l for l in out.splitlines() if l.startswith("k=2"))
        assert row.split(":")[1].split() == ["1", "1", "2", "1", "1"]

    def test_json(self, capsys):
        code, out = run(capsys, "shape-table", "--a", "3", "--format", "json")
        assert json.loads(out)["rows"]["1"] == [1, 1, 1]

    @pytest.mark.parametrize("a", ["0", "-1"])
    def test_a_below_one_exit_2(self, capsys, a):
        code = main(["shape-table", "--a", a])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "need a >= 1" in captured.err


class TestClosedForm:
    def test_top_row(self, capsys):
        code, out = run(capsys, "closed-form", "--family", "weyl", "--a", "3", "--k", "1")
        assert code == 0
        assert json.loads(out)["shape"] == [1, 1, 1]

    def test_family(self, capsys):
        code, out = run(capsys, "closed-form", "--family", "p0k1", "--a", "1",
                        "--k", "1", "--n", "1")
        assert code == 0
        assert json.loads(out)["terms"][0]["multipartition"] == [[2, 1], []]

    def test_json_is_the_only_format(self, capsys):
        # --format text once printed JSON and exited 0
        argv = ["closed-form", "--family", "weyl", "--a", "1", "--k", "1"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "text"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert run(capsys, *argv, "--format", "json") == run(capsys, *argv)

    @pytest.mark.parametrize("a,k", [("2", "1"), ("1", "0")])
    def test_weyl_negative_n_exit_2(self, capsys, a, k):
        code = main(["closed-form", "--family", "weyl", "--a", a, "--k", k, "--n", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "need n >= 0" in captured.err

    @pytest.mark.parametrize("flag,argv", [
        ("--dual", ("--family", "weyl", "--dual")),
        ("--i", ("--family", "p0k1", "--i", "0")),
    ])
    def test_flag_the_family_ignores_exit2(self, capsys, flag, argv):
        code = main(["closed-form", *argv, "--a", "2", "--k", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert flag in captured.err

    @pytest.mark.parametrize("family,a,k,n", [("p010k", 3, 3, 0), ("p10k", 2, 1, 1)])
    def test_default_reading_is_canonical(self, capsys, family, a, k, n):
        # the staged (corrected) sum is not canonical here; the output is
        ctx = symmetric_context(a)
        spec = FamilySpec(family, a, k, n)
        oracle = CanonicalBasis(ctx).element(family_label(ctx, spec))
        code, out = run(capsys, "closed-form", "--family", family, "--a", str(a),
                        "--k", str(k), "--n", str(n))
        assert code == 0
        # json writes the document's tuples as lists, so compare after one round trip
        assert json.loads(out) == json.loads(json.dumps(element_to_json(oracle)))
        _, corrected = family_vectors(ctx, spec)
        assert corrected != oracle.vector


class TestVerify:
    def test_duality_suite_exit0(self, capsys):
        code, out = run(capsys, "verify", "--suite", "duality", "--e", "2",
                        "--charges", "0,1", "--max-degree", "5")
        assert code == 0
        assert "PASS" in out

    def test_environment_turns_no_cache_on(self, capsys, tmp_path, monkeypatch):
        # only --cache-dir uses the disk: a suite's oracle is never read from a file
        monkeypatch.setenv("KCB_CACHE_DIR", str(tmp_path))
        code, _ = run(capsys, "verify", "--suite", "duality", "--a", "2", "--max-degree", "6")
        assert code == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("e, charges", [("2", "1"), ("3", "1,2")])
    def test_svelte_without_charge_0(self, capsys, e, charges):
        # a_0 = 0 here: the symmetric length law once divided by it
        code, out = run(capsys, "verify", "--suite", "svelte", "--e", e,
                        "--charges", charges, "--max-degree", "6")
        assert code in (0, 1)
        assert out.startswith("suite svelte")

    def test_unknown_suite_exit2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2

    def test_conjecture_informational_exit0(self, capsys):
        code, out = run(capsys, "verify", "--suite", "conjecture", "--a", "1",
                        "--max-degree", "6", "--format", "json")
        assert code == 0
        assert json.loads(out)["suite"] == "conjecture-scan"

    def test_structural_json(self, capsys):
        code, out = run(capsys, "verify", "--suite", "structural", "--a", "2",
                        "--max-degree", "6", "--format", "json")
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_byte_identical(self, capsys, fmt):
        argv = ("verify", "--suite", "structural", "--a", "2", "--max-degree", "6",
                "--format", fmt)
        _, a = run(capsys, *argv)
        _, b = run(capsys, *argv)
        assert a and a == b

    @pytest.mark.parametrize("suite,key", [
        ("weyl", "degree_cap"), ("duality", "max_degree"), ("svelte", "max_degree"),
        ("structural", "max_degree"), ("conjecture", "max_degree"),
    ])
    def test_explicit_max_degree_zero(self, capsys, suite, key):
        argv = ("verify", "--suite", suite, "--a", "2", "--max-degree", "0", "--format", "json")
        code, out = run(capsys, *argv)
        if suite == "weyl":  # below the top row's degree k = 1 the suite checks nothing
            assert code == 2 and out == ""
            code, out = run(capsys, *argv, "--k", "0")
        assert code == 0
        assert json.loads(out)["params"][key] == 0

    @pytest.mark.parametrize("context", [
        (), ("--charges", "0,1"), ("--a", "1", "--charges", "0,1"), ("--a", "1", "--e", "3"),
    ])
    @pytest.mark.parametrize("suite", ["top-row", "weyl", "families", "structural", "conjecture"])
    def test_symmetric_suite_needs_a_alone_exit2(self, capsys, suite, context):
        code = main(["verify", "--suite", suite, *context])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--a" in captured.err

    @pytest.mark.parametrize("suite,context,flag", [
        ("top-row", ("--a", "1"), ("--max-degree", "3")),
        ("weyl", ("--a", "1"), ("--family", "p10k")),
        ("families", ("--a", "1"), ("--i", "1")),
        ("duality", ("--charges", "0,1"), ("--k", "2")),
        ("svelte", ("--charges", "0,1"), ("--n", "2")),
        ("structural", ("--a", "1"), ("--i", "1")),
        ("conjecture", ("--a", "1"), ("--family", "p0k1")),
        ("families", ("--a", "1"), ("--max-degree", "3")),
    ])
    def test_option_the_suite_does_not_read_exit2(self, capsys, suite, context, flag):
        code = main(["verify", "--suite", suite, *context, *flag])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert flag[0] in captured.err

    def test_weyl_negative_max_degree_exit_2(self, capsys):
        # a negative degree cap skips every instance, which is no pass
        code = main(["verify", "--suite", "weyl", "--a", "1", "--k", "1", "--n", "1",
                     "--max-degree", "-5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "kcb: need max_degree >= k, got max_degree=-5, k=1\n"

    @pytest.mark.parametrize("argv", [
        ("closed-form", "--family", "weyl", "--a", "2", "--k", "5"),
        ("verify", "--suite", "top-row", "--a", "2", "--k", "5"),
        ("verify", "--suite", "weyl", "--a", "2", "--k", "5"),
    ])
    def test_weyl_k_out_of_range_exit_2(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "kcb: need 0 <= k <= a, got k=5, a=2\n"

    @pytest.mark.parametrize("suite,n", [("weyl", "-2"), ("families", "-1")])
    def test_negative_n_exit_2(self, capsys, suite, n):
        # no instance to check is not a pass
        code = main(["verify", "--suite", suite, "--a", "2", "--n", n])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "need n_max >= 0" in captured.err


def _suite_signature_faults(suite) -> list[str]:
    """What keeps kcb verify from reading a suite off its signature: a first
    parameter other than a or ctx, or a later one that is no verify option
    or has no default."""
    first, *rest = inspect.signature(suite).parameters.values()
    faults = [] if first.name in ("a", "ctx") else [f"first {first.name}"]
    return faults + [p.name for p in rest
                     if p.name not in cli._VERIFY_OPTIONS or p.default is p.empty]


def test_every_suite_takes_a_context_then_defaulted_options():
    assert {name: _suite_signature_faults(fn) for name, fn in SUITES.items()} == (
        {name: [] for name in SUITES})


def test_suite_signature_fault_is_found():
    def unknown(a, k=1, q=2):
        pass

    def undefaulted(ctx, max_degree):
        pass

    def no_context(k=1):
        pass

    assert _suite_signature_faults(unknown) == ["q"]
    assert _suite_signature_faults(undefaulted) == ["max_degree"]
    assert _suite_signature_faults(no_context) == ["first k"]


@pytest.mark.parametrize("suite, params", [
    ("top-row", {"a": 1, "i": 0, "k": 1}),
    ("weyl", {"a": 1, "i": 0, "k": 1, "n_max": 1, "degree_cap": 13}),
    ("families", {"a": 1, "family": "p0k1", "k": 1, "n_max": 1}),
    ("duality", {"e": 2, "charges": [0, 1], "max_degree": 8}),
    ("svelte", {"e": 2, "charges": [0, 1], "max_degree": 13}),
    ("structural", {"a": 1, "max_degree": 9}),
    ("conjecture", {"a": 1, "max_degree": 13}),
])
def test_suite_defaults(capsys, suite, params):
    # with no option given, each suite runs on its function's defaults
    code, out = run(capsys, "verify", "--suite", suite, "--a", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == params


class TestOutputFile:
    def test_out_flag(self, tmp_path, capsys):
        target = tmp_path / "graph.json"
        code = main(["crystal", "--a", "1", "--max-degree", "2", "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["max_degree"] == 2

    @pytest.mark.parametrize("argv", [
        ("canonical", "--a", "1", "--mp", "[[1],[]]"),
        ("verify", "--suite", "structural", "--a", "1", "--max-degree", "2"),
    ])
    @pytest.mark.parametrize("where", ["missing-parent", "directory"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, argv, where):
        # one line on stderr, not a FileNotFoundError or IsADirectoryError traceback
        target = tmp_path / "missing" / "x.json" if where == "missing-parent" else tmp_path
        code = main([*argv, "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"kcb: cannot write {target}: ")
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, name", [
        (("verify", "--suite", "duality", "--e", "3", "--charges", "0,1"), "verify_duality"),
        (("canonical", "--a", "1", "--mp", "[[1],[]]"), "CanonicalBasis"),
        (("crystal", "--a", "1", "--max-degree", "2"), "generate_crystal"),
    ])
    @pytest.mark.parametrize("where", ["missing-parent", "directory", "file-as-parent"])
    def test_unwritable_out_refused_before_the_command_runs(
        self, tmp_path, capsys, monkeypatch, argv, name, where
    ):
        def never(*args, **kwargs):
            raise AssertionError(f"{name} ran before --out was checked")

        monkeypatch.setattr(cli, name, never)
        if name == "verify_duality":  # kcb verify runs the suite from the table
            monkeypatch.setitem(SUITES, "duality", never)
        (tmp_path / "file").write_text("")
        target = {
            "missing-parent": tmp_path / "missing" / "x.json",
            "directory": tmp_path,
            "file-as-parent": tmp_path / "file" / "x.json",
        }[where]
        code = main([*argv, "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"kcb: cannot write {target}: ")
        assert captured.err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_text() == ""


def test_no_two_subcommands_share_a_handler():
    # a second subcommand on one handler is an alias: a second route to one command
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    handlers = [p.get_default("fn") for p in sub.choices.values()]
    assert None not in handlers
    assert len(set(handlers)) == len(handlers), sorted(sub.choices)

"""Source hygiene: every function and class in src/kcb is used somewhere,
those used only by tests are exactly the listed TEST_ONLY_API, every
module of src/kcb and tests/ uses what it imports, every process-wide
memo of src/kcb is listed in MEMOS with its reason, src/kcb checks nothing
with assert (python -O strips it), only laurent.py and fock.py read the
coefficient storage `_terms`, src/kcb never encodes with json.dump, and every
kcb name the benchmark in perfbench/ reads still exists.

A name counts as used when code refers to it (a name, an attribute or an
import; comments, strings and the definition itself do not count) in
src/kcb or in tests/.  The package's __init__.py is not searched:
re-exporting a name is not a use of it.  Dunder methods are called implicitly and are skipped.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "kcb").glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
SEARCHED = SOURCES + TESTS
BENCH = sorted((ROOT / "perfbench").glob("*.py")) + sorted(
    (ROOT / "perfbench" / "tests").glob("*.py")
)


def _definitions(path: Path):
    """(qualified name, bare name) of every function and class in a module."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((prefix + child.name, child.name))
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def _references(paths=SEARCHED) -> Counter:
    counts: Counter = Counter()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                counts[node.id] += 1
            elif isinstance(node, ast.Attribute):
                counts[node.attr] += 1
            elif isinstance(node, ast.alias):
                counts[node.name] += 1
    return counts


def test_no_unreferenced_definitions():
    counts = _references()
    unused = [
        f"{path.name}:{qual}"
        for path in SOURCES
        for qual, name in _definitions(path)
        if not (name.startswith("__") and name.endswith("__")) and not counts[name]
    ]
    assert unused == [], f"defined but never referenced: {unused}"


# src/kcb definitions that only tests reference, each with why the public
# API keeps it; a new test-only definition fails until it is listed here
TEST_ONLY_API = {
    "at_weight": "every G at one weight, the unit of the paper's tables",
    "shape_fn_closed": "the paper's closed shape functions for k = 1, 2, 3",
    "family_term": "one path-family term for explicit choice sequences, as the paper states it",
    "defect_top_row": "the paper's top-row defect k(a-k)",
    "small_defect_families": "the paper's defect-2 families at a = 1 and 3",
    "crystal_from_json": "reads back the JSON that `kcb crystal` writes",
    "block_from_json": "reads back the JSON that `kcb block-graph` writes",
}


def test_test_only_definitions_are_listed():
    in_src, in_tests = _references(SOURCES), _references(TESTS)
    test_only = {
        name
        for path in SOURCES
        for _, name in _definitions(path)
        if not (name.startswith("__") and name.endswith("__"))
        and not in_src[name] and in_tests[name]
    }
    assert test_only == set(TEST_ONLY_API), (
        f"used only by tests but not listed: {sorted(test_only - set(TEST_ONLY_API))}; "
        f"listed but not test-only: {sorted(set(TEST_ONLY_API) - test_only)}"
    )


# every process-wide memo of src/kcb: a module-level container that starts
# empty and fills as the program runs, or an lru_cache'd function.  None is
# ever cleared, so each grows with all the work of the process; a new one
# fails until it is listed here with why it is worth its memory
MEMOS = {
    "_EXPANSIONS": "fock: f_i^(k) of each basis term per (e, charges, i, k), as two flat tuples",
    "_SHIFTS": "fock: one int per distinct expansion shift W * d (CPython shares only ints <= 256)",
    "_TERMS": "fock: one tuple per distinct expansion term, so equal terms are stored once",
    "_PARTS": "fock: one tuple per distinct component the divided-power splice builds",
    "_STEPS": "partitions: one dominance step per pair of unequal components",
    "_BASES": "canonical: one CanonicalBasis per (e, charges, cache_dir), shared by every caller",
    "shape_fn": "closedform: the paper's shape function s(a, k, l), recursive in a",
    "_canonical_vector": "closedform: a family's closed-form vector, built from its memoised partners",
    "cartan_matrix": "crystal: the affine Cartan matrix of each rank",
    "qint": "laurent: the quantum integer [n]",
    "qfact": "laurent: the quantum factorial [n]!, recursive in n",
    "transpose": "partitions: the conjugate of each partition",
    "_partitions_of": "partitions: the partitions of n with parts at most cap, recursive in n",
}


def _empty_container(value) -> bool:
    """{}, [], dict(), set() or list()."""
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.List):
        return not value.elts
    return (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        and value.func.id in ("dict", "set", "list") and not value.args and not value.keywords
    )


def _memos(path: Path) -> list[str]:
    """A module's memos: its module-level names bound to an empty
    container, and its functions decorated with lru_cache or cache."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(dec, "id", getattr(dec, "attr", None)) in ("lru_cache", "cache"):
                    out.append(node.name)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _empty_container(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [t.id for t in targets if isinstance(t, ast.Name)]
    return out


def test_memos_are_listed():
    found = [name for path in SOURCES + [ROOT / "src" / "kcb" / "__init__.py"] for name in _memos(path)]
    assert sorted(found) == sorted(MEMOS), (
        f"memos not listed: {sorted(set(found) - set(MEMOS))}; "
        f"listed but not memos: {sorted(set(MEMOS) - set(found))}"
    )


def test_no_unused_imports():
    # an import is used when the importing module loads the bound name; tests
    # are searched too, since an unused test import would count as a
    # reference above and hide a dead definition in src/kcb
    unused = []
    for path in SEARCHED:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unused.append(f"{path.name}:{node.lineno}:{bound}")
    assert unused == [], f"imported but never used: {unused}"


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES + [ROOT / "src" / "kcb" / "__init__.py"]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements (use typed errors): {found}"


def test_no_pure_python_json_encoder():
    # json.dump encodes through the pure-Python iterencode; json.dumps takes
    # the C encoder and gives the same text, written with one write
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES + [ROOT / "src" / "kcb" / "__init__.py"]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "dump"
        and isinstance(node.value, ast.Name) and node.value.id == "json"
    ]
    assert found == [], f"json.dump in src/kcb (use json.dumps): {found}"


def test_terms_storage_stays_private():
    # LaurentPoly stores an exponent dict and FockVector a dict of packed
    # ints behind `_terms`; every other module goes through their methods
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES + [ROOT / "src" / "kcb" / "__init__.py"]
        if path.name not in ("laurent.py", "fock.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "_terms"
    ]
    assert found == [], f"`_terms` read outside laurent.py and fock.py: {found}"


def _kcb_reads(tree) -> list[tuple[int, str]]:
    """(line, dotted name) of what a module reads from kcb: imported names,
    attribute chains on them, and calls naming an attribute as
    (owner, "name", ...), the way getattr and monkeypatch.setattr do."""
    bound: dict[str, str] = {}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kcb":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                reads.append((node.lineno, f"{node.module}.{alias.name}"))
        elif isinstance(node, ast.Import) and any(a.name == "kcb" for a in node.names):
            bound["kcb"] = "kcb"

    def chain(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in bound:
            return ".".join([bound[node.id], *reversed(parts)])
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and chain(node):
            reads.append((node.lineno, chain(node)))
        elif isinstance(node, ast.Call) and len(node.args) >= 2 and chain(node.args[0]):
            name = node.args[1]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                reads.append((node.lineno, f"{chain(node.args[0])}.{name.value}"))
    return reads


def _resolve(dotted: str):
    """Import the longest module prefix of a dotted name, then getattr the rest."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for name in parts[i:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(dotted)


def test_benchmark_reads_resolve():
    # perfbench/tests run outside tier-1: deleting a name they use fails here first
    found, missing = set(), []
    for path in BENCH:
        for line, dotted in _kcb_reads(ast.parse(path.read_text(encoding="utf-8"))):
            found.add(dotted)
            try:
                _resolve(dotted)
            except (ImportError, AttributeError):
                missing.append(f"{path.relative_to(ROOT)}:{line}:{dotted}")
    assert {
        "kcb.canonical.generate_crystal",
        "kcb.cli.verify_duality",
        "kcb.fock.exact_div",
        "kcb.canonical.CanonicalBasis.monomial",
        "kcb.canonical.CanonicalBasis._disk_store",
        "kcb.closedform.expand_family",
        "kcb.closedform.family_vectors",
    } <= found
    assert missing == [], f"perfbench reads kcb names that do not exist: {missing}"

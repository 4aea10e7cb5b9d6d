"""Source hygiene: every function and class in src/kcb is used somewhere,
those used only by tests are exactly the listed TEST_ONLY_API, every
module of src/kcb and tests/ uses what it imports, every process-wide
memo of src/kcb is listed in MEMOS with its reason, src/kcb reads no
environment variable, src/kcb checks nothing with assert (python -O
strips it), only laurent.py and fock.py read the
coefficient storage `_terms`, src/kcb never encodes with json.dump, every
CanonicalElement is built by the element check, which outside
canonical.py only the one closed-form builder calls, only the reduction
pass reads a seed's terms outside vZ[v], only laurent.py
and fock.py decode a vector term by term (`.terms()`), and every kcb name
the benchmark in perfbench/ reads still exists.

A name counts as used when code refers to it (a name, an attribute or an
import; comments, strings, the definition itself and references inside
its own body, such as self-recursion, do not count) in src/kcb or in
tests/.  The package's __init__.py is not searched:
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


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of every function and class in a module."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((prefix + child.name, child.name))
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return out


def _references(trees) -> Counter:
    """How often each name is referred to, leaving out a definition's
    references to its own name inside its body: self-recursion is no use."""
    counts: Counter = Counter()

    def walk(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.alias):
                name = child.name
            else:
                name = None
            if name is not None and name not in inside:
                counts[name] += 1
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, inside | {child.name})
            else:
                walk(child, inside)

    for tree in trees:
        walk(tree, frozenset())
    return counts


def _unreferenced(sources, searched) -> list[str]:
    """The definitions of the `sources` trees, by name -> tree, that no
    `searched` tree refers to; dunder methods are called implicitly."""
    counts = _references(searched)
    return [
        f"{name}:{qual}"
        for name, tree in sources.items()
        for qual, bare in _definitions(tree)
        if not (bare.startswith("__") and bare.endswith("__")) and not counts[bare]
    ]


def test_no_unreferenced_definitions():
    unused = _unreferenced({p.name: _tree(p) for p in SOURCES}, map(_tree, SEARCHED))
    assert unused == [], f"defined but never referenced: {unused}"


def test_self_recursion_is_no_reference():
    source = ast.parse(
        "def fact(n):\n"
        "    return 1 if n == 0 else n * fact(n - 1)\n"
        "def used(n):\n"
        "    return n\n"
        "class Node:\n"
        "    def child(self):\n"
        "        return Node()\n"
    )
    caller = ast.parse("from m import used\nused(2)\n")
    assert _unreferenced({"m": source}, [source, caller]) == ["m:fact", "m:Node", "m:Node.child"]


# src/kcb definitions that only tests reference, each with why the public
# API keeps it; a new test-only definition fails until it is listed here
TEST_ONLY_API = {
    "at_weight": "every G at one weight, the unit of the paper's tables",
    "shape_fn_closed": "the paper's closed shape functions for k = 1, 2, 3",
    "family_term": "one path-family term for explicit choice sequences, as the paper states it",
    "small_defect_families": "the paper's defect-2 families at a = 1 and 3",
    "diamond": "the diamond involution by its definition, a replay of the whole"
    " residue-collected path, against which the duality suite's images are tested",
    "shape_fn": "the paper's shape function s(a, k, l) at one point, zero outside its rows",
    "tau": "the paper's tau^n_i(S), summed term by term against the weyl family's closed form",
    "choice_sequences": "the paper's choice sequences S(a, k), over which that sum runs",
}


def test_test_only_definitions_are_listed():
    in_src, in_tests = _references(map(_tree, SOURCES)), _references(map(_tree, TESTS))
    test_only = {
        name
        for path in SOURCES
        for _, name in _definitions(_tree(path))
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
    "_EXPANSIONS": "fock: f_i^(k) of each basis term per context and (i, k), as one flat tuple",
    "_NODES": "fock: the i-nodes of each component per rank and (i - charge) mod e, and its"
    " filled components per subset of its addable nodes, each made when first asked for; keyed"
    " by component, not by multipartition, so it stays small (186 entries on allg_a2)",
    "_SHARED": "fock: one object per distinct filled component, expansion term and shift int",
    "_STEPS": "partitions: one dominance step per pair of unequal components, one inner"
    " dict per dominating component",
    "build_parser": "cli: the argparse parser, built once per process; verify_cli parses"
    " 36 argv lists, and building a parser costs about ten times parsing one",
    "transpose": "partitions: the conjugate of each partition",
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


# what reads the process environment: os.environ, os.getenv and their
# bytes forms, as attributes or imported bare.  Every input of src/kcb is
# an argument, so that no run depends on a variable its caller cannot see:
# a cache directory turned on that way would feed the verify suites'
# oracle from disk, where no file is checked for bar-invariance
ENV_READS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree: ast.Module) -> list[int]:
    """Lines that name one of ENV_READS, or import one from a module."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if getattr(node, "attr", getattr(node, "id", None)) in ENV_READS
        or isinstance(node, ast.ImportFrom) and any(a.name in ENV_READS for a in node.names)
    })


def test_no_environment_reads():
    found = [
        f"{path.name}:{line}"
        for path in SOURCES + [ROOT / "src" / "kcb" / "__init__.py"]
        for line in _environment_reads(_tree(path))
    ]
    assert found == [], f"src/kcb reads the environment (take an argument): {found}"


def test_environment_read_is_found():
    source = ast.parse(
        "import os\n"
        "from os import getenv\n"
        "class Basis:\n"
        "    def __init__(self, cache_dir=None):\n"
        "        self.dir = cache_dir or os.environ.get('KCB_CACHE_DIR')\n"
        "def home():\n"
        "    return getenv('HOME'), os.getenv('USER')\n"
        "PATH = os.environb[b'PATH']\n"
    )
    assert _environment_reads(source) == [2, 5, 7, 8]


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
    # json.dump encodes through the pure-Python iterencode and writes chunk
    # by chunk; json.dumps gives the same text, written with one write.  It
    # takes the C encoder when indent is None (the cache files), but on
    # CPython 3.12 and older not with an indent: cli._emit_json's indent=2
    # goes through the pure-Python encoder there too
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


# the only function of src/kcb that calls CanonicalElement(...): the check
# every G passes, the cache reader's included; any other call would be a
# route to an unchecked element
ELEMENT_BUILDERS = {"checked_element"}

# the reduction's reads of a seed, called only by the one reduction pass:
# a second pass would be a second route to G that the pass's checks miss
REDUCTION_READS = {"outside_vzv", "symmetric_low"}
REDUCTION_PASS = ("canonical.py", "reduce_seed")


def _calls(tree: ast.Module, names) -> list[tuple[str, int]]:
    """(innermost enclosing function, line) of each call of one of the
    names, as a bare name or an attribute."""
    out = []

    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) in names:
                    out.append((fn, child.lineno))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            walk(child, child.name if inner else fn)

    walk(tree, "<module>")
    return out


def test_elements_built_only_by_the_check():
    found = [
        f"{path.name}:{line}:{fn}"
        for path in SOURCES + [ROOT / "src" / "kcb" / "__init__.py"]
        for fn, line in _calls(_tree(path), {"CanonicalElement"})
        if fn not in ELEMENT_BUILDERS
    ]
    assert found == [], f"CanonicalElement built outside {sorted(ELEMENT_BUILDERS)}: {found}"


def test_unchecked_element_route_is_found():
    source = ast.parse(
        "def checked_element(ctx, label, vector):\n"
        "    return CanonicalElement(label, vector, None, ())\n"
        "def shortcut(label, vector):\n"
        "    def inner():\n"
        "        return canonical.CanonicalElement(label, vector, None, ())\n"
        "    return inner()\n"
        "UNIT = CanonicalElement((), None, None, ())\n"
    )
    assert _calls(source, {"CanonicalElement"}) == [
        ("checked_element", 2), ("inner", 5), ("<module>", 7)
    ]


# the one closed-form builder: outside canonical.py, whose basis and cache
# reader hand their elements to the check, only it calls checked_element
CLOSED_FORM_BUILDER = ("closedform.py", "closed_canonical_family")


def _check_callers(trees) -> list[str]:
    """file:line:function of each call of checked_element, by name -> tree,
    outside canonical.py and the closed-form builder."""
    return [
        f"{name}:{line}:{fn}"
        for name, tree in trees.items()
        if name != "canonical.py"
        for fn, line in _calls(tree, {"checked_element"})
        if (name, fn) != CLOSED_FORM_BUILDER
    ]


def test_one_closed_form_builder():
    found = _check_callers({p.name: _tree(p) for p in SOURCES + [ROOT / "src" / "kcb" / "__init__.py"]})
    assert found == [], f"checked_element called outside canonical.py and {CLOSED_FORM_BUILDER}: {found}"


def test_second_closed_form_builder_is_found():
    closedform = ast.parse(
        "def closed_canonical_family(spec):\n"
        "    return checked_element(ctx, family_label(spec), vec)\n"
        "def closed_canonical_weyl(a, i, k, n):\n"
        "    return canonical.checked_element(ctx, label, FockVector(terms))\n"
    )
    canonical = ast.parse("def element(self, mp):\n    return checked_element(self.ctx, mp, vec)\n")
    verify = ast.parse("def verify_top_row_forms(a, i, k):\n    return checked_element(ctx, mp, vec)\n")
    assert _check_callers(
        {"closedform.py": closedform, "canonical.py": canonical, "verify.py": verify}
    ) == ["closedform.py:4:closed_canonical_weyl", "verify.py:2:verify_top_row_forms"]


def test_reduction_reads_only_in_the_pass():
    found = [
        f"{path.name}:{line}:{fn}"
        for path in SOURCES + [ROOT / "src" / "kcb" / "__init__.py"]
        for fn, line in _calls(_tree(path), REDUCTION_READS)
        if (path.name, fn) != REDUCTION_PASS
    ]
    assert found == [], f"{sorted(REDUCTION_READS)} called outside {REDUCTION_PASS}: {found}"


def test_second_reduction_pass_is_found():
    source = ast.parse(
        "def reduce_seed(ctx, label, seed, element):\n"
        "    return seed.outside_vzv(), seed.symmetric_low(label)\n"
        "class Basis:\n"
        "    def _compute(self, mp):\n"
        "        V = self.monomial(mp)\n"
        "        return [V.symmetric_low(nu) for nu in V.outside_vzv()]\n"
    )
    assert _calls(source, REDUCTION_READS) == [
        ("reduce_seed", 2), ("reduce_seed", 2), ("_compute", 6), ("_compute", 6)
    ]


# FockVector.terms decodes every term into a LaurentPoly; outside the two
# modules that own the storage, src/kcb reads packed coefficients through
# the int-level methods (with_coefficient, bar_shifted, to_json, ...)
PER_TERM_DECODE = {"terms"}
DECODE_OWNERS = ("laurent.py", "fock.py")


def test_no_per_term_decode_outside_the_storage():
    found = [
        f"{path.name}:{line}:{fn}"
        for path in SOURCES + [ROOT / "src" / "kcb" / "__init__.py"]
        if path.name not in DECODE_OWNERS
        for fn, line in _calls(_tree(path), PER_TERM_DECODE)
    ]
    assert found == [], f".terms() called outside {DECODE_OWNERS}: {found}"


def test_per_term_decode_is_found():
    source = ast.parse(
        "def verify_duality(elem, w):\n"
        "    terms = list(elem.vector.terms())\n"
        "    return [lam for lam, c in terms if c == w]\n"
        "def check(v):\n"
        "    return sum(1 for _ in v.stored().terms())\n"
    )
    assert _calls(source, PER_TERM_DECODE) == [("verify_duality", 2), ("check", 5)]


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

"""Command-line surface: crystal/block-graph generation, canonical basis
elements, shape tables, closed forms, and the verification suites.

Output is deterministic: identical invocations produce identical bytes.
Exit codes: 0 success, 2 usage or invalid parameters, 3 multipartition is
not a crystal vertex, 1 a verification suite recorded a mismatch, or an
element failed its checks.
"""

from __future__ import annotations

import argparse
import errno
import functools
import inspect
import json
import os
import sys

from .canonical import CanonicalBasis, ReductionError, element_to_json
from .closedform import FAMILIES, PATH_FAMILIES, FamilySpec, closed_canonical_family, shape_table
from .crystal import (
    NotAVertexError,
    block_reduced,
    block_to_dot,
    block_to_json,
    crystal_to_json,
    generate_crystal,
)
from .fock import FockContext, symmetric_context
from .partitions import mp_from_json
from .verify import SUITES

# perfbench's tests and tests/test_hygiene.py::test_benchmark_reads_resolve
# pin this name; kcb verify runs SUITES["duality"] itself
verify_duality = SUITES["duality"]


def _context_from(args) -> FockContext:
    if getattr(args, "a", None) is not None:
        if args.charges:
            raise ValueError("give either --a or --charges, not both")
        if args.e != 2:
            raise ValueError(f"--a fixes rank 2, got --e {args.e}")
        return symmetric_context(args.a)
    if not args.charges:
        raise ValueError("need --charges or --a")
    try:
        charges = tuple(int(c) for c in args.charges.split(","))
    except ValueError as exc:
        raise ValueError(f"bad charge list {args.charges!r}") from exc
    return FockContext(args.e, charges)


def _check_out(path: str) -> None:
    """Refuse an --out path that no file can take, before the command
    runs: a directory, or a path whose parent is no directory.  Nothing is
    created; a failure found only when writing (say, permissions) is left
    to _emit."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise ValueError(f"cannot write {path}: {os.strerror(code)}")


def _emit(text: str, args) -> None:
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # a missing directory, a directory at the path, no permission
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(doc, args) -> None:
    _emit(json.dumps(doc, indent=2) + "\n", args)


def cmd_crystal(args) -> int:
    ctx = _context_from(args)
    g = generate_crystal(ctx, args.max_degree)
    _emit_json(crystal_to_json(g), args)
    return 0


def cmd_block_graph(args) -> int:
    ctx = _context_from(args)
    bg = block_reduced(generate_crystal(ctx, args.max_degree))
    if args.format == "dot":
        _emit(block_to_dot(bg), args)
    else:
        _emit_json(block_to_json(bg), args)
    return 0


def cmd_canonical(args) -> int:
    ctx = _context_from(args)
    try:
        mp = mp_from_json(json.loads(args.mp))
    except ValueError as exc:  # json.JSONDecodeError is one
        raise ValueError(f"bad multipartition literal {args.mp!r}: {exc}") from exc
    if len(mp) != ctx.level:
        raise ValueError(f"multipartition has level {len(mp)}, context has {ctx.level}")
    elem = CanonicalBasis(ctx, args.cache_dir).element(mp)  # NotAVertexError -> exit 3 in main()
    _emit_json(element_to_json(elem), args)
    return 0


def cmd_shape_table(args) -> int:
    table = shape_table(args.a)
    if args.format == "json":
        _emit_json({"a": args.a, "rows": {str(k): v for k, v in table.items()}}, args)
        return 0
    width = max(len(str(x)) for row in table.values() for x in row)
    lines = [f"shape function rows for a={args.a} (k by ell)"]
    for k, row in table.items():
        lines.append(f"k={k}: " + " ".join(str(x).rjust(width) for x in row))
    _emit("\n".join(lines) + "\n", args)
    return 0


def cmd_closed_form(args) -> int:
    elem = closed_canonical_family(FamilySpec(args.family, args.a, args.k, args.n, args.i))
    _emit_json(element_to_json(elem), args)
    return 0


# the kcb verify options, in the order an unread one is named; a suite
# reads those its SUITES function takes, with that function's defaults
_VERIFY_OPTIONS = {
    "i": {"type": int, "choices": (0, 1)},
    "k": {"type": int},
    "n": {"type": int},
    "family": {"choices": PATH_FAMILIES},
    "max_degree": {"type": int},
}


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]  # looked up per run: a wrapper put in SUITES is the one run
    first, *reads = inspect.signature(suite).parameters
    if first == "a" and (args.a is None or args.charges or args.e != 2):
        raise ValueError(f"suite {args.suite} needs --a (charges 0^a 1^a), no --charges, and --e 2")
    given = {opt: getattr(args, opt) for opt in _VERIFY_OPTIONS if getattr(args, opt) is not None}
    unread = ["--" + opt.replace("_", "-") for opt in given if opt not in reads]
    if unread:
        raise ValueError(f"suite {args.suite} does not read {', '.join(unread)}")
    report = suite(args.a if first == "a" else _context_from(args), **given)
    if args.format == "json":
        _emit_json(report.to_json(), args)
    else:
        _emit(report.to_text(), args)
    return 0 if report.passed else 1


def _readers(opt: str) -> str:
    """The suites that take a verify option, grouped by their default."""
    by_default: dict = {}
    for name, suite in sorted(SUITES.items()):
        param = inspect.signature(suite).parameters.get(opt)
        if param is not None:
            by_default.setdefault(param.default, []).append(name)
    return "; ".join(f"{', '.join(names)} (default {d})" for d, names in by_default.items())


def _add_context_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--e", type=int, default=2, help="rank (default 2)")
    p.add_argument("--charges", type=str, default=None, help="comma-separated charges")
    p.add_argument("--a", type=int, default=None, help="symmetric shortcut: charges 0^a 1^a")


def _add_common(p: argparse.ArgumentParser, formats=()) -> None:
    """--out, and --format when the command offers formats (the first is the default)."""
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", type=str, default=None, help="write output to a file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The kcb parser, built once per process: parse_args leaves it as it
    is, and building it costs far more than parsing one argv."""
    ap = argparse.ArgumentParser(
        prog="kcb",
        description="Crystal graphs and canonical bases for higher-level "
        "Fock spaces (rank-2 friendly, exact arithmetic).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crystal", help="generate the crystal graph")
    _add_context_opts(p)
    p.add_argument("--max-degree", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_crystal)

    p = sub.add_parser("block-graph", help="generate the block-reduced graph")
    _add_context_opts(p)
    p.add_argument("--max-degree", type=int, required=True)
    _add_common(p, ("json", "dot"))
    p.set_defaults(fn=cmd_block_graph)

    p = sub.add_parser("canonical", help="canonical basis element of a multipartition")
    _add_context_opts(p)
    p.add_argument("--mp", type=str, required=True,
                   help='multipartition literal, e.g. "[[3],[]]"')
    p.add_argument("--cache-dir", type=str, default=None, help="persist elements as JSON files here")
    _add_common(p)
    p.set_defaults(fn=cmd_canonical)

    p = sub.add_parser("shape-table", help="shape-function table for a symmetric weight")
    p.add_argument("--a", type=int, required=True)
    _add_common(p, ("text", "json"))
    p.set_defaults(fn=cmd_shape_table)

    p = sub.add_parser("closed-form", help="closed-form canonical element")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--i", type=int, default=0, choices=(0, 1), help="residue of the family's k-node stage (default 0)")
    _add_common(p)
    p.set_defaults(fn=cmd_closed_form)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    _add_context_opts(p)
    for opt, kwargs in _VERIFY_OPTIONS.items():
        p.add_argument("--" + opt.replace("_", "-"), default=None, help=_readers(opt), **kwargs)
    _add_common(p, ("text", "json"))
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        return args.fn(args)
    except NotAVertexError as exc:
        print(f"kcb: not a crystal vertex: {exc}", file=sys.stderr)
        return 3
    except ReductionError as exc:
        print(f"kcb: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"kcb: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

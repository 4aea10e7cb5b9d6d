"""In-memory span recording around calls into kcb, for the traced run.

A span is opened around every call that goes through a wrapped name and
closed when the call returns or raises.  The wrappers replace the names
the callers look up (``kcb.canonical.apply_f_divided``,
``kcb.canonical.dominates``, ``FockVector.add_scaled`` ...), so no file
under ``src/`` changes.  ``tracing()`` installs them and puts every
original back on exit, so nothing untraced is ever timed through them.

Spans are kept in flat arrays (name id, parent index, start/end in
perf_counter nanoseconds) and written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from kcb import canonical, cli, closedform, crystal, fock, laurent, partitions, verify

_now = time.perf_counter_ns


class Recorder:
    """Spans in call order, plus counters incremented at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self.max_support = 0  # largest FockVector seen: seed, intermediate or output
        self.disk_hit = False  # set by a disk load, consumed by its element call
        self._open = [-1]

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0)
        self._open.append(idx)
        self.start.append(_now())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = _now()
        self._open.pop()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        selfs = self_times(self.parent, self.start, self.end)
        out: dict[str, list] = {}
        for i, nid in enumerate(self.name):
            row = out.setdefault(self.names[nid], [0, 0, 0])
            row[0] += 1
            row[1] += self.end[i] - self.start[i]
            row[2] += selfs[i]
        return {k: (c, inc / 1e9, own / 1e9) for k, (c, inc, own) in out.items()}

    def dump(self, path: str) -> None:
        doc = {
            "clock": "perf_counter_ns",
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counts": dict(self.counts),
            "max_support": self.max_support,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)


def self_times(parent, start, end) -> list[int]:
    """Span duration minus the part of its interval that child spans cover.

    Children of one span are merged as intervals, so overlapping children
    are not subtracted twice.
    """
    kids: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            kids.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        covered = 0
        lo = hi = None
        for c in sorted(kids.get(i, ()), key=lambda c: start[c]):
            s, e = max(start[c], start[i]), min(end[c], end[i])
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out.append(end[i] - start[i] - covered)
    return out


# what each wrapped call adds to the counters: (recorder, args, result, token)
Count = Callable[[Recorder, tuple, object, object], None]


@dataclass(frozen=True)
class Target:
    """A kcb callable to wrap wherever a caller can look it up."""

    owner: object  # defining module or class
    attr: str
    span: str
    count: Count | None = None
    before: Callable[[tuple], object] | None = None


def _count_crystal(rec, args, g, _):
    rec.counts["crystal.vertices"] += len(g.degrees)


def _count_divided_power(rec, args, out, _):
    rec.counts["fock.divided_power_terms_in"] += len(args[1])
    rec.counts["fock.divided_power_terms_out"] += len(out)


def _count_seed(rec, args, out, _):
    rec.counts["canonical.seed_terms"] += len(out)
    rec.max_support = max(rec.max_support, len(out))


def _element_state(args):
    basis, mp = args[0], args[1]
    return mp in basis._elements


def _count_element(rec, args, elem, was_memo):
    disk_hit, rec.disk_hit = rec.disk_hit, False
    if was_memo:
        rec.counts["canonical.memo_hits"] += 1
    elif not disk_hit:
        rec.counts["canonical.elements_computed"] += 1
        rec.counts["canonical.output_terms"] += len(elem.vector)
        rec.max_support = max(rec.max_support, len(elem.vector))


def _count_subtract(rec, args, out, _):
    rec.counts["canonical.subtract_terms"] += len(args[1])
    rec.max_support = max(rec.max_support, len(out))


def _count_disk_load(rec, args, out, _):
    if out is not None:
        rec.counts["canonical.disk_hits"] += 1
        rec.disk_hit = True


def _count_branches(rec, args, out, _):
    rec.counts["closedform.branches"] += len(out)


def _count_instances(rec, args, report, _):
    rec.counts["verify.instances"] += len(report.instances)


TARGETS = (
    Target(crystal, "generate_crystal", "crystal.generate", _count_crystal),
    Target(crystal, "residue_collected_path", "crystal.path"),
    Target(fock, "apply_f_divided", "fock.divided_power", _count_divided_power),
    Target(canonical.CanonicalBasis, "monomial", "canonical.seed", _count_seed),
    Target(canonical.CanonicalBasis, "element", "canonical.element", _count_element,
           _element_state),
    Target(fock.FockVector, "add_scaled", "canonical.subtract", _count_subtract),
    Target(canonical, "element_to_json", "canonical.to_json"),
    Target(canonical.CanonicalBasis, "_disk_store", "canonical.disk_store"),
    Target(canonical.CanonicalBasis, "_disk_load", "canonical.disk_load", _count_disk_load),
    Target(partitions, "dominates", "partitions.dominates"),
    Target(laurent, "exact_div", "laurent.exact_div"),
    Target(closedform, "expand_family", "closedform.expand_family", _count_branches),
    Target(closedform, "family_vectors", "closedform.family_vectors"),
    Target(cli, "main", "cli.main"),
    *(
        Target(verify, fn.__name__, f"verify.{suite}", _count_instances)
        for suite, fn in verify.SUITES.items()
    ),
)


def _wrap(rec: Recorder, t: Target, fn):
    begin, finish, count, before = rec.begin, rec.finish, t.count, t.before

    def traced(*args, **kwargs):
        token = before(args) if before else None
        idx = begin(t.span)
        try:
            out = fn(*args, **kwargs)
        finally:
            finish(idx)
        if count:
            count(rec, args, out, token)
        return out

    traced.__wrapped__ = fn
    traced.__name__ = t.attr
    return traced


def _kcb_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kcb" or name.startswith("kcb."))]


@contextlib.contextmanager
def tracing(rec: Recorder):
    """Wrap every TARGETS callable under each name that is bound to it.

    Module-level names are found by identity in every loaded kcb module,
    so ``kcb.canonical.dominates`` and ``kcb.partitions.dominates`` are
    both covered; methods are replaced on their class.  Everything is
    restored on exit, also when the body raises.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for t in TARGETS:
            fn = t.owner.__dict__[t.attr]
            wrapper = _wrap(rec, t, fn)
            owners = [t.owner] if isinstance(t.owner, type) else _kcb_modules()
            for owner in owners:
                for name, value in list(vars(owner).items()):
                    if value is fn:
                        undo.append((owner, name, value))
                        setattr(owner, name, wrapper)
            for suite, value in list(verify.SUITES.items()):
                if value is fn:
                    undo.append((verify.SUITES, suite, value))
                    verify.SUITES[suite] = wrapper
        yield rec
    finally:
        for owner, name, value in reversed(undo):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)


SPAN_METRICS = {
    # span name: (calls metric or None, seconds metric, inclusive?)
    "crystal.generate": (None, "crystal.generate_s", False),
    "crystal.path": ("crystal.path_calls", "crystal.path_s", False),
    "fock.divided_power": ("fock.divided_power_calls", "fock.divided_power_s", False),
    "canonical.seed": ("canonical.seed_calls", "canonical.seed_s", True),
    "canonical.element": ("canonical.element_calls", "canonical.element_self_s", False),
    "canonical.subtract": ("canonical.subtract_calls", "canonical.subtract_s", False),
    "canonical.to_json": (None, "canonical.to_json_s", False),
    "canonical.disk_store": (None, "canonical.disk_store_s", False),
    "canonical.disk_load": (None, "canonical.disk_load_s", False),
    "partitions.dominates": ("partitions.dominates_calls", "partitions.dominates_s", False),
    "laurent.exact_div": ("laurent.exact_div_calls", "laurent.exact_div_s", False),
    "closedform.expand_family": (
        "closedform.expand_family_calls", "closedform.expand_family_s", False),
    "closedform.family_vectors": (None, "closedform.family_vectors_s", False),
    "cli.main": ("cli.main_calls", "cli.main_s", False),
    **{f"verify.{s}": (None, f"verify.{s}_s", False) for s in verify.SUITES},
}

COUNTERS = (
    "crystal.vertices",
    "fock.divided_power_terms_in",
    "fock.divided_power_terms_out",
    "canonical.seed_terms",
    "canonical.elements_computed",
    "canonical.output_terms",
    "canonical.subtract_terms",
    "canonical.json_bytes",
    "canonical.disk_writes",
    "canonical.disk_hits",
    "canonical.cache_bytes",
    "closedform.branches",
    "verify.instances",
    "cli.output_bytes",
)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never reached reads 0."""
    out: dict[str, float] = {}
    totals = rec.totals()
    for span, (calls_name, secs_name, inclusive) in SPAN_METRICS.items():
        calls, inc, own = totals.get(span, (0, 0.0, 0.0))
        if calls_name:
            out[calls_name] = calls
        out[secs_name] = inc if inclusive else own
    for name in COUNTERS:
        out[name] = rec.counts.get(name, 0)
    out["canonical.max_support"] = rec.max_support
    calls = out["canonical.element_calls"]
    out["canonical.memo_hit_ratio"] = rec.counts["canonical.memo_hits"] / calls if calls else 0.0
    terms = out["canonical.output_terms"]
    out["canonical.seed_to_output_ratio"] = out["canonical.seed_terms"] / terms if terms else 0.0
    return out


def metric_names() -> list[str]:
    """Every metric a traced run reports."""
    return [*layer_metrics(Recorder()), "trace.overhead_s"]


"""Recursive canonical-basis computation: an LLT-type seed and its
reduction to the canonical basis, plus shape, sveltness, the diamond
involution, and serialization.

The seed of G(mu) is A = f_i^(k) G(mu'), where (i, k) is the last segment
of mu's residue-collected path and mu' = e~_i^k(mu) is the top of mu's
i-string (Lascoux-Leclerc-Thibon; Fayers for higher level).  It is
bar-invariant, and by Kashiwara's divided-power rule G(mu) occurs in it
with coefficient exactly 1.  The reduction expresses A over the canonical
elements at the same weight and strips off everything but G(mu).  Write
A = sum_nu m_nu G(nu) with every m_nu bar-symmetric and m_mu = 1.  The
reduction is one pass, in decreasing tuple order, over the terms of V = A
whose coefficient lies outside vZ[v].  Tuple order refines dominance:
G(lam) has a term at nu only if lam dominates nu, so only if lam >= nu as
tuples.  Hence when the pass reaches a term nu, every G(lam) with lam > nu
is already subtracted and V[nu] = G(mu)[nu] + m_nu, where G(mu)[nu] lies
in vZ[v].  So the part of V[nu] at exponents <= 0, made bar-symmetric, is
exactly m_nu, nonzero just when V[nu] lies outside vZ[v] (never when nu is
not a crystal vertex, so such a term means a wrong seed), and subtracting
m_nu G(nu) once is exact.  Terms the subtraction pushes out of vZ[v] lie
below nu and join the pass, which thus needs no crystal graph.  At level
>= 2 a seed can involve canonical elements whose labels strictly dominate
mu, so the pass starts at the seed's largest term, not at mu; the final
element is still checked to be dominance-triangular.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from bisect import insort
from dataclasses import dataclass

from .crystal import (
    NotAVertexError,
    WeightInfo,
    f_tilde_string,
    generate_crystal,
    residue_collected_path,
    string_top,
    weight_info,
)
from .fock import CoefficientError, FockContext, FockVector, apply_f_divided, content
from .partitions import Multipartition, dominates, ints_from_json, mp_from_json

# Part of every disk-cache key: raise it when the file format or the
# algorithm changes, so that files written before miss instead of relying
# on the element checks to reject them.  The unversioned keys used before
# it count as version 1.
CACHE_VERSION = 2


class ReductionError(RuntimeError):
    """The triangular reduction failed an invariant; never ignored."""


@dataclass(frozen=True)
class CanonicalElement:
    label: Multipartition
    vector: FockVector
    weight: WeightInfo
    shape: tuple[int, ...]


def compute_shape(
    vector: FockVector, defect: int, label: Multipartition | None = None
) -> tuple[int, ...]:
    """Entry l counts basis terms carrying v^l, with coefficient multiplicity.
    Given a label, also checks the coefficients G(label) must have (leading
    1, the others in vZ[v], none negative: FockVector.shape)."""
    try:
        return vector.shape(defect, label)
    except CoefficientError as exc:
        raise ReductionError(str(exc) if label is None else f"G({label}): {exc}") from exc


def is_svelte(g: CanonicalElement) -> bool:
    """Shape is all ones of length defect + 1."""
    return g.shape == (1,) * (g.weight.defect + 1)


def diamond(ctx: FockContext, mp: Multipartition) -> tuple[FockContext, Multipartition]:
    """Replay the residue-negated path through the dual crystal."""
    dctx = ctx.dual()
    cur = dctx.highest_weight_vertex()
    for i, k in residue_collected_path(ctx, mp):
        cur = f_tilde_string(dctx, cur, (-i) % ctx.e, k)
    return dctx, cur


class CanonicalBasis:
    """Canonical-basis computer for one context, with memoization.

    Elements are memoized per multipartition, and each seed is built from
    the memoized element of the label's string top.  Pass cache_dir (or
    set KCB_CACHE_DIR) to persist elements as content-addressed JSON
    files; a file is served only if it passes the element checks.
    """

    def __init__(self, ctx: FockContext, cache_dir: str | None = None):
        self.ctx = ctx
        self._elements: dict[Multipartition, CanonicalElement] = {}
        self._in_progress: set[Multipartition] = set()
        # one int per distinct coefficient value of the computed elements
        # (all over the exponent base 0), dropped with the basis
        self._coefficients: dict[int, int] = {}
        self._cache_dir = cache_dir

    # seeds

    def monomial(self, mp: Multipartition) -> FockVector:
        """The seed f_i^(k) G(top), where (i, k, top) is mp's first string
        (string_top, the last segment of the residue-collected path);
        bar-invariant, with G(mp) at coefficient 1.  The highest weight
        vertex seeds itself."""
        step = string_top(self.ctx, mp)
        if step is None:
            return FockVector.basis(mp)
        i, k, top = step
        return apply_f_divided(self.ctx, self.element(top).vector, i, k)

    # canonical elements

    def element(self, mp: Multipartition) -> CanonicalElement:
        got = self._elements.get(mp)
        if got is not None:
            return got
        disk = self._disk_load(mp)
        if disk is not None:
            self._elements[mp] = disk
            return disk
        if mp in self._in_progress:
            raise ReductionError(f"cyclic canonical-basis dependency at {mp}")
        self._in_progress.add(mp)
        try:
            elem = self._compute(mp)
        finally:
            self._in_progress.discard(mp)
        self._elements[mp] = elem
        self._disk_store(elem)
        return elem

    def at_weight(self, cont) -> dict[Multipartition, CanonicalElement]:
        """G(mu) for every vertex mu at this weight."""
        cont = tuple(cont)
        verts = generate_crystal(self.ctx, sum(cont)).by_content().get(cont)
        if not verts:
            raise ValueError(f"content {cont} does not occur in the crystal")
        return {mp: self.element(mp) for mp in sorted(verts, reverse=True)}

    def _compute(self, mp: Multipartition) -> CanonicalElement:
        V = self.monomial(mp)  # raises NotAVertexError off the crystal
        info = weight_info(self.ctx, content(self.ctx, mp))

        # terms outside vZ[v], ascending: pop the largest (see the module
        # docstring).  A subtraction only adds terms below nu, so a queued
        # term stays in todo until it is popped.
        todo = sorted(V.outside_vzv())
        queued = set(todo)
        while todo:
            nu = todo.pop()
            if nu == mp:
                continue
            m_nu = V.symmetric_low(nu)
            if not m_nu:
                continue  # a term back in vZ[v]
            try:
                g = self.element(nu).vector
            except NotAVertexError as exc:
                raise ReductionError(f"wrong seed for G({mp}): {nu} is not a vertex") from exc
            V = V.add_scaled(g, -m_nu)
            for lam in V.outside_vzv(among=g):
                if lam not in queued:
                    queued.add(lam)
                    insort(todo, lam)

        shape = self._check_element(mp, V, info.defect)
        # checked: every exponent is >= 0, so the base 0 drops nothing
        return CanonicalElement(mp, V.interned(self._coefficients), info, shape)

    def _check_element(self, mp: Multipartition, V: FockVector, defect: int) -> tuple[int, ...]:
        """The shape of V, once V passes the checks of G(mp): the
        coefficient checks of compute_shape and dominance-triangularity."""
        shape = compute_shape(V, defect, mp)
        for lam in V:
            if lam != mp and not dominates(mp, lam):
                raise ReductionError(
                    f"reduction failure: {lam} in G({mp}) is not dominated by the label"
                )
        return shape

    # optional persistent cache

    def _cache_path(self, mp: Multipartition) -> str | None:
        root = self._cache_dir or os.environ.get("KCB_CACHE_DIR")
        if not root:
            return None
        key = json.dumps(
            {"e": self.ctx.e, "charges": self.ctx.charges, "mp": mp, "version": CACHE_VERSION},
            sort_keys=True,
        )
        digest = hashlib.sha256(key.encode()).hexdigest()[:32]
        return os.path.join(root, f"{digest}.json")

    def _disk_load(self, mp: Multipartition) -> CanonicalElement | None:
        """The cached G(mp), or None (a miss) when the file is absent,
        unreadable (an OSError, say a directory at its path), not an
        element, or fails a check."""
        path = self._cache_path(mp)
        if not path or not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                elem = element_from_json(json.load(fh))
            info = weight_info(self.ctx, content(self.ctx, mp))
            shape = self._check_element(mp, elem.vector, info.defect)
        except (OSError, ValueError, KeyError, TypeError, ReductionError):
            # unreadable, bad JSON or text, a missing key, a value of the wrong type, a failed check
            return None
        return elem if (elem.label, elem.weight, elem.shape) == (mp, info, shape) else None

    def _disk_store(self, elem: CanonicalElement) -> None:
        path = self._cache_path(elem.label)
        if not path:
            return
        # encoded before the temporary file exists, so a failure leaves none;
        # json.dumps takes the C encoder, json.dump the pure-Python one
        text = json.dumps(element_to_json(elem))
        root = os.path.dirname(path)
        os.makedirs(root, exist_ok=True)
        # a private temporary file per write, so concurrent writers never share one
        fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except OSError:
            os.unlink(tmp)  # a failed write or rename leaves no temporary file
            raise


_BASES: dict[tuple, CanonicalBasis] = {}


def get_basis(ctx: FockContext, cache_dir: str | None = None) -> CanonicalBasis:
    """Shared per-context basis computer (process-wide memoization)."""
    key = (ctx.e, ctx.charges, cache_dir)
    basis = _BASES.get(key)
    if basis is None:
        basis = CanonicalBasis(ctx, cache_dir)
        _BASES[key] = basis
    return basis


# serialization


def element_to_json(elem: CanonicalElement) -> dict:
    """A JSON-ready document; its tuples (label, multipartitions, content,
    hub, shape) are handed to json as they are, which writes them as lists.
    Terms with equal coefficients may share one coefficient dict, so the
    document is read-only."""
    return {
        "label": elem.label,
        "content": elem.weight.content,
        "hub": elem.weight.hub,
        "defect": elem.weight.defect,
        "shape": elem.shape,
        "terms": elem.vector.to_json()[::-1],  # decreasing tuple order
    }


def element_from_json(data) -> CanonicalElement:
    """The element of element_to_json's document.  Every number must be an
    int: a float or bool equals the int a check compares it with, but would
    be served and written back as it is."""
    vector = FockVector.from_json(data["terms"])
    content, hub, shape = (ints_from_json(data[key]) for key in ("content", "hub", "shape"))
    (defect,) = ints_from_json([data["defect"]])
    info = WeightInfo(content, hub, defect)
    return CanonicalElement(mp_from_json(data["label"]), vector, info, shape)

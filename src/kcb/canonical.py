"""Recursive canonical-basis computation: an LLT-type seed and its
reduction to the canonical basis, plus shape, sveltness, the diamond
involution, and serialization.

The seed of G(mu) is A = f_i^(k) G(mu'), where k = eps_i(mu) > 0 and
mu' = e~_i^k(mu) is the top of mu's i-string (Lascoux-Leclerc-Thibon;
Fayers for higher level).  It is bar-invariant, and by Kashiwara's
divided-power rule G(mu) occurs in it with coefficient exactly 1, for any
such i (Duke Math. J. 69, 1993).  The i is crystal.string_top's, the one
whose top has the lowest defect, so (i, k) is the last segment of mu's
residue-collected path.  The reduction
expresses A over the canonical elements at the same weight and strips
off everything but G(mu).  Write
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
element is still checked to be dominance-triangular.  The pass, reduce_seed,
takes any seed built by divided powers from canonical elements, such as
the monomial of mu's whole path, and checks that no m_nu has a negative
coefficient.  It returns G(mu) and its certificate, the (nu, m_nu) it
subtracted in that order.  CanonicalBasis._compute checks Kashiwara's rule
of the seed's f_i^(k) G(top), eps_i(nu) > k, over the certificate.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from bisect import insort
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from .crystal import (
    NotAVertexError,
    WeightInfo,
    _reduced_signature,
    f_tilde_string,
    generate_crystal,
    residue_collected_path,
    string_top,
    weight_info,
)
from .fock import CoefficientError, FockContext, FockVector, apply_f_divided, content
from .laurent import LaurentPoly
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
    # the JSON maps of the coefficients of the basis that holds the element
    # (FockVector.to_json), shared by all its documents
    json_maps: dict | None = field(default=None, compare=False, repr=False)


def checked_element(ctx: FockContext, label: Multipartition, vector: FockVector) -> CanonicalElement:
    """G(label) with this vector, once it passes the checks of G(label):
    those of FockVector.shape (leading 1, the others in vN[v], exponents
    within the defect) and dominance-triangularity; else ReductionError.
    Every element kcb builds comes through here; a term of another level
    or size than the label fails it too.  Its vector is stored first
    (FockVector.stored sorts the terms), and its bound is lowered to
    max(shape); one dominance walk then checks the sorted terms, whose
    shared leading components it walks once."""
    info = weight_info(ctx, content(ctx, label))
    vector = vector.stored()
    try:
        shape = vector.shape(info.defect, label)
    except CoefficientError as exc:
        raise ReductionError(f"G({label}): {exc}") from exc
    try:
        ok = dominates(label, *vector)
    except ValueError:  # a term of another level or size than the label
        ok = False
    if not ok:  # name the first term that fails, by one-term calls
        for lam in vector:
            try:
                if not dominates(label, lam):
                    raise ReductionError(
                        f"reduction failure: {lam} in G({label}) is not dominated by the label"
                    )
            except ValueError as exc:
                raise ReductionError(f"reduction failure: {lam} in G({label}): {exc}") from exc
    return CanonicalElement(label, vector, info, shape)


def reduce_seed(
    ctx: FockContext, label: Multipartition, seed: FockVector, element: Callable
) -> tuple[CanonicalElement, list[tuple[Multipartition, LaurentPoly]]]:
    """G(label) from a seed that holds it at coefficient 1, where element(nu)
    gives G(nu), and the certificate (module docstring).  ReductionError on
    a negative m_nu, a nu off the crystal, or a failed checked_element."""
    # terms outside vZ[v], ascending: pop the largest.  A subtraction only
    # adds terms below nu, so a queued term stays in todo until it is popped.
    V, todo = seed, sorted(seed.outside_vzv())
    queued = set(todo)
    certificate = []
    while todo:
        nu = todo.pop()
        if nu == label:
            continue
        m_nu = V.symmetric_low(nu)
        if not m_nu:
            continue  # a term back in vZ[v]
        # divided powers of canonical elements have coefficients in N[v, v^-1]
        # on the canonical basis (Lusztig, Introduction to Quantum Groups, 1993)
        if any(c < 0 for _, c in m_nu.items()):
            raise ReductionError(f"wrong seed for G({label}): G({nu}) has multiplicity {m_nu}")
        try:
            g = element(nu).vector
        except NotAVertexError as exc:
            raise ReductionError(f"wrong seed for G({label}): {nu} is not a vertex") from exc
        V = V.add_scaled(g, -m_nu)
        certificate.append((nu, m_nu))
        for lam in V.outside_vzv(among=g):
            if lam not in queued:
                queued.add(lam)
                insort(todo, lam)
    return checked_element(ctx, label, V), certificate


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

    The caller owns the basis and its memo of elements; each seed is built
    from the memoized element of the top of the label's string_top.  Only
    a basis passed cache_dir persists elements, as content-addressed JSON
    files; a file is served only if it passes the element checks.  The
    first file that cannot be written costs one RuntimeWarning, not the
    element, and ends the stores of this basis; its reads go on.
    """

    def __init__(self, ctx: FockContext, cache_dir: str | None = None):
        self.ctx = ctx
        self._elements: dict[Multipartition, CanonicalElement] = {}
        self._in_progress: set[Multipartition] = set()
        # one int per distinct coefficient value of the computed elements
        # (all over the exponent base 0), and the JSON map of each as
        # element_to_json first decodes it; both dropped with the basis
        self._coefficients: dict[int, int] = {}
        self._json_maps: dict[int, dict[str, int]] = {}
        self._cache_dir = cache_dir
        self._storing = bool(self._cache_dir)  # until the first failed store

    # seeds

    def monomial(self, mp: Multipartition) -> FockVector:
        """The seed f_i^(k) G(top) of mp's string_top (i, k, top), k its
        number of good nodes and top = e~_i^k(mp); bar-invariant, with G(mp)
        at coefficient 1.  The highest weight vertex seeds itself."""
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
        elem = self._compute(mp) if disk is None else disk
        # checked: every exponent is >= 0, so the base 0 drops nothing and
        # the interned vector equals the checked one, its terms not sorted again
        elem = replace(elem, vector=elem.vector.interned(self._coefficients), json_maps=self._json_maps)
        self._elements[mp] = elem
        if disk is None and self._storing:
            try:
                self._disk_store(elem)
            except OSError as exc:
                # the cache is optional: the element is computed and memoised;
                # a cache that failed once (a file at its path, read-only, full) warns once
                self._storing = False
                warnings.warn(
                    f"G({mp}) not stored in the disk cache at {self._cache_path(mp)}: {exc};"
                    " no further element of this basis is stored",
                    RuntimeWarning,
                )
        return elem

    def at_weight(self, cont) -> dict[Multipartition, CanonicalElement]:
        """G(mu) for every vertex mu at this weight."""
        cont = tuple(cont)
        verts = generate_crystal(self.ctx, sum(cont)).by_content().get(cont)
        if not verts:
            raise ValueError(f"content {cont} does not occur in the crystal")
        return {mp: self.element(mp) for mp in sorted(verts, reverse=True)}

    def _compute(self, mp: Multipartition) -> CanonicalElement:
        if mp in self._in_progress:
            raise ReductionError(f"cyclic canonical-basis dependency at {mp}")
        self._in_progress.add(mp)
        try:  # monomial raises NotAVertexError off the crystal
            elem, certificate = reduce_seed(self.ctx, mp, self.monomial(mp), self.element)
        finally:
            self._in_progress.discard(mp)
        if certificate:  # Kashiwara, Duke Math. J. 69, 1993: each eps_i(nu) > k
            i, k, _ = string_top(self.ctx, mp)
            for nu, _ in certificate:
                eps = len(_reduced_signature(self.ctx, nu, i)[1])
                if eps <= k:
                    raise ReductionError(
                        f"wrong seed for G({mp}): f_{i}^({k}) G(top) holds G({nu}),"
                        f" whose eps_{i} is {eps}"
                    )
        return elem

    # optional persistent cache

    def _cache_path(self, mp: Multipartition) -> str | None:
        if not self._cache_dir:
            return None
        key = json.dumps(
            {"e": self.ctx.e, "charges": self.ctx.charges, "mp": mp, "version": CACHE_VERSION},
            sort_keys=True,
        )
        digest = hashlib.sha256(key.encode()).hexdigest()[:32]
        return os.path.join(self._cache_dir, f"{digest}.json")

    def _disk_load(self, mp: Multipartition) -> CanonicalElement | None:
        """The cached G(mp), or None (a miss) when the file is absent,
        unreadable (an OSError, say a directory at its path), not
        element_to_json's document with every number an int (a float or
        bool would be served and written back as it is), or fails a check."""
        path = self._cache_path(mp)
        if not path:
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            vector = FockVector.from_json(data["terms"])
            content, hub, shape = (ints_from_json(data[k]) for k in ("content", "hub", "shape"))
            (defect,) = ints_from_json([data["defect"]])
            label = mp_from_json(data["label"])
            elem = checked_element(self.ctx, mp, vector)
        except (OSError, ValueError, KeyError, TypeError, ReductionError):
            return None  # absent, unreadable, bad JSON, a missing key or a wrong type, a failed check
        # the file's label, weight and shape must be the checked ones
        same = (label, WeightInfo(content, hub, defect), shape) == (mp, elem.weight, elem.shape)
        return elem if same else None

    def _disk_store(self, elem: CanonicalElement) -> None:
        path = self._cache_path(elem.label)
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


# serialization


def element_to_json(elem: CanonicalElement) -> dict:
    """A JSON-ready document; its tuples (label, multipartitions, content,
    hub, shape) are handed to json as they are, which writes them as lists.
    Terms with equal coefficients share one coefficient dict, within the
    document and across the documents of one basis's elements (its
    json_maps), so every document is read-only."""
    return {
        "label": elem.label,
        "content": elem.weight.content,
        "hub": elem.weight.hub,
        "defect": elem.weight.defect,
        "shape": elem.shape,
        "terms": elem.vector.to_json(elem.json_maps)[::-1],  # decreasing tuple order
    }


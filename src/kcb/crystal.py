"""Kashiwara crystal via the signature rule, graph generation, weights,
hubs, defects, the block-reduced graph, and path extraction.

Signature convention: the +/- word is written bottom to top (component 1
is topmost), "-+" pairs are cancelled, the good node is the leftmost
surviving "-", the cogood node the rightmost surviving "+".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce

from .fock import FockContext, add_node, content, i_node_slots, remove_node
from .partitions import Multipartition, ints_from_json, is_e_regular, mp_from_json, mp_to_json


class NotAVertexError(ValueError):
    """The multipartition is not reachable in the crystal."""


@lru_cache(maxsize=None)
def cartan_matrix(e: int) -> tuple[tuple[int, ...], ...]:
    """Affine Cartan matrix of the rank-e cyclic diagram (e=2 gives [[2,-2],[-2,2]])."""
    rows = []
    for i in range(e):
        row = [0] * e
        row[i] = 2
        row[(i + 1) % e] -= 1
        row[(i - 1) % e] -= 1
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class WeightInfo:
    content: tuple[int, ...]
    hub: tuple[int, ...]
    defect: int


def weight_info(ctx: FockContext, cont) -> WeightInfo:
    """Hub h = a - C c and defect a.c - (c.Cc)/2 for the weight Lambda - sum c_i alpha_i.

    C is symmetric with diagonal 2, so (c.Cc)/2 = sum c_i^2 + sum_{i<j} C_ij c_i c_j,
    an integer.
    """
    cont = tuple(int(x) for x in cont)
    if len(cont) != ctx.e or any(x < 0 for x in cont):
        raise ValueError(f"content must be a non-negative length-{ctx.e} vector: {cont}")
    C = cartan_matrix(ctx.e)
    a = ctx.weight_multiplicities
    e = ctx.e
    hub = tuple(a[i] - sum(C[i][j] * cont[j] for j in range(e)) for i in range(e))
    defect = sum(a[i] * cont[i] - cont[i] ** 2 for i in range(e)) - sum(
        C[i][j] * cont[i] * cont[j] for i in range(e) for j in range(i + 1, e)
    )
    return WeightInfo(cont, hub, defect)


def _reduced_signature(ctx: FockContext, mp: Multipartition, i: int) -> tuple[list, list]:
    """The surviving addable and removable i-nodes after '-+' cancellation,
    each bottom to top: the reduced word is + for each addable, then - for
    each removable.  Adding a cogood node or removing a good one flips
    its sign and cancels nothing new, so one signature fixes the i-string."""
    adds, rems = [], []
    for node, isadd in reversed(i_node_slots(ctx, mp, i)):
        if not isadd:
            rems.append(node)
        elif rems:
            rems.pop()
        else:
            adds.append(node)
    return adds, rems


def _f_power(ctx: FockContext, mp: Multipartition, i: int, k: int) -> Multipartition | None:
    """f~_i^k: the k rightmost surviving + of one signature added; None
    if fewer than k survive."""
    adds, _ = _reduced_signature(ctx, mp, i)
    return reduce(add_node, adds[len(adds) - k :], mp) if k <= len(adds) else None


def f_tilde(ctx: FockContext, mp: Multipartition, i: int) -> Multipartition | None:
    """Add the i-cogood node (rightmost surviving +); None if there is none."""
    return _f_power(ctx, mp, i, 1)


def f_tilde_string(ctx: FockContext, mp: Multipartition, i: int, k: int) -> Multipartition:
    """f~_i applied k times; NotAVertexError if the i-string ends first."""
    out = _f_power(ctx, mp, i, k)
    if out is None:
        raise NotAVertexError(f"path broke at residue {i} from {mp}")
    return out


def e_tilde(ctx: FockContext, mp: Multipartition, i: int) -> Multipartition | None:
    """Remove the i-good node (leftmost surviving -); None if there is none."""
    _, rems = _reduced_signature(ctx, mp, i)
    return remove_node(mp, rems[0]) if rems else None


@dataclass
class CrystalGraph:
    ctx: FockContext
    max_degree: int
    degrees: dict[Multipartition, int]
    edges: list[tuple[Multipartition, int, Multipartition]]
    _by_content: dict[tuple[int, ...], list[Multipartition]] | None = field(
        default=None, repr=False
    )

    def by_content(self) -> dict[tuple[int, ...], list[Multipartition]]:
        if self._by_content is None:
            buckets: dict[tuple[int, ...], list[Multipartition]] = {}
            for mp in self.degrees:
                buckets.setdefault(content(self.ctx, mp), []).append(mp)
            for v in buckets.values():
                v.sort()
            self._by_content = buckets
        return self._by_content


def generate_crystal(ctx: FockContext, max_degree: int) -> CrystalGraph:
    """Breadth-first closure of the highest weight vertex under every f~_i."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    start = ctx.highest_weight_vertex()
    degrees = {start: 0}
    edges: list[tuple[Multipartition, int, Multipartition]] = []
    frontier = [start]
    for d in range(max_degree):
        nxt = []
        for mp in frontier:
            for i in range(ctx.e):
                img = f_tilde(ctx, mp, i)
                if img is None:
                    continue
                edges.append((mp, i, img))
                if img not in degrees:
                    degrees[img] = d + 1
                    nxt.append(img)
        nxt.sort()
        frontier = nxt
    return CrystalGraph(ctx, max_degree, degrees, edges)


@dataclass
class BlockReducedGraph:
    """Quotient of the crystal by content; vertices are weights."""

    ctx: FockContext
    max_degree: int
    weights: dict[tuple[int, ...], WeightInfo]
    dims: dict[tuple[int, ...], int]
    edges: list[tuple[tuple[int, ...], int, tuple[int, ...]]]


def block_reduced(g: CrystalGraph) -> BlockReducedGraph:
    weights: dict[tuple[int, ...], WeightInfo] = {}
    dims: dict[tuple[int, ...], int] = {}
    for cont, verts in g.by_content().items():
        weights[cont] = weight_info(g.ctx, cont)
        dims[cont] = len(verts)
    eset = set()
    for src, i, dst in g.edges:
        eset.add((content(g.ctx, src), i, content(g.ctx, dst)))
    return BlockReducedGraph(g.ctx, g.max_degree, weights, dims, sorted(eset))


def is_external(bg: BlockReducedGraph, cont) -> bool:
    """True iff some raising direction leaves the weight set.

    Raised contents sit at lower degree, so truncation never hides them.
    """
    cont = tuple(int(x) for x in cont)
    if cont not in bg.weights:
        raise ValueError(f"{cont} is not a weight of the graph")
    for i in range(bg.ctx.e):
        if cont[i] == 0:
            return True
        raised = cont[:i] + (cont[i] - 1,) + cont[i + 1 :]
        if raised not in bg.weights:
            return True
    return False


def string_top(ctx: FockContext, mp: Multipartition) -> tuple[int, int, Multipartition] | None:
    """(i, k, e~_i^k(mp)) for mp's first maximal string, i the smallest
    residue with a good node, k = eps_i the number of surviving - of its
    signature; None at the highest weight vertex.  Raises NotAVertexError
    when mp is not e-regular or has no good node."""
    if mp == ctx.highest_weight_vertex():
        return None
    if not is_e_regular(mp, ctx.e):
        raise NotAVertexError(f"{mp} is not {ctx.e}-regular")
    for i in range(ctx.e):
        _, rems = _reduced_signature(ctx, mp, i)
        if rems:
            return i, len(rems), reduce(remove_node, rems, mp)
    raise NotAVertexError(f"{mp} does not reach the highest weight vertex")


def residue_collected_path(ctx: FockContext, mp: Multipartition) -> tuple[tuple[int, int], ...]:
    """Segments (residue, multiplicity) of maximal strings leading from the
    highest weight vertex to mp: string_top peeled down to it, reversed."""
    segs: list[tuple[int, int]] = []
    step = string_top(ctx, mp)
    while step is not None:
        segs.append(step[:2])
        step = string_top(ctx, step[2])
    return tuple(reversed(segs))


# serialization


def crystal_to_json(g: CrystalGraph) -> dict:
    verts = sorted(g.degrees.items(), key=lambda kv: (kv[1], kv[0]))
    return {
        "e": g.ctx.e,
        "charges": list(g.ctx.charges),
        "max_degree": g.max_degree,
        "vertices": [
            {
                "multipartition": mp_to_json(mp),
                "degree": d,
                "content": list(content(g.ctx, mp)),
            }
            for mp, d in verts
        ],
        "edges": [
            {"source": mp_to_json(s), "residue": i, "target": mp_to_json(t)}
            for s, i, t in g.edges
        ],
    }


def crystal_from_json(data) -> CrystalGraph:
    """The graph of crystal_to_json's document.  The degrees and residues
    must be ints: a bool, a float or any other value raises TypeError."""
    ctx = FockContext(data["e"], tuple(data["charges"]))
    (max_degree,) = ints_from_json([data["max_degree"]])
    degrees = {}
    for v in data["vertices"]:
        (d,) = ints_from_json([v["degree"]])
        degrees[mp_from_json(v["multipartition"])] = d
    edges = []
    for e in data["edges"]:
        (i,) = ints_from_json([e["residue"]])
        edges.append((mp_from_json(e["source"]), i, mp_from_json(e["target"])))
    return CrystalGraph(ctx, max_degree, degrees, edges)


def block_to_json(bg: BlockReducedGraph) -> dict:
    order = sorted(bg.weights, key=lambda c: (sum(c), c))
    return {
        "e": bg.ctx.e,
        "charges": list(bg.ctx.charges),
        "max_degree": bg.max_degree,
        "vertices": [
            {
                "content": list(c),
                "hub": list(bg.weights[c].hub),
                "defect": bg.weights[c].defect,
                "dimension": bg.dims[c],
            }
            for c in order
        ],
        "edges": [
            {"source": list(s), "residue": i, "target": list(t)} for s, i, t in bg.edges
        ],
    }


def block_from_json(data) -> BlockReducedGraph:
    """The graph of block_to_json's document.  Every number but the
    context's must be an int: a bool, a float or any other value raises
    TypeError."""
    ctx = FockContext(data["e"], tuple(data["charges"]))
    (max_degree,) = ints_from_json([data["max_degree"]])
    weights = {}
    dims = {}
    for v in data["vertices"]:
        c = ints_from_json(v["content"])
        defect, dim = ints_from_json([v["defect"], v["dimension"]])
        weights[c] = WeightInfo(c, ints_from_json(v["hub"]), defect)
        dims[c] = dim
    edges = []
    for e in data["edges"]:
        (i,) = ints_from_json([e["residue"]])
        edges.append((ints_from_json(e["source"]), i, ints_from_json(e["target"])))
    return BlockReducedGraph(ctx, max_degree, weights, dims, edges)


def _hub_label(info: WeightInfo) -> str:
    return "[" + ",".join(str(h) for h in info.hub) + "]^" + str(info.defect)


def block_to_dot(bg: BlockReducedGraph) -> str:
    """DOT rendering; each weight is labelled hub^defect, edges by residue."""
    order = sorted(bg.weights, key=lambda c: (sum(c), c))
    ids = {c: "w_" + "_".join(str(x) for x in c) for c in order}
    lines = ["digraph block_reduced_crystal {", '  rankdir="TB";']
    for c in order:
        lines.append(f'  {ids[c]} [label="{_hub_label(bg.weights[c])}", shape=box];')
    for s, i, t in bg.edges:
        lines.append(f'  {ids[s]} -> {ids[t]} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Kashiwara crystal via the signature rule, graph generation, weights,
hubs, defects, the block-reduced graph, and path extraction.

Signature convention: the +/- word is written bottom to top (component 1
is topmost), "-+" pairs are cancelled, the good node is the leftmost
surviving "-", the cogood node the rightmost surviving "+".

string_top is the one rule that chooses among a vertex's maximal strings:
the one whose top has the lowest defect, the smallest residue on a tie.
The seed of G(mu) (canonical.CanonicalBasis.monomial), the
residue-collected path and the duality images all peel that string.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .fock import FockContext, add_node, content, i_node_slots, remove_node
from .partitions import Multipartition, ints_from_json, is_e_regular


class NotAVertexError(ValueError):
    """The multipartition is not reachable in the crystal."""


@dataclass(frozen=True)
class WeightInfo:
    content: tuple[int, ...]
    hub: tuple[int, ...]
    defect: int


def weight_info(ctx: FockContext, cont) -> WeightInfo:
    """Hub h = a - C c and defect a.c - (c.Cc)/2 for the weight Lambda - sum c_i alpha_i.

    C is the affine Cartan matrix of the rank-e cycle: 2 on the diagonal,
    -1 at each of the two neighbours i - 1 and i + 1 mod e (-2 at e = 2,
    where both are the other residue).  So h_i = a_i - 2c_i + c_(i-1) +
    c_(i+1), and (c.Cc)/2 = sum_i (c_i^2 - c_i c_(i+1)), an integer.
    A content entry that is not an int (a bool, a float) raises TypeError.
    """
    cont = ints_from_json(cont)
    if len(cont) != ctx.e or any(x < 0 for x in cont):
        raise ValueError(f"content must be a non-negative length-{ctx.e} vector: {cont}")
    a = ctx.weight_multiplicities
    e = ctx.e
    hub = tuple(a[i] - 2 * cont[i] + cont[i - 1] + cont[(i + 1) % e] for i in range(e))
    defect = sum(a[i] * cont[i] - cont[i] ** 2 + cont[i] * cont[(i + 1) % e] for i in range(e))
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
    """Quotient of the crystal by content; vertices are weights, in the
    (degree, content) order block_reduced inserts them."""

    ctx: FockContext
    max_degree: int
    weights: dict[tuple[int, ...], WeightInfo]
    dims: dict[tuple[int, ...], int]
    edges: list[tuple[tuple[int, ...], int, tuple[int, ...]]]


def block_reduced(g: CrystalGraph) -> BlockReducedGraph:
    weights: dict[tuple[int, ...], WeightInfo] = {}
    dims: dict[tuple[int, ...], int] = {}
    for cont, verts in sorted(g.by_content().items(), key=lambda cv: (sum(cv[0]), cv[0])):
        weights[cont] = weight_info(g.ctx, cont)
        dims[cont] = len(verts)
    # each vertex's content, as by_content took it
    cont_of = {mp: cont for cont, verts in g.by_content().items() for mp in verts}
    eset = {(cont_of[src], i, cont_of[dst]) for src, i, dst in g.edges}
    return BlockReducedGraph(g.ctx, g.max_degree, weights, dims, sorted(eset))


def is_external(bg: BlockReducedGraph, cont) -> bool:
    """True iff some raising direction leaves the weight set.

    Raised contents sit at lower degree, so truncation never hides them.
    A content entry that is not an int (a bool, a float) raises TypeError.
    """
    cont = ints_from_json(cont)
    if cont not in bg.weights:
        raise ValueError(f"{cont} is not a weight of the graph")
    return not all(string_steps(bg, cont, i, -1) for i in range(bg.ctx.e))


def string_steps(bg: BlockReducedGraph, cont: tuple[int, ...], i: int, step: int) -> int:
    """How many times cont moves by step * alpha_i (step 1 lowers, -1
    raises) and stays a weight of bg: the i-string below or above it."""
    n, cur = 0, list(cont)
    while True:
        cur[i] += step
        if tuple(cur) not in bg.weights:
            return n
        n += 1


def string_top(ctx: FockContext, mp: Multipartition) -> tuple[int, int, Multipartition] | None:
    """(i, k, e~_i^k(mp)) for the maximal string of mp whose top has the
    lowest defect, the smallest i on a tie; k = eps_i(mp) > 0 is the number
    of surviving - of the i-signature.  Lowering the content by k alpha_i
    lowers the defect by k hub_i + k^2, and hub_i = phi_i - eps_i, so the
    top's defect is defect(mp) - eps_i phi_i: the signature's counts
    choose, and no top or weight is built.  This string seeds G(mp) and
    ends mp's residue-collected path.  None at the highest weight vertex;
    NotAVertexError when mp is not e-regular or has no good node."""
    if mp == ctx.highest_weight_vertex():
        return None
    if not is_e_regular(mp, ctx.e):
        raise NotAVertexError(f"{mp} is not {ctx.e}-regular")
    strings = []
    for i in range(ctx.e):
        adds, rems = _reduced_signature(ctx, mp, i)
        if rems:
            strings.append((-len(adds) * len(rems), i, rems))
    if not strings:
        raise NotAVertexError(f"{mp} does not reach the highest weight vertex")
    _, i, rems = min(strings)  # (-eps_i phi_i, i) never ties
    return i, len(rems), reduce(remove_node, rems, mp)


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
    """A JSON-ready document; its tuples (charges, multipartitions,
    contents) are handed to json as they are, which writes them as lists."""
    verts = sorted(g.degrees.items(), key=lambda kv: (kv[1], kv[0]))
    return {
        "e": g.ctx.e,
        "charges": g.ctx.charges,
        "max_degree": g.max_degree,
        "vertices": [
            {"multipartition": mp, "degree": d, "content": content(g.ctx, mp)}
            for mp, d in verts
        ],
        "edges": [{"source": s, "residue": i, "target": t} for s, i, t in g.edges],
    }


def block_to_json(bg: BlockReducedGraph) -> dict:
    """A JSON-ready document, its tuples written as lists as in crystal_to_json."""
    return {
        "e": bg.ctx.e,
        "charges": bg.ctx.charges,
        "max_degree": bg.max_degree,
        "vertices": [
            {"content": c, "hub": w.hub, "defect": w.defect, "dimension": bg.dims[c]}
            for c, w in bg.weights.items()
        ],
        "edges": [{"source": s, "residue": i, "target": t} for s, i, t in bg.edges],
    }


def _hub_label(info: WeightInfo) -> str:
    return "[" + ",".join(str(h) for h in info.hub) + "]^" + str(info.defect)


def block_to_dot(bg: BlockReducedGraph) -> str:
    """DOT rendering; each weight is labelled hub^defect, edges by residue."""
    ids = {c: "w_" + "_".join(str(x) for x in c) for c in bg.weights}
    lines = ["digraph block_reduced_crystal {", '  rankdir="TB";']
    for c in bg.weights:
        lines.append(f'  {ids[c]} [label="{_hub_label(bg.weights[c])}", shape=box];')
    for s, i, t in bg.edges:
        lines.append(f'  {ids[s]} -> {ids[t]} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

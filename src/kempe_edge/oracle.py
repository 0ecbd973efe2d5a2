"""Independent ground truth at desk scale.

Exact chromatic index, exhaustive enumeration of proper colorings, and the
partition of the coloring space into Kempe classes.

Both searches run one engine, the explicit-stack backtracker
``_kernels_py.canonical_colorings``: edges are colored along
``_enum_order`` with at most one fresh color per step, so each coloring
comes once per orbit of the palette renamings.  The enumeration collects
its colorings; the chromatic-index search takes the first, and through the
engine's `accept` hook drops a color as soon as Hall's condition fails at
a vertex it touched: the edges still uncolored there cannot take distinct
colors free at both of their ends.  Such a subtree holds no proper
completion, so the search returns the coloring the plain walk would, on a
subtree of its nodes.  The engine keeps its stack in lists, not in Python
frames, so the interpreter's recursion limit does not bound the edge count.

:func:`kempe_classes` works modulo renamings of the palette.  Swapping two
colors everywhere is one interchange per component of their subgraph, so
every Kempe class is closed under renaming; the partition is computed on
canonical colorings (colors numbered in order of first appearance) and
reported for labeled colorings, exactly as the transforms produce them.
:func:`same_class` searches labeled colorings, so its transcript is a
shortest one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._kernels_py import _enum_order, canonical_colorings
from .errors import (
    BudgetExceeded,
    ColorOutOfRange,
    InternalInvariantError,
    PreconditionViolated,
)
from .graph_core import (
    EdgeColoring,
    Graph,
    _UnionFind,
    check_palette,
    require_proper,
)
from .kempe_engine import KempeMove, Transcript
from .kernels import backend

DEFAULT_STATE_CAP = 5_000_000
DEFAULT_NODE_CAP = 20_000_000


@dataclass(frozen=True)
class KempeClassReport:
    palette: int
    total_colorings: int
    class_count: int
    class_sizes: tuple
    representatives: tuple  # one EdgeColoring per class, discovery order
    truncated: bool  # always False: kempe_classes raises past its cap


def _hall_holds(free: int, ends, used) -> bool:
    """Hall's condition at a vertex x with free colors `free` (bitmask):
    its uncolored edges, to the vertices `ends`, can take pairwise distinct
    colors, each free at x and at the far end (``used`` holds the colors
    present at each vertex).

    A bipartite matching of edges to colors, grown one edge at a time: an
    edge takes its least free unclaimed color, or else a breadth-first
    search looks for an augmenting path (Kuhn).  Polynomial in the degree
    and the palette, for any maximum degree.
    """
    rep = []  # rep[j]: the color bit edge j holds
    owned = 0
    for j, y in enumerate(ends):
        spare = free & ~used[y] & ~owned
        if spare:
            bit = spare & -spare
            rep.append(bit)
            owned |= bit
            continue
        via = {j: None}  # edge -> (color bit it holds, edge that wants it)
        queue = [j]
        seen = 0
        for s in queue:
            cand = free & ~used[ends[s]] & ~seen
            spare = cand & ~owned
            if spare:
                break
            seen |= cand
            while cand:
                bit = cand & -cand
                cand ^= bit
                holder = rep.index(bit)
                via[holder] = (bit, s)
                queue.append(holder)
        else:
            return False
        # s takes a spare color; each edge back along the path takes the
        # color of the one after it
        bit = spare & -spare
        owned |= bit
        rep.append(0)
        while True:
            rep[s] = bit
            back = via[s]
            if back is None:
                break
            bit, s = back
    return True


def _hall_plan(g: Graph, order):
    """Per step i of `order`: the vertices whose Hall system the coloring of
    edge order[i] can change, each as (x, far ends of the edges at x that
    are still uncolored after step i).  The two ends of the edge come first,
    then the far ends of their uncolored edges; vertices with no uncolored
    edge left are dropped.  The (x, ends) pairs are shared between steps,
    so the plan holds O(m * Delta) references."""
    pos = [0] * g.m
    for i, eid in enumerate(order):
        pos[eid] = i
    stages = []  # stages[x][k]: (x, far ends of its edges after the k-th)
    for x in range(g.n + 1):
        ends = tuple(y for _, y in sorted((pos[e], y) for y, e in g.adj[x]))
        stages.append([(x, ends[k:]) for k in range(len(ends) + 1)])
    done = [0] * (g.n + 1)  # edges at each vertex colored so far
    plan = []
    for eid in order:
        for x in g.edges[eid]:
            done[x] += 1
        near = tuple(
            stage for x in g.edges[eid] if (stage := stages[x][done[x]])[1]
        )
        far = tuple(
            stage
            for y in dict.fromkeys(y for _, ends in near for y in ends)
            if (stage := stages[y][done[y]])[1]
        )
        plan.append((near, far))
    return plan


def _search_coloring(g: Graph, t: int, node_cap: int):
    """The first proper t-coloring of :func:`canonical_colorings`, or None.

    The walk is pruned through its `accept` hook: a color is taken back
    when, after it is placed on (u, v), Hall's condition fails at some
    vertex x: the edges still uncolored at x cannot take pairwise distinct
    colors of 1..t, each free at both of its ends (:func:`_hall_holds`).
    Only the systems of u, v and the far ends y of uncolored edges at u or
    v change, and y's only when the color was free at y, so only those are
    checked (:func:`_hall_plan`).

    A failed check means that no proper completion exists, under any names
    of the colors; a completion, if there were one, could be renamed into
    the canonical form the walk enumerates.  So every cut subtree holds no
    solution, the first witness is the one the unpruned walk finds, and
    the pruned tree is a subtree of the unpruned one: `node_cap` (counted
    in colored prefixes: the root and each accepted placement) binds no
    sooner than before.
    """
    plan = _hall_plan(g, _enum_order(g))
    palette = (1 << (t + 1)) - 2  # bits 1..t
    nodes = 1
    if nodes > node_cap:
        raise BudgetExceeded(f"backtracking exceeded {node_cap} nodes")

    def accept(i, bit, used):
        nonlocal nodes
        near, far = plan[i]
        for x, ys in near:
            if not _hall_holds(palette & ~used[x], ys, used):
                return False
        for x, ys in far:
            ux = used[x]
            if not ux & bit and not _hall_holds(palette & ~ux, ys, used):
                return False
        nodes += 1
        if nodes > node_cap:
            raise BudgetExceeded(f"backtracking exceeded {node_cap} nodes")
        return True

    return next((colors[:] for colors in canonical_colorings(g, t, accept)), None)


def chromatic_index(g: Graph, node_cap: int = DEFAULT_NODE_CAP):
    """Exact chromatic index with a witness coloring.

    The overfull bound m > Delta * floor(n/2) certifies Class 2 without
    search; otherwise a Delta-coloring is searched exhaustively.  The answer
    always lands in {Delta, Delta+1}.

    Each search is :func:`_search_coloring`; `node_cap` bounds its nodes
    (colored prefixes of the edge order) and raises ``BudgetExceeded``
    past them.  Hall pruning only removes nodes, but a node costs about
    10.5 us against about 2 us unpruned (pure Python 3.11, 2-core VM): the
    default 20M nodes run out after 212 s on a Class 2 cubic graph with a
    bridge (n = 102) at t = 3.
    """
    delta = g.max_degree()
    if g.m == 0:
        return 0, EdgeColoring(1, [])
    if g.m <= delta * (g.n // 2):
        witness = _search_coloring(g, delta, node_cap)
        if witness is not None:
            return delta, EdgeColoring(delta, witness)
    witness = _search_coloring(g, delta + 1, node_cap)
    if witness is None:
        raise BudgetExceeded("no (Delta+1)-coloring found; graph invariant broken")
    return delta + 1, EdgeColoring(delta + 1, witness)


def _canonical(state: bytes, order) -> bytes:
    """`state` with its colors renamed 1, 2, ... in order of first
    appearance along `order` (the enumeration's edge order)."""
    table = bytearray(range(256))
    fresh = 1
    named = set()
    for e in order:
        c = state[e]
        if c not in named:
            named.add(c)
            table[c] = fresh
            fresh += 1
    return state.translate(table)


def _quotient_neighbors(g, order, t, state, chains):
    """Canonical forms of the Kempe neighbors of a canonical `state`.

    Colors above k = max(state) are absent and interchangeable, so only the
    pairs inside 1..min(t, k + 1) are swapped: a pair of two absent colors
    moves nothing, and every (a, x) with x absent gives the canonical state
    of (a, k + 1).  `chains` is the sweep's memo of components by edge set
    (``_kernels_py.kempe_neighbor_moves``), whose states are ints; each
    neighbor is written out as bytes to be canonicalized.
    """
    top = min(t, max(state, default=0) + 1)
    m = g.m
    s = int.from_bytes(state, "little")
    for nxt in backend.kempe_neighbors(g, s, t, range(1, top + 1), chains):
        yield _canonical(nxt.to_bytes(m, "little"), order)


def _lookup(index, state):
    """Position of a neighbor's canonical form among the enumerated ones;
    the enumeration was complete, so a miss is a bug."""
    j = index.get(state)
    if j is None:
        raise InternalInvariantError("Kempe neighbor missing from a complete enumeration")
    return j


def kempe_classes(
    g: Graph, t: int, cap: int = DEFAULT_STATE_CAP, jobs: int = 1
) -> KempeClassReport:
    """Partition all proper t-colorings into Kempe equivalence classes.

    The sweep runs over canonical colorings, one per orbit of the palette
    renamings (``enumerate_proper``), with each neighbor canonicalized
    before lookup; `cap` bounds the number of orbits.  A canonical coloring
    with k colors stands for perm(t, k) labeled ones, and class sizes and
    the total are sums of these.  The first canonical coloring of a class
    is its lexicographic minimum, so the representatives (one labeled
    coloring per class, in order of discovery) and the class order are
    those of a sweep over all labeled colorings.

    When more than `cap` orbits exist, ``BudgetExceeded`` is raised before
    any neighbor is generated, so the report's `truncated` is always False.
    The sweep keeps one memo of Kempe chains by edge set (see
    ``_kernels_py.kempe_neighbor_moves``), at most one entry per distinct
    (a, b)-edge set of the enumerated colorings; `cap` does not count it.

    The sweep is sequential: `jobs` must be 1, any other value raises
    ``PreconditionViolated``, as does a `cap` below 1.
    """
    check_palette(t)
    _check_cap("kempe_classes", cap)
    if jobs != 1:
        raise PreconditionViolated(f"kempe_classes: jobs must be 1, got {jobs}")
    states, truncated = backend.enumerate_proper(g, t, cap)
    if truncated:
        raise BudgetExceeded(f"more than cap = {cap} colorings up to palette renaming")
    index = {s: i for i, s in enumerate(states)}
    uf = _UnionFind(len(states))
    order = _enum_order(g)
    chains = {}
    for i, s in enumerate(states):
        for nxt in _quotient_neighbors(g, order, t, s, chains):
            uf.union(i, _lookup(index, nxt))
    roots = {}
    sizes = []
    reps = []
    for i, s in enumerate(states):
        r = uf.find(i)
        if r not in roots:
            roots[r] = len(sizes)
            sizes.append(0)
            reps.append(EdgeColoring(t, list(s)))
        sizes[roots[r]] += math.perm(t, max(s, default=0))
    return KempeClassReport(
        palette=t,
        total_colorings=sum(sizes),
        class_count=len(sizes),
        class_sizes=tuple(sizes),
        representatives=tuple(reps),
        truncated=False,
    )


def _check_cap(name, cap):
    """Refuse a state budget below 1, before any search."""
    if cap < 1:
        raise PreconditionViolated(f"{name}: cap must be at least 1, got {cap}")


def _path_to(parent, state):
    """Moves (a, b, rep) along `parent` links from `state` to the root, in
    link order."""
    moves = []
    while parent[state] is not None:
        state, mv = parent[state]
        moves.append(mv)
    return moves


def _meet_in_middle(g, start: bytes, goal: bytes, colors, cap: int, chains=None):
    """A shortest list of interchanges (a, b, rep) over `colors` carrying
    `start` to `goal`, or None when `goal` lies outside its Kempe class.

    A bidirectional breadth-first search over labeled colorings: each step
    expands a whole layer of the smaller frontier and stops at the first
    generated state the other side has stored.  The two balls were disjoint
    before that layer, so the spliced path has the true distance.  A
    backward link reverses itself: swapping a component keeps its edge
    set, so the same move leads back, and its rep is still the component's
    least edge id.  Raises ``BudgetExceeded`` once both sides together
    store more than `cap` states.

    `chains`, when given, is a memo of Kempe chains by edge set that the
    neighbor kernel fills (``_kernels_py.kempe_neighbor_moves``); `start`
    and `goal` must then be proper.  It holds at most min(2^m, pairs x
    expanded states) entries, and `cap` does not count them.  With a memo
    the kernel takes and returns states as ints (one byte per edge id), so
    `start` and `goal` are converted once, at entry; the loop treats states
    as opaque keys.  Without one, as the Delta <= 4 equalizer calls it on
    large graphs, states stay ``bytes``, whose hash Python caches.
    """
    if chains is not None:
        start = int.from_bytes(start, "little")
        goal = int.from_bytes(goal, "little")
    # state -> (neighbor one step nearer the root, (a, b, rep)) or None
    fwd = {start: None}
    bwd = {goal: None}
    front_f, front_b = [start], [goal]
    while front_f and front_b:
        forward = len(front_f) <= len(front_b)
        mine, other = (fwd, bwd) if forward else (bwd, fwd)
        layer = []
        for cur in front_f if forward else front_b:
            # the palette argument is read only when no color set is given
            for a, b, rep, nxt in backend.kempe_neighbor_moves(g, cur, None, colors, chains):
                if nxt in mine:
                    continue
                mine[nxt] = (cur, (a, b, rep))
                if nxt in other:
                    moves = _path_to(fwd, nxt)
                    moves.reverse()
                    return moves + _path_to(bwd, nxt)
                layer.append(nxt)
                if len(fwd) + len(bwd) > cap:
                    raise BudgetExceeded(f"BFS exceeded {cap} states")
        if forward:
            front_f = layer
        else:
            front_b = layer
    return None


def same_class(
    g: Graph,
    t: int,
    f: EdgeColoring,
    h: EdgeColoring,
    cap: int = DEFAULT_STATE_CAP,
):
    """Reachability from f to h under Kempe moves at palette t.

    Returns (reachable, shortest transcript or None), found by
    :func:`_meet_in_middle` over all of 1..t; `cap` bounds the states
    stored by both sides together, and one below 1 raises
    ``PreconditionViolated``, also when f = h.  The search keeps a memo of
    Kempe chains by edge set, at most min(2^m, pairs x expanded states)
    entries that `cap` does not count, and holds its states as ints, one
    byte per edge id: the graphs are small, and a next state is then one
    integer xor, never written out as bytes only to be hashed.
    """
    check_palette(t)
    _check_cap("same_class", cap)
    require_proper(g, f)
    require_proper(g, h)
    for col in (f, h):
        if any(c > t for c in col.colors):
            raise ColorOutOfRange(f"coloring uses colors above palette {t}")
    start = bytes(f.colors)
    goal = bytes(h.colors)
    if start == goal:
        return True, Transcript()
    moves = _meet_in_middle(g, start, goal, range(1, t + 1), cap, {})
    if moves is None:
        return False, None
    return True, Transcript([KempeMove(*mv) for mv in moves])

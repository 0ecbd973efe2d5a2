"""Padding to 4-regular for maximum degree 4, plus the low-degree search
equalizer.

A graph G with maximum degree 4 is padded to one 4-regular graph: its
deficient vertices are joined in pairs, by one direct edge where the
missing h-color is free in f at both ends, else through a 6-vertex
octahedron - xy gadget (for odd n, one K_5 gadget takes a slot of each
color), and the 4-coloring h and the working coloring f both extend to
the new edges (`_pad_to_regular4`).  The padded graph keeps G's vertices
and, first, G's edge ids, so G is its subgraph on the ids 0..m-1 and each
padded coloring restricts to the one it extends.  A
transcript found on the padded graph therefore projects straight onto G,
replaying the padded run on one Recorder, whose first m colors are G's:
the (a, b)-components of a subgraph refine those of the whole graph, so
each padded move becomes a batch of moves on G's components inside it.
The doubling tower (two disjoint copies per missing degree, deficient
twins joined by an edge) is the older way to reach 4-regular, kept with
its lift; its levels are prefix supergraphs of each other too.

The degree-at-most-3 equalizer is a certified search over the Kempe
reconfiguration graph.  It works on the caller's `Recorder`, swapping its
colors in place through `Recorder.swap` (which keeps the recorder's color
masks current) and recording every move in its transcript.  It keeps a
sparse index of the coloring's two-colored components: only those holding
a fixable edge (colored a with goal b, or the reverse) can gain agreement
with the goal, so only those are traced, each scored by the agreement its
interchange gains on its own edges.  Every greedy step takes the first
gaining component in neighbor order from the index's per-pair heaps.  An
edge is fixable for one pair only, so a swap queues each edge of the
swapped component, and of the indexed components it changed (those that
met its vertices, which it drops), as a seed of that one pair, traced
when the walk next reads the pair.  A seed whose other color is missing
at both its ends is its own component, read from the recorder's masks
with no trace.  The index and the projection read components as bare
edge sets, through ``Recorder.component_edges`` and, for G, the kernel,
and swap them through ``Recorder.swap``; neither reads an ordered path.
Only when no component gains does a labeled BFS run to the nearest
better state, and only when that BFS runs out of states does the
oracle's exact bidirectional search carry the coloring to the goal.
Every move, from any of the three, goes through the index, which traces
on demand a component it does not hold.
The transcripts are verified like any other; only termination relies on
the reachability guarantee.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    BudgetExceeded,
    InternalInvariantError,
    NoFreeLowColor,
    PaletteMismatch,
    PreconditionViolated,
    ProjectionMismatch,
    SearchBudgetExceeded,
    WrongMaxDegree,
)
from .graph_core import (
    EdgeColoring,
    Graph,
    _scan_masks,
    check_edge_id,
    require_proper,
    require_target4,
)
from .kempe_engine import (
    KempeMove,
    Recorder,
    Transcript,
    _replay,
    least_color,
    palette_bits,
)
from .kernels import backend
from .oracle import _meet_in_middle, _path_to

DEFAULT_SEARCH_BUDGET = 2_000_000  # states the exact fallback may store
_IMPROVE_BUDGET = 250_000  # states one `_bfs_to_better` may store


@dataclass
class DoublingTower:
    """Levels G_0..G_L (L = 4 - min degree) and the joining edges.

    In level i+1, copy one of vertex v is v and copy two is v + n_i; copy-one
    edges keep their ids 0..m_i-1, copy-two edge e + m_i is the image of e,
    joining edges come last.  So G_i is the subgraph of every higher level
    on the edge ids 0..m_i-1.  No transform builds it any more:
    `transform_delta4` pads with gadgets instead (`_pad_to_regular4`).
    """

    levels: list
    joining_edges: list   # level i -> list of (vertex of G_i, edge id in G_{i+1})


def build_tower(g: Graph) -> DoublingTower:
    if g.max_degree() != 4:
        raise WrongMaxDegree(f"expected maximum degree 4, got {g.max_degree()}")
    levels = [g]
    joining = []
    cur = g
    while cur.min_degree() < 4:
        n = cur.n
        edges = list(cur.edges) + [(u + n, v + n) for u, v in cur.edges]
        join = []
        for v in range(1, n + 1):
            if cur.degree(v) < 4:
                join.append((v, len(edges)))
                edges.append((v, v + n))
        nxt = Graph(2 * n, edges)
        levels.append(nxt)
        joining.append(join)
        cur = nxt
        if len(levels) > 5:
            raise InternalInvariantError("tower failed to reach 4-regularity")
    return DoublingTower(levels, joining)


def lift_coloring(tower: DoublingTower, level: int, f: EdgeColoring) -> EdgeColoring:
    """Color level+1: both copies as f, each joining edge with the smallest
    color of {1,2,3,4} not used at its base vertex."""
    top = len(tower.levels) - 1
    if not 0 <= level < top:
        raise PreconditionViolated(f"level {level} not in 0..{top - 1} (below the top)")
    g = tower.levels[level]
    big = tower.levels[level + 1]
    if f.m != g.m:
        raise PaletteMismatch("coloring does not fit the level")
    colors = list(f.colors) * 2
    for v, _ in tower.joining_edges[level]:
        used = {f.colors[eid] for _, eid in g.adj[v]}
        free = [c for c in (1, 2, 3, 4) if c not in used]
        if not free:
            raise NoFreeLowColor(f"vertex {v} sees every low color")
        colors.append(free[0])
    lifted = EdgeColoring(f.t, colors)
    require_proper(big, lifted, "lifted coloring")
    return lifted


# The octahedron minus xy on gadget vertices 0..5, x = 0 and y = 2, as
# (u, v, class) over the 1-factorization M1 = {03, 15, 24}, M2 = {04, 13,
# 25}, M3 = {05, 12, 34} and M0 = {14, 35}: M0 is the class that lost xy,
# so both x and y miss it, and classes 1..3 are perfect matchings.
_OCT = ((0, 3, 1), (1, 5, 1), (2, 4, 1), (0, 4, 2), (1, 3, 2), (2, 5, 2),
        (0, 5, 3), (1, 2, 3), (3, 4, 3), (1, 4, 0), (3, 5, 0))
# K_5 minus the disjoint edges 01 and 23; in this 4-coloring vertex k
# (k < 4) misses class k, and vertex 4 sees all four classes.
_K5 = ((1, 2, 0), (3, 4, 0), (0, 3, 1), (2, 4, 1),
       (0, 4, 2), (1, 3, 2), (0, 2, 3), (1, 4, 3))


def _oct_coloring(fx, fy, t):
    """Colors from 1..t (t >= 5) for `_OCT`'s edges, proper with ports
    colored fx at x and fy at y: classes 1..3 meet both ports, so they take
    three colors other than fx and fy, and the xy class meets neither, so
    it takes fy when that differs from fx."""
    pal = ([fy] if fy != fx else []) + [k for k in range(1, t + 1) if k not in (fx, fy)]
    return tuple(pal[k] for _, _, k in _OCT)


@lru_cache(maxsize=None)  # a port's color is at most 4, so at most 4^4 keys
def _k5_coloring(port_colors):
    """Colors from 1..5 for `_K5`'s edges, proper, with no edge at vertex k
    (k < 4) colored port_colors[k]: a backtracking search over 8 edges and
    5 colors, so bounded by a constant.  Every one of the 5^4 tuples has
    one."""
    colors = []

    def fits(c, u, v):
        return all(
            c != colors[i] or not {u, v} & {a, b}
            for i, (a, b, _) in enumerate(_K5[:len(colors)])
        ) and all(w == 4 or port_colors[w] != c for w in (u, v))

    def place(i):
        if i == len(_K5):
            return True
        u, v, _ = _K5[i]
        for c in range(1, 6):
            if fits(c, u, v):
                colors.append(c)
                if place(i + 1):
                    return True
                colors.pop()
        return False

    if not place(0):
        raise InternalInvariantError(f"K5 gadget has no coloring for ports {port_colors}")
    return tuple(colors)


def _pad_to_regular4(g: Graph, f: EdgeColoring, h: EdgeColoring):
    """(big, f_big, h_big): a 4-regular graph whose first g.m edge ids and
    vertices 1..n are g's, with proper extensions of f (palette f.t >= 5)
    and of the 4-coloring h.

    The h-colors missing at each vertex are its deficient slots.  Each
    h-color class is a matching, so a color is missing at a number of
    vertices of n's parity.  For odd n each color's last slot is set
    aside; one K_5 minus two disjoint edges covers all four, since each of
    its degree-3 vertices misses a distinct h-color.  Of the other slots
    of color c, those where c is still free in f are paired in ascending
    vertex order (an odd one out joins the rest), and each pair is joined
    by one edge colored c in both f and h, unless the two are adjacent.
    The remaining slots are paired in ascending vertex order, and each
    pair (v, w) is joined through an octahedron - xy gadget by the port
    edges vx and wy.  h colors the gadget by its 1-factorization with the
    xy class mapped to c, so both ports take c.

    f gives each port h's color when it is free at the port's vertex so
    far, else the least free color, and colors the gadgets through
    `_oct_coloring` and `_k5_coloring`.
    """
    n, t = g.n, f.t
    nv = n
    edges = list(g.edges)
    joined = set(g.edges)
    fc = list(f.colors)
    hc = list(h.colors)
    fmask = _scan_masks(g, fc, t)[0]
    hmask = _scan_masks(g, hc, 4)[0]

    def port(v, x, hcolor):
        free = palette_bits(t) & ~fmask[v]
        if not free:
            raise InternalInvariantError(f"no free color for a port at vertex {v}")
        c = hcolor if free >> hcolor & 1 else least_color(free)
        fmask[v] |= 1 << c
        edges.append((v, x))
        fc.append(c)
        hc.append(hcolor)
        return c

    spare = []
    for c in range(1, 5):
        slots = [v for v in range(1, n + 1) if not hmask[v] >> c & 1]
        if len(slots) % 2 != n % 2:
            raise InternalInvariantError(
                f"h-color {c} is missing at {len(slots)} vertices, n = {n}"
                + (f"; vertex {slots[-1]} is left unpaired" if slots else "")
            )
        if n % 2:
            spare.append(slots.pop())
        good = [v for v in slots if not fmask[v] >> c & 1]
        rest = [v for v in slots if fmask[v] >> c & 1]
        if len(good) % 2:
            rest.append(good.pop())
        for v, w in zip(good[::2], good[1::2]):
            if (v, w) in joined:
                rest += (v, w)
                continue
            # c is missing at v and w in both colorings
            joined.add((v, w))
            fmask[v] |= 1 << c
            fmask[w] |= 1 << c
            edges.append((v, w))
            fc.append(c)
            hc.append(c)
        rest.sort()
        hpal = (c, *(k for k in range(1, 5) if k != c))
        for v, w in zip(rest[::2], rest[1::2]):
            fx = port(v, nv + 1, c)
            fy = port(w, nv + 3, c)
            for (a, b, k), fcol in zip(_OCT, _oct_coloring(fx, fy, t)):
                edges.append((nv + 1 + a, nv + 1 + b))
                fc.append(fcol)
                hc.append(hpal[k])
            nv += 6
    if spare:
        ports = tuple(port(v, nv + 1 + k, k + 1) for k, v in enumerate(spare))
        for (a, b, k), fcol in zip(_K5, _k5_coloring(ports)):
            edges.append((nv + 1 + a, nv + 1 + b))
            fc.append(fcol)
            hc.append(k + 1)
        nv += 5
    return Graph(nv, edges), EdgeColoring(t, fc), EdgeColoring(4, hc)


def project_transcript(
    g: Graph, big: Graph, f_big: EdgeColoring, big_tr: Transcript
) -> Transcript:
    """Project a transcript on `big`, starting from `f_big`, onto g, the
    subgraph of `big` on the edge ids 0..g.m-1 (a padded graph, or any
    level of a doubling tower below its top).

    The big run replays on one Recorder, whose mask pass checks `f_big`
    and whose first g.m colors are g's.  Before a big move on C: every
    (a, b)-component of g that meets C lies inside C, and each becomes one
    move, by ascending representative, read before C is swapped; a C with
    every edge in g is one component of g, read no second time.
    A big move that replay rejects raises ProjectionMismatch naming it.
    """
    m = g.m
    if big.edges[:m] != g.edges:
        raise PreconditionViolated("graph is not the big graph on its first edge ids")
    if f_big.m != big.m:
        raise PaletteMismatch("coloring does not fit the big graph")
    t = f_big.t
    rec = Recorder(big, f_big, "big coloring")
    out = Transcript()
    for i, (a, b, rep) in enumerate(big_tr.moves):
        check_edge_id(big, rep)
        if not (0 < a <= t and 0 < b <= t) or rec.colors[rep] not in (a, b):
            raise ProjectionMismatch(f"big transcript does not replay at move {i} {a, b, rep}")
        comp = rec.component_edges(a, b, rep)
        left = {e for e in comp if e < m}
        whole = len(left) == len(comp)
        for se in sorted(left):
            if se not in left:
                continue  # in an earlier component of g
            # ascending, so se is its component's least edge (C if whole)
            part = comp if whole else backend.component_edges(g, rec.colors, a, b, se)
            if not left.issuperset(part):
                raise ProjectionMismatch(f"copy component of edge {se} extends outside"
                                         f" the big component at move {i} {a, b, rep}")
            left.difference_update(part)
            out.append(KempeMove(a, b, se), "projected")
        rec.swap(comp, a, b)
    return out


# ---------------------------------------------------------------------------
# Search equalizer (Delta <= 3 stand-in)
# ---------------------------------------------------------------------------


def _agreement(state: bytes, goal: bytes) -> int:
    """Edges on which `state` and `goal` (of equal length) agree: the zero
    bytes of their XOR, counted in C."""
    x = int.from_bytes(state, "little") ^ int.from_bytes(goal, "little")
    return x.to_bytes(len(goal), "little").count(0)


class _ComponentIndex:
    """The (a, b)-components that hold a fixable edge, for every color
    pair of the search, kept current through interchanges and traced only
    when the walk reads their pair.

    It works on a :class:`Recorder`: `state` is the recorder's color list,
    and every interchange goes through :meth:`Recorder.swap`, which keeps
    the recorder's color masks current.  An edge is *fixable* for (a, b)
    when it is colored a with goal b, or the reverse; only a component
    holding a fixable edge can raise the agreement with `goal`, so only
    those are indexed (a pair's long cycles that already agree with the
    goal are never traced).  Per pair: `owner` maps an edge id to its
    indexed component's representative (least edge id) and is -1 on every
    other edge, `comps` maps a representative to the component's edge ids,
    `gaining` holds the representatives whose interchange raises the
    agreement, `heaps` holds them too, as a min-heap with lazy deletion (a
    top not in `gaining` is stale), and `pending` is a set of seed edges
    not yet traced.

    Invariant: every indexed component is a current (a, b)-component, and
    every edge fixable for (a, b) is owned by an indexed component or is
    pending for (a, b).  An edge is fixable for one pair at most, {its
    color, its goal color}, and only that pair is ever given it as a seed
    (`fix` maps the two colors to the pair).  :meth:`_flush` traces a
    pair's pending seeds, so after it the pair holds exactly its
    components with a fixable edge; a seed whose other color is missing at
    both its ends (`rec.mask`) is a component by itself and is indexed as
    ``(e,)`` with no trace.  :meth:`first_gaining` flushes each pair with
    seeds just before it reads that pair's heap, and the pairs after the
    one it returns stay pending.

    An (a, b) interchange on C changes the fixability of C's edges only.
    It keeps every (a, b)-component and every pair that avoids a and b; on
    the pairs (a, x) and (b, x) it changes only components that meet V(C).
    Those indexed are dropped at once, so no owner entry goes stale.  An
    edge is owned only in pairs that hold its color, and a (c, x)-component
    (c in {a, b}) that meets V(C) at v holds v's c-edge, which lies in C,
    or, when v has none, v ends C and the component holds v's x-edge.  So
    the drop looks up each edge of C in the pairs that hold its color, and
    at each end of C each edge colored x in the pair of x and the color
    the end misses (`look`).  Each edge of C, and each edge of a dropped
    component that is still fixable for its pair, joins the pending seeds
    of the one pair it is fixable for.  That keeps the invariant: a
    fixable edge off C either lies in an old component that was indexed
    and met V(C), or was pending already.
    """

    def __init__(self, rec, goal, colors):
        self.rec = rec
        self.g = g = rec.g
        self.state = state = rec.colors
        self.goal = goal
        cs = sorted(colors)
        self.pairs = pairs = [(a, b) for i, a in enumerate(cs) for b in cs[i + 1:]]
        top = max(rec.t, max(goal, default=0), cs[-1]) + 1
        # fix[c][want]: the one pair an edge colored c with goal want is
        # fixable for, or None
        self.fix = fix = [[None] * top for _ in range(top)]
        for p in pairs:
            fix[p[0]][p[1]] = fix[p[1]][p[0]] = p
        self.owner = owner = {p: [-1] * g.m for p in pairs}
        # look[p][m][c], for m in p: the (q, owner[q]) in which a swap on p
        # looks up an edge colored c.  For c = m (an edge of the swapped
        # component) q runs over the other pairs holding m; for a search
        # color c off p (an edge at an end that misses m) q is {m, c}.
        self.look = {}
        for p in pairs:
            self.look[p] = rows = {}
            for m in p:
                rows[m] = [[] for _ in range(top)]
                for q in pairs:
                    if m in q and q != p:
                        x = q[0] + q[1] - m
                        rows[m][m].append((q, owner[q]))
                        rows[m][x].append((q, owner[q]))
        self.comps = {p: {} for p in pairs}
        self.gaining = {p: set() for p in pairs}
        self.heaps = {p: [] for p in pairs}
        self.pending = pending = {p: set() for p in pairs}
        for e, (c, want) in enumerate(zip(state, goal)):
            p = fix[c][want]
            if p:
                pending[p].add(e)

    def _flush(self, p):
        """Index the component of every pending seed of pair p that is
        fixable for p and held by no indexed component, read through
        :meth:`Recorder.component_edges` (a single edge with no trace)."""
        seeds = self.pending[p]
        a, b = p
        owner, state, goal, fix = self.owner[p], self.state, self.goal, self.fix
        for e in seeds:
            if fix[state[e]][goal[e]] == p and owner[e] < 0:
                self._add(a, b, self.rec.component_edges(a, b, e))
        seeds.clear()

    def _add(self, a, b, comp):
        # owner and gain (as in swapping a and b on comp) in one pass
        owner = self.owner[a, b]
        state, goal = self.state, self.goal
        rep = min(comp)
        gain = 0
        for e in comp:
            owner[e] = rep
            c = state[e]
            want = goal[e]
            gain += (a + b - c == want) - (c == want)
        self.comps[a, b][rep] = comp
        if gain > 0:
            self.gaining[a, b].add(rep)
            heapq.heappush(self.heaps[a, b], rep)

    def _pop(self, p, rep):
        """Drop the indexed component `rep` of pair p; its edge ids."""
        owner = self.owner[p]
        comp = self.comps[p].pop(rep)
        for e in comp:
            owner[e] = -1
        self.gaining[p].discard(rep)
        return comp

    def first_gaining(self):
        """(a, b, rep) of the first gaining component in walk order, or None."""
        for p in self.pairs:
            if self.pending[p]:
                self._flush(p)
            gaining, heap = self.gaining[p], self.heaps[p]
            while heap and heap[0] not in gaining:
                heapq.heappop(heap)
            if heap:
                return (*p, heap[0])
        return None

    def swap(self, a, b, rep):
        """Interchange a and b on the (a, b)-component of edge `rep` and
        update.  A component the index does not hold (a BFS or exact move
        may name one) is traced here."""
        g, state, goal = self.g, self.state, self.goal
        r = self.owner[a, b][rep]
        if r >= 0:
            comp = self._pop((a, b), r)
        else:
            comp = self.rec.component_edges(a, b, rep)
        # drop the other pairs' components that meet V(C): through C's
        # edges, and at an end of C, where a or b is missing, through the
        # edges of the other colors
        adj, edges, look = g.adj, g.edges, self.look[a, b]
        mask, both = self.rec.mask, 1 << a | 1 << b
        dropped = []
        for e in comp:
            c = state[e]
            for p, owner in look[c][c]:
                r = owner[e]
                if r >= 0:
                    dropped.append((p, self._pop(p, r)))
            for v in edges[e]:
                if mask[v] & both != both:
                    row = look[b if mask[v] >> a & 1 else a]
                    for _, f in adj[v]:
                        for p, owner in row[state[f]]:
                            r = owner[f]
                            if r >= 0:
                                dropped.append((p, self._pop(p, r)))
        self.rec.swap(comp, a, b)
        # each edge of C or of a dropped component is queued only for the
        # one pair it is now fixable for
        fix, pending = self.fix, self.pending
        ab = (a, b)
        own = False
        for e in comp:
            p = fix[state[e]][goal[e]]
            if p == ab:
                own = True
            elif p:
                pending[p].add(e)
        if own:
            self._add(a, b, comp)
        for p, dropped_comp in dropped:
            pending[p].update(e for e in dropped_comp if fix[state[e]][goal[e]] == p)


def _bfs_to_better(g, start, goal, colors, cap):
    """Moves (a, b, rep) to a nearest state with strictly larger agreement
    with `goal`, or None once more than `cap` states are stored.

    A labeled BFS from `start` over interchanges on `colors`, read back
    along its parent links.  The equalizer calls it only when the index
    shows that no single interchange gains, so the nearest better state is
    at least two moves away.
    """
    base = _agreement(start, goal)
    parent = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        # the palette argument is read only when no color set is given
        for a, b, rep, nxt in backend.kempe_neighbor_moves(g, cur, None, colors):
            if nxt in parent:
                continue
            parent[nxt] = (cur, (a, b, rep))
            if _agreement(nxt, goal) > base:
                moves = _path_to(parent, nxt)
                moves.reverse()
                return moves
            queue.append(nxt)
            if len(parent) > cap:
                return None
    return None


def _equalize_search(rec: Recorder, goal: bytes, colors, note: str):
    """Carry the recorder's coloring to `goal` with interchanges over
    `colors`, recording each move with `note`; returns the moves (a, b, rep).

    The index swaps `rec.colors` in place, through the recorder.  Each
    step takes the index's first gaining component.  When none gains,
    `_bfs_to_better` looks for the nearest better state among at most
    `_IMPROVE_BUDGET` states; when it finds none, the exact search
    `oracle._meet_in_middle` runs to the goal, storing at most
    `DEFAULT_SEARCH_BUDGET` states of m bytes each.  Every move's rep is
    its component's least edge id, so all of them are applied through the
    index.
    """
    state = rec.colors
    if bytes(state) == goal:
        return []
    g = rec.g
    out = []
    index = _ComponentIndex(rec, goal, colors)
    for _ in range(len(goal) * 4 + 8):
        step = index.first_gaining()
        if step is not None:
            index.swap(*step)
            rec.tr.append(KempeMove(*step), note)
            out.append(step)
            continue
        # no component gains at the goal, so only here can it be reached
        cur = bytes(state)
        if cur == goal:
            return out
        moves = _bfs_to_better(g, cur, goal, colors, _IMPROVE_BUDGET)
        exact = moves is None
        if exact:
            try:
                moves = _meet_in_middle(g, cur, goal, colors, DEFAULT_SEARCH_BUDGET)
            except BudgetExceeded:
                raise SearchBudgetExceeded(
                    f"equalizer exceeded {DEFAULT_SEARCH_BUDGET} states (graph m={g.m})"
                ) from None
            if moves is None:
                raise InternalInvariantError("goal outside the start's Kempe class")
        for step in moves:
            index.swap(*step)
            rec.tr.append(KempeMove(*step), note)
        out.extend(moves)
        if exact:
            if bytes(state) != goal:
                raise InternalInvariantError("bidirectional splice missed the goal")
            return out
    raise InternalInvariantError("agreement failed to converge")


def low_degree_equalize(g: Graph, f: EdgeColoring, h: EdgeColoring) -> Transcript:
    """Transcript from f to h for maximum degree <= 3 at palette Delta+1.

    No chromatic index is needed, whether the graph is Class 1 or Class 2:
    all 4-colorings of a subcubic graph are Kempe equivalent
    (McDonald-Mohar-Scheide 2012), so existence is guaranteed.  The result
    is found by search and certified by replay like every other
    transcript."""
    delta = g.max_degree()
    if delta > 3:
        raise WrongMaxDegree(f"equalizer handles maximum degree <= 3, got {delta}")
    t = delta + 1
    if f.t != t or h.t != t:
        raise PaletteMismatch(f"expected palette {t}")
    rec = Recorder(g, f)
    require_proper(g, h)
    _equalize_search(rec, bytes(h.colors), range(1, t + 1), "search")
    return rec.tr


def transform_delta4(g: Graph, f: EdgeColoring, h: EdgeColoring) -> Transcript:
    """Transcript from a proper t-coloring (t >= 5) to a given proper
    4-coloring of a graph with maximum degree 4.

    Above palette 5 the coloring is first reduced.  An irregular graph is
    padded with gadgets to one 4-regular graph, f and h are extended to it,
    Theorem 4.1 runs there, and its transcript is projected straight back
    onto the input graph.  The 4-coloring h certifies chi' = 4, so no
    chromatic index is computed.

    f is checked here at palette 5, or by the reduction's working state
    above it.  The case machine's working state and the final replay onto
    h check their colorings again, in the passes that build their masks."""
    if g.max_degree() != 4:
        raise WrongMaxDegree(f"expected maximum degree 4, got {g.max_degree()}")
    require_target4(g, h)
    if f.t <= 5:
        require_proper(g, f)
    if f.t < 5:
        raise PaletteMismatch(f"working coloring must have palette >= 5, got {f.t}")
    from .regular4_core import theorem_4_1_transform
    from .vizing_reduce import reduce_to_delta_plus_one

    tr = Transcript()
    cur = f
    if f.t > 5:
        reduced, tr0 = reduce_to_delta_plus_one(g, f)
        tr.extend(tr0)
        cur = reduced
    if g.min_degree() == 4:
        tr.extend(theorem_4_1_transform(g, cur, h))
    else:
        big, big_f, big_h = _pad_to_regular4(g, cur, h)
        top_tr = theorem_4_1_transform(big, big_f, big_h)
        tr.extend(project_transcript(g, big, big_f, top_tr))
    if _replay(g, list(f.colors), f.t, tr, check=False) != list(h.colors):
        raise InternalInvariantError("delta-4 transform terminated off target")
    return tr

"""Shared brute-force oracles for the test suite.

These stay deliberately naive and independent of the library's fast paths:
a trace built from node pairs, a state stepped over a trace from
``AlgoState.initial``, the partition after a prefix of a trace's events,
every step of a replay rebuilt as tuples, a hypothesis strategy for valid
traces, a trace's nodes relabeled or its pi0 mirrored, a
line-by-line trace parser, quadratic pair counting, full permutation
enumeration, literal cost sums, closed forms, the splitmix64 generator
written out, a literal replay of the randomized strategy, the plain
block-subset program that orders singletons like any other block (fed
sorted positions), the singleton-aware block-order table as plain loops,
and the literal exact oracles: a heap Dijkstra over all schedules, every
step's tied closest targets with the cheapest and dearest ``det`` over
them, harmonic sums of ``Fraction`` terms and choice-vector weights as row
products, the two algebraic sweeps as literal ``randint``/``uniform`` loops
over one instance at a time, and the CSV and JSON emitters as row-by-row
``csv.writer`` and whole-payload ``json.dumps`` calls.
"""

import bisect
import csv
import functools
import heapq
import io
import itertools
import json
import random
from fractions import Fraction

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from minla import (
    AlgoState,
    ComponentPartition,
    Model,
    __version__,
    OptResult,
    Permutation,
    RevealEvent,
    RevealTrace,
    TraceFormatError,
    check_harmonic_bounds,
    det_step,
    harmonic_number,
    is_minla,
    rand_step,
)
from minla.harness import CSV_HEADER, PRNG_NOTE, VerifyRow
from minla.ordering import cross_weight


def make_trace(model, n, events, pi0=None) -> RevealTrace:
    """A trace from ``(u, v)`` pairs, over the identity unless ``pi0`` is given."""
    return RevealTrace(
        model=model,
        n=n,
        pi0=pi0 or Permutation.identity(n),
        events=tuple(RevealEvent(u, v) for u, v in events),
    )


def replay_components(t, i: int) -> ComponentPartition:
    """The component partition after the first ``i`` events."""
    if not 0 <= i <= t.k:
        raise IndexError(f"step index {i} out of range 0..{t.k}")
    parts = ComponentPartition(t.n, t.model)
    for ev in t.events[:i]:
        parts.merge(ev.u, ev.v)
    return parts


def _tuple_join(a: tuple, b: tuple, u: int, v: int, lines: bool) -> tuple:
    """The merged node tuple: a clique's merge order, or for lines u's path
    (u last) followed by v's path (v first)."""
    if not lines:
        return a + b
    return (a if a[-1] == u else a[::-1]) + (b if b[0] == v else b[::-1])


def reference_components(t) -> tuple[list[dict], list[tuple]]:
    """Every step of the replay, rebuilt as tuples: ``(steps, ends)``.
    ``steps[i]`` maps each root to its node tuple after the first ``i``
    events (u's root kept); ``ends[i]`` is event i's ``(x_ends, z_ends,
    ends)``: the end pairs of both paths before it and of the merged path,
    or three ``None`` for cliques."""
    lines = t.model is Model.LINES
    comps = {v: (v,) for v in range(t.n)}
    steps, ends = [dict(comps)], []
    for ev in t.events:
        ru = next(r for r, nodes in comps.items() if ev.u in nodes)
        rv = next(r for r, nodes in comps.items() if ev.v in nodes)
        a, b = comps[ru], comps.pop(rv)
        merged = comps[ru] = _tuple_join(a, b, ev.u, ev.v, lines)
        pairs = ((a[0], a[-1]), (b[0], b[-1]), (merged[0], merged[-1]))
        ends.append(pairs if lines else (None,) * 3)
        steps.append(dict(comps))
    return steps, ends


# Hypothesis runs for trace properties: the same examples on every run, and
# no example database left behind.
TRACE_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def valid_traces(draw, max_n: int = 12) -> RevealTrace:
    """A valid trace: a model, n <= ``max_n``, pi0 and a merge sequence
    whose every event joins two components (for lines at path ends), so
    each draw is valid and shrinks toward fewer nodes and events."""
    model = draw(st.sampled_from([Model.CLIQUES, Model.LINES]))
    n = draw(st.integers(1, max_n))
    pi0 = Permutation(draw(st.permutations(range(n))))
    lines = model is Model.LINES
    comps = [(v,) for v in range(n)]
    events = []
    for _ in range(draw(st.integers(0, n - 1))):
        i, j = draw(st.lists(st.integers(0, len(comps) - 1), min_size=2, max_size=2, unique=True))
        a, b = comps[i], comps[j]
        u = draw(st.sampled_from(sorted({a[0], a[-1]}) if lines else a))
        v = draw(st.sampled_from(sorted({b[0], b[-1]}) if lines else b))
        comps[i] = _tuple_join(a, b, u, v, lines)
        del comps[j]
        events.append(RevealEvent(u, v))
    return RevealTrace(model, n, pi0, tuple(events))


def stepped_state(algo, trace, seed=0) -> AlgoState:
    """The state ``run(algo, trace, seed)`` ends in, stepped event by event
    by ``det_step`` or ``rand_step`` (one ``random.Random(seed)`` for every
    draw) from ``AlgoState.initial`` on a partition of its own, so that it
    can step on."""
    state = AlgoState.initial(trace.pi0, ComponentPartition(trace.n, trace.model))
    rng = random.Random(seed)
    for ev in trace.events:
        if algo == "det":
            det_step(state, ev)
        else:
            rand_step(state, ev, rng)
    return state


def relabel(t, phi) -> RevealTrace:
    """``t`` with node v renamed ``phi[v]``: pi0 keeps every position and
    each event joins the renamed nodes."""
    return RevealTrace(
        t.model, t.n, Permutation(phi[v] for v in t.pi0.node_at),
        tuple(RevealEvent(phi[ev.u], phi[ev.v]) for ev in t.events),
    )


def mirror(t) -> RevealTrace:
    """``t`` with pi0 reversed: the node at position i moves to n - 1 - i,
    and the events stay."""
    return RevealTrace(t.model, t.n, Permutation(t.pi0.node_at[::-1]), t.events)


def reference_parse_trace(text: str):
    """The trace format parsed line by line, one check per line in order:
    the header, the three fields, then each event line's prefix, token count
    and ids; pi0 as a generator of ``int`` calls.  Building the trace
    validates it."""
    lines: list[tuple[int, str]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((no, stripped))

    def take() -> tuple[int, str]:
        if not lines:
            raise TraceFormatError("unexpected end of input", line=text.count("\n") + 1)
        return lines.pop(0)

    header = "minla-trace v1"
    no, line = take()
    if line != header:
        raise TraceFormatError(f"expected header {header!r}", line=no)

    def field(name: str) -> tuple[int, str]:
        no, line = take()
        prefix = name + ":"
        if not line.startswith(prefix):
            raise TraceFormatError(f"expected '{name}: ...'", line=no)
        return no, line[len(prefix) :].strip()

    no, model_text = field("model")
    try:
        model = Model(model_text)
    except ValueError:
        raise TraceFormatError(
            f"unknown model {model_text!r} (expected cliques or lines)", line=no
        ) from None

    no, n_text = field("n")
    try:
        n = int(n_text)
    except ValueError:
        raise TraceFormatError(f"n is not an integer: {n_text!r}", line=no) from None

    no, pi0_text = field("pi0")
    try:
        pi0 = Permutation(int(tok) for tok in pi0_text.split())
    except ValueError as exc:
        raise TraceFormatError(f"bad pi0: {exc}", line=no) from None
    if len(pi0) != n:
        raise TraceFormatError(f"pi0 lists {len(pi0)} nodes, expected {n}", line=no)

    events = []
    for no, line in lines:
        if not line.startswith("event:"):
            raise TraceFormatError("expected 'event: u v'", line=no)
        toks = line[len("event:") :].split()
        if len(toks) != 2:
            raise TraceFormatError("event needs exactly two node ids", line=no)
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise TraceFormatError(f"bad event ids: {toks}", line=no) from None
        events.append(RevealEvent(u, v))

    return RevealTrace(model=model, n=n, pi0=pi0, events=tuple(events))


SPLITMIX64_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One output of the published splitmix64 generator from ``state``: a
    golden-ratio step, then the avalanche finalizer, on 64-bit words.  Trial
    i of master seed m is seeded with ``splitmix64(m + i * golden)``."""
    mask = (1 << 64) - 1
    z = (state + SPLITMIX64_GOLDEN) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def naive_kendall(p: Permutation, q: Permutation) -> int:
    """All-pairs discordance count, O(n^2)."""
    n = len(p)
    count = 0
    for x in range(n):
        for y in range(x + 1, n):
            if (p.pos_of[x] < p.pos_of[y]) != (q.pos_of[x] < q.pos_of[y]):
                count += 1
    return count


def reference_left_right_probability(group_a, group_b, pi0: Permutation) -> Fraction:
    """The fraction of cross pairs (x, y), x in A and y in B, that ``pi0``
    orders A-before-B, counted pair by pair."""
    pos = pi0.pos_of
    favorable = sum(1 for x in group_a for y in group_b if pos[x] < pos[y])
    return Fraction(favorable, len(group_a) * len(group_b))


def all_permutations(n: int) -> list[Permutation]:
    return [Permutation(p) for p in itertools.permutations(range(n))]


def feasible_permutations(parts, model, n: int) -> list[Permutation]:
    """Every permutation the contiguity characterization accepts."""
    return [p for p in all_permutations(n) if is_minla(p, parts)]


def ordered_pairs_diff(p: Permutation, q: Permutation) -> int:
    """Ordered pairs (x, y) with x left of y in ``p`` but not in ``q``, counted
    literally in O(n^2); equals the Kendall-tau distance."""
    qpos = q.pos_of
    order = p.node_at
    n = len(order)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if qpos[order[j]] < qpos[order[i]]
    )


def reverse_block(p: Permutation, start: int, length: int) -> Permutation:
    """``p`` with the nodes at positions start..start+length-1 reversed."""
    nodes = list(p.node_at)
    nodes[start : start + length] = nodes[start : start + length][::-1]
    return Permutation(nodes)


def minla_optimum(parts, model) -> int:
    """Closed-form minimum arrangement cost: a clique of size s costs
    (s^3 - s) / 6 when contiguous, a path of size s costs s - 1."""
    total = 0
    for s in map(len, parts.nodes.values()):
        total += (s * s * s - s) // 6 if model is Model.CLIQUES else s - 1
    return total


def fraction_ratio(cost_total: int, opt_cost: int) -> str:
    """cost/opt to six digits by rounding the exact rational half to even."""
    if opt_cost == 0:
        return "NA"
    units = round(Fraction(cost_total * 10**6, opt_cost))
    return f"{units // 10**6}.{units % 10**6:06d}"


def slide_block(p: Permutation, start: int, length: int, dest: int):
    """``p`` with positions start..start+length-1 slid to ``dest``, the nodes
    jumped over shifting to fill the gap; returns it with the swap cost
    ``length * |dest - start|``."""
    nodes = list(p.node_at)
    seg = nodes[start : start + length]
    del nodes[start : start + length]
    nodes[dest:dest] = seg
    return Permutation(nodes), length * abs(dest - start)


def insertion_inversions(seq) -> int:
    """Out-of-order pairs in ``seq``, counted by binary insertion."""
    seen: list = []
    count = 0
    for i, x in enumerate(seq):
        k = bisect.bisect_right(seen, x)
        count += i - k
        seen.insert(k, x)
    return count


def literal_minla(p: Permutation, groups, model) -> bool:
    """Arrangement cost equals the closed-form optimum: every pair of a
    clique, or every path edge of a line, summed as a position distance."""
    pos = p.pos_of
    for group in groups:
        s = len(group)
        if model is Model.CLIQUES:
            qs = sorted(pos[v] for v in group)
            cost = sum(q * (2 * i - s + 1) for i, q in enumerate(qs))
            if cost != (s * s * s - s) // 6:
                return False
        elif sum(abs(pos[a] - pos[b]) for a, b in zip(group, group[1:])) != s - 1:
            return False
    return True


class ScriptedRandom(random.Random):
    """``random.Random(seed)`` whose draws numbered by the keys of ``forced``
    (counted from 0 over the whole replay) return the mapped values instead;
    every draw still advances the seeded generator."""

    def __init__(self, seed, forced):
        super().__init__(seed)
        self.forced = dict(forced)
        self.draws = 0

    def randrange(self, bound):
        value = super().randrange(bound)
        value = self.forced.get(self.draws, value)
        assert 0 <= value < bound
        self.draws += 1
        return value


def reference_rand(trace, seed):
    """The randomized strategy replayed literally, independent of the
    library's step code: slide the coin-chosen block next to the other,
    count the orientation costs as inversions of the merged span, rewrite
    the span, and check optimality of the whole permutation after every
    step.  Same coins in the same order as ``run("rand", trace, seed)``;
    ``seed`` may also be a ``random.Random`` to draw from.

    Returns the (move, rearrange) cost of every step, the (move, rearrange)
    coin triples, the (total, move, rearrange) costs and the permutations:
    pi0 and the one after every step, so the last is the final permutation.
    A move triple is (x moves, z moves, denominator), an orientation triple
    (forward, reversed, denominator); the draws below the first entry choose
    the first outcome.
    """
    model = trace.model
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    p = trace.pi0
    perms = [p]
    groups = {v: [v] for v in range(trace.n)}  # root -> nodes (path order)
    owner = list(range(trace.n))
    costs, coins = [], []
    for idx, ev in enumerate(trace.events):
        rx, rz = owner[ev.u], owner[ev.v]
        x, z = groups[rx], groups[rz]
        xl, zl = len(x), len(z)
        xs = min(p.pos_of[w] for w in x)
        zs = min(p.pos_of[w] for w in z)
        x_moves = rng.randrange(xl + zl) < zl
        if x_moves:
            p, move_cost = slide_block(p, xs, xl, zs - xl if xs < zs else zs + zl)
        else:
            p, move_cost = slide_block(p, zs, zl, xs + xl if xs < zs else xs - zl)
        rearrange_cost, rcoin = 0, None
        if model is Model.LINES:
            merged = (x if x[-1] == ev.u else x[::-1]) + (z if z[0] == ev.v else z[::-1])
            size = len(merged)
            start = min(p.pos_of[w] for w in merged)
            rank = {w: i for i, w in enumerate(merged)}
            fwd = insertion_inversions(rank[w] for w in p.node_at[start : start + size])
            pairs = size * (size - 1) // 2
            rcoin = (pairs - fwd, fwd, pairs)
            forward = rng.randrange(pairs) < pairs - fwd
            nodes = list(p.node_at)
            nodes[start : start + size] = merged if forward else merged[::-1]
            p = Permutation(nodes)
            rearrange_cost = fwd if forward else pairs - fwd
        else:
            merged = x + z
        for w in merged:
            owner[w] = rx
        groups[rx] = merged
        del groups[rz]
        assert literal_minla(p, groups.values(), model), f"event {idx}"
        perms.append(p)
        costs.append((move_cost, rearrange_cost))
        coins.append(((zl, xl, xl + zl), rcoin))
    move_total = sum(move for move, _ in costs)
    rearrange_total = sum(rearrange for _, rearrange in costs)
    totals = (move_total + rearrange_total, move_total, rearrange_total)
    return costs, coins, totals, perms


_INF = 1 << 60


def _subset_costs_py(w, m: int) -> list[int]:
    """g[s]: least cost of ordering the block subset s, every block (singletons
    included) free to go anywhere; 2^m entries."""
    full = 1 << m
    g = [0] * full
    for s in range(1, full):
        bits = [j for j in range(m) if s >> j & 1]
        best = _INF
        for j in bits:
            row = w[j]
            c = g[s ^ (1 << j)]
            for i in bits:
                c += row[i]
            if c < best:
                best = c
        g[s] = best
    return g


def _subset_costs_np(w, m: int) -> np.ndarray:
    """The same table as :func:`_subset_costs_py`, vectorized by popcount layer."""
    full = 1 << m
    dtype = np.int32 if max(sum(row) for row in w) < 1 << 31 else np.int64
    warr = np.asarray(w, dtype=dtype)
    swf = np.zeros((full, m), dtype=dtype)
    for i in range(m):
        lo = 1 << i
        swf[lo : 2 * lo] = swf[:lo] + warr[:, i]
    g = np.full(full, _INF, dtype=np.int64)
    g[0] = 0
    subsets = np.arange(full)
    popcount = np.array([bin(t).count("1") for t in range(full)])
    for c in range(1, m + 1):
        rs = subsets[popcount == c]
        for j in range(m):
            bit = 1 << j
            sel = rs[(rs & bit) != 0]
            if sel.size == 0:
                continue
            cand = g[sel ^ bit] + swf[sel, j]
            g[sel] = np.minimum(g[sel], cand)
    return g


def _costs_py(rows, sizes, s: int):
    """The tables of ``ordering._costs`` as plain loops: g[t][k] is the least
    cost of ordering the blocks in t and the last k singletons, the
    singletons in order, and tail[j][k] that of block j before the last k
    singletons; returns (g, tail)."""
    m = len(sizes)
    width = s + 1
    # tail[i][k]: block i before the last k singletons.
    tail = [[0] * width for _ in range(m)]
    for i, size in enumerate(sizes):
        for k in range(1, width):
            tail[i][k] = tail[i][k - 1] + size - rows[m + s - k][i]
    g = [[0] * width for _ in range(1 << m)]
    for t in range(1, 1 << m):
        bits = [j for j in range(m) if t >> j & 1]
        moves = [(g[t ^ 1 << j], sum(rows[j][i] for i in bits), tail[j]) for j in bits]
        for k in range(width):
            best = min(prev[k] + head + tj[k] for prev, head, tj in moves)
            if k:
                lead = g[t][k - 1] + sum(rows[m + s - k][i] for i in bits)
                if lead < best:
                    best = lead
            g[t][k] = best
    return g, tail


def reference_block_order(w, tie_keys):
    """Least total cross cost and the order that greedily takes, among the
    optimal first blocks, the one with the smallest tie key: the plain 2^m
    subset program over every block."""
    m = len(w)
    if m == 0:
        return 0, []
    g = _subset_costs_py(w, m) if m < 8 else _subset_costs_np(w, m)
    order = []
    remaining = (1 << m) - 1
    while remaining:
        bits = [j for j in range(m) if remaining >> j & 1]
        target = int(g[remaining])
        best_j = -1
        for j in bits:
            head = sum(w[j][i] for i in bits)
            if head + int(g[remaining ^ (1 << j)]) == target:
                if best_j < 0 or tie_keys[j] < tie_keys[best_j]:
                    best_j = j
        order.append(best_j)
        remaining ^= 1 << best_j
    return int(g[(1 << m) - 1]), order


def sorted_positions(seqs, pos_of):
    """Each block's reference positions under the node-to-position lookup
    ``pos_of``, ascending: what ``reference_layout`` takes."""
    return [sorted(pos_of[v] for v in seq) for seq in seqs]


def reference_layout(seqs, sorted_pos):
    """``reference_block_order`` over every block of ``seqs``, singletons
    included, keyed by leading node: the cross cost and node sequence the
    library's ``solve_block_order`` must reproduce."""
    m = len(seqs)
    w = [
        [0 if i == j else cross_weight(sorted_pos[i], sorted_pos[j]) for j in range(m)]
        for i in range(m)
    ]
    cost, order = reference_block_order(w, [seq[0] for seq in seqs])
    return cost, [v for idx in order for v in seqs[idx]]


def frequency_counts(trace, finals, kind: str) -> list[int]:
    """What ``verify left-right``/``orientation`` count, read off the final
    permutations ``finals`` by position: a component pair (in sorted root
    order) counts when the first block's leftmost node comes first, a
    multi-node path when the span from its leftmost position reads the path
    forward."""
    parts = replay_components(trace, trace.k)
    roots = list(parts.nodes)
    counts = []
    if kind == "left-right":
        for i, ra in enumerate(roots):
            for rb in roots[i + 1 :]:
                counts.append(sum(
                    min(p.pos_of[v] for v in parts.nodes[ra])
                    < min(p.pos_of[v] for v in parts.nodes[rb])
                    for p in finals
                ))
    else:
        for r in roots:
            path = tuple(parts.nodes[r])
            if len(path) < 2:
                continue
            counts.append(sum(
                p.node_at[min(p.pos_of[v] for v in path):][: len(path)] == path
                for p in finals
            ))
    return counts


@functools.lru_cache(maxsize=7)
def _reference_perm_graph(n: int):
    """All permutations of range(n) with adjacent-transposition neighbors,
    kept for every n <= 7 (the n = 7 graph holds 5,040 permutations), since
    traces of all those sizes interleave."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    neighbors = [
        [index[p[:i] + (p[i + 1], p[i]) + p[i + 2 :]] for i in range(n - 1)]
        for p in perms
    ]
    return perms, index, neighbors


def _reference_feasible_filter(parts, model, n: int):
    comp_of = [parts.find(v) for v in range(n)]
    num = len(parts.nodes)
    if model is Model.CLIQUES:

        def ok(p):
            runs = 0
            last = -1
            for v in p:
                c = comp_of[v]
                if c != last:
                    runs += 1
                    last = c
            return runs == num

        return ok

    paths = {root: tuple(nodes) for root, nodes in parts.nodes.items()}

    def ok_lines(p):
        start = 0
        runs = 0
        while start < n:
            root = comp_of[p[start]]
            stop = start + 1
            while stop < n and comp_of[p[stop]] == root:
                stop += 1
            runs += 1
            if runs > num:
                return False
            path = paths[root]
            if stop - start != len(path):
                return False
            seg = p[start:stop]
            if seg != path and seg != path[::-1]:
                return False
            start = stop
        return runs == num

    return ok_lines


def reference_exhaustive_opt(t) -> OptResult:
    """Offline optimum over all update schedules (n <= 7): per event, a heap
    Dijkstra over the adjacent-transposition graph from the feasible
    permutations of the previous step, then a literal contiguity filter;
    ties go to the lexicographically smallest witness."""
    perms, index, neighbors = _reference_perm_graph(t.n)
    frontier = {index[t.pi0.node_at]: 0}
    parts = replay_components(t, 0)
    inf = 1 << 60
    for ev in t.events:
        parts.merge(ev.u, ev.v)
        dist = [inf] * len(perms)
        heap = []
        for idx, d in frontier.items():
            dist[idx] = d
            heap.append((d, idx))
        heapq.heapify(heap)
        while heap:
            d, idx = heapq.heappop(heap)
            if d > dist[idx]:
                continue
            nd = d + 1
            for nxt in neighbors[idx]:
                if nd < dist[nxt]:
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, nxt))
        ok = _reference_feasible_filter(parts, t.model, t.n)
        frontier = {i: dist[i] for i, p in enumerate(perms) if ok(p)}
    best_idx = min(frontier, key=lambda i: (frontier[i], perms[i]))
    return OptResult(cost=frontier[best_idx], witness=Permutation(perms[best_idx]))


def _tuple_distance(p: tuple, q: tuple) -> int:
    """Pairs of nodes that the node tuples ``p`` and ``q`` order differently."""
    rank = {v: i for i, v in enumerate(q)}
    return insertion_inversions(rank[v] for v in p)


def closest_targets(t) -> list[tuple[int, list[tuple]]]:
    """Per event (n <= 7), by enumeration: the least distance from pi0 of a
    permutation feasible after it, and every feasible permutation at that
    distance, as node tuples in ascending order."""
    perms = _reference_perm_graph(t.n)[0]
    home = {p: _tuple_distance(p, t.pi0.node_at) for p in perms}
    parts = replay_components(t, 0)
    steps = []
    for ev in t.events:
        parts.merge(ev.u, ev.v)
        ok = _reference_feasible_filter(parts, t.model, t.n)
        feasible = [p for p in perms if ok(p)]
        best = min(home[p] for p in feasible)
        steps.append((best, [p for p in feasible if home[p] == best]))
    return steps


def det_spread(t) -> tuple[int, int]:
    """The cheapest and the dearest total cost of ``det`` over every
    sequence of tied closest targets (n <= 7): each step moves to one of
    :func:`closest_targets`' permutations and pays its distance from the
    last, starting from pi0."""
    layer = {t.pi0.node_at: (0, 0)}
    for _, tied in closest_targets(t):
        layer = {
            q: (min(lo + _tuple_distance(p, q) for p, (lo, _) in layer.items()),
                max(hi + _tuple_distance(p, q) for p, (_, hi) in layer.items()))
            for q in tied
        }
    return min(lo for lo, _ in layer.values()), max(hi for _, hi in layer.values())


def reference_harmonic_bounds(series) -> tuple[bool, bool, bool]:
    """The three harmonic prefix sums as running ``Fraction`` sums, compared
    with ``harmonic_number`` (exact up to a total of 10^4): the ratio, square
    and adjacent truths as a plain 3-tuple."""
    h = harmonic_number(sum(series))
    ratio_sum = square_sum = adjacent_sum = Fraction(0)
    prefix = tail_prefix = 0
    for i, s in enumerate(series):
        prefix += s
        ratio_sum += Fraction(s, prefix)
        if i >= 1:
            tail_prefix += s
            square_sum += Fraction(s * s * 2, prefix * (prefix - 1))
        if i >= 2:
            adjacent_sum += Fraction(
                series[i - 1] * s * 2, tail_prefix * (tail_prefix - 1)
            )
    return ratio_sum <= h, square_sum <= 2 * h, adjacent_sum <= 2 * h


def reference_identity_floats(a, b):
    """The four floats behind ``check_identity_lemmas``: E[chosen],
    sum a_i b_i, E[chosen (A - chosen)] and sum b_i a_i (A - a_i), with each
    choice vector's weight a row product over the integer choice matrix."""
    n = len(a)
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    rows = np.arange(1 << n, dtype=np.int64)
    t = (rows[:, None] >> np.arange(n)) & 1
    weights = np.prod(np.where(t == 1, bv, 1.0 - bv), axis=1)
    chosen = t @ av
    total = float(av.sum())
    return (
        float(weights @ chosen),
        float(av @ bv),
        float(weights @ (chosen * (total - chosen))),
        float(bv @ (av * (total - av))),
    )


def reference_harmonic_rows(trials, rng):
    """The ``verify harmonic`` sweep as literal ``randint`` draws, one
    ``check_harmonic_bounds`` batch of one per series.  Returns the report
    rows and the drawn series."""
    failures = [0, 0, 0]
    drawn = []
    for _ in range(trials):
        series = [rng.randint(1, 20) for _ in range(rng.randint(1, 50))]
        drawn.append(series)
        for slot, ok in enumerate(check_harmonic_bounds([series])):
            failures[slot] += not ok[0]
    names = ("ratio sum <= H_S", "square sum <= 2 H_S", "adjacent sum <= 2 H_S")
    return _sweep_rows(names, failures, f"{trials} series", trials), drawn


def reference_identity_rows(trials, rng):
    """The ``verify identities`` sweep as literal ``randint`` and ``uniform``
    draws, one :func:`reference_identity_floats` per instance, compared with
    the library's tolerance of 1e-9 times max(1, rhs).  Returns the report
    rows and the drawn (a, b) instances."""
    failures = [0, 0]
    drawn = []
    for _ in range(trials):
        n = rng.randint(1, 10)
        a = [rng.uniform(0.0, 10.0) for _ in range(n)]
        b = [rng.uniform(0.0, 1.0) for _ in range(n)]
        drawn.append((a, b))
        lhs_eq, rhs_eq, lhs_le, rhs_le = reference_identity_floats(a, b)
        failures[0] += not abs(lhs_eq - rhs_eq) <= 1e-9 * max(1.0, rhs_eq)
        failures[1] += not lhs_le <= rhs_le + 1e-9 * max(1.0, rhs_le)
    names = ("choice-weighted equality", "choice-weighted product bound")
    return _sweep_rows(names, failures, f"{trials} instances", trials), drawn


def _sweep_rows(names, failures, sweep, trials):
    return [
        VerifyRow(
            label=f"{name} ({sweep})",
            expected=Fraction(0),
            observed=fails / trials,
            deviations=float(fails),
            ok=fails == 0,
        )
        for name, fails in zip(names, failures)
    ]


def reference_records(exp) -> list[dict]:
    """One dict per trial of ``exp``, keyed by the CSV columns."""
    cfg, opt = exp.cfg, exp.opt.cost
    return [
        {
            "trace_id": cfg.trace_id,
            "algo": cfg.algo,
            "n": cfg.trace.n,
            "trial": trial,
            "cost_move": move,
            "cost_rearrange": rearrange,
            "cost_total": move + rearrange,
            "opt_cost": opt,
            "ratio": fraction_ratio(move + rearrange, opt),
            "seed": seed,
        }
        for trial, (seed, move, rearrange) in enumerate(exp.rows)
    ]


def reference_records_csv(exp) -> str:
    """``records_to_csv`` as one ``csv.writer`` call per row.  The writer
    ends rows with CR LF, so every CPython quotes a field holding a CR; each
    row then ends with LF."""
    fields = CSV_HEADER.split(",")
    lines = []
    for row in [fields] + [[rec[col] for col in fields] for rec in reference_records(exp)]:
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(row)
        lines.append(out.getvalue()[:-2] + "\n")
    return "".join(lines)


def reference_experiment_json(exp) -> str:
    """``experiment_to_json`` as one ``json.dumps`` of the whole payload."""
    cfg, opt, stats = exp.cfg, exp.opt, exp.stats
    payload = {
        "config": {
            "trace_id": cfg.trace_id,
            "model": cfg.trace.model.value,
            "n": cfg.trace.n,
            "events": cfg.trace.k,
            "algo": cfg.algo,
            "trials": cfg.trials,
            "master_seed": cfg.master_seed,
        },
        "version": __version__,
        "prng": PRNG_NOTE,
        "opt": {"cost": opt.cost, "witness": opt.witness.to_text()},
        "stats": {
            "mean": stats.mean,
            "variance": stats.variance,
            "std_error": stats.std_error,
            "min": stats.min,
            "max": stats.max,
            "mean_move": stats.mean_move,
            "mean_rearrange": stats.mean_rearrange,
        },
        "records": reference_records(exp),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

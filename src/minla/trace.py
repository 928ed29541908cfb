"""Reveal traces and component tracking.

A trace fixes the model (a collection of cliques or of lines), the initial
permutation, whose length is the node count, and the ordered merge events.
Replaying the events yields the connected components after each step; for
lines each component also carries its node order along the path.  Each trace
replays its merges once, when it is validated, into :attr:`RevealTrace.replay`.

:func:`parse_trace` reads the four header lines by index and the event lines
as one block: one pattern checks their shape and one ``map(int, ...)``
converts every id.  Each rejected input raises the error, message and line
number that a line-by-line reading raises at its first bad line.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple, NoReturn, Sequence

from .errors import TraceFormatError, TraceValidationError
from .perm import Permutation

__all__ = [
    "Model",
    "RevealEvent",
    "RevealTrace",
    "ComponentPartition",
    "validate_trace",
    "parse_trace",
    "emit_trace",
]


class Model(str, enum.Enum):
    CLIQUES = "cliques"
    LINES = "lines"


@dataclass(frozen=True, slots=True, init=False)
class RevealEvent:
    """One revealed merge of the components holding u and v, two plain ints.
    Built by two slot writes past the frozen ``__setattr__``; ``==`` and hash
    are generated."""

    u: int
    v: int

    def __init__(self, u: int, v: int):
        if type(u) is not int or type(v) is not int:
            raise TypeError(f"event ids must be ints, got {u!r} and {v!r}")
        _set_u(self, u)
        _set_v(self, v)


_set_u, _set_v = RevealEvent.u.__set__, RevealEvent.v.__set__


@dataclass(frozen=True)
class RevealTrace:
    """A valid trace: construction runs :func:`validate_trace`, so every
    instance replays without error and nothing downstream checks it again.
    ``replay`` is the :class:`Replay` that validation built; readers share
    it and cannot merge its partition.  It takes no part in equality or hashing."""

    model: Model
    pi0: Permutation
    events: tuple[RevealEvent, ...]
    replay: "Replay" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "replay", validate_trace(self))

    @property
    def n(self) -> int:
        return len(self.pi0)

    @property
    def k(self) -> int:
        return len(self.events)


class ComponentPartition:
    """Disjoint components of the revealed graph.

    Each node carries its component's root label, which a merge rewrites
    for every node it absorbs; each root keeps one node list: for lines the
    path from one endpoint to the other, for cliques the merge order.  A
    merge extends the kept root's list in place, for lines after turning
    whichever side runs the wrong way.  No arrangement: each ``rand`` trial
    keeps its own per root.  It takes a :class:`Model` and a plain int n.
    """

    def __init__(self, n: int, model: Model):
        if not isinstance(model, Model) or type(n) is not int:
            raise TypeError(f"a partition takes a Model and an int n, got {model!r} and {n!r}")
        self.n = n
        self.model = model
        # Read on every merge and contiguity check, where an enum compare costs
        # ten times a bool test.
        self._lines = model is Model.LINES
        self._read_only = False
        self._root = list(range(n))
        # One list per root, extended in place by every merge.
        self._nodes: dict[int, list[int]] = {v: [v] for v in range(n)}

    def find(self, v: int) -> int:
        return self._root[v]

    @property
    def nodes(self) -> MappingProxyType[int, list[int]]:
        """Each root, in ascending order (a merge only pops the absorbed
        root), mapped to its live node list: a read-only view per read."""
        return MappingProxyType(self._nodes)

    def misplaced_root(self, node_at: Sequence[int]) -> int | None:
        """Root of the first component, walking ``node_at`` left to right,
        that does not fill exactly as many consecutive positions as it has
        nodes (in path order or its reverse, for lines); ``None`` when every
        one does.  An arrangement of cliques minimizes the total edge stretch
        exactly when every component fills a contiguous span, and of lines
        when every path does so in path order or its reverse: this O(n) test
        stands for the quadratic :func:`~minla.oracle.arrangement_cost`.
        """
        labels, members, lines = self._root, self._nodes, self._lines
        hi = len(node_at)
        i = 0
        while i < hi:
            root = labels[node_at[i]]
            nodes = members[root]
            end = i + len(nodes)
            if end - i > 1:
                span = list(node_at[i:end])
                if not lines:
                    if set(span) != set(nodes):
                        return root
                elif span != nodes and span[::-1] != nodes:
                    return root
            i = end
        return None

    def merge(self, u: int, v: int) -> tuple:
        """Merge the components containing ``u`` and ``v``, keeping ``u``'s
        root, and return the event's :class:`Replay` row.

        The only way a partition changes and the only event check: ``u`` and
        ``v`` must be distinct nodes of ``range(n)`` in different components,
        for lines path ends.  The merged path runs through u's path (u last)
        into v's path (v first).  A rejected event raises
        :class:`TraceValidationError` before anything is written, and a
        read-only partition raises :class:`ValueError`.
        """
        if self._read_only:
            raise ValueError("a trace's replay is read-only; step a state from AlgoState.initial")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise TraceValidationError(f"nodes ({u}, {v}) out of range")
        if u == v:
            raise TraceValidationError(f"self-event on node {u}")
        labels, nodes = self._root, self._nodes
        ru, rv = labels[u], labels[v]
        if ru == rv:
            raise TraceValidationError(
                f"nodes {u} and {v} are already in the same component"
            )
        x, z = nodes[ru], nodes[rv]
        xl, zl = len(x), len(z)  # before the merge: x grows in place
        x_ends = z_ends = ends = None
        if self._lines:
            x_ends, z_ends = (x[0], x[-1]), (z[0], z[-1])
            if u not in x_ends:
                raise TraceValidationError(f"node {u} is not an endpoint of its path")
            if v not in z_ends:
                raise TraceValidationError(f"node {v} is not an endpoint of its path")
            # Both checks passed: turn u to x's end and v to z's front.
            if u != x[-1]:
                x.reverse()
            if v != z[0]:
                z.reverse()
            ends = x[0], z[-1]
        for w in z:
            labels[w] = ru
        x.extend(nodes.pop(rv))
        return (u, v, ru, rv, xl, zl, x_ends, z_ends, ends)


class Replay(NamedTuple):
    """One replay of a trace's merges.  Row i is ``(u, v, ru, rv, xl, zl,
    x_ends, z_ends, ends)``: event i's nodes, the roots and sizes of their
    components before it and, for lines (``None`` for cliques), the end pair
    of each path and of the merged path.  ``final`` is the last partition:
    finds only read its labels, and merging it raises."""

    rows: tuple[tuple, ...]
    final: "ComponentPartition"


def validate_trace(t: RevealTrace) -> Replay:
    """Check that ``pi0`` is a :class:`Permutation` and the events a tuple of
    :class:`RevealEvent` (else :class:`TypeError`), replay the trace and raise
    :class:`TraceValidationError` on the first event that
    :meth:`ComponentPartition.merge` rejects, naming its index; return the
    :class:`Replay`.  :class:`RevealTrace` runs it on construction and keeps it."""
    if not isinstance(t.pi0, Permutation):
        raise TypeError(f"pi0 must be a Permutation, got {t.pi0!r:.80}")
    if not isinstance(t.events, tuple) or not all(isinstance(e, RevealEvent) for e in t.events):
        raise TypeError(f"events must be a tuple of RevealEvent, got {t.events!r:.80}")
    if t.n < 1:
        raise TraceValidationError(f"n must be positive, got {t.n}")
    parts = ComponentPartition(t.n, t.model)
    merge = parts.merge
    try:
        rows = [merge(ev.u, ev.v) for ev in t.events]
    except TraceValidationError as exc:
        # A rejected merge writes nothing, so the merges done index the event.
        raise TraceValidationError(str(exc), event_index=t.n - len(parts.nodes)) from None
    parts._read_only = True
    return Replay(tuple(rows), parts)


_HEADER = "minla-trace v1"
# The event lines, each behind a newline: "event:", then exactly two
# whitespace-separated tokens.
_EVENT_LINES = re.compile(r"(?:\nevent:[^\S\n]*\S+[^\S\n]+\S+)*")


def parse_trace(text: str) -> RevealTrace:
    """Parse the line-based trace format; building the trace validates it.

    Raises :class:`TraceFormatError` with a 1-based line number on syntax
    problems and :class:`TraceValidationError` on model violations.  Only a
    rejected event block is read line by line, to name its first bad line:
    the block pattern and the line checks test the same whitespace, so a
    rejected block always holds one.
    """
    raws = text.splitlines()
    if "#" in text:
        raws = [raw.split("#", 1)[0] for raw in raws]
    lines = [*filter(None, map(str.strip, raws))]

    def fail(message: str, i: int) -> NoReturn:
        no = [no for no, raw in enumerate(raws, 1) if raw.strip()][i]
        raise TraceFormatError(message, line=no) from None

    def take(i: int) -> str:
        if i < len(lines):
            return lines[i]
        raise TraceFormatError("unexpected end of input", line=text.count("\n") + 1)

    if take(0) != _HEADER:
        fail(f"expected header {_HEADER!r}", 0)

    def field(i: int, name: str) -> str:
        prefix = name + ":"
        if not take(i).startswith(prefix):
            fail(f"expected '{name}: ...'", i)
        return lines[i][len(prefix) :].strip()

    model_text = field(1, "model")
    try:
        model = Model(model_text)
    except ValueError:
        fail(f"unknown model {model_text!r} (expected cliques or lines)", 1)

    n_text = field(2, "n")
    try:
        n = int(n_text)
    except ValueError:
        fail(f"n is not an integer: {n_text!r}", 2)

    pi0_text = field(3, "pi0")
    try:
        pi0 = Permutation.from_text(pi0_text)
    except ValueError as exc:
        fail(f"bad pi0: {exc}", 3)
    if len(pi0) != n:
        fail(f"pi0 lists {len(pi0)} nodes, expected {n}", 3)

    block = "\n".join(["", *lines[4:]])
    try:
        if not _EVENT_LINES.fullmatch(block):
            raise ValueError
        # Only line starts hold "\nevent:", so two ids remain per line;
        # one iterator read twice per event pairs them.
        ids = map(int, block.replace("\nevent:", " ").split())
        events = tuple(map(RevealEvent, ids, ids))
    except ValueError:
        for i in range(4, len(lines)):
            if not lines[i].startswith("event:"):
                fail("expected 'event: u v'", i)
            toks = lines[i][len("event:") :].split()
            if len(toks) != 2:
                fail("event needs exactly two node ids", i)
            try:
                int(toks[0]), int(toks[1])
            except ValueError:
                fail(f"bad event ids: {toks}", i)
    return RevealTrace(model=model, pi0=pi0, events=events)


def emit_trace(t: RevealTrace) -> str:
    """Canonical text form; ``parse_trace`` round-trips it byte for byte.
    Every id is written by ``%d``, as :meth:`Permutation.to_text` does."""
    out = [
        _HEADER,
        f"model: {t.model.value}",
        f"n: {t.n}",
        f"pi0: {t.pi0.to_text()}",
    ]
    out.extend("event: %d %d" % (ev.u, ev.v) for ev in t.events)
    return "\n".join(out) + "\n"

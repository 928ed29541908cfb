"""Reveal traces and component tracking.

A trace fixes the model (collection of cliques or collection of lines), the
node count, the initial permutation, and the ordered merge events.  Replaying
the events yields the connected components after each step; for lines each
component also carries its node order along the path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import TraceFormatError, TraceValidationError
from .perm import Permutation

__all__ = [
    "Model",
    "RevealEvent",
    "RevealTrace",
    "ComponentPartition",
    "validate_trace",
    "replay_components",
    "parse_trace",
    "emit_trace",
]


class Model(str, enum.Enum):
    CLIQUES = "cliques"
    LINES = "lines"


@dataclass(frozen=True)
class RevealEvent:
    """One revealed merge: the components containing u and v join."""

    u: int
    v: int


@dataclass(frozen=True)
class RevealTrace:
    model: Model
    n: int
    pi0: Permutation
    events: tuple[RevealEvent, ...]

    @property
    def k(self) -> int:
        return len(self.events)


class ComponentPartition:
    """Disjoint components of the revealed graph.

    Union-find with per-component member lists; for lines every component
    additionally stores the node sequence from one path endpoint to the
    other.  Mutable per-trial state: never share an instance across trials.
    """

    def __init__(self, n: int, model: Model):
        self.n = n
        self.model = model
        self._parent = list(range(n))
        self._members: dict[int, list[int]] = {v: [v] for v in range(n)}
        self._paths: dict[int, tuple[int, ...]] | None = None
        if model is Model.LINES:
            self._paths = {v: (v,) for v in range(n)}

    @classmethod
    def from_components(
        cls, n: int, model: Model, groups: Iterable[Sequence[int]]
    ) -> "ComponentPartition":
        """Build a partition from explicit groups.

        For lines each group is read as a path order.
        """
        parts = cls(n, model)
        seen = set()
        for group in groups:
            group = list(group)
            if not group:
                raise ValueError("empty component")
            for v in group:
                if not 0 <= v < n or v in seen:
                    raise ValueError(f"node {v} repeated or out of range")
                seen.add(v)
            root = group[0]
            for v in group:
                parts._parent[v] = root
                if v != root:
                    del parts._members[v]
            parts._members[root] = group
            if parts._paths is not None:
                for v in group[1:]:
                    del parts._paths[v]
                parts._paths[root] = tuple(group)
        if len(seen) != n:
            raise ValueError("groups do not cover all nodes")
        return parts

    def find(self, v: int) -> int:
        parent = self._parent
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def components(self) -> list[int]:
        """Component roots, sorted for deterministic iteration."""
        return sorted(self._members)

    def iter_roots(self):
        """Component roots in insertion order; cheaper than :meth:`components`
        when the caller does not care about ordering."""
        return self._members.keys()

    @property
    def num_components(self) -> int:
        return len(self._members)

    def nodes_of(self, root: int) -> list[int]:
        return self._members[root]

    def size_of(self, root: int) -> int:
        return len(self._members[root])

    def path_of(self, root: int) -> tuple[int, ...]:
        if self._paths is None:
            raise ValueError("path order is only tracked for the lines model")
        return self._paths[root]

    def merge(self, u: int, v: int) -> int:
        """Merge the components containing ``u`` and ``v``; returns the new root.

        For lines, ``u`` and ``v`` must be endpoints of their paths; the
        merged path order runs through u's path (u last) into v's path
        (v first).
        """
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            raise TraceValidationError(
                f"nodes {u} and {v} are already in the same component"
            )
        if self._paths is None:
            self._parent[rv] = ru
            self._members[ru].extend(self._members.pop(rv))
            return ru
        pu = self._paths[ru]
        pv = self._paths[rv]
        if pu[-1] != u:
            if pu[0] != u:
                raise TraceValidationError(f"node {u} is not an endpoint of its path")
            pu = pu[::-1]
        if pv[0] != v:
            if pv[-1] != v:
                raise TraceValidationError(f"node {v} is not an endpoint of its path")
            pv = pv[::-1]
        self._parent[rv] = ru
        self._members[ru].extend(self._members.pop(rv))
        self._paths[ru] = pu + pv
        del self._paths[rv]
        return ru


def validate_trace(t: RevealTrace) -> None:
    """Replay the trace and raise :class:`TraceValidationError` on the first
    event that violates the model invariants."""
    if t.n < 1:
        raise TraceValidationError(f"n must be positive, got {t.n}")
    if len(t.pi0) != t.n:
        raise TraceValidationError(
            f"pi0 has {len(t.pi0)} entries, expected n={t.n}"
        )
    parts = ComponentPartition(t.n, t.model)
    for idx, ev in enumerate(t.events):
        if not (0 <= ev.u < t.n and 0 <= ev.v < t.n):
            raise TraceValidationError(
                f"nodes ({ev.u}, {ev.v}) out of range", event_index=idx
            )
        if ev.u == ev.v:
            raise TraceValidationError(f"self-event on node {ev.u}", event_index=idx)
        try:
            parts.merge(ev.u, ev.v)
        except TraceValidationError as exc:
            raise TraceValidationError(str(exc), event_index=idx) from None


def replay_components(t: RevealTrace, i: int) -> ComponentPartition:
    """The component partition after the first ``i`` events."""
    if not 0 <= i <= t.k:
        raise IndexError(f"step index {i} out of range 0..{t.k}")
    parts = ComponentPartition(t.n, t.model)
    for ev in t.events[:i]:
        parts.merge(ev.u, ev.v)
    return parts


_HEADER = "minla-trace v1"


def parse_trace(text: str) -> RevealTrace:
    """Parse the line-based trace format; validates the result.

    Raises :class:`TraceFormatError` with a 1-based line number on syntax
    problems and :class:`TraceValidationError` on model violations.
    """
    lines: list[tuple[int, str]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((no, stripped))

    def take() -> tuple[int, str]:
        if not lines:
            raise TraceFormatError("unexpected end of input", line=text.count("\n") + 1)
        return lines.pop(0)

    no, header = take()
    if header != _HEADER:
        raise TraceFormatError(f"expected header {_HEADER!r}", line=no)

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
        pi0 = Permutation.from_text(pi0_text)
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

    trace = RevealTrace(model=model, n=n, pi0=pi0, events=tuple(events))
    validate_trace(trace)
    return trace


def emit_trace(t: RevealTrace) -> str:
    """Canonical text form; ``parse_trace`` round-trips it byte for byte."""
    out = [
        _HEADER,
        f"model: {t.model.value}",
        f"n: {t.n}",
        f"pi0: {t.pi0.to_text()}",
    ]
    out.extend(f"event: {ev.u} {ev.v}" for ev in t.events)
    return "\n".join(out) + "\n"

"""Instance generators: hard distributions and random traces.

* ``tree_adversary`` samples the line-merging distribution that forces a
  logarithmic factor on any online strategy: leaves of a balanced binary
  tree hold a random target path, and each tree level requests the joining
  edge between adjacent subtree border leaves, bottom-up.
* ``MiddleLineAdversary`` is the adaptive sequence that makes any
  closest-to-initial deterministic strategy shuttle the middle node across
  an ever-growing path.
* ``random_trace`` draws valid traces for property sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import ConfigError, ProtocolError
from .perm import Permutation
from .trace import Model, RevealEvent, RevealTrace

__all__ = [
    "TreeAdversaryConfig",
    "tree_adversary",
    "MiddleLineAdversary",
    "random_trace",
]


@dataclass(frozen=True)
class TreeAdversaryConfig:
    """Depth q (the trace covers n = 2**q nodes) and the leaf-order seed."""

    q: int
    seed: int


def tree_adversary(
    cfg: TreeAdversaryConfig, pi0: Permutation | None = None
) -> RevealTrace:
    """Lines trace whose final graph is a uniformly random path.

    A random permutation of the nodes fills the leaves of a balanced binary
    tree; for every internal node, level by level bottom-up, the request
    joins the rightmost leaf of its left subtree to the leftmost leaf of its
    right subtree.  The initial permutation defaults to the identity: the
    distribution randomizes the target path, not the start.
    """
    if cfg.q < 1:
        raise ConfigError(f"tree depth must be at least 1, got {cfg.q}")
    n = 1 << cfg.q
    if pi0 is None:
        pi0 = Permutation.identity(n)
    if len(pi0) != n:
        raise ConfigError(f"pi0 covers {len(pi0)} nodes, expected 2**{cfg.q} = {n}")
    rng = random.Random(cfg.seed)
    leaves = list(range(n))
    rng.shuffle(leaves)
    events = []
    span = 2
    while span <= n:
        half = span // 2
        for base in range(0, n, span):
            events.append(RevealEvent(leaves[base + half - 1], leaves[base + half]))
        span *= 2
    return RevealTrace(model=Model.LINES, n=n, pi0=pi0, events=tuple(events))


@dataclass
class MiddleLineAdversary:
    """Adaptive request source for line traces over the identity layout.

    The first request joins the two neighbors of the middle node x; each
    later request reads which side of the grown component the opposing
    algorithm put x on and extends the component with x's next untouched
    neighbor on that side.  Emits n - 2 events, leaving x as the lone
    singleton; records the observed side of x per adaptive step.
    """

    n: int
    x: int = field(init=False)
    sides: list[str] = field(init=False, default_factory=list)
    _emitted: int = field(init=False, default=0)
    _grown: list[int] = field(init=False, default_factory=list)
    _left_end: int = field(init=False, default=0)
    _right_end: int = field(init=False, default=0)

    def __post_init__(self):
        if self.n < 5 or self.n % 2 == 0:
            raise ConfigError(f"need an odd n >= 5, got {self.n}")
        self.x = self.n // 2

    def next_event(self, current: Permutation) -> RevealEvent | None:
        """The next request given the opposing algorithm's permutation, or
        None once only the middle node remains unconnected."""
        if self._emitted == self.n - 2:
            return None
        if self._emitted == 0:
            ev = RevealEvent(self.x - 1, self.x + 1)
            self._grown = [self.x - 1, self.x + 1]
            self._left_end = self.x - 1
            self._right_end = self.x + 1
        else:
            side = self._observe_side(current)
            self.sides.append(side)
            if side == "L":
                nxt = self._left_end - 1
                if nxt < 0:
                    raise ProtocolError("left side exhausted before the duel ended")
                ev = RevealEvent(nxt, self._left_end)
                self._left_end = nxt
            else:
                nxt = self._right_end + 1
                if nxt >= self.n:
                    raise ProtocolError("right side exhausted before the duel ended")
                ev = RevealEvent(nxt, self._right_end)
                self._right_end = nxt
            self._grown.append(nxt)
        self._emitted += 1
        return ev

    def _observe_side(self, current: Permutation) -> str:
        pos = current.pos_of
        block = [pos[v] for v in self._grown]
        lo, hi = min(block), max(block)
        if hi - lo + 1 != len(block):
            raise ProtocolError("opposing permutation does not keep the grown "
                                "component contiguous")
        px = pos[self.x]
        if px < lo:
            return "L"
        if px > hi:
            return "R"
        raise ProtocolError("middle node sits inside the grown component")


def random_trace(
    model: Model, n: int, seed: int, events: int | None = None
) -> RevealTrace:
    """Valid random trace: uniform initial permutation, then ``events``
    uniformly random component merges (default: merge down to one component).

    For lines each merge joins uniformly chosen endpoints of the two chosen
    components.
    """
    if n < 1:
        raise ConfigError(f"n must be positive, got {n}")
    k = n - 1 if events is None else events
    if not 0 <= k <= n - 1:
        raise ConfigError(f"events must be in 0..{n - 1}, got {k}")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    pi0 = Permutation(order)
    # Components as node lists; for lines the list is the path order.
    comps: list[list[int]] = [[v] for v in range(n)]
    out = []
    for _ in range(k):
        ia, ib = rng.sample(range(len(comps)), 2)
        a, b = comps[ia], comps[ib]
        if model is Model.LINES:
            u = a[0] if len(a) == 1 or rng.random() < 0.5 else a[-1]
            v = b[0] if len(b) == 1 or rng.random() < 0.5 else b[-1]
            merged = (a if a[-1] == u else a[::-1]) + (b if b[0] == v else b[::-1])
        else:
            u, v = rng.choice(a), rng.choice(b)
            merged = a + b
        out.append(RevealEvent(u, v))
        comps[ia] = merged
        comps.pop(ib)
    return RevealTrace(model=model, n=n, pi0=pi0, events=tuple(out))

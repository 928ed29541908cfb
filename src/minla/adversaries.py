"""Instance generators: hard distributions and random traces.

* ``tree_adversary`` samples the random balanced-tree path distribution:
  leaves of a balanced binary tree hold a random target path, and each tree
  level, bottom-up and in subtree order, joins adjacent subtree border
  leaves.  As emitted, a trace gives its target away: level-1 event i joins
  ``leaves[2i]`` and ``leaves[2i+1]``, and level 2 shows each pair's inward
  end, so the first 3n/4 events (the first n/2, read as ordered pairs) fix
  the target path; an online strategy that reads them need not pay a
  logarithmic factor.  Acceptance criterion 9 measures ``rand`` only.
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

# The most nodes a generator builds, checked before it allocates anything:
# a tree trace at this size takes seconds and about 200 MB.
NODE_BOUND = 1 << 18


@dataclass(frozen=True)
class TreeAdversaryConfig:
    """Depth q (the trace covers n = 2**q nodes) and the leaf-order seed."""

    q: int
    seed: int


def tree_adversary(cfg: TreeAdversaryConfig) -> RevealTrace:
    """Lines trace whose final graph is a uniformly random path.

    A random permutation of the nodes fills the leaves of a balanced binary
    tree; for every internal node, level by level bottom-up, the request
    joins the rightmost leaf of its left subtree to the leftmost leaf of its
    right subtree.  The initial permutation is the identity: the
    distribution randomizes the target path, not the start.
    """
    if type(cfg.q) is not int:
        raise TypeError(f"tree depth q must be an int, got {cfg.q!r}")
    if cfg.q < 1:
        raise ConfigError(f"tree depth must be at least 1, got {cfg.q}")
    if cfg.q >= NODE_BOUND.bit_length():  # before 1 << q is built
        raise ConfigError(f"n = 2^q must be at most {NODE_BOUND}, got q = {cfg.q}")
    n = 1 << cfg.q
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
    return RevealTrace(
        model=Model.LINES, n=n, pi0=Permutation.identity(n), events=tuple(events)
    )


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
    _ends: list[int] = field(init=False)

    def __post_init__(self):
        if type(self.n) is not int:
            raise TypeError(f"n must be an int, got {self.n!r}")
        if self.n < 5 or self.n % 2 == 0:
            raise ConfigError(f"need an odd n >= 5, got {self.n}")
        if self.n > NODE_BOUND:
            raise ConfigError(f"n must be at most {NODE_BOUND}, got {self.n}")
        self.x = self.n // 2
        self._ends = [self.x, self.x]

    def next_event(self, current: Permutation) -> RevealEvent | None:
        """The next request given the opposing algorithm's permutation, or
        None once only the middle node remains unconnected.  The ends of the
        grown component, ``_ends = [left, right]``, start at x and end n - 1 apart."""
        ends = self._ends
        if ends[1] - ends[0] == self.n - 1:
            return None
        if ends[0] == ends[1]:
            ends[:] = self.x - 1, self.x + 1
            return RevealEvent(*ends)
        side = self._observe_side(current)
        self.sides.append(side)
        i = side == "R"
        end = ends[i]
        nxt = end + 2 * i - 1
        if not 0 <= nxt < self.n:
            raise ProtocolError(f"{('left', 'right')[i]} side exhausted before the duel ended")
        ends[i] = nxt
        return RevealEvent(nxt, end)

    def _observe_side(self, current: Permutation) -> str:
        # The grown component: every node from end to end but x.
        pos = current.pos_of
        grown = range(self._ends[0], self._ends[1] + 1)
        block = [pos[v] for v in grown if v != self.x]
        lo, hi = min(block), max(block)
        if hi - lo + 1 != len(block):
            raise ProtocolError("opposing permutation does not keep the grown "
                                "component contiguous")
        # The block fills [lo, hi], so x's own position lies outside it.
        return "L" if pos[self.x] < lo else "R"


def random_trace(
    model: Model, n: int, seed: int, events: int | None = None
) -> RevealTrace:
    """Valid random trace: uniform initial permutation, then ``events``
    uniformly random component merges (default: merge down to one component).

    For lines each merge joins uniformly chosen endpoints of the two chosen
    components.
    """
    if type(n) is not int:
        raise TypeError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ConfigError(f"n must be positive, got {n}")
    if n > NODE_BOUND:
        raise ConfigError(f"n must be at most {NODE_BOUND}, got {n}")
    k = n - 1 if events is None else events
    if type(k) is not int:
        raise TypeError(f"events must be an int, got {k!r}")
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

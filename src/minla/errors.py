"""Exception types shared across the package."""

__all__ = [
    "MinlaError",
    "InstanceMismatchError",
    "TraceFormatError",
    "TraceValidationError",
    "CapacityError",
    "InvariantError",
    "ProtocolError",
    "ConfigError",
]


class MinlaError(Exception):
    """Base class for all library errors."""


class InstanceMismatchError(MinlaError):
    """Two values that must live on the same node set do not."""


class TraceFormatError(MinlaError):
    """Malformed trace text.

    Carries the 1-based line number of the first offending line.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TraceValidationError(MinlaError):
    """A structurally valid trace violates the reveal-model invariants.

    ``event_index`` is the 0-based index of the first offending event, or
    ``None`` when the problem is not tied to a single event.
    """

    def __init__(self, message: str, event_index=None):
        if event_index is not None:
            message = f"event {event_index}: {message}"
        super().__init__(message)
        self.event_index = event_index


class InvariantError(MinlaError):
    """An algorithm's arrangement broke optimality: a bug, not bad input.
    Names the event of the failed check and the bad component (root, size)."""

    def __init__(self, event_index: int, root: int, size: int):
        super().__init__(
            f"algorithm left an infeasible arrangement at event "
            f"{event_index}: component {root} (size {size}) does not fill "
            f"its span"
        )
        self.event_index = event_index
        self.root = root
        self.size = size


class CapacityError(MinlaError):
    """An exact search or oracle was asked to handle more than its hard cap:
    more program states than the block-order cap allows, too many nodes for
    the exhaustive search, or a harmonic total S past 10^4."""


class ProtocolError(MinlaError):
    """An adaptive adversary observed a state it cannot respond to."""


class ConfigError(MinlaError):
    """Invalid experiment or CLI configuration."""

"""Exception types shared across the package."""


class TopologyError(ValueError):
    """A candidate family of sets is not a topology."""


class MissingEmptyOrFull(TopologyError):
    pass


class NotClosedUnderUnion(TopologyError):
    def __init__(self, a: int, b: int):
        super().__init__(f"union of members {a:#x} and {b:#x} is not a member")
        self.witness = (a, b)


class NotClosedUnderIntersection(TopologyError):
    def __init__(self, a: int, b: int):
        super().__init__(f"intersection of members {a:#x} and {b:#x} is not a member")
        self.witness = (a, b)


class PointOutOfRange(IndexError):
    pass


class EmptySpace(ValueError):
    pass


class CapExceeded(RuntimeError):
    """A configured enumeration or search cap was hit; never silently truncated."""


class DepthCapExceeded(CapExceeded):
    pass


class IllegalMove(ValueError):
    """A strategy lacks an entry at a context it is asked about."""

    def __init__(self, context):
        super().__init__(f"strategy has no entry at context {context!r}")


class IllegalSourceStrategy(ValueError):
    """A strategy handed to a translation has out-of-menu entries."""


class FormatError(ValueError):
    """A JSON input file does not match the documented schema."""

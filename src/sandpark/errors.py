"""Exception types shared across the package."""

import math


class SandparkError(Exception):
    """Base class for every error this package raises on purpose."""


class GraphError(SandparkError, ValueError):
    """Invalid graph construction or graph operation."""


class LoopEdgeError(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateVertexError(GraphError):
    """The vertex list contains a repeated name."""


class UnknownVertexError(GraphError):
    """A vertex name does not belong to the graph."""


class TooFewVerticesError(GraphError):
    """A graph needs at least two vertices (the sink plus one more)."""


class DisconnectedGraphError(GraphError):
    """The graph, or a requested induced subgraph, is not connected."""


class SizeCapError(SandparkError, ValueError):
    """An exhaustive search was requested above its configured size cap."""


def _check_cap(search: str, k: int, cap: int) -> None:
    """Refuse a search over ``k`` non-sink vertices above ``cap``."""
    if k > cap:
        raise SizeCapError(
            f"{search} capped at {cap} non-sink vertices, graph has {k}")


def _size(n: int) -> str:
    """A positive size for a message: exact, or its digit count past the
    digits Python will print (``sys.get_int_max_str_digits``)."""
    try:
        return str(n)
    except ValueError:
        digits = int(math.log10(n)) + 1   # may be one off near a power of ten
        digits += (n >= 10 ** digits) - (n < 10 ** (digits - 1))
        return f"a {digits}-digit number"


class ToppleLimitError(SandparkError, RuntimeError):
    """Stabilisation exceeded the configured toppling budget."""

"""Exception types shared across the package."""


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


class ToppleLimitError(SandparkError, RuntimeError):
    """Stabilisation exceeded the configured toppling budget."""

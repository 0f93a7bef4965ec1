"""Exception hierarchy for flowpoly.

Three families matter to callers: plain usage errors, enumeration limits,
and consistency errors.  A ConsistencyError means a structural fact that is
supposed to hold for every valid instance failed on this one; the CLI maps
those to exit code 2.
"""

from __future__ import annotations


class FlowpolyError(Exception):
    """Base class for all flowpoly errors."""


class GraphError(FlowpolyError):
    pass


class CycleError(GraphError):
    """Input graph contains a directed cycle (or a self-loop)."""


class IsolatedVertexError(GraphError):
    """A vertex has neither incoming nor outgoing edges."""


class LimitError(FlowpolyError):
    """A configurable enumeration cap was exceeded."""


class RouteExplosionError(LimitError):
    pass


class CliqueExplosionError(LimitError):
    pass


class FrontierExplosionError(LimitError):
    pass


class NotFullError(FlowpolyError):
    """Operation requires every inner vertex to have in- and out-degree 2."""


class NotValidError(FlowpolyError):
    """Operation requires a DAG whose complete contraction is full."""


class NotAmpleError(FlowpolyError):
    """Operation requires an ample framing."""


class FramingError(FlowpolyError):
    """Malformed framing (wrong vertices, not a permutation of the port)."""


class BadChoicesError(FramingError):
    """Supplied lift orders do not match the free ports of the graph."""


class InconsistentFramingError(FlowpolyError):
    """An edge is minimal on one side and maximal on the other."""


class NotSimplexError(FlowpolyError):
    """Clique does not have dim+1 routes."""


class NotLinearExtensionError(FlowpolyError):
    pass


class ExceptionalRouteError(FlowpolyError):
    """Route-to-module map is only defined on non-exceptional routes."""


class NonIntegralSolutionError(FlowpolyError):
    """Lattice-point counts do not fit a degree-d Ehrhart polynomial."""


class NegativeCoefficientError(FlowpolyError):
    """Recovered h*-vector has a negative entry."""


class ConsistencyError(FlowpolyError):
    """A structural invariant failed; `invariant` names the broken claim."""

    def __init__(self, invariant: str, message: str = ""):
        self.invariant = invariant
        super().__init__(f"{invariant}: {message}" if message else invariant)

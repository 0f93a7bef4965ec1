"""Exception hierarchy for flowpoly.

Every failure is a `FlowpolyError`, in one of two families that `cli.main`
maps to exit codes:

* exit 1: input and usage errors (`FlowpolyError` itself, `GraphError`,
  `FramingError`, `NotFullError`, `NotLinearExtensionError`) and
  enumeration limits (`LimitError` and its subclasses);
* exit 2: `ConsistencyError`, a structural fact that is supposed to hold for
  every legal instance failed on this one; `invariant` names the fact.
"""

from __future__ import annotations


class FlowpolyError(Exception):
    """Base class for all flowpoly errors: bad input or usage."""


class GraphError(FlowpolyError):
    """Malformed graph: bad ids, unknown endpoints, a self-loop or a directed cycle."""


class FramingError(FlowpolyError):
    """Malformed framing, or one that is not ample where an ample one is needed."""


class NotFullError(FlowpolyError):
    """Operation requires every inner vertex to have in- and out-degree 2, or a
    DAG whose complete contraction does."""


class NotLinearExtensionError(FlowpolyError):
    pass


class LimitError(FlowpolyError):
    """A configurable enumeration cap was exceeded."""


class RouteExplosionError(LimitError):
    pass


class CliqueExplosionError(LimitError):
    pass


class FrontierExplosionError(LimitError):
    pass


class ConsistencyError(FlowpolyError):
    """A structural invariant failed; `invariant` names the broken claim."""

    def __init__(self, invariant: str, message: str = ""):
        self.invariant = invariant
        super().__init__(f"{invariant}: {message}" if message else invariant)

"""Flow polytopes of DAGs: framings, DKK triangulations, tau-tilting posets."""

__version__ = "0.1.0"

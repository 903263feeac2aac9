"""A-HTPGM: approximate HTPGM using mutual information (paper §V, Alg. 2).

The NMI matrix over D_SYB yields a correlation graph ``G_C`` at
threshold μ (chosen via a target graph *density*).  Mining then runs
the exact E-HTPGM machinery but:

* only events whose variable appears in ``G_C`` (i.e. has at least one
  edge) populate L1, and
* an L2 event pair ``(E_i, E_j)`` is considered only if its variables
  are connected by an edge in ``G_C`` (same-variable pairs are always
  allowed — NMI(X;X) = 1 ≥ μ).

From L3 on, mining proceeds exactly as E-HTPGM over the surviving L1/L2
(Alg. 2 lines 12-13); Theorem 1 guarantees pruned pairs have bounded
confidence, which the experiments (Table IX) quantify as accuracy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from . import mi as mi_mod
from .htpgm import MiningConfig, mine
from .model import MiningResult
from .seqdb import SequenceDatabase


@dataclass
class CorrelationGraph:
    """Correlation graph G_C with the μ used to build it."""

    mu: float
    edges: set[frozenset]
    variables: set[str]

    def has_edge(self, var_a: str, var_b: str) -> bool:
        if var_a == var_b:
            return True
        return frozenset((var_a, var_b)) in self.edges

    @classmethod
    def from_nmi(
        cls, nmi: pd.DataFrame, *, mu: float | None = None, density: float | None = None
    ) -> "CorrelationGraph":
        """Build from a directed NMI frame, via explicit μ or a density.

        Both lie in [0, 1]; a value outside it, or NaN, raises
        ``ValueError``.
        """
        if (mu is None) == (density is None):
            raise ValueError("give exactly one of mu / density")
        for name, value in (("mu", mu), ("density", density)):
            if value is not None and not 0 <= value <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if mu is None:
            mu = mi_mod.mu_for_density(nmi, density)
        edges = mi_mod.correlation_edges(nmi, mu)
        variables = {v for e in edges for v in e}
        return cls(mu=mu, edges=edges, variables=variables)


def event_var(event: str) -> str:
    """Variable of an event id ``"<var>:<symbol>"``."""
    return event.rsplit(":", 1)[0]


def mine_approx(
    db: SequenceDatabase,
    graph: CorrelationGraph,
    cfg: MiningConfig,
) -> MiningResult:
    """Run A-HTPGM: E-HTPGM restricted to the correlation graph."""
    restricted = _restrict_db(db, graph.variables)
    # Every event left is of a correlated variable: look each one's
    # variable up once, and gate the L2 pairs by the graph's adjacency.
    variables = sorted(graph.variables)
    var = np.searchsorted(variables, [event_var(e) for e in restricted.events])
    adjacent = np.eye(len(variables), dtype=bool)
    for edge in graph.edges:
        ends = np.searchsorted(variables, sorted(edge))
        adjacent[np.ix_(ends, ends)] = True
    return mine(restricted, cfg, edge_mask=adjacent[np.ix_(var, var)])


def _restrict_db(db: SequenceDatabase, variables: set[str]) -> SequenceDatabase:
    """Drop events of uncorrelated variables (Alg. 2 lines 7-8): the
    database's instance table, narrowed by a row mask on event rank."""
    keep = {e for e in db.events if event_var(e) in variables}
    if len(keep) == len(db.events):
        return db
    return SequenceDatabase(db.table.restrict(keep))


def accuracy(approx: MiningResult, exact: MiningResult) -> float:
    """|patterns(A) ∩ patterns(E)| / |patterns(E)| (Table IX metric)."""
    exact_set = exact.pattern_set()
    if not exact_set:
        return 1.0
    return len(approx.pattern_set() & exact_set) / len(exact_set)

"""Data model: event instances, temporal patterns, mining results.

A *temporal pattern* (paper Def. 3.11) over the chronologically ordered
event tuple ``(E_1, …, E_k)`` is encoded as
``PatternKey = (events, relations)`` where ``relations`` holds the
``k(k-1)/2`` pairwise relation codes in *column-major* order::

    (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ...

i.e. appending event ``E_k`` to a ``(k-1)``-event pattern appends the
``k-1`` relations ``(0,k-1) … (k-2,k-1)`` — the exact growth direction
of the Hierarchical Pattern Graph.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .relations import RELATION_SYMBOLS

# Type aliases used across the miners.
Instance = tuple[int, int]  # [start, end)
EventId = str  # "<var>:<symbol>", e.g. "K:On"
PatternKey = tuple[tuple[EventId, ...], tuple[str, ...]]  # (events, relations)


def pattern_size(key: PatternKey) -> int:
    """Number of events in the pattern."""
    return len(key[0])


def pattern_pairs(k: int) -> Iterator[tuple[int, int]]:
    """Index pairs (i, j), i < j, in the column-major storage order."""
    for j in range(1, k):
        for i in range(j):
            yield i, j


def format_pattern(key: PatternKey) -> str:
    """Human-readable rendering, e.g. ``(K:On >= T:On), (K:On -> M:On)``."""
    events, rels = key
    parts = []
    for (i, j), r in zip(pattern_pairs(len(events)), rels):
        parts.append(f"({events[i]} {RELATION_SYMBOLS[r]} {events[j]})")
    return ", ".join(parts)


@dataclass
class MiningResult:
    """Output of a mining run.

    ``patterns`` maps each frequent & confident >=2-event pattern to its
    absolute support; ``frequent_events`` maps frequent single events to
    theirs.  ``node_counts``/``pattern_counts`` per HPG level are kept
    for the pruning-effectiveness analysis, and ``stats`` holds
    miner-specific counters (candidates generated, sequences scanned, …)
    used by the benchmark tables.
    """

    n_sequences: int
    frequent_events: dict[EventId, int]
    patterns: dict[PatternKey, int]
    node_counts: dict[int, int] = field(default_factory=dict)
    pattern_counts: dict[int, int] = field(default_factory=dict)
    stats: dict[str, float] = field(default_factory=dict)

    def confidence(self, key: PatternKey) -> float:
        """conf(P) = supp(P) / max_k supp(E_k) (paper Eq. 6)."""
        events, _ = key
        return self.patterns[key] / max(self.frequent_events[e] for e in events)

    def pattern_set(self) -> set[PatternKey]:
        return set(self.patterns)

    def filtered(self, sigma: float, delta: float) -> dict[PatternKey, int]:
        """Patterns meeting *stricter* thresholds than the run's own.

        Supports the Table V grid: mine once at the loosest (σ, δ) and
        post-filter, which is sound because both support and confidence
        of a pattern are fixed quantities independent of the thresholds.
        """
        min_supp = min_support(sigma, self.n_sequences)
        out = {}
        for key, supp in self.patterns.items():
            if supp >= min_supp and self.confidence(key) >= delta:
                out[key] = supp
        return out


def min_support(sigma: float, n_sequences: int) -> int:
    """Absolute support threshold for a relative σ (at least 1)."""
    import math

    return max(1, math.ceil(sigma * n_sequences))

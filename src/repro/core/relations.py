"""Temporal relations between event instances (paper §III-B).

The paper reduces Allen's seven relations to three — *Follow*, *Contain*
and *Overlap* — and makes them tolerant to small misalignments through a
buffer ``epsilon`` while keeping them mutually exclusive.  Definitions
(for instances ``e1 = [s1, e1)`` and ``e2 = [s2, e2)`` with ``e1``
ordered no later than ``e2``, see :mod:`repro.core.enumerate`):

* ``Follow``  iff ``s2 >= end1 - epsilon``
* ``Contain`` iff ``s1 <= s2`` and ``end1 + epsilon >= end2``
* ``Overlap`` iff ``s1 < s2`` and ``end1 + epsilon < end2`` and
  ``end1 - s2 >= d_o - epsilon`` where ``d_o`` is the minimal
  overlapping duration (``0 <= epsilon << d_o``).

Checked in that order; at most one holds, or none (e.g. equal starts
with the first instance strictly shorter), in which case the instance
pair cannot participate in a pattern.
"""
from __future__ import annotations

import numpy as np

# Single-character relation codes keep pattern keys compact; rendered
# via RELATION_NAMES for human-facing output.
FOLLOW = "F"
CONTAIN = "C"
OVERLAP = "O"
RELATIONS = (FOLLOW, CONTAIN, OVERLAP)
RELATION_NAMES = {FOLLOW: "Follow", CONTAIN: "Contain", OVERLAP: "Overlap"}
RELATION_SYMBOLS = {FOLLOW: "->", CONTAIN: ">=", OVERLAP: "><"}


def relation(
    s1: int, end1: int, s2: int, end2: int, epsilon: int = 0, d_o: int = 1
) -> str | None:
    """Relation between two instances, first ordered before second.

    Returns one of :data:`FOLLOW`, :data:`CONTAIN`, :data:`OVERLAP`, or
    ``None`` when no relation holds.  The caller is responsible for
    passing the instances in chronological order (start ascending, ties
    broken by end *descending*): relations are only defined in that
    direction.
    """
    if s2 >= end1 - epsilon:
        return FOLLOW
    if s1 <= s2 and end1 + epsilon >= end2:
        return CONTAIN
    if s1 < s2 and end1 + epsilon < end2 and end1 - s2 >= d_o - epsilon:
        return OVERLAP
    return None


def relation_codes(s1, end1, s2, end2, epsilon: int = 0, d_o: int = 1) -> np.ndarray:
    """The same decision tree as :func:`relation`, over arrays.

    Returns, per element, the index of the relation in
    :data:`RELATIONS` (0 Follow, 1 Contain, 2 Overlap) or -1 where no
    relation holds, as ``int8``.
    """
    follow = np.asarray(s2 >= end1 - epsilon, dtype=np.int8)
    contain = np.asarray((s1 <= s2) & (end1 + epsilon >= end2), dtype=np.int8)
    # Where Contain fails, s1 < s2 implies end1 + epsilon < end2.
    overlap = np.asarray((s1 < s2) & (end1 - s2 >= d_o - epsilon), dtype=np.int8)
    # The tree as arithmetic, not masked writes, which branch per
    # element: 0 on Follow, else 1 on Contain, else 2 on Overlap or -1.
    return (1 - follow) * (contain + (1 - contain) * (3 * overlap - 1))


def relation_sql(
    s1: str, e1: str, s2: str, e2: str, epsilon: int = 0, d_o: int = 1
) -> str:
    """The same decision tree as :func:`relation`, as a SQL CASE expression.

    ``s1``/``e1``/``s2``/``e2`` are SQL column expressions.  Usable both in
    Spark SQL (Catalyst) and in DuckDB; the DuckDB oracle for the
    distributed miner's 2-event supports is written with it.
    """
    return (
        f"CASE WHEN {s2} >= {e1} - {epsilon} THEN 'F' "
        f"WHEN {s1} <= {s2} AND {e1} + {epsilon} >= {e2} THEN 'C' "
        f"WHEN {s1} < {s2} AND {e1} + {epsilon} < {e2} "
        f"AND {e1} - {s2} >= {d_o} - {epsilon} THEN 'O' "
        f"ELSE NULL END"
    )

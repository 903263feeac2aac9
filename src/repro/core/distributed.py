"""Distributed HTPGM over sequence partitions.

The paper's miner is single-machine; the reproduction's distributed
variant runs the level loop of the driver miner,
:func:`repro.core.htpgm.mine_levels`, on the driver and all embedding
work on the executors, partitioned by sequence:

* **Partitioning** — ``D_SEQ`` is hash-partitioned by ``seq_id`` once
  (the only shuffle) and cached.  Every sequence lies whole in exactly
  one partition.
* **L1 + L2 pass** — one ``mapInPandas`` over the partitions checks
  every row (:func:`repro.core.seqdb.check_dseq_frame`, the checks of
  :func:`repro.core.seqdb.check_dseq_row` over the whole Arrow batch),
  builds the partition's :class:`repro.core.enumerate.InstanceTable`
  straight from the batch columns and emits partial counts,
  pre-aggregated per partition: ``max(seq_id) + 1``, event supports,
  and ``(event_i, event_j, rel)`` supports from one
  :func:`repro.core.enumerate.extend` call over every event pair.  The
  level loop takes its L1 and L2 counts from their sums.
* **Lk pass, one per level** — the level loop derives the level's
  candidates as arrays (:class:`repro.core.enumerate.Candidates`); they
  travel to the executors in the task closure with the green nodes of
  levels 2..k-1, in the same form, each allowed to the relations of
  its kept tuples, and the sorted event list, by which each partition
  ranks its events.  A ``mapInPandas`` rebuilds the embeddings of those
  green nodes in its partition, one ``extend`` call per level, with
  the same columnar kernel as the driver miner, and emits partial
  ``(candidate, rels)`` counts of level k.  The driver sums them and
  keeps the tuples that pass (σ, δ) with the loop's array filter.  A
  level with no candidate runs no pass.

Support counts sequences, and no sequence spans two partitions, so a
support is the exact sum of the per-partition counts and the driver
adds them up: no ``countDistinct`` and no further shuffle.  The
sequence count is the largest ``max(seq_id) + 1``, as in
:meth:`repro.core.seqdb.SequenceDatabase.from_rows`, so empty sequences
inside the id range count.  The Spark jobs of the L1 + L2 pass are
described as ``distributed.l12`` and those of level k as
``distributed.l{k}``; the caller's job description is restored after
each.  There are no bitmaps here, so
``prune_apriori`` (Lemmas 2/3) gates nothing.  Results are identical to
the driver miner (tested).
"""
from __future__ import annotations

from collections import Counter
from itertools import compress

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .collect import arrow_collect, job_description
from .enumerate import (
    ALL_RELATIONS,
    RELATION_BIT,
    Candidates,
    Groups,
    InstanceTable,
    extend,
)
from .htpgm import Count, MiningConfig, mine_levels
from .model import EventId, MiningResult
from .seqdb import DSEQ_COLUMNS, check_dseq_frame

#: Rows of the L1 + L2 pass.  ``(NULL, NULL, NULL, n)`` carries the
#: partition's ``max(seq_id) + 1``, ``(event, NULL, NULL, supp)`` an
#: event support and ``(event_i, event_j, rel, supp)`` a 2-event
#: pattern support; every count is partial to one partition.
LEVEL12_SCHEMA = "event_i string, event_j string, rel string, supp long"
_LEVEL_K_SCHEMA = "node long, rels string, supp long"


def partition_sequences(dseq: DataFrame) -> DataFrame:
    """Hash-partition ``D_SEQ`` by ``seq_id`` into the session's
    ``spark.sql.shuffle.partitions``: each sequence in one partition."""
    n_parts = int(dseq.sparkSession.conf.get("spark.sql.shuffle.partitions"))
    return dseq.select(*DSEQ_COLUMNS).repartition(n_parts, "seq_id")


def _table(batches, events=None) -> tuple[InstanceTable, int] | None:
    """One partition's rows as an instance table whose ranks index
    ``events`` (default: the partition's own events), with its
    ``max(seq_id) + 1``; ``None`` for an empty partition.  A row that
    fails :func:`repro.core.seqdb.check_dseq_row` raises ``ValueError``."""
    frames = [pdf for pdf in batches if not pdf.empty]
    if not frames:
        return None
    pdf = pd.concat(frames, ignore_index=True)
    check_dseq_frame(pdf)
    table = InstanceTable.from_columns(
        *(pdf[c].to_numpy() for c in DSEQ_COLUMNS), events=events
    )
    return table, int(pdf["seq_id"].max()) + 1


def level12_partial_supports(
    parts: DataFrame, *, epsilon: int = 0, d_o: int = 1, t_max: int | None = None
) -> DataFrame:
    """The L1 + L2 pass over sequence partitions (see ``LEVEL12_SCHEMA``)."""

    def count(batches):
        built = _table(batches)
        if built is None:
            return
        table, n = built
        ranks = np.arange(len(table.events))
        pairs = np.column_stack(
            (np.repeat(ranks, len(ranks)), np.tile(ranks, len(ranks)))
        )
        cands = Candidates(pairs[:, 0], pairs, np.full((len(pairs), 1), ALL_RELATIONS))
        groups = extend(
            table, table.singletons(), cands, epsilon=epsilon, d_o=d_o, t_max=t_max
        ).groups
        ev = table.events
        rows = [(None, None, None, n)]
        rows += [(e, None, None, c) for e, c in table.supports().items()]
        rows += [
            (ev[pairs[c, 0]], ev[pairs[c, 1]], r, s)
            for c, (r,), s in zip(
                groups.cand.tolist(), groups.tuples, groups.supp.tolist()
            )
        ]
        yield pd.DataFrame(rows, columns=["event_i", "event_j", "rel", "supp"])

    return parts.mapInPandas(count, LEVEL12_SCHEMA)


def _level_k_partial_supports(
    parts: DataFrame,
    events: list[EventId],
    plan: list[Candidates],
    cands: Candidates,
    cfg: MiningConfig,
) -> DataFrame:
    """Partial ``(candidate index, comma-joined rels)`` supports of one
    level.  ``plan[j]`` holds the green nodes of level ``j + 2`` as
    candidates, each prefix an index into the previous entry (into
    ``events`` for level 2) and each allowed mask the relations of its
    kept tuples; ``cands`` extend the last entry."""
    params = {"epsilon": cfg.epsilon, "d_o": cfg.d_o, "t_max": cfg.t_max}

    def count(batches):
        built = _table(batches, events)
        if built is None:
            return
        table, _ = built
        embs = table.singletons()
        for level in plan:
            embs = extend(table, embs, level, store=True, **params).embeddings
        groups = extend(table, embs, cands, **params).groups
        rows = [
            (c, ",".join(t), s)
            for c, t, s in zip(groups.cand.tolist(), groups.tuples, groups.supp.tolist())
        ]
        if rows:
            yield pd.DataFrame(rows, columns=["node", "rels", "supp"])

    return parts.mapInPandas(count, _LEVEL_K_SCHEMA)


def _partitioned_count(
    parts: DataFrame,
    events: list[EventId],
    pair_counts: dict[tuple[EventId, EventId], Counter],
    cfg: MiningConfig,
) -> Count:
    """The distributed miner's counting for :func:`mine_levels`: L2
    from the sums of the L1 + L2 pass, Lk from one pass per level.

    The passes replay the green nodes of every earlier level, each
    extension restricted to the relations of the node's kept tuples.
    A replayed row may realize a tuple that was not kept when its
    relations came from different kept tuples, but no extension of it
    passes (σ, δ), as its support and confidence are at most its
    own; at L2, where a tuple is one relation, the replay is exact."""
    # Per counted level: its green nodes as candidates, and their
    # indices among that level's candidates.
    levels: list[tuple[Candidates, np.ndarray]] = []

    def count(cands, keep, stats):
        k = cands.nodes.shape[1]
        counts: Counter = Counter()
        if k == 2:
            for c, (a, b) in enumerate(cands.nodes.tolist()):
                for t, s in pair_counts.get((events[a], events[b]), {}).items():
                    counts[c, t] = s
        elif len(cands.prefix):
            plan, prev = [], None
            for green, ids in levels:
                if prev is not None:
                    green = green._replace(prefix=np.searchsorted(prev, green.prefix))
                plan.append(green)
                prev = ids
            last = cands._replace(prefix=np.searchsorted(prev, cands.prefix))
            partials = _level_k_partial_supports(parts, events, plan, last, cfg)
            with job_description(parts.sparkSession, f"distributed.l{k}"):
                rows = _rows(partials)
            for c, rels, s in rows:
                counts[c, tuple(rels.split(","))] += s
        keys = sorted(counts)
        cand = np.array([c for c, _ in keys], dtype=np.int64)
        supp = np.array([counts[key] for key in keys], dtype=np.int64)
        kept = keep.mask(cand, supp)
        tuples = list(compress((t for _, t in keys), kept))
        groups = Groups(cand[kept], tuples, supp[kept])
        ids = np.unique(groups.cand)
        bits = np.zeros((len(cands.prefix), k - 1), dtype=np.int64)
        for c, t in zip(groups.cand.tolist(), groups.tuples):
            for i, r in enumerate(t[-(k - 1) :]):
                bits[c, i] |= RELATION_BIT[r]
        levels.append((cands._replace(allowed=bits).take(ids), ids))
        return groups

    return count


def _rows(df: DataFrame):
    """The rows of a small result as tuples of Python values."""
    pdf = arrow_collect(df)
    return zip(*(pdf[c].tolist() for c in pdf.columns))


def mine_distributed(
    spark: SparkSession, dseq: DataFrame, cfg: MiningConfig
) -> MiningResult:
    """Sequence-partitioned HTPGM; same output as :func:`htpgm.mine`."""
    parts = partition_sequences(dseq).cache()
    try:
        n = 0
        supports: dict[EventId, int] = Counter()
        pair_counts: dict[tuple[EventId, EventId], Counter] = {}
        partials = level12_partial_supports(
            parts, epsilon=cfg.epsilon, d_o=cfg.d_o, t_max=cfg.t_max
        )
        with job_description(spark, "distributed.l12"):
            rows = _rows(partials)
        for ei, ej, rel, supp in rows:
            if ei is None:
                n = max(n, supp)
            elif ej is None:
                supports[ei] += supp
            else:
                pair_counts.setdefault((ei, ej), Counter())[(rel,)] += supp
        count = _partitioned_count(parts, sorted(supports), pair_counts, cfg)
        return mine_levels(n, supports, cfg, count)
    finally:
        parts.unpersist()

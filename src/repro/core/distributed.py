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
  candidates and the relations each may use; the kept patterns of
  levels 2..k-1 and the candidates travel to the executors in the task
  closure.  A ``mapInPandas`` rebuilds the embeddings of those kept
  patterns in its partition, one ``extend`` call per level, with the
  same columnar kernel as the driver miner, and emits partial
  ``(candidate, rels)`` counts of level k.  A level with no candidate
  runs no pass.

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

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .collect import arrow_collect, job_description
from .enumerate import InstanceTable, extend
from .htpgm import Candidate, Count, MiningConfig, Node, mine_levels
from .model import EventId, MiningResult
from .relations import RELATIONS
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


def _table(batches) -> tuple[InstanceTable, int] | None:
    """One partition's rows as an instance table, with its
    ``max(seq_id) + 1``; ``None`` for an empty partition.  A row that
    fails :func:`repro.core.seqdb.check_dseq_row` raises ``ValueError``."""
    frames = [pdf for pdf in batches if not pdf.empty]
    if not frames:
        return None
    pdf = pd.concat(frames, ignore_index=True)
    check_dseq_frame(pdf)
    table = InstanceTable.from_columns(*(pdf[c].to_numpy() for c in DSEQ_COLUMNS))
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
        pairs = [((e1, e2), [RELATIONS]) for e1 in table.events for e2 in table.events]
        ext = extend(
            table, table.singletons(), pairs, epsilon=epsilon, d_o=d_o, t_max=t_max
        )
        rows = [(None, None, None, n)]
        rows += [(e, None, None, c) for e, c in table.supports().items()]
        rows += [
            (e1, e2, r, c)
            for ((e1, e2), _), tuples in zip(pairs, ext.supports)
            for (r,), c in tuples.items()
        ]
        yield pd.DataFrame(rows, columns=["event_i", "event_j", "rel", "supp"])

    return parts.mapInPandas(count, LEVEL12_SCHEMA)


def _level_k_partial_supports(
    parts: DataFrame,
    plan: list[dict[Node, tuple[frozenset[tuple[str, ...]], list]]],
    candidates: list[Candidate],
    cfg: MiningConfig,
) -> DataFrame:
    """Partial ``(candidate index, comma-joined rels)`` supports of one
    level.  ``plan[j]`` maps the level ``j + 2`` nodes whose embeddings
    the next level extends to their kept relation tuples and, as in a
    candidate, the relations allowed to their last event."""
    params = {"epsilon": cfg.epsilon, "d_o": cfg.d_o, "t_max": cfg.t_max}

    def count(batches):
        built = _table(batches)
        if built is None:
            return
        table, _ = built
        embs = table.singletons()
        for kept in plan:
            embs = extend(
                table,
                embs,
                [(node, allowed_last) for node, (_, allowed_last) in kept.items()],
                keep=lambda node, tuples: {
                    t: s for t, s in tuples.items() if t in kept[node][0]
                },
                **params,
            ).embeddings
        ext = extend(table, embs, candidates, **params)
        rows = [
            (idx, ",".join(t), s)
            for idx, tuples in enumerate(ext.supports)
            for t, s in tuples.items()
        ]
        if rows:
            yield pd.DataFrame(rows, columns=["node", "rels", "supp"])

    return parts.mapInPandas(count, _LEVEL_K_SCHEMA)


def _partitioned_count(
    parts: DataFrame,
    pair_counts: dict[Node, Counter],
    cfg: MiningConfig,
) -> Count:
    """The distributed miner's counting for :func:`mine_levels`: L2
    from the sums of the L1 + L2 pass, Lk from one pass per level."""
    levels: list[dict[Node, tuple[frozenset[tuple[str, ...]], list]]] = []

    def count(candidates, keep, stats):
        if not candidates:
            return {}
        if len(candidates[0][0]) == 2:
            counts = pair_counts
        else:
            # Replay only the nodes some candidate extends, level by level.
            plan = []
            needed = {node[:-1] for node, _ in candidates}
            for green in reversed(levels):
                plan.append({node: green[node] for node in needed})
                needed = {node[:-1] for node in needed}
            plan.reverse()
            counts = {}
            partials = _level_k_partial_supports(parts, plan, candidates, cfg)
            k = len(candidates[0][0])
            with job_description(parts.sparkSession, f"distributed.l{k}"):
                rows = _rows(partials)
            for idx, rels, supp in rows:
                node = candidates[idx][0]
                counts.setdefault(node, Counter())[tuple(rels.split(","))] += supp
        level, green = {}, {}
        for node, allowed_last in candidates:
            pats = keep(node, counts.get(node, {}))
            if pats:
                level[node] = pats
                green[node] = (frozenset(pats), allowed_last)
        levels.append(green)
        return level

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
        pair_counts: dict[Node, Counter] = {}
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
        return mine_levels(
            n, supports, cfg, _partitioned_count(parts, pair_counts, cfg)
        )
    finally:
        parts.unpersist()

"""Distributed HTPGM over sequence partitions.

The level loop of the driver miner, :func:`repro.core.htpgm.mine_levels`,
runs on the driver and all embedding work on the executors.  ``D_SEQ``
is hash-partitioned by ``seq_id`` once (the only shuffle) and cached:
every sequence lies in one partition, so a support (a count of
sequences) is the exact sum of the partitions' partial supports.

**One pass**, :func:`partial_supports`, a ``mapInPandas``, runs for
L1 + L2 before the loop (its Spark jobs described as
``distributed.l12``) and for each level k >= 3 with candidates
(``distributed.l{k}``).  Each partition checks its rows
(:func:`repro.core.seqdb.check_dseq_frame`), builds its
:class:`repro.core.enumerate.InstanceTable`, replays the green nodes of
the earlier levels, each allowed the relations of its kept tuples, with
one :func:`repro.core.enumerate.extend` call per level, and counts the
level with one more.

**One schema**, :data:`PARTIALS_SCHEMA`: one row per non-empty
partition, with its groups as integer list columns (candidate, relation
tuple, partial support, and the embeddings realizing the group, since
which ones a level keeps depends on global supports), the (row,
instance) pairs checked, ``max(seq_id) + 1`` and the seconds the task
function spent.  The driver sums the
groups with ``np.unique`` and ``np.add.at`` (:func:`sum_partials`),
keeps them with the loop's σ/δ filter, builds the kept-relation
bitmasks with one ``np.bitwise_or.at`` and decodes names for kept
groups alone.  The sequence count is the largest ``max(seq_id) + 1``,
so empty sequences inside the id range count.  Two decisions:

* **Event keys at L1 + L2.**  The global event list does not exist
  before this pass, and learning it first would cost a Spark job.  Each
  partition counts every ordered pair ``(a, b)`` of its own sorted
  events as candidate ``a * len(events) + b`` and ships the list once,
  in ``events``; one ``np.unique`` over the concatenated lists maps
  every partition's ranks to global ones (:func:`level12`).  Later
  passes rank by the global list, in the task closure with the plan.
* **Relation-tuple code.**  A tuple of k events travels as its
  k(k-1)/2 relations, each an int8 index into
  :data:`repro.core.relations.RELATIONS`, flattened into one list
  column: the same in every partition, and no bound on ``max_k``.

``stats`` add ``seconds_l12_pass`` (the L1 + L2 pass and its sums; the
loop's ``seconds_l2`` covers only L2's bookkeeping, ``seconds_l{k}``,
k >= 3, includes the pass), ``task_seconds_l12_pass`` and
``task_seconds_l{k}``, k >= 3 (the seconds the pass's task functions
spent, summed over partitions: what is left of the pass's wall time is
the floor of the Spark jobs and the Python workers, though tasks that
run in parallel can sum past it) and the driver miner's counters, summed
over partitions.  There are no bitmaps here, so ``prune_apriori`` gates
nothing; against the driver miner without the Lemma 2/3 gate:

* ``embeddings_kept_l{k}`` is equal, as a kept tuple's prefix is kept;
* ``pairs_checked_l2`` is larger unless every event is frequent: the
  L1 + L2 pass tries every event pair;
* ``pairs_checked_l3`` is equal: an L2 tuple is one relation, so the
  L2 replay is exact;
* ``pairs_checked_l{k}``, k >= 4, may be larger: a replayed row may
  realize a tuple that was not kept, when its relations came from
  different kept tuples.  No extension of it passes (σ, δ), as its
  support and confidence are at most its own, but its pairs are checked.

**Worker start.**  Before each task, pyspark's
``worker_util.setup_spark_files`` calls ``importlib.invalidate_caches()``.
On CPython 3.11 every ``zipimport.zipimporter`` in
``sys.path_importer_cache`` then re-reads its whole archive directory
(3.12 defers the read).  A pyspark 4.1 worker that imports pyspark
from ``pyspark.zip`` holds 16 after a pass: one per archive on its path
(``pyspark.zip``, the py4j zip, the spark-core jar), and one more per
imported subpackage (``pyspark.zip/pyspark``,
``pyspark.zip/pyspark/sql``, ...), with a non-empty ``prefix``.
Invalidating them takes 0.1-0.2 s on a 4-core VM, against 0.03-0.06 s
for the 3 archives' own.  The task function first drops the subpackage
duplicates (:func:`_drop_subpackage_zip_importers`), so a reused
worker's later tasks re-read only the archives' own; the first task of a
fresh worker still pays once, as the invalidation runs before it.  This
is safe: each archive's own importer stays cached and refreshes
``zipimport._zip_directory_cache`` on every invalidation, and a later
subpackage import builds its importer again from that cache, so every
import resolves as before.

Results are identical to the driver miner (tested).
"""
from __future__ import annotations

import sys
import time
import zipimport
from collections.abc import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .collect import arrow_collect, job_description
from .enumerate import ALL_RELATIONS, Candidates, Groups, InstanceTable, extend
from .htpgm import Count, MiningConfig, mine_levels
from .model import EventId, MiningResult
from .relations import RELATIONS
from .seqdb import DSEQ_COLUMNS, check_dseq_frame

#: One row per non-empty partition; every count is partial to it.
PARTIALS_SCHEMA = (
    "events array<string>, event_supp array<long>, cand array<long>, "
    "rels array<tinyint>, supp array<long>, rows array<long>, "
    "pairs_checked long, n long, seconds double"
)
_RELATIONS = np.array(RELATIONS)


def _drop_subpackage_zip_importers() -> None:
    """Remove from ``sys.path_importer_cache`` every ``zipimporter`` for
    a path inside an archive (non-empty ``prefix``), leaving each
    archive's own importer and every other finder."""
    cache = sys.path_importer_cache
    for path, finder in list(cache.items()):
        if isinstance(finder, zipimport.zipimporter) and finder.prefix:
            del cache[path]


def partition_sequences(dseq: DataFrame) -> DataFrame:
    """Hash-partition ``D_SEQ`` by ``seq_id`` into the session's
    ``spark.sql.shuffle.partitions``: each sequence in one partition."""
    n_parts = int(dseq.sparkSession.conf.get("spark.sql.shuffle.partitions"))
    return dseq.select(*DSEQ_COLUMNS).repartition(n_parts, "seq_id")


def partial_supports(
    parts: DataFrame,
    cfg: MiningConfig,
    events: list[EventId] | None = None,
    plan: Sequence[Candidates] = (),
) -> DataFrame:
    """One pass over sequence partitions (see :data:`PARTIALS_SCHEMA`).

    Without ``events``, the L1 + L2 pass.  With them, the pass of the
    level of ``plan[-1]``: ``plan[j]`` holds the nodes of level
    ``j + 2`` as candidates, each prefix an index into the previous
    entry (into ``events`` for level 2); all but the last are replayed.
    A row that fails :func:`repro.core.seqdb.check_dseq_row` raises
    ``ValueError``."""
    params = {"epsilon": cfg.epsilon, "d_o": cfg.d_o, "t_max": cfg.t_max}

    def count(batches):
        t0 = time.perf_counter()
        _drop_subpackage_zip_importers()
        frames = [pdf for pdf in batches if not pdf.empty]
        if not frames:
            return
        pdf = pd.concat(frames, ignore_index=True)
        check_dseq_frame(pdf)
        table = InstanceTable.from_columns(
            *(pdf[c].to_numpy() for c in DSEQ_COLUMNS), events=events
        )
        own, levels = events is None, plan
        if own:
            a, b = np.divmod(np.arange(len(table.events) ** 2), len(table.events))
            every = np.full((len(a), 1), ALL_RELATIONS)
            levels = [Candidates(a, np.column_stack((a, b)), every)]
        embs = table.singletons()
        for level in levels[:-1]:
            embs = extend(table, embs, level, store=True, **params).embeddings
        ext = extend(table, embs, levels[-1], **params)
        rels = np.array(ext.groups.tuples, dtype=str).reshape(-1, 1) == _RELATIONS
        yield pd.DataFrame(
            {
                "events": [table.events if own else []],
                "event_supp": [list(table.supports().values()) if own else []],
                "cand": [ext.groups.cand],
                "rels": [rels.argmax(axis=1).astype(np.int8)],
                "supp": [ext.groups.supp],
                "rows": [ext.groups.rows],
                "pairs_checked": [ext.pairs_checked],
                "n": [int(pdf["seq_id"].max()) + 1],
                "seconds": [time.perf_counter() - t0],
            }
        )

    return parts.mapInPandas(count, PARTIALS_SCHEMA)


def _flat(pdf: pd.DataFrame, column: str, dtype=np.int64) -> np.ndarray:
    """The lists of ``column``, concatenated over partitions."""
    return np.concatenate([np.zeros(0, dtype), *pdf[column]]).astype(dtype)


def _groups(pdf: pd.DataFrame, k: int) -> tuple[np.ndarray, ...]:
    """The groups of a pass's rows over candidates of ``k`` events:
    candidate, relation codes (one row per group), support, rows."""
    rels = _flat(pdf, "rels", np.int8).reshape(-1, k * (k - 1) // 2)
    return _flat(pdf, "cand"), rels, _flat(pdf, "supp"), _flat(pdf, "rows")


def sum_partials(cand, rels, supp, rows) -> tuple[np.ndarray, ...]:
    """Partial groups summed: per distinct (candidate, relation codes),
    in sorted order, the candidate, the codes, the support and the rows."""
    keys, group = np.unique(np.column_stack((cand, rels)), axis=0, return_inverse=True)
    sums = np.zeros((2, len(keys)), dtype=np.int64)
    np.add.at(sums[0], group.reshape(-1), supp)
    np.add.at(sums[1], group.reshape(-1), rows)
    return keys[:, 0], keys[:, 1:], *sums


def level12(pdf: pd.DataFrame) -> tuple[int, dict[EventId, int], tuple]:
    """The rows of the L1 + L2 pass on the driver: the sequence count,
    the event supports and the partial 2-event groups, pair ``(a, b)``
    of global event ranks as candidate ``a * len(events) + b``."""
    events, rank = np.unique(_flat(pdf, "events", object), return_inverse=True)
    supports = np.zeros(len(events), dtype=np.int64)
    np.add.at(supports, rank, _flat(pdf, "event_supp"))
    # A partition's candidate a * m + b, with m its number of events,
    # names its ranks a and b, at offset ``base`` in the concatenated lists.
    m, n_groups = pdf["events"].map(len).to_numpy(), pdf["supp"].map(len).to_numpy()
    base = np.repeat(np.cumsum(m) - m, n_groups)
    cand, *groups = _groups(pdf, 2)
    a, b = np.divmod(cand, np.repeat(m, n_groups))
    pairs = (rank[base + a] * len(events) + rank[base + b], *groups)
    n = int(pdf["n"].max()) if len(pdf) else 0
    return n, dict(zip(events.tolist(), supports.tolist())), pairs


def _partitioned_count(
    parts: DataFrame, events: list[EventId], pairs: tuple, checked: int, cfg: MiningConfig
) -> Count:
    """The distributed miner's counting for :func:`mine_levels`: L2 from
    the 2-event groups ``pairs`` of :func:`level12`, whose pass checked
    ``checked`` (row, instance) pairs, Lk from one pass per level."""
    # The green nodes of the counted levels, each prefix an index into
    # the previous entry, and the last entry's indices among its level's
    # candidates.
    plan: list[Candidates] = []
    ids = None

    def count(cands, keep, stats):
        nonlocal ids
        k = cands.nodes.shape[1]
        stats[f"pairs_checked_l{k}"] = stats[f"embeddings_kept_l{k}"] = 0
        if k > 2:
            stats[f"task_seconds_l{k}"] = 0.0
        if not len(cands.prefix):
            empty = np.zeros(0, dtype=np.int64)
            return Groups(empty, [], empty, empty)
        if k == 2:
            index = np.full(len(events) ** 2, -1)
            index[cands.nodes @ [len(events), 1]] = np.arange(len(cands.prefix))
            cand = index[pairs[0]]
            groups = [col[cand >= 0] for col in (cand, *pairs[1:])]
            stats["pairs_checked_l2"] = checked
        else:
            cands = cands._replace(prefix=np.searchsorted(ids, cands.prefix))
            passed = partial_supports(parts, cfg, events, plan + [cands])
            with job_description(parts.sparkSession, f"distributed.l{k}"):
                pdf = arrow_collect(passed)
            groups = _groups(pdf, k)
            stats[f"pairs_checked_l{k}"] = int(pdf["pairs_checked"].sum())
            stats[f"task_seconds_l{k}"] = float(pdf["seconds"].sum())
        cand, rels, supp, rows = sum_partials(*groups)
        kept = keep.mask(cand, supp)
        cand, rels, supp, rows = cand[kept], rels[kept], supp[kept], rows[kept]
        if k < cfg.max_k:  # as the driver miner, which stores no last level
            stats[f"embeddings_kept_l{k}"] = int(rows.sum())
        bits = np.zeros((len(cands.prefix), k - 1), dtype=np.int64)
        np.bitwise_or.at(bits, (cand[:, None], np.arange(k - 1)), 1 << rels[:, 1 - k :])
        ids = np.unique(cand)
        plan.append(cands._replace(allowed=bits).take(ids))
        return Groups(cand, list(map(tuple, _RELATIONS[rels].tolist())), supp, rows)

    return count


def mine_distributed(
    spark: SparkSession, dseq: DataFrame, cfg: MiningConfig
) -> MiningResult:
    """Sequence-partitioned HTPGM; same output as :func:`htpgm.mine`."""
    parts = partition_sequences(dseq).cache()
    try:
        t0 = time.perf_counter()
        passed = partial_supports(parts, cfg)
        with job_description(spark, "distributed.l12"):
            l12 = arrow_collect(passed)
        n, supports, pairs = level12(l12)
        seconds = time.perf_counter() - t0
        checked = int(l12["pairs_checked"].sum())
        count = _partitioned_count(parts, sorted(supports), pairs, checked, cfg)
        result = mine_levels(n, supports, cfg, count)
        result.stats["seconds_l12_pass"] = seconds
        result.stats["task_seconds_l12_pass"] = float(l12["seconds"].sum())
        return result
    finally:
        parts.unpersist()

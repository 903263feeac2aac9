"""Distributed HTPGM over sequence partitions.

The paper's miner is single-machine; the reproduction's distributed
variant keeps the Hierarchical Pattern Graph logic on the driver and
runs all embedding work on the executors, partitioned by sequence:

* **Partitioning** — ``D_SEQ`` is hash-partitioned by ``seq_id`` once
  (the only shuffle) and cached.  Every sequence lies whole in exactly
  one partition.
* **L1 + L2 pass** — one ``mapInPandas`` over the partitions builds
  each sequence as ``{event: sorted instances}`` and emits partial
  counts, pre-aggregated per partition: ``max(seq_id) + 1``, event
  supports, and ``(event_i, event_j, rel)`` supports from the shared
  :func:`repro.core.enumerate._pair_tuples`.
* **Lk pass, one per level** — the driver keeps the green nodes by the
  σ/δ rules of :func:`repro.core.htpgm.mine`, derives the level's
  candidates (transitivity admission: every pair with the new event
  must be a green L2 node) and ships the kept patterns and the
  allowed-relation map to the executors in the task closure.  A
  ``mapInPandas`` rebuilds the embeddings of the kept patterns of
  levels 2..k-1 in every sequence of its partition, extending one event
  at a time with the same :func:`repro.core.enumerate.extend_embeddings`
  step as the driver miner, and emits partial ``(node, rels)`` counts
  of level k.

Support counts sequences, and no sequence spans two partitions, so a
support is the exact sum of the per-partition counts and the driver
adds them up: no ``countDistinct`` and no further shuffle.  The
sequence count is the largest ``max(seq_id) + 1``, as in
:meth:`repro.core.seqdb.SequenceDatabase.from_rows`, so empty sequences
inside the id range count.  Results are identical to the driver miner
(tested).
"""
from __future__ import annotations

from collections import Counter

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .enumerate import _pair_tuples, extend_embeddings
from .htpgm import MiningConfig
from .model import EventId, Instance, MiningResult, min_support
from .seqdb import DSEQ_COLUMNS

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


def _sequences(batches) -> dict[int, dict[EventId, list[Instance]]]:
    """One partition's rows as ``{seq_id: {event: sorted instances}}``."""
    seqs: dict[int, dict[EventId, list[Instance]]] = {}
    for pdf in batches:
        for sid, ev, s, e in zip(
            pdf["seq_id"].tolist(),
            pdf["event"].tolist(),
            pdf["start"].tolist(),
            pdf["end"].tolist(),
        ):
            seqs.setdefault(sid, {}).setdefault(ev, []).append((s, e))
    for seq in seqs.values():
        for insts in seq.values():
            insts.sort(key=lambda it: (it[0], -it[1]))
    return seqs


def level12_partial_supports(
    parts: DataFrame, *, epsilon: int = 0, d_o: int = 1, t_max: int | None = None
) -> DataFrame:
    """The L1 + L2 pass over sequence partitions (see ``LEVEL12_SCHEMA``)."""

    def count(batches):
        seqs = _sequences(batches)
        if not seqs:
            return
        events: Counter = Counter()
        pairs: Counter = Counter()
        for seq in seqs.values():
            events.update(seq.keys())
            for e1, insts1 in seq.items():
                for e2, insts2 in seq.items():
                    for (r,) in _pair_tuples(
                        insts1, insts2, e1, e2, epsilon, d_o, t_max
                    ):
                        pairs[(e1, e2, r)] += 1
        rows = [(None, None, None, max(seqs) + 1)]
        rows += [(e, None, None, c) for e, c in events.items()]
        rows += [(e1, e2, r, c) for (e1, e2, r), c in pairs.items()]
        yield pd.DataFrame(rows, columns=["event_i", "event_j", "rel", "supp"])

    return parts.mapInPandas(count, LEVEL12_SCHEMA)


def _level_k_partial_supports(
    parts: DataFrame,
    plan: list[dict[tuple[EventId, ...], frozenset[tuple[str, ...]]]],
    candidates: list[tuple[EventId, ...]],
    allowed: dict[tuple[EventId, EventId], frozenset[str]],
    cfg: MiningConfig,
) -> DataFrame:
    """Partial ``(candidate index, comma-joined rels)`` supports of one
    level.  ``plan[j]`` holds the kept relation tuples of the level
    ``j + 2`` nodes whose embeddings the next level extends."""
    params = (cfg.epsilon, cfg.d_o, cfg.t_max)

    def step(node):
        prefix, ev = node[:-1], node[-1]
        return prefix, ev, [allowed[(e, ev)] for e in prefix]

    plan_steps = [
        [(node, tuples, *step(node)) for node, tuples in kept.items()]
        for kept in plan
    ]
    cand_steps = [step(node) for node in candidates]
    firsts = {node[0] for node in plan[0]}

    def count(batches):
        seqs = _sequences(batches)
        embs = {}
        for e in firsts:
            one = [
                (sid, (inst,), (inst[0], -inst[1], e), ())
                for sid, seq in seqs.items()
                for inst in seq.get(e, ())
            ]
            if one:
                embs[(e,)] = one
        for steps in plan_steps:
            nxt = {}
            for node, tuples, prefix, ev, allowed_last in steps:
                if prefix in embs:
                    _, ext = extend_embeddings(
                        embs[prefix], ev, seqs, allowed_last, *params
                    )
                    kept = [x for x in ext if x[3] in tuples]
                    if kept:
                        nxt[node] = kept
            embs = nxt
        rows = []
        for idx, (prefix, ev, allowed_last) in enumerate(cand_steps):
            if prefix in embs:
                by_tuple, _ = extend_embeddings(
                    embs[prefix], ev, seqs, allowed_last, *params
                )
                rows += [(idx, ",".join(t), len(s)) for t, s in by_tuple.items()]
        if rows:
            yield pd.DataFrame(rows, columns=["node", "rels", "supp"])

    return parts.mapInPandas(count, _LEVEL_K_SCHEMA)


def _rows(df: DataFrame):
    """The rows of a small result as tuples of Python values (Arrow
    collect: faster than ``collect()`` for thousands of rows)."""
    pdf = df.toPandas()
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
        for ei, ej, rel, supp in _rows(partials):
            if ei is None:
                n = max(n, supp)
            elif ej is None:
                supports[ei] += supp
            else:
                pair_counts.setdefault((ei, ej), Counter())[(rel,)] += supp
        ms = min_support(cfg.sigma, n)
        one_freq = {e: s for e, s in supports.items() if s >= ms}
        result = MiningResult(
            n_sequences=n, frequent_events=dict(one_freq), patterns={}
        )
        result.node_counts[1] = len(one_freq)
        result.pattern_counts[1] = len(one_freq)
        if not one_freq or cfg.max_k < 2:
            return result

        def keep(node: tuple[EventId, ...], tuples):
            max_ev = max(supports[e] for e in node)
            return {
                t: s
                for t, s in tuples.items()
                if s >= ms and s / max_ev >= cfg.delta
            }

        def record(k: int, level: dict) -> None:
            result.node_counts[k] = len(level)
            result.pattern_counts[k] = sum(len(p) for p in level.values())
            for node, pats in level.items():
                for t, s in pats.items():
                    result.patterns[(node, t)] = s

        level2 = {}
        for pair, tuples in pair_counts.items():
            if pair[0] in one_freq and pair[1] in one_freq:
                pats = keep(pair, tuples)
                if pats:
                    level2[pair] = pats
        record(2, level2)
        allowed = {
            pair: frozenset(t[0] for t in pats) for pair, pats in level2.items()
        }

        levels = [level2]
        k = 3
        while levels[-1] and k <= cfg.max_k:
            prev = levels[-1]
            filtered1 = sorted({e for node in prev for e in node})
            candidates = [
                node + (ek,)
                for node in prev
                for ek in filtered1
                if all((ei, ek) in allowed for ei in node)
            ]
            if not candidates:
                break
            # Replay only the nodes some candidate extends, level by level.
            plan = []
            needed = {c[:-1] for c in candidates}
            for level in reversed(levels):
                plan.append({node: frozenset(level[node]) for node in needed})
                needed = {node[:-1] for node in needed}
            plan.reverse()
            by_node: dict[int, Counter] = {}
            partials = _level_k_partial_supports(
                parts, plan, candidates, allowed, cfg
            )
            for idx, rels, supp in _rows(partials):
                by_node.setdefault(idx, Counter())[tuple(rels.split(","))] += supp
            level_k = {}
            for idx, tuples in by_node.items():
                pats = keep(candidates[idx], tuples)
                if pats:
                    level_k[candidates[idx]] = pats
            record(k, level_k)
            levels.append(level_k)
            k += 1
        return result
    finally:
        parts.unpersist()

"""E-HTPGM: exact Hierarchical Temporal Pattern Graph Mining (paper §IV).

Level-wise mining over a Hierarchical Pattern Graph (HPG):

* **L1** — frequent single events via bitmap popcounts.
* **L2** — ordered event pairs from ``1Freq × 1Freq`` (self-pairs
  included); with Apriori pruning (Lemmas 2/3) a pair is enumerated only
  if its combination support and confidence pass (σ, δ), computed from
  the ANDed bitmaps.  Relation tuples are then enumerated per sequence
  and each becomes a 2-event pattern with its own support bitmap.  Nodes
  with no frequent pattern ("brown" nodes) never seed deeper levels —
  sound by pattern-level Apriori (any sub-pattern of a frequent pattern
  is frequent, Defs. 3.12/3.14).
* **Lk** — candidates extend green ``L_{k-1}`` nodes by one event.  With
  transitivity pruning (Lemmas 4–7): the appended event must itself
  occur in a green ``L_{k-1}`` node (``Filtered1Freq``), every pair
  ``(E_i, E_k)`` must be a green L2 node, and during embedding DFS the
  relation between positions ``(i, j)`` is restricted to relations that
  are frequent *and* confident at the corresponding L2 node — the
  iterative verification of step 3.2.

The four pruning configurations benchmarked in the paper's Figs. 6–7
map to ``prune_apriori`` / ``prune_trans`` flags; all four return
identical pattern sets (regression-tested).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .enumerate import enumerate_pattern_tuples, extend_embeddings
from .model import EventId, MiningResult, PatternKey, min_support
from .relations import relation
from .seqdb import SequenceDatabase


@dataclass(frozen=True)
class MiningConfig:
    """Thresholds and relation parameters for one mining run.

    ``sigma``/``delta`` are relative support/confidence thresholds in
    [0, 1].  ``epsilon`` is the relation buffer, ``d_o`` the minimal
    overlap duration, ``t_max`` the maximal pattern span (defaults to
    unbounded, i.e. the sequence length bounds it naturally), ``max_k``
    caps the pattern length.
    """

    sigma: float
    delta: float
    epsilon: int = 0
    d_o: int = 1
    t_max: int | None = None
    max_k: int = 3
    prune_apriori: bool = True
    prune_trans: bool = True


@dataclass
class _Node:
    """One HPG node: an ordered event combination and its patterns."""

    events: tuple[EventId, ...]
    bitmap: np.ndarray  # sequences containing all events
    patterns: dict[tuple[str, ...], np.ndarray] = field(default_factory=dict)


def mine(
    db: SequenceDatabase,
    cfg: MiningConfig,
    *,
    edge_filter=None,
) -> MiningResult:
    """Run (E-)HTPGM on ``db``.

    ``edge_filter(ev_i, ev_j) -> bool``, when given, additionally gates
    which L2 event pairs are considered — the hook through which
    A-HTPGM plugs in its correlation graph (paper Alg. 2 lines 9-11).
    """
    n = db.n_seq
    ms = min_support(cfg.sigma, n)
    stats: dict[str, int] = {
        "candidates_l2": 0,
        "candidates_k": 0,
        "enumerated_nodes": 0,
        "sequence_scans": 0,
    }

    # ---- L1: frequent single events --------------------------------
    supports = db.event_supports()
    one_freq = {e: s for e, s in supports.items() if s >= ms}
    result = MiningResult(
        n_sequences=n, frequent_events=dict(one_freq), patterns={}
    )
    result.node_counts[1] = len(one_freq)
    result.pattern_counts[1] = len(one_freq)
    if not one_freq or cfg.max_k < 2:
        result.stats = stats
        return result

    events1 = sorted(one_freq)

    def node_patterns(
        node_events: tuple[EventId, ...],
        scan_bitmap: np.ndarray | None,
        allowed: dict[tuple[int, int], frozenset[str]] | None,
    ) -> dict[tuple[str, ...], np.ndarray]:
        """Enumerate per-sequence relation tuples; return pattern bitmaps."""
        stats["enumerated_nodes"] += 1
        seq_ids = (
            np.nonzero(scan_bitmap)[0] if scan_bitmap is not None else range(n)
        )
        pats: dict[tuple[str, ...], np.ndarray] = {}
        for sid in seq_ids:
            stats["sequence_scans"] += 1
            tuples = enumerate_pattern_tuples(
                db.sequences[sid],
                node_events,
                epsilon=cfg.epsilon,
                d_o=cfg.d_o,
                t_max=cfg.t_max,
                allowed=allowed,
            )
            for t in tuples:
                bm = pats.get(t)
                if bm is None:
                    bm = pats[t] = np.zeros(n, dtype=bool)
                bm[sid] = True
        return pats

    def keep_frequent(
        node_events: tuple[EventId, ...],
        pats: dict[tuple[str, ...], np.ndarray],
    ) -> dict[tuple[str, ...], np.ndarray]:
        """Final σ/δ filter on a node's enumerated patterns."""
        max_ev_supp = max(supports[e] for e in node_events)
        out = {}
        for t, bm in pats.items():
            supp = int(bm.sum())
            if supp >= ms and supp / max_ev_supp >= cfg.delta:
                out[t] = bm
        return out

    # ---- L2: frequent 2-event patterns -----------------------------
    # In the transitivity-pruned configuration the pass also collects
    # the kept embeddings per green node (the HPG nodes of Fig. 4 store
    # their event instances), which seeds the iterative Lk mining.
    level2: dict[tuple[EventId, EventId], _Node] = {}
    l2_embs: dict[tuple[EventId, EventId], list] = {}
    for ei in events1:
        for ej in events1:
            stats["candidates_l2"] += 1
            if edge_filter is not None and not edge_filter(ei, ej):
                continue
            pair = (ei, ej)
            bm = db.bitmaps[ei] & db.bitmaps[ej]
            if cfg.prune_apriori:
                supp = int(bm.sum())
                if supp < ms:  # Lemma 2
                    continue
                if supp / max(one_freq[ei], one_freq[ej]) < cfg.delta:
                    continue  # Lemma 3
                scan = bm
            else:
                scan = None  # model the un-pruned full database scan
            if cfg.prune_trans:
                by_tuple, embs = pair_embeddings(
                    db, ei, ej, scan, cfg.epsilon, cfg.d_o, cfg.t_max
                )
                stats["enumerated_nodes"] += 1
                max_ev = max(one_freq[ei], one_freq[ej])
                pats = {
                    t: s
                    for t, s in by_tuple.items()
                    if len(s) >= ms and len(s) / max_ev >= cfg.delta
                }
                if pats:
                    level2[pair] = _Node(
                        pair, bm, {t: _to_bitmap(s, n) for t, s in pats.items()}
                    )
                    l2_embs[pair] = [e for e in embs if e[3] in pats]
            else:
                pats = keep_frequent(pair, node_patterns(pair, scan, None))
                if pats:
                    level2[pair] = _Node(pair, bm, pats)

    result.node_counts[2] = len(level2)
    result.pattern_counts[2] = sum(len(nd.patterns) for nd in level2.values())
    for pair, nd in level2.items():
        for t, bm in nd.patterns.items():
            result.patterns[(pair, t)] = int(bm.sum())

    # Allowed-relation map per green L2 pair (transitivity pruning).
    allowed_rel: dict[tuple[EventId, EventId], frozenset[str]] = {
        pair: frozenset(t[0] for t in nd.patterns)
        for pair, nd in level2.items()
    }

    # ---- Lk (k >= 3) ----------------------------------------------
    if cfg.prune_trans:
        _mine_k_iterative(
            db, cfg, ms, supports, level2, l2_embs, allowed_rel, result, stats
        )
    else:
        _mine_k_rescan(
            db, cfg, ms, supports, events1, level2, result, stats,
            node_patterns, keep_frequent,
        )
    result.stats = stats
    return result


def _to_bitmap(seq_ids, n: int) -> np.ndarray:
    bm = np.zeros(n, dtype=bool)
    bm[list(seq_ids)] = True
    return bm


def _mine_k_rescan(
    db, cfg, ms, supports, events1, level2, result, stats,
    node_patterns, keep_frequent,
):
    """Lk mining without transitivity pruning: re-enumerate every
    candidate node from the raw sequences (the NoPrune/Apriori-only
    ablation paths of Figs. 6-7)."""
    prev = level2
    k = 3
    while prev and k <= cfg.max_k:
        level_k: dict[tuple[EventId, ...], _Node] = {}
        for node_events_prev, nd_prev in prev.items():
            for ek in events1:
                stats["candidates_k"] += 1
                node_events = node_events_prev + (ek,)
                bm = nd_prev.bitmap & db.bitmaps[ek]
                if cfg.prune_apriori:
                    supp = int(bm.sum())
                    if supp < ms:
                        continue
                    if supp / max(supports[e] for e in node_events) < cfg.delta:
                        continue
                    scan = bm
                else:
                    scan = None
                pats = keep_frequent(
                    node_events, node_patterns(node_events, scan, None)
                )
                if pats:
                    level_k[node_events] = _Node(node_events, bm, pats)
        result.node_counts[k] = len(level_k)
        result.pattern_counts[k] = sum(
            len(nd.patterns) for nd in level_k.values()
        )
        for node_events, nd in level_k.items():
            for t, bm in nd.patterns.items():
                result.patterns[(node_events, t)] = int(bm.sum())
        prev = level_k
        k += 1


def pair_embeddings(db, ei, ej, scan_bitmap, epsilon, d_o, t_max):
    """One pass over an L2 node's instance pairs.

    Returns ``(by_tuple, embeddings)`` where ``by_tuple`` maps each
    relation tuple to its supporting sequence-id set and ``embeddings``
    is the full list of (seq_id, instances, last order key, tuple)
    entries — the single L2 scan that both counts the node's patterns
    and populates the HPG node's instance store.
    """
    seq_ids = (
        np.nonzero(scan_bitmap)[0]
        if scan_bitmap is not None
        else range(db.n_seq)
    )
    by_tuple: dict[tuple[str, ...], set[int]] = {}
    embs = []
    for sid in seq_ids:
        seq = db.sequences[sid]
        insts1 = seq.get(ei)
        insts2 = seq.get(ej)
        if not insts1 or not insts2:
            continue
        sid = int(sid)
        for s1, e1 in insts1:
            for s2, e2 in insts2:
                if (s1, -e1) > (s2, -e2):
                    continue
                if (s1, -e1) == (s2, -e2) and not ei < ej:
                    continue
                if t_max is not None and e2 - s1 > t_max:
                    continue
                r = relation(s1, e1, s2, e2, epsilon, d_o)
                if r is None:
                    continue
                key = (r,)
                by_tuple.setdefault(key, set()).add(sid)
                embs.append(
                    (sid, ((s1, e1), (s2, e2)), (s2, -e2, ej), key)
                )
    return by_tuple, embs


def _mine_k_iterative(
    db, cfg, ms, supports, level2, l2_embs, allowed_rel, result, stats
):
    """Lk mining with transitivity pruning: the paper's step 3.2.

    HPG nodes store their event-instance embeddings (cf. Fig. 4), and a
    frequent (k-1)-event pattern is extended by one event at a time,
    verifying only the new triples against the green L2 relations
    (Lemmas 4-7).  Only embeddings realizing frequent & confident
    tuples are retained — sound by pattern-level Apriori + Lemma 6: any
    frequent, confident k-pattern projects onto a frequent, confident
    (k-1)-prefix and frequent, confident 2-event relations.
    """
    # Embeddings of green L2 nodes (kept relations only), built during
    # the L2 pass: (seq_id, instances, last order key, relation tuple).
    epsilon, d_o, t_max = cfg.epsilon, cfg.d_o, cfg.t_max
    prev_embs: dict[tuple[EventId, ...], list] = l2_embs

    prev = {pair: nd for pair, nd in level2.items()}
    k = 3
    while prev and k <= cfg.max_k:
        filtered1 = sorted({e for node in prev for e in node})
        level_k: dict[tuple[EventId, ...], _Node] = {}
        new_embs_by_node: dict[tuple[EventId, ...], list] = {}
        for node_events_prev, nd_prev in prev.items():
            embs = prev_embs[node_events_prev]
            for ek in filtered1:
                stats["candidates_k"] += 1
                # Every pair (E_i, E_k) must be a green L2 node.
                allowed_last = []
                ok = True
                for ei in node_events_prev:
                    rels = allowed_rel.get((ei, ek))
                    if rels is None:
                        ok = False
                        break
                    allowed_last.append(rels)
                if not ok:
                    continue
                node_events = node_events_prev + (ek,)
                bm = nd_prev.bitmap & db.bitmaps[ek]
                if cfg.prune_apriori:
                    supp = int(bm.sum())
                    if supp < ms:
                        continue
                    if supp / max(supports[e] for e in node_events) < cfg.delta:
                        continue
                stats["enumerated_nodes"] += 1
                by_tuple, cand_embs = extend_embeddings(
                    embs, ek, db.sequences, allowed_last, epsilon, d_o, t_max
                )
                # sigma/delta filter on the node's tuples
                max_ev = max(supports[e] for e in node_events)
                kept_tuples = {
                    t: len(s)
                    for t, s in by_tuple.items()
                    if len(s) >= ms and len(s) / max_ev >= cfg.delta
                }
                if not kept_tuples:
                    continue
                level_k[node_events] = _Node(node_events, bm, kept_tuples)
                new_embs_by_node[node_events] = [
                    e for e in cand_embs if e[3] in kept_tuples
                ]
        result.node_counts[k] = len(level_k)
        result.pattern_counts[k] = sum(
            len(nd.patterns) for nd in level_k.values()
        )
        for node_events, nd in level_k.items():
            for t, supp in nd.patterns.items():
                result.patterns[(node_events, t)] = supp
        prev = level_k
        prev_embs = new_embs_by_node
        k += 1


def mine_variant(db: SequenceDatabase, cfg: MiningConfig, variant: str) -> MiningResult:
    """Run one of the paper's pruning ablation variants.

    ``variant`` ∈ {"noprune", "apriori", "trans", "all"} — the four
    configurations of the Figs. 6–7 ablation.
    """
    flags = {
        "noprune": (False, False),
        "apriori": (True, False),
        "trans": (False, True),
        "all": (True, True),
    }[variant]
    cfg2 = MiningConfig(
        sigma=cfg.sigma,
        delta=cfg.delta,
        epsilon=cfg.epsilon,
        d_o=cfg.d_o,
        t_max=cfg.t_max,
        max_k=cfg.max_k,
        prune_apriori=flags[0],
        prune_trans=flags[1],
    )
    return mine(db, cfg2)

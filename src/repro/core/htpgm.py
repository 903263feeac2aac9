"""E-HTPGM: exact Hierarchical Temporal Pattern Graph Mining (paper §IV).

:func:`mine_levels` is the one level-wise walk of the Hierarchical
Pattern Graph (HPG).  The driver miner (:func:`mine`) and the
distributed miner (:func:`repro.core.distributed.mine_distributed`)
both run it:

* **L1** — frequent single events.
* **L2** — candidates are the ordered event pairs of ``1Freq × 1Freq``
  (self-pairs included), gated by ``edge_filter``.
* **Lk** — candidates extend green ``L_{k-1}`` nodes by one event.  With
  transitivity pruning (Lemmas 4–7) the new event must itself occur in
  a green ``L_{k-1}`` node (``Filtered1Freq``), every pair
  ``(E_i, E_k)`` must be a green L2 node, and the relation between
  ``E_i`` and the new event is restricted to the relations that are
  frequent *and* confident at that L2 node — the iterative verification
  of step 3.2.  Without it every frequent event is tried, unrestricted.
* With Apriori pruning (Lemmas 2/3) a candidate is counted only if the
  support and confidence of its event combination, from the ANDed
  bitmaps, pass (σ, δ).  The gate runs once per level, over every
  candidate the other rules admit, through the database's batched
  :meth:`repro.core.seqdb.SequenceDatabase.group_supports`.
* A node keeps the relation tuples that pass (σ, δ).  Nodes that keep
  none ("brown" nodes) never seed deeper levels — sound by
  pattern-level Apriori (any sub-pattern of a frequent pattern is
  frequent, Defs. 3.12/3.14).

Only support counting differs between the miners, and the loop takes it
as a function.  The driver's is :func:`_count_embeddings`: HPG nodes
store the embeddings of their kept patterns, as Fig. 4's nodes store
instance lists, and each level extends its prefixes' embeddings by one
event with the columnar kernel :func:`repro.core.enumerate.extend`, one
call per level, over the instance table the database built once; the
distributed miner runs the same kernel per partition.  The four
pruning configurations of the Figs. 6–7 ablation map to
``prune_apriori`` / ``prune_trans`` and differ only in the candidates
the loop admits; all four count with the same function and return
identical pattern sets (regression-tested).

Besides the per-level records of :class:`repro.core.model.MiningResult`,
``stats`` holds the run's counters: ``candidates_l2``,
``candidates_k`` and ``enumerated_nodes`` summed over levels,
``seconds_l{k}`` (wall time of level ``k``) for every mined level, and,
from the driver's counting, ``pairs_checked_l{k}`` and
``embeddings_kept_l{k}``.
"""
from __future__ import annotations

import time
from collections.abc import Callable, Collection
from dataclasses import dataclass, replace
from itertools import compress

import numpy as np

from .enumerate import Node, Supports, extend
from .model import EventId, MiningResult, min_support
from .relations import RELATIONS
from .seqdb import SequenceDatabase

#: A candidate node and, per earlier position ``i``, the relations
#: allowed between ``E_i`` and its last event.
Candidate = tuple[Node, list[Collection[str]]]
#: ``count(candidates, keep, stats)``; see :func:`mine_levels`.
Count = Callable[
    [list[Candidate], Callable[[Node, Supports], Supports], dict],
    dict[Node, Supports],
]


@dataclass(frozen=True)
class MiningConfig:
    """Thresholds and relation parameters for one mining run.

    ``sigma``/``delta`` are relative support/confidence thresholds in
    [0, 1].  ``epsilon`` is the relation buffer, ``d_o`` the minimal
    overlap duration, ``t_max`` the maximal pattern span (defaults to
    unbounded, i.e. the sequence length bounds it naturally), ``max_k``
    caps the pattern length.  Out-of-range values raise ``ValueError``.
    """

    sigma: float
    delta: float
    epsilon: int = 0
    d_o: int = 1
    t_max: int | None = None
    max_k: int = 3
    prune_apriori: bool = True
    prune_trans: bool = True

    def __post_init__(self) -> None:
        for name in ("sigma", "delta"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        for name in ("epsilon", "d_o", "t_max"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        if self.max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {self.max_k!r}")


def mine(
    db: SequenceDatabase,
    cfg: MiningConfig,
    *,
    edge_filter=None,
) -> MiningResult:
    """Run (E-)HTPGM on ``db``.

    Every pruning configuration counts support with
    :func:`_count_embeddings`; ``cfg.prune_apriori`` and
    ``cfg.prune_trans`` only change the candidates :func:`mine_levels`
    admits.

    ``edge_filter(ev_i, ev_j) -> bool``, when given, additionally gates
    which L2 event pairs are considered — the hook through which
    A-HTPGM plugs in its correlation graph (paper Alg. 2 lines 9-11).
    """
    return mine_levels(
        db.n_seq,
        db.event_supports(),
        cfg,
        _count_embeddings(db, cfg),
        group_supports=db.group_supports,
        edge_filter=edge_filter,
    )


def mine_levels(
    n: int,
    supports: dict[EventId, int],
    cfg: MiningConfig,
    count: Count,
    *,
    group_supports: Callable[[list[Node]], np.ndarray] | None = None,
    edge_filter: Callable[[EventId, EventId], bool] | None = None,
) -> MiningResult:
    """The level-wise HPG walk over ``n`` sequences with event ``supports``.

    ``count(candidates, keep, stats)`` counts, for every candidate
    ``(node, allowed_last)``, the sequences supporting each relation
    tuple of ``node`` whose last event relates to position ``i`` by a
    relation in ``allowed_last[i]``.  It returns the green nodes, those
    where ``keep(node, tuple_supports)`` (the σ/δ filter) is non-empty,
    mapped to that result, and may add counters of its own to ``stats``;
    the loop records each level's wall time as ``seconds_l{k}``.
    ``group_supports(nodes)``, when given, is the number of sequences
    holding every event of each node, as an array; with
    ``cfg.prune_apriori`` it gates the candidates by Lemmas 2/3, one
    call per level over the candidates the other rules admit.
    ``edge_filter`` gates the L2 pairs, as in :func:`mine`.
    """
    ms = min_support(cfg.sigma, n)
    one_freq = {e: s for e, s in supports.items() if s >= ms}
    result = MiningResult(
        n_sequences=n, frequent_events=dict(one_freq), patterns={}
    )
    stats = result.stats = dict.fromkeys(
        ("candidates_l2", "candidates_k", "enumerated_nodes"), 0
    )
    result.node_counts[1] = result.pattern_counts[1] = len(one_freq)

    def frequent(node: Node, supp: int) -> bool:
        return supp >= ms and supp / max(one_freq[e] for e in node) >= cfg.delta

    def keep(node: Node, tuples: Supports) -> Supports:
        return {t: s for t, s in tuples.items() if frequent(node, s)}

    events1 = sorted(one_freq)
    level: dict[Node, Supports] = {(e,): {} for e in events1}
    allowed: dict[Node, frozenset[str]] = {}
    for k in range(2, cfg.max_k + 1):
        if not level:
            break
        t0 = time.perf_counter()
        new = sorted({e for node in level for e in node}) if cfg.prune_trans else events1
        stats["candidates_l2" if k == 2 else "candidates_k"] += len(level) * len(new)
        candidates: list[Candidate] = []
        for prefix in level:
            for ek in new:
                node = prefix + (ek,)
                if k == 2:
                    if edge_filter is not None and not edge_filter(*node):
                        continue
                    allowed_last = [RELATIONS]
                elif cfg.prune_trans:
                    allowed_last = [allowed.get((ei, ek)) for ei in prefix]
                    if None in allowed_last:
                        continue  # some (E_i, E_k) is not a green L2 node
                else:
                    allowed_last = [RELATIONS] * len(prefix)
                candidates.append((node, allowed_last))
        if cfg.prune_apriori and group_supports is not None and candidates:
            # Lemmas 2/3: the event combination's support and confidence
            # pass (σ, δ), for the whole level at once
            nodes = [node for node, _ in candidates]
            supp = group_supports(nodes)
            top = np.array([max(one_freq[e] for e in node) for node in nodes])
            passed = (supp >= ms) & (supp / top >= cfg.delta)
            candidates = list(compress(candidates, passed.tolist()))
        stats["enumerated_nodes"] += len(candidates)
        level = count(candidates, keep, stats)
        result.node_counts[k] = len(level)
        result.pattern_counts[k] = sum(len(p) for p in level.values())
        for node, pats in level.items():
            for t, s in pats.items():
                result.patterns[(node, t)] = s
        if k == 2:
            allowed = {
                pair: frozenset(t[0] for t in pats) for pair, pats in level.items()
            }
        stats[f"seconds_l{k}"] = time.perf_counter() - t0
    return result


def _count_embeddings(db: SequenceDatabase, cfg: MiningConfig) -> Count:
    """E-HTPGM's counting: extend the embeddings the HPG nodes store.

    A candidate extends the embeddings of its prefix node by its last
    event (L2 extends the one-instance embeddings), checking only the
    new relations; :func:`repro.core.enumerate.extend` does a whole
    level in one columnar call.  A green node stores the embeddings
    that realize its kept tuples — sound by pattern-level Apriori: a
    frequent, confident k-pattern's (k-1)-prefix has no less support
    and no larger maximal event support, so it is kept too.  This needs
    no transitivity pruning, so all four pruning configurations count
    here; with it (Lemma 6) the new relations are also restricted to
    the green L2 ones.  The last level (``cfg.max_k``) stores none, as
    no level extends it.  Records ``pairs_checked_l{k}`` and
    ``embeddings_kept_l{k}`` in ``stats`` for every counted level, 0 for
    a level without candidates.
    """
    table = db.table
    embs = table.singletons()

    def count(candidates, keep, stats):
        nonlocal embs
        k = len(embs.start) + 1  # embs holds the (k-1)-event embeddings
        last = k == cfg.max_k
        ext = extend(
            table,
            embs,
            candidates,
            epsilon=cfg.epsilon,
            d_o=cfg.d_o,
            t_max=cfg.t_max,
            keep=None if last else keep,
        )
        level = {}
        for (node, _), tuples in zip(candidates, ext.supports):
            pats = keep(node, tuples) if last else tuples
            if pats:
                level[node] = pats
        stats[f"pairs_checked_l{k}"] = ext.pairs_checked
        stats[f"embeddings_kept_l{k}"] = (
            0 if ext.embeddings is None else len(ext.embeddings)
        )
        embs = ext.embeddings
        return level

    return count


def mine_variant(db: SequenceDatabase, cfg: MiningConfig, variant: str) -> MiningResult:
    """Run one of the paper's pruning ablation variants.

    ``variant`` ∈ {"noprune", "apriori", "trans", "all"} — the four
    configurations of the Figs. 6–7 ablation.
    """
    apriori, trans = {
        "noprune": (False, False),
        "apriori": (True, False),
        "trans": (False, True),
        "all": (True, True),
    }[variant]
    return mine(db, replace(cfg, prune_apriori=apriori, prune_trans=trans))

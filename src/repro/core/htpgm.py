"""E-HTPGM: exact Hierarchical Temporal Pattern Graph Mining (paper §IV).

:func:`mine_levels` is the one level-wise walk of the Hierarchical
Pattern Graph (HPG).  The driver miner (:func:`mine`) and the
distributed miner (:func:`repro.core.distributed.mine_distributed`)
both run it:

* **L1** — frequent single events.
* **L2** — candidates are the ordered event pairs of ``1Freq × 1Freq``
  (self-pairs included), gated by ``edge_mask``.
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
* With both prunings (the ``all`` configuration), the driver miner's
  count extends that bound to the nodes' embeddings: a level-k
  candidate (k >= 3) is counted only if the sequences holding
  embeddings of its prefix node and of every green L2 node
  ``(E_i, E_k)`` pass (σ, δ) (the pair bound of
  :func:`_count_embeddings`).
* A node keeps the relation tuples that pass (σ, δ).  Nodes that keep
  none ("brown" nodes) never seed deeper levels — sound by
  pattern-level Apriori (any sub-pattern of a frequent pattern is
  frequent, Defs. 3.12/3.14).

A level's candidates are arrays, not Python tuples: per candidate its
prefix node, its events as ranks and, per earlier position, a bitmask
of the allowed relations (:class:`repro.core.enumerate.Candidates`).
Transitivity admission gathers those masks from an events × events
bitmask of the green L2 relations, the Lemma 2/3 gate and the σ/δ keep
compare supports with an array of each candidate's largest event
support (:class:`repro.core.enumerate.Keep`), and event names are
attached only to the green nodes' patterns.

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
``seconds_l{k}`` (wall time of level ``k``) and ``enumerated_l{k}``
(its candidates that pass the gate; they sum to ``enumerated_nodes``)
for every mined level, and, from the counting function,
``pairs_checked_l{k}`` and ``embeddings_kept_l{k}``: the driver
miner's records them as it extends, the distributed miner's sums them
over its partitions (see :mod:`repro.core.distributed`).  The driver
miner's also records ``bound_pruned_l{k}`` for every level from 3: the
candidates its pair bound dropped, whose pairs are not checked.
"""
from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .enumerate import ALL_RELATIONS, RELATION_BIT, Candidates, Groups, Keep, extend
from .model import EventId, MiningResult, min_support
from .seqdb import SequenceDatabase, anded_supports

#: ``count(candidates, keep, stats)``; see :func:`mine_levels`.
Count = Callable[[Candidates, Keep, dict], Groups]


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
    edge_mask: np.ndarray | None = None,
) -> MiningResult:
    """Run (E-)HTPGM on ``db``.

    Every pruning configuration counts support with
    :func:`_count_embeddings`; ``cfg.prune_apriori`` and
    ``cfg.prune_trans`` only change the candidates :func:`mine_levels`
    admits.

    ``edge_mask``, when given, additionally gates which L2 event pairs
    are considered: an events × events bool array over ``db.events``,
    true where the pair ``(E_i, E_j)`` may be mined — the hook through
    which A-HTPGM plugs in its correlation graph (paper Alg. 2 lines
    9-11).
    """
    return mine_levels(
        db.n_seq,
        db.event_supports(),
        cfg,
        _count_embeddings(db, cfg),
        group_supports=db.group_supports,
        edge_mask=edge_mask,
    )


def mine_levels(
    n: int,
    supports: dict[EventId, int],
    cfg: MiningConfig,
    count: Count,
    *,
    group_supports: Callable[[np.ndarray], np.ndarray] | None = None,
    edge_mask: np.ndarray | None = None,
) -> MiningResult:
    """The level-wise HPG walk over ``n`` sequences with event ``supports``.

    Events are numbered by rank in sorted order; a counting function's
    instance tables must rank them the same way.
    ``count(candidates, keep, stats)`` counts, for every candidate of
    :class:`repro.core.enumerate.Candidates`, the sequences supporting
    each relation tuple of its node whose last event relates to
    position ``i`` by a relation in its allowed mask.  It returns the
    (candidate, tuple) groups that ``keep`` (the σ/δ filter) keeps, as
    :class:`repro.core.enumerate.Groups`, and may add counters of its
    own to ``stats``.  A candidate's prefix is a node of the previous
    level, named by its candidate index there; an L1 node is named by
    its event.  The loop records each level's wall time as
    ``seconds_l{k}`` and its gated candidates as ``enumerated_l{k}``.
    ``group_supports(nodes)``, when given, is the number of sequences
    holding every event of each row of an (n, k) array of events; with
    ``cfg.prune_apriori`` it gates the candidates by Lemmas 2/3, one
    call per level over the candidates the other rules admit.
    ``edge_mask``, indexed by event rank, gates the L2 pairs, as in
    :func:`mine`.
    """
    events = sorted(supports)
    esupp = np.array([supports[e] for e in events], dtype=np.int64)
    ms = min_support(cfg.sigma, n)
    freq = np.flatnonzero(esupp >= ms)
    result = MiningResult(
        n_sequences=n,
        frequent_events={events[e]: int(esupp[e]) for e in freq.tolist()},
        patterns={},
    )
    stats = result.stats = dict.fromkeys(
        ("candidates_l2", "candidates_k", "enumerated_nodes"), 0
    )
    result.node_counts[1] = result.pattern_counts[1] = len(freq)

    # The green nodes of the level: their events, their names in the
    # count and their largest event support.
    nodes, ids, top = freq[:, None], freq, esupp[freq]
    # Bit r of green[E_i, E_j]: relation r is kept at L2 node (E_i, E_j).
    green = np.zeros((len(events), len(events)), dtype=np.int64)
    for k in range(2, cfg.max_k + 1):
        if not len(nodes):
            break
        t0 = time.perf_counter()
        new = np.unique(nodes) if cfg.prune_trans else freq
        stats["candidates_l2" if k == 2 else "candidates_k"] += len(nodes) * len(new)
        if k > 2 and cfg.prune_trans:
            # Every (E_i, E_k) must be a green L2 node, and E_i relates
            # to E_k by one of its green relations (Lemmas 4-7).
            allowed = green[nodes[:, :, None], new]
        else:
            allowed = np.full((len(nodes), k - 1, len(new)), ALL_RELATIONS)
        admit = (allowed != 0).all(axis=1)
        if k == 2 and edge_mask is not None:
            admit &= edge_mask[nodes[:, :1], new]
        p, j = np.nonzero(admit)
        cands = Candidates(ids[p], np.column_stack((nodes[p], new[j])), allowed[p, :, j])
        keep = Keep(ms, cfg.delta, np.maximum(top[p], esupp[new[j]]))
        if cfg.prune_apriori and group_supports is not None and len(p):
            # Lemmas 2/3: the event combination's support and confidence
            # pass (σ, δ), for the whole level at once
            passed = keep.mask(np.arange(len(p)), group_supports(cands.nodes))
            cands, keep = cands.take(passed), keep._replace(top=keep.top[passed])
        stats[f"enumerated_l{k}"] = len(cands.prefix)
        stats["enumerated_nodes"] += len(cands.prefix)
        groups = count(cands, keep, stats)
        ids = np.unique(groups.cand)
        names = {
            c: tuple(events[e] for e in node)
            for c, node in zip(ids.tolist(), cands.nodes[ids].tolist())
        }
        for c, t, s in zip(groups.cand.tolist(), groups.tuples, groups.supp.tolist()):
            result.patterns[(names[c], t)] = s
        result.node_counts[k] = len(ids)
        result.pattern_counts[k] = len(groups.tuples)
        if k == 2:
            bits = np.array([RELATION_BIT[r] for (r,) in groups.tuples], dtype=np.int64)
            np.bitwise_or.at(green, tuple(cands.nodes[groups.cand].T), bits)
        nodes, top = cands.nodes[ids], keep.top[ids]
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
    no level extends it.

    With both prunings on, a level-k candidate (k >= 3) is counted only
    if its *pair bound* passes (σ, δ): the sequences in the AND of its
    prefix node's bitmap and the bitmap of every green L2 node
    ``(E_i, E_k)``, a node's bitmap marking the sequences of its stored
    embeddings.  Every extension the count would keep realizes a kept
    tuple of each ``(E_i, E_k)``: its relation to ``E_i`` is a green one,
    its instances are in chronological order and its span from ``E_i``
    is within the span from the first instance, so ``t_max`` holds too.

    Records ``pairs_checked_l{k}`` and ``embeddings_kept_l{k}`` in
    ``stats`` for every counted level, 0 for a level without
    candidates, and ``bound_pruned_l{k}``, the candidates the pair bound
    dropped, for every level from 3 (0 unless both prunings are on).
    """
    table = db.table
    embs = table.singletons()
    bound = cfg.prune_apriori and cfg.prune_trans
    # The bitmaps of the L2 nodes, and each event pair's row among them.
    pair_bits = pair_row = None

    def count(cands, keep, stats):
        nonlocal embs, pair_bits, pair_row
        n_cand, k = cands.nodes.shape
        passed = None
        if bound and k > 2:
            prefix_bits = embs.node_bitmaps(table.n_seq)
            pairs = pair_row[cands.nodes[:, :-1], cands.nodes[:, -1:]]
            supp = anded_supports(
                np.vstack((prefix_bits, pair_bits)),
                np.column_stack((cands.prefix, pairs + len(prefix_bits))),
            )
            passed = np.flatnonzero(keep.mask(np.arange(n_cand), supp))
            cands, keep = cands.take(passed), keep._replace(top=keep.top[passed])
        if k > 2:
            stats[f"bound_pruned_l{k}"] = n_cand - len(cands.prefix)
        ext = extend(
            table,
            embs,
            cands,
            keep=keep,
            store=k < cfg.max_k,
            epsilon=cfg.epsilon,
            d_o=cfg.d_o,
            t_max=cfg.t_max,
        )
        groups, embs = ext.groups, ext.embeddings
        stats[f"pairs_checked_l{k}"] = ext.pairs_checked
        stats[f"embeddings_kept_l{k}"] = 0 if embs is None else len(embs)
        if bound and k == 2 and embs is not None:
            pair_bits = embs.node_bitmaps(table.n_seq)
            pair_row = np.zeros((len(table.events),) * 2, dtype=np.int64)
            pair_row[tuple(cands.nodes.T)] = np.arange(n_cand)
        if passed is not None:
            # Name groups and nodes by the level's candidate indices.
            groups = groups._replace(cand=passed[groups.cand])
            if embs is not None:
                sizes = np.zeros(n_cand, dtype=np.int64)
                sizes[passed] = embs.hi - embs.lo
                spans = np.append(0, np.cumsum(sizes))
                embs = replace(embs, lo=spans[:-1], hi=spans[1:])
        return groups

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

"""Embedding enumeration shared by every miner in this repo.

Given one temporal sequence (its instances grouped per event) and an
ordered event tuple ``node = (E_1, …, E_k)``, an *embedding* is a
choice of one instance per event, strictly increasing in chronological
order; the relation tuples those embeddings realize are the node's
patterns in that sequence.  Two steps enumerate them, both with the
decision tree of :func:`repro.core.relations.relation`:

* :func:`extend` extends the embeddings of a whole HPG level by one
  event, columnar and in one call per level — the level step of
  E-HTPGM and of the distributed miner;
* :func:`enumerate_pattern_tuples` enumerates a whole node in one
  sequence from scratch, depth first — the IEMiner and TPMiner
  baselines, and the tests' reference for :func:`extend`.

Chronological order (paper Def. 3.9 orders instances by start time) is
made total and deterministic with the key ``(start, -end, event_id)``:

* ties on start are broken by *end descending*, so an instance that
  contains an equal-start instance precedes it (otherwise equal-start
  Contain patterns would be unreachable);
* remaining ties (identical intervals) are broken by event id.

**Columnar layout.**  An :class:`InstanceTable` holds the instances of
a set of sequences in CSR form: sorted ``start``/``end`` arrays grouped
by event rank and sequence, with one offset per non-empty
``(event, sequence)`` slot.  Event ranks follow sorted event ids, so
comparing ranks in the order key compares ids.  A
:class:`repro.core.seqdb.SequenceDatabase` builds its table once from
the D_SEQ columns; A-HTPGM narrows it to the correlated events with
:meth:`InstanceTable.restrict`, a row mask on event rank.  A level's
embeddings are an :class:`Embeddings`: per row a sequence, the start
and end of each of its ``k`` instances, and one integer code naming
its relation tuple; each node owns a contiguous row range.
"""
from __future__ import annotations

from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import EventId, Instance
from .relations import RELATIONS, relation, relation_codes

Node = tuple[EventId, ...]
#: Relation tuple -> support of one node.
Supports = dict[tuple[str, ...], int]


def enumerate_pattern_tuples(
    instances: dict[EventId, list[Instance]],
    node: tuple[EventId, ...],
    *,
    epsilon: int = 0,
    d_o: int = 1,
    t_max: int | None = None,
) -> set[tuple[str, ...]]:
    """Distinct relation tuples realized by ``node`` in one sequence.

    ``instances`` maps event id -> list of ``(start, end)`` instances of
    that event within the sequence (any order).  ``t_max`` bounds the
    span from the first instance's start to the last instance's end
    (paper's maximal-duration constraint).

    Embeddings in which some pair of instances has no relation (e.g.
    equal starts with the earlier-ordered instance strictly shorter)
    are discarded: a pattern requires a relation for every pair.
    """
    k = len(node)
    per_pos: list[list[Instance]] = []
    for ev in node:
        insts = instances.get(ev)
        if not insts:
            return set()
        per_pos.append(sorted(insts, key=lambda it: (it[0], -it[1])))

    results: set[tuple[str, ...]] = set()
    if k == 1:
        # Single events carry no relations; presence is the pattern.
        results.add(())
        return results
    if k == 2:
        return _pair_tuples(
            per_pos[0], per_pos[1], node[0], node[1], epsilon, d_o, t_max
        )

    # DFS state: chosen instances, their order keys, accumulated relations.
    chosen: list[Instance] = []
    keys: list[tuple[int, int, EventId]] = []
    rels: list[str] = []

    def rec(pos: int) -> None:
        if pos == k:
            results.add(tuple(rels))
            return
        ev = node[pos]
        prev_key = keys[-1] if keys else None
        first_start = chosen[0][0] if chosen else None
        for inst in per_pos[pos]:
            key = (inst[0], -inst[1], ev)
            if prev_key is not None and key <= prev_key:
                continue  # enforce strict chronological order
            if (
                t_max is not None
                and first_start is not None
                and inst[1] - first_start > t_max
            ):
                continue
            new_rels = []
            ok = True
            for i in range(pos):
                r = relation(
                    chosen[i][0], chosen[i][1], inst[0], inst[1], epsilon, d_o
                )
                if r is None:
                    ok = False
                    break
                new_rels.append(r)
            if not ok:
                continue
            chosen.append(inst)
            keys.append(key)
            rels.extend(new_rels)
            rec(pos + 1)
            del rels[len(rels) - pos :]
            keys.pop()
            chosen.pop()

    rec(0)
    return results


@dataclass(frozen=True)
class Embeddings:
    """The embeddings of one HPG level, one row each.

    Row ``r`` lies in sequence ``seq[r]`` and places its ``i``-th
    instance at ``start[i, r]``/``end[i, r]`` (shape ``(k, n)``, so a
    position is one contiguous array); ``tuples[code[r]]`` is the
    relation tuple it realizes.  Node ``node`` owns rows
    ``rows[node][0]:rows[node][1]``, sorted by sequence.
    """

    seq: np.ndarray
    start: np.ndarray
    end: np.ndarray
    code: np.ndarray
    tuples: list[tuple[str, ...]]
    rows: dict[Node, tuple[int, int]]

    def __len__(self) -> int:
        return len(self.seq)


@dataclass(frozen=True)
class InstanceTable:
    """The instances of a set of sequences in CSR form.

    Instances are sorted by ``(event rank, sequence, start, -end)``;
    ``events[rank]`` is the event id of a rank, in sorted order, and
    sequences are numbered ``0 .. n_seq - 1`` in the order of their ids.
    The ``j``-th non-empty ``(event, sequence)`` slot has key
    ``slots[j] = rank * n_seq + sequence`` and holds instances
    ``offsets[j]:offsets[j + 1]``.
    """

    events: list[EventId]
    n_seq: int
    seq: np.ndarray
    start: np.ndarray
    end: np.ndarray
    slots: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_columns(
        cls, seq_id, event, start, end, n_seq: int | None = None
    ) -> "InstanceTable":
        """Build from equal-length D_SEQ columns (any order, rows
        already checked).  With ``n_seq`` the sequence ids are
        ``0 .. n_seq - 1`` and kept as they are; without it they need
        not be dense and are numbered in sorted order."""
        if n_seq is None:
            seq_ids, seq = np.unique(np.asarray(seq_id), return_inverse=True)
            n_seq = len(seq_ids)
        else:
            seq = np.asarray(seq_id, dtype=np.int64)
        events, rank = np.unique(np.asarray(event, dtype=object), return_inverse=True)
        start = np.asarray(start, dtype=np.int64)
        end = np.asarray(end, dtype=np.int64)
        key = rank.astype(np.int64) * n_seq + seq
        order = np.lexsort((-end, start, key))
        key = key[order]
        slots, first = np.unique(key, return_index=True)
        return cls(
            events=events.tolist(),
            n_seq=n_seq,
            seq=seq[order],
            start=start[order],
            end=end[order],
            slots=slots,
            offsets=np.append(first, len(key)),
        )

    def restrict(self, events: Collection[EventId]) -> "InstanceTable":
        """The table of the instances of ``events`` alone: a row mask on
        event rank, with the kept ranks renumbered in order.  Equal to
        :meth:`from_columns` over the kept rows, with this ``n_seq``."""
        keep = np.array([ev in events for ev in self.events], dtype=bool)
        slot_rank = self.slots // max(self.n_seq, 1)
        # Moving a slot from rank r to rank r' moves its key by (r' - r) * n_seq.
        shift = (np.cumsum(keep) - 1 - np.arange(len(keep)))[slot_rank] * self.n_seq
        slot_keep = keep[slot_rank]
        sizes = np.diff(self.offsets)
        rows = np.repeat(slot_keep, sizes)
        return InstanceTable(
            events=[ev for ev, k in zip(self.events, keep.tolist()) if k],
            n_seq=self.n_seq,
            seq=self.seq[rows],
            start=self.start[rows],
            end=self.end[rows],
            slots=(self.slots + shift)[slot_keep],
            offsets=np.append(0, np.cumsum(sizes[slot_keep])),
        )

    def supports(self) -> dict[EventId, int]:
        """The number of sequences holding each event."""
        counts = np.bincount(self.slots // self.n_seq, minlength=len(self.events))
        return dict(zip(self.events, counts.tolist()))

    def singletons(self) -> Embeddings:
        """The one-instance embeddings of every event: level 1."""
        bounds = np.searchsorted(
            self.slots, np.arange(len(self.events) + 1) * self.n_seq
        )
        lo, hi = self.offsets[bounds[:-1]], self.offsets[bounds[1:]]
        return Embeddings(
            seq=self.seq,
            start=self.start[None],
            end=self.end[None],
            code=np.zeros(len(self.seq), dtype=np.int64),
            tuples=[()],
            rows={(ev,): (int(a), int(b)) for ev, a, b in zip(self.events, lo, hi)},
        )


class Extension(NamedTuple):
    """The result of :func:`extend` for one level."""

    #: per candidate: relation tuple -> support (after ``keep``)
    supports: list[Supports]
    #: the kept embeddings of the level; ``None`` without ``keep``
    embeddings: Embeddings | None
    #: (prefix embedding, instance of the new event) pairs examined
    pairs_checked: int


#: Prefix rows per batch of candidates.  Bounds the kernel's working
#: memory, which grows with the rows times the new event's instances
#: per sequence, at no measurable cost in speed.
_BATCH_ROWS = 1 << 12
#: Codes above this are renumbered densely before the next ``* 3``.
_CODE_LIMIT = np.iinfo(np.int64).max // 3


def extend(
    table: InstanceTable,
    embs: Embeddings,
    candidates: Sequence[tuple[Node, Sequence[Collection[str]]]],
    *,
    epsilon: int = 0,
    d_o: int = 1,
    t_max: int | None = None,
    keep: Callable[[Node, Supports], Supports] | None = None,
) -> Extension:
    """Extend the embeddings of a level by one event per candidate.

    Every candidate ``(node, allowed_last)`` extends the rows of its
    prefix ``node[:-1]`` in ``embs`` by the instances of ``node[-1]``
    in the same sequence.  An instance extends a row when it strictly
    follows the row's last instance, keeps the span within ``t_max``
    and relates to position ``i`` by a relation in ``allowed_last[i]``.
    Returns, per candidate, the number of sequences supporting each
    relation tuple.  With ``keep(node, supports)`` the supports are
    filtered by it, and the rows realizing a kept tuple become the next
    level's :class:`Embeddings`, in candidate order.

    Extending :meth:`InstanceTable.singletons` gives the 2-event
    embeddings, so the same step builds every level.  The candidates of
    a level are expanded together in array operations, in batches of
    whole candidates with about ``_BATCH_ROWS`` prefix rows each.
    """
    n_cand = len(candidates)
    if n_cand == 0:
        return Extension([], None, 0)
    k = len(candidates[0][0])
    rank = {ev: r for r, ev in enumerate(table.events)}
    lo = np.zeros(n_cand, dtype=np.int64)
    lens = np.zeros(n_cand, dtype=np.int64)
    new_rank = np.zeros(n_cand, dtype=np.int64)
    after_last = np.zeros(n_cand, dtype=bool)
    # Bit r of allowed[c, i]: relation code r may join position i to the
    # new event; bit 3 (no relation) is never set.
    allowed = np.zeros((n_cand, k - 1), dtype=np.int64)
    bits: dict[Collection[str], int] = {}
    for c, (node, allowed_last) in enumerate(candidates):
        r, span = rank.get(node[-1]), embs.rows.get(node[:-1])
        if r is not None and span is not None:
            lo[c], lens[c] = span[0], span[1] - span[0]
            new_rank[c] = r
            after_last[c] = r > rank[node[-2]]
        for i, rels in enumerate(allowed_last):
            if rels not in bits:
                bits[rels] = sum(1 << RELATIONS.index(x) for x in rels)
            allowed[c, i] = bits[rels]
    batch = (np.cumsum(lens) - lens) // _BATCH_ROWS
    bounds = np.flatnonzero(np.diff(batch, prepend=-1, append=batch[-1] + 1))

    supports: list[Supports] = [{} for _ in range(n_cand)]
    pairs_checked = 0
    kept_parts = [(np.zeros(0, np.int64),) * 5]
    kept_tuples: list[tuple[str, ...]] = []
    for c0, c1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        cand = np.repeat(np.arange(c0, c1), lens[c0:c1])
        prow = _concat_ranges(lo[c0:c1], lens[c0:c1])
        n_pairs, (cand, prow, s2, e2, code) = _related_pairs(
            table, embs, cand, prow, new_rank, after_last, allowed, k,
            epsilon, d_o, t_max,
        )
        pairs_checked += n_pairs
        # Supports: distinct sequences per (candidate, tuple) group.
        _, rep, group = np.unique(code, return_index=True, return_inverse=True)
        per_seq = np.unique(group * table.n_seq + embs.seq[prow])
        supp = np.bincount(per_seq // table.n_seq, minlength=len(rep)).tolist()
        # Each group's tuple, decoded from one of its rows.
        new_rels = np.stack(
            [
                relation_codes(
                    embs.start[i, prow[rep]], embs.end[i, prow[rep]],
                    s2[rep], e2[rep], epsilon, d_o,
                )
                for i in range(k - 1)
            ],
            axis=1,
        )
        group_cand = cand[rep].tolist()
        group_tuples = [
            embs.tuples[pc] + tuple(rels)
            for pc, rels in zip(
                embs.code[prow[rep]].tolist(), np.array(RELATIONS)[new_rels].tolist()
            )
        ]
        for c, t, n in zip(group_cand, group_tuples, supp):
            supports[c][t] = n
        if keep is None:
            continue
        for c in range(c0, c1):
            supports[c] = keep(candidates[c][0], supports[c])
        kept = np.array(
            [t in supports[c] for c, t in zip(group_cand, group_tuples)], dtype=bool
        )
        rows = kept[group]
        codes = np.cumsum(kept) - 1 + len(kept_tuples)
        kept_tuples += [t for t, kk in zip(group_tuples, kept.tolist()) if kk]
        kept_parts.append(
            (cand[rows], prow[rows], s2[rows], e2[rows], codes[group[rows]])
        )
    if keep is None:
        return Extension(supports, None, pairs_checked)

    cand, prow, s2, e2, code = (np.concatenate(cols) for cols in zip(*kept_parts))
    del kept_parts
    bounds = np.searchsorted(cand, np.arange(n_cand + 1))
    nxt = Embeddings(
        seq=embs.seq[prow],
        start=np.vstack((embs.start[:, prow], s2)),
        end=np.vstack((embs.end[:, prow], e2)),
        code=code,
        tuples=kept_tuples,
        rows={
            candidates[c][0]: (int(bounds[c]), int(bounds[c + 1]))
            for c in np.flatnonzero(np.diff(bounds)).tolist()
        },
    )
    return Extension(supports, nxt, pairs_checked)


def _related_pairs(
    table, embs, cand, prow, new_rank, after_last, allowed, k, epsilon, d_o, t_max
):
    """Extend prefix rows ``prow`` of candidates ``cand`` by every
    instance of the candidate's new event in the row's sequence, and
    keep the extensions that pass the order key, ``t_max`` and the
    allowed relations.

    Returns the number of extensions examined and, per kept extension,
    its candidate, prefix row, new start and end, and a code that is
    equal for two extensions exactly when their candidate, prefix tuple
    and new relations are.
    """
    slot = new_rank[cand] * table.n_seq + embs.seq[prow]
    j = np.minimum(np.searchsorted(table.slots, slot), len(table.slots) - 1)
    first = table.offsets[j]
    count = np.where(table.slots[j] == slot, table.offsets[j + 1] - first, 0)
    cand, prow = np.repeat(cand, count), np.repeat(prow, count)
    inst = _concat_ranges(first, count)
    # Strict chronological order against the last position, and t_max.
    s2, e2 = table.start[inst], table.end[inst]
    s1, e1 = embs.start[-1, prow], embs.end[-1, prow]
    ok = (s2 > s1) | ((s2 == s1) & ((e2 < e1) | ((e2 == e1) & after_last[cand])))
    if t_max is not None:
        ok &= e2 - embs.start[0, prow] <= t_max
    n_pairs = len(inst)
    del inst, s1, e1
    cand, prow, s2, e2 = cand[ok], prow[ok], s2[ok], e2[ok]
    # Relations to each earlier position, appended to the code in base 3.
    n_tuples = len(embs.tuples)
    code = cand * n_tuples + embs.code[prow]
    bound = len(after_last) * n_tuples
    for i in range(k - 1):
        r = relation_codes(embs.start[i, prow], embs.end[i, prow], s2, e2, epsilon, d_o)
        # r & 3 maps "no relation" (-1) to bit 3, which is never allowed
        ok = ((allowed[cand, i] >> (r & 3)) & 1).astype(bool)
        cand, prow, s2, e2, code, r = cand[ok], prow[ok], s2[ok], e2[ok], code[ok], r[ok]
        if bound > _CODE_LIMIT:
            uniq, code = np.unique(code, return_inverse=True)
            bound = len(uniq)
        code = code * 3 + r
        bound *= 3
    return n_pairs, (cand, prow, s2, e2, code)


def _concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``concatenate([arange(a, a + n) for a, n in zip(starts, lens)])``."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lens, lens)


def _pair_tuples(
    insts1: list[Instance],
    insts2: list[Instance],
    ev1: EventId,
    ev2: EventId,
    epsilon: int,
    d_o: int,
    t_max: int | None,
) -> set[tuple[str, ...]]:
    """Tight 2-event special case of the DFS (hot path of L2 mining).

    Same semantics as the general DFS — strict ``(start, -end, event)``
    ordering — with an early exit once all three relation codes have
    been seen.
    """
    ev_lt = ev1 < ev2
    out: set[tuple[str, ...]] = set()
    for s1, e1 in insts1:
        for s2, e2 in insts2:
            # ordering key comparison (s, -e, ev): first must precede
            if (s1, -e1) > (s2, -e2):
                continue
            if (s1, -e1) == (s2, -e2) and not ev_lt:
                continue
            if t_max is not None and e2 - s1 > t_max:
                continue
            r = relation(s1, e1, s2, e2, epsilon, d_o)
            if r is not None:
                out.add((r,))
                if len(out) == 3:
                    return out
    return out

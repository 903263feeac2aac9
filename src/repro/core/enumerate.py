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
by event rank and sequence, with one offset per ``(event, sequence)``
slot, empty ones included, and one order key per instance, (slot,
start, −end), increasing in table order.  Event ranks follow sorted
event ids, so comparing ranks in the order key compares ids.  A
:class:`repro.core.seqdb.SequenceDatabase` builds its table once from
the D_SEQ columns; A-HTPGM narrows it to the correlated events with
:meth:`InstanceTable.restrict`, a row mask on event rank.  A level's
embeddings are an :class:`Embeddings`: per row a sequence, the start
and end of each of its ``k`` instances, the table row of its last
instance, and one integer code naming its relation tuple; each node
owns a contiguous row range.

**One level step.**  :func:`extend` takes a level's
:class:`Candidates` as arrays (prefix node, event ranks, a bitmask of
allowed relations per position).  For each prefix row, one binary
search in the order keys finds the first instance of the new event
that follows the row's last instance, so only chronologically ordered
extensions are built.  Supports come from one stable sort of the
extensions by (group code, sequence), the σ/δ filter is a
:class:`Keep` of array masks over the group supports and each
candidate's largest event support, and relation tuples are decoded for
the kept groups alone.
"""
from __future__ import annotations

from collections.abc import Collection, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import EventId, Instance
from .relations import RELATIONS, relation, relation_codes



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


#: Bit ``r`` of an allowed-relation mask admits relation code ``r``
#: (the order of :data:`repro.core.relations.RELATIONS`).
RELATION_BIT = {r: 1 << i for i, r in enumerate(RELATIONS)}
#: The mask that admits every relation.
ALL_RELATIONS = sum(RELATION_BIT.values())
_RELATION_ARRAY = np.array(RELATIONS)


@dataclass(frozen=True)
class Embeddings:
    """The embeddings of one HPG level, one row each.

    Row ``r`` lies in sequence ``seq[r]`` and places its ``i``-th
    instance at ``start[i, r]``/``end[i, r]`` (shape ``(k, n)``, so a
    position is one contiguous array); its last instance is row
    ``last[r]`` of the instance table, and ``tuples[code[r]]`` is the
    relation tuple it realizes.  Node ``j`` owns rows ``lo[j]:hi[j]``.
    """

    seq: np.ndarray
    start: np.ndarray
    end: np.ndarray
    last: np.ndarray
    code: np.ndarray
    tuples: list[tuple[str, ...]]
    lo: np.ndarray
    hi: np.ndarray

    def __len__(self) -> int:
        return len(self.seq)

    def node_bitmaps(self, n_seq: int) -> np.ndarray:
        """Row ``j``: the sequences holding an embedding of node ``j``,
        as a bitmap of length ``n_seq`` packed by ``np.packbits``."""
        sizes = self.hi - self.lo
        matrix = np.zeros((len(sizes), n_seq), dtype=bool)
        rows = _concat_ranges(self.lo, sizes)
        matrix[np.repeat(np.arange(len(sizes)), sizes), self.seq[rows]] = True
        return np.packbits(matrix, axis=1)


@dataclass(frozen=True)
class InstanceTable:
    """The instances of a set of sequences in CSR form.

    Instances are sorted by ``(event rank, sequence, start, -end)``;
    ``events[rank]`` is the event id of a rank, in sorted order, and
    sequences are numbered ``0 .. n_seq - 1`` in the order of their ids.
    The ``(event, sequence)`` slot ``rank * n_seq + sequence`` holds
    instances ``offsets[slot]:offsets[slot + 1]``, empty slots included,
    so a slot's instances are two lookups away.  ``key`` is the order
    key of each instance, ``slot * len(start) + pos`` with ``pos`` the
    rank of its ``(start, -end)`` among the distinct pairs of the table:
    increasing in table order, so one binary search finds the instances
    of a slot that follow a given instance.
    """

    events: list[EventId]
    n_seq: int
    seq: np.ndarray
    start: np.ndarray
    end: np.ndarray
    offsets: np.ndarray
    key: np.ndarray

    @classmethod
    def from_columns(
        cls,
        seq_id,
        event,
        start,
        end,
        n_seq: int | None = None,
        events: Sequence[EventId] | None = None,
    ) -> "InstanceTable":
        """Build from equal-length D_SEQ columns (any order, rows
        already checked).  With ``n_seq`` the sequence ids are
        ``0 .. n_seq - 1`` and kept as they are; without it they need
        not be dense and are numbered in sorted order.  With ``events``
        (sorted, holding every event of the rows) the ranks index it,
        events without instances included; without it they index the
        distinct events of the rows."""
        if n_seq is None:
            seq_ids, seq = np.unique(np.asarray(seq_id), return_inverse=True)
            n_seq = len(seq_ids)
        else:
            seq = np.asarray(seq_id, dtype=np.int64)
        event = np.asarray(event, dtype=object)
        if events is None:
            events, rank = np.unique(event, return_inverse=True)
        else:
            rank = np.searchsorted(np.asarray(events, dtype=object), event)
        start = np.asarray(start, dtype=np.int64)
        end = np.asarray(end, dtype=np.int64)
        key = rank.astype(np.int64) * n_seq + seq
        order = np.lexsort((-end, start, key))
        key, start, end = key[order], start[order], end[order]
        sizes = np.bincount(key, minlength=len(events) * n_seq)
        return cls(
            events=list(events),
            n_seq=n_seq,
            seq=seq[order],
            start=start,
            end=end,
            offsets=np.append(0, np.cumsum(sizes)),
            key=key * len(start) + _positions(start, end),
        )

    def restrict(self, events: Collection[EventId]) -> "InstanceTable":
        """The table of the instances of ``events`` alone: a row mask on
        event rank, with the kept ranks and positions renumbered in
        order.  Equal to :meth:`from_columns` over the kept rows, with
        this ``n_seq``."""
        keep = np.array([ev in events for ev in self.events], dtype=bool)
        sizes = self.slot_sizes()
        rows = np.repeat(keep, sizes.sum(axis=1))
        sizes = sizes[keep].ravel()
        slots = np.repeat(np.arange(len(sizes)), sizes)
        # The kept positions, renumbered densely in order.
        pos = self.key[rows] % max(len(self.start), 1)
        present = np.zeros(len(self.start), dtype=bool)
        present[pos] = True
        pos = (np.cumsum(present) - 1)[pos]
        return InstanceTable(
            events=[ev for ev, k in zip(self.events, keep.tolist()) if k],
            n_seq=self.n_seq,
            seq=self.seq[rows],
            start=self.start[rows],
            end=self.end[rows],
            offsets=np.append(0, np.cumsum(sizes)),
            key=slots * len(pos) + pos,
        )

    def slot_sizes(self) -> np.ndarray:
        """The instances of each (event rank, sequence) slot, as an
        events × sequences array."""
        return np.diff(self.offsets).reshape(len(self.events), self.n_seq)

    def supports(self) -> dict[EventId, int]:
        """The number of sequences holding each event."""
        counts = (self.slot_sizes() > 0).sum(axis=1)
        return dict(zip(self.events, counts.tolist()))

    def singletons(self) -> Embeddings:
        """The one-instance embeddings of every event: level 1, whose
        node ``r`` is the event of rank ``r``."""
        offsets = self.offsets[np.arange(len(self.events) + 1) * self.n_seq]
        return Embeddings(
            seq=self.seq,
            start=self.start[None],
            end=self.end[None],
            last=np.arange(len(self.seq)),
            code=np.zeros(len(self.seq), dtype=np.int64),
            tuples=[()],
            lo=offsets[:-1],
            hi=offsets[1:],
        )


def _positions(start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per instance, the rank of its ``(start, -end)`` among the
    distinct pairs."""
    order = np.lexsort((-end, start))
    s, e = start[order], end[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (s[1:] != s[:-1]) | (e[1:] != e[:-1])
    pos = np.empty(len(order), dtype=np.int64)
    pos[order] = np.cumsum(new) - 1
    return pos


class Candidates(NamedTuple):
    """The candidates of one level, as arrays.

    Candidate ``c`` is the node of event ranks ``nodes[c]`` (shape
    ``(n, k)``).  It extends the embeddings of node ``prefix[c]`` of the
    previous level by an instance of event ``nodes[c, -1]`` whose
    relation to position ``i`` is one of the bits of ``allowed[c, i]``
    (see :data:`RELATION_BIT`).
    """

    prefix: np.ndarray
    nodes: np.ndarray
    allowed: np.ndarray

    def take(self, idx) -> "Candidates":
        """The candidates selected by an index or mask."""
        return Candidates(*(a[idx] for a in self))


class Keep(NamedTuple):
    """The σ/δ filter of a level, as arrays: a relation tuple of
    candidate ``c`` supported by ``supp`` sequences is kept when
    ``supp >= min_support`` and ``supp / top[c] >= delta``, where
    ``top[c]`` is the largest support of an event of the candidate
    (paper Defs. 3.12/3.14)."""

    min_support: int
    delta: float
    top: np.ndarray

    def mask(self, cand: np.ndarray, supp: np.ndarray) -> np.ndarray:
        """Per group: is ``supp`` of candidate ``cand`` kept?"""
        return (supp >= self.min_support) & (supp / self.top[cand] >= self.delta)


class Groups(NamedTuple):
    """Counted (candidate, relation tuple) groups, sorted by candidate:
    group ``g`` is tuple ``tuples[g]`` of candidate ``cand[g]``,
    supported by ``supp[g]`` sequences and realized by ``rows[g]``
    embeddings."""

    cand: np.ndarray
    tuples: list[tuple[str, ...]]
    supp: np.ndarray
    rows: np.ndarray


class Extension(NamedTuple):
    """The result of :func:`extend` for one level."""

    #: the kept groups
    groups: Groups
    #: the embeddings of the kept groups, one node per candidate;
    #: ``None`` unless stored
    embeddings: Embeddings | None
    #: (prefix embedding, instance of the new event in its sequence)
    #: pairs, before the order key bounds them
    pairs_checked: int


#: Prefix rows per batch of candidates.  Bounds the kernel's working
#: memory, which grows with the rows times the new event's instances
#: per sequence, at no measurable cost in speed.
_BATCH_ROWS = 1 << 12
_INT64_MAX = np.iinfo(np.int64).max


def extend(
    table: InstanceTable,
    embs: Embeddings,
    cands: Candidates,
    *,
    keep: Keep | None = None,
    store: bool = False,
    epsilon: int = 0,
    d_o: int = 1,
    t_max: int | None = None,
) -> Extension:
    """Extend the embeddings of a level by one event per candidate.

    Every candidate extends the rows of its prefix node in ``embs`` by
    the instances of its new event in the same sequence.  An instance
    extends a row when it follows the row's last instance in the order
    key, keeps the span within ``t_max`` and relates to each position
    by an allowed relation.  Returns the number of sequences supporting
    each (candidate, relation tuple) group that ``keep`` keeps (every
    group without it).  With ``store`` the rows of the kept groups
    become the next level's :class:`Embeddings`, one node per candidate.

    Extending :meth:`InstanceTable.singletons` gives the 2-event
    embeddings, so the same step builds every level.  The candidates of
    a level are expanded together in array operations, in batches of
    whole candidates with about ``_BATCH_ROWS`` prefix rows each.
    """
    n_cand, k = cands.nodes.shape
    if n_cand == 0:
        empty = np.zeros(0, np.int64)
        return Extension(Groups(empty, [], empty, empty), None, 0)
    lo = embs.lo[cands.prefix]
    lens = embs.hi[cands.prefix] - lo
    # Equal (start, -end) orders by event rank: the new instance must
    # strictly follow the last unless its event's rank is higher.
    strict = cands.nodes[:, -1] <= cands.nodes[:, -2]
    batch = (np.cumsum(lens) - lens) // _BATCH_ROWS
    bounds = np.flatnonzero(np.diff(batch, prepend=-1, append=batch[-1] + 1))
    n_seq = max(table.n_seq, 1)

    pairs_checked = 0
    kept_cand, kept_supp, kept_rows, kept_tuples = [], [], [], []
    kept_parts = [(np.zeros(0, np.int64),) * 4]
    for c0, c1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        cand = np.repeat(np.arange(c0, c1), lens[c0:c1])
        prow = _concat_ranges(lo[c0:c1], lens[c0:c1])
        n_pairs, (cand, prow, inst, code) = _related_pairs(
            table, embs, cands, cand, prow, strict, k, epsilon, d_o, t_max
        )
        pairs_checked += n_pairs
        if not len(code):
            continue
        # Supports, from one sort by (code, sequence): a group is a run
        # of one code, and its support the sequences that start in it.
        # Stable: the rows arrive sorted by (candidate, prefix tuple,
        # sequence), a head start that a stable sort exploits.
        order = np.argsort(code * n_seq + embs.seq[prow], kind="stable")
        sorted_code, sorted_seq = code[order], embs.seq[prow[order]]
        new_group = np.ones(len(order), dtype=bool)
        new_group[1:] = sorted_code[1:] != sorted_code[:-1]
        new_seq = new_group.copy()
        new_seq[1:] |= sorted_seq[1:] != sorted_seq[:-1]
        starts = np.flatnonzero(new_group)
        supp = np.add.reduceat(new_seq, starts, dtype=np.int64)
        group_rows = np.diff(starts, append=len(order))
        rep = order[starts]
        group_cand = cand[rep]
        kept = (
            np.ones(len(rep), dtype=bool)
            if keep is None
            else keep.mask(group_cand, supp)
        )
        kept_cand.append(group_cand[kept])
        kept_supp.append(supp[kept])
        kept_rows.append(group_rows[kept])
        n_before = len(kept_tuples)
        krep = rep[kept]
        kept_tuples += _decode(table, embs, prow[krep], inst[krep], k, epsilon, d_o)
        if store:
            group = np.cumsum(new_group) - 1
            rows = kept[group]
            codes = (np.cumsum(kept) - 1 + n_before)[group[rows]]
            sel = order[rows]
            kept_parts.append((cand[sel], prow[sel], inst[sel], codes))
    groups = Groups(
        np.concatenate(kept_cand or [np.zeros(0, np.int64)]),
        kept_tuples,
        np.concatenate(kept_supp or [np.zeros(0, np.int64)]),
        np.concatenate(kept_rows or [np.zeros(0, np.int64)]),
    )
    if not store:
        return Extension(groups, None, pairs_checked)

    # Rows sorted by code are sorted by candidate, the code's major part.
    cand, prow, inst, code = (np.concatenate(cols) for cols in zip(*kept_parts))
    del kept_parts
    spans = np.searchsorted(cand, np.arange(n_cand + 1))
    nxt = Embeddings(
        seq=embs.seq[prow],
        start=np.vstack((embs.start[:, prow], table.start[inst])),
        end=np.vstack((embs.end[:, prow], table.end[inst])),
        last=inst,
        code=code,
        tuples=kept_tuples,
        lo=spans[:-1],
        hi=spans[1:],
    )
    return Extension(groups, nxt, pairs_checked)


def _related_pairs(table, embs, cands, cand, prow, strict, k, epsilon, d_o, t_max):
    """Extend prefix rows ``prow`` of candidates ``cand`` by the
    instances of the candidate's new event in the row's sequence that
    follow the row's last instance in the order key, and keep the
    extensions within ``t_max`` whose relation to every earlier
    position is allowed.

    Returns the number of (row, instance) pairs in the rows' slots and,
    per kept extension, its candidate, prefix row, new instance, and a
    code that is equal for two extensions exactly when their candidate,
    prefix tuple and new relations are; a code times ``n_seq`` fits in
    an int64.
    """
    slot = cands.nodes[:, -1][cand] * table.n_seq + embs.seq[prow]
    end = table.offsets[slot + 1]
    n_pairs = int((end - table.offsets[slot]).sum())
    # The first instance of the slot whose (start, -end) is not before
    # the last instance's (after it, when ``strict``): the probe lies
    # among the slot's keys, so the search lands inside the slot.
    base = len(table.start)
    probe = slot * base + table.key[embs.last[prow]] % base + strict[cand]
    count = end - np.searchsorted(table.key, probe)
    cand, prow = np.repeat(cand, count), np.repeat(prow, count)
    inst = _concat_ranges(end - count, count)
    del slot, end, probe, count
    s2, e2 = table.start[inst], table.end[inst]
    if t_max is not None:
        ok = e2 - embs.start[0, prow] <= t_max
        cand, prow, inst, s2, e2 = cand[ok], prow[ok], inst[ok], s2[ok], e2[ok]
    # The relation to each earlier position; an extension is kept when
    # every one is allowed (r & 3 maps "no relation", -1, to bit 3,
    # which is never allowed).  One compaction, as few rows fail.
    rels = [
        relation_codes(embs.start[i, prow], embs.end[i, prow], s2, e2, epsilon, d_o)
        for i in range(k - 1)
    ]
    ok = np.ones(len(inst), dtype=bool)
    for i, r in enumerate(rels):
        allowed = cands.allowed[:, i].astype(np.int8)[cand]
        ok &= ((allowed >> (r & 3)) & 1).view(bool)
    cand, prow, inst = cand[ok], prow[ok], inst[ok]
    # The relations, appended to the code in base 3.
    n_tuples = len(embs.tuples)
    code = cand * n_tuples + embs.code[prow]
    bound = len(cands.prefix) * n_tuples
    limit = _INT64_MAX // (3 * max(table.n_seq, 1))
    for r in rels:
        if bound > limit:
            uniq, code = np.unique(code, return_inverse=True)
            bound = len(uniq)
        code = code * 3 + r[ok]
        bound *= 3
    return n_pairs, (cand, prow, inst, code)


def _decode(table, embs, prow, inst, k, epsilon, d_o) -> list[tuple[str, ...]]:
    """The relation tuples of the extensions of rows ``prow`` by
    instances ``inst``: the prefix tuple and the new relations."""
    new_rels = np.stack(
        [
            relation_codes(
                embs.start[i, prow], embs.end[i, prow],
                table.start[inst], table.end[inst], epsilon, d_o,
            )
            for i in range(k - 1)
        ],
        axis=1,
    )
    return [
        embs.tuples[pc] + tuple(rels)
        for pc, rels in zip(embs.code[prow].tolist(), _RELATION_ARRAY[new_rels].tolist())
    ]


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

"""Embedding enumeration shared by every miner in this repo.

Given one temporal sequence (its instances grouped per event) and an
ordered event tuple ``node = (E_1, …, E_k)``, an *embedding* is a
choice of one instance per event, strictly increasing in chronological
order; the relation tuples those embeddings realize are the node's
patterns in that sequence.  Two steps enumerate them, both with the
relations of :func:`repro.core.relations.relation`:

* :func:`extend_embeddings` extends a node's embeddings by one event —
  the level step of E-HTPGM and of the distributed miner;
* :func:`enumerate_pattern_tuples` enumerates a whole node in one
  sequence from scratch — the NoPrune/Apriori ablation and the IEMiner
  and TPMiner baselines.

Chronological order (paper Def. 3.9 orders instances by start time) is
made total and deterministic with the key ``(start, -end, event_id)``:

* ties on start are broken by *end descending*, so an instance that
  contains an equal-start instance precedes it (otherwise equal-start
  Contain patterns would be unreachable);
* remaining ties (identical intervals) are broken by event id.
"""
from __future__ import annotations

from .model import EventId, Instance
from .relations import relation

# An embedding order key; see module docstring.
OrderKey = tuple[int, int, EventId]


def order_key(inst: Instance, event: EventId) -> OrderKey:
    return (inst[0], -inst[1], event)


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
    keys: list[OrderKey] = []
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


#: An embedding: (seq_id, instances, order key of the last, relations).
Embedding = tuple[int, tuple[Instance, ...], OrderKey, tuple[str, ...]]


def seed_embeddings(sequences, ev: EventId) -> list[Embedding]:
    """The one-instance embeddings of ``ev`` in ``(seq_id, sequence)``
    pairs, grouped by sequence: :func:`extend_embeddings` extends them
    into the 2-event embeddings."""
    return [
        (sid, (inst,), order_key(inst, ev), ())
        for sid, seq in sequences
        for inst in seq.get(ev, ())
    ]


def extend_embeddings(
    embs: list[Embedding],
    ev: EventId,
    sequences,
    allowed_last: list[frozenset[str]],
    epsilon: int,
    d_o: int,
    t_max: int | None,
) -> tuple[dict[tuple[str, ...], set[int]], list[Embedding]]:
    """Extend every embedding of a node by one event (the Lk step).

    ``sequences[seq_id]`` maps event -> instances; ``embs`` should
    arrive grouped by sequence, as the instance-list lookup is cached
    across a group.  An instance of ``ev`` extends an
    embedding when it strictly follows the embedding's last instance,
    keeps the span within ``t_max`` and relates to position ``i`` by a
    relation in ``allowed_last[i]``.  Returns the supporting sequence
    ids per relation tuple and the extended embeddings.  Extending
    :func:`seed_embeddings` gives the 2-event embeddings, so the same
    step builds every level.
    """
    by_tuple: dict[tuple[str, ...], set[int]] = {}
    out: list[Embedding] = []
    cur_sid, ev_insts = None, None
    for sid, insts, last_key, rels in embs:
        if sid != cur_sid:
            cur_sid, ev_insts = sid, sequences[sid].get(ev)
        if not ev_insts:
            continue
        first_start = insts[0][0]
        for inst in ev_insts:
            key = (inst[0], -inst[1], ev)
            if key <= last_key:
                continue  # enforce strict chronological order
            if t_max is not None and inst[1] - first_start > t_max:
                continue
            ext = []
            for prev_inst, allow in zip(insts, allowed_last):
                r = relation(
                    prev_inst[0], prev_inst[1], inst[0], inst[1], epsilon, d_o
                )
                if r is None or r not in allow:
                    break
                ext.append(r)
            else:
                new_rels = rels + tuple(ext)
                out.append((sid, insts + (inst,), key, new_rels))
                by_tuple.setdefault(new_rels, set()).add(sid)
    return by_tuple, out


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

"""Embedding enumeration shared by every miner in this repo.

Given one temporal sequence (its instances grouped per event) and an
ordered event tuple ``node = (E_1, …, E_k)``, enumerate every
*embedding* — a choice of one instance per event, strictly increasing
in chronological order — and report the set of relation tuples those
embeddings realize.  All miners (E-HTPGM, A-HTPGM, the distributed
miner, and the three baselines) call into this module, which guarantees
they share identical pattern semantics; the miners differ only in how
they prune the node/candidate space and count supports.

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
    allowed: dict[tuple[int, int], frozenset[str]] | None = None,
) -> set[tuple[str, ...]]:
    """Distinct relation tuples realized by ``node`` in one sequence.

    ``instances`` maps event id -> list of ``(start, end)`` instances of
    that event within the sequence (any order).  ``t_max`` bounds the
    span from the first instance's start to the last instance's end
    (paper's maximal-duration constraint).  ``allowed``, when given,
    restricts the relation permitted between positions ``(i, j)`` — the
    transitivity/confidence pruning of E-HTPGM (sound because every
    pairwise relation of a frequent pattern is itself a frequent,
    confident 2-event pattern; see DESIGN.md §3).

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
    if k == 2 and allowed is None:
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
                if allowed is not None:
                    allow = allowed.get((i, pos))
                    if allow is not None and r not in allow:
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
    ids per relation tuple and the extended embeddings.  Extending the
    one-instance embeddings ``(seq_id, (inst,), key, ())`` gives the
    2-event embeddings, so the same step builds every level.
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
    ordering, relation priority Follow > Contain > Overlap — with an
    early exit once all three relation codes have been seen.
    """
    same = ev1 == ev2
    ev_lt = ev1 < ev2
    out: set[tuple[str, ...]] = set()
    for s1, e1 in insts1:
        f_lo = e1 - epsilon  # follow boundary for this first instance
        for s2, e2 in insts2:
            # ordering key comparison (s, -e, ev): first must precede
            if (s1, -e1) > (s2, -e2):
                continue
            if (s1, -e1) == (s2, -e2) and not (not same and ev_lt):
                continue
            if t_max is not None and e2 - s1 > t_max:
                continue
            if s2 >= f_lo:
                out.add(("F",))
            elif s1 <= s2 and e1 + epsilon >= e2:
                out.add(("C",))
            elif s1 < s2 and e1 + epsilon < e2 and e1 - s2 >= d_o - epsilon:
                out.add(("O",))
            if len(out) == 3:
                return out
    return out


def supports_pattern(
    instances: dict[EventId, list[Instance]],
    node: tuple[EventId, ...],
    rel_tuple: tuple[str, ...],
    *,
    epsilon: int = 0,
    d_o: int = 1,
    t_max: int | None = None,
) -> bool:
    """Whether one sequence supports a specific pattern (node + relations)."""
    return rel_tuple in enumerate_pattern_tuples(
        instances, node, epsilon=epsilon, d_o=d_o, t_max=t_max
    )

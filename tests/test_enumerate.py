"""Tests for the shared embedding enumeration."""
import itertools
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.enumerate import (
    RELATION_BIT,
    Candidates,
    InstanceTable,
    Keep,
    enumerate_pattern_tuples,
    extend,
)
from repro.core.model import min_support
from repro.core.relations import RELATIONS, relation


def E(**kw):
    return {k: v for k, v in kw.items()}


def test_single_event_presence():
    inst = {"A": [(0, 5)]}
    assert enumerate_pattern_tuples(inst, ("A",)) == {()}
    assert enumerate_pattern_tuples(inst, ("B",)) == set()


def test_two_event_follow():
    inst = {"A": [(0, 5)], "B": [(6, 8)]}
    assert enumerate_pattern_tuples(inst, ("A", "B")) == {("F",)}
    # reverse node: B's instance cannot precede A's
    assert enumerate_pattern_tuples(inst, ("B", "A")) == set()


def test_two_event_contain_and_overlap():
    inst = {"A": [(0, 10)], "B": [(2, 8)], "C": [(5, 15)]}
    assert enumerate_pattern_tuples(inst, ("A", "B")) == {("C",)}
    assert enumerate_pattern_tuples(inst, ("A", "C")) == {("O",)}


def test_multiple_instances_yield_multiple_tuples():
    # A contains one B and follows another
    inst = {"A": [(0, 10)], "B": [(2, 8), (12, 14)]}
    assert enumerate_pattern_tuples(inst, ("A", "B")) == {("C",), ("F",)}


def test_self_relation_uses_distinct_instances():
    inst = {"A": [(0, 5), (6, 10)]}
    assert enumerate_pattern_tuples(inst, ("A", "A")) == {("F",)}
    # a single instance cannot pair with itself
    assert enumerate_pattern_tuples({"A": [(0, 5)]}, ("A", "A")) == set()


def test_equal_start_contain_orderable():
    # Equal starts: longer instance precedes (tie-break -end), so the
    # Contain pattern is discoverable in the (long, short) node only.
    inst = {"L": [(0, 10)], "S": [(0, 4)]}
    assert enumerate_pattern_tuples(inst, ("L", "S")) == {("C",)}
    assert enumerate_pattern_tuples(inst, ("S", "L")) == set()


def test_identical_intervals_tiebreak_by_event_id():
    inst = {"A": [(0, 5)], "B": [(0, 5)]}
    assert enumerate_pattern_tuples(inst, ("A", "B")) == {("C",)}
    assert enumerate_pattern_tuples(inst, ("B", "A")) == set()


def test_three_event_pattern_column_major():
    # K contains T; K followed by M; T followed by M
    inst = {"K": [(0, 10)], "T": [(2, 8)], "M": [(12, 15)]}
    got = enumerate_pattern_tuples(inst, ("K", "T", "M"))
    assert got == {("C", "F", "F")}


def test_embedding_requires_all_pairs_related():
    # A and B have equal starts with A shorter -> pair unrelatable,
    # so no 3-event embedding exists even though A-C and B-C relate.
    inst = {"A": [(0, 4)], "B": [(0, 10)], "C": [(20, 25)]}
    assert enumerate_pattern_tuples(inst, ("A", "B", "C")) == set()
    assert enumerate_pattern_tuples(inst, ("B", "A", "C")) == {("C", "F", "F")}


def test_t_max_bounds_span():
    inst = {"A": [(0, 5)], "B": [(50, 55)]}
    assert enumerate_pattern_tuples(inst, ("A", "B"), t_max=100) == {("F",)}
    assert enumerate_pattern_tuples(inst, ("A", "B"), t_max=40) == set()


def test_t_max_measured_to_last_end():
    inst = {"A": [(0, 5)], "B": [(6, 20)]}
    assert enumerate_pattern_tuples(inst, ("A", "B"), t_max=20) == {("F",)}
    assert enumerate_pattern_tuples(inst, ("A", "B"), t_max=19) == set()


def _rows(sequences):
    """The D_SEQ rows of per-sequence ``{event: instances}`` maps."""
    return [
        (sid, ev, s, e)
        for sid, seq in enumerate(sequences)
        for ev, insts in seq.items()
        for s, e in insts
    ]


def _extend_run(sequences, node, allowed=None, store_last=True, **params):
    """Supports of ``node``'s relation tuples in ``sequences``, built by
    :func:`extend` one event at a time, keeping every tuple, and the
    ``pairs_checked`` of each step; ``allowed[(i, j)]`` restricts the
    relation between positions ``i`` and ``j`` (default: any).  The last
    step stores its embeddings only with ``store_last``, as a miner's
    last level does not."""
    allowed = allowed or {}
    rows = _rows(sequences)
    events = sorted(set(node) | {row[1] for row in rows})
    table = InstanceTable.from_columns(
        *([row[i] for row in rows] for i in range(4)),
        n_seq=len(sequences),
        events=events,
    )
    ranks = [events.index(ev) for ev in node]
    embs, prefix, supports, pairs = table.singletons(), ranks[0], {}, []
    for j in range(1, len(node)):
        masks = [
            sum(RELATION_BIT[r] for r in allowed.get((i, j), RELATIONS))
            for i in range(j)
        ]
        cands = Candidates(
            np.array([prefix]), np.array([ranks[: j + 1]]), np.array([masks])
        )
        store = store_last or j < len(node) - 1
        ext = extend(table, embs, cands, store=store, **params)
        embs, prefix = ext.embeddings, 0
        supports = dict(zip(ext.groups.tuples, ext.groups.supp.tolist()))
        pairs.append(ext.pairs_checked)
    return supports, pairs


def _extend_supports(sequences, node, allowed=None, **params):
    return _extend_run(sequences, node, allowed, **params)[0]


def _extend_tuples(inst, node, allowed):
    """Relation tuples of ``node`` in the one sequence ``inst``."""
    return set(_extend_supports([inst], node, allowed))


def test_allowed_restricts_relations():
    inst = {"A": [(0, 10)], "B": [(2, 8), (12, 14)]}
    allowed = {(0, 1): frozenset("F")}
    got = _extend_tuples(inst, ("A", "B"), allowed)
    assert got == {("F",)}


def test_allowed_prunes_branch_but_keeps_others():
    inst = {"A": [(0, 10)], "B": [(2, 8), (12, 14)], "C": [(20, 22)]}
    allowed = {(0, 1): frozenset("C")}
    got = _extend_tuples(inst, ("A", "B", "C"), allowed)
    assert got == {("C", "F", "F")}


def test_epsilon_and_do_are_forwarded():
    inst = {"A": [(0, 6)], "B": [(5, 12)]}
    assert enumerate_pattern_tuples(inst, ("A", "B"), epsilon=0, d_o=1) == {
        ("O",)
    }
    assert enumerate_pattern_tuples(inst, ("A", "B"), epsilon=1, d_o=3) == {
        ("F",)
    }


def test_four_event_enumeration():
    inst = {
        "A": [(0, 20)],
        "B": [(1, 6)],
        "C": [(8, 12)],
        "D": [(25, 30)],
    }
    got = enumerate_pattern_tuples(inst, ("A", "B", "C", "D"))
    # pairs (0,1),(0,2),(1,2),(0,3),(1,3),(2,3)
    assert got == {("C", "C", "F", "F", "F", "F")}


def test_duplicate_event_three_times():
    inst = {"A": [(0, 2), (4, 6), (8, 10)]}
    got = enumerate_pattern_tuples(inst, ("A", "A", "A"))
    assert got == {("F", "F", "F")}


@st.composite
def _sequences(draw):
    """Up to 5 sequences of up to 9 instances of 3 events, with starts
    and lengths from small ranges: equal starts, identical intervals
    (of one event too), absent events and empty sequences are common."""
    return [
        {
            ev: [
                (s, s + draw(st.integers(1, 5)))
                for s in draw(st.lists(st.integers(0, 8), min_size=1, max_size=3))
            ]
            for ev in "ABC"
            if draw(st.booleans())
        }
        for _ in range(draw(st.integers(1, 5)))
    ]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seqs=_sequences(),
    node=st.lists(st.sampled_from("ABC"), min_size=2, max_size=4).map(tuple),
    epsilon=st.sampled_from([0, 1, 2]),
    d_o=st.sampled_from([1, 2, 3]),
    t_max=st.sampled_from([None, 3, 6, 10]),
)
def test_extend_supports_equal_dfs(seqs, node, epsilon, d_o, t_max):
    """With every relation allowed, the kernel's per-tuple supports are
    the depth-first enumeration's tuples counted over sequences, and
    each step's ``pairs_checked`` is the number of (prefix embedding,
    instance of the new event in its sequence) pairs, counted before
    the order key bounds them.  A last step that stores no embeddings
    counts the same."""
    params = {"epsilon": epsilon, "d_o": d_o, "t_max": t_max}
    expected = Counter()
    for inst in seqs:
        expected.update(enumerate_pattern_tuples(inst, node, **params))
    supports, pairs = _extend_run(seqs, node, **params)
    assert _extend_run(seqs, node, store_last=False, **params) == (supports, pairs)
    assert supports == dict(expected)
    assert pairs == [
        sum(
            _count_embeddings(inst, node[:j], **params) * len(inst.get(node[j], []))
            for inst in seqs
        )
        for j in range(1, len(node))
    ]


def _count_embeddings(inst, node, *, epsilon, d_o, t_max):
    """The embeddings of ``node`` in one sequence, by brute force over
    every choice of one instance per event (``t_max`` bounds the span
    to each later instance, as the extension checks it)."""
    n = 0
    for choice in itertools.product(*(inst.get(ev, []) for ev in node)):
        keys = [(s, -e, ev) for (s, e), ev in zip(choice, node)]
        n += (
            all(a < b for a, b in zip(keys, keys[1:]))
            and (t_max is None or all(e - choice[0][0] <= t_max for _, e in choice[1:]))
            and all(
                relation(*choice[i], *choice[j], epsilon, d_o) is not None
                for j in range(len(node))
                for i in range(j)
            )
        )
    return n


#: Sequences where the order key decides which instance may follow
#: which: identical intervals of two events, equal starts with the
#: longer instance first, and duplicate instances of one event.
ORDER_KEY_CASES = {
    "identical intervals": [
        {"A": [(0, 5)], "B": [(0, 5)], "C": [(0, 5), (3, 9)]},
        {"A": [(2, 4), (6, 8)], "B": [(2, 4)], "C": [(6, 8)]},
    ],
    "equal starts": [
        {"A": [(0, 10)], "B": [(0, 4)], "C": [(0, 10), (0, 4), (0, 7)]},
        {"A": [(0, 4), (5, 9)], "B": [(0, 9), (5, 12)], "C": [(5, 9)]},
    ],
    "duplicate instances": [
        {"A": [(0, 5), (0, 5), (2, 3)], "B": [(0, 5)]},
        {"A": [(1, 4), (1, 4), (1, 4)], "B": [(1, 4), (6, 7)]},
    ],
}


@pytest.mark.parametrize("case", sorted(ORDER_KEY_CASES))
@pytest.mark.parametrize("k", [2, 3])
def test_order_key_bound_equals_dfs(case, k):
    """On sequences whose instances tie in start, or in start and end,
    the supports of every 2- and 3-event node, in every rank order and
    with repeated events, are the depth-first enumeration's."""
    seqs = ORDER_KEY_CASES[case]
    for node in itertools.product("ABC", repeat=k):
        expected = Counter()
        for inst in seqs:
            expected.update(enumerate_pattern_tuples(inst, node))
        assert _extend_supports(seqs, node) == dict(expected), node


def test_keep_is_the_ratio_test_of_mining():
    """The array keep is ``supp >= min_support and supp / top >= delta``,
    as the level loop has always read it, on every support up to the
    top: at σ's ceiling boundary, and at δ = 0.28 with top 25, where
    7/25 passes although 0.28 * 25 > 7."""
    assert 0.28 * 25 > 7
    for sigma, n, delta in [(0.75, 4, 0.5), (0.7, 4, 0.5), (0.2, 25, 0.28)]:
        ms = min_support(sigma, n)
        top = np.arange(1, 31)
        cand, supp = np.divmod(np.arange(30 * 31), 31)
        keep = Keep(ms, delta, top)
        expected = [s >= ms and s / top[c] >= delta for c, s in zip(cand, supp)]
        assert keep.mask(cand, supp).tolist() == expected
    assert min_support(0.75, 4) == 3
    keep = Keep(min_support(0.75, 4), 0.28, np.array([25]))
    assert keep.mask(np.zeros(4, int), np.array([2, 3, 6, 7])).tolist() == [
        False, False, False, True,
    ]


def _table(rows, n_seq):
    return InstanceTable.from_columns(
        *([row[i] for row in rows] for i in range(4)), n_seq=n_seq
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seqs=_sequences(), events=st.sets(st.sampled_from("ABCD")))
def test_restricted_table_equals_table_of_kept_rows(seqs, events):
    """Narrowing a table to some events by its row mask gives the table
    built from the rows of those events alone, array for array."""
    rows = _rows(seqs)
    got = _table(rows, len(seqs)).restrict(events)
    expected = _table([row for row in rows if row[1] in events], len(seqs))
    for field in fields(InstanceTable):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, field.name
            np.testing.assert_array_equal(a, b, err_msg=field.name)
        else:
            assert a == b, field.name

"""Tests for the shared embedding enumeration."""
from collections import Counter
from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.enumerate import (
    InstanceTable,
    enumerate_pattern_tuples,
    extend,
)
from repro.core.relations import RELATIONS
from repro.core.seqdb import SequenceDatabase


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


def _extend_supports(sequences, node, allowed=None, **params):
    """Supports of ``node``'s relation tuples in ``sequences``, built by
    :func:`extend` one event at a time, keeping every tuple;
    ``allowed[(i, j)]`` restricts the relation between positions ``i``
    and ``j`` (default: any)."""
    allowed = allowed or {}
    table = SequenceDatabase.from_rows(_rows(sequences), n_seq=len(sequences)).table
    embs, supports = table.singletons(), {}
    for j in range(1, len(node)):
        allowed_last = [allowed.get((i, j), RELATIONS) for i in range(j)]
        ext = extend(
            table, embs, [(node[: j + 1], allowed_last)], keep=lambda n, t: t, **params
        )
        embs, supports = ext.embeddings, ext.supports[0]
    return supports


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
    the depth-first enumeration's tuples counted over sequences."""
    params = {"epsilon": epsilon, "d_o": d_o, "t_max": t_max}
    expected = Counter()
    for inst in seqs:
        expected.update(enumerate_pattern_tuples(inst, node, **params))
    assert _extend_supports(seqs, node, **params) == dict(expected)


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

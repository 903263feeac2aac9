"""Tests for the shared embedding enumeration."""
from repro.core.enumerate import (
    enumerate_pattern_tuples,
    extend_embeddings,
    seed_embeddings,
)
from repro.core.relations import RELATIONS


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


def _extend_tuples(inst, node, allowed):
    """Relation tuples of ``node`` in the one sequence ``inst``, built by
    extending one event at a time; ``allowed[(i, j)]`` restricts the
    relation between positions ``i`` and ``j`` (default: any)."""
    seqs = {0: inst}
    embs = seed_embeddings(seqs.items(), node[0])
    by_tuple = {}
    for j in range(1, len(node)):
        allowed_last = [allowed.get((i, j), RELATIONS) for i in range(j)]
        by_tuple, embs = extend_embeddings(
            embs, node[j], seqs, allowed_last, 0, 1, None
        )
    return set(by_tuple)


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

"""Unit tests for the simplified Allen relation model (paper §III-B)."""
import itertools

import duckdb
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.relations import (
    CONTAIN,
    FOLLOW,
    OVERLAP,
    RELATIONS,
    relation,
    relation_codes,
    relation_sql,
)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        # Follow: first ends at or before second starts
        ((0, 5), (5, 10), FOLLOW),
        ((0, 5), (7, 10), FOLLOW),
        ((0, 1), (1, 2), FOLLOW),
        # Contain: first covers second
        ((0, 10), (2, 8), CONTAIN),
        ((0, 10), (0, 10), CONTAIN),  # identical intervals
        ((0, 10), (0, 5), CONTAIN),  # equal starts, first longer
        ((0, 10), (5, 10), CONTAIN),  # equal ends
        # Overlap: strict partial overlap of at least d_o
        ((0, 6), (4, 10), OVERLAP),
        ((0, 6), (5, 10), OVERLAP),
        # No relation: equal starts, first shorter (caller ordered by
        # (start, -end), so this pair is never produced in mining, but
        # the function must not misclassify it)
        ((0, 5), (0, 10), None),
    ],
)
def test_relation_cases(a, b, expected):
    assert relation(*a, *b) == expected


@pytest.mark.parametrize(
    "a, b, eps, d_o, expected",
    [
        # Buffer makes a 1-slot overshoot still a Follow
        ((0, 6), (5, 10), 1, 2, FOLLOW),
        # Buffer tolerates the contained instance ending 1 late
        ((0, 10), (5, 11), 1, 2, CONTAIN),
        # d_o = 3 rejects a 2-slot overlap ...
        ((0, 6), (4, 10), 0, 3, None),
        # ... but epsilon=1 lowers the effective minimum to 2
        ((0, 6), (4, 10), 1, 3, OVERLAP),
    ],
)
def test_relation_buffer(a, b, eps, d_o, expected):
    assert relation(*a, *b, eps, d_o) == expected


@given(
    s1=st.integers(0, 50),
    d1=st.integers(1, 50),
    s2off=st.integers(0, 50),
    d2=st.integers(1, 50),
    eps=st.integers(0, 2),
    d_o=st.integers(3, 6),
)
def test_relations_mutually_exclusive(s1, d1, s2off, d2, eps, d_o):
    """At most one relation holds for any ordered instance pair."""
    e1 = s1 + d1
    s2 = s1 + s2off
    e2 = s2 + d2
    if (s2, -e2) < (s1, -e1):
        s1, e1, s2, e2 = s2, e2, s1, e1  # enforce chronological order
    checks = [
        s2 >= e1 - eps,
        s1 <= s2 and e1 + eps >= e2,
        s1 < s2 and e1 + eps < e2 and e1 - s2 >= d_o - eps,
    ]
    # The definitions are checked in priority order, so later branches
    # are unreachable when an earlier one fires; mutual exclusivity
    # means the *conditions themselves* never co-fire after the first.
    r = relation(s1, e1, s2, e2, eps, d_o)
    if checks[0]:
        assert r == FOLLOW
        assert not checks[1] or e1 - eps <= s2  # follow wins by order
    fired = [i for i, c in enumerate(checks) if c]
    # contain & overlap conditions are disjoint (>= vs <)
    assert not ({1, 2} <= set(fired))


@given(
    s1=st.integers(0, 30),
    d1=st.integers(1, 30),
    s2off=st.integers(0, 30),
    d2=st.integers(1, 30),
)
def test_relation_total_after_ordering_when_distinct_starts(s1, d1, s2off, d2):
    """Lemma 4's transitivity: with distinct starts some relation holds."""
    s2 = s1 + s2off
    e1, e2 = s1 + d1, s2 + d2
    if (s2, -e2) < (s1, -e1):
        s1, e1, s2, e2 = s2, e2, s1, e1
    if s1 == s2:
        return  # equal starts can be relation-free; covered elsewhere
    assert relation(s1, e1, s2, e2, 0, 1) is not None


@given(
    s1=st.integers(0, 40),
    d1=st.integers(1, 20),
    s2off=st.integers(0, 25),
    d2=st.integers(1, 20),
    eps=st.integers(0, 1),
    d_o=st.integers(2, 4),
)
def test_relation_sql_matches_python(s1, d1, s2off, d2, eps, d_o):
    """The SQL rendering used by the distributed miner is equivalent."""
    s2 = s1 + s2off
    e1, e2 = s1 + d1, s2 + d2
    if (s2, -e2) < (s1, -e1):
        s1, e1, s2, e2 = s2, e2, s1, e1
    sql = relation_sql(str(s1), str(e1), str(s2), str(e2), eps, d_o)
    got = duckdb.sql(f"SELECT {sql} AS r").fetchone()[0]
    assert got == relation(s1, e1, s2, e2, eps, d_o)


@pytest.mark.parametrize("eps,d_o", [(0, 1), (1, 2), (2, 3), (0, 4)])
def test_relation_codes_match_python(eps, d_o):
    """The array form the extension kernel uses agrees with
    :func:`relation` on every pair of small intervals, ordered or not."""
    ivs = [(s, e) for s in range(7) for e in range(s + 1, 9)]
    pairs = np.array([a + b for a, b in itertools.product(ivs, ivs)])
    got = relation_codes(*pairs.T, eps, d_o)
    expected = [relation(*p, eps, d_o) for p in pairs.tolist()]
    assert [RELATIONS[c] if c >= 0 else None for c in got.tolist()] == expected

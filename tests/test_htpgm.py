"""Tests for the E-HTPGM miner and its pruning variants."""
import math

import numpy as np

import pytest

from repro.baselines import mine_hdfs
from repro.core.htpgm import MiningConfig, mine, mine_variant
from repro.core.model import min_support
from repro.core.seqdb import SequenceDatabase

from .util import kitchen_db, pairs_checked, random_db

VARIANTS = ["noprune", "apriori", "trans", "all"]


def cfg(sigma=0.5, delta=0.5, **kw):
    return MiningConfig(sigma=sigma, delta=delta, **kw)


def test_frequent_single_events():
    db = kitchen_db()
    r = mine(db, cfg(sigma=0.9, delta=0.5))
    # M has supp 4/5 = 0.8 < 0.9 -> only K and T remain
    assert set(r.frequent_events) == {"K", "T"}
    assert r.frequent_events["K"] == 5


def test_planted_two_event_patterns():
    db = kitchen_db()
    r = mine(db, cfg(sigma=0.8, delta=0.8, max_k=2))
    # (K contains T) holds in sequences 0-3 => supp 4, conf 4/5
    assert r.patterns[(("K", "T"), ("C",))] == 4
    assert r.confidence((("K", "T"), ("C",))) == pytest.approx(0.8)
    # (T follows K) holds only in sequence 4 => infrequent
    assert (("T", "K"), ("F",)) not in r.patterns


def test_planted_three_event_pattern():
    db = kitchen_db()
    r = mine(db, cfg(sigma=0.8, delta=0.8, max_k=3))
    key = (("K", "T", "M"), ("C", "F", "F"))
    assert r.patterns[key] == 4
    assert r.node_counts[3] >= 1


def test_sigma_prunes_patterns():
    db = kitchen_db()
    r = mine(db, cfg(sigma=1.0, delta=0.5, max_k=3))
    # nothing with M survives supp=5
    assert all("M" not in key[0] for key in r.patterns)


def test_delta_prunes_patterns():
    db = kitchen_db()
    loose = mine(db, cfg(sigma=0.6, delta=0.2, max_k=2))
    tight = mine(db, cfg(sigma=0.6, delta=0.9, max_k=2))
    assert set(tight.patterns) <= set(loose.patterns)
    # (K,T,'C') has conf 0.8 < 0.9
    assert (("K", "T"), ("C",)) not in tight.patterns


def test_max_k_caps_levels():
    db = kitchen_db()
    r = mine(db, cfg(sigma=0.6, delta=0.6, max_k=2))
    assert all(len(key[0]) <= 2 for key in r.patterns)


def test_self_relation_pattern():
    rows = [(s, "A", 0, 2) for s in range(4)] + [
        (s, "A", 5, 7) for s in range(4)
    ]
    db = SequenceDatabase.from_rows(rows, n_seq=4)
    r = mine(db, cfg(sigma=0.9, delta=0.9, max_k=2))
    assert r.patterns[(("A", "A"), ("F",))] == 4


def test_t_max_constraint_drops_distant_pattern():
    rows = [(s, "A", 0, 2) for s in range(4)] + [
        (s, "B", 50, 55) for s in range(4)
    ]
    db = SequenceDatabase.from_rows(rows, n_seq=4)
    free = mine(db, cfg(sigma=0.9, delta=0.9, max_k=2))
    bounded = mine(db, cfg(sigma=0.9, delta=0.9, max_k=2, t_max=20))
    assert (("A", "B"), ("F",)) in free.patterns
    assert (("A", "B"), ("F",)) not in bounded.patterns


def test_sub_pattern_apriori_holds():
    """Every 2-event projection of a frequent 3-event pattern is frequent."""
    db = random_db(seed=11, n_seq=16, n_vars=4)
    r = mine(db, cfg(sigma=0.3, delta=0.3, max_k=3))
    two = {k for k in r.patterns if len(k[0]) == 2}
    for key in [k for k in r.patterns if len(k[0]) == 3]:
        (e1, e2, e3), (r12, r13, r23) = key
        assert ((e1, e2), (r12,)) in two
        assert ((e1, e3), (r13,)) in two
        assert ((e2, e3), (r23,)) in two


def test_supports_within_bounds():
    db = random_db(seed=5)
    r = mine(db, cfg(sigma=0.25, delta=0.25, max_k=3))
    ms = min_support(0.25, db.n_seq)
    for key, supp in r.patterns.items():
        assert ms <= supp <= db.n_seq
        assert supp <= min(r.frequent_events[e] for e in key[0])
        assert r.confidence(key) >= 0.25


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_variants_agree_on_random_data(variant, seed):
    db = random_db(seed=seed, n_seq=14, n_vars=4)
    base = mine_variant(db, cfg(sigma=0.3, delta=0.3, max_k=3), "all")
    other = mine_variant(db, cfg(sigma=0.3, delta=0.3, max_k=3), variant)
    assert other.patterns == base.patterns
    assert other.frequent_events == base.frequent_events


@pytest.mark.parametrize("sigma,delta", [(0.2, 0.2), (0.5, 0.5), (0.8, 0.4)])
def test_variants_agree_on_kitchen(sigma, delta):
    db = kitchen_db()
    results = [
        mine_variant(db, cfg(sigma=sigma, delta=delta, max_k=3), v)
        for v in VARIANTS
    ]
    for r in results[1:]:
        assert r.patterns == results[0].patterns


def test_pruning_reduces_work():
    db = random_db(seed=4, n_seq=20, n_vars=5)
    c = cfg(sigma=0.4, delta=0.4, max_k=3)
    pruned = mine_variant(db, c, "all")
    unpruned = mine_variant(db, c, "noprune")
    assert pairs_checked(pruned) < pairs_checked(unpruned)


def test_filtered_equals_remining():
    """Mining loose then post-filtering == mining at tight thresholds."""
    db = random_db(seed=9, n_seq=16, n_vars=4)
    loose = mine(db, cfg(sigma=0.2, delta=0.2, max_k=3))
    for sigma, delta in [(0.4, 0.4), (0.6, 0.2), (0.2, 0.6)]:
        tight = mine(db, cfg(sigma=sigma, delta=delta, max_k=3))
        assert loose.filtered(sigma, delta) == tight.patterns


def test_edge_filter_restricts_pairs():
    db = kitchen_db()
    allowed = np.isin(db.events, ["K", "T"])
    r = mine(
        db,
        cfg(sigma=0.6, delta=0.6, max_k=3),
        edge_mask=allowed[:, None] & allowed,
    )
    assert r.patterns
    assert all(set(k[0]) <= {"K", "T"} for k in r.patterns)


def test_empty_result_when_sigma_impossible():
    db = SequenceDatabase.from_rows([(0, "A", 0, 1)], n_seq=10)
    r = mine(db, cfg(sigma=0.5, delta=0.5))
    assert r.frequent_events == {}
    assert r.patterns == {}


def test_level_counts_populated():
    db = kitchen_db()
    r = mine(db, cfg(sigma=0.8, delta=0.8, max_k=3))
    assert r.node_counts[1] == 3
    assert r.node_counts[2] >= 2
    assert r.pattern_counts[2] >= 2


@pytest.mark.parametrize(
    "kw",
    [
        {"sigma": 1.5},
        {"sigma": -0.1},
        {"delta": -1},
        {"delta": 1.01},
        {"sigma": float("nan")},
        {"epsilon": -1},
        {"d_o": -1},
        {"t_max": -1},
        {"max_k": 0},
    ],
)
def test_config_rejects_out_of_range(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        MiningConfig(**{"sigma": 0.5, "delta": 0.5, **kw})


def test_config_accepts_bounds():
    MiningConfig(sigma=0.0, delta=1.0, epsilon=0, d_o=0, t_max=0, max_k=1)


def test_math_ceil_min_support_boundary():
    # sigma exactly on a sequence-count boundary
    assert min_support(0.75, 4) == 3
    assert min_support(0.7, 4) == math.ceil(2.8)


#: (db, sigma, delta, max_k, variant) -> ((candidates_l2, candidates_k,
#: enumerated_nodes, summed pairs_checked_l{k}), node_counts).  The
#: first three and node_counts are as the miner reported them before
#: its level loop was shared with the distributed miner; the pairs of
#: "all" are those left after the pair bound drops candidates.
PINNED_COUNTERS = {
    ("kitchen", 0.8, 0.8, 3, "noprune"): ((9, 9, 18, 76), {1: 3, 2: 3, 3: 1}),
    ("kitchen", 0.8, 0.8, 3, "apriori"): ((9, 9, 18, 76), {1: 3, 2: 3, 3: 1}),
    ("kitchen", 0.8, 0.8, 3, "trans"): ((9, 9, 10, 44), {1: 3, 2: 3, 3: 1}),
    ("kitchen", 0.8, 0.8, 3, "all"): ((9, 9, 10, 44), {1: 3, 2: 3, 3: 1}),
    ("random4", 0.4, 0.4, 4, "noprune"): (
        (25, 110, 135, 5436),
        {1: 5, 2: 19, 3: 3, 4: 0},
    ),
    ("random4", 0.4, 0.4, 4, "apriori"): (
        (25, 110, 135, 5436),
        {1: 5, 2: 19, 3: 3, 4: 0},
    ),
    ("random4", 0.4, 0.4, 4, "trans"): (
        (25, 107, 93, 4166),
        {1: 5, 2: 19, 3: 3, 4: 0},
    ),
    ("random4", 0.4, 0.4, 4, "all"): (
        (25, 107, 93, 3290),
        {1: 5, 2: 19, 3: 3, 4: 0},
    ),
    ("random4", 0.6, 0.6, 3, "noprune"): ((25, 40, 65, 3217), {1: 5, 2: 8, 3: 0}),
    ("random4", 0.6, 0.6, 3, "apriori"): ((25, 40, 58, 2947), {1: 5, 2: 8, 3: 0}),
    ("random4", 0.6, 0.6, 3, "trans"): ((25, 40, 35, 1984), {1: 5, 2: 8, 3: 0}),
    ("random4", 0.6, 0.6, 3, "all"): ((25, 40, 33, 1772), {1: 5, 2: 8, 3: 0}),
}


@pytest.mark.parametrize("case", sorted(PINNED_COUNTERS))
def test_variant_counters_pinned(case):
    """The counters tpmbench reports (htpgm.*) repeat exactly."""
    name, sigma, delta, max_k, variant = case
    db = kitchen_db() if name == "kitchen" else random_db(seed=4, n_seq=20, n_vars=5)
    r = mine_variant(db, cfg(sigma=sigma, delta=delta, max_k=max_k), variant)
    keys = ("candidates_l2", "candidates_k", "enumerated_nodes")
    counters, node_counts = PINNED_COUNTERS[case]
    assert (*(r.stats[k] for k in keys), pairs_checked(r)) == counters
    assert r.node_counts == node_counts


def test_per_level_counters_repeat():
    """Per level, the driver miner reports the instance pairs it checked,
    the embeddings it kept (none at ``max_k``, which nothing extends)
    and the wall time; the counts repeat exactly."""
    db = random_db(seed=4, n_seq=20, n_vars=5)
    runs = [mine(db, cfg(sigma=0.4, delta=0.4, max_k=4)) for _ in range(2)]
    counts = [
        {k: v for k, v in r.stats.items() if not k.startswith("seconds_")}
        for r in runs
    ]
    assert counts[0] == counts[1]
    levels = [k for k in runs[0].node_counts if k >= 2]
    assert levels == [2, 3, 4]
    for k in levels:
        assert f"seconds_l{k}" in runs[0].stats
        kept = counts[0][f"embeddings_kept_l{k}"]
        assert 0 <= kept <= counts[0][f"pairs_checked_l{k}"]
        assert (kept > 0) == (k < 4 and runs[0].node_counts[k] > 0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_confidence_exactly_delta_is_kept(variant):
    """A pattern whose confidence equals δ is kept, also where δ times
    the top support rounds above the pattern's support: 7/25 = 0.28
    although 0.28 * 25 > 7.  The Lemma 2/3 gate passes it too."""
    rows = [(s, "A", 0, 2) for s in range(25)] + [(s, "B", 5, 7) for s in range(7)]
    db = SequenceDatabase.from_rows(rows)
    key = (("A", "B"), ("F",))
    assert mine_variant(db, cfg(sigma=0.2, delta=0.28, max_k=2), variant).patterns == {
        key: 7
    }
    assert mine_variant(db, cfg(sigma=0.2, delta=0.2801, max_k=2), variant).patterns == {}


def test_enumerated_per_level_sums_to_enumerated_nodes():
    db = random_db(seed=4, n_seq=20, n_vars=5)
    for variant in VARIANTS:
        r = mine_variant(db, cfg(sigma=0.4, delta=0.4, max_k=4), variant)
        per_level = [r.stats[f"enumerated_l{k}"] for k in (2, 3, 4)]
        assert sum(per_level) == r.stats["enumerated_nodes"]


def test_pair_bound_drops_what_the_event_gate_passes():
    """A, B and C occur once in every sequence, in the order ACB in two
    and BCA in the other two, so every order of the three passes the
    Lemma 2/3 gate.  Each ordered pair is a green L2 node, but only in
    the sequences of one order: the pair bound of a 3-event order is 0
    unless all three of its pairs come from one order, so it drops the
    four orders other than ACB and BCA (ABC among them, whose prefix
    and first pair agree: only its last pair, (B, C), rules it out).
    The patterns are unchanged."""
    rows = []
    for s, order in enumerate(["ACB", "ACB", "BCA", "BCA"]):
        rows += [(s, ev, 2 * i, 2 * i + 1) for i, ev in enumerate(order)]
    db = SequenceDatabase.from_rows(rows)
    assert db.group_support(("A", "B", "C")) == 4
    c = cfg(sigma=0.5, delta=0.5, max_k=3)
    got = mine_variant(db, c, "all")
    trans = mine_variant(db, c, "trans")
    assert got.stats["enumerated_l3"] == trans.stats["enumerated_l3"] == 6
    assert got.stats["bound_pruned_l3"] == 4
    assert trans.stats["bound_pruned_l3"] == 0
    assert got.stats["pairs_checked_l3"] < trans.stats["pairs_checked_l3"]
    assert got.patterns == trans.patterns == mine_hdfs(db, c).patterns
    assert {nodes for nodes, _ in got.patterns if len(nodes) == 3} == {
        ("A", "C", "B"),
        ("B", "C", "A"),
    }

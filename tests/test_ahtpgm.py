"""Tests for A-HTPGM: correlation-graph pruning and its guarantees."""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro.core import mi as mi_mod
from repro.core.ahtpgm import (
    CorrelationGraph,
    accuracy,
    event_var,
    mine_approx,
)
from repro.core.events import to_instances
from repro.core.htpgm import MiningConfig, mine
from repro.core.pipeline import load_dataset
from repro.core.sequences import split_sequences
from repro.core.seqdb import SequenceDatabase
from repro.core.symbolize import threshold_symbolize


def _correlated_symbols_pdf(n_seq=20, seq_len=20, seed=0):
    """Vars a/b correlated (b echoes a with 1-slot lag), c independent."""
    rng = np.random.default_rng(seed)
    total = n_seq * seq_len
    a = np.zeros(total, dtype=bool)
    for day in range(n_seq):
        start = day * seq_len + rng.integers(0, seq_len - 8)
        a[start : start + rng.integers(3, 6)] = True
    b = np.roll(a, 1)
    b[0] = False
    c = rng.random(total) < 0.3
    rows = []
    for var, arr in [("a", a), ("b", b), ("c", c)]:
        for t, on in enumerate(arr):
            rows.append((var, t, 1.0 if on else 0.0))
    return pd.DataFrame(rows, columns=["var", "t", "value"])


@pytest.fixture(scope="module")
def setup(spark):
    pdf = _correlated_symbols_pdf()
    readings = spark.createDataFrame(pdf)
    symbols = threshold_symbolize(readings, threshold=0.5)
    dseq = split_sequences(to_instances(symbols), seq_len=20, overlap=0)
    db = SequenceDatabase.from_spark(dseq)
    nmi = mi_mod.nmi_matrix(symbols)
    return db, nmi


def test_event_var():
    assert event_var("K:On") == "K"
    assert event_var("motorist_injury:high") == "motorist_injury"


def test_correlated_pair_ranks_highest(setup):
    _, nmi = setup
    scores = mi_mod.pair_scores(nmi)
    ab = scores[frozenset(("a", "b"))]
    assert ab > scores[frozenset(("a", "c"))]
    assert ab > scores[frozenset(("b", "c"))]


def test_graph_requires_one_of_mu_or_density(setup):
    _, nmi = setup
    with pytest.raises(ValueError):
        CorrelationGraph.from_nmi(nmi)
    with pytest.raises(ValueError):
        CorrelationGraph.from_nmi(nmi, mu=0.5, density=0.5)


@pytest.mark.parametrize(
    "kw",
    [
        {"density": 1.5},
        {"density": -0.5},
        {"density": float("nan")},
        {"mu": 1.01},
        {"mu": -0.1},
        {"mu": float("nan")},
    ],
)
def test_graph_rejects_out_of_range(setup, kw):
    _, nmi = setup
    with pytest.raises(ValueError, match=next(iter(kw))):
        CorrelationGraph.from_nmi(nmi, **kw)


def test_graph_accepts_bounds(setup):
    _, nmi = setup
    assert CorrelationGraph.from_nmi(nmi, density=0.0).edges == set()
    every_pair = set(mi_mod.pair_scores(nmi))
    assert CorrelationGraph.from_nmi(nmi, density=1.0).edges == every_pair
    assert CorrelationGraph.from_nmi(nmi, mu=0.0).edges == every_pair
    CorrelationGraph.from_nmi(nmi, mu=1.0)


def test_self_edges_implicit(setup):
    _, nmi = setup
    g = CorrelationGraph.from_nmi(nmi, density=1.0)
    assert g.has_edge("a", "a")


def test_full_density_matches_exact(setup):
    db, nmi = setup
    cfg = MiningConfig(sigma=0.3, delta=0.3, max_k=3)
    exact = mine(db, cfg)
    approx = mine_approx(db, CorrelationGraph.from_nmi(nmi, density=1.0), cfg)
    assert approx.patterns == exact.patterns
    assert accuracy(approx, exact) == 1.0


def test_approx_is_subset_of_exact(setup):
    db, nmi = setup
    cfg = MiningConfig(sigma=0.2, delta=0.2, max_k=3)
    exact = mine(db, cfg)
    for density in (0.0, 1 / 3, 2 / 3, 1.0):
        approx = mine_approx(
            db, CorrelationGraph.from_nmi(nmi, density=density), cfg
        )
        assert set(approx.patterns) <= set(exact.patterns)
        for key, supp in approx.patterns.items():
            assert supp == exact.patterns[key]  # supports are exact


def test_accuracy_weakly_increases_with_density(setup):
    db, nmi = setup
    cfg = MiningConfig(sigma=0.2, delta=0.2, max_k=3)
    exact = mine(db, cfg)
    accs = [
        accuracy(
            mine_approx(db, CorrelationGraph.from_nmi(nmi, density=d), cfg),
            exact,
        )
        for d in (0.0, 1 / 3, 2 / 3, 1.0)
    ]
    assert accs == sorted(accs)
    assert accs[-1] == 1.0


def test_uncorrelated_var_pruned_at_low_density(setup):
    db, nmi = setup
    cfg = MiningConfig(sigma=0.2, delta=0.2, max_k=3)
    g = CorrelationGraph.from_nmi(nmi, density=1 / 3)  # keep only (a,b)
    assert g.edges == {frozenset(("a", "b"))}
    approx = mine_approx(db, g, cfg)
    assert all(
        {event_var(e) for e in key[0]} <= {"a", "b"}
        for key in approx.patterns
    )


def test_cross_pair_pruned_but_self_var_patterns_kept(setup):
    db, nmi = setup
    cfg = MiningConfig(sigma=0.2, delta=0.2, max_k=2)
    g = CorrelationGraph.from_nmi(nmi, density=1 / 3)
    approx = mine_approx(db, g, cfg)
    # same-variable pairs of a correlated var survive (NMI(X;X)=1)
    assert any(
        event_var(key[0][0]) == event_var(key[0][1]) for key in approx.patterns
    )


def test_accuracy_empty_exact_is_one():
    empty = mine(
        SequenceDatabase.from_rows([], n_seq=2),
        MiningConfig(sigma=0.5, delta=0.5),
    )
    assert accuracy(empty, empty) == 1.0


def test_theorem1_lower_bound_holds(setup):
    """Theorem 1: frequent pair of correlated series has conf >= LB."""
    db, nmi = setup
    # events a:On / b:On; supports in D_SEQ
    supp_a = db.support("a:On")
    supp_b = db.support("b:On")
    pair_supp = db.group_support(("a:On", "b:On"))
    conf = pair_supp / max(supp_a, supp_b)
    n = db.n_seq
    sigma = pair_supp / n  # pair is frequent at its own support level
    sigma_m = max(supp_a, supp_b) / n
    mu = float(
        min(nmi.loc[("a", "b"), "nmi"], nmi.loc[("b", "a"), "nmi"])
    )
    lb = mi_mod.confidence_lower_bound(sigma, sigma_m, mu, n_x=2)
    assert conf >= lb - 1e-9


@pytest.fixture(scope="module")
def small_city(spark):
    """Eight SmartCity-shaped days, symbolized as the benchmark does."""
    ds = load_dataset(spark, "smartcity", n_seq=8)
    return ds.db, mi_mod.nmi_matrix(ds.symbols)


#: (σ, δ, density) -> candidates_l2, candidates_k, enumerated_nodes,
#: node_counts, patterns, and enumerated_nodes without the Lemma 2/3
#: gate; recorded while the gate still ran once per candidate.  At
#: δ = 0.8 the gate removes 78 and 122 candidates.
PINNED_APPROX = {
    (0.5, 0.5, 0.4): (400, 5280, 3602, {1: 20, 2: 264, 3: 1672}, 2134, 3602),
    (0.5, 0.5, 0.6): (529, 8924, 6388, {1: 23, 2: 388, 3: 3191}, 4178, 6390),
    (0.5, 0.8, 0.4): (400, 1800, 701, {1: 20, 2: 100, 3: 67}, 168, 779),
    (0.5, 0.8, 0.6): (529, 3108, 1058, {1: 23, 2: 148, 3: 138}, 289, 1180),
}


@pytest.mark.parametrize("key", sorted(PINNED_APPROX))
def test_approx_counters_pinned(small_city, key):
    """The level-wide Lemma 2/3 gate admits the candidates the
    per-candidate gate did: A-HTPGM's counters are unchanged."""
    db, nmi = small_city
    sigma, delta, density = key
    cl2, ck, enumerated, nodes, n_patterns, ungated = PINNED_APPROX[key]
    graph = CorrelationGraph.from_nmi(nmi, density=density)
    cfg = MiningConfig(sigma=sigma, delta=delta, max_k=3)
    res = mine_approx(db, graph, cfg)
    assert res.stats["candidates_l2"] == cl2
    assert res.stats["candidates_k"] == ck
    assert res.stats["enumerated_nodes"] == enumerated
    assert dict(res.node_counts) == nodes
    assert len(res.patterns) == n_patterns
    no_gate = mine_approx(db, graph, replace(cfg, prune_apriori=False))
    assert no_gate.stats["enumerated_nodes"] == ungated
    assert no_gate.patterns == res.patterns

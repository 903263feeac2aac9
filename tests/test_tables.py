"""Tests for the table harnesses (tiny scale: shape + invariants)."""
import pytest

from repro import paper_numbers, tables


def test_paper_numbers_complete():
    assert set(paper_numbers.TABLE4) == {
        "nist", "ukdale", "dataport", "smartcity"
    }
    for ds, grid in paper_numbers.TABLE5.items():
        assert set(grid) == {20, 40, 60, 80}
        for row in grid.values():
            assert set(row) == {20, 40, 60, 80}
    for table in (paper_numbers.TABLE7, paper_numbers.TABLE8):
        assert set(table) == {20, 50, 80}
        for methods in table.values():
            assert set(methods) == set(paper_numbers.METHOD_ORDER)
    assert set(paper_numbers.TABLE9) == {20, 50, 80}


def test_paper_table5_monotone_in_thresholds():
    """The transcription itself: counts never increase as σ or δ grow."""
    for grid in paper_numbers.TABLE5.values():
        for s in (20, 40, 60):
            for c in (20, 40, 60, 80):
                assert grid[s][c] >= grid[s + 20][c]
        for s in (20, 40, 60, 80):
            for c in (20, 40, 60):
                assert grid[s][c] >= grid[s][c + 20]


@pytest.fixture(scope="module")
def t4(spark):
    return tables.table4(spark, n_seq=8)


def test_table4_shape(t4):
    assert len(t4) == 4
    assert set(t4["dataset"]) == {"nist", "ukdale", "dataport", "smartcity"}
    assert (t4["n_seq"] == 8).all()
    assert (t4["n_events"] > 0).all()
    assert (t4["paper_n_events"] > 0).all()


def test_table4_event_count_matches_alphabet(t4):
    row = t4[t4.dataset == "smartcity"].iloc[0]
    # 4-state alphabet -> 4 events per variable
    assert row["n_events"] == 4 * row["n_vars"]
    row = t4[t4.dataset == "nist"].iloc[0]
    assert row["n_events"] == 2 * row["n_vars"]


def test_table5_grid_monotone(spark):
    df = tables.table5(spark, datasets=["dataport"], n_seq=12)
    assert len(df) == 16
    wide = df.pivot_table(
        index="support_pct", columns="conf_pct", values="patterns"
    )
    for s in (20, 40, 60):
        assert (wide.loc[s] >= wide.loc[s + 20] - 1e-9).all()
    for c in (20, 40, 60):
        assert (wide[c] >= wide[c + 20]).all()
    assert (df["patterns"] > 0).any()


def test_table6_interesting_patterns(spark):
    df = tables.table6(spark, datasets=["ukdale"], n_seq=12, top=4)
    assert 0 < len(df) <= 4
    assert (df["supp_pct"] > 0).all()
    assert (df["conf_pct"] > 0).all()
    assert df["pattern"].str.contains(":On").any()


@pytest.fixture(scope="module")
def perf(spark):
    return tables.table7(
        spark,
        datasets=("nist",),
        n_seq=8,
        supports=(50,),
        confidences=(50,),
    )


def test_table7_all_methods_present(perf):
    assert set(perf["method"]) == set(paper_numbers.METHOD_ORDER)
    assert (perf["seconds"] >= 0).all()
    assert (perf["paper_seconds"] > 0).all()


def test_table7_htpgm_not_slowest(perf):
    by_method = perf.set_index("method")["seconds"]
    assert by_method["E-HTPGM"] <= by_method[["H-DFS", "IEMiner"]].max()


def test_table8_memory_positive(spark):
    df = tables.table8(
        spark,
        datasets=("nist",),
        n_seq=8,
        supports=(50,),
        confidences=(50,),
    )
    assert (df["mib"] > 0).all()
    # the H-DFS > E-HTPGM > A-HTPGM memory ordering only emerges at
    # realistic scale (embedding stores are tiny at n_seq=8); the
    # Table VIII job at n_seq=32 exhibits it — here we only check the
    # harness produces sane positive measurements for all methods.
    assert df["mib"].nunique() > 1


def test_table9_accuracy_bounds_and_monotone(spark):
    df = tables.table9(spark, datasets=("nist",), n_seq=12)
    assert ((df["accuracy_pct"] >= 0) & (df["accuracy_pct"] <= 100)).all()
    # weakly increasing in density at fixed (support, conf)
    for (_, _), grp in df.groupby(["support_pct", "conf_pct"]):
        accs = grp.sort_values("mu_pct")["accuracy_pct"].tolist()
        assert accs == sorted(accs)


def test_pruning_ablation_variants(spark):
    df = tables.pruning_ablation(
        spark, datasets=("dataport",), n_seq=8, grid=((50, 50),)
    )
    assert set(df["variant"]) == {"noprune", "apriori", "trans", "all"}
    assert (df["seconds"] >= 0).all()


def test_pruning_ablation_speedup_is_median_of_round_ratios(monkeypatch):
    """Each speedup is the median over rounds of NoPrune's time over
    the variant's time in the same round, not a ratio of medians: with
    NoPrune at 1, 4, 2 s and the variant at 2, 2, 1 s the ratios are
    0.5, 2, 2 (median 2), while the medians' ratio would be 1."""
    times = {"noprune": [1.0, 4.0, 2.0], "apriori": [2.0, 2.0, 1.0]}
    times["trans"] = times["all"] = [1.0, 4.0, 2.0]
    calls = iter(
        [times[v][r] for r in range(3) for v in ("noprune", "apriori", "trans", "all")]
    )
    monkeypatch.setattr(tables, "load_dataset", lambda *a, **kw: None)
    monkeypatch.setattr(tables, "time_call", lambda fn: (None, next(calls)))
    df = tables.pruning_ablation(None, datasets=("nist",), grid=((50, 50),))
    got = dict(zip(df["variant"], zip(df["seconds"], df["speedup_vs_noprune"])))
    assert got == {
        "noprune": (2.0, 1.0),
        "apriori": (2.0, 2.0),
        "trans": (2.0, 1.0),
        "all": (2.0, 1.0),
    }


def test_format_table_renders_markdown():
    import pandas as pd

    df = pd.DataFrame({"a": [1, 2], "b": ["x", "y"]})
    text = tables.format_table(df, "Demo")
    assert text.startswith("## Demo")
    assert "| a | b |" in text
    assert "| 1 | x |" in text

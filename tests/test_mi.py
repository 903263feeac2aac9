"""Unit tests for entropy / MI / NMI and the correlation graph (§V)."""
import math

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import mi as mi_mod
from repro.oracle import assert_equivalent

from .paper_data import symbols_pandas


def joint(d):
    """Contingency table from {(x_sym, y_sym): count}."""
    xs = sorted({k[0] for k in d})
    ys = sorted({k[1] for k in d})
    return pd.DataFrame(
        [[d.get((x, y), 0) for y in ys] for x in xs], index=xs, columns=ys
    )


def test_entropy_uniform_and_degenerate():
    assert mi_mod.entropy(np.array([0.5, 0.5])) == pytest.approx(math.log(2))
    assert mi_mod.entropy(np.array([1.0, 0.0])) == 0.0
    assert mi_mod.entropy(np.array([0.25] * 4)) == pytest.approx(math.log(4))


def test_mi_independent_is_zero():
    t = joint({("a", "c"): 25, ("a", "d"): 25, ("b", "c"): 25, ("b", "d"): 25})
    assert mi_mod.mutual_information(t) == pytest.approx(0.0, abs=1e-12)


def test_mi_identical_equals_entropy():
    t = joint({("a", "a"): 30, ("b", "b"): 70})
    h = mi_mod.entropy(np.array([0.3, 0.7]))
    assert mi_mod.mutual_information(t) == pytest.approx(h)
    n_xy, n_yx = mi_mod.nmi_from_joint(t)
    assert n_xy == pytest.approx(1.0)
    assert n_yx == pytest.approx(1.0)


def test_mi_paper_worked_example():
    t = joint(
        {
            ("On", "On"): 15,
            ("On", "Off"): 2,
            ("Off", "On"): 3,
            ("Off", "Off"): 16,
        }
    )
    assert mi_mod.mutual_information(t) == pytest.approx(0.2921, abs=0.001)
    n_xy, n_yx = mi_mod.nmi_from_joint(t)
    assert n_xy == pytest.approx(0.4223, abs=0.002)  # I/H(K)
    assert n_yx == pytest.approx(0.4214, abs=0.002)  # I/H(T)


@given(
    counts=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 30)),
        min_size=1,
        max_size=9,
    )
)
def test_mi_nonnegative_and_bounded(counts):
    d = {}
    for x, y, c in counts:
        d[(f"x{x}", f"y{y}")] = d.get((f"x{x}", f"y{y}"), 0) + c
    t = joint(d)
    i = mi_mod.mutual_information(t)
    c = t.to_numpy(dtype=float)
    hx = mi_mod.entropy(c.sum(axis=1) / c.sum())
    hy = mi_mod.entropy(c.sum(axis=0) / c.sum())
    assert i >= -1e-12
    assert i <= min(hx, hy) + 1e-9
    n_xy, n_yx = mi_mod.nmi_from_joint(t)
    assert -1e-9 <= n_xy <= 1 + 1e-9
    assert -1e-9 <= n_yx <= 1 + 1e-9


def _nmi_frame(scores):
    """Directed NMI frame from {(x, y): (nmi_xy, nmi_yx)}."""
    rows = []
    for (x, y), (a, b) in scores.items():
        rows.append((x, y, a))
        rows.append((y, x, b))
    return pd.DataFrame(rows, columns=["var_x", "var_y", "nmi"]).set_index(
        ["var_x", "var_y"]
    )


def test_pair_scores_take_min_of_directions():
    nmi = _nmi_frame({("a", "b"): (0.9, 0.4), ("a", "c"): (0.2, 0.3)})
    scores = mi_mod.pair_scores(nmi)
    assert scores[frozenset(("a", "b"))] == pytest.approx(0.4)
    assert scores[frozenset(("a", "c"))] == pytest.approx(0.2)


def test_mu_for_density_keeps_top_fraction():
    nmi = _nmi_frame(
        {
            ("a", "b"): (0.9, 0.9),
            ("a", "c"): (0.5, 0.5),
            ("b", "c"): (0.3, 0.3),
            ("a", "d"): (0.1, 0.1),
        }
    )
    mu = mi_mod.mu_for_density(nmi, 0.5)
    edges = mi_mod.correlation_edges(nmi, mu)
    assert edges == {frozenset(("a", "b")), frozenset(("a", "c"))}
    assert mi_mod.graph_density(nmi, mu) == pytest.approx(0.5)


def test_mu_for_density_extremes():
    nmi = _nmi_frame({("a", "b"): (0.9, 0.8), ("a", "c"): (0.5, 0.4)})
    assert mi_mod.correlation_edges(nmi, mi_mod.mu_for_density(nmi, 1.0)) == {
        frozenset(("a", "b")),
        frozenset(("a", "c")),
    }
    assert mi_mod.correlation_edges(nmi, mi_mod.mu_for_density(nmi, 0.0)) == set()


def test_density_monotone_edge_nesting():
    rng = np.random.default_rng(0)
    pairs = {}
    for i in range(6):
        for j in range(i + 1, 6):
            pairs[(f"v{i}", f"v{j}")] = tuple(rng.random(2))
    nmi = _nmi_frame(pairs)
    prev = set()
    for d in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]:
        edges = mi_mod.correlation_edges(nmi, mi_mod.mu_for_density(nmi, d))
        assert prev <= edges
        prev = edges
    assert len(prev) == 15


def test_confidence_lower_bound_values():
    # mu = 1 and sigma_m = sigma collapse the bound to 1
    assert mi_mod.confidence_lower_bound(0.5, 0.5, 1.0, 2) == pytest.approx(1.0)
    lb = mi_mod.confidence_lower_bound(0.2, 0.5, 0.6, 2)
    assert 0 < lb < 1


def test_confidence_lower_bound_monotone_in_mu():
    lbs = [
        mi_mod.confidence_lower_bound(0.3, 0.6, mu, 2)
        for mu in (0.2, 0.4, 0.6, 0.8, 0.99)
    ]
    assert lbs == sorted(lbs)


def test_confidence_lower_bound_validates():
    with pytest.raises(ValueError):
        mi_mod.confidence_lower_bound(0.0, 0.5, 0.5, 2)
    with pytest.raises(ValueError):
        mi_mod.confidence_lower_bound(0.6, 0.5, 0.5, 2)  # sigma > sigma_m
    with pytest.raises(ValueError):
        mi_mod.confidence_lower_bound(0.2, 0.5, 0.5, 1)


def test_all_pairs():
    assert len(mi_mod.all_pairs(["a", "b", "c", "d"])) == 6


# ---- Joint symbol counts and the NMI matrix over a Spark D_SYB ----------

SYB_SCHEMA = "var string, t long, symbol string"
JOINT_COLUMNS = ["var_x", "var_y", "sym_x", "sym_y", "cnt"]
JOINT_SQL = (
    "SELECT a.var AS var_x, b.var AS var_y, a.symbol AS sym_x, "
    "b.symbol AS sym_y, count(*) AS cnt "
    "FROM dsyb a JOIN dsyb b ON a.t = b.t AND a.var < b.var "
    "GROUP BY a.var, b.var, a.symbol, b.symbol"
)


def _generated_dsyb(seed, alphabets, n_slots=60, p_present=0.8):
    """Variable ``v{i}`` draws from the ``alphabets[i]`` symbols
    ``s{i}, s{i+1}, ...`` (so alphabets overlap but differ) and has a
    reading in each slot with probability ``p_present``."""
    rng = np.random.default_rng(seed)
    rows = [
        (f"v{i}", t, f"s{i + rng.integers(n_sym)}")
        for i, n_sym in enumerate(alphabets)
        for t in range(n_slots)
        if rng.random() < p_present
    ]
    return pd.DataFrame(rows, columns=["var", "t", "symbol"])


def _constant_var_dsyb():
    pdf = _generated_dsyb(11, [2, 3, 2])
    pdf.loc[pdf["var"] == "v1", "symbol"] = "only"
    return pdf


DSYB_CASES = {
    "paper_table_i": symbols_pandas,
    "missing_slots": lambda: _generated_dsyb(3, [2, 2, 3, 2], p_present=0.6),
    "constant_var": _constant_var_dsyb,
    "alphabets_3_to_5": lambda: _generated_dsyb(5, [3, 4, 5, 5, 3], p_present=1.0),
}


@pytest.mark.parametrize("case", sorted(DSYB_CASES))
def test_joint_symbol_counts_match_oracle(spark, case):
    pdf = DSYB_CASES[case]()
    got = mi_mod.joint_symbol_counts(spark.createDataFrame(pdf, SYB_SCHEMA))
    assert list(got.columns) == JOINT_COLUMNS
    assert len(got)
    assert_equivalent(got, JOINT_SQL, dsyb=pdf)


@pytest.mark.parametrize(
    "rows", [[], [("K", 0, "On"), ("K", 1, "Off")]], ids=["empty", "one_var"]
)
def test_joint_counts_and_nmi_without_pairs(spark, rows):
    symbols = spark.createDataFrame(rows, SYB_SCHEMA)
    got = mi_mod.joint_symbol_counts(symbols)
    assert list(got.columns) == JOINT_COLUMNS
    assert got.empty
    nmi = mi_mod.nmi_matrix(symbols)
    assert nmi.empty
    assert list(nmi.index.names) == ["var_x", "var_y"]
    assert list(nmi.columns) == ["nmi"]


BAD_DSYB = [
    ([("K", 0, "On"), ("T", 0, "On"), ("K", 0, "Off")], "duplicate"),
    ([("K", 0, "On"), (None, 0, "On")], "null var"),
    ([("K", 0, "On"), ("T", None, "On")], "null t"),
    ([("K", 0, "On"), ("T", 0, None)], "null symbol"),
]


@pytest.mark.parametrize(
    "rows,message", BAD_DSYB, ids=[m.replace(" ", "_") for _, m in BAD_DSYB]
)
def test_joint_symbol_counts_rejects_bad_rows(spark, rows, message):
    symbols = spark.createDataFrame(rows, SYB_SCHEMA)
    with pytest.raises(ValueError, match=message):
        mi_mod.joint_symbol_counts(symbols)


@pytest.mark.parametrize("caller", [None, "caller's job"])
def test_joint_counts_describe_their_job(spark, monkeypatch, caller):
    """The D_SYB collect runs as ``mi.joint_counts``; the caller's
    description is back after a run that succeeds and one that raises,
    and the job group is untouched."""
    sc = spark.sparkContext
    symbols = spark.createDataFrame(symbols_pandas(), SYB_SCHEMA)
    seen = []
    to_arrow = type(symbols).toArrow

    def spy(df):
        seen.append(sc.getLocalProperty("spark.job.description"))
        if len(seen) > 1:
            raise RuntimeError("collect failed")
        return to_arrow(df)

    monkeypatch.setattr(type(symbols), "toArrow", spy)
    sc.setJobGroup("caller-group", "caller's group")
    sc.setLocalProperty("spark.job.description", caller)
    try:
        assert len(mi_mod.nmi_matrix(symbols))
        assert seen == ["mi.joint_counts"]
        assert sc.getLocalProperty("spark.job.description") == caller
        with pytest.raises(RuntimeError, match="collect failed"):
            mi_mod.joint_symbol_counts(symbols)
        assert seen == ["mi.joint_counts"] * 2
        assert sc.getLocalProperty("spark.job.description") == caller
        assert sc.getLocalProperty("spark.jobGroup.id") == "caller-group"
    finally:
        sc.setLocalProperty("spark.job.description", None)
        sc.setLocalProperty("spark.jobGroup.id", None)


def _reference_nmi(pdf):
    """Directed NMI from a pandas merge of every variable pair on ``t``."""
    out = {}
    names = sorted(pdf["var"].unique())
    for i, vx in enumerate(names):
        for vy in names[i + 1 :]:
            j = pdf[pdf["var"] == vx].merge(
                pdf[pdf["var"] == vy], on="t", suffixes=("_x", "_y")
            )
            if j.empty:
                continue
            c = j.groupby(["symbol_x", "symbol_y"]).size().unstack(fill_value=0)
            p = c.to_numpy(dtype=float) / len(j)
            px, py = p.sum(axis=1), p.sum(axis=0)
            nz = p > 0
            info = float((p[nz] * np.log(p[nz] / np.outer(px, py)[nz])).sum())
            hx = mi_mod.entropy(px)
            hy = mi_mod.entropy(py)
            out[(vx, vy)] = info / hx if hx > 0 else 0.0
            out[(vy, vx)] = info / hy if hy > 0 else 0.0
    return out


@st.composite
def dsybs(draw):
    """Up to 4 variables over up to 12 slots; a variable may miss any
    slot and may take a single symbol (zero entropy)."""
    rows = []
    for v in range(draw(st.integers(1, 4))):
        n_sym = draw(st.integers(1, 3))
        for t in range(draw(st.integers(1, 12))):
            sym = draw(st.integers(-1, n_sym - 1))
            if sym >= 0:
                rows.append((f"v{v}", t, f"s{sym}"))
    return pd.DataFrame(rows, columns=["var", "t", "symbol"])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pdf=dsybs())
def test_nmi_matrix_matches_pandas_reference(spark, pdf):
    nmi = mi_mod.nmi_matrix(spark.createDataFrame(pdf, SYB_SCHEMA))
    got = {k: float(v) for k, v in nmi["nmi"].items()}
    expected = _reference_nmi(pdf)
    assert set(got) == set(expected)
    for key, value in expected.items():
        assert abs(got[key] - value) <= 1e-9, key


def test_nmi_of_zero_entropy_variable_is_zero(spark):
    pdf = _constant_var_dsyb()
    nmi = mi_mod.nmi_matrix(spark.createDataFrame(pdf, SYB_SCHEMA))
    for other in ("v0", "v2"):
        assert float(nmi.loc[("v1", other), "nmi"]) == 0.0
        assert float(nmi.loc[(other, "v1"), "nmi"]) == pytest.approx(0.0, abs=1e-12)

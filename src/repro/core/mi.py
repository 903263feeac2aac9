"""Mutual information over the symbolic database (paper §V).

Entropy, conditional entropy, MI and *normalized* MI (NMI, Eq. 10 —
asymmetric: ``NMI(X;Y) = I(X;Y) / H(X)``) between symbolic time
series, computed from slot-aligned joint symbol counts.  The joint
counts come from one scan of D_SYB, as in the paper's complexity
analysis: the symbols are collected to the driver once as an Arrow
table, its columns coded as integers in Arrow and numpy (no Python
object per row), checked on those codes, placed per variable in a
slot × variable matrix, and counted with one ``np.bincount`` per
variable pair.  Each pair's block of counts is then reduced to NMI as
one dense contingency table in numpy.

Also here: the correlation graph (Def. 5.5), the density-driven choice
of the μ threshold (Def. 5.6), and the Theorem 1 confidence lower
bound.

All logarithms are natural: that reproduces the paper's worked example
``I(K;T) = 0.29`` from Table I.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame

from .collect import job_description
from .symbolize import SYMBOLS_COLUMNS

#: Columns of :func:`joint_symbol_counts`.
JOINT_COLUMNS = ["var_x", "var_y", "sym_x", "sym_y", "cnt"]


def entropy(p: np.ndarray) -> float:
    """Shannon entropy (nats) of a probability vector; 0·log0 := 0."""
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def mutual_information(joint: pd.DataFrame | np.ndarray) -> float:
    """MI (nats) from a contingency table of counts (rows: X, cols: Y)."""
    c = np.asarray(joint, dtype=float)
    total = c.sum()
    if total == 0:
        return 0.0
    pxy = c / total
    px = pxy.sum(axis=1, keepdims=True)
    py = pxy.sum(axis=0, keepdims=True)
    mask = pxy > 0
    ratio = np.where(mask, pxy / (px @ py), 1.0)
    return float((pxy[mask] * np.log(ratio[mask])).sum())


def nmi_from_joint(joint: pd.DataFrame | np.ndarray) -> tuple[float, float]:
    """(NMI(X;Y), NMI(Y;X)) from a contingency table (rows X, cols Y).

    NMI(X;Y) = I(X;Y) / H(X); degenerate zero-entropy series get NMI 0.
    """
    mi = mutual_information(joint)
    c = np.asarray(joint, dtype=float)
    total = c.sum()
    hx = entropy(c.sum(axis=1) / total)
    hy = entropy(c.sum(axis=0) / total)
    return (mi / hx if hx > 0 else 0.0, mi / hy if hy > 0 else 0.0)


def _dsyb_row(tbl: pa.Table, i: int) -> tuple:
    """Row ``i`` of a collected D_SYB, as an error message shows it."""
    return tuple(tbl.to_pandas().iloc[i])


def _codes(col: pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """``(codes, values)``: the column's distinct values, sorted, and
    each row's index into them."""
    values = pa.array(sorted(pc.unique(col).to_pylist()), type=col.type)
    return pc.index_in(col, value_set=values).to_numpy(), values.to_numpy(False)


def joint_symbol_counts(symbols: DataFrame) -> pd.DataFrame:
    """Slot-aligned joint symbol counts for every ordered variable pair.

    Input ``(var, t, symbol)``; output pandas frame
    ``(var_x, var_y, sym_x, sym_y, cnt)`` for ``var_x < var_y``, one row
    per symbol pair that co-occurs in at least one slot.  The rows come
    grouped by pair in ``(var_x, var_y)`` order, each pair's rows in
    ``(sym_x, sym_y)`` order.

    D_SYB is collected once as an Arrow table, in a Spark job described
    as ``mi.joint_counts`` (a frame with other columns is narrowed to
    these first), and its columns are coded as integers in
    Arrow and numpy: ``var`` and ``symbol`` by their rank among the
    sorted distinct values, ``t`` by slot.  The checks run on those
    codes: a null ``var``, ``t`` or ``symbol``, or a ``(var, t)`` that
    occurs twice, raises ``ValueError``.  Each variable's symbols are
    coded ``0..n_v - 1`` (sorted) in a slot × variable matrix, −1 where
    the variable has no reading; a pair's counts are one
    ``np.bincount`` of ``code_x * n_y + code_y`` over the slots where
    both are present.

    The driver holds D_SYB once (the Arrow table plus the code matrix),
    the same bound the driver miner accepts for D_SEQ.
    """
    # A frame of exactly these columns is collected as it is: Spark then
    # plans its query once, not on every call.
    if tuple(symbols.columns) != SYMBOLS_COLUMNS:
        symbols = symbols.select(*SYMBOLS_COLUMNS)
    with job_description(symbols.sparkSession, "mi.joint_counts"):
        tbl = symbols.toArrow()
    for name in SYMBOLS_COLUMNS:
        if tbl.column(name).null_count:
            i = int(np.argmax(pc.is_null(tbl.column(name)).to_numpy(False)))
            raise ValueError(f"D_SYB row {_dsyb_row(tbl, i)}: null {name}")
    var, names = _codes(tbl.column("var"))
    sym, alphabet = _codes(tbl.column("symbol"))
    slot, slots = pd.factorize(tbl.column("t").to_numpy())
    cell = slot * len(names) + var
    dup = np.bincount(cell, minlength=len(slots) * len(names))[cell] > 1
    if dup.any():
        row = _dsyb_row(tbl, int(np.argmax(dup)))
        raise ValueError(f"D_SYB row {row}: duplicate (var, t)")
    # seen[v, s]: variable v takes symbol s; its local code is the rank
    # of s among the symbols v takes.
    seen = np.zeros((len(names), len(alphabet)), dtype=bool)
    seen[var, sym] = True
    local = np.cumsum(seen, axis=1) - 1
    codes = np.full((len(slots), len(names)), -1, dtype=np.int64)
    codes[slot, var] = local[var, sym]
    n_sym = seen.sum(axis=1)
    parts = []
    for x, y in itertools.combinations(range(len(names)), 2):
        cx, cy = codes[:, x], codes[:, y]
        both = (cx >= 0) & (cy >= 0)
        cnt = np.bincount(
            cx[both] * n_sym[y] + cy[both], minlength=n_sym[x] * n_sym[y]
        )
        cells = np.flatnonzero(cnt)
        ix, iy = np.divmod(cells, n_sym[y])
        parts.append(
            np.stack(
                [
                    np.full(len(cells), x),
                    np.full(len(cells), y),
                    np.flatnonzero(seen[x])[ix],
                    np.flatnonzero(seen[y])[iy],
                    cnt[cells],
                ]
            )
        )
    if not parts:
        return pd.DataFrame(columns=JOINT_COLUMNS)
    vx, vy, sx, sy, cnt = np.concatenate(parts, axis=1)
    return pd.DataFrame(
        {
            "var_x": names[vx],
            "var_y": names[vy],
            "sym_x": alphabet[sx],
            "sym_y": alphabet[sy],
            "cnt": cnt,
        }
    )


def nmi_matrix(symbols: DataFrame) -> pd.DataFrame:
    """Directed NMI for every variable pair.

    Returns a pandas frame indexed by ``(var_x, var_y)`` for
    ``var_x != var_y`` with column ``nmi`` = NMI(X;Y) = I/H(X).  Pairs
    that share no slot have no row.  Each pair's rows of
    :func:`joint_symbol_counts`, one contiguous block, are one dense
    contingency table over the symbols that occur in them.
    """
    counts = joint_symbol_counts(symbols)
    vx, vy = counts["var_x"].to_numpy(), counts["var_y"].to_numpy()
    sx = pd.factorize(counts["sym_x"], sort=True)[0]
    sy = pd.factorize(counts["sym_y"], sort=True)[0]
    cnt = counts["cnt"].to_numpy()
    new_pair = np.ones(len(counts), dtype=bool)
    new_pair[1:] = (vx[1:] != vx[:-1]) | (vy[1:] != vy[:-1])
    bounds = np.append(np.flatnonzero(new_pair), len(counts)).tolist()
    rows = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        ux, ix = np.unique(sx[a:b], return_inverse=True)
        uy, iy = np.unique(sy[a:b], return_inverse=True)
        table = np.zeros((len(ux), len(uy)))
        table[ix, iy] = cnt[a:b]
        n_xy, n_yx = nmi_from_joint(table)
        rows.append((vx[a], vy[a], n_xy))
        rows.append((vy[a], vx[a], n_yx))
    return pd.DataFrame(rows, columns=["var_x", "var_y", "nmi"]).set_index(
        ["var_x", "var_y"]
    )


def pair_scores(nmi: pd.DataFrame) -> dict[frozenset, float]:
    """Undirected pair score = min(NMI(X;Y), NMI(Y;X)).

    A correlation-graph edge requires both directions ≥ μ (Def. 5.5),
    so the undirected score is the min of the two directed NMIs.
    """
    scores: dict[frozenset, float] = {}
    for (vx, vy), v in zip(nmi.index, nmi["nmi"].tolist()):
        key = frozenset((vx, vy))
        scores[key] = min(scores.get(key, v), v)
    return scores


def mu_for_density(nmi: pd.DataFrame, density: float) -> float:
    """μ achieving a target correlation-graph density (Def. 5.6).

    Keeps the top ``density`` fraction of the complete graph's edges
    ranked by undirected pair score: μ is the score of the last edge
    kept.  ``density=1`` keeps everything (μ = min score); ``density=0``
    prunes all edges.
    """
    scores = sorted(pair_scores(nmi).values(), reverse=True)
    if not scores:
        return 1.0
    n_keep = int(round(density * len(scores)))
    if n_keep <= 0:
        return math.nextafter(scores[0], math.inf) if density <= 0 else scores[0]
    n_keep = min(n_keep, len(scores))
    return scores[n_keep - 1]


def correlation_edges(nmi: pd.DataFrame, mu: float) -> set[frozenset]:
    """Edges of the correlation graph G_C at threshold μ."""
    return {pair for pair, s in pair_scores(nmi).items() if s >= mu}


def graph_density(nmi: pd.DataFrame, mu: float) -> float:
    """Achieved density of G_C at μ w.r.t. the complete graph."""
    scores = pair_scores(nmi)
    if not scores:
        return 0.0
    return sum(1 for s in scores.values() if s >= mu) / len(scores)


def confidence_lower_bound(
    sigma: float, sigma_m: float, mu: float, n_x: int
) -> float:
    """Theorem 1's LB on conf(X1, Y1) in D_SEQ (Eq. 11).

    ``sigma``: support threshold; ``sigma_m``: max support of the pair
    in D_SYB; ``mu``: MI threshold; ``n_x``: alphabet size of X.
    """
    if not 0 < sigma <= sigma_m <= 1 or n_x < 2:
        raise ValueError("need 0 < sigma <= sigma_m <= 1 and n_x >= 2")
    base = sigma**sigma_m * ((1 - sigma_m) / (n_x - 1)) ** (1 - sigma)
    return base ** ((1 - mu) / sigma) * sigma / (2 * sigma_m - sigma)


def all_pairs(variables: list[str]) -> list[frozenset]:
    """All undirected variable pairs (complete-graph edge set)."""
    return [frozenset(p) for p in itertools.combinations(sorted(variables), 2)]

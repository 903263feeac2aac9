"""Driver-side temporal sequence database with bitmap indexes.

``SequenceDatabase`` is the in-memory mining substrate built from the
Spark ``D_SEQ`` DataFrame produced by :mod:`repro.core.sequences`.  It
holds the instances once, in the CSR
:class:`repro.core.enumerate.InstanceTable` the miners extend, built
from the D_SEQ columns in array operations.  From that table it
derives the paper's key data structure — one boolean *bitmap* per
event marking the sequences in which the event occurs, for O(|D_SEQ|)
support and support-of-combination computations by vectorized
AND/popcount — and the per-sequence instance lists the baselines walk.
A database built from D_SEQ builds the lists at once; one made from a
table (A-HTPGM's restriction) derives the bitmaps and lists on first
use only.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pandas as pd

from .collect import job_description
from .enumerate import InstanceTable
from .model import EventId, Instance

#: Expected schema of a D_SEQ DataFrame (Spark or pandas).
DSEQ_COLUMNS = ("seq_id", "event", "start", "end")
#: Set bits of every byte value.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
#: Bytes of gathered bitmaps per batch of :meth:`SequenceDatabase.group_supports`.
_GATE_BYTES = 1 << 22


def _is_null(value) -> bool:
    return pd.api.types.is_scalar(value) and pd.isna(value)


def _is_integer(value) -> bool:
    """An integer, or a float without a fractional part."""
    if isinstance(value, (int, np.integer)):
        return True
    return isinstance(value, (float, np.floating)) and float(value).is_integer()


def check_dseq_row(seq_id, event, start, end) -> None:
    """Raise ``ValueError`` unless ``(seq_id, event, start, end)`` is a
    D_SEQ row: ``seq_id``, ``start`` and ``end`` integers (an integral
    float counts, as a column with a null holds floats), ``seq_id`` not
    negative, ``event`` not null and ``start < end``."""
    row = (seq_id, event, start, end)
    if _is_null(seq_id):
        raise ValueError(f"D_SEQ row {row}: seq_id is null")
    if not _is_integer(seq_id) or seq_id < 0:
        raise ValueError(f"D_SEQ row {row}: seq_id must be a non-negative integer")
    if pd.isna(event):
        raise ValueError(f"D_SEQ row {row}: event is null")
    for name, value in (("start", start), ("end", end)):
        if _is_null(value):
            raise ValueError(f"D_SEQ row {row}: {name} is null")
        if not _is_integer(value):
            raise ValueError(f"D_SEQ row {row}: {name} must be an integer")
    if not start < end:
        raise ValueError(f"D_SEQ row {row}: start must be < end")


def _not_integers(col: pd.Series) -> np.ndarray:
    """Per value of ``col``: not an integer, as :func:`check_dseq_row`
    reads ``seq_id``, ``start`` and ``end``."""
    if col.dtype.kind in "iu":
        return np.zeros(len(col), dtype=bool)
    if col.dtype.kind == "f":
        v = col.to_numpy()
        return ~np.isfinite(v) | (np.trunc(v) != v)
    return col.map(lambda v: not _is_integer(v)).to_numpy(bool)


def check_dseq_frame(pdf: pd.DataFrame) -> None:
    """:func:`check_dseq_row` over every row of a D_SEQ frame, vectorized:
    raise its ``ValueError`` for the first row that fails."""
    ints = ~np.logical_or.reduce(
        [_not_integers(pdf[c]) for c in ("seq_id", "start", "end")]
    )
    seq_id, start, end = (
        pdf[c].to_numpy()[ints].astype(np.int64) for c in ("seq_id", "start", "end")
    )
    bad = ~ints | pdf["event"].isna().to_numpy()
    bad[ints] |= (seq_id < 0) | ~(start < end)
    if bad.any():
        i = int(np.argmax(bad))
        check_dseq_row(*(pdf[c].iloc[i : i + 1].tolist()[0] for c in DSEQ_COLUMNS))


def anded_supports(packed: np.ndarray, rows) -> np.ndarray:
    """Per row of ``rows``, an (n, k) array of row indices into
    ``packed`` (bitmaps packed by ``np.packbits`` along axis 1): the
    set bits of the AND of its ``k`` bitmaps.  Gathers, ANDs and counts
    in batches of about ``_GATE_BYTES``."""
    idx = np.asarray(rows, dtype=np.int64)
    if not len(idx):
        return np.zeros(0, dtype=np.int64)
    step = max(1, _GATE_BYTES // max(idx.shape[1] * packed.shape[1], 1))
    out = np.empty(len(idx), dtype=np.int64)
    for i in range(0, len(idx), step):
        anded = np.bitwise_and.reduce(packed[idx[i : i + step]], axis=1)
        out[i : i + step] = _POPCOUNT[anded].sum(axis=1, dtype=np.int64)
    return out


@dataclass(frozen=True)
class SequenceDatabase:
    """Temporal sequence database D_SEQ (paper Def. 3.10) + bitmaps.

    Sequence ``i`` of ``table`` is the D_SEQ sequence with id ``i``, so
    ``table.n_seq`` counts the empty sequences too.
    """

    table: InstanceTable

    @property
    def n_seq(self) -> int:
        return self.table.n_seq

    @property
    def events(self) -> list[EventId]:
        return self.table.events

    @cached_property
    def _bitmap_matrix(self) -> np.ndarray:
        """Row ``r``: the bitmap of ``events[r]``, of length ``n_seq``."""
        return self.table.slot_sizes() > 0

    @cached_property
    def bitmaps(self) -> dict[EventId, np.ndarray]:
        """Event id -> bool bitmap of length ``n_seq``."""
        return dict(zip(self.events, self._bitmap_matrix))

    @cached_property
    def sequences(self) -> list[dict[EventId, list[Instance]]]:
        """Per sequence: event id -> instances sorted by (start, -end)."""
        t = self.table
        seqs: list[dict[EventId, list[Instance]]] = [{} for _ in range(t.n_seq)]
        pairs = list(zip(t.start.tolist(), t.end.tolist()))
        bounds = t.offsets.tolist()
        for slot in np.flatnonzero(t.slot_sizes()).tolist():
            rank, sid = divmod(slot, t.n_seq)
            seqs[sid][t.events[rank]] = pairs[bounds[slot] : bounds[slot + 1]]
        return seqs

    def support(self, event: EventId) -> int:
        return int(self.bitmaps[event].sum())

    def event_supports(self) -> dict[EventId, int]:
        return self.table.supports()

    def group_bitmap(self, events: tuple[EventId, ...]) -> np.ndarray:
        """AND of the events' bitmaps — sequences containing them all."""
        b = self.bitmaps[events[0]].copy()
        for e in events[1:]:
            b &= self.bitmaps[e]
        return b

    def group_support(self, events: tuple[EventId, ...]) -> int:
        return int(self.group_bitmap(events).sum())

    @cached_property
    def _packed_bitmaps(self) -> np.ndarray:
        return np.packbits(self._bitmap_matrix, axis=1)

    def group_supports(self, nodes) -> np.ndarray:
        """:meth:`group_support` of every row of ``nodes``, an (n, k)
        array of event ranks (indices into :attr:`events`), in one pass
        per batch: gather the rows of the packed bitmap matrix, AND-reduce
        and count the set bits."""
        return anded_supports(self._packed_bitmaps, nodes)

    @classmethod
    def from_rows(
        cls, rows, n_seq: int | None = None
    ) -> "SequenceDatabase":
        """Build from an iterable of (seq_id, event, start, end) rows.

        ``seq_id`` must be a 0-based integer; ``n_seq`` defaults to
        ``max(seq_id) + 1`` so empty trailing sequences need an explicit
        count.  A row that fails :func:`check_dseq_row`, or whose
        ``seq_id`` is not below an explicit ``n_seq``, raises
        ``ValueError``.
        """
        rows = list(rows)
        for row in rows:
            check_dseq_row(*row)
        return cls._from_columns(*(zip(*rows) if rows else ((),) * 4), n_seq=n_seq)

    @classmethod
    def from_pandas(cls, pdf: pd.DataFrame, n_seq: int | None = None):
        """Build from a D_SEQ frame, as :meth:`from_rows` does from its
        rows; the rows are checked with :func:`check_dseq_frame`."""
        check_dseq_frame(pdf)
        columns = (pdf[c].to_numpy() for c in DSEQ_COLUMNS)
        return cls._from_columns(*columns, n_seq=n_seq)

    @classmethod
    def _from_columns(cls, seq_id, event, start, end, *, n_seq):
        seq_id = np.asarray(seq_id, dtype=np.int64)
        top = int(seq_id.max(initial=-1))
        if n_seq is None:
            n_seq = top + 1
        elif top >= n_seq:
            raise ValueError(f"D_SEQ seq_id {top} is not below n_seq = {n_seq}")
        db = cls(InstanceTable.from_columns(seq_id, event, start, end, n_seq=n_seq))
        # Built with the database, so no baseline's timed run pays for it.
        _ = db.sequences
        return db

    @classmethod
    def from_spark(cls, dseq_df, n_seq: int | None = None):
        """Collect a Spark D_SEQ DataFrame (seq_id, event, start, end),
        in a Spark job described as ``seqdb.collect``."""
        with job_description(dseq_df.sparkSession, "seqdb.collect"):
            pdf = dseq_df.select(*DSEQ_COLUMNS).toPandas()
        return cls.from_pandas(pdf, n_seq)

    def to_pandas(self) -> pd.DataFrame:
        """Long-format view, the inverse of :meth:`from_pandas`."""
        recs = []
        for seq_id, seq in enumerate(self.sequences):
            for event, insts in seq.items():
                for s, e in insts:
                    recs.append((seq_id, event, s, e))
        return pd.DataFrame(recs, columns=list(DSEQ_COLUMNS))

    def avg_instances_per_sequence(self) -> float:
        total = sum(
            len(insts) for seq in self.sequences for insts in seq.values()
        )
        return total / self.n_seq if self.n_seq else 0.0

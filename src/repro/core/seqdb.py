"""Driver-side temporal sequence database with bitmap indexes.

``SequenceDatabase`` is the in-memory mining substrate built from the
Spark ``D_SEQ`` DataFrame produced by :mod:`repro.core.sequences`.  It
holds, per sequence, the instance lists grouped by event, and — the
paper's key data structure — one boolean *bitmap* per event marking the
sequences in which the event occurs, enabling O(|D_SEQ|) support and
support-of-combination computations via vectorized AND/popcount.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from .model import EventId, Instance

#: Expected schema of a D_SEQ DataFrame (Spark or pandas).
DSEQ_COLUMNS = ("seq_id", "event", "start", "end")


def check_dseq_row(seq_id, event, start, end) -> None:
    """Raise ``ValueError`` unless ``(seq_id, event, start, end)`` is a
    D_SEQ row: ``seq_id`` a non-negative integer, ``event`` not null and
    ``start < end``."""
    row = (seq_id, event, start, end)
    if not isinstance(seq_id, (int, np.integer)) or seq_id < 0:
        raise ValueError(f"D_SEQ row {row}: seq_id must be a non-negative integer")
    if pd.isna(event):
        raise ValueError(f"D_SEQ row {row}: event is null")
    if not start < end:
        raise ValueError(f"D_SEQ row {row}: start must be < end")


def check_dseq_frame(pdf: pd.DataFrame) -> None:
    """:func:`check_dseq_row` over every row of a D_SEQ frame, vectorized:
    raise its ``ValueError`` for the first row that fails."""
    seq_id = pdf["seq_id"]
    bad = pdf["event"].isna().to_numpy() | ~(pdf["start"] < pdf["end"]).to_numpy()
    if seq_id.dtype.kind in "iu":
        bad |= (seq_id < 0).to_numpy()
    else:  # a float column (it holds a null) or objects
        bad |= seq_id.map(
            lambda v: not isinstance(v, (int, np.integer)) or v < 0
        ).to_numpy(bool)
    if bad.any():
        i = int(np.argmax(bad))
        check_dseq_row(*(pdf[c].iloc[i : i + 1].tolist()[0] for c in DSEQ_COLUMNS))


@dataclass
class SequenceDatabase:
    """Temporal sequence database D_SEQ (paper Def. 3.10) + bitmaps."""

    n_seq: int
    #: per sequence: event id -> instances sorted by (start, -end)
    sequences: list[dict[EventId, list[Instance]]]
    #: event id -> bool bitmap of length n_seq
    bitmaps: dict[EventId, np.ndarray]

    @property
    def events(self) -> list[EventId]:
        return sorted(self.bitmaps)

    def support(self, event: EventId) -> int:
        return int(self.bitmaps[event].sum())

    def event_supports(self) -> dict[EventId, int]:
        return {e: self.support(e) for e in self.events}

    def group_bitmap(self, events: tuple[EventId, ...]) -> np.ndarray:
        """AND of the events' bitmaps — sequences containing them all."""
        b = self.bitmaps[events[0]].copy()
        for e in events[1:]:
            b &= self.bitmaps[e]
        return b

    def group_support(self, events: tuple[EventId, ...]) -> int:
        return int(self.group_bitmap(events).sum())

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
        top = max((r[0] for r in rows), default=-1)
        if n_seq is None:
            n_seq = top + 1
        elif top >= n_seq:
            raise ValueError(f"D_SEQ seq_id {top} is not below n_seq = {n_seq}")
        sequences: list[dict[EventId, list[Instance]]] = [
            {} for _ in range(n_seq)
        ]
        for seq_id, event, start, end in rows:
            sequences[seq_id].setdefault(event, []).append((int(start), int(end)))
        bitmaps: dict[EventId, np.ndarray] = {}
        for seq_id, seq in enumerate(sequences):
            for event, insts in seq.items():
                insts.sort(key=lambda it: (it[0], -it[1]))
                bm = bitmaps.get(event)
                if bm is None:
                    bm = bitmaps[event] = np.zeros(n_seq, dtype=bool)
                bm[seq_id] = True
        return cls(n_seq=n_seq, sequences=sequences, bitmaps=bitmaps)

    @classmethod
    def from_pandas(cls, pdf: pd.DataFrame, n_seq: int | None = None):
        return cls.from_rows(
            pdf[list(DSEQ_COLUMNS)].itertuples(index=False, name=None), n_seq
        )

    @classmethod
    def from_spark(cls, dseq_df, n_seq: int | None = None):
        """Collect a Spark D_SEQ DataFrame (seq_id, event, start, end)."""
        return cls.from_pandas(
            dseq_df.select(*DSEQ_COLUMNS).toPandas(), n_seq
        )

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

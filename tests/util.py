"""Shared test helpers: tiny handcrafted and randomized databases, and
a reader for the miners' per-level counters."""
import random

from repro.core.seqdb import SequenceDatabase


def random_db(
    *,
    n_seq: int = 12,
    n_vars: int = 4,
    seq_len: int = 30,
    max_runs: int = 3,
    p_present: float = 0.8,
    seed: int = 0,
) -> SequenceDatabase:
    """Random On/Off-style sequence database.

    Each variable contributes up to ``max_runs`` non-overlapping On
    instances per sequence with probability ``p_present``; deterministic
    in ``seed``.
    """
    rng = random.Random(seed)
    rows = []
    for sid in range(n_seq):
        for v in range(n_vars):
            if rng.random() > p_present:
                continue
            t = 0
            for _ in range(rng.randint(1, max_runs)):
                start = t + rng.randint(0, 4)
                end = start + rng.randint(1, 6)
                if end > seq_len:
                    break
                rows.append((sid, f"V{v}:On", start, end))
                t = end + 1
    return SequenceDatabase.from_rows(rows, n_seq=n_seq)


def kitchen_db() -> SequenceDatabase:
    """Handcrafted DB with a planted (K contains T) -> M pattern.

    5 sequences; the pattern holds in sequences 0-3, sequence 4 breaks
    it.  Supports: K=5, T=5, M=4, (K,T,M) combo=4.
    """
    rows = []
    for sid in range(4):
        rows += [
            (sid, "K", 0, 10),
            (sid, "T", 2, 8),
            (sid, "M", 12, 15),
        ]
    rows += [(4, "K", 0, 5), (4, "T", 6, 9)]  # K follows T, no M
    return SequenceDatabase.from_rows(rows, n_seq=5)


#: Rows that are no D_SEQ rows, each with the error it raises where it
#: enters a miner.
BAD_ROWS = [
    ([(0, "A", 0, 1), (-1, "B", 2, 3)], "seq_id must be a non-negative integer"),
    ([(0, "A", 5, 1), (0, "B", 6, 7)], "start must be < end"),
    ([(0, "A", 0, 1), (0, None, 2, 3)], "event is null"),
    ([(0, "A", 0, 1), (None, "B", 2, 3)], "seq_id is null"),
    ([(0, "A", 0, 1), (0, "a", None, 3)], "start is null"),
    ([(0, "A", 0, 1), (0, "B", 1.5, 3)], "start must be an integer"),
    ([(0, "A", 0, 1), (0, "B", 1, None)], "end is null"),
    ([(0, "A", 0, 1), (0, "B", 1, 2.5)], "end must be an integer"),
]


def pairs_checked(result) -> int:
    """The instance pairs the miner examined, summed over levels."""
    return sum(v for k, v in result.stats.items() if k.startswith("pairs_checked_l"))

"""Independent oracles for the benchmark's output checks.

These recompute distances and covering radii with NumPy enumeration and
breadth-first search, sharing no code with the hullforge kernels they
check.  Every check raises CheckError explicitly, so it still runs under
``python -O``.
"""

from __future__ import annotations

import numpy as np


class CheckError(Exception):
    """An op's output disagrees with its pinned digest or an oracle."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def parity(v: int) -> int:
    return v.bit_count() & 1


def span_words(rows) -> np.ndarray:
    """All 2^len(rows) GF(2) combinations of the rows, as uint64 words."""
    words = np.zeros(1, dtype=np.uint64)
    for r in rows:
        words = np.concatenate([words, words ^ np.uint64(r)])
    return words


def min_weight(rows) -> int:
    """Minimum nonzero weight of the row space (rows linearly independent)."""
    w = np.bitwise_count(span_words(rows)[1:])
    return int(w.min())


def _bfs_max(starts: np.ndarray, steps, nbits: int) -> int:
    dist = np.full(1 << nbits, -1, dtype=np.int16)
    dist[starts] = 0
    frontier = np.unique(starts)
    steps = np.asarray(steps, dtype=np.int64)
    w = 0
    while frontier.size:
        w += 1
        nxt = np.unique((frontier[:, None] ^ steps[None, :]).ravel())
        nxt = nxt[dist[nxt] < 0]
        dist[nxt] = w
        frontier = nxt
    require(bool((dist >= 0).all()), "BFS left words unreached")
    return int(dist.max())


def covering_radius_full_space(rows, n: int) -> int:
    """Largest distance from any length-n word to the code (n small)."""
    starts = span_words(rows).astype(np.int64)
    return _bfs_max(starts, [1 << j for j in range(n)], n)


def covering_radius_systematic(rows, n: int, k: int) -> int:
    """Covering radius of [I | A] by BFS over the 2^(n-k) syndromes.

    The parity-check matrix is [A^T | I]: column j < k has syndrome
    A_j (row j of A), column k + i has syndrome e_i.
    """
    m = n - k
    cols = [(rows[j] >> k) & ((1 << m) - 1) for j in range(k)]
    cols += [1 << i for i in range(m)]
    return _bfs_max(np.zeros(1, dtype=np.int64), cols, m)


def permute_bits(bits: int, perm) -> int:
    """Move coordinate j to coordinate perm[j]."""
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << perm[low.bit_length() - 1]
        bits ^= low
    return out

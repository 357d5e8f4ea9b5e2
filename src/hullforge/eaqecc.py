"""Entanglement-assisted quantum code parameters from classical hulls.

A classical [n, k] code whose hull has dimension h yields the parameter
sets [[n, k-h, d; n-k-h]] and [[n, n-k-h, d'; k-h]], where d and d' are
the distances of the code and its dual.  This module is bookkeeping for
those parameter sets and the quantum Singleton bound; a set holds only
n, k, d and c, and its MDS and degenerate flags are derived from them.
It builds no encoders and no dual: d' comes from the code's own weight
distribution by the MacWilliams identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .code import LinearCode, WeightDistribution
from .corpus import TableCell
from .errors import ClaimViolationError, UsageError

__all__ = [
    "EaqeccParams",
    "DerivationPair",
    "QuantumCell",
    "QuantumTable",
    "derive",
    "singleton_gap",
    "tabulate",
    "quantum_table_from_cells",
    "format_quantum_table",
]


@dataclass(frozen=True)
class EaqeccParams:
    """[[n, k, d; c]]: k logical qubits in n physical ones, c ebits.

    A degenerate set has k = 0 and no real quantum distance; d then
    records the underlying classical distance so that tables can still
    print the column.  degenerate (k = 0) and is_mds (a zero Singleton
    gap) are read from the four fields, never stored.
    """

    n: int
    k: int
    d: int
    c: int

    def __post_init__(self):
        if self.k < 0:
            raise UsageError(f"negative logical dimension {self.k}")
        if self.d < 1:
            raise UsageError(f"distance must be positive, got {self.d}")
        if not 0 <= self.c <= self.n - 1:
            raise UsageError(f"ebit count {self.c} outside [0, {self.n - 1}]")

    @property
    def is_mds(self) -> bool:
        return singleton_gap(self) == 0

    @property
    def degenerate(self) -> bool:
        return self.k == 0

    def __str__(self) -> str:
        return f"[[{self.n},{self.k},{self.d};{self.c}]]"


@dataclass(frozen=True)
class DerivationPair:
    """Primal and role-swapped parameter sets from one classical code.

    The ebit count of one side is the logical dimension of the other.
    dual_side is None exactly when the code is the full space, which
    has no dual distance; note says why.
    """

    primal: EaqeccParams
    dual_side: EaqeccParams | None
    note: str = ""

    def __post_init__(self):
        if self.dual_side is not None:
            if (
                self.primal.c != self.dual_side.k
                or self.primal.k != self.dual_side.c
            ):
                raise UsageError("primal and dual-side roles do not swap")


def singleton_gap(p: EaqeccParams) -> int:
    """Slack in n + c - k >= 2(d - 1); zero means MDS, negative means
    the parameters cannot come from a real code."""
    return p.n + p.c - p.k - 2 * (p.d - 1)


def _dual_weights(wd: WeightDistribution, n: int, k: int) -> Iterator[int]:
    """B_0, ..., B_n of the dual by MacWilliams, B_j = 2^-k sum_i A_i K_j(i),
    with t_i = A_i K_j(i) stepped by (j+1) K_{j+1} = (n-2i) K_j - (n-j+1) K_{j-1}
    for the weights i in wd only, as far as the caller reads."""
    coefs = [n - 2 * i for i, _ in wd.counts]
    prev, cur, found = [0] * len(coefs), [a for _, a in wd.counts], False  # t at j-1, j
    for j in range(n + 1):
        total = sum(cur)
        if total < 0 or total & ((1 << k) - 1):
            raise ClaimViolationError(f"MacWilliams B_{j} of [{n},{k}] code {wd} is not a count")
        found |= j > 0 and total > 0
        yield total >> k
        m = n - j + 1
        prev, cur = cur, [(c * t - m * p) // (j + 1) for c, t, p in zip(coefs, cur, prev)]
    if not found:
        raise ClaimViolationError(f"MacWilliams gives the [{n},{k}] code {wd} a zero dual")


def derive(code: LinearCode) -> DerivationPair:
    """Parameter sets entitled by a classical code and its hull; the dual
    distance d' is the least j >= 1 with B_j != 0 (_dual_weights)."""
    n, k = code.n, code.k
    h = code.hull_dim()
    d = code.min_distance()
    if h > n - k:  # the hull lies inside the dual, so this holds for every code
        raise ClaimViolationError(f"[{n},{k}] code with hull dimension {h} > n - k")
    primal = EaqeccParams(n, k - h, d, n - k - h)
    if k == n:
        return DerivationPair(primal, None, note="full-space code has no dual")
    dual_weights = _dual_weights(code.weight_distribution(), n, k)
    d_dual = next(j for j, b in enumerate(dual_weights) if j and b)
    dual_side = EaqeccParams(n, n - k - h, d_dual, k - h)
    return DerivationPair(primal, dual_side)


# ------------------------------------------------------------------- tables


@dataclass(frozen=True)
class QuantumCell:
    d: int
    c: int
    exact: bool = True

    def text(self) -> str:
        bound = "" if self.exact else ">="
        return f"({bound}{self.d};{self.c})"


@dataclass(frozen=True)
class QuantumTable:
    """Grid of (d; c) cells keyed by (n, logical dimension)."""

    h: int | None
    cells: Mapping[tuple[int, int], QuantumCell]

    def row(self, n: int) -> dict[int, QuantumCell]:
        return {kl: cell for (nn, kl), cell in self.cells.items() if nn == n}


def tabulate(codes: Sequence[LinearCode], h: int | None = None) -> QuantumTable:
    """Arrange a batch of same-hull codes as a (d; c) grid.

    Every code must have the declared hull dimension (or all the same
    one when none is declared).  Codes landing in the same cell keep
    the larger distance.
    """
    cells: dict[tuple[int, int], QuantumCell] = {}
    for code in codes:
        ch = code.hull_dim()
        if h is None:
            h = ch
        elif ch != h:
            raise UsageError(
                f"mixed hull dimensions: expected {h}, "
                f"[{code.n},{code.k}] has {ch}"
            )
        key = (code.n, code.k - h)
        d = code.min_distance()
        old = cells.get(key)
        if old is None or d > old.d:
            cells[key] = QuantumCell(d, code.n - code.k - h)
    return QuantumTable(h, cells)


def quantum_table_from_cells(cells: Iterable[TableCell]) -> QuantumTable:
    """Map a classical distance table through the parameter derivation.

    Each (n, k, d) cell with hull dimension h becomes a (d; n-k-h) cell
    in column k-h; zero-distance cells mark nonexistence and are
    dropped.  Bound flags carry over unchanged.
    """
    out: dict[tuple[int, int], QuantumCell] = {}
    h = None
    for cell in cells:
        if h is None:
            h = cell.h
        elif cell.h != h:
            raise UsageError(f"mixed source tables: hull {h} vs {cell.h}")
        if cell.d == 0:
            continue
        out[(cell.n, cell.k - h)] = QuantumCell(
            cell.d, cell.n - cell.k - h, cell.exact
        )
    return QuantumTable(h, out)


def format_quantum_table(table: QuantumTable, fmt: str = "text") -> str:
    """Render the grid; fmt is text, csv, or md."""
    if not table.cells:
        return ""
    texts = {key: cell.text() for key, cell in table.cells.items()}
    return _format_grid(texts, range(0, max(kl for _, kl in texts) + 1), fmt)


def _format_grid(texts: Mapping[tuple[int, int], str], cols: range, fmt: str) -> str:
    """One row per n, one column per entry of cols; fmt is text, csv, or md."""
    header = ["n/k"] + [str(c) for c in cols]
    body = [
        [str(n)] + [texts.get((n, c), "") for c in cols]
        for n in sorted({n for n, _ in texts})
    ]
    if fmt == "csv":
        return "\n".join(",".join(line) for line in [header] + body) + "\n"
    if fmt == "md":
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "---|" * len(header))
        lines += ["| " + " | ".join(line) + " |" for line in body]
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise UsageError(f"unknown table format {fmt!r}")
    widths = [
        max(len(line[i]) for line in [header] + body) for i in range(len(header))
    ]
    lines = []
    for line in [header] + body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(lines) + "\n"

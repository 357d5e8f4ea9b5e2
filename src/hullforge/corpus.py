"""Bundled reference data: generator-matrix fixtures and distance tables.

Matrix file format (one entry per file):

    # free-form note lines
    # source: <where the bytes came from>
    # optimality: optimal | h_optimal | lower_bound
    n k d h label
    <k rows, each exactly n characters from {0,1}, column 0 leftmost>

Lines starting with ``#`` before the header are comments; ``# source:``
and ``# optimality:`` are structured and become entry fields, anything
else is kept verbatim as a note.  A bare ``n k`` header (no claims) is
also accepted for ad-hoc matrix input.  Every bundled fixture is in
canonical form: the tests write each parsed entry back in this format
and get its text byte for byte.

Table files are line-delimited records with a fixed field order, one
cell per line (see ``load_tables`` and ``load_comparison``).

Entries whose recomputed parameters contradict their claimed ones are
never bundled in the main tree; they live under ``quarantine/`` with a
``# quarantine:`` reason line and are loaded separately, as findings
rather than fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .code import LinearCode
from .errors import CorpusFormatError, CorpusValidationError
from .gf2 import BitMatrix

__all__ = [
    "CorpusEntry",
    "MatrixFile",
    "QuarantinedEntry",
    "TableCell",
    "ComparisonRow",
    "OPTIMALITY_KINDS",
    "TABLE_IDS",
    "parse_entry",
    "parse_matrix_file",
    "read_text",
    "load_corpus",
    "load_quarantine",
    "load_tables",
    "load_comparison",
    "by_label",
    "data_root",
]

OPTIMALITY_KINDS = ("optimal", "h_optimal", "lower_bound")
TABLE_IDS = ("T1", "T3", "T5", "T7", "T9")
CONSTRUCTION_MARKS = ("I", "II", "III", "IV")


def data_root() -> Path:
    """Directory holding the bundled corpus files."""
    return Path(str(resources.files("hullforge").joinpath("data", "corpus")))


@dataclass(frozen=True)
class CorpusEntry:
    """One fixture matrix with its claimed parameters.

    ``optimality`` records the strongest claim the bundled tables make
    for this code: ``optimal`` (best possible for any [n,k] code),
    ``h_optimal`` (best possible at this hull dimension), or
    ``lower_bound`` (existence witness only).
    """

    label: str
    claimed_n: int
    claimed_k: int
    claimed_d: int
    claimed_h: int
    optimality: str
    source: str
    matrix: BitMatrix
    notes: tuple[str, ...] = ()

    def code(self) -> LinearCode:
        """The entry's code, built once, so its derived data is computed once."""
        return self._code

    @cached_property
    def _code(self) -> LinearCode:
        return LinearCode(self.matrix)

    def check(self) -> None:
        """Recompute (k, d, h) and raise unless all three match the claim."""
        if self.matrix.nrows != self.claimed_k:
            raise CorpusValidationError(
                f"{self.label}: {self.matrix.nrows} rows, claimed k={self.claimed_k}"
            )
        if self.matrix.ncols != self.claimed_n:
            raise CorpusValidationError(
                f"{self.label}: {self.matrix.ncols} columns, claimed n={self.claimed_n}"
            )
        code = self.code()
        got = (code.k, code.min_distance(), code.hull_dim())
        want = (self.claimed_k, self.claimed_d, self.claimed_h)
        if got != want:
            raise CorpusValidationError(
                f"{self.label}: claims (k,d,h)={want}, recomputed {got}"
            )


@dataclass(frozen=True)
class MatrixFile:
    """Parsed matrix file; claims are present only with the long header."""

    matrix: BitMatrix
    label: str | None = None
    claimed_d: int | None = None
    claimed_h: int | None = None


@dataclass(frozen=True)
class QuarantinedEntry:
    """A transcription that fails validation, kept with its diagnosis."""

    label: str
    claimed_n: int
    claimed_k: int
    claimed_d: int
    claimed_h: int
    reason: str
    rows: tuple[str, ...]
    source: str = ""
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class TableCell:
    """One cell of a best-distance table for a fixed hull dimension.

    ``exact`` is False for cells published as lower bounds.  Zero
    distances mark (n, k) pairs where no code with this hull dimension
    exists; they are stored verbatim.
    """

    table_id: str
    n: int
    k: int
    d: int
    exact: bool = True
    construction_marks: frozenset = field(default_factory=frozenset)
    optimal_mark: bool = False
    note: str = ""

    @property
    def h(self) -> int:
        """Hull dimension the table is restricted to."""
        return (TABLE_IDS.index(self.table_id)) + 1


@dataclass(frozen=True)
class ComparisonRow:
    """One claimed-parameters row of the quantum-code comparison table."""

    row: int
    known: tuple[int, int, int, int]
    ours: tuple[int, int, int, int]
    bold: bool
    source_table: str


def read_text(path: Path | str) -> str:
    """A data or matrix file's text, decoded as UTF-8 (every bundled file is
    ASCII).  Bytes that do not decode raise CorpusFormatError with the line
    they sit on, instead of the locale's UnicodeDecodeError."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = data.count(b"\n", 0, e.start) + 1
        msg = f"{path}: byte 0x{data[e.start]:02x} is not UTF-8"
        raise CorpusFormatError(msg, line=lineno) from None


def _split_lines(text: str) -> list[tuple[int, str]]:
    return [(i + 1, ln.rstrip("\n")) for i, ln in enumerate(text.splitlines())]


def _parse_header_and_rows(
    text: str, where: str
) -> tuple[list[int], str | None, dict[str, str], tuple[str, ...], list[str], int]:
    """Shared scaffolding: comments, header line, matrix rows.

    Returns (numeric header fields, label, structured comments, free
    notes, rows, header line number).  Row-count checks are left to the
    callers: quarantined files intentionally violate them.
    """
    structured: dict[str, str] = {}
    notes: list[str] = []
    header: list[int] | None = None
    label: str | None = None
    rows: list[str] = []
    header_line = 0
    for lineno, line in _split_lines(text):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if header is not None:
                raise CorpusFormatError(
                    f"{where}: comment after matrix rows", line=lineno
                )
            body = stripped[1:].strip()
            key, sep, value = body.partition(":")
            if sep and key.strip() in ("source", "optimality", "quarantine"):
                k = key.strip()
                v = value.strip()
                structured[k] = (structured[k] + " " + v) if k in structured else v
            else:
                notes.append(body)
            continue
        if header is None:
            parts = stripped.split()
            if len(parts) not in (2, 5):
                raise CorpusFormatError(
                    f"{where}: header needs 'n k' or 'n k d h label', got {len(parts)} fields",
                    line=lineno,
                )
            count = len(parts) - 1 if len(parts) == 5 else len(parts)
            try:
                header = [int(p) for p in parts[:count]]
            except ValueError:
                raise CorpusFormatError(
                    f"{where}: non-integer header field", line=lineno
                )
            if len(parts) == 5:
                label = parts[4]
            header_line = lineno
            continue
        if set(stripped) - {"0", "1"}:
            raise CorpusFormatError(
                f"{where}: matrix row has characters outside 0/1", line=lineno
            )
        if len(stripped) != header[0]:
            raise CorpusFormatError(
                f"{where}: row length {len(stripped)} != n={header[0]}", line=lineno
            )
        rows.append(stripped)
    if header is None:
        raise CorpusFormatError(f"{where}: no header line found")
    return header, label, structured, tuple(notes), rows, header_line


def parse_entry(text: str, where: str = "<string>") -> CorpusEntry:
    """Parse a full fixture file (long header required)."""
    header, label, structured, notes, rows, header_line = _parse_header_and_rows(
        text, where
    )
    if len(header) != 4 or label is None:
        raise CorpusFormatError(
            f"{where}: fixture entries need the 'n k d h label' header",
            line=header_line,
        )
    n, k, d, h = header
    if len(rows) != k:
        raise CorpusFormatError(
            f"{where}: {len(rows)} matrix rows, header claims k={k}",
            line=header_line,
        )
    optimality = structured.get("optimality", "lower_bound")
    if optimality not in OPTIMALITY_KINDS:
        raise CorpusFormatError(
            f"{where}: unknown optimality {optimality!r}", line=header_line
        )
    if "quarantine" in structured:
        raise CorpusFormatError(
            f"{where}: quarantined file loaded as a regular entry", line=header_line
        )
    return CorpusEntry(
        label=label,
        claimed_n=n,
        claimed_k=k,
        claimed_d=d,
        claimed_h=h,
        optimality=optimality,
        source=structured.get("source", ""),
        matrix=BitMatrix.from_strings(rows),
        notes=notes,
    )


def parse_matrix_file(text: str, where: str = "<string>") -> MatrixFile:
    """Parse either header form; used for command-line matrix input."""
    header, label, _structured, _notes, rows, header_line = _parse_header_and_rows(
        text, where
    )
    n, k = header[0], header[1]
    if len(rows) != k:
        raise CorpusFormatError(
            f"{where}: {len(rows)} matrix rows, header claims k={k}",
            line=header_line,
        )
    d = header[2] if len(header) == 4 else None
    h = header[3] if len(header) == 4 else None
    return MatrixFile(
        matrix=BitMatrix.from_strings(rows), label=label, claimed_d=d, claimed_h=h
    )


def parse_quarantined(text: str, where: str = "<string>") -> QuarantinedEntry:
    """Parse a quarantine file; the row count may contradict the header."""
    header, label, structured, notes, rows, header_line = _parse_header_and_rows(
        text, where
    )
    if len(header) != 4 or label is None:
        raise CorpusFormatError(
            f"{where}: quarantine entries need the 'n k d h label' header",
            line=header_line,
        )
    if "quarantine" not in structured:
        raise CorpusFormatError(
            f"{where}: quarantine file lacks a '# quarantine:' reason",
            line=header_line,
        )
    return QuarantinedEntry(
        label=label,
        claimed_n=header[0],
        claimed_k=header[1],
        claimed_d=header[2],
        claimed_h=header[3],
        reason=structured["quarantine"],
        rows=tuple(rows),
        source=structured.get("source", ""),
        notes=notes,
    )


def _iter_entry_files(root: Path) -> Iterable[Path]:
    for sub in sorted(root.iterdir()):
        if sub.is_dir() and sub.name.startswith("h") and sub.name[1:].isdigit():
            yield from sorted(sub.glob("*.txt"))


def load_corpus(root: Path | None = None, validate: bool = True) -> list[CorpusEntry]:
    """Load every bundled entry, verifying each claim unless told not to.

    Validation failures raise CorpusValidationError; a bad entry never
    loads silently.  Entries come back sorted by (h, n, k, label).
    """
    root = root if root is not None else data_root()
    entries = []
    for path in _iter_entry_files(root):
        entry = parse_entry(read_text(path), where=str(path))
        if validate:
            entry.check()
        entries.append(entry)
    entries.sort(key=lambda e: (e.claimed_h, e.claimed_n, e.claimed_k, e.label))
    return entries


def load_quarantine(root: Path | None = None) -> list[QuarantinedEntry]:
    root = root if root is not None else data_root()
    qdir = root / "quarantine"
    out = []
    if qdir.is_dir():
        for path in sorted(qdir.glob("*.txt")):
            out.append(parse_quarantined(read_text(path), where=str(path)))
    return out


def _records(path: Path, nfields: int, nints: int) -> Iterable[tuple[int, list]]:
    """(line number, fields) of each record line of a table file, the first
    nints fields read as integers; blank and # lines are skipped."""
    for lineno, line in _split_lines(read_text(path)):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != nfields:
            raise CorpusFormatError(
                f"{path}: expected {nfields} fields, got {len(parts)}", line=lineno
            )
        try:
            nums = [int(p) for p in parts[:nints]]
        except ValueError:
            raise CorpusFormatError(f"{path}: non-integer field", line=lineno) from None
        yield lineno, nums + parts[nints:]


def _parse_marks(tokens: str, where: str, lineno: int) -> frozenset:
    if tokens == "-":
        return frozenset()
    marks = tokens.split(",")
    for m in marks:
        if m not in CONSTRUCTION_MARKS:
            raise CorpusFormatError(
                f"{where}: unknown construction mark {m!r}", line=lineno
            )
    return frozenset(marks)


def load_tables(root: Path | None = None) -> list[TableCell]:
    """All cells of the five per-hull best-distance tables.

    Record format, one cell per line:
        n k d bound marks optimal note
    with bound in {=, >=}, marks a comma list of constructions or -,
    optimal 'o' or -, note free text or -.
    """
    root = root if root is not None else data_root()
    cells = []
    for table_id in TABLE_IDS:
        path = root / "tables" / f"{table_id.lower()}.txt"
        for lineno, (n, k, d, bound, marks, optimal, note) in _records(path, 7, 3):
            if bound not in ("=", ">="):
                raise CorpusFormatError(
                    f"{path}: bad bound field {bound!r}", line=lineno
                )
            if d < 0:
                raise CorpusFormatError(f"{path}: negative distance", line=lineno)
            cells.append(
                TableCell(
                    table_id=table_id,
                    n=n,
                    k=k,
                    d=d,
                    exact=(bound == "="),
                    construction_marks=_parse_marks(marks, str(path), lineno),
                    optimal_mark=(optimal == "o"),
                    note="" if note == "-" else note,
                )
            )
    return cells


def load_comparison(root: Path | None = None) -> list[ComparisonRow]:
    """Rows of the quantum-code comparison table.

    Record format: row kn kk kd kc on ok od oc bold table
    (k* = previously known parameters, o* = ours).
    """
    root = root if root is not None else data_root()
    path = root / "tables" / "t11.txt"
    rows = []
    for _, fields in _records(path, 11, 9):
        rows.append(
            ComparisonRow(
                row=fields[0],
                known=tuple(fields[1:5]),
                ours=tuple(fields[5:9]),
                bold=(fields[9] == "bold"),
                source_table=fields[10],
            )
        )
    return rows


def by_label(entries: Sequence[CorpusEntry]) -> dict[str, CorpusEntry]:
    index = {}
    for e in entries:
        if e.label in index:
            raise CorpusValidationError(f"duplicate label {e.label}")
        index[e.label] = e
    return index

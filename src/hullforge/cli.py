"""Command-line surface: inspect codes, lengthen them, sweep, reproduce.

Exit codes: 0 success, 1 validation failure (a reproduction mismatch or
a failed verification), 2 usage or parse error, 3 resource limit.
All output is deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import corpus
from .buildup import ConstructionKind, classify_extension, construct
from .code import LinearCode
from .eaqecc import (
    EaqeccParams,
    _format_grid,
    derive,
    format_quantum_table,
    quantum_table_from_cells,
    singleton_gap,
)
from .errors import (
    ClaimViolationError,
    CorpusValidationError,
    HullforgeError,
    ResourceLimitError,
    UsageError,
)
from .gf2 import BitVector, mat_mul, rank, transpose
from .search import (
    EXHAUSTIVE_CAP,
    _check_sweep,
    _sweep_chunks,
    are_equivalent,
    exhaustive_codes,
    format_claim,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

EVEN_TO_ODD = {"T2": "T1", "T4": "T3", "T6": "T5", "T8": "T7", "T10": "T9"}
ALL_TABLES = tuple(f"T{i}" for i in range(1, 12))


def _load_code(path: str) -> tuple[LinearCode, corpus.MatrixFile]:
    mf = corpus.parse_matrix_file(corpus.read_text(path), where=path)
    return LinearCode(mf.matrix), mf


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------- commands


def cmd_hull(args) -> int:
    code, _ = _load_code(args.file)
    h = code.hull_dim()
    print(
        f"h = {h}, k = {code.k}, LCD: {_yesno(h == 0)},"
        f" self-orthogonal: {_yesno(h == code.k)}"
    )
    return EXIT_OK


def cmd_distance(args) -> int:
    code, _ = _load_code(args.file)
    print(f"[{code.n},{code.k},{code.min_distance()}]")
    return EXIT_OK


def cmd_extend(args) -> int:
    code, _ = _load_code(args.file)
    try:
        x = BitVector.from01(args.x)
    except ValueError as e:
        raise UsageError(str(e)) from e
    if args.kind == "auto":
        kind = classify_extension(code, x)
    else:
        kind = ConstructionKind(args.kind)
    result = construct(code, x, kind)
    child = result.child
    print(f"[{child.n},{child.k},{child.min_distance()}] h={result.actual_hull}")
    if not args.verify_parity_check:
        return EXIT_OK
    H = result.parity_check
    print("H:")
    for row in H.to_strings():
        print(row)
    zero = all(b == 0 for b in mat_mul(child.gen, transpose(H)).row_bits)
    full = rank(H) == child.n - child.k
    spans = LinearCode(H).same_row_space(child.dual())
    print(f"G H^T = 0: {_yesno(zero)}")
    print(f"rank(H) = {child.n - child.k}: {_yesno(full)}")
    print(f"H spans dual: {_yesno(spans)}")
    return EXIT_OK if (zero and full and spans) else EXIT_MISMATCH


def cmd_sweep(args) -> int:
    code, mf = _load_code(args.file)
    kinds = None if not args.kinds else [ConstructionKind(k) for k in args.kinds]
    kinds, sid = _check_sweep(code, args.target_h, args.min_d, kinds, mf.label)
    count = 0
    for _, lines in _sweep_chunks(code, sid, args.target_h, args.min_d, kinds):
        sys.stdout.write("\n".join(lines) + "\n")  # each chunk as it is rendered
        count += len(lines)
    sys.stdout.write(f"# records: {count}\n")
    return EXIT_OK


def cmd_exhaustive(args) -> int:
    claim = exhaustive_codes(args.n, args.k, args.h, cap=args.cap)
    print(format_claim(claim))
    return EXIT_OK


def _params_line(role: str, p: EaqeccParams) -> str:
    tail = ", degenerate" if p.degenerate else ""
    return f"{role}: {p}, gap = {singleton_gap(p)}, MDS: {_yesno(p.is_mds)}{tail}"


def cmd_eaqecc(args) -> int:
    code, _ = _load_code(args.file)
    pair = derive(code)
    print(_params_line("primal", pair.primal))
    if pair.dual_side is None:
        print(f"dual side: none ({pair.note})")
    else:
        print(_params_line("dual side", pair.dual_side))
    return EXIT_OK


def cmd_equiv(args) -> int:
    a, _ = _load_code(args.fileA)
    b, _ = _load_code(args.fileB)
    verdict = are_equivalent(a, b)
    if verdict.equivalent is None:
        print("undecided: node cap reached")
        return EXIT_LIMIT
    print(f"equivalent: {_yesno(verdict.equivalent)}")
    if verdict.equivalent:
        print("permutation:", " ".join(str(i) for i in verdict.permutation))
    return EXIT_OK


# ---------------------------------------------------------- reproduce-tables


def _classical_grid(cells: list[corpus.TableCell], fmt: str) -> str:
    texts = {(c.n, c.k): ("" if c.exact else ">=") + str(c.d) for c in cells}
    ks = [k for _, k in texts]
    return _format_grid(texts, range(min(ks), max(ks) + 1), fmt)


def _check_odd_table(
    table_id: str,
    cells: list[corpus.TableCell],
    entries: list[corpus.CorpusEntry],
) -> tuple[int, list[str]]:
    h = cells[0].h
    index = {(c.n, c.k): c for c in cells}
    witnessed = 0
    mismatches = []
    for entry in entries:
        if entry.claimed_h != h:
            continue
        cell = index.get((entry.claimed_n, entry.claimed_k))
        if cell is None:
            continue
        witnessed += 1
        d = entry.code().min_distance()
        ok = d == cell.d if cell.exact else d >= cell.d
        if not ok:
            bound = "=" if cell.exact else ">="
            mismatches.append(
                f"MISMATCH {table_id} ({cell.n},{cell.k}): witness"
                f" {entry.label} has d={d}, table says {bound}{cell.d}"
            )
    return witnessed, mismatches


def _check_even_table(
    table_id: str,
    source_cells: list[corpus.TableCell],
    entries: list[corpus.CorpusEntry],
) -> tuple[int, list[str]]:
    table = quantum_table_from_cells(source_cells)
    h = table.h
    witnessed = 0
    mismatches = []
    for entry in entries:
        if entry.claimed_h != h:
            continue
        cell = table.cells.get((entry.claimed_n, entry.claimed_k - h))
        if cell is None:
            continue
        witnessed += 1
        p = derive(entry.code()).primal
        ok = p.c == cell.c and (p.d == cell.d if cell.exact else p.d >= cell.d)
        if not ok:
            mismatches.append(
                f"MISMATCH {table_id} ({entry.claimed_n},{entry.claimed_k - h}):"
                f" witness {entry.label} gives ({p.d};{p.c}),"
                f" table says {cell.text()}"
            )
    return witnessed, mismatches


def _check_comparison(
    rows: list[corpus.ComparisonRow],
    entries: list[corpus.CorpusEntry],
) -> tuple[int, list[str]]:
    derived = [
        (e.label, derive(e.code()).primal) for e in entries if e.claimed_k < e.claimed_n
    ]
    witnessed = 0
    mismatches = []
    for row in rows:
        witnessed += 1
        n, k, d, c = row.ours
        if not any((p.n, p.k, p.d, p.c) == (n, k, d, c) for _, p in derived):
            mismatches.append(
                f"MISMATCH T11 row {row.row}: no corpus code derives"
                f" [[{n},{k},{d};{c}]]"
            )
    return witnessed, mismatches


def cmd_reproduce(args) -> int:
    entries = corpus.load_corpus()
    all_cells = corpus.load_tables()
    by_table: dict[str, list[corpus.TableCell]] = {}
    for cell in all_cells:
        by_table.setdefault(cell.table_id, []).append(cell)

    tables = [args.table] if args.table else list(ALL_TABLES)
    total_mismatches = []
    for table_id in tables:
        if table_id in corpus.TABLE_IDS:
            cells = by_table[table_id]
            if args.table:
                print(_classical_grid(cells, args.format), end="")
            witnessed, mismatches = _check_odd_table(table_id, cells, entries)
        elif table_id in EVEN_TO_ODD:
            cells = by_table[EVEN_TO_ODD[table_id]]
            if args.table:
                print(format_quantum_table(quantum_table_from_cells(cells), args.format), end="")
            witnessed, mismatches = _check_even_table(table_id, cells, entries)
        else:  # T11
            rows = corpus.load_comparison()
            if args.table:
                for row in rows:
                    kn, kk, kd, kc = row.known
                    on, ok_, od, oc = row.ours
                    star = " *" if row.bold else ""
                    print(
                        f"known [[{kn},{kk},{kd};{kc}]] vs"
                        f" ours [[{on},{ok_},{od};{oc}]]{star}"
                    )
            witnessed, mismatches = _check_comparison(rows, entries)
        for line in mismatches:
            print(line)
        print(f"# {table_id}: {witnessed} witnessed, {len(mismatches)} mismatches")
        total_mismatches += mismatches
    if not args.table:
        print(f"# total mismatches: {len(total_mismatches)}")
    return EXIT_MISMATCH if total_mismatches else EXIT_OK


# -------------------------------------------------------------------- main


class _Parser(argparse.ArgumentParser):
    """Argument errors become one `error:` line and exit 2, as every other usage error."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hullforge",
        description="Binary linear codes with hull control.",
        epilog="HULLFORGE_MAX_K overrides the codeword enumeration cap.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hull", help="hull dimension and code class")
    p.add_argument("file")
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("distance", help="minimum distance")
    p.add_argument("file")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("extend", help="lengthen by two coordinates")
    p.add_argument("file")
    p.add_argument("--x", required=True, help="extension vector, 0/1 string")
    p.add_argument("--kind", default="auto", choices=["I", "II", "III", "IV", "auto"])
    p.add_argument("--verify-parity-check", action="store_true")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("sweep", help="try every extension vector")
    p.add_argument("file")
    p.add_argument("--target-h", type=int, required=True)
    p.add_argument("--min-d", type=int, default=1)
    p.add_argument("--kinds", nargs="+", choices=["I", "II", "III", "IV"], default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("exhaustive", help="settle one (n, k, h) cell")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument(
        "--cap", type=int, default=None, help=f"k(n-k) ceiling (default {EXHAUSTIVE_CAP})"
    )
    p.set_defaults(func=cmd_exhaustive)

    p = sub.add_parser("eaqecc", help="quantum parameter sets")
    p.add_argument("file")
    p.set_defaults(func=cmd_eaqecc)

    p = sub.add_parser("reproduce-tables", help="check the stored result grids against the corpus")
    p.add_argument("--table", choices=list(ALL_TABLES), default=None)
    p.add_argument("--format", choices=["text", "csv", "md"], default="text")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("equiv", help="column-permutation equivalence")
    p.add_argument("fileA")
    p.add_argument("fileB")
    p.set_defaults(func=cmd_equiv)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if [] in vars(args).values():  # argparse reads "--opt=--" as no value at all
            raise UsageError("an option was given '--' as its value")
        status = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader has all it wanted: end quietly, with nothing left to flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ResourceLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_LIMIT
    except (CorpusValidationError, ClaimViolationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except (HullforgeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Fuzzed command lines: every input ends in exit 0-3 and at most one
`error:` line, never a traceback.

Inputs stay at bundled size (n <= 13): mutated copies of the bundled
matrix files and random argument vectors for the file and search
commands, run in-process through main(argv); argv that argparse itself
refuses must exit 2 with one `error:` line.  `exhaustive --cap` is
drawn up to 30, where the slowest in-cap cell, (11, 5), takes about
0.2 s; the caps do not bound time to 1 s beyond that.
"""

import contextlib
import io
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullforge import cli
from hullforge.corpus import data_root
from hullforge.errors import ClaimViolationError, CorpusValidationError

BUNDLED = sorted(data_root().glob("*/*.txt"))
MATRIX_FILES = [p for p in BUNDLED if p.parent.name != "tables"]
MISSING, DIRECTORY = "<missing>", "<directory>"  # file arguments that name no file

# integers as argparse reads them: small ones, the edges of machine words, and beyond
INTS = st.one_of(
    st.integers(-3, 16),
    st.sampled_from([2**31, 2**32, 2**63 - 1, 2**63, 2**64, 10**40, -(2**63), -(10**40)]),
)
BYTES = st.sampled_from(list(b"01 \t\r\n#x-9:") + [0x00, 0x7F, 0xC3, 0xFF])
TOKENS = st.one_of(
    INTS.map(str),
    st.sampled_from(["", "x", "1.5", "1e3", "-0", "+3", "0x10", "٣", "label", "a b"]),
)


@st.composite
def header_edit(draw, text: bytes) -> bytes:
    """Replace, drop or add one field of the first non-comment line."""
    lines = text.split(b"\n")
    at = next((i for i, ln in enumerate(lines) if ln.strip() and not ln.startswith(b"#")), None)
    if at is None:
        return text
    fields = lines[at].split()
    i = draw(st.integers(0, len(fields)))
    token = draw(TOKENS).encode()
    op = draw(st.sampled_from(["replace", "drop", "add"]))
    if op == "add" or i == len(fields):
        fields.insert(i, token)
    elif op == "drop":
        del fields[i]
    else:
        fields[i] = token
    lines[at] = b" ".join(fields)
    return b"\n".join(lines)


@st.composite
def matrix_file(draw) -> bytes | str:
    """The bytes of a bundled matrix file after up to three byte flips,
    truncations or header-field edits; or a marker for no file."""
    src = draw(st.sampled_from(MATRIX_FILES + [MISSING, DIRECTORY]))
    if isinstance(src, str):
        return src
    text = src.read_bytes()
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["flip", "truncate", "header"]))
        if op == "header":
            text = draw(header_edit(text))
        elif text:
            i = draw(st.integers(0, len(text) - 1))
            text = text[:i] if op == "truncate" else text[:i] + bytes([draw(BYTES)]) + text[i + 1:]
    return text


def _declared_n(file: bytes | str) -> int:
    """The first header field, if it is a small integer, else 0."""
    lines = file.split(b"\n") if isinstance(file, bytes) else []
    fields = next((ln.split() for ln in lines if ln.strip() and not ln.startswith(b"#")), [])
    return int(fields[0]) if fields and fields[0].isdigit() and int(fields[0]) <= 16 else 0


def _opt(name: str, value) -> list[str]:
    # the --name=value form, so a value that starts with "-" stays a value
    return [] if value is None else [f"--{name}={value}"]


@st.composite
def argv(draw) -> list:
    """A command line whose file arguments are matrix_file() draws."""
    command = draw(st.sampled_from(
        ["hull", "distance", "extend", "sweep", "eaqecc", "equiv", "exhaustive"]
    ))
    kinds = st.sampled_from(["I", "II", "III", "IV"])
    if command in ("hull", "distance", "eaqecc"):
        return [command, draw(matrix_file())]
    if command == "equiv":
        return [command, draw(matrix_file()), draw(matrix_file())]
    if command == "extend":
        file = draw(matrix_file())
        n = _declared_n(file)
        x = draw(st.one_of(
            st.text("01", min_size=n, max_size=n),  # the length the header declares
            st.text("01", min_size=0, max_size=16),
            st.text("01x2- ", min_size=1, max_size=16),
        ))
        kind = draw(st.one_of(st.none(), kinds, st.just("auto")))
        check = ["--verify-parity-check"] if draw(st.booleans()) else []
        return [command, file, *_opt("x", x), *_opt("kind", kind), *check]
    if command == "sweep":
        picked = draw(st.one_of(st.none(), st.lists(kinds, min_size=1, max_size=4)))
        return [
            command, draw(matrix_file()), *_opt("target-h", draw(INTS)),
            *_opt("min-d", draw(st.one_of(st.none(), INTS))),
            *(["--kinds", *picked] if picked else []),
        ]
    cap = draw(st.one_of(st.none(), st.integers(-3, 30)))
    return [
        command, *_opt("n", draw(INTS)), *_opt("k", draw(INTS)), *_opt("h", draw(INTS)),
        *_opt("cap", cap),
    ]


REQUIRED = {"extend": ["x"], "sweep": ["target-h"], "exhaustive": ["n", "k", "h"]}
NOT_CHOICES = st.sampled_from(["V", "i", "iv", "Auto", "", "I,II", "0"])
NOT_INTS = st.sampled_from(["x", "1.5", "1e3", "0x10", "", "a b", "3-"])


@st.composite
def rejected_argv(draw) -> list:
    """An argv() draw that argparse refuses: a required option or file
    dropped, a --kind/--kinds value out of its choices, a non-integer
    size, or an unknown subcommand or none."""
    args = draw(argv())
    command = args[0]
    how = draw(st.sampled_from(["drop", "choice", "integer", "command"]))
    if how == "drop":
        if command not in REQUIRED:
            return args[:-1]  # the last file argument
        name = draw(st.sampled_from(REQUIRED[command]))
        return [a for a in args if not str(a).startswith(f"--{name}=")]
    if how == "choice" and command in ("extend", "sweep"):
        bad = draw(NOT_CHOICES)
        return args + (["--kinds", "I", bad] if command == "sweep" else [f"--kind={bad}"])
    if how == "integer" and command in ("sweep", "exhaustive"):
        names = ["target-h", "min-d"] if command == "sweep" else ["n", "k", "h", "cap"]
        return args + _opt(draw(st.sampled_from(names)), draw(NOT_INTS))
    bad = draw(st.sampled_from(["bogus", "Hull", "", "sweeps", "reproduce_tables"]))
    return draw(st.sampled_from([[], [bad, *args[1:]]]))


def _recording(func, raised: list):
    def run(args):
        try:
            return func(args)
        except Exception as e:
            raised.append(e)
            raise
    return run


def _materialize(drawn: list, workdir: Path) -> list[str]:
    args = []
    for i, arg in enumerate(drawn):
        if isinstance(arg, bytes):
            path = workdir / f"arg{i}.txt"
            path.write_bytes(arg)
            arg = str(path)
        elif arg in (MISSING, DIRECTORY):
            arg = str(workdir / "missing.txt") if arg == MISSING else str(workdir)
        args.append(arg)
    return args


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(workdir: Path, drawn: list):
    """main(argv) on the materialized draw: (argv, rc, stdout, stderr lines, raised)."""
    args = _materialize(drawn, workdir)
    raised: list[Exception] = []
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for name in dir(cli):
            if name.startswith("cmd_"):
                mp.setattr(cli, name, _recording(getattr(cli, name), raised))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a warning on stderr is a second line
                start = time.perf_counter()
                rc = cli.main(args)
                elapsed = time.perf_counter() - start
    assert rc in (0, 1, 2, 3), args
    assert elapsed <= 1.0, (args, elapsed)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), (args, lines)
    return args, rc, out.getvalue(), lines, raised


@settings(max_examples=1000, deadline=None)
@given(drawn=argv())
def test_fuzzed_command_lines_end_in_an_exit_code(workdir, drawn):
    args, rc, out, lines, raised = _run(workdir, drawn)
    if rc == 1:
        if raised:
            assert isinstance(raised[0], (ClaimViolationError, CorpusValidationError)), args
        else:  # a mismatch the parity-check report states itself
            assert args[0] == "extend" and "--verify-parity-check" in args, args
            assert ": no" in out, args
    if rc == 0 or (rc == 1 and not raised):
        assert lines == [], args


@settings(max_examples=150, deadline=None)
@given(drawn=rejected_argv())
def test_argv_that_argparse_refuses_is_one_error_line(workdir, drawn):
    args, rc, out, lines, raised = _run(workdir, drawn)
    assert (rc, out, raised) == (2, "", []), args
    assert len(lines) == 1, args

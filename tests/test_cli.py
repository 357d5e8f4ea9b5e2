"""End-to-end checks of the command-line surface.

Commands run in-process through main(argv); one test goes through the
installed console script to confirm the entry point wiring.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hullforge import search
from hullforge.cli import EXIT_LIMIT, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from hullforge.code import LinearCode
from hullforge.corpus import data_root, parse_matrix_file

H1 = data_root() / "h1"
H3 = data_root() / "h3"
H0 = data_root() / "h0"
SEED = str(H1 / "seed_10_6_3.txt")
G3_12_7_4 = str(H3 / "G3_12_7_4.txt")
G1_13_11_2 = str(H1 / "G1_13_11_2.txt")


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_hull_output(capsys):
    rc, out = run(capsys, "hull", G3_12_7_4)
    assert rc == EXIT_OK
    assert out == "h = 3, k = 7, LCD: no, self-orthogonal: no\n"


def test_hull_lcd(capsys):
    rc, out = run(capsys, "hull", str(H0 / "D0_5_2_2.txt"))
    assert rc == EXIT_OK
    assert out == "h = 0, k = 2, LCD: yes, self-orthogonal: no\n"


def test_distance_output(capsys):
    rc, out = run(capsys, "distance", G3_12_7_4)
    assert rc == EXIT_OK
    assert out == "[12,7,4]\n"


def test_extend_explicit_kind(capsys):
    rc, out = run(capsys, "extend", SEED, "--x", "0000011000", "--kind", "III")
    assert rc == EXIT_OK
    assert out == "[12,7,3] h=2\n"


def test_extend_auto_routes_to_same_child(capsys):
    _, explicit = run(capsys, "extend", SEED, "--x", "0000011000", "--kind", "III")
    rc, auto = run(capsys, "extend", SEED, "--x", "0000011000")
    assert rc == EXIT_OK
    assert auto == explicit


def test_extend_wrong_kind_is_usage_error(capsys):
    rc = main(["extend", SEED, "--x", "0000011000", "--kind", "I"])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_extend_nonbinary_x_is_usage_error(capsys):
    rc = main(["extend", SEED, "--x", "01a1011000"])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_extend_verify_parity_check(capsys):
    rc, out = run(
        capsys, "extend", SEED, "--x", "0000011000", "--verify-parity-check"
    )
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "[12,7,3] h=2"
    assert lines[1] == "H:"
    assert len(lines[2]) == 12 and set(lines[2]) <= {"0", "1"}
    assert lines[-3:] == [
        "G H^T = 0: yes",
        "rank(H) = 5: yes",
        "H spans dual: yes",
    ]


def test_sweep_output(capsys):
    rc, out = run(capsys, "sweep", SEED, "--target-h", "2", "--min-d", "3")
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[-1] == "# records: 208"
    first = lines[0].split()
    assert first[0] == "SWEEP"
    assert first[1] == "seed_10_6_3"
    assert first[3] in {"I", "II", "III"}
    assert [first[4], first[6], first[7]] == ["12", "3", "2"]


def _reference_lines(path, label, target_h, min_d):
    seed = LinearCode(parse_matrix_file(Path(path).read_text()).matrix)
    return "".join(
        search.format_sweep_record(r) + "\n"
        for r in search.sweep_extensions(seed, target_h, min_d, seed_id=label, engine="reference")
    )


def test_sweep_stdout_is_the_reference_lines(capsys):
    want = _reference_lines(SEED, "seed_10_6_3", 2, 3)
    rc, out = run(capsys, "sweep", SEED, "--target-h", "2", "--min-d", "3")
    assert rc == EXIT_OK
    assert out == want + "# records: 208\n"
    rc, out = run(capsys, "sweep", SEED, "--target-h", "2", "--min-d", "30")
    assert rc == EXIT_OK
    assert out == "# records: 0\n"
    # 6,144 records, across chunk boundaries
    want = _reference_lines(G1_13_11_2, "G1_13_11_2", 2, 1)
    rc, out = run(capsys, "sweep", G1_13_11_2, "--target-h", "2")
    assert rc == EXIT_OK
    assert out == want + "# records: 6144\n"


class _CountedWrites:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("chunk", [1, 16, 207, 208, 1000])
def test_sweep_writes_each_chunk_as_it_is_rendered(monkeypatch, chunk):
    monkeypatch.setattr(search, "RENDER_CHUNK", chunk)
    out = _CountedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["sweep", SEED, "--target-h", "2", "--min-d", "3"]) == EXIT_OK
    full, rest = divmod(208, chunk)
    assert len(out.writes) == -(-208 // chunk) + 1  # one write per chunk, then the count
    assert [w.count("\n") for w in out.writes[:-1]] == [chunk] * full + [rest] * bool(rest)
    assert out.writes[-1] == "# records: 208\n"
    out.writes.clear()
    assert main(["sweep", SEED, "--target-h", "2", "--min-d", "30"]) == EXIT_OK
    assert out.writes == ["# records: 0\n"]


LYING_KERNEL = """
import sys
import numpy as np
from hullforge import cli, search

real = search.sweep_children

def lying(seed):  # the last III lane whose child's hull is not 2 is said to have hull 2
    d10, d11, dc, h3, ypack, odd = real(seed)
    h3 = h3.copy()
    h3[np.flatnonzero(~odd & (ypack != 0) & (h3 != 2))[-1]] = 2
    return d10, d11, dc, h3, ypack, odd

search.sweep_children = lying
search.RENDER_CHUNK = 4  # many chunks of good lines come before the bad lane
sys.exit(cli.main(["sweep", sys.argv[1], "--target-h", "2"]))
"""


def test_streamed_sweep_writes_nothing_before_its_checks():
    # the checks raise, so python -O keeps them, and they run before any line is written
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", LYING_KERNEL, SEED],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == EXIT_MISMATCH, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: sweep child III at x=")
    assert "(kernel 2, predicted" in lines[0]


def test_sweep_kind_filter(capsys):
    rc, out = run(
        capsys, "sweep", SEED, "--target-h", "2", "--min-d", "3", "--kinds", "II"
    )
    assert rc == EXIT_OK
    body = out.splitlines()[:-1]
    assert all(line.split()[3] == "II" for line in body)


def test_sweep_claim_violation_is_a_failed_verification(capsys, monkeypatch):
    monkeypatch.setattr(search, "predicted_hull", lambda kind, ell: frozenset())
    rc = main(["sweep", SEED, "--target-h", "2", "--min-d", "3"])
    assert rc == EXIT_MISMATCH
    assert "predicted" in capsys.readouterr().err


def test_sweep_over_lane_step_cap(tmp_path, capsys):
    rows = ["1" + "0" * (i - 1) + "1" + "0" * (15 - i) for i in range(1, 16)]
    f = tmp_path / "even_16_15.txt"
    f.write_text("16 15 2 1 even_16_15\n" + "\n".join(rows) + "\n")
    rc = main(["sweep", str(f), "--target-h", "1"])
    assert rc == EXIT_LIMIT
    assert "n + k <= 30" in capsys.readouterr().err


def test_exhaustive_claim_line(capsys):
    rc, out = run(capsys, "exhaustive", "--n", "7", "--k", "3", "--h", "3")
    assert rc == EXIT_OK
    assert out == "CLAIM 7 3 3 4 h_optimal exhaustive 1001110,0101101,0011011\n"


def test_exhaustive_over_cap(capsys):
    rc = main(["exhaustive", "--n", "20", "--k", "10", "--h", "0"])
    assert rc == EXIT_LIMIT
    assert "cap" in capsys.readouterr().err


def test_exhaustive_raised_cap(capsys):
    # k(n-k) = 30 is over the default cap of 22
    rc, out = run(capsys, "exhaustive", "--n", "11", "--k", "5", "--h", "1", "--cap", "30")
    assert rc == EXIT_OK
    assert out == search.format_claim(search.exhaustive_codes(11, 5, 1, cap=30)) + "\n"
    assert out.startswith("CLAIM 11 5 1 4 h_optimal exhaustive ")


def test_exhaustive_over_raised_cap(capsys):
    rc = main(["exhaustive", "--n", "11", "--k", "5", "--h", "1", "--cap", "29"])
    assert rc == EXIT_LIMIT
    assert "k(n-k) = 30 exceeds enumeration cap 29" in capsys.readouterr().err


def test_exhaustive_negative_cap_is_a_usage_error(capsys):
    rc = main(["exhaustive", "--n", "5", "--k", "2", "--h", "1", "--cap", "-1"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "error: cap must be a non-negative integer, got -1\n"


def test_eaqecc_output(capsys):
    rc, out = run(capsys, "eaqecc", G3_12_7_4)
    assert rc == EXIT_OK
    assert out == (
        "primal: [[12,4,4;2]], gap = 4, MDS: no\n"
        "dual side: [[12,2,4;4]], gap = 8, MDS: no\n"
    )


def test_eaqecc_full_space(tmp_path, capsys):
    f = tmp_path / "full.txt"
    f.write_text("2 2 1 0 tiny_full\n10\n01\n")
    rc, out = run(capsys, "eaqecc", str(f))
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("primal: [[2,2,1;0]]")
    assert lines[1] == "dual side: none (full-space code has no dual)"


def test_equiv_yes(capsys):
    rc, out = run(capsys, "equiv", G3_12_7_4, G3_12_7_4)
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "equivalent: yes"
    assert lines[1].startswith("permutation: ")


def test_equiv_no(capsys):
    rc, out = run(capsys, "equiv", str(H1 / "G1_12_7_4.txt"), G3_12_7_4)
    assert rc == EXIT_OK
    assert out == "equivalent: no\n"


def test_reproduce_all_tables(capsys):
    rc, out = run(capsys, "reproduce-tables")
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 12
    for i, tid in enumerate(f"T{j}" for j in range(1, 12)):
        assert lines[i].startswith(f"# {tid}: ")
        assert lines[i].endswith("0 mismatches")
    assert lines[-1] == "# total mismatches: 0"


def test_reproduce_single_table_grid(capsys):
    rc, out = run(capsys, "reproduce-tables", "--table", "T2")
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("n/k")
    assert lines[-1].endswith("0 mismatches")
    assert "(12;11)" in out


def test_reproduce_csv_format(capsys):
    rc, out = run(capsys, "reproduce-tables", "--table", "T1", "--format", "csv")
    assert rc == EXIT_OK
    assert out.splitlines()[0] == "n/k,1,2,3,4,5,6,7,8,9,10,11,12"


# sha256 of `reproduce-tables --table T --format F` stdout, pinned so that a
# change to the grid renderer cannot alter a byte of any table
GRID_DIGESTS = {
    ("T1", "text"): "6f9fbf25b28a6b905688a73665f04a378c5bdb60b90778a0c2e6e13ef123a312",
    ("T1", "csv"): "d88d54e2dc30ef076888ebe3c6795a366b8421d1e6206187609ab5d128b0e0d1",
    ("T1", "md"): "8222e6728d1d68df15e8b9f3db65f21acd5fbc7585b58c4b78ff0374ff2e1b6c",
    ("T2", "text"): "c9f95e09f3e660e121fc354df06be24a8624179ede1f28040285fd44435e50ba",
    ("T2", "csv"): "7c69d7dac6255fb19e6cab1f6f7a23c7ba0935dd1d85274f968309c88898299e",
    ("T2", "md"): "9c80240e1232e5d2be8ea09af74d5f8dc0917dc6fff04a7c08ea4c01e358bd0e",
    ("T3", "text"): "d59098f2f2c3292290d0d2e2c0f2ef8812449f2b3aa78d6a93a1ddd22d17b0d8",
    ("T3", "csv"): "cf1aa695c80868de751bc94d83a618fd86a248305a67c39cbeaaa38422e1b14c",
    ("T3", "md"): "2e0f11e63fca91409745638d6062509853abd40168bbeec73e7daee279ea89cf",
    ("T4", "text"): "6e8fff84c9e6f61a8cfbfec7f34a2cbaf76ece5ec1fec3783b0824576bff4cee",
    ("T4", "csv"): "eba98e5ecd53692816c5db6766e65a259ac1e2ace9bb71962c5c98d08b8d087e",
    ("T4", "md"): "2efc8b16d264b0706b2cae82311e15ea687a7dcd68203257d3a2040a2ca453c8",
    ("T5", "text"): "f46ca1c5c3a5056dc9a17f32c9ff5866ed4c7337ae451fc7aae9489fb610a617",
    ("T5", "csv"): "93b2fabced095262ca322f954ed4cd1089dee6cf406c6eeca3d37034ef93d971",
    ("T5", "md"): "1a760a0863fad9af907b2ccbea66679f8ddf171695e99b44e03a4077064c5730",
    ("T6", "text"): "44e7b47554b77b0a0565633d6a552aa79a2794d23206b620085a91168c042cc5",
    ("T6", "csv"): "cd85e2c6b1f112d107de618c6bd2f4eca886d50a680c1fe5c67b0dac9c4850f6",
    ("T6", "md"): "b4fb32c137c99aa022a2230e91e570b3102a00e42b62123cc63450c51750b20c",
    ("T7", "text"): "ee70f69f31d705ab18cdc7065a27076680b885c6c9136da18c7b06f5e4f059db",
    ("T7", "csv"): "65b852dd4c54d6a175753913ba43b9eab6d9cf224dff8963db7b0dab96687c1e",
    ("T7", "md"): "1f5e368d8cfecae8c73e1bbd7b7c740d93fda7f52ec47a24e78ccffddddbff6d",
    ("T8", "text"): "0ed9b7e989b7c3c6c7b5cb3e92b1313076eedc19b744e34cca299896f57d6bb5",
    ("T8", "csv"): "bcb9e8ed05c93447626d07628357b9403fc4404f4d152e077d699f4448b0164a",
    ("T8", "md"): "07a5aba1c78438ee7e87ba28535b68576b0a45ffef2966ac21ca424cc327ace0",
    ("T9", "text"): "f01ea3fb691dd6917db22402aff4027fd9c0ccacc5d381a4a9f462009f42159a",
    ("T9", "csv"): "c4f1334262be282d28a7ce5ec3cecc0caab25aeaf51bf050d8a79287dfabe0b7",
    ("T9", "md"): "294e2e1ee81bdfd31aba111b0d157122db23bad5aac6d2c4c7b8cdfd61945503",
    ("T10", "text"): "d4965840f41c33301050e5d6053f1dc0f0036c4c1aa9abc16fac3dfb09dc5e18",
    ("T10", "csv"): "99af573ce37822cd9c1819a2892ffb46eca323e75c8d9bbee0a1767cae584356",
    ("T10", "md"): "6bcddaf9d20824f60366c922c6b66d94eb65e8574c9589bb0501585d60932a1a",
    ("T11", "text"): "deece80dd95e0f33ada75133d2b15ad4272918afa24ca2af6dbca6616991dac2",
    ("T11", "csv"): "deece80dd95e0f33ada75133d2b15ad4272918afa24ca2af6dbca6616991dac2",
    ("T11", "md"): "deece80dd95e0f33ada75133d2b15ad4272918afa24ca2af6dbca6616991dac2",
}


@pytest.mark.parametrize("table,fmt", sorted(GRID_DIGESTS))
def test_reproduce_grid_bytes(capsys, table, fmt):
    rc, out = run(capsys, "reproduce-tables", "--table", table, "--format", fmt)
    assert rc == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GRID_DIGESTS[table, fmt]


def test_deterministic_output(capsys):
    _, first = run(capsys, "reproduce-tables", "--table", "T8")
    _, second = run(capsys, "reproduce-tables", "--table", "T8")
    assert first == second


def test_missing_file(capsys):
    rc = main(["hull", "/no/such/file.txt"])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_bad_matrix_file(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("this is not a matrix file\n")
    rc = main(["hull", str(f)])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("command", ["hull", "distance", "eaqecc"])
def test_undecodable_matrix_file_is_a_usage_error(tmp_path, capsys, command):
    f = tmp_path / "bytes.txt"
    f.write_bytes(Path(SEED).read_bytes().replace(b"\n", b"\n\xff", 2))
    rc = main([command, str(f)])
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE and captured.out == ""
    assert captured.err.splitlines() == [f"error: line 2: {f}: byte 0xff is not UTF-8"]


@pytest.mark.parametrize(
    "argv",
    [
        ["exhaustive", "--n", "5", "--k", "2", "--h", "-1"],
        ["sweep", SEED, "--target-h", "-5"],
    ],
)
def test_negative_hull_dimension_is_a_usage_error(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE and captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("error: ") and "must be a non-negative integer" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["extend", SEED, "--x=--"],
        ["extend", SEED, "--x", "0000011000", "--kind=--"],
        ["sweep", SEED, "--target-h", "2", "--kinds=--"],
        ["exhaustive", "--n=--", "--k", "2", "--h", "1"],
    ],
)
def test_double_dash_as_an_option_value_is_a_usage_error(capsys, argv):
    # argparse drops a "--" value and leaves [] behind, which no command may read
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE and captured.out == ""
    assert captured.err == "error: an option was given '--' as its value\n"


def test_unknown_command_exits_2(capsys):
    assert main(["bogus"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: hullforge: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["extend", SEED],
        ["extend", SEED, "--x", "0101", "--kind", "V"],
        ["sweep", SEED, "--target-h", "abc"],
        ["exhaustive", "--n", "5"],
        ["bogus"],
        [],
        ["hull"],
    ],
)
def test_argument_errors_are_one_error_line(capsys, argv):
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: hullforge")


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extend", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hullforge extend")


def test_console_script_entry_point():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "hullforge.cli", "distance", G3_12_7_4],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert proc.stdout == "[12,7,4]\n"


def test_hull_command_under_optimization():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    outs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "hullforge.cli", "hull", G3_12_7_4],
            capture_output=True,
            text=True,
            env=env,
        )
        for flags in ([], ["-O"])
    ]
    assert [p.returncode for p in outs] == [0, 0]
    assert outs[1].stdout == outs[0].stdout == "h = 3, k = 7, LCD: no, self-orthogonal: no\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce-tables", "--format", "csv"],
        # 1.4 MB of records, past any pipe buffer: its writes meet the closed pipe
        ["sweep", str(H1 / "G1_13_11_2.txt"), "--target-h", "2"],
    ],
)
def test_reader_closing_stdout_ends_quietly(argv):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "hullforge.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    first = proc.stdout.readline()
    proc.stdout.close()  # as `| head -1` does
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OK
    assert first and err == b""

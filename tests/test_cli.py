"""End-to-end checks of the command-line surface.

Commands run in-process through main(argv); one test goes through the
installed console script to confirm the entry point wiring.
"""

import subprocess
import sys

import pytest

from hullforge import search
from hullforge.cli import EXIT_LIMIT, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from hullforge.corpus import data_root

H1 = data_root() / "h1"
H3 = data_root() / "h3"
H0 = data_root() / "h0"
SEED = str(H1 / "seed_10_6_3.txt")
G3_12_7_4 = str(H3 / "G3_12_7_4.txt")


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


def test_exhaustive_claim_line(capsys):
    rc, out = run(capsys, "exhaustive", "--n", "7", "--k", "3", "--h", "3")
    assert rc == EXIT_OK
    assert out == "CLAIM 7 3 3 4 h_optimal exhaustive 1001110,0101101,0011011\n"


def test_exhaustive_over_cap(capsys):
    rc = main(["exhaustive", "--n", "20", "--k", "10", "--h", "0"])
    assert rc == EXIT_LIMIT
    assert "cap" in capsys.readouterr().err


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


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hullforge.cli", "distance", G3_12_7_4],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "[12,7,4]\n"

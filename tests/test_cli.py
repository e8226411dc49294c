import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from homyd.cli import main, matrix_from_json
from homyd.exactlin import LinearMap, rat
from homyd.h4_library import H4Params, h4_braiding_matrix

ROOT = Path(__file__).resolve().parent.parent
H4_ALG = str(ROOT / "h4.alg")
#: sha256 digests of the shipped file's reports, recorded for the benchmark
REPORT_GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
#: sha256 digests of the shipped file's H4A, H4B braiding emissions
BRAID_GOLDEN = json.loads((ROOT / "tests" / "braid_golden.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_passing_suite_exits_zero(capsys):
    code, out, _ = run(capsys, "check", H4_ALG, "--suite", "hopf")
    assert code == 0
    assert "0 failing" in out


def test_check_json_report_schema(capsys):
    code, out, _ = run(capsys, "check", H4_ALG, "--suite", "yd", "--report", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"suite", "seed", "items"}
    assert data["suite"] == "yd"
    for item in data["items"]:
        assert set(item) <= {"id", "paper_ref", "status", "witness"}
        assert item["status"] in ("pass", "fail")


def test_check_corrupted_file_exits_one_with_witness(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text(
        Path(H4_ALG).read_text().replace("mul: x g -> -c * gx", "mul: x g -> c * gx")
    )
    code, out, _ = run(capsys, "check", str(bad), "--suite", "hopf", "--report", "json")
    assert code == 1
    data = json.loads(out)
    failing = [i for i in data["items"] if i["status"] == "fail"]
    assert failing
    assert any("witness" in i for i in failing)


def test_tcat_json_report_bytes_match_golden(capsys):
    code, out, _ = run(capsys, "check", H4_ALG, "--suite", "tcat", "--report", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_GOLDEN["tcat-json"]


def test_all_text_report_bytes_match_golden(capsys):
    code, out, _ = run(capsys, "check", H4_ALG, "--suite", "all", "--report", "text")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_GOLDEN["all-text"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_braid_output_bytes_match_golden(capsys, fmt):
    code, out, _ = run(capsys, "braid", H4_ALG, "-m", "H4A", "-n", "H4B", "--out", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BRAID_GOLDEN[fmt]


def test_check_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "broken.alg"
    bad.write_text("mul: x q -> 1 * gx\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "error" in err


def test_check_reports_are_byte_stable(capsys):
    code1, out1, _ = run(capsys, "check", H4_ALG, "--suite", "yd", "--seed", "7", "--report", "json")
    code2, out2, _ = run(capsys, "check", H4_ALG, "--suite", "yd", "--seed", "7", "--report", "json")
    assert (code1, out1) == (code2, out2)
    assert json.loads(out1)["seed"] == 7


def test_braid_csv_output(capsys):
    code, out, _ = run(capsys, "braid", H4_ALG, "-m", "H4A", "-n", "H4B", "--out", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 16 and all(len(r) == 16 for r in rows)
    expect = h4_braiding_matrix(H4Params(1, 2, 3))
    got = LinearMap(16, 16, [Fraction(x) for row in rows for x in row])
    assert got == expect


def test_braid_json_roundtrip(capsys):
    code, out, _ = run(capsys, "braid", H4_ALG, "-m", "H4A", "-n", "H4B", "--out", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["domain_basis"]) == 16
    assert "m_pair" in data["source"]
    assert matrix_from_json(out) == h4_braiding_matrix(H4Params(1, 2, 3))


def test_braid_unknown_module_exits_two(capsys):
    code, _, err = run(capsys, "braid", H4_ALG, "-m", "H4A", "-n", "NOPE")
    assert code == 2 and "error" in err


def test_demo_csv_matches_library_matrix(capsys):
    code, out, err = run(capsys, "demo", "h4", "--c", "1", "--cp", "2", "--cpp", "3")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    got = LinearMap(16, 16, [Fraction(x) for row in rows for x in row])
    assert got == h4_braiding_matrix(H4Params(1, 2, 3))
    assert "transpose" in err  # the convention note goes to stderr


def test_demo_json_and_rational_params(capsys):
    code, out, _ = run(capsys, "demo", "h4", "--c", "1/2", "--cp", "2/3", "--cpp", "3", "--out", "json")
    assert code == 0
    assert matrix_from_json(out) == h4_braiding_matrix(H4Params(rat(1, 2), rat(2, 3), 3))


def test_demo_zero_parameter_exits_two(capsys):
    code, _, err = run(capsys, "demo", "h4", "--c", "0")
    assert code == 2 and "error" in err


def test_trivial_braid_is_one_by_one(tmp_path, capsys):
    text = Path(H4_ALG).read_text() + (
        "\n[ydmodule K over H4]\n"
        "basis: v\n"
        "act: 1 v -> v\n"
        "act: g v -> v\n"
        "coact: v -> v@1\n"
    )
    f = tmp_path / "k.alg"
    f.write_text(text)
    code, out, _ = run(capsys, "braid", str(f), "-m", "K", "-n", "K", "--out", "csv")
    assert code == 0
    assert out.strip() == "1"

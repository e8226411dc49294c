import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from homyd.cli import build_parser, main
from homyd.defformat import SUITES
from homyd.exactlin import LinearMap, rat
from homyd.h4_library import H4Params, h4_braiding_matrix
from test_defformat import TWO_HOPFS

ROOT = Path(__file__).resolve().parent.parent
H4_ALG = str(ROOT / "h4.alg")
#: sha256 digests of the shipped file's reports, recorded for the benchmark
REPORT_GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
#: sha256 digests of the shipped file's H4A, H4B braiding emissions
BRAID_GOLDEN = json.loads((ROOT / "tests" / "braid_golden.json").read_text(encoding="utf-8"))
#: sha256 digests of `demo h4 ARGS --out csv|json`, keyed by ARGS
DEMO_GOLDEN = json.loads((ROOT / "tests" / "demo_golden.json").read_text(encoding="utf-8"))["points"]


def src_env(**extra):
    """The environment with src first on PYTHONPATH, for a fresh homyd process."""
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def matrix_from_json(text):
    """Inverse of the JSON braiding emission, for round-tripping."""
    data = json.loads(text)
    entries = [Fraction(x) for row in data["matrix"] for x in row]
    return LinearMap(data["rows"], data["cols"], entries)


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


@pytest.mark.parametrize("flag, name", [("-m", "NOPE"), ("-n", "NOPE"), ("-m", "H4"), ("-n", "P")])
def test_braid_diagnostic_names_the_flag_and_the_ydmodule_sections(capsys, flag, name):
    names = {"-m": "H4A", "-n": "H4B", flag: name}
    code, out, err = run(capsys, "braid", H4_ALG, "-m", names["-m"], "-n", names["-n"])
    assert code == 2 and out == ""
    assert err == "error: %s %s names no ydmodule section; the file's ydmodule sections are: H4A, H4B, H4AB\n" % (
        flag, name)


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


@pytest.mark.parametrize("args", sorted(DEMO_GOLDEN))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_demo_output_bytes_match_golden(capsys, args, fmt):
    code, out, _ = run(capsys, "demo", "h4", *args.split(), "--out", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEMO_GOLDEN[args][fmt]


def test_demo_zero_parameter_exits_two(capsys):
    code, _, err = run(capsys, "demo", "h4", "--c", "0")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("flag", ["--c", "--cp", "--cpp"])
def test_demo_zero_denominator_names_the_flag(capsys, flag):
    code, out, err = run(capsys, "demo", "h4", flag, "1/0")
    assert code == 2 and out == ""
    assert err == "error: %s 1/0 has a zero denominator\n" % flag


@pytest.mark.parametrize("flag", ["--c", "--cp", "--cpp"])
@pytest.mark.parametrize("text", ["abc", "1/", "", "nan"])
def test_demo_malformed_value_names_the_flag(capsys, flag, text):
    code, out, err = run(capsys, "demo", "h4", "%s=%s" % (flag, text))
    assert code == 2 and out == ""
    assert err == "error: %s %r is not a rational number\n" % (flag, text)


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


#: a one-dimensional Hopf section K, on which every law holds
ONE_DIM_HOPF = (
    "[hopf K]\nbasis: 1\nunit: 1\nmul: 1 1 -> 1\ncomul: 1 -> 1@1\n"
    "counit: 1 -> 1\nantipode: 1 -> 1\n"
)
#: a module section breaking 1.m = mu(m) and a comodule section breaking
#: m0 eps(m1) = mu^-1(m), both over K
MODULE_AND_COMODULE = ONE_DIM_HOPF + (
    "\n[module M over K]\nbasis: m\nact: 1 m -> 5 * m\n"
    "\n[comodule C over K]\nbasis: m\ncoact: m -> 3 * m@1\n"
)
#: the shipped file with eps(g) = 2, which breaks the counit laws of its
#: Hopf section and so the trivial module k that tcat adds over it
BROKEN_HOPF = ("counit: g -> 1\n", "counit: g -> 2\n")
#: the shipped file with '=' in place of the ':' after the unit key
WRONG_PUNCTUATION = ("unit: 1\n", "unit= 1\n")
#: a ydmodule over H4 whose pair names an autpair over K
FOREIGN_PAIR = "\n" + ONE_DIM_HOPF + (
    "\n[autpair Q over K]\n"
    "\n[ydmodule Z over H4]\nbasis: z\nact: 1 z -> z\ncoact: z -> z@1\npair: Q\n"
)


#: a module whose act line was checked over H before an `over:` line moves it
#: over K, whose basis has no g
LATE_OVER = TWO_HOPFS + "[module M over H]\nbasis: v\nact: g v -> v\nover: K\n"


def exit_case_files(tmp_path):
    """name -> path of each input of the exit-code contract test."""
    files = {
        "module-comodule": tmp_path / "modules.alg",
        "foreign-pair": tmp_path / "foreign.alg",
        "missing": tmp_path / "missing.alg",
        "directory": tmp_path / "dir.alg",
        "not-utf8": tmp_path / "latin1.alg",
        "broken-hopf": tmp_path / "broken-hopf.alg",
        "late-over": tmp_path / "late-over.alg",
        "wrong-punctuation": tmp_path / "wrong-punctuation.alg",
        "dim-zero-algebra": tmp_path / "dim-zero-algebra.alg",
        "dim-zero-coalgebra": tmp_path / "dim-zero-coalgebra.alg",
    }
    files["late-over"].write_text(LATE_OVER, encoding="utf-8")
    files["module-comodule"].write_text(MODULE_AND_COMODULE, encoding="utf-8")
    files["foreign-pair"].write_text(Path(H4_ALG).read_text(encoding="utf-8") + FOREIGN_PAIR, encoding="utf-8")
    files["directory"].mkdir()
    files["not-utf8"].write_bytes(b"[params]\nc = 1 # caf\xe9\n")
    shipped = Path(H4_ALG).read_text(encoding="utf-8")
    assert shipped.count(BROKEN_HOPF[0]) == 1
    files["broken-hopf"].write_text(shipped.replace(*BROKEN_HOPF), encoding="utf-8")
    assert shipped.count(WRONG_PUNCTUATION[0]) == 1
    files["wrong-punctuation"].write_text(shipped.replace(*WRONG_PUNCTUATION), encoding="utf-8")
    files["dim-zero-algebra"].write_text("[algebra A]\ndim: 0\nunit: 0\n", encoding="utf-8")
    files["dim-zero-coalgebra"].write_text("[coalgebra C]\ndim: 0\n", encoding="utf-8")
    return files


#: (input, command and options around FILE, exit code)
EXIT_CASES = [
    ("module-comodule", ("check", "--suite", "all"), 1),
    ("module-comodule", ("check", "--suite", "yd"), 1),
    ("foreign-pair", ("check", "--suite", "yd"), 2),
    ("foreign-pair", ("check", "--suite", "tcat"), 2),
    ("foreign-pair", ("check", "--suite", "all"), 2),
    ("foreign-pair", ("braid", "-m", "Z", "-n", "H4A"), 2),
    ("missing", ("check",), 2),
    ("missing", ("braid", "-m", "H4A", "-n", "H4B"), 2),
    ("directory", ("check",), 2),
    ("directory", ("braid", "-m", "H4A", "-n", "H4B"), 2),
    ("not-utf8", ("check",), 2),
    ("not-utf8", ("braid", "-m", "H4A", "-n", "H4B"), 2),
    ("broken-hopf", ("check", "--suite", "tcat"), 1),
    ("broken-hopf", ("check", "--suite", "all"), 1),
    ("broken-hopf", ("check", "--suite", "hopf"), 1),
    ("broken-hopf", ("check", "--suite", "yd"), 1),
    ("broken-hopf", ("braid", "-m", "H4A", "-n", "H4B"), 0),
    ("late-over", ("check", "--suite", "yd"), 2),
    ("late-over", ("check", "--suite", "all"), 2),
    ("wrong-punctuation", ("check",), 2),
    ("dim-zero-algebra", ("check", "--suite", "all"), 0),
    ("dim-zero-coalgebra", ("check", "--suite", "all"), 0),
]


@pytest.mark.parametrize("name, argv, code", EXIT_CASES, ids=[
    "-".join((name,) + tuple(a for a in argv if not a.startswith("-"))) for name, argv, _ in EXIT_CASES
])
def test_exit_code_contract_on_malformed_inputs(tmp_path, capsys, name, argv, code):
    path = str(exit_case_files(tmp_path)[name])
    got, out, err = run(capsys, argv[0], path, *argv[1:])
    assert got == code
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")


def test_broken_hopf_data_fails_the_trivial_module_and_thm_37(tmp_path, capsys):
    # k, the trivial module tcat adds, acts through the broken counit
    path = str(exit_case_files(tmp_path)["broken-hopf"])
    code, out, err = run(capsys, "check", path, "--suite", "tcat", "--report", "json")
    assert (code, err) == (1, "")
    failing = {item["id"] for item in json.loads(out)["items"] if item["status"] == "fail"}
    assert {"H4:yd-member(k)", "H4:thm-3.7"} <= failing


def test_module_and_comodule_sections_are_checked_with_witnesses(tmp_path, capsys):
    path = tmp_path / "modules.alg"
    path.write_text(MODULE_AND_COMODULE, encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path), "--suite", "yd", "--report", "json")
    assert code == 1
    items = {item["id"]: item for item in json.loads(out)["items"]}
    assert list(items) == [
        "M:module-assoc", "M:module-twist", "M:module-unit",
        "C:eq-1.7", "C:eq-1.8-coact", "C:eq-1.8-counit",
    ]
    # 1.m = 5m against mu(m) = m, and m0 eps(m1) = 3m against mu^-1(m) = m
    assert items["M:module-unit"]["status"] == "fail"
    assert items["M:module-unit"]["witness"] == {"inputs": [0], "labels": ["m"], "lhs": ["5"], "rhs": ["1"]}
    assert items["C:eq-1.8-counit"]["status"] == "fail"
    assert items["C:eq-1.8-counit"]["witness"] == {"inputs": [0], "labels": ["m"], "lhs": ["3"], "rhs": ["1"]}


@pytest.mark.parametrize("argv", [
    ("check", H4_ALG, "--suite", "tcat", "--report", "json"),
    ("braid", H4_ALG, "-m", "H4A", "-n", "H4B", "--out", "csv"),
], ids=["check-tcat", "braid"])
def test_closed_stdout_exits_two_without_traceback(argv):
    # as in `homyd check ... | head -c 0`: the reader is gone before the
    # report is written
    proc = subprocess.Popen([sys.executable, "-m", "homyd", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=src_env())
    proc.stdout.close()
    err = proc.stderr.read().decode("utf-8")
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert err == ""


#: fails when import homyd.cli loads a slow stdlib module that homyd does
#: not need; the CI smoke job runs the same line, without pytest
IMPORT_BUDGET = (
    "import sys; before = set(sys.modules); import homyd.cli; "
    "new = sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'csv'} & (set(sys.modules) - before)); "
    "print('newly imported:', new); sys.exit(bool(new))"
)


def test_import_loads_no_dataclasses_csv_or_inspect():
    # a fresh interpreter, since pytest itself imports these modules, and
    # compared against what it had loaded before homyd, since site may too
    proc = subprocess.run([sys.executable, "-c", IMPORT_BUDGET], capture_output=True, text=True,
                          env=src_env(), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "newly imported: []\n", "")


#: main calls in the order one process makes them: an emission, an argparse
#: usage error, a demo diagnostic, then braid and check
REUSE_CALLS = [
    ("demo", "h4", "--out", "csv"),
    ("check",),
    ("demo", "h4", "--c=0"),
    ("braid", H4_ALG, "-m", "H4A", "-n", "H4B", "--out", "csv"),
    ("check", H4_ALG, "--suite", "yd", "--report", "text"),
]


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    assert build_parser() is build_parser()
    # argparse wraps its usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    got = []
    for argv in REUSE_CALLS:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        got.append((code, captured.out, captured.err))
    assert [code for code, _, _ in got] == [0, 2, 2, 0, 0]
    assert hashlib.sha256(got[0][1].encode("utf-8")).hexdigest() == DEMO_GOLDEN[""]["csv"]
    assert hashlib.sha256(got[3][1].encode("utf-8")).hexdigest() == BRAID_GOLDEN["csv"]
    for argv, result in zip(REUSE_CALLS, got):
        proc = subprocess.run([sys.executable, "-m", "homyd", *argv], capture_output=True,
                              env=src_env(COLUMNS="80"), timeout=120)
        assert result == (proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")), argv


#: what a pipeline-fuzz mutation puts in place of one token of a line
FUZZ_TOKENS = ("0", "1/0", "x", "(", ")", "->", "[", "]", "", "@", "*", "-1", "0/1", ":", "=", "c", "g", "x g")


def mutate_lines(lines, rng):
    """lines with one line deleted, one line duplicated, or one token of a
    line replaced by one of FUZZ_TOKENS, and a description of the edit."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    kind = rng.choice(("delete", "duplicate", "replace"))
    if kind == "delete":
        del lines[i]
        return lines, "delete line %d" % (i + 1)
    if kind == "duplicate":
        lines.insert(i, lines[i])
        return lines, "duplicate line %d" % (i + 1)
    tokens = lines[i].rstrip("\n").split(" ")
    j = rng.randrange(len(tokens))
    tokens[j] = rng.choice(FUZZ_TOKENS)
    lines[i] = " ".join(tokens) + "\n"
    return lines, "line %d token %d -> %r" % (i + 1, j + 1, tokens[j])


def test_pipeline_fuzz_keeps_the_exit_code_contract(tmp_path, capsys):
    # parse -> resolve -> run_checks -> render on seeded mutations of the
    # shipped file: every run exits 0, 1 or 2 and none ends in a traceback;
    # the cheap suites and braid run on every file, tcat and all on a few
    rng = random.Random(2014)
    shipped = Path(H4_ALG).read_text(encoding="utf-8").splitlines(keepends=True)
    path = tmp_path / "mutated.alg"
    cheap = [s for s in SUITES if s not in ("tcat", "all")]
    for k in range(60):
        lines, edit = mutate_lines(shipped, rng)
        path.write_text("".join(lines), encoding="utf-8")
        suites = SUITES if k % 12 == 0 else cheap
        for argv in [("check", str(path), "--suite", s) for s in suites] + [
            ("braid", str(path), "-m", "H4A", "-n", "H4B"),
        ]:
            code, out, err = run(capsys, *argv)
            assert code in (0, 1, 2), (edit, argv)
            assert "Traceback" not in out + err, (edit, argv)
            if code == 2:
                assert out == "" and err.count("\n") == 1 and err.startswith("error: "), (edit, argv)

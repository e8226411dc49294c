import random
from fractions import Fraction
from pathlib import Path

import pytest

from homyd.defformat import (
    DefinitionError,
    DefinitionFile,
    Num,
    OutOfRangeIndex,
    ParamRef,
    ParseError,
    ResolveError,
    SuiteError,
    UnboundName,
    ZeroDenominator,
    parse_definition,
    resolve_definition,
    run_checks,
    serialize_definition,
)
from homyd.exactlin import LinearMap, rat

H4_ALG = Path(__file__).resolve().parent.parent / "h4.alg"


def test_empty_file_is_empty_definition():
    assert parse_definition("") == DefinitionFile([])
    assert parse_definition("\n  \n# only a comment\n") == DefinitionFile([])


def test_comments_and_blank_lines_ignored():
    df = parse_definition(
        """
        # a leading comment
        [algebra A]   # trailing comment
        basis: e f
        unit: e       # the unit element
        mul: e e -> e
        """
    )
    assert len(df.sections) == 1
    assert df.sections[0].name == "A"


def test_shipped_file_roundtrips():
    text = H4_ALG.read_text()
    df = parse_definition(text)
    canon = serialize_definition(df)

    def norm(s):
        return [" ".join(l.split()) for l in s.splitlines() if l.strip()]

    assert norm(canon) == norm(text)
    assert parse_definition(canon) == df
    assert serialize_definition(parse_definition(canon)) == canon


def test_value_roundtrip_on_constructed_file():
    raw = """
    [params]
    q = 2/3

    [algebra A]
    basis: 1 u
    unit: 1
    mul: 1 1 -> 1
    mul: 1 u -> q * u
    mul: u 1 -> q * u
    mul: u u -> -q * (1 + q) * 1 + 1/2 * u
    alpha: 1 -> 1
    alpha: u -> q * u
    """
    df = parse_definition(raw)
    assert parse_definition(serialize_definition(df)) == df


def test_parse_error_reports_position_and_expected():
    with pytest.raises(ParseError) as err:
        parse_definition("[algebra A]\nbasis: x\nmul x x -> x\n")
    assert err.value.line == 3
    assert "':'" in err.value.expected


def test_unknown_key_lists_admissible_keys():
    with pytest.raises(ParseError) as err:
        parse_definition("[algebra A]\nbasis: x\ncomul: x -> x@x\n")
    assert err.value.line == 3
    assert "mul" in err.value.expected


def test_unbound_basis_label():
    with pytest.raises(UnboundName) as err:
        parse_definition("[algebra A]\nbasis: x gx\nmul: x q -> 1 * gx\n")
    assert err.value.name == "q"
    assert err.value.line == 3


def test_unbound_parameter_at_resolution():
    df = parse_definition("[algebra A]\nbasis: x\nunit: x\nmul: x x -> missing * x\n")
    with pytest.raises(UnboundName) as err:
        resolve_definition(df)
    assert err.value.name == "missing"


def test_out_of_range_index_for_dim_sections():
    with pytest.raises(OutOfRangeIndex) as err:
        parse_definition("[algebra A]\ndim: 2\nmul: e0 e7 -> e1\n")
    assert err.value.line == 3


def test_zero_denominator_literal():
    with pytest.raises(ZeroDenominator):
        parse_definition("[params]\nq = 1/0\n")


def test_zero_denominator_through_parameter():
    df = parse_definition("[params]\nq = 0\n\n[algebra A]\nbasis: x\nunit: x\nmul: x x -> 1/q * x\n")
    with pytest.raises(ZeroDenominator):
        resolve_definition(df)


def test_missing_section_header():
    with pytest.raises(ParseError) as err:
        parse_definition("mul: x x -> x\n")
    assert err.value.line == 1


def test_over_must_exist_and_be_hopf():
    with pytest.raises(UnboundName):
        parse_definition("[module M over H]\nbasis: v\nmu: v -> v\nact: x v -> v\n")
    df = parse_definition(
        "[algebra A]\nbasis: x\nunit: x\nmul: x x -> x\n\n"
        "[module M over A]\nbasis: v\nact: x v -> v\n"
    )
    with pytest.raises(ResolveError):
        resolve_definition(df)


#: two Hopf sections, H on basis 1 g and K on basis 1 y, both group algebras of Z/2
TWO_HOPFS = "".join(
    "[hopf {h}]\nbasis: 1 {g}\nunit: 1\nmul: 1 1 -> 1\nmul: 1 {g} -> {g}\nmul: {g} 1 -> {g}\n"
    "mul: {g} {g} -> 1\ncomul: 1 -> 1@1\ncomul: {g} -> {g}@{g}\ncounit: 1 -> 1\ncounit: {g} -> 1\n"
    "antipode: 1 -> 1\nantipode: {g} -> {g}\n\n".format(h=h, g=g)
    for h, g in (("H", "g"), ("K", "y"))
)


def test_over_line_before_the_lines_it_governs_takes_effect():
    # the act and a lines name K's labels, which H does not have
    rf = resolve_definition(parse_definition(
        TWO_HOPFS + "[module M over H]\nbasis: v\nover: K\nact: y v -> v\n"
        "\n[autpair P over H]\nover: K\na: 1 -> 1\na: y -> y\n"
    ))
    h, k = rf.get("H")[1], rf.get("K")[1]
    module, pair = rf.get("M")[1], rf.get("P")[1]
    assert module.over is k and module.over is not h
    assert module.action.column(1) == (1,)
    assert pair.a.matrix.rows == k.dim
    # a later over line naming the same section moves nothing
    same = resolve_definition(parse_definition(
        TWO_HOPFS + "[module M over H]\nbasis: v\nact: g v -> v\nover: H\n"
    ))
    assert same.get("M")[1].over is same.get("H")[1]


@pytest.mark.parametrize("line", ["act: g v -> v", "coact: v -> v@g", "a: g -> g", "b: g -> g"])
def test_over_line_after_the_lines_it_governs_is_a_positioned_parse_error(line):
    # the line was checked against H's basis, and resolution would read it over K
    text = TWO_HOPFS + "[ydmodule M over H]\nbasis: v\n%s\nover: K\n" % line
    with pytest.raises(ParseError) as err:
        parse_definition(text)
    assert err.value.line == text.count("\n") and err.value.col == 7
    assert err.value.found == "K" and "'H'" in err.value.expected[0]


def test_suite_requires_matching_sections():
    df = parse_definition("[algebra A]\nbasis: x\nunit: x\nmul: x x -> x\nalpha: x -> x\n")
    with pytest.raises(SuiteError) as err:
        run_checks(df, "coalgebra")
    assert "requires coalgebra section" in str(err.value)
    with pytest.raises(SuiteError) as err:
        run_checks(df, "yd")
    assert "requires ydmodule, module or comodule section" in str(err.value)
    with pytest.raises(SuiteError):
        run_checks(df, "nonsense")


def test_algebra_suite_on_tiny_algebra():
    df = parse_definition(
        "[algebra A]\nbasis: 1 u\nunit: 1\n"
        "mul: 1 1 -> 1\nmul: 1 u -> u\nmul: u 1 -> u\nmul: u u -> 0\n"
    )
    rep = run_checks(df, "algebra")
    assert rep.ok()
    assert any(item.identity == "A:eq-1.1" for item in rep)


def test_checks_on_shipped_file_all_pass():
    df = parse_definition(H4_ALG.read_text())
    for suite in ("algebra", "coalgebra", "hopf", "yd"):
        assert run_checks(df, suite).ok()


def test_corrupted_constant_pinpoints_identity_and_witness():
    text = H4_ALG.read_text().replace(
        "act: x g -> c * (1 + cp) * x", "act: x g -> c * (2 + cp) * x"
    )
    rep = run_checks(parse_definition(text), "yd")
    assert not rep.ok()
    failing = {item.identity for item in rep.failures()}
    assert "H4A:eq-2.1" in failing
    witness = rep.item("H4A:eq-2.1").witness
    assert witness is not None and witness.lhs != witness.rhs


def test_parameter_rebinding_changes_resolution():
    text = H4_ALG.read_text().replace("c = 1", "c = 5")
    resolved = resolve_definition(parse_definition(text))
    _, h4 = resolved.get("H4")
    assert h4.alpha.entry(2, 2) == 5


#: what fuzzed_texts strings together
FUZZ_VOCAB = [
    "[", "]", "(", ")", "->", "@", "+", "-", "*", "/", ":", "=",
    "algebra", "hopf", "params", "ydmodule", "basis", "mul", "act",
    "coact", "unit", "alpha", "mu", "over", "x", "gx", "q", "1", "0",
    "2/3", "\n", " ", "#", "e7", "dim",
]


def fuzzed_texts(seed, count):
    """count seeded strings of 1 to 60 FUZZ_VOCAB items."""
    rng = random.Random(seed)
    for _ in range(count):
        yield "".join(rng.choice(FUZZ_VOCAB) for _ in range(rng.randint(1, 60)))


def mutated_texts(seed, count):
    """count seeded copies of h4.alg with 1 to 4 characters overwritten."""
    chars = list(H4_ALG.read_text())
    rng = random.Random(seed)
    for _ in range(count):
        mutated = chars[:]
        for _ in range(rng.randint(1, 4)):
            pos = rng.randrange(len(mutated))
            mutated[pos] = rng.choice("abc01@*/()[]->:=# \n")
        yield "".join(mutated)


def test_parser_total_on_fuzzed_inputs():
    for text in fuzzed_texts(12345, 2000):
        try:
            parse_definition(text)
        except DefinitionError:
            pass


def test_fuzzed_mutations_of_shipped_file():
    for text in mutated_texts(99, 500):
        try:
            df = parse_definition(text)
            resolve_definition(df)
        except DefinitionError:
            pass


#: a hopf and a ydmodule section that repeat a line of every table family
FAMILY_RULES = """
        [hopf H]
        basis: 1 x
        unit: x
        unit: 1
        mul: 1 x -> 1 + x
        mul: 1 x -> 3 * x
        alpha: 1 -> 1
        alpha: x -> 2 * x + 1
        alpha: x -> 5 * x
        comul: x -> x@1
        comul: x -> x@1 + 1@x + 1@x
        counit: 1 -> 1
        counit: x -> 7
        counit: x -> 0
        antipode: 1 -> 1
        antipode: x -> 1
        antipode: x -> -1 * x

        [ydmodule M over H]
        basis: v w
        mu: w -> w
        mu: v -> v + w
        mu: v -> 3 * v
        act: x v -> v + w
        act: x v -> 4 * w
        coact: v -> v@x
        coact: v -> v@x + w@1
        a: 1 -> 1
        a: x -> 1 + x
        a: x -> 6 * x
        b: x -> x
        b: 1 -> 1 + x
        b: 1 -> 1
        """


def test_repeated_lines_follow_each_family_rule():
    df = parse_definition(FAMILY_RULES)
    resolved = resolve_definition(df)
    _, h = resolved.get("H")
    _, m = resolved.get("M")
    # mul, act: a repeated line overwrites only the cells it sets to nonzero
    assert h.algebra.mul == LinearMap.from_cols([(0, 0), (1, 3), (0, 0), (0, 0)])
    assert m.action == LinearMap.from_cols([(0, 0)] * 2 + [(1, 4), (0, 0)])
    # comul, coact: repeated terms and lines add up
    assert h.coalgebra.comul == LinearMap.from_cols([(0, 0, 0, 0), (0, 2, 2, 0)])
    assert m.coaction == LinearMap.from_cols([(0, 2, 1, 0), (0, 0, 0, 0)])
    # alpha, mu, antipode, a, b: the last line replaces the whole column
    assert h.alpha == LinearMap.from_cols([(1, 0), (0, 5)])
    assert m.mu == LinearMap.from_cols([(3, 0), (0, 1)])
    assert h.antipode == LinearMap.from_cols([(1, 0), (0, -1)])
    assert m.pair_a.matrix == LinearMap.from_cols([(1, 0), (0, 6)])
    assert m.pair_b.matrix == LinearMap.identity(2)
    # counit: the last value per label wins; unit: the last line wins
    assert h.coalgebra.counit == LinearMap.from_rows([(1, 0)])
    assert h.algebra.unit == LinearMap.from_cols([(1, 0)])


def test_a_repeated_mul_line_keeps_the_cells_it_gives_zero():
    df = parse_definition("[algebra A]\nbasis: 1 x\nunit: 1\nmul: 1 x -> 1 + x\nmul: 1 x -> 0 * 1 + 3 * x + x - x\n")
    mul = resolve_definition(df).get("A")[1].mul
    assert mul == LinearMap.from_cols([(0, 0), (1, 3), (0, 0), (0, 0)])


def test_duplicate_section_name_is_a_parse_error():
    text = (
        "[algebra A]\nbasis: x\nunit: x\nmul: x x -> x\n\n"
        "[algebra A]\nbasis: y\nunit: y\nmul: y y -> y\n"
    )
    with pytest.raises(ParseError) as err:
        parse_definition(text)
    assert err.value.line == 6
    assert err.value.found == "A"


@pytest.mark.parametrize(
    "text",
    [
        "[params]\nq = 1/0\n",
        "[algebra A]\nbasis: x\nmul: x x -> 2 * x@x\n",
        "[algebra A]\nbasis: x\nmul: x x -> 2 *\n",
    ],
    ids=["zero-denominator", "pair-in-algebra", "missing-atom"],
)
def test_end_of_line_diagnostics_point_into_the_line(text):
    line = text.splitlines()[-1]
    with pytest.raises(DefinitionError) as err:
        parse_definition(text)
    assert 1 <= err.value.col <= len(line) + 1
    assert "None" not in str(err.value)


def test_non_utf8_bytes_are_a_parse_error_at_their_column():
    with pytest.raises(ParseError) as err:
        parse_definition(b"[params]\nc = 1  # caf\xe9\n")
    assert (err.value.line, err.value.col, err.value.found) == (2, 13, b"\xe9")


@pytest.mark.parametrize("space", ["\u00a0", "\u2003"], ids=["no-break-space", "em-space"])
def test_unicode_space_is_a_parse_error_at_its_column(space, tmp_path, capsys):
    from homyd.cli import main

    line = "mul: x x -> x" + space + "+ 5 * x"
    text = "[algebra A]\nbasis: x\nunit: x\n" + line + "\n"
    with pytest.raises(ParseError) as err:
        parse_definition(text)
    assert (err.value.line, err.value.col, err.value.found) == (4, line.index(space) + 1, space)
    path = tmp_path / "spaced.alg"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text, bad", [
    ("[params]\nq : 2\n", ":"),
    ("[algebra A]\nbasis@ x\n", "@"),
    ("[algebra A)\n", ")"),
    ("[params]\nq = (1 + 2]\n", "]"),
    ("[algebra A]\nbasis: x\nunit: x\nmul: x x -> (2] * x\n", "]"),
], ids=["params-equals", "key-colon", "header-bracket", "scalar-paren", "term-factor-paren"])
def test_wrong_punctuation_is_a_parse_error_at_its_token(text, bad):
    line = text.splitlines()[-1]
    with pytest.raises(ParseError) as err:
        parse_definition(text)
    assert (err.value.line, err.value.col, err.value.found) == (text.count("\n"), line.index(bad) + 1, bad)


def test_repeated_basis_label_is_a_parse_error_at_the_repeat():
    with pytest.raises(ParseError) as err:
        parse_definition("[algebra A]\nbasis: x y x\nunit: x\n")
    assert (err.value.line, err.value.col, err.value.found) == (2, 12, "x")


#: the line breaks of str.splitlines that are no line break of the format
SPLITLINES_BREAKS = ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"]


@pytest.mark.parametrize("char", SPLITLINES_BREAKS, ids=repr)
def test_a_splitlines_break_inside_a_line_is_a_parse_error_at_its_column(char):
    line = "mul: x x" + char + " -> x"
    with pytest.raises(ParseError) as err:
        parse_definition("[algebra A]\nbasis: x\nunit: x\n" + line + "\n")
    assert (err.value.line, err.value.col, err.value.found) == (4, 9, char)


@pytest.mark.parametrize("char", ["\f", "\u00a0", "\u2003"], ids=repr)
def test_a_trailing_space_or_break_is_a_parse_error(char):
    with pytest.raises(ParseError) as err:
        parse_definition("[params]\nc = 1" + char + "\nq = 2\n")
    assert (err.value.line, err.value.col, err.value.found) == (2, 6, char)


@pytest.mark.parametrize("char", SPLITLINES_BREAKS[:-1], ids=repr)
def test_lines_after_a_splitlines_break_in_a_comment_keep_their_numbers(char):
    head = "[params]\nc = 1  # a comment" + char + " goes on\nq = "
    with pytest.raises(ParseError) as text_err:
        parse_definition(head + "?\n")
    with pytest.raises(ParseError) as bytes_err:
        parse_definition(head.encode("utf-8") + b"\xe9\n")
    assert (text_err.value.line, text_err.value.col, text_err.value.found) == (3, 5, "?")
    assert (bytes_err.value.line, bytes_err.value.col, bytes_err.value.found) == (3, 5, b"\xe9")


def test_crlf_file_reads_as_the_lf_file(tmp_path, capsys):
    from homyd.cli import main

    text = H4_ALG.read_text(encoding="utf-8")
    assert "\r" not in text
    assert parse_definition(text.replace("\n", "\r\n").encode("utf-8")) == parse_definition(text)
    path = tmp_path / "h4-crlf.alg"
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    outputs = []
    for file in (H4_ALG, path):
        assert main(["check", str(file), "--suite", "all", "--report", "json"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""


def test_the_tcat_suite_conjugates_only_by_the_autpairs_over_its_hopf_section(tmp_path, capsys):
    # h4.alg with a copy of [hopf H4] named K4 and an autpair Q over K4 of
    # H4's dimension: K4 has no ydmodule and adds no item, and H4's items
    # must not name Q
    from homyd.cli import main

    text = H4_ALG.read_text(encoding="utf-8")
    k4 = text[text.index("[hopf H4]"):text.index("[ydmodule H4A over H4]")].replace("[hopf H4]", "[hopf K4]")
    path = tmp_path / "h4-two-hopf.alg"
    path.write_text(text + "\n" + k4 + "[autpair Q over K4]\na: 1 -> 1\na: g -> g\na: x -> 5 * x\na: gx -> 5 * gx\n",
                    encoding="utf-8")
    outputs = []
    for file in (H4_ALG, path):
        assert main(["check", str(file), "--suite", "tcat", "--report", "json"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""


@pytest.mark.parametrize("text, digit", [
    ("[params]\nc = \uff13\n", "\uff13"),
    ("[params]\nc = \u0663/2\n", "\u0663"),
    ("[algebra A]\nbasis: \uff11 x\n", "\uff11"),
], ids=["fullwidth-three", "arabic-indic-three", "fullwidth-one-label"])
def test_a_non_ascii_digit_is_a_parse_error_at_it(text, digit):
    line = text.splitlines()[-1]
    with pytest.raises(ParseError) as err:
        parse_definition(text)
    assert (err.value.line, err.value.col, err.value.found) == (2, line.index(digit) + 1, digit)

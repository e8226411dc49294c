"""Acceptance suite: the nine exit criteria, each as one test that prints a
single pass line.  Every comparison is exact rational equality; nothing is
approximate anywhere in this module."""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from loop_reference import coact_terms
from homyd.cli import main as cli_main
from homyd.defformat import DefinitionError, parse_definition, run_checks
from homyd.exactlin import LinearMap, ZERO, add_scaled, invert, rat, tensor_vec
from homyd.hom_algebra import (
    check_antipode,
    check_automorphism,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    identity_automorphism,
)
from homyd.h4_library import (
    H4Params,
    build_h4,
    build_h4_yd_table,
    h4_automorphism,
    h4_braiding_matrix,
)
from homyd.t_category import (
    AutPair,
    braiding,
    braiding_inverse,
    check_t_category,
    sample_nonzero_rationals,
)
from homyd.yd_modules import (
    YDModuleData,
    build_bicomodule_algebra,
    build_entwining,
    check_bicomodule_algebra,
    check_entwined_module,
    check_entwining,
    check_yd,
    check_yd_alt,
    check_yd_datum,
    trivial_yd,
)

H4_ALG = Path(__file__).resolve().parent.parent / "h4.alg"


def test_criterion_1_h4_validity():
    """Full structure-axiom catalogue on the dim-4 family, six twists."""
    for c in (rat(1), rat(2), rat(3), rat(-1), rat(1, 2), rat(-2, 3)):
        h = build_h4(c)
        for rep in (
            check_hom_algebra(h.algebra),
            check_hom_coalgebra(h.coalgebra),
            check_hom_bialgebra(h),
            check_antipode(h),
        ):
            assert rep.ok(), (c, rep.summary())
    print("PASS criterion-1: dim-4 family passes all structure axioms for 6 twist values")


def test_criterion_2_automorphism_group():
    lams = (rat(1), rat(2), rat(1, 3), rat(-5))
    for lam in lams:
        aut = h4_automorphism(lam)
        for c in (rat(1), rat(2)):
            assert check_automorphism(build_h4(c), aut).ok(), lam
    # the family composes exactly like nonzero scalars under multiplication
    for l1, l2 in itertools.product(lams, repeat=2):
        assert (h4_automorphism(l1) @ h4_automorphism(l2)) == h4_automorphism(l1 * l2)
        assert h4_automorphism(l1).inv() == h4_automorphism(1 / l1)
    # and unequal eigenvalues on the two nilpotent directions are excluded
    h = build_h4(1)
    assert not check_automorphism(h, LinearMap.diagonal([1, 1, 2, 3])).ok()
    print("PASS criterion-2: automorphism family = diag(1,1,l,l), composing as nonzero scalars")


def test_criterion_3_yd_membership_grid():
    cs = [rat(1), rat(2), rat(-1), rat(1, 2)]
    cps = [rat(1), rat(2), rat(3), rat(1, 2)]
    cpps = [rat(1), rat(3), rat(-2), rat(2, 3)]
    tested = 0
    for c in cs:
        h = build_h4(c)
        for cp, cpp in itertools.product(cps, cpps):
            p = H4Params(c, cp, cpp)
            for which in ("H4A", "H4B", "H4AB"):
                yd = build_h4_yd_table(which, p, h=h)
                ok1 = check_yd(yd).ok()
                ok2 = check_yd_alt(yd).ok()
                assert ok1 and ok2, (which, c, cp, cpp)
                tested += 1
            # both compatibility forms must also agree on failing instances
            # (wrong component tag, axioms intact)
            base = build_h4_yd_table("H4A", p, h=h)
            wrong = YDModuleData(
                h, base.action, base.coaction, base.mu,
                AutPair(h4_automorphism(cpp), h4_automorphism(cp)), basis=base.basis,
            )
            v1, v2 = check_yd(wrong).ok(), check_yd_alt(wrong).ok()
            assert v1 == v2, ("equivalence", c, cp, cpp, v1, v2)
            tested += 1
    assert tested == 4 * 16 * 4
    print("PASS criterion-3: golden tables satisfy both compatibility forms on the 4x4x4 grid,"
          " with the two forms agreeing on every instance")


def test_criterion_4_entwining_route():
    sampled = [(rat(1), rat(1), rat(1)), (rat(2), rat(2), rat(3)),
               (rat(1), rat(3), rat(1, 2)), (rat(1, 2), rat(1, 3), rat(2))]
    for c, l1, l2 in sampled:
        h = build_h4(c)
        a, b = h4_automorphism(l1), h4_automorphism(l2)
        e = build_entwining(h, a, b)
        assert check_entwining(e).ok(), (c, l1, l2)
        # the entwined-module condition agrees with the compatibility
        # verdict on every carrier, for matched and mismatched tags alike
        p = H4Params(c, l1, l2)
        for which in ("H4A", "H4B", "H4AB"):
            yd = build_h4_yd_table(which, p, h=h)
            tagged = YDModuleData(h, yd.action, yd.coaction, yd.mu, AutPair(a, b),
                                  basis=yd.basis)
            assert check_entwined_module(yd, e).ok() == check_yd(tagged).ok(), (which, c, l1, l2)
    print("PASS criterion-4: induced entwinings satisfy all four axioms and classify exactly"
          " the compatible modules")


def test_criterion_5_bicomodule_route():
    sampled = [(rat(1), rat(1), rat(1)), (rat(2), rat(3), rat(1, 2)), (rat(1), rat(2), rat(3))]
    for c, l1, l2 in sampled:
        h = build_h4(c)
        a, b = h4_automorphism(l1), h4_automorphism(l2)
        n = build_bicomodule_algebra(h, a, b)
        assert check_bicomodule_algebra(n).ok(), (c, l1, l2)
        p = H4Params(c, l1, l2)
        for which in ("H4A", "H4B", "H4AB"):
            yd = build_h4_yd_table(which, p, h=h)
            tagged = YDModuleData(h, yd.action, yd.coaction, yd.mu, AutPair(a, b),
                                  basis=yd.basis)
            assert check_yd_datum(yd, n).ok() == check_yd(tagged).ok(), (which, c, l1, l2)
    print("PASS criterion-5: bicomodule algebras satisfy their axioms and the datum"
          " compatibility coincides with the module-comodule one")


def test_criterion_6_t_category_suite():
    p = H4Params(1, 2, 3)
    h = build_h4(1)
    modules = [build_h4_yd_table(w, p, h=h) for w in ("H4A", "H4B", "H4AB")]
    modules.append(trivial_yd(h))
    lams = [rat(2), rat(3), rat(1, 2)]
    pairs = [
        AutPair(h4_automorphism(l1), h4_automorphism(l2), label="(%s,%s)" % (l1, l2))
        for l1, l2 in itertools.product(lams, repeat=2)
    ]
    rep = check_t_category(h, modules, pairs)
    bad = rep.failures()
    assert not bad, [item.identity for item in bad[:5]]
    assert rep.item("thm-3.7").passed
    print("PASS criterion-6: %d crossed-category identities hold with zero failures"
          % len(rep.items))


# transposed layout of the printed 16x16 braiding table: one row per source
# basis vector of H4A (x) H4B, fixed cells only
_PRINTED_FIXED = {
    (1, 1): 1, (2, 5): 1, (3, 9): 1, (4, 13): 1,
    (5, 2): 1, (6, 6): 1, (7, 10): 1, (8, 14): 1,
    (9, 3): 1, (10, 7): -1, (11, 11): 1, (12, 15): -1,
    (13, 4): 1, (14, 8): -1, (15, 12): 1, (16, 16): -1,
}
_PARAM_CELLS = {(3, 8), (4, 4), (7, 7), (8, 3)}


def test_criterion_7_braiding_matrix_reproduction():
    rng_values = sample_nonzero_rationals(404, 30)
    tuples = [tuple(rng_values[i : i + 3]) for i in range(0, 30, 3)]
    for c, cp, cpp in tuples:
        p = H4Params(c, cp, cpp)
        mat = h4_braiding_matrix(p)
        table = mat.transpose()  # row-per-source layout of the printed table
        for i in range(1, 17):
            for j in range(1, 17):
                if (i, j) in _PARAM_CELLS:
                    continue
                assert table.entry(i - 1, j - 1) == _PRINTED_FIXED.get((i, j), 0), (i, j, c, cp)
        # the four parameter cells, pre-derived by evaluating the crossing
        # formula on the source vectors 1(x)x, 1(x)gx, g(x)x, g(x)gx
        assert table.entry(2, 7) == cp - 1
        assert table.entry(3, 3) == 1 - cp
        assert table.entry(6, 6) == 1 + cp
        assert table.entry(7, 2) == -(1 + cp)
        # exact invertibility, inverse from the antipode formula
        h = build_h4(c)
        b = braiding(
            build_h4_yd_table("H4A", p, h=h),
            build_h4_yd_table("H4B", p, h=h),
        )
        inv = braiding_inverse(b)
        assert (b.matrix @ inv).is_identity()
        assert (inv @ b.matrix).is_identity()
        assert inv == invert(b.matrix)
    print("PASS criterion-7: 16x16 braiding matrix reproduces the printed 0/+-1 skeleton,"
          " parameter cells match the derived expressions on 10 tuples, inverse exact")


def test_criterion_8_classical_limit():
    p = H4Params(1, 1, 1)
    h = build_h4(1)
    m = build_h4_yd_table("H4A", p, h=h)
    n = build_h4_yd_table("H4B", p, h=h)
    assert h.alpha.is_identity()
    assert m.pair_a.matrix.is_identity() and m.pair_b.matrix.is_identity()
    # untwisted double-crossing m (x) n -> n0 (x) n1 . m assembled directly
    cols = []
    for i in range(4):
        for j in range(4):
            out = [ZERO] * 16
            for q, a, w in coact_terms(n.comodule, j):
                add_scaled(out, tensor_vec(LinearMap.identity(4).column(q), m.action.column(a * 4 + i)), w)
            cols.append(out)
    untwisted = LinearMap.from_cols(cols)
    assert braiding(m, n).matrix == untwisted
    print("PASS criterion-8: at identity twist and identity tags the braiding equals the"
          " untwisted double-crossing, entry for entry")


def test_criterion_9_parser_and_cli(tmp_path, capsys):
    # the shipped file passes the complete suite through the real CLI
    assert cli_main(["check", str(H4_ALG), "--suite", "all", "--report", "json"]) == 0
    out_all = capsys.readouterr().out
    golden = json.loads((H4_ALG.parent / "perfbench" / "golden.json").read_text(encoding="utf-8"))
    assert hashlib.sha256(out_all.encode("utf-8")).hexdigest() == golden["all-json"]
    ids = {item["id"] for item in json.loads(out_all)["items"]}
    assert any(i.endswith("eq-1.1") for i in ids)
    assert any(i.endswith("thm-3.7") for i in ids)

    # a single-constant corruption exits 1 and pinpoints identity + witness
    bad = tmp_path / "corrupt.alg"
    bad.write_text(H4_ALG.read_text().replace(
        "act: gx g -> -c * (1 + cp) * x", "act: gx g -> -c * (1 + cp) * gx"
    ))
    assert cli_main(["check", str(bad), "--suite", "yd", "--report", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    failing = [i for i in data["items"] if i["status"] == "fail"]
    assert failing and all("id" in i for i in failing)
    assert any("witness" in i for i in failing)

    # reports are byte-stable under a fixed seed
    assert cli_main(["check", str(H4_ALG), "--suite", "yd", "--seed", "11", "--report", "json"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["check", str(H4_ALG), "--suite", "yd", "--seed", "11", "--report", "json"]) == 0
    assert capsys.readouterr().out == first

    # fuzzing: ten thousand random inputs produce diagnostics, never crashes
    rng = random.Random(777)
    vocab = [
        "[", "]", "(", ")", "->", "@", "+", "-", "*", "/", ":", "=", ",",
        "params", "algebra", "coalgebra", "hopf", "module", "comodule",
        "ydmodule", "autpair", "over", "basis", "dim", "unit", "counit",
        "mul", "comul", "alpha", "gamma", "mu", "act", "coact", "antipode",
        "a", "b", "pair", "x", "gx", "q", "c", "0", "1", "7", "2/3", "e9",
        " ", "\n", "#",
    ]
    base = H4_ALG.read_text()
    for trial in range(10_000):
        if trial % 2:
            text = "".join(rng.choice(vocab) for _ in range(rng.randint(1, 40)))
        else:
            chars = list(base)
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(len(chars))
                chars[pos] = rng.choice("abcq01279@*/()[]->:=#xg \n")
            text = "".join(chars)
        try:
            parse_definition(text)
        except DefinitionError:
            pass
    print("PASS criterion-9: CLI exit codes 0/1/2 as specified, byte-stable reports,"
          " 10000 fuzzed inputs parsed without a crash")

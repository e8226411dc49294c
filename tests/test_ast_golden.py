"""The parsed AST of known inputs stays fixed.

For each input, the sha256 of ``repr(parse_definition(text).sections)`` is
compared with ``ast_golden.json``.  The repr names every field of every
section and entry, the line number of each entry included, and every
folded scalar with its type, so a change of the tokenizer or the parser
that moves a line number, a label, a term or a constant shows here.  The
inputs are ``h4.alg`` at two twist points, every perfbench mutation of
the H4 family at three seeded points, the inputs of the diagnostics corpus
that resolve, and the family-rule input of ``test_defformat``.

Run this file as a script to write ``ast_golden.json``.
"""

import hashlib
import json
import random
from pathlib import Path

from homyd.defformat import parse_definition
from test_defformat import FAMILY_RULES, H4_ALG
from test_diagnostics_golden import corpus, outcome
from test_yd_modules import load_bench_inputs

GOLDEN = Path(__file__).resolve().parent / "ast_golden.json"
INPUTS = load_bench_inputs()


def inputs():
    """(name, text) of every pinned input."""
    text = H4_ALG.read_text(encoding="utf-8")
    yield "h4.alg", text
    yield "h4.alg at c = -3/2", text.replace("c = 1\n", "c = -3/2\n", 1)
    rng = random.Random(29)
    for n in range(3):
        clean = INPUTS.h4_family_text(*INPUTS.sample_point(rng))
        for name in sorted(INPUTS.MUTATIONS):
            yield "%s@%d" % (name, n), INPUTS.apply_mutation(clean, INPUTS.MUTATIONS[name])
    for i, text in enumerate(corpus()):
        if outcome(text) == "ok":
            yield "corpus %d" % i, text
    yield "family rules", FAMILY_RULES


def digests():
    return {
        name: hashlib.sha256(repr(parse_definition(text).sections).encode("utf-8")).hexdigest()
        for name, text in inputs()
    }


def test_ast_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]
    assert len(golden) == 2 + 3 * len(INPUTS.MUTATIONS) + 11 + 1
    assert digests() == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"digests": digests()}, indent=1) + "\n", encoding="utf-8")

"""Diagnostics on malformed definition files stay fixed.

A seeded corpus of malformed inputs goes through ``parse_definition`` and
then ``resolve_definition``; the outcome of each is ``"ok"`` or the
diagnostic's class name, line, column and message.  The corpus is three
seeded families: strings of the parser fuzz vocabulary, character
mutations of ``h4.alg`` (the two generators of ``test_defformat``), and
copies of ``h4.alg`` with one token of one line swapped for another.

Run this file as a script to write ``diagnostics_golden.json``; the test
compares every outcome with it.
"""

import hashlib
import json
import random
import re
from pathlib import Path

from homyd.defformat import DefinitionError, parse_definition, resolve_definition
from test_defformat import H4_ALG, fuzzed_texts, mutated_texts

GOLDEN = Path(__file__).resolve().parent / "diagnostics_golden.json"

#: what a token swap puts in place of one token of a line of h4.alg
SWAP_TOKENS = ("->", ":", "=", "[", "]", "(", ")", "@", "*", "/", "+", "-", "0", "x", "q", "1/0", "")

#: one token of a line: an arrow, a word or number, or one other character
_TOKEN = re.compile(r"->|\w+|\S")


def swapped_texts(seed, count):
    """count seeded copies of h4.alg with one token of one line replaced
    by one of SWAP_TOKENS."""
    lines = H4_ALG.read_text().splitlines(keepends=True)
    rng = random.Random(seed)
    for _ in range(count):
        i = rng.randrange(len(lines))
        tokens = list(_TOKEN.finditer(lines[i]))
        if not tokens:
            continue
        tok = rng.choice(tokens)
        line = lines[i][:tok.start()] + rng.choice(SWAP_TOKENS) + lines[i][tok.end():]
        yield "".join(lines[:i] + [line] + lines[i + 1:])


def corpus():
    yield from fuzzed_texts(1, 100)
    yield from mutated_texts(2, 100)
    yield from swapped_texts(3, 120)


def outcome(text):
    try:
        resolve_definition(parse_definition(text))
    except DefinitionError as exc:
        return [type(exc).__name__, exc.line, exc.col, str(exc)]
    return "ok"


def outcomes():
    return [[hashlib.sha256(text.encode("utf-8")).hexdigest()[:16], outcome(text)] for text in corpus()]


def test_diagnostics_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert outcomes() == golden["outcomes"]


if __name__ == "__main__":
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    golden["outcomes"] = outcomes()
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")

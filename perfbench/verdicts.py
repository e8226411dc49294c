"""Known-answer checks for the output of one op.

Works on the bytes homyd printed and its exit code only, with the standard
library; it never calls into homyd, so a defect there cannot hide itself.

An op *fails* when it raises, prints a traceback, exits outside {0, 1, 2},
or answers differently from its known answer.  An op is *wrong* when it
fails in any way other than its one known crash: a ``tcat`` check of a
file whose Hopf data is broken dies with ``InvalidStructure`` (ROADMAP
item 5).  That crash fails the op without making the run incorrect; any
other crash, on any other op, is a wrong answer.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction

EXIT_CODES = (0, 1, 2)
#: The exception a known crash raises.
KNOWN_CRASH = "InvalidStructure"

#: Suites whose failing items come from basis-tuple evaluation and so must
#: carry a witness.
WITNESSED_SUITES = ("algebra", "coalgebra", "hopf", "yd")


@dataclass
class Verdict:
    failed: bool = False
    wrong: bool = False
    reason: str = ""
    items: int = 0      # identity items the report decided


def _wrong(reason, items=0):
    return Verdict(True, True, reason, items)


def parse_report(text, fmt):
    """[(id, passed, has_witness)] of a text or JSON report."""
    if fmt == "json":
        data = json.loads(text)
        return [(it["id"], it["status"] == "pass", "witness" in it) for it in data["items"]]
    items = []
    lines = text.splitlines()
    for line in lines:
        if line.startswith("[pass] ") or line.startswith("[FAIL] "):
            ident = line[7:].split("  --  ", 1)[0]
            items.append([ident, line.startswith("[pass]"), False])
        elif line.startswith("       at ") and items:
            items[-1][2] = True
    total, _, rest = lines[-1].partition(" identities checked, ")
    if int(total) != len(items) or int(rest.split()[0]) != sum(not ok for _, ok, _ in items):
        raise ValueError("report summary line disagrees with its items")
    return [tuple(it) for it in items]


def check_report(op, text):
    fmt = op.argv[op.argv.index("--report") + 1]
    suite = op.suite
    try:
        items = parse_report(text, fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return _wrong("unreadable %s report: %s" % (fmt, exc))
    n = len(items)
    if not items:
        return _wrong("report has no items")
    failing = {ident: witness for ident, ok, witness in items if not ok}
    if op.golden is not None:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != op.golden:
            return _wrong("report bytes differ from the golden digest", n)
    if op.expect_exit == 0:
        if failing:
            return _wrong("well-formed input but %d items fail, first %s" % (len(failing), next(iter(failing))), n)
        return Verdict(items=n)
    for ident in op.must_fail:
        if ident not in failing:
            return _wrong("%s must fail under mutation %s" % (ident, op.mutation), n)
        if suite in WITNESSED_SUITES and not failing[ident]:
            return _wrong("%s fails without a witness" % ident, n)
    if op.scope is not None:
        stray = [ident for ident in failing if ident.split(":", 1)[0] != op.scope]
        if stray:
            return _wrong("mutation of %s made %s fail" % (op.scope, stray[0]), n)
    return Verdict(items=n)


# -- braiding matrices --------------------------------------------------


def parse_matrix(text, fmt):
    """Emitted matrix as a list of rows of Fractions."""
    if fmt == "csv":
        rows = [[Fraction(x) for x in row] for row in csv.reader(io.StringIO(text))]
    else:
        data = json.loads(text)
        rows = [[Fraction(x) for x in row] for row in data["matrix"]]
        if data["rows"] != len(rows) or any(len(r) != data["cols"] for r in rows):
            raise ValueError("JSON shape fields disagree with the matrix")
    return rows


def check_braid_table(rows, cp):
    """The README's hand table, in the row-per-source layout (the transpose
    of the emitted matrix): four cells depend on cp, every other entry is
    0 or +-1.  Returns a reason string, or "" when the table holds."""
    if len(rows) != 16 or any(len(r) != 16 for r in rows):
        return "matrix is not 16x16"
    table = [[rows[j][i] for j in range(16)] for i in range(16)]
    special = {(3, 8): cp - 1, (4, 4): 1 - cp, (7, 7): 1 + cp, (8, 3): -(1 + cp)}
    for i in range(1, 17):
        for j in range(1, 17):
            got = table[i - 1][j - 1]
            if (i, j) in special:
                if got != special[(i, j)]:
                    return "cell (%d, %d) is %s, hand table says %s" % (i, j, got, special[(i, j)])
            elif got not in (-1, 0, 1):
                return "cell (%d, %d) is %s, hand table says 0 or +-1" % (i, j, got)
    return ""


def check_braid(op, text, emitted):
    """emitted maps pair_key -> matrix of the counterpart op (demo vs
    braid at the same point and format); this op's matrix is added."""
    fmt = op.argv[op.argv.index("--out") + 1]
    try:
        rows = parse_matrix(text, fmt)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return _wrong("unreadable %s matrix: %s" % (fmt, exc))
    reason = check_braid_table(rows, op.point[1])
    if reason:
        return _wrong(reason)
    if op.pair_key is not None:
        other = emitted.pop(op.pair_key, None)
        if other is None:
            emitted[op.pair_key] = rows
        elif other != rows:
            return _wrong("braid and demo disagree at the same point")
    return Verdict()


def _crash(op, exc, reason):
    """Failed op; wrong unless it is the op's known crash."""
    known = op.may_crash and exc is not None and type(exc).__name__ == KNOWN_CRASH
    return Verdict(True, not known, reason if known else "unexpected crash: " + reason)


def judge(op, exit_code, exc, stdout, stderr, emitted):
    """Verdict of one op from what homyd returned."""
    if exc is not None:
        return _crash(op, exc, "raised %s: %s" % (type(exc).__name__, exc))
    if "Traceback (most recent call last)" in stderr:
        return _crash(op, None, "printed a traceback")
    if exit_code not in EXIT_CODES:
        return _crash(op, None, "exit code %r outside %s" % (exit_code, EXIT_CODES))
    if exit_code != op.expect_exit:
        return _wrong("exit code %d, known answer %d" % (exit_code, op.expect_exit))
    if op.argv[0] == "check":
        return check_report(op, stdout)
    return check_braid(op, stdout, emitted)

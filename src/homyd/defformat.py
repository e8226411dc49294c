"""Textual definition format for algebras, modules and automorphism pairs.

The format is line oriented and UTF-8: a line ends at "\n", with a "\r"
before it dropped, and `#` starts a comment anywhere on a line.  A file
is a sequence of sections:

    [params]
    c = 1
    cp = 2

    [hopf H4]
    basis: 1 g x gx
    unit: 1
    mul: x g -> -c * gx
    alpha: x -> c * x
    comul: x -> 1/c * x@1 + 1/c * g@x
    counit: g -> 1
    antipode: x -> -1 * gx

    [ydmodule H4A over H4]
    basis: 1 g x gx
    mu: x -> c * x
    act: x 1 -> c * (cp - 1) * gx
    coact: x -> 1/c * x@1 + 1/c * g@x
    a: x -> cp * x

Scalars are exact rationals; coefficient expressions may use + - * / and
parentheses over rational literals and names bound in [params].  `a@b`
denotes the tensor pair a (x) b, and a bare `0` is the zero element.
Unspecified structure constants are zero; a wholly omitted twist line
family (alpha / mu / a / b) defaults to the identity.

One regex pass over the text yields its tokens, and the parser reads them by
index.  A token is a number (ASCII digits), a name, the arrow `->` or one of
the characters @ + - * / ( ) ; : = [ ]; spaces and tabs separate tokens, and
any other character (a form feed or a Unicode space too) is a ParseError at
its line and column.  The arrow and each punctuation character are a token
kind of their own, so a wrong one (`q : 2`, `[algebra A)`) is one at it.

Section names are unique; a repeated name is a ParseError at its header,
and a repeated basis label one at the repeat.  _LEGS says which basis each
argument label and each term leg of a table line is in: the section's own,
or that of the hopf section it is over.  A line may repeat the arguments of
an earlier line of its family, and _table applies the rule: a mul or act
line then sets the cells it gives nonzero and keeps the rest; comul and
coact terms add up; an alpha, gamma, mu, antipode, a or b line replaces the
whole column; a counit line replaces its label's value, a unit line the unit.
An `over:` line replaces the header's `over` for the lines after it, and
may not name another section once act, coact, a or b lines were read over
the current one (a ParseError at the name).

The parser is total: every input yields a DefinitionFile or a positioned
diagnostic (ParseError, UnboundName, OutOfRangeIndex, ZeroDenominator).
Structural validity of the defined objects is *not* checked here; that is
what run_checks is for, so that broken tables produce failing report items
with witnesses rather than load-time crashes.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .exactlin import ONE, DimensionMismatch, LinearMap, SingularMap, _sparse_map
from .hom_algebra import (
    AutPair,
    HomAlgebraData,
    HomCoalgebraData,
    HomHopfAlgebraData,
    HopfAutomorphism,
    InvalidStructure,
    check_antipode,
    check_automorphism,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
)
from .reports import CheckReport, _FrozenRecord, _Record, _set
from .t_category import check_t_category
from .yd_modules import (
    HomComoduleData,
    HomModuleData,
    YDModuleData,
    check_hom_comodule,
    check_hom_module,
    check_yd,
    check_yd_alt,
    trivial_yd,
)


class DefinitionError(ValueError):
    """Common base for all diagnostics raised on definition files."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = "line %d" % line
            if col is not None:
                where += ", col %d" % col
            where = " (%s)" % where
        super().__init__(message + where)


class ParseError(DefinitionError):
    def __init__(self, line, col, expected, found):
        self.expected = tuple(expected)
        self.found = found
        super().__init__(
            "expected %s, found %r" % (" or ".join(self.expected), found), line, col
        )


class UnboundName(DefinitionError):
    def __init__(self, name, line, col=None):
        self.name = name
        super().__init__("unbound name %r" % name, line, col)


class OutOfRangeIndex(DefinitionError):
    def __init__(self, name, dim, line, col=None):
        self.name = name
        super().__init__("index %r out of range for dimension %d" % (name, dim), line, col)


class ZeroDenominator(DefinitionError):
    def __init__(self, line, col=None):
        super().__init__("zero denominator", line, col)


class ResolveError(DefinitionError):
    """Missing or malformed section content discovered at resolution time."""


class SuiteError(DefinitionError):
    """The requested check suite needs sections the file does not define."""


# ---------------------------------------------------------------------------
# scalar expression AST (constant-folded at parse time)
# ---------------------------------------------------------------------------


class Num(_FrozenRecord):
    __slots__ = ("value",)

    def __init__(self, value):
        _set(self, "value", value)


class ParamRef(_FrozenRecord):
    __slots__ = ("name",)

    def __init__(self, name):
        _set(self, "name", name)


class Neg(_FrozenRecord):
    __slots__ = ("arg",)

    def __init__(self, arg):
        _set(self, "arg", arg)


class Bin(_FrozenRecord):
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


def _fold_neg(x):
    if isinstance(x, Num):
        return Num(-x.value)
    return Neg(x)


#: the arithmetic of each binary operator on exact scalars
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _fold_bin(op, left, right, p, at):
    """left op right, folded for two numbers; a zero divisor is then a
    diagnostic at the parser p's token at, the operator."""
    if type(left) is Num and type(right) is Num:
        if op == "/" and not right.value:
            raise ZeroDenominator(p.line, p.col(at))
        return Num(_ARITH[op](left.value, right.value))
    if op == "*":
        if type(left) is Num and left.value == 1:
            return right
        if type(right) is Num and right.value == 1:
            return left
    return Bin(op, left, right)


def eval_expr(node, params, line):
    kind = type(node)
    if kind is ParamRef:
        if node.name not in params:
            raise UnboundName(node.name, line)
        return params[node.name]
    if kind is Num:
        return node.value
    if kind is Neg:
        return -eval_expr(node.arg, params, line)
    left, right = eval_expr(node.left, params, line), eval_expr(node.right, params, line)
    if node.op == "/" and right == 0:
        raise ZeroDenominator(line)
    return _ARITH[node.op](left, right)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _node_prec(node):
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return 2
    if isinstance(node, Num) and node.value < 0:
        return 2
    return 3


def render_expr(node, needed=0):
    """Canonical text with the minimal parentheses that re-parse to the
    same folded tree."""
    if isinstance(node, Num):
        s = str(node.value)
    elif isinstance(node, ParamRef):
        s = node.name
    elif isinstance(node, Neg):
        s = "-" + render_expr(node.arg, 2)
    else:
        prec = _PREC[node.op]
        left = render_expr(node.left, prec)
        right = render_expr(node.right, prec + (0 if node.op in "+*" else 1))
        s = "%s %s %s" % (left, node.op, right)
    return "(%s)" % s if _node_prec(node) < needed else s


# ---------------------------------------------------------------------------
# file AST
# ---------------------------------------------------------------------------


class Term(_FrozenRecord):
    __slots__ = ("coef", "atom")

    def __init__(self, coef, atom):
        _set(self, "coef", coef)  # scalar AST; Num(1) when implicit
        _set(self, "atom", atom)  # one or two basis labels


class Entry(_FrozenRecord, compare=("key", "args", "value")):
    """One line of a section; equality ignores the line number."""

    __slots__ = ("line", "key", "args", "value")

    def __init__(self, line, key="", args=(), value=None):
        _set(self, "line", line)
        _set(self, "key", key)
        _set(self, "args", args)
        _set(self, "value", value)  # tuple[Term, ...] | scalar AST | tuple[str, ...] | str | int


class Section(_Record):
    __slots__ = ("kind", "name", "over", "entries")

    def __init__(self, kind, name, over, entries):
        self.kind = kind
        self.name = name
        self.over = over
        self.entries = entries


class DefinitionFile(_Record):
    __slots__ = ("sections",)

    def __init__(self, sections):
        self.sections = sections


SECTION_KINDS = ("params", "algebra", "coalgebra", "hopf", "module", "comodule", "ydmodule", "autpair")

# entry keys admitted per section kind
_KEYS = {
    "algebra": {"basis", "dim", "unit", "mul", "alpha"},
    "coalgebra": {"basis", "dim", "comul", "counit", "gamma"},
    "hopf": {"basis", "dim", "unit", "mul", "alpha", "comul", "counit", "antipode"},
    "module": {"basis", "dim", "over", "mu", "act"},
    "comodule": {"basis", "dim", "over", "mu", "coact"},
    "ydmodule": {"basis", "dim", "over", "mu", "act", "coact", "a", "b", "pair"},
    "autpair": {"over", "a", "b"},
}

# For each table key: the basis of each of its argument labels, then the
# basis of each leg of its terms, "own" for the section's basis and "over"
# for that of the hopf section it is over.  unit has no argument, and
# counit's value is a scalar, not a combination of terms.
_LEGS = {
    "unit": ((), ("own",)),
    "counit": (("own",), ()),
    "mul": (("own", "own"), ("own",)),
    "act": (("over", "own"), ("own",)),
    "comul": (("own",), ("own", "own")),
    "coact": (("own",), ("own", "over")),
    "alpha": (("own",), ("own",)),
    "gamma": (("own",), ("own",)),
    "mu": (("own",), ("own",)),
    "antipode": (("own",), ("own",)),
    "a": (("over",), ("over",)),
    "b": (("over",), ("over",)),
}

# One pass of _TOKEN_RE over the whole text gives every token as its text:
# "\n" ends a line, and the spaces, tabs and comment before a token are
# skipped, with a "\r" before a "\n".  A character outside a token and a
# comment is a token of its own, bad unless in _CHARS.  The text ends in "".
_TOKEN_RE = re.compile(r"[ \t]*(?:#[^\n]*|\r(?=\n))?([A-Za-z_][A-Za-z0-9_]*|[0-9]+|->|[^ \t]|\Z)")
_CHARS = frozenset("\n@+-*/();:=[]_0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
# the tokens that end a line, and those that are no label (name or number)
_END = ("\n", "")
_NOT_LABEL = frozenset(["\n", "", "->", *"@+-*/();:=[]"])
_LEVEL_OPS = (("+", "-"), ("*", "/"))  # the operators of _parse_scalar's levels 0 and 1
_ONE = Num(ONE)


class _Parser:
    """The tokens of a whole text, read by index: toks[i] is the next one
    and line its line.  A token's kind is its text, and a column is worked
    out only for a diagnostic."""

    __slots__ = ("text", "toks", "i", "line")

    def __init__(self, text, toks):
        self.text, self.toks, self.i, self.line = text, toks, 0, 1

    def col(self, at):
        """The column of token at; an end of line is one beyond the token before it."""
        line_start = end = 0
        for n, m in enumerate(_TOKEN_RE.finditer(self.text)):
            if n == at:
                return (m.start(1) if m[1] not in _END else end) - line_start + 1
            end = m.end()
            if m[1] == "\n":
                line_start = end

    def error(self, expected, found=None, at=None):
        """A ParseError at token at (by default the next) that found found (by default that token)."""
        at = self.i if at is None else at
        if found is None:
            found = "end of line" if self.toks[at] in _END else self.toks[at]
        return ParseError(self.line, self.col(at), expected, found)

    def expect(self, kinds, what):
        """The next token, read past unless it ends the line (parse_definition
        reads that); a ParseError naming what unless it is one of kinds."""
        tok = self.toks[self.i]
        if tok not in kinds:
            raise self.error(what)
        self.i += tok not in _END
        return tok

    def label(self, what, name=False):
        """The next token, read past, if it is a label (if name, one that is
        no number); else a ParseError naming what."""
        tok = self.toks[self.i]
        if tok in _NOT_LABEL or name and tok.isdigit():
            raise self.error(what)
        self.i += 1
        return tok


def _leaf(tok):
    """The scalar of a number or name token."""
    return Num(Fraction(int(tok))) if tok.isdigit() else ParamRef(tok)


def _parse_scalar(p, level=0):
    """A sum (level 0) of products (level 1) of unary factors (level 2)."""
    if level < 2:
        node = _parse_scalar(p, level + 1)
        while (op := p.toks[p.i]) in _LEVEL_OPS[level]:
            at = p.i
            p.i += 1
            node = _fold_bin(op, node, _parse_scalar(p, level + 1), p, at)
        return node
    tok = p.toks[p.i]
    if tok in _NOT_LABEL and tok != "-" and tok != "(":
        raise p.error(("number", "name", "'('", "'-'"))
    p.i += 1
    if tok != "(":
        return _fold_neg(_parse_scalar(p, 2)) if tok == "-" else _leaf(tok)
    node = _parse_scalar(p)
    p.expect((")",), ("')'",))
    return node


def _parse_combo(p, pairs_allowed):
    """Tuple of Terms; `0` alone denotes the empty combination.  A term is
    '*'-separated factors whose last is the basis atom, the tuple of its
    one or two labels: a lone name or number not followed by an arithmetic
    continuation, or a tensor pair by the infix @.  A term's diagnostics
    point at the token after it."""
    toks, i = p.toks, p.i
    if toks[i] == "0" and toks[i + 1] in _END:
        p.i += 1
        return ()
    terms, negate = [], False
    while True:
        while toks[i] == "-":
            i += 1
            negate = not negate
        factors = []
        while True:
            tok, p.i = toks[i], i + 1
            if tok == "-" or tok == "(":
                p.i = i
                factors.append(_parse_scalar(p, 2))
            elif tok in _NOT_LABEL:
                raise p.error(("basis label", "scalar factor"), at=i)
            elif toks[i + 1] == "@":
                p.i += 1
                factors.append((tok, p.label(("basis label",))))
            elif toks[i + 1] == "/":
                p.i += 1
                factors.append(_fold_bin("/", _leaf(tok), _parse_scalar(p, 2), p, i + 1))
            else:
                factors.append((tok,))
            i = p.i
            if toks[i] != "*":
                break
            i += 1
        atom, coef = factors.pop(), _ONE
        if type(atom) is not tuple:
            raise p.error(("basis label",))
        for n, f in enumerate(factors):
            if type(f) is tuple:
                # a bare label in coefficient position is a parameter reference
                if len(f) != 1:
                    raise p.error(("scalar factor",), "@".join(f))
                f = _leaf(f[0])
            coef = _fold_bin("*", coef, f, p, i) if n else f
        if (len(atom) == 2) != pairs_allowed:
            raise p.error(("tensor pair label@label",) if pairs_allowed else ("plain basis label",), "@".join(atom))
        terms.append(Term(_fold_neg(coef) if negate else coef, atom))
        if toks[i] != "+" and toks[i] != "-":
            return tuple(terms)
        negate = toks[i] == "-"
        i += 1


class _SectionState:
    """Per-section label bookkeeping during the parse."""

    def __init__(self, section):
        self.section = section
        self.labels = frozenset()
        self.via_dim = None  # until a basis or dim line
        # the section this one is over, and whether lines were read over it
        self.over, self.over_read = section.over, False

    def check(self, label, lineno):
        """A diagnostic unless label is one of the declared basis labels."""
        if label not in self.labels:
            if self.via_dim and re.fullmatch(r"e\d+", label):
                raise OutOfRangeIndex(label, len(self.labels), lineno)
            raise UnboundName(label, lineno)


def parse_definition(text):
    """Parse a definition file into its AST, validating all name and basis
    references along the way."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            col = exc.start - text.rfind(b"\n", 0, exc.start)
            raise ParseError(text.count(b"\n", 0, exc.start) + 1, col, ("UTF-8 text",),
                             text[exc.start:exc.end]) from None
    p = _Parser(text, _TOKEN_RE.findall(text))
    toks = p.toks
    # the first bad token is a diagnostic once the parse reaches its line
    bad = min(map(toks.index, {tok for tok in set(toks) if len(tok) == 1} - _CHARS), default=-1)
    bad_line = toks[:bad].count("\n") + 1 if bad >= 0 else 0
    sections, states, current, state = [], {}, None, None
    while tok := toks[p.i]:
        if tok == "\n":
            p.i += 1
            p.line += 1
        elif p.line == bad_line:
            raise p.error(("token",), at=bad)
        elif tok == "[":
            p.i += 1
            kind = p.label(SECTION_KINDS, name=True)
            if kind not in SECTION_KINDS:
                raise p.error(SECTION_KINDS, at=p.i - 1)
            name = over = None
            if kind != "params":
                name = p.label(("section name",))
                if name in states:
                    raise p.error(("unused section name",), at=p.i - 1)
                if toks[p.i] == "over":
                    p.i += 1
                    over = p.label(("section name",))
            p.expect(("]",), ("']'",))
            p.expect(_END, ("end of line",))
            current = Section(kind, name, over, [])
            sections.append(current)
            state = states[name] = _SectionState(current)
        elif current is None:
            raise ParseError(p.line, 1, ("section header",), tok)
        elif current.kind == "params":
            name = p.label(("parameter name",), name=True)
            p.expect(("=",), ("'='",))
            current.entries.append(Entry(p.line, "param", (name,), _parse_scalar(p)))
            p.expect(_END, ("end of line",))
        elif tok in _KEYS[current.kind] and toks[p.i + 1] == ":":
            p.i += 2
            current.entries.append(_parse_entry(p, tok, state, states, p.line))
        else:
            p.label(("entry key",), name=True)
            if tok not in _KEYS[current.kind]:
                raise p.error(tuple(sorted(_KEYS[current.kind])), at=p.i - 1)
            raise p.error(("':'",))
    return DefinitionFile(sections)


def _over_name(section, lineno):
    """The section this one is over: its last `over:` entry, else its header's."""
    name = section.over
    for e in section.entries:
        if e.key == "over":
            name = e.value
    if name is None:
        raise ResolveError("section %r needs an 'over' reference" % section.name, lineno)
    return name


def _parse_entry(p, key, state, states, lineno):
    if key == "basis":
        labels = {}
        while p.toks[p.i] not in _END or not labels:
            label = p.label(("basis label",))
            if label in labels:
                raise p.error(("basis label not declared before",), at=p.i - 1)
            labels[label] = None
    if key == "dim":
        if not p.label(("dimension",)).isdigit():
            raise p.error(("dimension",), at=p.i - 1)
        v = int(p.toks[p.i - 1])
        p.expect(_END, ("end of line",))
        labels = ["e%d" % i for i in range(v)]
    if key in ("basis", "dim"):
        if state.via_dim is not None:
            raise ParseError(lineno, 1, ("single basis/dim declaration",), key)
        state.labels, state.via_dim = frozenset(labels), key == "dim"
        return Entry(lineno, key, (), tuple(labels) if key == "basis" else v)
    if key in ("over", "pair"):
        v = p.label(("section name" if key == "over" else "autpair name",))
        p.expect(_END, ("end of line",))
        if v not in states:
            raise UnboundName(v, lineno)
        if key == "over":
            # resolution reads every line over the last `over:`, so it may
            # not move away from the section earlier lines were checked in
            if state.over_read and v != state.over:
                raise p.error(("%r, which earlier lines of this section are over" % state.over,), at=p.i - 1)
            state.over = v
        return Entry(lineno, key, (), v)

    # a table line: its argument labels, then `-> value` (unit: the value alone)
    arg_legs, term_legs = _LEGS[key]
    args = tuple(p.toks[p.i:p.i + len(arg_legs)])
    if not _NOT_LABEL.isdisjoint(args):
        for _ in args:
            p.label(("basis label",))
    p.i += len(args)
    if not term_legs:
        # counit: its label is checked before its scalar is read
        state.check(args[0], lineno)
        p.expect(("->",), ("'->'",))
        value = _parse_scalar(p)
        p.expect(_END, ("end of line",))
        return Entry(lineno, key, args, value)
    if args:
        p.expect(("->",), ("'->'",))
    combo = _parse_combo(p, pairs_allowed=len(term_legs) == 2)
    p.expect(_END, ("end of line",))
    # every label is checked in its leg's basis, so bad names fail here
    bases = {"own": state}
    if "over" in arg_legs + term_legs:
        if state.over is None:
            raise ResolveError("section %r needs an 'over' reference" % state.section.name, lineno)
        if state.over not in states:
            raise UnboundName(state.over, lineno)
        # a later `over:` may no longer move this section
        state.over_read = True
        bases["over"] = states[state.over]
    for label, leg in zip(args, arg_legs):
        if label not in bases[leg].labels:
            bases[leg].check(label, lineno)
    for t in combo:
        for label, leg in zip(t.atom, term_legs):
            if label not in bases[leg].labels:
                bases[leg].check(label, lineno)
    return Entry(lineno, key, args, combo)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _split_sign(coef):
    """(positive-part, negated) so combos render with binary minus."""
    if isinstance(coef, Neg):
        return coef.arg, True
    if isinstance(coef, Num) and coef.value < 0:
        return Num(-coef.value), True
    return coef, False


def render_term(term):
    atom = "@".join(term.atom)
    coef, _ = _split_sign(term.coef)
    if coef == Num(ONE):
        return atom
    return "%s * %s" % (render_expr(coef, 2), atom)


def render_combo(combo):
    if not combo:
        return "0"
    parts = []
    for i, t in enumerate(combo):
        _, negative = _split_sign(t.coef)
        if i == 0:
            parts.append(("-" if negative else "") + render_term(t))
        else:
            parts.append(("- " if negative else "+ ") + render_term(t))
    return " ".join(parts)


def serialize_definition(df):
    """Canonical text for a DefinitionFile; parse . serialize is the
    identity on values, and serialize . parse is the identity on files this
    function wrote."""
    out = []
    for section in df.sections:
        if out:
            out.append("")
        if section.kind == "params":
            out.append("[params]")
        elif section.over:
            out.append("[%s %s over %s]" % (section.kind, section.name, section.over))
        else:
            out.append("[%s %s]" % (section.kind, section.name))
        for e in section.entries:
            if e.key == "param":
                out.append("%s = %s" % (e.args[0], render_expr(e.value)))
            elif e.key == "basis":
                out.append("basis: %s" % " ".join(e.value))
            elif e.key == "dim":
                out.append("dim: %d" % e.value)
            elif e.key in ("over", "pair"):
                out.append("%s: %s" % (e.key, e.value))
            elif e.key == "unit":
                out.append("unit: %s" % render_combo(e.value))
            elif e.key == "counit":
                out.append("counit: %s -> %s" % (e.args[0], render_expr(e.value)))
            else:
                out.append("%s: %s -> %s" % (e.key, " ".join(e.args), render_combo(e.value)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# resolution: AST -> structure-constant objects
# ---------------------------------------------------------------------------


class ResolvedFile:
    def __init__(self):
        self.params = {}
        self.objects = {}   # name -> (kind, object), in file order
        self.sections = {}  # name -> Section

    def of_kind(self, *kinds):
        return [(n, obj) for n, (k, obj) in self.objects.items() if k in kinds]

    def get(self, name, line=None):
        if name not in self.objects:
            raise UnboundName(name, line)
        return self.objects[name]


def _basis_of(section):
    basis = None
    for e in section.entries:
        if e.key == "basis":
            basis = e.value
        elif e.key == "dim":
            basis = tuple("e%d" % i for i in range(e.value))
    if basis is None:
        raise ResolveError("section %r declares no basis" % section.name, None)
    return basis


def _table(key, lines, index, params):
    """The map of a section's `key` lines, built like exactlin.table_map.

    lines maps each key to its entries in file order, and index maps each
    leg of _LEGS[key] to its basis's label -> index dict, made once per
    section.  Each cell goes straight to its column, the argument legs
    flattened as (i, j) -> i * dim_j + j, and its row, the term legs
    flattened alike (one row for counit).  A key with one argument and one
    leg and no line is the identity.  A repeated line follows its family's
    rule: comul and coact terms add up, a mul or act line sets the cells it
    gives nonzero and keeps the rest, and every other line replaces its
    column.
    """
    arg_legs, term_legs = _LEGS[key]
    family = lines.get(key, ())
    if not family and len(arg_legs) == len(term_legs) == 1:
        return LinearMap.identity(len(index[arg_legs[0]]))
    cols, rows = (_flat([index[leg] for leg in legs]) for legs in (arg_legs, term_legs))
    adds, sets = len(term_legs) == 2, len(arg_legs) == 2  # comul, coact; mul, act
    columns = [{} for _ in cols]
    for e in family:
        col = cols[e.args]
        if not term_legs:
            columns[col] = {0: eval_expr(e.value, params, e.line)}
            continue
        cells = columns[col] if adds else {}
        for t in e.value:
            row = rows[t.atom]
            v = t.coef.value if type(t.coef) is Num else eval_expr(t.coef, params, e.line)
            cells[row] = cells[row] + v if row in cells else v
        if sets:
            columns[col].update({row: v for row, v in cells.items() if v})
        elif not adds:
            columns[col] = cells
    return _sparse_map(len(rows), columns)


def _flat(indices):
    """The flat index of each tuple of labels, one per leg, when the label
    -> index dicts of the legs are indices: (a, b) -> i_a * dim_b + i_b."""
    flat = {(): 0}
    for ix in indices:
        flat = {labels + (label,): n * len(ix) + i for labels, n in flat.items() for label, i in ix.items()}
    return flat


def resolve_definition(df):
    """Build the structure objects of every section; constructors check no
    law, and run_checks verifies the axioms.

    Malformed data that cannot even be represented (a singular twist, a
    shape clash) surfaces as a ResolveError diagnostic, never a bare
    arithmetic exception.
    """
    rf = ResolvedFile()
    for section in df.sections:
        if section.kind == "params":
            for e in section.entries:
                rf.params[e.args[0]] = eval_expr(e.value, rf.params, e.line)
            continue
        lines = {}
        for e in section.entries:
            lines.setdefault(e.key, []).append(e)
        build = _build_own if section.kind in ("algebra", "coalgebra", "hopf") else _build_over
        rf.sections[section.name] = section
        try:
            obj = build(section, lines, rf)
        except (SingularMap, DimensionMismatch, InvalidStructure) as exc:
            raise ResolveError(
                "section %r does not define a usable structure: %s" % (section.name, exc)
            ) from exc
        rf.objects[section.name] = (section.kind, obj)
    return rf


def _build_own(section, lines, rf):
    """The object of an algebra, coalgebra or hopf section."""
    basis = _basis_of(section)
    bases = {"own": {label: i for i, label in enumerate(basis)}}
    if section.kind != "coalgebra":
        if "unit" not in lines:
            raise ResolveError("section %r has no unit" % section.name, None)
        unit, mul, alpha = (_table(key, lines, bases, rf.params) for key in ("unit", "mul", "alpha"))
        if section.kind == "algebra":
            return HomAlgebraData(basis, mul, unit, alpha)
    comul, counit = (_table(key, lines, bases, rf.params) for key in ("comul", "counit"))
    if section.kind == "coalgebra":
        return HomCoalgebraData(basis, comul, counit, _table("gamma", lines, bases, rf.params))
    if "antipode" not in lines:
        raise ResolveError("hopf section %r has no antipode" % section.name, None)
    antipode = _table("antipode", lines, bases, rf.params)
    return HomHopfAlgebraData.from_maps(basis, mul, unit, comul, counit, antipode, alpha)


def _build_over(section, lines, rf):
    """The object of a module, comodule, ydmodule or autpair section."""
    kind = section.kind
    over, h = rf.get(_over_name(section, None))
    if over != "hopf":
        raise ResolveError("section %r must be over a hopf section, got %s" % (section.name, over), None)
    bases = {"over": {label: i for i, label in enumerate(h.basis)}}
    if kind != "autpair":
        basis = _basis_of(section)
        bases["own"] = {label: i for i, label in enumerate(basis)}
        mu = _table("mu", lines, bases, rf.params)
        action, coaction = (
            _table(key, lines, bases, rf.params) if key in lines else None for key in ("act", "coact")
        )
        if kind == "module":
            if action is None:
                raise ResolveError("module section %r has no act lines" % section.name, None)
            return HomModuleData(h, action, mu, basis=basis)
        if kind == "comodule":
            if coaction is None:
                raise ResolveError("comodule section %r has no coact lines" % section.name, None)
            return HomComoduleData(h, coaction, mu, basis=basis)
        if action is None or coaction is None:
            raise ResolveError("ydmodule section %r needs act and coact lines" % section.name, None)
    pair = None
    for e in lines.get("pair", ()):
        pkind, obj = rf.get(e.value, e.line)
        if pkind != "autpair":
            raise ResolveError("pair reference %r is not an autpair" % e.value, e.line)
        if _over_name(rf.sections[e.value], e.line) != _over_name(section, e.line):
            raise ResolveError("pair reference %r is over a different hopf section" % e.value, e.line)
        pair = obj
    if pair is None:
        a, b = (HopfAutomorphism(_table(key, lines, bases, rf.params)) for key in ("a", "b"))
        pair = AutPair(a, b, label=section.name)
    if kind == "autpair":
        return pair
    return YDModuleData(h, action, coaction, mu, pair, basis=basis, label=section.name)


# ---------------------------------------------------------------------------
# suites over resolved files
# ---------------------------------------------------------------------------


SUITES = ("all", "algebra", "coalgebra", "hopf", "yd", "tcat")

# what each suite but "all" requires of a file, named as SuiteError does
_SUITE_NEEDS = {
    "algebra": "algebra section",
    "coalgebra": "coalgebra section",
    "hopf": "hopf section",
    "yd": "ydmodule, module or comodule section",
    "tcat": "hopf and ydmodule sections",
}


def run_checks(resolved, suite="all", seed=0):
    """Dispatch the named suite over every applicable section of the file,
    aggregating one flat report; identity ids are prefixed section:id."""
    if isinstance(resolved, DefinitionFile):
        resolved = resolve_definition(resolved)
    if suite not in SUITES:
        raise SuiteError("unknown suite %r; expected one of %s" % (suite, ", ".join(SUITES)))
    hopfs = resolved.of_kind("hopf")
    yds = resolved.of_kind("ydmodule")
    targets = {
        "algebra": resolved.of_kind("algebra") + [(n, h.algebra) for n, h in hopfs],
        "coalgebra": resolved.of_kind("coalgebra") + [(n, h.coalgebra) for n, h in hopfs],
        "hopf": hopfs,
        "yd": resolved.of_kind("module", "comodule", "ydmodule"),
        "tcat": hopfs if yds else [],
    }
    if suite != "all" and not targets[suite]:
        raise SuiteError("suite requires %s" % _SUITE_NEEDS[suite])
    rep = CheckReport(suite, seed=seed)

    if suite in ("all", "algebra"):
        for name, alg in targets["algebra"]:
            rep.extend(check_hom_algebra(alg).prefixed(name + ":"))

    if suite in ("all", "coalgebra"):
        for name, coa in targets["coalgebra"]:
            rep.extend(check_hom_coalgebra(coa).prefixed(name + ":"))

    if suite in ("all", "hopf"):
        for name, h in hopfs:
            if suite == "hopf":
                rep.extend(check_hom_algebra(h.algebra).prefixed(name + ":"))
                rep.extend(check_hom_coalgebra(h.coalgebra).prefixed(name + ":"))
            rep.extend(check_hom_bialgebra(h).prefixed(name + ":"))
            rep.extend(check_antipode(h).prefixed(name + ":"))

    if suite in ("all", "yd"):
        for name, yd in targets["yd"]:
            if not isinstance(yd, YDModuleData):
                check = check_hom_module if isinstance(yd, HomModuleData) else check_hom_comodule
                rep.extend(check(yd).prefixed(name + ":"))
                continue
            rep.extend(check_hom_module(yd).prefixed(name + ":"))
            rep.extend(check_hom_comodule(yd).prefixed(name + ":"))
            for pname, aut in (("pair-a", yd.pair_a), ("pair-b", yd.pair_b)):
                rep.add_verdict(
                    "%s:%s" % (name, pname), "component tag is a structure automorphism",
                    check_automorphism(yd.over, aut),
                )
            rep.extend(check_yd(yd).prefixed(name + ":"))
            rep.extend(check_yd_alt(yd).prefixed(name + ":"))

    if suite in ("all", "tcat"):
        for hname, h in targets["tcat"]:
            modules = [yd for _, yd in yds if yd.over is h]
            if not modules:
                continue
            modules = modules + [trivial_yd(h)]
            pairs = [AutPair.identity(h.dim)] + [pair for name, pair in resolved.of_kind("autpair")
                                                 if _over_name(resolved.sections[name], None) == hname]
            rep.extend(check_t_category(h, modules, pairs).prefixed(hname + ":"))
    return rep

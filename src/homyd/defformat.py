"""Textual definition format for algebras, modules and automorphism pairs.

The format is line oriented and UTF-8; `#` starts a comment anywhere on a
line.  A file is a sequence of sections:

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

Section names are unique; a repeated name is a ParseError at its header.
A line may repeat the arguments of an earlier line of its family.  A mul or
act line then sets the cells it gives nonzero and keeps the rest; comul and
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

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .exactlin import ONE, ZERO, DimensionMismatch, LinearMap, SingularMap, table_map
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
from .reports import CheckReport
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


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class ParamRef:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


def _fold_neg(x, line, col):
    if isinstance(x, Num):
        return Num(-x.value)
    return Neg(x)


def _arith(op, left, right, line, col):
    """left op right on exact scalars; a zero divisor is a diagnostic."""
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if right == 0:
        raise ZeroDenominator(line, col)
    return left / right


def _fold_bin(op, left, right, line, col):
    if isinstance(left, Num) and isinstance(right, Num):
        return Num(_arith(op, left.value, right.value, line, col))
    if op == "*":
        if left == Num(ONE):
            return right
        if right == Num(ONE):
            return left
    return Bin(op, left, right)


def eval_expr(node, params, line):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, ParamRef):
        if node.name not in params:
            raise UnboundName(node.name, line)
        return params[node.name]
    if isinstance(node, Neg):
        return -eval_expr(node.arg, params, line)
    left = eval_expr(node.left, params, line)
    return _arith(node.op, left, eval_expr(node.right, params, line), line, None)


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


@dataclass(frozen=True)
class Term:
    coef: object  # scalar AST; Num(1) when implicit
    atom: tuple   # one or two basis labels


@dataclass(frozen=True)
class Entry:
    line: int = field(compare=False)
    key: str = ""
    args: tuple = ()
    value: object = None  # tuple[Term, ...] | scalar AST | tuple[str, ...] | str | int


@dataclass
class Section:
    kind: str
    name: str | None
    over: str | None
    entries: list


@dataclass
class DefinitionFile:
    sections: list

    def section(self, name):
        for s in self.sections:
            if s.name == name:
                return s
        raise KeyError(name)


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

# keys whose right-hand side is `label -> combo`
_MAP_KEYS = {"alpha", "gamma", "mu", "antipode", "a", "b"}
# keys whose right-hand side is `label label -> combo`
_BIN_KEYS = {"mul", "act"}
# keys producing tensor pairs
_PAIR_KEYS = {"comul", "coact"}


_TOKEN_RE = re.compile(
    r"[ \t]*(?:(?P<arrow>->)|(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[@+\-*/();:=\[\]])|(?P<bad>.))"
)


def _tokenize(text, lineno):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        pos = m.end()
        col = m.start(m.lastgroup) + 1
        kind = m.lastgroup
        value = m.group(kind)
        if kind == "bad":
            raise ParseError(lineno, col, ("token",), value)
        tokens.append((kind, value, col))
    return tokens


class _Cursor:
    """Token stream of one line; past its last token it yields an
    end-of-line token one column beyond the line's text."""

    def __init__(self, line, lineno):
        self.tokens = _tokenize(line, lineno)
        self.end = ("end", "end of line", len(line) + 1)
        self.lineno = lineno
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else self.end

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def done(self):
        return self.i >= len(self.tokens)

    def expect(self, kinds, what):
        kind, value, col = self.next()
        if kind not in kinds:
            raise ParseError(self.lineno, col, what, value)
        return kind, value, col

    def fail(self, what):
        kind, value, col = self.peek()
        raise ParseError(self.lineno, col, what, value)


def _parse_scalar(cur):
    node = _parse_scalar_mul(cur)
    while cur.peek()[0] == "op" and cur.peek()[1] in "+-":
        _, op, col = cur.next()
        node = _fold_bin(op, node, _parse_scalar_mul(cur), cur.lineno, col)
    return node


def _parse_scalar_mul(cur):
    node = _parse_scalar_unary(cur)
    while cur.peek()[0] == "op" and cur.peek()[1] in "*/":
        _, op, col = cur.next()
        node = _fold_bin(op, node, _parse_scalar_unary(cur), cur.lineno, col)
    return node


def _parse_scalar_unary(cur):
    kind, value, col = cur.peek()
    if kind == "op" and value == "-":
        cur.next()
        return _fold_neg(_parse_scalar_unary(cur), cur.lineno, col)
    if kind == "num":
        cur.next()
        return Num(Fraction(value))
    if kind == "ident":
        cur.next()
        return ParamRef(value)
    if kind == "op" and value == "(":
        cur.next()
        node = _parse_scalar(cur)
        cur.expect(("op",), ("')'",))
        return node
    cur.fail(("number", "name", "'('", "'-'"))


def _parse_combo(cur, pairs_allowed):
    """List of Terms; `0` alone denotes the empty combination."""
    kind, value, col = cur.peek()
    if kind == "num" and value == "0" and cur.i + 1 == len(cur.tokens):
        cur.next()
        return ()
    terms = [_parse_term(cur, pairs_allowed, negate=False)]
    while cur.peek()[0] == "op" and cur.peek()[1] in "+-":
        op = cur.next()[1]
        terms.append(_parse_term(cur, pairs_allowed, negate=(op == "-")))
    return tuple(terms)


def _parse_term(cur, pairs_allowed, negate):
    """A term is '*'-separated factors whose last factor is the basis atom."""
    while cur.peek()[0] == "op" and cur.peek()[1] == "-":
        cur.next()
        negate = not negate
    factors = [_parse_term_factor(cur)]
    while cur.peek()[0] == "op" and cur.peek()[1] == "*":
        cur.next()
        factors.append(_parse_term_factor(cur))
    atom = factors[-1]
    if not isinstance(atom, tuple):
        cur.fail(("basis label",))
    coef = None
    for f in factors[:-1]:
        if isinstance(f, tuple):
            # a bare label in coefficient position is a parameter reference
            if len(f) != 1:
                raise ParseError(cur.lineno, cur.peek()[2], ("scalar factor",), "@".join(f))
            f = Num(Fraction(f[0])) if f[0].isdigit() else ParamRef(f[0])
        coef = f if coef is None else _fold_bin("*", coef, f, cur.lineno, cur.peek()[2])
    if coef is None:
        coef = Num(ONE)
    if negate:
        coef = _fold_neg(coef, cur.lineno, cur.peek()[2])
    if len(atom) == 2 and not pairs_allowed:
        raise ParseError(cur.lineno, cur.peek()[2], ("plain basis label",), "@".join(atom))
    if len(atom) == 1 and pairs_allowed:
        raise ParseError(cur.lineno, cur.peek()[2], ("tensor pair label@label",), atom[0])
    return Term(coef, atom)


def _parse_term_factor(cur):
    """Either a scalar coefficient factor or a basis atom.

    A lone identifier or number could be either; atoms are recognised by
    *not* being followed by an arithmetic continuation, and tensor pairs by
    the infix @.  Ambiguity is settled when the term ends: the final factor
    must be an atom.
    """
    kind, value, col = cur.peek()
    if kind == "op" and value == "-":
        cur.next()
        return _fold_neg(_parse_scalar_unary(cur), cur.lineno, col)
    if kind == "op" and value == "(":
        cur.next()
        node = _parse_scalar(cur)
        cur.expect(("op",), ("')'",))
        return node
    if kind in ("num", "ident"):
        cur.next()
        if cur.peek()[0] == "op" and cur.peek()[1] == "@":
            cur.next()
            kind2, value2, col2 = cur.expect(("num", "ident"), ("basis label",))
            return (value, value2)
        if cur.peek()[0] == "op" and cur.peek()[1] == "/":
            _, _, slash = cur.next()
            base = Num(Fraction(value)) if kind == "num" else ParamRef(value)
            return _fold_bin("/", base, _parse_scalar_unary(cur), cur.lineno, slash)
        return (value,)
    cur.fail(("basis label", "scalar factor"))


class _SectionState:
    """Per-section label bookkeeping during the parse."""

    def __init__(self, section):
        self.section = section
        self.basis = None
        self.via_dim = False
        # the section this one is over, and whether lines were read over it
        self.over = section.over
        self.over_read = False

    def declare(self, key, labels, lineno):
        if self.basis is not None:
            raise ParseError(lineno, 1, ("single basis/dim declaration",), key)
        self.basis = tuple(labels)
        self.via_dim = key == "dim"

    def index(self, label, lineno):
        if self.basis is None:
            raise UnboundName(label, lineno)
        try:
            return self.basis.index(label)
        except ValueError:
            if self.via_dim and re.fullmatch(r"e\d+", label):
                raise OutOfRangeIndex(label, len(self.basis), lineno) from None
            raise UnboundName(label, lineno) from None


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
    sections = []
    states = {}
    current = state = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        cur = _Cursor(line, lineno)
        kind, value, col = cur.peek()

        if kind == "op" and value == "[":
            current = _parse_header(cur, states)
            state = _SectionState(current)
            sections.append(current)
            if current.name is not None:
                states[current.name] = state
            continue

        if current is None:
            raise ParseError(lineno, 1, ("section header",), value)

        if current.kind == "params":
            _, name, _ = cur.expect(("ident",), ("parameter name",))
            cur.expect(("op",), ("'='",))
            expr = _parse_scalar(cur)
            cur.expect(("end",), ("end of line",))
            current.entries.append(Entry(lineno, "param", (name,), expr))
            continue

        _, key, kcol = cur.expect(("ident",), ("entry key",))
        if key not in _KEYS[current.kind]:
            raise ParseError(lineno, kcol, tuple(sorted(_KEYS[current.kind])), key)
        cur.expect(("op",), ("':'",))
        current.entries.append(_parse_entry(cur, key, state, states, lineno))
    return DefinitionFile(sections)


def _parse_header(cur, states):
    lineno = cur.lineno
    cur.expect(("op",), ("'['",))
    _, kind, col = cur.expect(("ident",), SECTION_KINDS)
    if kind not in SECTION_KINDS:
        raise ParseError(lineno, col, SECTION_KINDS, kind)
    name = None
    over = None
    if kind != "params":
        _, name, col = cur.expect(("ident", "num"), ("section name",))
        if name in states:
            raise ParseError(lineno, col, ("unused section name",), name)
        nxt = cur.peek()
        if nxt[0] == "ident" and nxt[1] == "over":
            cur.next()
            _, over, _ = cur.expect(("ident", "num"), ("section name",))
    cur.expect(("op",), ("']'",))
    cur.expect(("end",), ("end of line",))
    return Section(kind, name, over, [])


def _over_name(section, lineno):
    """The section this one is over: its last `over:` entry, else its header's."""
    name = section.over
    for e in section.entries:
        if e.key == "over":
            name = e.value
    if name is None:
        raise ResolveError("section %r needs an 'over' reference" % section.name, lineno)
    return name


def _over_state(state, states, lineno):
    """The parse state of the section that state's section is over so far,
    marked as read over, so that a later `over:` cannot move it."""
    name = state.over
    if name is None:
        raise ResolveError("section %r needs an 'over' reference" % state.section.name, lineno)
    if name not in states:
        raise UnboundName(name, lineno)
    state.over_read = True
    return states[name]


def _parse_entry(cur, key, state, states, lineno):
    if key == "basis":
        labels = []
        while not cur.done():
            k, v, c = cur.expect(("ident", "num"), ("basis label",))
            labels.append(v)
        if not labels:
            cur.fail(("basis label",))
        state.declare("basis", labels, lineno)
        return Entry(lineno, "basis", (), tuple(labels))
    if key == "dim":
        _, v, _ = cur.expect(("num",), ("dimension",))
        cur.expect(("end",), ("end of line",))
        state.declare("dim", ("e%d" % i for i in range(int(v))), lineno)
        return Entry(lineno, "dim", (), int(v))
    if key in ("over", "pair"):
        _, v, col = cur.expect(("ident", "num"), ("section name" if key == "over" else "autpair name",))
        cur.expect(("end",), ("end of line",))
        if v not in states:
            raise UnboundName(v, lineno)
        if key == "over":
            # resolution reads every line over the last `over:`, so it may
            # not move away from the section earlier lines were checked in
            if state.over_read and v != state.over:
                raise ParseError(lineno, col, ("%r, which earlier lines of this section are over" % state.over,), v)
            state.over = v
        return Entry(lineno, key, (), v)

    if key == "unit":
        combo = _parse_combo(cur, pairs_allowed=False)
        cur.expect(("end",), ("end of line",))
        for t in combo:
            state.index(t.atom[0], lineno)
        return Entry(lineno, "unit", (), combo)

    if key == "counit":
        _, lbl, _ = cur.expect(("ident", "num"), ("basis label",))
        state.index(lbl, lineno)
        cur.expect(("arrow",), ("'->'",))
        expr = _parse_scalar(cur)
        cur.expect(("end",), ("end of line",))
        return Entry(lineno, "counit", (lbl,), expr)

    # the remaining keys are the table families of _MAP_KEYS, _BIN_KEYS and _PAIR_KEYS
    args = []
    for _ in range(2 if key in _BIN_KEYS else 1):
        _, lbl, _ = cur.expect(("ident", "num"), ("basis label",))
        args.append(lbl)
    cur.expect(("arrow",), ("'->'",))
    combo = _parse_combo(cur, pairs_allowed=(key in _PAIR_KEYS))
    cur.expect(("end",), ("end of line",))
    _validate_entry_labels(key, args, combo, state, states, lineno)
    return Entry(lineno, key, tuple(args), combo)


def _validate_entry_labels(key, args, combo, state, states, lineno):
    """Index every label reference so bad names fail at parse time: each
    argument and each leg of a term in the basis it belongs to."""
    over = _over_state(state, states, lineno) if key in ("act", "coact", "a", "b") else None
    if key == "act":
        arg_bases, leg_bases = (over, state), (state,)
    elif key == "coact":
        arg_bases, leg_bases = (state,), (state, over)
    elif key in ("a", "b"):
        arg_bases, leg_bases = (over,), (over,)
    else:
        arg_bases, leg_bases = (state, state), (state, state)
    for label, basis in zip(args, arg_bases):
        basis.index(label, lineno)
    for t in combo:
        for label, basis in zip(t.atom, leg_bases):
            basis.index(label, lineno)


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
        self.objects = {}   # name -> (kind, object)
        self.sections = {}  # name -> Section
        self.order = []

    def of_kind(self, *kinds):
        return [(n, obj) for n in self.order for k, obj in (self.objects[n],) if k in kinds]

    def get(self, name, line=None):
        if name not in self.objects:
            raise UnboundName(name, line)
        return self.objects[name]


def _basis_of(section, lineno=None):
    basis = None
    for e in section.entries:
        if e.key == "basis":
            basis = e.value
        elif e.key == "dim":
            basis = tuple("e%d" % i for i in range(e.value))
    if basis is None:
        raise ResolveError("section %r declares no basis" % section.name, lineno)
    return basis


def _combo_vec(combo, basis, params, line):
    out = [ZERO] * len(basis)
    for t in combo:
        out[basis.index(t.atom[0])] += eval_expr(t.coef, params, line)
    return tuple(out)


def _square_map(entries_by_key, key, basis, params):
    """Assemble a dim x dim map from `key: lbl -> combo` lines; identity
    when no line of that family appears."""
    lines = entries_by_key.get(key, [])
    n = len(basis)
    if not lines:
        return LinearMap.identity(n)
    cols = {}
    for e in lines:
        cols[basis.index(e.args[0])] = _combo_vec(e.value, basis, params, e.line)
    allcols = [cols.get(j, tuple(ZERO for _ in range(n))) for j in range(n)]
    return LinearMap.from_cols(allcols)


def _product_map(lines, left_basis, right_basis, params):
    """L (x) R -> R from `l r -> combo` lines (mul, act); a repeated line
    sets the cells it gives nonzero and keeps the rest."""
    cells = {}
    for e in lines:
        i, j = left_basis.index(e.args[0]), right_basis.index(e.args[1])
        for k, v in enumerate(_combo_vec(e.value, right_basis, params, e.line)):
            if v:
                cells[i, j, k] = v
    return table_map((len(left_basis), len(right_basis), len(right_basis)), cells, 1)


def _pair_map(lines, left_basis, right_basis, params):
    """L -> L (x) R from `l -> combo of l@r` lines (comul, coact); repeated
    terms and lines add up."""
    cells = {}
    for e in lines:
        j = left_basis.index(e.args[0])
        for t in e.value:
            key = j, left_basis.index(t.atom[0]), right_basis.index(t.atom[1])
            cells[key] = cells.get(key, 0) + eval_expr(t.coef, params, e.line)
    return table_map((len(left_basis), len(left_basis), len(right_basis)), cells, 2)


def _group_entries(section):
    grouped = {}
    for e in section.entries:
        grouped.setdefault(e.key, []).append(e)
    return grouped


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
        builder = _BUILDERS[section.kind]
        rf.sections[section.name] = section
        try:
            obj = builder(section, rf)
        except (SingularMap, DimensionMismatch, InvalidStructure) as exc:
            raise ResolveError(
                "section %r does not define a usable structure: %s" % (section.name, exc)
            ) from exc
        rf.objects[section.name] = (section.kind, obj)
        rf.order.append(section.name)
    return rf


def _resolve_algebra_parts(section, rf, basis):
    g = _group_entries(section)
    params = rf.params
    unit_lines = g.get("unit")
    if not unit_lines:
        raise ResolveError("section %r has no unit" % section.name, None)
    unit = LinearMap.from_cols([_combo_vec(unit_lines[-1].value, basis, params, unit_lines[-1].line)])
    mul = _product_map(g.get("mul", []), basis, basis, params)
    return mul, unit, _square_map(g, "alpha", basis, params)


def _resolve_coalgebra_parts(section, rf, basis, twist_key):
    g = _group_entries(section)
    params = rf.params
    comul = _pair_map(g.get("comul", []), basis, basis, params)
    counit = [ZERO] * len(basis)
    for e in g.get("counit", []):
        counit[basis.index(e.args[0])] = eval_expr(e.value, params, e.line)
    return comul, LinearMap.from_rows([counit]), _square_map(g, twist_key, basis, params)


def _build_algebra(section, rf):
    basis = _basis_of(section)
    mul, unit, alpha = _resolve_algebra_parts(section, rf, basis)
    return HomAlgebraData(basis, mul, unit, alpha)


def _build_coalgebra(section, rf):
    basis = _basis_of(section)
    comul, counit, gamma = _resolve_coalgebra_parts(section, rf, basis, "gamma")
    return HomCoalgebraData(basis, comul, counit, gamma)


def _build_hopf(section, rf):
    basis = _basis_of(section)
    mul, unit, alpha = _resolve_algebra_parts(section, rf, basis)
    comul, counit, _ = _resolve_coalgebra_parts(section, rf, basis, "alpha")
    g = _group_entries(section)
    if "antipode" not in g:
        raise ResolveError("hopf section %r has no antipode" % section.name, None)
    antipode = _square_map(g, "antipode", basis, rf.params)
    return HomHopfAlgebraData.from_maps(basis, mul, unit, comul, counit, antipode, alpha)


def _over_hopf(section, rf):
    kind, obj = rf.get(_over_name(section, None))
    if kind != "hopf":
        raise ResolveError("section %r must be over a hopf section, got %s" % (section.name, kind), None)
    return obj


def _resolve_carrier(section, rf, h):
    basis = _basis_of(section)
    g = _group_entries(section)
    params = rf.params
    mu = _square_map(g, "mu", basis, params)
    action = _product_map(g["act"], h.basis, basis, params) if "act" in g else None
    coaction = _pair_map(g["coact"], basis, h.basis, params) if "coact" in g else None
    return basis, mu, action, coaction


def _build_module(section, rf):
    h = _over_hopf(section, rf)
    basis, mu, action, _ = _resolve_carrier(section, rf, h)
    if action is None:
        raise ResolveError("module section %r has no act lines" % section.name, None)
    return HomModuleData(h, len(basis), action, mu, basis=basis)


def _build_comodule(section, rf):
    h = _over_hopf(section, rf)
    basis, mu, _, coaction = _resolve_carrier(section, rf, h)
    if coaction is None:
        raise ResolveError("comodule section %r has no coact lines" % section.name, None)
    return HomComoduleData(h, len(basis), coaction, mu, basis=basis)


def _build_autpair_maps(section, rf, h):
    g = _group_entries(section)
    a = _square_map(g, "a", h.basis, rf.params)
    b = _square_map(g, "b", h.basis, rf.params)
    return AutPair(HopfAutomorphism(a), HopfAutomorphism(b), label=section.name)


def _build_autpair(section, rf):
    h = _over_hopf(section, rf)
    return _build_autpair_maps(section, rf, h)


def _build_ydmodule(section, rf):
    h = _over_hopf(section, rf)
    basis, mu, action, coaction = _resolve_carrier(section, rf, h)
    if action is None or coaction is None:
        raise ResolveError("ydmodule section %r needs act and coact lines" % section.name, None)
    pair = None
    for e in section.entries:
        if e.key == "pair":
            kind, obj = rf.get(e.value, e.line)
            if kind != "autpair":
                raise ResolveError("pair reference %r is not an autpair" % e.value, e.line)
            if _over_name(rf.sections[e.value], e.line) != _over_name(section, e.line):
                raise ResolveError("pair reference %r is over a different hopf section" % e.value, e.line)
            pair = obj
    if pair is None:
        pair = _build_autpair_maps(section, rf, h)
    return YDModuleData(h, action, coaction, mu, pair, basis=basis, label=section.name)


_BUILDERS = {
    "algebra": _build_algebra,
    "coalgebra": _build_coalgebra,
    "hopf": _build_hopf,
    "module": _build_module,
    "comodule": _build_comodule,
    "ydmodule": _build_ydmodule,
    "autpair": _build_autpair,
}


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
            rep.extend(check_hom_module(yd.module).prefixed(name + ":"))
            rep.extend(check_hom_comodule(yd.comodule).prefixed(name + ":"))
            for pname, aut in (("pair-a", yd.pair_a), ("pair-b", yd.pair_b)):
                rep.add_verdict(
                    "%s:%s" % (name, pname), "component tag is a structure automorphism",
                    check_automorphism(yd.over, aut),
                )
            rep.extend(check_yd(yd).prefixed(name + ":"))
            rep.extend(check_yd_alt(yd).prefixed(name + ":"))

    if suite in ("all", "tcat"):
        from .t_category import check_t_category

        for hname, h in targets["tcat"]:
            modules = [yd for _, yd in yds if yd.over is h]
            if not modules:
                continue
            modules = modules + [trivial_yd(h)]
            pairs = [AutPair.identity(h.dim)]
            for _, pair in resolved.of_kind("autpair"):
                if pair.a.matrix.rows == h.dim:
                    pairs.append(pair)
            rep.extend(check_t_category(h, modules, pairs, seed=seed).prefixed(hname + ":"))
    return rep

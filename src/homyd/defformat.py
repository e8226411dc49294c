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

A token is a number, a name, the arrow `->` or one of the characters
@ + - * / ( ) ; : = [ ]; spaces and tabs separate tokens, and any other
character is a ParseError.  The arrow and each punctuation character are
each a token kind of their own, so a wrong one (`q : 2`, `[algebra A)`) is
a ParseError at it.

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

import re
from fractions import Fraction

from .exactlin import ONE, DimensionMismatch, LinearMap, SingularMap, table_map
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

# the kinds of a token that is a basis label or section name
_LABEL = ("ident", "num")

# spaces and tabs separate tokens; any other character outside a token is bad
_TOKEN_RE = re.compile(
    r"(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>->|[@+\-*/();:=\[\]])|(?P<bad>[^ \t])"
)


class _Cursor:
    """Token stream of one line, (kind, value, col) triples ending in an
    end-of-line token one column beyond the line's text.  The kind of the
    arrow and of each punctuation character is its own text."""

    def __init__(self, line, lineno):
        self.lineno = lineno
        self.i = 0
        self.tokens = []
        for m in _TOKEN_RE.finditer(line):
            kind, value = m.lastgroup, m.group()
            if kind == "bad":
                raise ParseError(lineno, m.start() + 1, ("token",), value)
            self.tokens.append((value if kind == "punct" else kind, value, m.start() + 1))
        self.tokens.append(("end", "end of line", len(line) + 1))

    def peek(self):
        return self.tokens[self.i]

    def accept(self, kinds):
        """The next token, consumed, if its kind is one of kinds; else None."""
        tok = self.tokens[self.i]
        if tok[0] in kinds:
            self.i += 1
            return tok
        return None

    def expect(self, kinds, what):
        """The next token, consumed; a ParseError naming what if its kind
        is not one of kinds."""
        tok = self.tokens[self.i]
        if tok[0] not in kinds:
            raise ParseError(self.lineno, tok[2], what, tok[1])
        self.i += 1
        return tok


def _leaf(kind, value):
    """The scalar of a number or name token."""
    return Num(Fraction(value)) if kind == "num" else ParamRef(value)


def _parse_scalar(cur):
    node = _parse_scalar_mul(cur)
    while op := cur.accept(("+", "-")):
        node = _fold_bin(op[0], node, _parse_scalar_mul(cur), cur.lineno, op[2])
    return node


def _parse_scalar_mul(cur):
    node = _parse_scalar_unary(cur)
    while op := cur.accept(("*", "/")):
        node = _fold_bin(op[0], node, _parse_scalar_unary(cur), cur.lineno, op[2])
    return node


def _parse_scalar_unary(cur):
    kind, value, _ = cur.expect(("-", "num", "ident", "("), ("number", "name", "'('", "'-'"))
    if kind == "-":
        return _fold_neg(_parse_scalar_unary(cur))
    if kind == "(":
        node = _parse_scalar(cur)
        cur.expect((")",), ("')'",))
        return node
    return _leaf(kind, value)


def _parse_combo(cur, pairs_allowed):
    """List of Terms; `0` alone denotes the empty combination."""
    if cur.peek()[1] == "0" and cur.tokens[cur.i + 1][0] == "end":
        cur.accept(("num",))
        return ()
    terms = [_parse_term(cur, pairs_allowed, negate=False)]
    while op := cur.accept(("+", "-")):
        terms.append(_parse_term(cur, pairs_allowed, negate=(op[0] == "-")))
    return tuple(terms)


def _parse_term(cur, pairs_allowed, negate):
    """A term is '*'-separated factors whose last factor is the basis atom."""
    while cur.accept(("-",)):
        negate = not negate
    factors = [_parse_term_factor(cur)]
    while cur.accept(("*",)):
        factors.append(_parse_term_factor(cur))
    atom = factors[-1]
    _, found, col = cur.peek()
    if not isinstance(atom, tuple):
        raise ParseError(cur.lineno, col, ("basis label",), found)
    coef = None
    for f in factors[:-1]:
        if isinstance(f, tuple):
            # a bare label in coefficient position is a parameter reference
            if len(f) != 1:
                raise ParseError(cur.lineno, col, ("scalar factor",), "@".join(tok[1] for tok in f))
            kind, value, _ = f[0]
            f = _leaf(kind, value)
        coef = f if coef is None else _fold_bin("*", coef, f, cur.lineno, col)
    if coef is None:
        coef = Num(ONE)
    if negate:
        coef = _fold_neg(coef)
    atom = tuple(tok[1] for tok in atom)
    if len(atom) == 2 and not pairs_allowed:
        raise ParseError(cur.lineno, col, ("plain basis label",), "@".join(atom))
    if len(atom) == 1 and pairs_allowed:
        raise ParseError(cur.lineno, col, ("tensor pair label@label",), atom[0])
    return Term(coef, atom)


def _parse_term_factor(cur):
    """Either a scalar coefficient factor or a basis atom, the tuple of its
    one or two label tokens.

    A lone identifier or number could be either; atoms are recognised by
    *not* being followed by an arithmetic continuation, and tensor pairs by
    the infix @.  Ambiguity is settled when the term ends: the final factor
    must be an atom.
    """
    if cur.peek()[0] in ("-", "("):
        return _parse_scalar_unary(cur)
    label = cur.expect(_LABEL, ("basis label", "scalar factor"))
    if cur.accept(("@",)):
        return (label, cur.expect(_LABEL, ("basis label",)))
    slash = cur.accept(("/",))
    if slash:
        return _fold_bin("/", _leaf(label[0], label[1]), _parse_scalar_unary(cur), cur.lineno, slash[2])
    return (label,)


class _SectionState:
    """Per-section label bookkeeping during the parse."""

    def __init__(self, section):
        self.section = section
        self.labels = None
        self.via_dim = False
        # the section this one is over, and whether lines were read over it
        self.over = section.over
        self.over_read = False

    def declare(self, key, labels, lineno):
        if self.labels is not None:
            raise ParseError(lineno, 1, ("single basis/dim declaration",), key)
        self.labels = frozenset(labels)
        self.via_dim = key == "dim"

    def check(self, label, lineno):
        """A diagnostic unless label is one of the declared basis labels."""
        if self.labels is None:
            raise UnboundName(label, lineno)
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
    sections = []
    states = {}
    current = state = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        cur = _Cursor(line, lineno)

        if cur.accept(("[",)):
            current = _parse_header(cur, states)
            state = _SectionState(current)
            sections.append(current)
            if current.name is not None:
                states[current.name] = state
            continue

        if current is None:
            raise ParseError(lineno, 1, ("section header",), cur.peek()[1])

        if current.kind == "params":
            _, name, _ = cur.expect(("ident",), ("parameter name",))
            cur.expect(("=",), ("'='",))
            expr = _parse_scalar(cur)
            cur.expect(("end",), ("end of line",))
            current.entries.append(Entry(lineno, "param", (name,), expr))
            continue

        _, key, kcol = cur.expect(("ident",), ("entry key",))
        if key not in _KEYS[current.kind]:
            raise ParseError(lineno, kcol, tuple(sorted(_KEYS[current.kind])), key)
        cur.expect((":",), ("':'",))
        current.entries.append(_parse_entry(cur, key, state, states, lineno))
    return DefinitionFile(sections)


def _parse_header(cur, states):
    """The rest of a section header line after its '['."""
    lineno = cur.lineno
    _, kind, col = cur.expect(("ident",), SECTION_KINDS)
    if kind not in SECTION_KINDS:
        raise ParseError(lineno, col, SECTION_KINDS, kind)
    name = None
    over = None
    if kind != "params":
        _, name, col = cur.expect(_LABEL, ("section name",))
        if name in states:
            raise ParseError(lineno, col, ("unused section name",), name)
        if cur.peek()[1] == "over":
            cur.accept(("ident",))
            _, over, _ = cur.expect(_LABEL, ("section name",))
    cur.expect(("]",), ("']'",))
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


def _parse_entry(cur, key, state, states, lineno):
    if key == "basis":
        labels = {}
        while cur.peek()[0] != "end" or not labels:
            _, label, col = cur.expect(_LABEL, ("basis label",))
            if label in labels:
                raise ParseError(lineno, col, ("basis label not declared before",), label)
            labels[label] = None
        state.declare("basis", labels, lineno)
        return Entry(lineno, "basis", (), tuple(labels))
    if key == "dim":
        _, v, _ = cur.expect(("num",), ("dimension",))
        cur.expect(("end",), ("end of line",))
        state.declare("dim", ("e%d" % i for i in range(int(v))), lineno)
        return Entry(lineno, "dim", (), int(v))
    if key in ("over", "pair"):
        _, v, col = cur.expect(_LABEL, ("section name" if key == "over" else "autpair name",))
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

    # a table line: its argument labels, then `-> value` (unit: the value alone)
    arg_legs, term_legs = _LEGS[key]
    args = tuple(cur.expect(_LABEL, ("basis label",))[1] for _ in arg_legs)
    if not term_legs:
        # counit: its label is checked before its scalar is read
        state.check(args[0], lineno)
        cur.expect(("->",), ("'->'",))
        value = _parse_scalar(cur)
        cur.expect(("end",), ("end of line",))
        return Entry(lineno, key, args, value)
    if args:
        cur.expect(("->",), ("'->'",))
    combo = _parse_combo(cur, pairs_allowed=len(term_legs) == 2)
    cur.expect(("end",), ("end of line",))
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
        bases[leg].check(label, lineno)
    for t in combo:
        for label, leg in zip(t.atom, term_legs):
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


def _table(key, lines, bases, params):
    """The map of a section's `key` lines, read through exactlin.table_map.

    lines maps each key to its entries in file order, and bases maps each
    leg of _LEGS[key] to its basis labels.  The domain is the argument
    legs, the codomain the term legs (a scalar for counit).  A key with
    one argument and one leg and no line is the identity.  A repeated
    line follows its family's rule: comul and coact terms add up, a mul or
    act line sets the cells it gives nonzero and keeps the rest, and every
    other line replaces its column.
    """
    arg_legs, term_legs = _LEGS[key]
    family = lines.get(key, ())
    if not family and len(arg_legs) == len(term_legs) == 1:
        return LinearMap.identity(len(bases[arg_legs[0]]))
    index = {leg: {label: i for i, label in enumerate(basis)} for leg, basis in bases.items()}
    arg_index = [index[leg] for leg in arg_legs]
    term_index = [index[leg] for leg in term_legs]
    columns = {}
    for e in family:
        col = tuple(map(dict.__getitem__, arg_index, e.args))
        if not term_legs:
            cells = {(0,): eval_expr(e.value, params, e.line)}
        else:
            cells = {}
            for t in e.value:
                cell = tuple(map(dict.__getitem__, term_index, t.atom))
                v = eval_expr(t.coef, params, e.line)
                cells[cell] = cells[cell] + v if cell in cells else v
        if len(term_legs) == 2:  # comul, coact
            old = columns.setdefault(col, {})
            for cell, v in cells.items():
                old[cell] = old[cell] + v if cell in old else v
        elif len(arg_legs) == 2:  # mul, act
            columns.setdefault(col, {}).update((cell, v) for cell, v in cells.items() if v)
        else:
            columns[col] = cells
    dims = tuple(len(bases[leg]) for leg in arg_legs) + (tuple(len(bases[leg]) for leg in term_legs) or (1,))
    pad = (0,) * (3 - len(dims))
    data = {pad + col + cell: v for col, cells in columns.items() for cell, v in cells.items()}
    return table_map((1,) * len(pad) + dims, data, max(len(term_legs), 1))


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
    bases = {"own": basis}
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
    bases = {"over": h.basis}
    if kind != "autpair":
        basis = bases["own"] = _basis_of(section)
        mu = _table("mu", lines, bases, rf.params)
        action, coaction = (
            _table(key, lines, bases, rf.params) if key in lines else None for key in ("act", "coact")
        )
        if kind == "module":
            if action is None:
                raise ResolveError("module section %r has no act lines" % section.name, None)
            return HomModuleData(h, len(basis), action, mu, basis=basis)
        if kind == "comodule":
            if coaction is None:
                raise ResolveError("comodule section %r has no coact lines" % section.name, None)
            return HomComoduleData(h, len(basis), coaction, mu, basis=basis)
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

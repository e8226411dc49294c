"""Machine-readable verdicts for identity checks.

A CheckReport is a flat list of items, one per verified identity (or per
identity instance, when a suite runs the same law over several module
tuples).  A law is one record (identity, law text, legs, lhs, rhs):
an equality of two LinearMaps lhs and rhs on the tensor product of the
domain legs, each leg the tuple of its basis labels.  A column of either
side is the law evaluated at one basis tuple of the legs, which suffices
by multilinearity; check_laws checks a suite's records in order.
Identity ids are stable strings so reports stay diffable across runs; a
failing item carries the first differing column, as basis indices, their
labels from the legs and both sides' coordinates.
"""

from __future__ import annotations

import itertools
from math import prod
from operator import attrgetter

from .exactlin import DimensionMismatch

#: assigns a frozen record's field, in its __init__ only
_set = object.__setattr__


class _Record:
    """A value record: its fields are its __slots__, two records are equal
    when they are of one class and equal in the fields that equality
    compares, and the repr names every field.  Mutable, and so unhashable.

    A subclass names the compared fields with the class keyword compare;
    by default equality compares all of them.
    """

    __slots__ = ()

    def __init_subclass__(cls, compare=None):
        fields = compare or cls.__slots__
        if fields:
            cls._key = attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __repr__(self):
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self.__slots__)
        return "%s(%s)" % (type(self).__qualname__, fields)


class _FrozenRecord(_Record):
    """A record whose fields are set once, by __init__; hashable."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not through setattr
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class Witness(_FrozenRecord):
    """First counterexample of a failed identity.

    inputs are basis indices into the identity's domain legs, labels the
    matching basis names, lhs/rhs the two sides' coordinate vectors.
    """

    __slots__ = ("inputs", "labels", "lhs", "rhs")

    def __init__(self, inputs, labels, lhs, rhs):
        _set(self, "inputs", inputs)
        _set(self, "labels", labels)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)


class CheckItem(_FrozenRecord):
    __slots__ = ("identity", "law", "passed", "witness")

    def __init__(self, identity, law, passed, witness=None):
        _set(self, "identity", identity)
        _set(self, "law", law)
        _set(self, "passed", passed)
        _set(self, "witness", witness)


class CheckReport(_Record):
    __slots__ = ("suite", "seed", "items")

    def __init__(self, suite, seed=0, items=None):
        self.suite = suite
        self.seed = seed
        self.items = [] if items is None else items

    def ok(self):
        return all(item.passed for item in self.items)

    def failures(self):
        return [item for item in self.items if not item.passed]

    def item(self, identity):
        for it in self.items:
            if it.identity == identity:
                return it
        raise KeyError(identity)

    def extend(self, other):
        self.items.extend(other.items)
        return self

    def add(self, identity, law, passed, witness=None):
        self.items.append(CheckItem(identity, law, passed, witness))

    def add_verdict(self, identity, law, sub):
        """Add one item that passes when every item of the report sub does,
        carrying the witness of sub's first failure."""
        ok = sub.ok()
        self.add(identity, law, ok, None if ok else sub.failures()[0].witness)

    def prefixed(self, prefix):
        """Copy with every identity id prefixed."""
        items = [CheckItem(prefix + it.identity, it.law, it.passed, it.witness) for it in self.items]
        return CheckReport(self.suite, self.seed, items)

    def summary(self):
        bad = len(self.failures())
        return "%s: %d identities, %d failing" % (self.suite, len(self.items), bad)

    def __iter__(self):
        return iter(self.items)


def check_all_vectors(report, identity, law, dims, labeler, evaluate):
    """Quantify an identity over all basis tuples of the given domain dims.

    evaluate(idx_tuple) must return (lhs, rhs) coordinate sequences; the
    first mismatch becomes the witness.
    """
    for idx in itertools.product(*(range(d) for d in dims)):
        lhs, rhs = evaluate(idx)
        if tuple(lhs) != tuple(rhs):
            report.add(
                identity,
                law,
                False,
                Witness(tuple(idx), tuple(labeler(idx)), tuple(lhs), tuple(rhs)),
            )
            return False
    report.add(identity, law, True)
    return True


def check_matrix_equal(report, identity, law, lhs, rhs, legs):
    """Compare two LinearMaps on the domain legs, a tuple of basis-label
    tuples whose flattening indexes the columns; on a mismatch the witness
    is the first differing column, as a basis tuple and its labels.  Legs
    that do not span lhs's columns are a DimensionMismatch."""
    dims = tuple(map(len, legs))
    if prod(dims) != lhs.cols:
        raise DimensionMismatch("%s: legs of sizes %r do not span %d columns" % (identity, dims, lhs.cols))
    if lhs == rhs:
        report.add(identity, law, True)
        return True
    if lhs.rows != rhs.rows or lhs.cols != rhs.cols:
        report.add(
            identity,
            law,
            False,
            Witness((), ("shape %dx%d vs %dx%d" % (lhs.rows, lhs.cols, rhs.rows, rhs.cols),), (), ()),
        )
        return False

    def column_pair(idx):
        j = 0
        for i, d in zip(idx, dims):
            j = j * d + i
        return lhs.column(j), rhs.column(j)

    return check_all_vectors(
        report, identity, law, dims, lambda idx: tuple(leg[i] for leg, i in zip(legs, idx)), column_pair,
    )


def check_laws(suite, laws):
    """The report of suite with one item per law record (identity, law
    text, legs, lhs, rhs), in order."""
    report = CheckReport(suite)
    for identity, law, legs, lhs, rhs in laws:
        check_matrix_equal(report, identity, law, lhs, rhs, legs)
    return report


#: the ground field's one leg
FIELD_LEG = ("1",)


def index_leg(n):
    """A leg of n basis vectors labelled by their indices "0", "1", ..."""
    return tuple(map(str, range(n)))

"""Value semantics of the definition-file AST records and the report records:
construction, equality, hashing, immutability and repr text."""

import copy
import pickle
from fractions import Fraction

import pytest

from homyd.defformat import Bin, DefinitionFile, Entry, Neg, Num, ParamRef, Section, Term
from homyd.reports import CheckItem, CheckReport, Witness

TWO = Num(Fraction(2))
C = ParamRef("c")
TERM = Term(TWO, ("x", "g"))
ENTRY = Entry(7, "mul", ("x", "g"), (TERM,))
WITNESS = Witness((0, 1), ("x", "g"), (Fraction(1),), (Fraction(-1, 2),))
ITEM = CheckItem("H4:eq", "eq-2.1", False, WITNESS)


def records():
    """One instance of each record class, built afresh."""
    section = Section("hopf", "H4", None, [ENTRY])
    return [
        TWO, C, Neg(C), Bin("*", Num(Fraction(-3, 2)), C), TERM, ENTRY,
        section, DefinitionFile([section]), WITNESS, ITEM, CheckReport("yd", 3, [ITEM]),
    ]


MUTABLE = (Section, DefinitionFile, CheckReport)
FROZEN = [r for r in records() if not isinstance(r, MUTABLE)]

#: repr text of records(), as the records print it
REPRS = [
    "Num(value=Fraction(2, 1))",
    "ParamRef(name='c')",
    "Neg(arg=ParamRef(name='c'))",
    "Bin(op='*', left=Num(value=Fraction(-3, 2)), right=ParamRef(name='c'))",
    "Term(coef=Num(value=Fraction(2, 1)), atom=('x', 'g'))",
    "Entry(line=7, key='mul', args=('x', 'g'), value=(Term(coef=Num(value=Fraction(2, 1)), atom=('x', 'g')),))",
    "Section(kind='hopf', name='H4', over=None, entries=[Entry(line=7, key='mul', args=('x', 'g'), "
    "value=(Term(coef=Num(value=Fraction(2, 1)), atom=('x', 'g')),))])",
    "DefinitionFile(sections=[Section(kind='hopf', name='H4', over=None, entries=[Entry(line=7, key='mul', "
    "args=('x', 'g'), value=(Term(coef=Num(value=Fraction(2, 1)), atom=('x', 'g')),))])])",
    "Witness(inputs=(0, 1), labels=('x', 'g'), lhs=(Fraction(1, 1),), rhs=(Fraction(-1, 2),))",
    "CheckItem(identity='H4:eq', law='eq-2.1', passed=False, witness=Witness(inputs=(0, 1), labels=('x', 'g'), "
    "lhs=(Fraction(1, 1),), rhs=(Fraction(-1, 2),)))",
    "CheckReport(suite='yd', seed=3, items=[CheckItem(identity='H4:eq', law='eq-2.1', passed=False, "
    "witness=Witness(inputs=(0, 1), labels=('x', 'g'), lhs=(Fraction(1, 1),), rhs=(Fraction(-1, 2),)))])",
]


def test_repr_text_is_pinned():
    assert [repr(r) for r in records()] == REPRS


def test_equal_fields_make_equal_records_and_types_are_told_apart():
    for a, b in zip(records(), records()):
        assert a == b and not a != b
    assert Num(Fraction(1)) != Num(Fraction(2))
    assert Neg(C) != Neg(ParamRef("d"))
    assert Bin("+", TWO, C) != Bin("-", TWO, C)
    # same fields, different class; a record is never equal to its field
    assert ParamRef("c") != Neg("c") and Num(Fraction(2)) != Fraction(2)
    assert CheckReport("yd") != CheckReport("yd", 1)
    assert Section("hopf", "H4", None, []) != Section("hopf", "H4", "K", [])


def test_entry_equality_and_hash_ignore_the_line():
    moved = Entry(99, "mul", ("x", "g"), (TERM,))
    assert moved == ENTRY and hash(moved) == hash(ENTRY)
    assert Entry(7, "mul", ("g", "x"), (TERM,)) != ENTRY


def test_equal_frozen_records_hash_equal():
    for a, b in zip(FROZEN, [r for r in records() if not isinstance(r, MUTABLE)]):
        assert hash(a) == hash(b)
    assert len({Num(Fraction(2)), Num(Fraction(4, 2)), C}) == 2


@pytest.mark.parametrize("record", [Section("params", None, None, []), DefinitionFile([]), CheckReport("yd")],
                         ids=["Section", "DefinitionFile", "CheckReport"])
def test_mutable_records_are_unhashable(record):
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment(record):
    before = repr(record)
    name = repr(record).split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert repr(record) == before


def test_mutable_records_take_assignment():
    section = Section("hopf", "H4", None, [])
    section.over = "K"
    assert section == Section("hopf", "H4", "K", [])
    report = CheckReport("yd")
    report.seed = 5
    assert report.seed == 5


def test_keyword_construction_and_defaults():
    assert Entry(line=3) == Entry(3, "", (), None)
    assert repr(Entry(3)) == "Entry(line=3, key='', args=(), value=None)"
    assert Term(atom=("x",), coef=TWO) == Term(TWO, ("x",))
    assert Bin(op="/", left=TWO, right=C) == Bin("/", TWO, C)
    assert Section(kind="algebra", name="A", over=None, entries=[]).kind == "algebra"
    assert DefinitionFile(sections=[]).sections == []
    assert Witness(inputs=(), labels=("s",), lhs=(), rhs=()).labels == ("s",)
    assert CheckItem("i", "l", True) == CheckItem(identity="i", law="l", passed=True, witness=None)
    assert CheckReport(suite="yd", seed=2).items == []


def test_fresh_reports_do_not_share_an_items_list():
    a, b = CheckReport("yd"), CheckReport("yd")
    a.add("x", "law", True)
    assert len(a.items) == 1 and b.items == []


def test_prefixed_keeps_law_verdict_and_witness():
    report = CheckReport("yd", 4, [ITEM, CheckItem("H4:ok", "eq-2.2", True)])
    copy_ = report.prefixed("M:")
    assert copy_ == CheckReport("yd", 4, [CheckItem("M:H4:eq", "eq-2.1", False, WITNESS),
                                          CheckItem("M:H4:ok", "eq-2.2", True)])
    assert copy_.items[0].witness is WITNESS
    assert report.items == [ITEM, CheckItem("H4:ok", "eq-2.2", True)]


def test_records_survive_copy_and_pickle():
    for record in records():
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(ENTRY).line == pickle.loads(pickle.dumps(ENTRY)).line == 7

import pytest

from finsec import (
    AdjacencyGraph,
    BandDiagonals,
    RfsmParameters,
    RfsmRecord,
    RfsmReport,
    SupportedVector,
    TableRule,
    assemble,
    build_example,
    builtin_domain,
    lattice_section,
    stability_scan,
)
from finsec.catalog import CheckResult
from finsec.cli import _Field
from conftest import periodic_rule


def _instances():
    """One instance of each value class, built the way the library builds it."""
    domain = builtin_domain("interval")
    window = lattice_section(domain, 3)
    operator = BandDiagonals.from_rules(1, {0: 3, 1: periodic_rule((2,), {0: 1})})
    report = stability_scan(operator, domain, range(1, 3))
    record = RfsmRecord(2, 4, 1e-12, 1.5, 2.0, None, None)
    return [
        CheckResult("parity", True, "stable"),
        build_example("shift"),
        _Field(3, "op.json", "diagonals[0]"),
        domain,
        window,
        TableRule((), 2 + 0j),
        operator.diagonals[1][1],
        TableRule.from_mapping({0: 1, 2: -1}, default=0.5),
        SupportedVector.from_entries(1, {0: 1, 1: 2j}),
        operator,
        AdjacencyGraph.from_edges(1, [((0,), (1,))]),
        report.records[0],
        report,
        record,
        RfsmReport("band", 8, (record,)),
        RfsmParameters(1e-3, 1e-4, 2, 4),
        assemble(operator, window, window),
    ]


IDENTITY = {"ExampleCase", "IndexSet", "SupportedVector", "AdjacencyGraph", "SectionMatrix"}


def _kind(value) -> str:
    """The class name, with a constant's or a periodic rule's kind after a table rule's."""
    if not isinstance(value, TableRule):
        return type(value).__name__
    if value.period is not None:
        return "TableRule-periodic"
    return "TableRule" if value.table else "TableRule-constant"


@pytest.mark.parametrize("value", _instances(), ids=_kind)
def test_value_classes_construct_freeze_and_compare(value):
    cls, fields = type(value), type(value)._fields
    positional, keyword = cls(*value._astuple()), cls(**value._asdict())
    for field in fields:
        assert getattr(positional, field) is getattr(keyword, field) is getattr(value, field)
    for name in (fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    if cls.__name__ in IDENTITY:
        assert positional != keyword and hash(positional) != hash(keyword)
    else:
        assert positional == keyword and hash(positional) == hash(keyword)

"""The read-only records: the contract ``spin7lab._record.Record`` gives
each of the package's twelve record classes.

Every record is built positionally and by keyword with the same result,
cannot be assigned or deleted through, equals only a record of its own type
with equal fields, hashes alike when equal (the three that hold dicts are
unhashable), shows its fields in declaration order, and rejects a missing,
unknown or doubled field with ``TypeError``.
"""

from collections.abc import Hashable

import pytest

from spin7lab.cayley import (CayleyStructure, DecompositionProjectors,
                             build_omega, projectors)
from spin7lab.classify import (Certificate, ClassificationReport,
                               JordanRepresentative, KernelSpace,
                               YoungDiagram, kernel_space, representative)
from spin7lab.harness.checks import SUITE_NAMES, CheckResult
from spin7lab.harness.cli import RunConfig
from spin7lab.invariant import chamber
from spin7lab.invariant.bryant_salamon import (BryantSalamon, InvariantField,
                                               build_bryant_salamon)
from spin7lab.invariant.liealg import LieFrame, build_lie_frame

from _oracles import count_function_calls

_D = YoungDiagram((3, 2, 2, 1))


def _values(record, fields):
    return tuple(getattr(record, f) for f in fields)


# record class -> (its fields in declaration order, a builder of one record)
RECORDS = {
    YoungDiagram: (("parts",), lambda: YoungDiagram((4, 4))),
    JordanRepresentative: (("diagram", "labels", "columns"),
                           lambda: representative(_D)),
    KernelSpace: (("diagram", "vectors", "representative"),
                  lambda: kernel_space(_D)),
    Certificate: (("diagram", "verdict", "dim_kernel", "pair"),
                  lambda: Certificate(_D, "excluded", 30,
                                      ((0, "w1"), (1, "v2")))),
    ClassificationReport: (("rows",), lambda: ClassificationReport(
        ((Certificate(YoungDiagram((1,) * 8), "admissible", 70), 0),))),
    CayleyStructure: (("omega", "alpha2", "re_beta"), build_omega),
    DecompositionProjectors: (("p1", "p7", "p27", "p35"), projectors),
    LieFrame: (("structure",), build_lie_frame),
    BryantSalamon: (("phi", "psi1", "psi2", "psi3", "f", "g", "fiber_forms"),
                    build_bryant_salamon),
    InvariantField: (("a", "b", "c"), lambda: InvariantField.of(1, 2, 3)),
    CheckResult: (("name", "passed", "detail", "duration_millis"),
                  lambda: CheckResult("x", True, {"k": 1}, 3)),
    RunConfig: (("suites", "seed", "output", "format", "include_timings"),
                lambda: RunConfig(("basics",), 5, None, "text", True)),
}
UNHASHABLE = {KernelSpace, JordanRepresentative, CheckResult}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    fields, build = RECORDS[cls]
    record = build()
    values = _values(record, fields)
    assert type(record) is cls and cls._fields == fields
    # positional and keyword construction give equal records
    twin = cls(*values)
    assert twin == record and twin is not record
    assert cls(**dict(zip(fields, values))) == record
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == record
    # read-only, for a field and for any other name
    for name in (fields[0], "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _values(record, fields) == values
    # equal only to a record of its own type
    assert record != values and values != record
    assert record.__eq__(values) is NotImplemented
    assert record != object()
    # hashed over the fields, unless it holds dicts
    if cls in UNHASHABLE:
        assert not isinstance(record, Hashable)
        with pytest.raises(TypeError, match=cls.__name__):
            hash(record)
    else:
        assert hash(twin) == hash(record)
    # repr in field order
    assert repr(record) == cls.__name__ + "(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    # a missing, an unknown or a doubled field; a missing one also
    # positionally, one short of the fields without a default
    required = sum(not hasattr(cls, f) for f in fields)
    bad = [((*values, values[0]), {}), (values, {"other": 1}),
           (values, {fields[0]: values[0]})]
    if cls is not RunConfig:  # every RunConfig field has a default
        bad.append(((), dict(zip(fields[1:], values[1:]))))
        bad.append((values[:required - 1], {}))
    for args, kwargs in bad:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_record_defaults():
    assert Certificate(_D, "admissible", 70).pair is None
    assert Certificate(_D, "admissible", 70) == \
        Certificate(_D, "admissible", 70, None)
    first, second = CheckResult("x", True), CheckResult("y", False)
    assert first.detail == {} and first.duration_millis == 0
    assert first.detail is not second.detail  # a new dict per result
    assert _values(RunConfig(), RECORDS[RunConfig][0]) == \
        (SUITE_NAMES, 0, None, "json", False)
    assert RunConfig() == RunConfig(suites=SUITE_NAMES, seed=0)


def test_maurer_cartan_table_is_built_once_per_frame_and_is_not_a_field(
        monkeypatch):
    built = count_function_calls(monkeypatch, chamber._maurer_cartan_table)
    frame = LieFrame(build_lie_frame().structure)
    table = frame.maurer_cartan_table
    assert frame.maurer_cartan_table is table and len(built) == 1
    fresh = LieFrame(frame.structure)
    assert fresh == frame and hash(fresh) == hash(frame)
    assert "maurer_cartan_table" not in vars(fresh)
    assert repr(fresh) == repr(frame)
    assert fresh.maurer_cartan_table == table and len(built) == 2
    # the per-blade rows of d: a property of the frame object, not a field
    assert "maurer_cartan_rows" not in LieFrame._fields
    assert "maurer_cartan_rows" not in vars(LieFrame(frame.structure))
    rows = frame.maurer_cartan_rows
    chamber.maurer_cartan_d(chamber.ChamberForm.generator(6), frame)
    assert frame.maurer_cartan_rows is rows and rows
    assert fresh == frame and hash(fresh) == hash(frame)
    assert repr(fresh) == repr(frame)

"""The six record types: construction, validation messages, immutability,
and equality, hash and repr by field (``SampleMatrix`` by identity)."""

import copy
import pickle
import re

import numpy as np
import pytest

from cholcorr import dependence_test
from cholcorr.ar1_sampling import Ar1Spec
from cholcorr.dependence_test import SampleMatrix, StageResult
from cholcorr.identities import IdentityReport
from cholcorr.randcorr import GeneratorConfig

STAGE = StageResult(k=1, r_semi=0.25, t_stat=2.5, df=48, critical=2.01, reject=True)

# TestReport is not imported by name, so that pytest does not collect it.
# Each record built positionally, the same built by keyword, and its repr
RECORDS = [
    (GeneratorConfig(5, 7), GeneratorConfig(n=5, seed=7, sign_bias=0.5),
     "GeneratorConfig(n=5, seed=7, sign_bias=0.5)"),
    (Ar1Spec(4, -0.5), Ar1Spec(n=4, rho=-0.5), "Ar1Spec(n=4, rho=-0.5)"),
    (IdentityReport("recursion", 1e-16, (2, 3, 0)),
     IdentityReport(name="recursion", max_residual=1e-16, location=(2, 3, 0)),
     "IdentityReport(name='recursion', max_residual=1e-16, location=(2, 3, 0))"),
    (StageResult(1, 0.25, 2.5, 48, 2.01, True), STAGE,
     "StageResult(k=1, r_semi=0.25, t_stat=2.5, df=48, critical=2.01, reject=True)"),
    (dependence_test.TestReport(0.05, (2, 1), (STAGE,), 1),
     dependence_test.TestReport(alpha=0.05, variable_order=(2, 1), per_k=(STAGE,),
                                largest_rejected_k=1),
     "TestReport(alpha=0.05, variable_order=(2, 1), per_k=(StageResult(k=1, r_semi=0.25, "
     "t_stat=2.5, df=48, critical=2.01, reject=True),), largest_rejected_k=1)"),
]
IDS = [type(r[0]).__name__ for r in RECORDS]


@pytest.mark.parametrize("positional,keyword,text", RECORDS, ids=IDS)
def test_equal_by_field(positional, keyword, text):
    assert positional == keyword and not positional != keyword
    assert hash(positional) == hash(keyword)
    assert repr(positional) == repr(keyword) == text
    assert len({positional, keyword}) == 1


# another valid value for every field of each record
OTHER_VALUES = [
    {"n": 6, "seed": 8, "sign_bias": 0.25},
    {"n": 5, "rho": 0.5},
    {"name": "product_sums", "max_residual": 2e-16, "location": (2, 3, 1)},
    {"k": 2, "r_semi": -0.25, "t_stat": -2.5, "df": 47, "critical": 2.02, "reject": False},
    {"alpha": 0.1, "variable_order": (1, 2), "per_k": (), "largest_rejected_k": None},
]


@pytest.mark.parametrize("record,other_values", [(r[0], o) for r, o in zip(RECORDS, OTHER_VALUES)],
                         ids=IDS)
def test_each_field_takes_part_in_equality(record, other_values):
    fields = {name: getattr(record, name) for name in type(record).__slots__}
    assert sorted(other_values) == sorted(fields)
    for name, value in other_values.items():
        other = type(record)(**{**fields, name: value})
        assert other != record and not other == record, name
        assert repr(other) != repr(record), name


def test_other_types_with_equal_fields_are_unequal():
    assert GeneratorConfig(4, 0) != Ar1Spec(4, 0)
    assert GeneratorConfig(4, 0) != (4, 0, 0.5)


@pytest.mark.parametrize("positional,keyword,text", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(positional, keyword, text):
    for clone in (pickle.loads(pickle.dumps(positional)), copy.copy(positional),
                  copy.deepcopy(positional)):
        assert type(clone) is type(positional) and clone == positional


def sample_block():
    return np.random.default_rng(3).standard_normal((20, 4))


@pytest.mark.parametrize("record", [r[0] for r in RECORDS] + [SampleMatrix(sample_block())],
                         ids=IDS + ["SampleMatrix"])
def test_fields_cannot_be_set_or_deleted(record):
    name = type(record).__slots__[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is before


def test_sample_matrix_keeps_a_read_only_copy():
    block = sample_block()
    x = SampleMatrix(block)
    assert (x.N, x.p) == (20, 4)
    assert np.array_equal(x.data, block) and x.data is not block
    assert not x.data.flags.writeable
    with pytest.raises(ValueError):
        x.data[0, 0] = 1.0
    block[0, 0] = 99.0
    assert x.data[0, 0] != 99.0


def test_sample_matrix_compares_and_hashes_by_identity():
    # its field is an array, which has no single truth value
    x = SampleMatrix(sample_block())
    assert x == x and not x != x and hash(x) == hash(x)
    for other in (SampleMatrix(x.data.copy()), copy.copy(x), copy.deepcopy(x),
                  pickle.loads(pickle.dumps(x))):
        assert type(other) is SampleMatrix and other != x and not other == x
        assert np.array_equal(other.data, x.data) and not other.data.flags.writeable
    assert len({x, x, copy.copy(x)}) == 2


@pytest.mark.parametrize("build,message", [
    (lambda: GeneratorConfig(0, 1), "dimension must be at least 1"),
    (lambda: GeneratorConfig(3, 1, sign_bias=1.5), "sign_bias must lie in [0, 1]"),
    (lambda: Ar1Spec(0, 0.5), "dimension must be at least 1"),
    (lambda: Ar1Spec(3, -1.0), "|rho| must be < 1, got -1.0"),
    (lambda: IdentityReport("x", -1e-18, (1, 1, 0)), "residual must be non-negative"),
    (lambda: SampleMatrix(np.ones(5)), "expected a 2-d sample block, got shape (5,)"),
    (lambda: SampleMatrix(np.ones((5, 1))), "need at least two variables"),
    (lambda: SampleMatrix(np.ones((3, 3))), "need more samples than variables, got N=3, p=3"),
    (lambda: SampleMatrix(np.full((5, 2), np.inf)), "sample values must be finite"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_report_dict_holds_every_field():
    report = RECORDS[-1][0]
    assert report.to_dict() == {
        "alpha": 0.05, "variable_order": (2, 1), "largest_rejected_k": 1,
        "per_k": ({"k": 1, "r_semi": 0.25, "t_stat": 2.5, "df": 48, "critical": 2.01,
                   "reject": True},),
    }

"""Every record class behaves as its declaration says.

The 34 records are ``wslrr.core.record`` classes.  Frozen ones refuse
assignment and deletion, datasets and their channels included, whose
arrays are checked only when built; the one mutable record, the linear
model, takes reassignment (the descent reassigns a model's stacked weights
every epoch).  Value records compare and hash by their field values and
never equal a record of another class; ``eq=False`` records compare by
identity and stay hashable.  The compiled ``__init__`` refuses missing,
unknown and repeated arguments, and still runs each ``__post_init__``;
reprs keep the text the stdlib dataclasses printed, and
``cached_property`` and ``ClassVar`` attributes keep working.
"""

import inspect
import sys

import numpy as np
import pytest

import wslrr.cli  # noqa: F401  (the CLI imports verify, risk and train only when a command runs them)
import wslrr.verify  # noqa: F401  (with the CLI, loads every module, so the record census sees them all)
from wslrr.core import FiniteJoint, Marginals, marginals, validate_joint
from wslrr.datagen import DatasetChannel, WeakDataset
from wslrr.decontam import DecontaminationResult
from wslrr.errors import SchemaMismatch, ShapeMismatch
from wslrr.risk import ChannelTerms, LossSpec
from wslrr.scenarios import (
    CCN, CL, DU, GCCN, MCD, MCL, PCPL, PPL, PU, SD, SU, UU, ContaminationModel, Pcomp,
    Pconf, PairDistribution, Reduction, SCConf, Sconf, Soft, SubConf,
)
from wslrr.train import LinearModel, TrainConfig
from wslrr.verify import AggregateReport, CheckInput, CheckReport, VerifyConfig

A2 = np.zeros((2, 2))
FLIP = np.zeros((1, 2, 2))
JOINT = validate_joint(2, [[0.1, 0.2], [0.3, 0.4]], [[0.3, 0.1], [0.2, 0.4]])
MODEL = LinearModel(np.zeros((2, 2)), np.zeros(2))

# each record with exactly its required arguments
VALUE = {
    MCD: (0.1, 0.2), UU: (0.1, 0.2), PU: (), SU: (), DU: (), SD: (), Pcomp: (), Sconf: (),
    PCPL: (), MCL: ((0.5, 0.5),), CL: (), SubConf: ((1, 2),), SCConf: (2,), Pconf: (), Soft: (),
    LossSpec: ("logistic",), TrainConfig: (0.2, 10), VerifyConfig: (),
    CheckReport: ("a", "PU", {}, 0.1, 1e-10, True, 7, 0.1), AggregateReport: (7, (), True),
}
IDENTITY = {
    FiniteJoint: (2, A2, A2), Marginals: (A2[0], A2[0], A2, A2), CCN: (FLIP,), GCCN: (FLIP,),
    PPL: (A2,), PairDistribution: ("tag", A2), ContaminationModel: (("P", "U"),), Reduction: ({},),
    DecontaminationResult: ("inversion",), ChannelTerms: ("P", 1, A2[0], A2, A2[0]),
    CheckInput: (PU(), JOINT, MODEL), DatasetChannel: ("P", "points"), WeakDataset: (PU(), 1, ()),
}
MUTABLE = {LinearModel: (A2, A2[0])}
FROZEN = {**VALUE, **IDENTITY}
ALL = {**FROZEN, **MUTABLE}
UNHASHABLE_VALUES = {CheckReport, AggregateReport}  # a params dict, reports holding one


def _ids(table):
    return [cls.__name__ for cls in table]


def _first_field(cls) -> str:
    return next(iter(inspect.signature(cls).parameters), "extra")


def test_the_table_holds_every_record():
    records = {c for name, m in list(sys.modules.items()) if name.startswith("wslrr")
               for c in vars(m).values() if isinstance(c, type) and "_fields" in vars(c)}
    assert records == set(ALL) and len(ALL) == 34


@pytest.mark.parametrize("cls", FROZEN, ids=_ids(FROZEN))
def test_frozen_records_refuse_assignment_and_deletion(cls):
    r = cls(*FROZEN[cls])
    for name in {_first_field(cls), "extra"}:
        with pytest.raises(AttributeError):
            setattr(r, name, 1)
        with pytest.raises(AttributeError):
            delattr(r, name)


@pytest.mark.parametrize("cls", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_records_take_reassignment(cls):
    r = cls(*MUTABLE[cls])
    name = _first_field(cls)
    setattr(r, name, "new")
    assert getattr(r, name) == "new"


@pytest.mark.parametrize("cls", VALUE, ids=_ids(VALUE))
def test_value_records_compare_by_their_fields(cls):
    a, b = cls(*VALUE[cls]), cls(*VALUE[cls])
    assert a == b and not a != b and a is not b
    if cls not in UNHASHABLE_VALUES:
        assert hash(a) == hash(b)


def test_value_records_differ_across_classes_and_values():
    assert PU() == PU() and PU() != SU() and PU() != object()
    assert UU(0.1, 0.2) != UU(0.2, 0.1) and MCD(0.1, 0.2) != UU(0.1, 0.2)
    assert len({PU(), PU(), SU(), MCL((0.5, 0.5)), MCL([0.5, 0.5])}) == 3
    with pytest.raises(TypeError):  # as for a tuple holding a dict
        hash(CheckReport(*VALUE[CheckReport]))


@pytest.mark.parametrize("cls", {**IDENTITY, **MUTABLE}, ids=_ids({**IDENTITY, **MUTABLE}))
def test_identity_records_compare_by_identity_and_hash(cls):
    args = ALL[cls]
    a, b = cls(*args), cls(*args)
    assert a == a and a != b
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("cls", ALL, ids=_ids(ALL))
def test_bad_arguments_raise_type_error(cls):
    args = ALL[cls]
    with pytest.raises(TypeError):
        cls(*args, bogus=1)
    if args:
        with pytest.raises(TypeError):
            cls(*args[:-1])
        with pytest.raises(TypeError):
            cls(*args, **{_first_field(cls): args[0]})


def test_post_init_still_runs():
    assert MCL([1, 0]).q == (1.0, 0.0) and all(type(v) is float for v in MCL([1, 0]).q)
    assert SubConf([3, 1]).Y_s == (1, 3)
    assert SCConf(np.int64(2)).y_s == 2 and type(SCConf(np.int64(2)).y_s) is int
    assert CCN([[[1, 0], [0, 1]]]).flip.dtype == np.float64
    with pytest.raises(SchemaMismatch):
        MCD("a", 0.1)
    with pytest.raises(ShapeMismatch):
        TrainConfig(float("nan"), 5)


def test_defaults_and_the_default_factory():
    assert TrainConfig(0.2, 10) == TrainConfig(0.2, 10, 0, 0.0)
    assert ContaminationModel(("P",)).matrix is None
    a, b = CheckInput(PU(), JOINT, MODEL), CheckInput(PU(), JOINT, MODEL)
    assert a.shared == {} and a.shared is not b.shared
    shared = {}
    assert CheckInput(PU(), JOINT, MODEL, shared).shared is shared
    assert CheckInput(PU(), JOINT, MODEL, shared=shared).shared is shared


def test_reprs_keep_the_dataclass_text():
    assert repr(PU()) == "PU()"
    assert repr(UU(0.1, 0.2)) == "UU(gamma_1=0.1, gamma_2=0.2)"
    assert repr(LossSpec("logistic")) == "LossSpec(name='logistic')"
    assert repr(TrainConfig(0.2, 10)) == "TrainConfig(learning_rate=0.2, epochs=10, seed=0, l2=0.0)"
    assert repr(SubConf((3, 1))) == "SubConf(Y_s=(1, 3))"
    assert repr(VerifyConfig()) == "VerifyConfig(K=4, nx=6, trials=20, seed=7, d_feat=3, mc_samples=100000)"


def test_cached_properties_on_frozen_records():
    j = validate_joint(2, [[0.1, 0.2], [0.3, 0.4]], [[0.3, 0.1], [0.2, 0.4]])
    assert marginals(j) is marginals(j) and j._marginals is marginals(j)
    inp = CheckInput(PU(), j, MODEL)
    assert inp.system is inp.system


def test_class_vars_are_not_fields():
    assert list(inspect.signature(LossSpec).parameters) == ["name"]
    assert LossSpec.differentiable == {"zero-one": False, "logistic": True, "squared": True}
    assert LossSpec("squared").is_differentiable and not LossSpec("zero-one").is_differentiable
    assert "name" not in inspect.signature(MCL).parameters  # a setting's name is a class attribute

"""Contamination matrices, exact risk rewrites, and corrected-loss training
for fifteen weak-supervision settings on finite discrete distributions."""

from .core import FiniteJoint, Marginals, joint_from_json, joint_to_json, marginals, validate_joint
from .datagen import WeakDataset, dataset_from_json, dataset_to_json, sample_weak_dataset
from .decontam import (
    DecontaminationResult,
    decontaminate,
    mcl_block_inverse,
    mcl_inverse,
)
from .errors import WslrrError
from .risk import (
    LossSpec,
    classification_risk,
    closed_form_corrected_loss,
    empirical_risk,
    rewritten_risk,
)
from .scenarios import (
    CCN,
    CL,
    DU,
    GCCN,
    MCD,
    MCL,
    PCPL,
    PPL,
    PU,
    Pconf,
    Pcomp,
    SCConf,
    SD,
    SU,
    Sconf,
    Soft,
    SubConf,
    UU,
    ContaminationModel,
    PairDistribution,
    ScenarioSpec,
    compound_label_space,
    observed_distribution,
    pair_distribution,
    reduce_spec,
    scenario_from_json,
    scenario_to_json,
)
from .train import LinearModel, TrainConfig, empirical_gradient, init_model, train_erm
from .verify import CheckReport, VerifyConfig, verify_all

__version__ = "0.1.0"

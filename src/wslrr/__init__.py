"""Contamination matrices, exact risk rewrites, and corrected-loss training
for fifteen weak-supervision settings on finite discrete distributions.

Every name below is imported from its module on first use (PEP 562), so a
process pays only for the modules it reads: ``wslrr simulate`` never loads
``verify`` or ``train``."""

import importlib

_EXPORTS = {
    "core": "FiniteJoint Marginals joint_from_json joint_to_json marginals validate_joint",
    "datagen": "WeakDataset dataset_from_json dataset_to_json sample_weak_dataset",
    "decontam": "DecontaminationResult decontaminate mcl_block_inverse mcl_inverse",
    "errors": "WslrrError",
    "risk": "LossSpec classification_risk closed_form_corrected_loss empirical_risk rewrite_table "
            "rewritten_risk",
    "scenarios": "CCN CL DU GCCN MCD MCL PCPL PPL PU Pconf Pcomp SCConf SD SU Sconf Soft SubConf UU "
                 "ContaminationModel PairDistribution ScenarioSpec compound_label_space "
                 "observed_distribution pair_distribution reduce_spec scenario_from_json scenario_to_json",
    "train": "LinearModel TrainConfig empirical_gradient init_model train_erm",
    "verify": "CheckReport VerifyConfig verify_all",
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE)
__version__ = "0.1.0"


def __getattr__(name):
    """An exported name, imported from its module on first use and then kept."""
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_MODULE[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

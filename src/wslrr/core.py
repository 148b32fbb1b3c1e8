"""Finite discrete joint distributions and their derived marginals.

The whole package works over a ground truth P(Y=k, x_i) on a finite instance
set, so every expectation is an exact finite sum and every identity can be
checked to float64 accuracy.  Values are immutable after construction; all
operations are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyClass,
    IndexOutOfRange,
    NegativeEntry,
    NonNormalized,
    ParseError,
    SchemaMismatch,
    ShapeMismatch,
    ZeroInstanceMass,
)

NORMALIZATION_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class FiniteJoint:
    """Ground-truth joint distribution over K classes and n_x instances.

    ``joint[k, i] = P(Y=k+1, x_i)``; ``features[i]`` is the real vector of
    instance i.  Construct through :func:`validate_joint`, which enforces the
    invariants (nonnegative entries, total mass one, positive instance mass).
    """

    K: int
    features: np.ndarray  # (n_x, d_feat)
    joint: np.ndarray     # (K, n_x)

    @property
    def n_x(self) -> int:
        return self.joint.shape[1]

    @property
    def d_feat(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class Marginals:
    """Derived quantities of a FiniteJoint.

    priors[k] = P(Y=k+1); instance_marginal[i] = P(x_i);
    class_conditionals[k, i] = P(x_i | Y=k+1); class_probabilities[k, i]
    = P(Y=k+1 | x_i).  Rows of class_conditionals and columns of
    class_probabilities each sum to one.
    """

    priors: np.ndarray              # (K,)
    instance_marginal: np.ndarray   # (n_x,)
    class_conditionals: np.ndarray  # (K, n_x)
    class_probabilities: np.ndarray # (K, n_x)

    @property
    def K(self) -> int:
        return self.priors.shape[0]

    @property
    def n_x(self) -> int:
        return self.instance_marginal.shape[0]


def validate_joint(K: int, features, joint) -> FiniteJoint:
    """Validate raw arrays and return an immutable FiniteJoint.

    Raises ShapeMismatch (also for non-numeric or ragged arrays),
    NegativeEntry, NonNormalized or ZeroInstanceMass.
    Classes with zero prior are accepted here; :func:`marginals` rejects them
    because the scenario matrices divide by the priors.
    """
    if not isinstance(K, (int, np.integer)) or K < 2:
        raise ShapeMismatch(f"K must be an integer >= 2, got {K!r}")
    try:
        f = np.asarray(features, dtype=np.float64)
        j = np.asarray(joint, dtype=np.float64)
    except (TypeError, ValueError) as e:  # non-numeric entries, ragged nesting
        raise ShapeMismatch(f"features and joint must be numeric arrays: {e}") from e
    if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
        raise ShapeMismatch(f"features must be (n_x, d_feat) with n_x, d_feat >= 1, got {f.shape}")
    if j.shape != (K, f.shape[0]):
        raise ShapeMismatch(f"joint must be ({K}, {f.shape[0]}), got {j.shape}")
    if not np.all(np.isfinite(j)) or not np.all(np.isfinite(f)):
        raise ShapeMismatch("features and joint must be finite")
    if np.any(j < 0.0):
        raise NegativeEntry(f"joint has negative entries, min = {j.min()}")
    total = float(j.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NonNormalized(f"joint sums to {total}, expected 1 within {NORMALIZATION_TOL}")
    col = j.sum(axis=0)
    if np.any(col <= 0.0):
        raise ZeroInstanceMass(f"instances {np.nonzero(col <= 0.0)[0].tolist()} have zero mass")
    return FiniteJoint(K=int(K), features=_frozen(f), joint=_frozen(j))


def marginals(j: FiniteJoint) -> Marginals:
    """Compute priors, instance marginal, class-conditionals and confidences.

    Raises EmptyClass when some prior is zero.
    """
    priors = j.joint.sum(axis=1)
    if np.any(priors <= 0.0):
        empty = np.nonzero(priors <= 0.0)[0] + 1
        raise EmptyClass(f"classes {empty.tolist()} have zero prior")
    inst = j.joint.sum(axis=0)
    cond = j.joint / priors[:, None]
    conf = j.joint / inst[None, :]
    return Marginals(
        priors=_frozen(priors),
        instance_marginal=_frozen(inst),
        class_conditionals=_frozen(cond),
        class_probabilities=_frozen(conf),
    )


def risk_vector(j: FiniteJoint, i: int) -> np.ndarray:
    """Column i of the joint: the K-vector with entries P(Y=k, x_i)."""
    if not 0 <= i < j.n_x:
        raise IndexOutOfRange(f"instance index {i} outside 0..{j.n_x - 1}")
    return j.joint[:, i].copy()


# ---- JSON format: {"K": int, "features": [[...]], "joint": [[...]]} -----------

def joint_to_json(j: FiniteJoint) -> str:
    return json.dumps(
        {"K": j.K, "features": j.features.tolist(), "joint": j.joint.tolist()},
        indent=2,
    )


def joint_from_json(text: str) -> FiniteJoint:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid joint JSON: {e}") from e
    if not isinstance(raw, dict) or not {"K", "features", "joint"} <= raw.keys():
        raise SchemaMismatch('joint JSON needs keys "K", "features", "joint"')
    return validate_joint(raw["K"], raw["features"], raw["joint"])

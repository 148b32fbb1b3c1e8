"""Linear-model ERM on empirical corrected risks, by full-batch descent.

Corrected risks are linear in the per-class losses, so a dataset folds
once into an (n_x, K) weight table and every epoch, value and analytic
gradient alike, is one weighted loss over the instances.  Corrected losses
can be negative, making the objective nonconvex or unbounded below; a
non-finite risk or parameter surfaces as the Diverged error, which callers
treat as a reported outcome rather than a crash.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import FiniteJoint, parse_json
from .datagen import WeakDataset, philox_uniforms
from .errors import Diverged, SchemaMismatch, ShapeMismatch
from .risk import LossSpec, score_matrix, weight_table, weighted_loss
from .scenarios import ScenarioSpec


@dataclass(eq=False)
class LinearModel:
    """Per-class affine scores g(x) = W x + b."""
    weights: np.ndarray  # (K, d_feat)
    bias: np.ndarray     # (K,)

    @property
    def K(self) -> int:
        return self.weights.shape[0]

    @property
    def d_feat(self) -> int:
        return self.weights.shape[1]

    def copy(self) -> "LinearModel":
        return LinearModel(self.weights.copy(), self.bias.copy())


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    seed: int = 0
    l2: float = 0.0

    def __post_init__(self):
        # eta = 0 is allowed for the "model unchanged" degenerate case; NaN
        # fails every comparison, so finiteness is tested on its own
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ShapeMismatch(f"learning rate must be finite and >= 0, got {self.learning_rate!r}")
        if self.epochs < 1:
            raise ShapeMismatch("epochs must be >= 1")
        if not (math.isfinite(self.l2) and self.l2 >= 0.0):
            raise ShapeMismatch(f"l2 coefficient must be finite and >= 0, got {self.l2!r}")


def init_model(K: int, d_feat: int, seed: int) -> LinearModel:
    """Uniform(-0.1, 0.1) weights and bias from the counter generator; the
    same seed always gives the same model."""
    if K < 2 or d_feat < 1:
        raise ShapeMismatch(f"need K >= 2 and d_feat >= 1, got K={K}, d_feat={d_feat}")
    u = philox_uniforms(seed, 0, K * d_feat + K)
    vals = 0.2 * u - 0.1
    return LinearModel(weights=vals[: K * d_feat].reshape(K, d_feat),
                       bias=vals[K * d_feat:].copy())


def empirical_gradient(ds: WeakDataset, spec: ScenarioSpec, model: LinearModel,
                       ls: LossSpec, j: FiniteJoint, l2: float = 0.0) -> tuple:
    """Analytic gradient (dW, db) of the empirical corrected risk plus the
    ridge term 2 * l2 * W.  Requires a differentiable loss."""
    _, dW, db = weighted_loss(weight_table(ds, spec, j), model, ls, j, grad=True)
    return dW + 2.0 * l2 * model.weights, db


def _descend(W: np.ndarray, ls: LossSpec, cfg: TrainConfig, j: FiniteJoint, what: str) -> tuple:
    """Full-batch gradient descent on the weighted loss of the (n_x, K)
    table W, plus the ridge term.  Returns (model, trace); trace[e] is the
    loss after epoch e."""
    model = init_model(j.K, j.d_feat, cfg.seed)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow and inf times 0 are reported as Diverged
        value, dW, db = weighted_loss(W, model, ls, j, grad=True)
        if not math.isfinite(value):
            raise Diverged(f"initial {what} is {value}")
        trace = [value]
        for epoch in range(1, cfg.epochs + 1):
            model.weights = model.weights - cfg.learning_rate * (dW + 2.0 * cfg.l2 * model.weights)
            model.bias = model.bias - cfg.learning_rate * db
            if not (np.isfinite(model.weights).all() and np.isfinite(model.bias).all()):
                raise Diverged(f"parameters became non-finite at epoch {epoch}")
            value, dW, db = weighted_loss(W, model, ls, j, grad=True)
            if not math.isfinite(value):
                raise Diverged(f"{what} became non-finite at epoch {epoch}")
            trace.append(value)
    return model, trace


def train_erm(ds: WeakDataset, spec: ScenarioSpec, ls: LossSpec, cfg: TrainConfig,
              j: FiniteJoint) -> tuple:
    """Full-batch gradient descent on the empirical corrected risk.

    The dataset is folded once into its weight table, so an epoch costs
    O(n_x K d) whatever the sample count.  Returns (model, trace); trace[0]
    is the initial risk and trace[e] the risk after epoch e.  Raises
    Diverged when the risk or the parameters stop being finite.
    """
    return _descend(weight_table(ds, spec, j), ls, cfg, j, "empirical risk")


def train_supervised_exact(j: FiniteJoint, ls: LossSpec, cfg: TrainConfig) -> tuple:
    """Baseline: descend the exact classification risk itself (the
    infinite-sample supervised objective).  Returns (model, trace)."""
    return _descend(j.joint.T, ls, cfg, j, "risk")


def predictions(model: LinearModel, j: FiniteJoint) -> np.ndarray:
    """Argmax classes (1-based, lowest index wins ties) on every instance."""
    return np.argmax(score_matrix(model, j), axis=1) + 1


# ---- JSON: {"K": int, "d": int, "weights": [[...]], "bias": [...]} ------------

def model_to_json(model: LinearModel) -> str:
    return json.dumps(
        {"K": model.K, "d": model.d_feat,
         "weights": model.weights.tolist(), "bias": model.bias.tolist()},
        indent=2,
    )


def _finite_numbers(value, shape: tuple) -> bool:
    """Whether a parsed JSON value is nested lists of ``shape`` holding finite
    numbers; booleans, and integers beyond the float range, are not."""
    if not shape:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max  # exact for ints
    return isinstance(value, list) and len(value) == shape[0] and all(
        _finite_numbers(v, shape[1:]) for v in value)


def model_from_json(text: str) -> LinearModel:
    """The model a JSON text describes.  Raises SchemaMismatch unless K >= 2
    and d >= 1 are integers and the weights and bias are finite numbers of
    shapes (K, d) and (K,), as :func:`init_model` builds them."""
    raw = parse_json(text, "model JSON")
    if not isinstance(raw, dict) or not {"K", "d", "weights", "bias"} <= raw.keys():
        raise SchemaMismatch('model JSON needs keys "K", "d", "weights", "bias"')
    K, d = raw["K"], raw["d"]
    if type(K) is not int or type(d) is not int or K < 2 or d < 1:
        raise SchemaMismatch(f"model K and d must be integers >= 2 and >= 1, got K={K!r}, d={d!r}")
    if not (_finite_numbers(raw["weights"], (K, d)) and _finite_numbers(raw["bias"], (K,))):
        raise SchemaMismatch(f"model weights and bias must be finite numbers of shapes ({K}, {d}) and ({K},)")
    w = np.array(raw["weights"], dtype=np.float64)
    b = np.array(raw["bias"], dtype=np.float64)
    return LinearModel(weights=w, bias=b)

"""Linear-model ERM on empirical corrected risks, by full-batch descent.

Corrected risks are linear in the per-class losses, so the analytic
gradient reuses the estimator's per-draw loss weights.  Corrected losses
can be negative, making the objective nonconvex or unbounded below; a
non-finite risk or parameter surfaces as the Diverged error, which callers
treat as a reported outcome rather than a crash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import FiniteJoint
from .datagen import WeakDataset, philox_uniforms
from .errors import Diverged, NonDifferentiableLoss, ParseError, SchemaMismatch, ShapeMismatch
from .risk import LossSpec, channel_terms, empirical_risk, loss_score_slope, score_matrix
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
        if self.learning_rate <= 0.0:
            # eta = 0 is allowed for the "model unchanged" degenerate case
            if self.learning_rate < 0.0:
                raise ShapeMismatch("learning rate must be >= 0")
        if self.epochs < 1:
            raise ShapeMismatch("epochs must be >= 1")
        if self.l2 < 0.0:
            raise ShapeMismatch("l2 coefficient must be >= 0")


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
    if not ls.is_differentiable:
        raise NonDifferentiableLoss("zero-one loss admits no gradient; use logistic or squared")
    scores = score_matrix(model, j)
    # per-instance gradient structure: d loss_k / d g = base(g) - scale * e_k
    bases, scale = loss_score_slope(ls, scores)

    dW = np.zeros_like(model.weights)
    db = np.zeros_like(model.bias)
    for terms in channel_terms(ds, spec, j):
        if terms.n_draws == 0:
            continue
        wsum = terms.weights.sum(axis=1)
        dscores = wsum[:, None] * bases[terms.idx] - scale * terms.weights  # (n_e, K)
        dscores /= terms.n_draws
        dW += dscores.T @ j.features[terms.idx]
        db += dscores.sum(axis=0)
    return dW + 2.0 * l2 * model.weights, db


def train_erm(ds: WeakDataset, spec: ScenarioSpec, ls: LossSpec, cfg: TrainConfig,
              j: FiniteJoint) -> tuple:
    """Full-batch gradient descent on the empirical corrected risk.

    Returns (model, trace); trace[0] is the initial risk and trace[e] the
    risk after epoch e.  Raises Diverged when the risk or the parameters
    stop being finite.
    """
    model = init_model(j.K, j.d_feat, cfg.seed)
    trace = [empirical_risk(ds, spec, model, ls, j)]
    if not np.isfinite(trace[0]):
        raise Diverged(f"initial empirical risk is {trace[0]}")
    for epoch in range(cfg.epochs):
        dW, db = empirical_gradient(ds, spec, model, ls, j, l2=cfg.l2)
        model.weights = model.weights - cfg.learning_rate * dW
        model.bias = model.bias - cfg.learning_rate * db
        if not (np.all(np.isfinite(model.weights)) and np.all(np.isfinite(model.bias))):
            raise Diverged(f"parameters became non-finite at epoch {epoch + 1}")
        value = empirical_risk(ds, spec, model, ls, j)
        if not np.isfinite(value):
            raise Diverged(f"empirical risk became non-finite at epoch {epoch + 1}")
        trace.append(value)
    return model, trace


def train_supervised_exact(j: FiniteJoint, ls: LossSpec, cfg: TrainConfig) -> tuple:
    """Baseline: descend the exact classification risk itself (the
    infinite-sample supervised objective).  Returns (model, trace)."""
    from .risk import classification_risk

    model = init_model(j.K, j.d_feat, cfg.seed)
    trace = [classification_risk(j, model, ls)]
    for epoch in range(cfg.epochs):
        # the joint-weighted sum over classes of base(g) - scale * e_k
        bases, scale = loss_score_slope(ls, score_matrix(model, j))
        dscores = j.joint.sum(axis=0)[:, None] * bases - scale * j.joint.T  # (n_x, K)
        dW = dscores.T @ j.features + 2.0 * cfg.l2 * model.weights
        db = dscores.sum(axis=0)
        model.weights = model.weights - cfg.learning_rate * dW
        model.bias = model.bias - cfg.learning_rate * db
        if not (np.all(np.isfinite(model.weights)) and np.all(np.isfinite(model.bias))):
            raise Diverged(f"parameters became non-finite at epoch {epoch + 1}")
        value = classification_risk(j, model, ls)
        if not np.isfinite(value):
            raise Diverged(f"risk became non-finite at epoch {epoch + 1}")
        trace.append(value)
    return model, trace


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


def model_from_json(text: str) -> LinearModel:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid model JSON: {e}") from e
    if not isinstance(raw, dict) or not {"K", "d", "weights", "bias"} <= raw.keys():
        raise SchemaMismatch('model JSON needs keys "K", "d", "weights", "bias"')
    w = np.asarray(raw["weights"], dtype=np.float64)
    b = np.asarray(raw["bias"], dtype=np.float64)
    if w.shape != (raw["K"], raw["d"]) or b.shape != (raw["K"],):
        raise SchemaMismatch(f"model arrays do not match K={raw['K']}, d={raw['d']}")
    return LinearModel(weights=w, bias=b)

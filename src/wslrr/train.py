"""Linear-model ERM on empirical corrected risks, by full-batch descent.

Corrected risks are linear in the per-class losses, so a dataset folds
once into an (n_x, K) weight table and every epoch, value and analytic
gradient alike, is one weighted loss over the instances.  The descent
takes a stack of tables and descends one model per table together:
``train`` passes a stack of one, and the harness's ERM sanity check the
weak and the supervised tables.  Corrected losses
can be negative, making the objective nonconvex or unbounded below; a
non-finite risk or parameter surfaces as the Diverged error, which callers
treat as a reported outcome rather than a crash.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import FiniteJoint, record
from .datagen import WeakDataset, philox_uniforms
from .errors import Diverged, ShapeMismatch
from .risk import LossSpec, score_matrix, weight_table, weighted_loss
from .scenarios import ScenarioSpec


@record(eq=False)
class LinearModel:
    """Per-class affine scores g(x) = W x + b; the descent holds a stack of
    B models as one, with (B, K, d_feat) weights and (B, K) bias, and builds
    a new stack each step."""
    weights: np.ndarray  # (K, d_feat)
    bias: np.ndarray     # (K,)

    @property
    def K(self) -> int:
        return self.weights.shape[-2]

    @property
    def d_feat(self) -> int:
        return self.weights.shape[-1]


@record()
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


def _descend(W: np.ndarray, ls: LossSpec, cfg: TrainConfig, j: FiniteJoint, what: tuple) -> list:
    """Full-batch gradient descent on the weighted losses of a (B, n_x, K)
    stack of tables W, plus the ridge term: B models from the same
    ``init_model(cfg.seed)``, descended together so that an epoch is one
    stacked weighted loss.  Returns one (model, trace) per table; trace[e]
    is the loss after epoch e.  A stack of one, or a C-ordered stack, gives
    each model the bits of its table's descent alone.  what[b] names table
    b's loss in the Diverged messages."""
    start = init_model(j.K, j.d_feat, cfg.seed)
    stack = LinearModel(*(np.repeat(a[None], len(W), axis=0) for a in (start.weights, start.bias)))
    traces = []

    def losses(epoch: int) -> tuple:
        values, dW, db = weighted_loss(W, stack, ls, j, grad=True)
        traces.append(values.tolist())
        for name, value in zip(what, traces[-1]):
            if not math.isfinite(value):
                raise Diverged(f"{name} became non-finite at epoch {epoch}" if epoch
                               else f"initial {name} is {value}")
        return dW, db

    with np.errstate(over="ignore", invalid="ignore"):  # overflow and inf times 0 are reported as Diverged
        dW, db = losses(0)
        for epoch in range(1, cfg.epochs + 1):
            stack = LinearModel(stack.weights - cfg.learning_rate * (dW + 2.0 * cfg.l2 * stack.weights),
                                stack.bias - cfg.learning_rate * db)
            if not (np.isfinite(stack.weights).all() and np.isfinite(stack.bias).all()):
                raise Diverged(f"parameters became non-finite at epoch {epoch}")
            dW, db = losses(epoch)
    return [(LinearModel(stack.weights[b], stack.bias[b]), [t[b] for t in traces]) for b in range(len(W))]


def train_erm(ds: WeakDataset, spec: ScenarioSpec, ls: LossSpec, cfg: TrainConfig,
              j: FiniteJoint) -> tuple:
    """Full-batch gradient descent on the empirical corrected risk.

    The dataset is folded once into its weight table, so an epoch costs
    O(n_x K d) whatever the sample count.  Returns (model, trace); trace[0]
    is the initial risk and trace[e] the risk after epoch e.  Raises
    Diverged when the risk or the parameters stop being finite.
    """
    return _descend(weight_table(ds, spec, j)[None], ls, cfg, j, ("empirical risk",))[0]


def train_supervised_exact(j: FiniteJoint, ls: LossSpec, cfg: TrainConfig) -> tuple:
    """Baseline: descend the exact classification risk itself (the
    infinite-sample supervised objective).  Returns (model, trace)."""
    return _descend(j.joint.T[None], ls, cfg, j, ("risk",))[0]


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

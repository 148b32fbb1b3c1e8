"""Finite discrete joint distributions and their derived marginals.

The whole package works over a ground truth P(Y=k, x_i) on a finite instance
set, so every expectation is an exact finite sum and every identity can be
checked to float64 accuracy.  Values are immutable after construction: a
joint owns read-only copies of its arrays and keeps, each built on first
use, only its marginals and the loss table and exact risk of its last
model and loss.

Every record of the package, here and in the other modules, is a
:func:`record` class rather than a stdlib dataclass: at import, which every
CLI process pays for, each compiles its ``__init__`` and nothing else.
"""

from __future__ import annotations

import inspect
import json
from functools import cached_property

import numpy as np

from .errors import (
    EmptyClass,
    NegativeEntry,
    NonNormalized,
    ParseError,
    SchemaMismatch,
    ShapeMismatch,
    ZeroInstanceMass,
)

NORMALIZATION_TOL = 1e-12


def _frozen(a: np.ndarray | None) -> np.ndarray | None:
    """``a`` made read-only in place, so its readers can share it (None stays
    None); callers pass arrays they own."""
    if a is not None:
        a.setflags(write=False)
    return a


def _values(r) -> tuple:
    return tuple(getattr(r, f) for f in r._fields)


def _repr(self) -> str:
    return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


def _eq(self, other):
    return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _refuse(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def record(eq: bool = True):
    """Class decorator for a record whose fields are the class's own
    non-ClassVar annotations, in order; a field's class attribute is its
    default.  ``_fields`` names the fields.  The one ``__init__`` compiled
    per class takes them positionally or by keyword and stores them (a
    record with several fields writes its ``__dict__``, which costs less
    than an ``object.__setattr__`` call per field and more than one call),
    then runs ``__post_init__`` if the class has one.  ``__repr__``, and
    ``__eq__`` and ``__hash__`` over the field values when ``eq``, are
    shared functions.  Every record refuses assignment and deletion
    (``__post_init__`` normalises through ``object.__setattr__``); without
    ``eq`` records compare by identity."""
    def wrap(cls):
        names = tuple(f for f, t in inspect.get_annotations(cls).items()
                      if not str(t).startswith(("ClassVar", "typing.ClassVar")))
        defaults = {f: cls.__dict__[f] for f in names if f in cls.__dict__}
        wide = len(names) > 1
        lines = ["d = self.__dict__"] if wide else []
        lines += [f"d[{f!r}] = {f}" if wide else f"_set(self, {f!r}, {f})" for f in names]
        if hasattr(cls, "__post_init__"):
            lines.append("self.__post_init__()")
        if lines:  # else object.__init__, which refuses every argument
            args = "".join(f", {f}=_d_{f}" if f in defaults else f", {f}" for f in names)
            ns = {"_set": object.__setattr__, **{f"_d_{f}": v for f, v in defaults.items()}}
            exec(f"def __init__(self{args}):\n " + "\n ".join(lines), ns)
            ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = ns["__init__"]
        cls.__repr__, cls._fields = _repr, names
        if eq:
            cls.__eq__, cls.__hash__ = _eq, _hash
        cls.__setattr__ = cls.__delattr__ = _refuse
        return cls
    return wrap


@record(eq=False)
class FiniteJoint:
    """Ground-truth joint distribution over K classes and n_x instances.

    ``joint[k, i] = P(Y=k+1, x_i)``; ``features[i]`` is the real vector of
    instance i.  Construct through :func:`validate_joint`, which enforces the
    invariants (nonnegative entries, total mass one, positive instance mass)
    and gives the joint its own read-only arrays.  The joint keeps only its
    marginals and, in one slot, the loss table and exact risk of its last
    model and loss (``risk._losses``); a spec's validated system is kept by
    the spec (``scenarios._system``).
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

    @cached_property
    def _marginals(self) -> "Marginals":
        # kept only when the computation succeeds, so EmptyClass is raised on every read
        return _compute_marginals(self)


@record(eq=False)
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
    try:  # copies: a caller who keeps the inputs cannot write into the joint
        f = np.array(features, dtype=np.float64)
        j = np.array(joint, dtype=np.float64)
    except (TypeError, ValueError) as e:  # non-numeric entries, ragged nesting
        raise ShapeMismatch(f"features and joint must be numeric arrays: {e}") from e
    if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
        raise ShapeMismatch(f"features must be (n_x, d_feat) with n_x, d_feat >= 1, got {f.shape}")
    if j.shape != (K, f.shape[0]):
        raise ShapeMismatch(f"joint must be ({K}, {f.shape[0]}), got {j.shape}")
    if not (np.isfinite(j).all() and np.isfinite(f).all()):
        raise ShapeMismatch("features and joint must be finite")
    if j.min() < 0.0:  # finite, so the minimum is a number
        raise NegativeEntry(f"joint has negative entries, min = {j.min()}")
    if j.max() > 1.0 + NORMALIZATION_TOL:  # refused before a sum of such entries can overflow
        raise NonNormalized(f"joint has an entry {j.max()} above 1, so it cannot sum to 1")
    total = float(j.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NonNormalized(f"joint sums to {total}, expected 1 within {NORMALIZATION_TOL}")
    col = j.sum(axis=0)
    if col.min() <= 0.0:
        raise ZeroInstanceMass(f"instances {np.nonzero(col <= 0.0)[0].tolist()} have zero mass")
    return FiniteJoint(K=int(K), features=_frozen(f), joint=_frozen(j))


def marginals(j: FiniteJoint) -> Marginals:
    """Priors, instance marginal, class-conditionals and confidences of ``j``,
    computed on the first call and shared (read-only) by every later one.

    Raises EmptyClass when some prior is zero.
    """
    return j._marginals


def _compute_marginals(j: FiniteJoint) -> Marginals:
    priors = j.joint.sum(axis=1)
    if priors.min() <= 0.0:
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


# ---- JSON format: {"K": int, "features": [[...]], "joint": [[...]]} -----------

def joint_to_json(j: FiniteJoint) -> str:
    return json.dumps(
        {"K": j.K, "features": j.features.tolist(), "joint": j.joint.tolist()},
        indent=2,
    )


def parse_json(text: str, what: str):
    """``json.loads(text)``, or a ParseError naming ``what`` for text that is
    not JSON or nests deeper than the decoder's recursion limit."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ParseError(f"invalid {what}: {e}") from e


def joint_from_json(text: str) -> FiniteJoint:
    raw = parse_json(text, "joint JSON")
    if not isinstance(raw, dict) or not {"K", "features", "joint"} <= raw.keys():
        raise SchemaMismatch('joint JSON needs keys "K", "features", "joint"')
    return validate_joint(raw["K"], raw["features"], raw["joint"])

"""Weak-supervision scenarios as matrix contaminations of a clean joint.

Each scenario is a small parameter record.  The operations here build, per
instance, the contamination matrix M(x), the transform M_trsf(x) that maps
the risk-defining vector P(x) to the base distributions B(x), and the
observed channel masses M(x) M_trsf(x) P(x).  Three families share one
pipeline:

* mixture family (``MCD``): base distributions are the two class
  conditionals, M_trsf is the reciprocal-prior diagonal, M mixes rows;
* label-channel family (``CCN``): base distributions equal P(x), M holds
  the conditional channel probabilities P(S=s_j | Y=k, x);
* confidence family (``Conf``): base distributions equal P(x), M is a
  diagonal of confidence ratios.

Sconf is pair-shaped and kept out of the generic pipeline; its structures
live in the ``pair_*`` fields of :class:`ContaminationModel`, built from
outer products.  Every kernel is batched over the instance axis, one numpy
pass per call with the spec validated once; :func:`contamination_matrix`
and :func:`transform_matrix` are single-instance calls of the same kernels.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Optional, Union

import numpy as np

from .core import FiniteJoint, Marginals, marginals as compute_marginals
from .errors import (
    DegenerateParams,
    IndexOutOfRange,
    KTooLarge,
    NotAnEdge,
    NotBinary,
    ParseError,
    SchemaMismatch,
    ShapeMismatch,
    UnsupportedScenario,
    ValidationError,
    ZeroConfidence,
    ZeroPairMass,
)

K_MAX_DEFAULT = 8
PARAM_TOL = 1e-9

FAMILY_MCD = "MCD-family"
FAMILY_CCN = "CCN-family"
FAMILY_CONF = "Conf-family"
FAMILY_SCONF = "Sconf-pairwise"


# ---------------------------------------------------------------------------
# Scenario parameter records
# ---------------------------------------------------------------------------

def _require(spec, kind, field: str, values) -> None:
    """SchemaMismatch unless every one of ``values`` is a ``kind``
    (numbers.Real or numbers.Integral, numpy scalars included, bools not)."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, kind):
            what = "integers" if kind is numbers.Integral else "numbers"
            raise SchemaMismatch(f"{spec.name} {field} must be {what}, got {v!r}")


@dataclass(frozen=True)
class MCD:
    """Two noisy labeled channels mixing the class conditionals."""
    gamma_p: float
    gamma_n: float
    name: ClassVar[str] = "MCD"
    family: ClassVar[str] = FAMILY_MCD

    def __post_init__(self):
        _require(self, numbers.Real, "rates", (self.gamma_p, self.gamma_n))


@dataclass(frozen=True)
class UU:
    """Two unlabeled channels with mixture rates (1-gamma_1) and gamma_2."""
    gamma_1: float
    gamma_2: float
    name: ClassVar[str] = "UU"
    family: ClassVar[str] = FAMILY_MCD

    def __post_init__(self):
        _require(self, numbers.Real, "rates", (self.gamma_1, self.gamma_2))


@dataclass(frozen=True)
class PU:
    name: ClassVar[str] = "PU"
    family: ClassVar[str] = FAMILY_MCD


@dataclass(frozen=True)
class SU:
    name: ClassVar[str] = "SU"
    family: ClassVar[str] = FAMILY_MCD


@dataclass(frozen=True)
class DU:
    name: ClassVar[str] = "DU"
    family: ClassVar[str] = FAMILY_MCD


@dataclass(frozen=True)
class SD:
    name: ClassVar[str] = "SD"
    family: ClassVar[str] = FAMILY_MCD


@dataclass(frozen=True)
class Pcomp:
    name: ClassVar[str] = "Pcomp"
    family: ClassVar[str] = FAMILY_MCD


@dataclass(frozen=True)
class Sconf:
    name: ClassVar[str] = "Sconf"
    family: ClassVar[str] = FAMILY_SCONF


@dataclass(frozen=True, eq=False)
class CCN:
    """Binary label noise: flip[i, noisy, clean] = P(noisy label | clean label, x_i)."""
    flip: np.ndarray
    name: ClassVar[str] = "CCN"
    family: ClassVar[str] = FAMILY_CCN

    def __post_init__(self):
        object.__setattr__(self, "flip", np.asarray(self.flip, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class GCCN:
    """Compound-label channel: cond[i, j, k] = P(S = s_j | Y=k+1, x_i)."""
    cond: np.ndarray
    name: ClassVar[str] = "GCCN"
    family: ClassVar[str] = FAMILY_CCN

    def __post_init__(self):
        object.__setattr__(self, "cond", np.asarray(self.cond, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class PPL:
    """Proper partial labels: C[j, i] is the weight of compound label s_j at x_i."""
    C: np.ndarray
    name: ClassVar[str] = "PPL"
    family: ClassVar[str] = FAMILY_CCN

    def __post_init__(self):
        object.__setattr__(self, "C", np.asarray(self.C, dtype=np.float64))


@dataclass(frozen=True)
class PCPL:
    name: ClassVar[str] = "PCPL"
    family: ClassVar[str] = FAMILY_CCN


@dataclass(frozen=True)
class MCL:
    """Multi-complementary labels; q[d-1] = P(|excluded set| = d) for d in 1..K-1."""
    q: tuple
    name: ClassVar[str] = "MCL"
    family: ClassVar[str] = FAMILY_CCN

    def __post_init__(self):
        _require(self, numbers.Real, "q", self.q)
        object.__setattr__(self, "q", tuple(float(v) for v in self.q))


@dataclass(frozen=True)
class CL:
    name: ClassVar[str] = "CL"
    family: ClassVar[str] = FAMILY_CCN


@dataclass(frozen=True)
class SubConf:
    """Samples from a super-class: Y_s is a nonempty strict subset of 1..K."""
    Y_s: tuple
    name: ClassVar[str] = "SubConf"
    family: ClassVar[str] = FAMILY_CONF

    def __post_init__(self):
        _require(self, numbers.Integral, "Y_s", self.Y_s)
        object.__setattr__(self, "Y_s", tuple(sorted(int(v) for v in self.Y_s)))


@dataclass(frozen=True)
class SCConf:
    """Samples from a single class y_s in 1..K."""
    y_s: int
    name: ClassVar[str] = "SCConf"
    family: ClassVar[str] = FAMILY_CONF

    def __post_init__(self):
        _require(self, numbers.Integral, "y_s", (self.y_s,))
        object.__setattr__(self, "y_s", int(self.y_s))


@dataclass(frozen=True)
class Pconf:
    name: ClassVar[str] = "Pconf"
    family: ClassVar[str] = FAMILY_CONF


@dataclass(frozen=True)
class Soft:
    name: ClassVar[str] = "Soft"
    family: ClassVar[str] = FAMILY_CONF


ScenarioSpec = Union[
    MCD, UU, PU, SU, DU, SD, Pcomp, Sconf,
    CCN, GCCN, PPL, PCPL, MCL, CL,
    SubConf, SCConf, Pconf, Soft,
]

SCENARIO_TYPES = {
    cls.name: cls
    for cls in (MCD, UU, PU, SU, DU, SD, Pcomp, Sconf, CCN, GCCN, PPL, PCPL,
                MCL, CL, SubConf, SCConf, Pconf, Soft)
}

# The fifteen concrete settings; MCD, CCN and GCCN are the abstractions above them.
CONCRETE_SCENARIOS = (
    "PU", "Pconf", "UU", "SU", "DU", "SD", "Pcomp", "Sconf",
    "CL", "MCL", "PCPL", "PPL", "SCConf", "SubConf", "Soft",
)

BINARY_ONLY = {"MCD", "UU", "PU", "SU", "DU", "SD", "Pcomp", "Sconf", "CCN", "Pconf"}
NEEDS_OFFCENTER_PRIOR = {"SU", "DU", "SD", "Sconf"}
COMPOUND_SCENARIOS = {"GCCN", "PPL", "PCPL", "MCL"}


def specs_equal(a: ScenarioSpec, b: ScenarioSpec) -> bool:
    if type(a) is not type(b):
        return False
    for f in (fl.name for fl in fields(a)):
        va, vb = getattr(a, f), getattr(b, f)
        if isinstance(va, np.ndarray):
            if not (isinstance(vb, np.ndarray) and va.shape == vb.shape and np.array_equal(va, vb)):
                return False
        elif va != vb:
            return False
    return True


# ---------------------------------------------------------------------------
# Compound labels
# ---------------------------------------------------------------------------

def compound_label_space(K: int, k_max: int = K_MAX_DEFAULT) -> tuple:
    """All nonempty strict subsets of {1..K}, ordered by (size, lexicographic).

    The order is the canonical row index for every compound-label matrix in
    this package.  Raises KTooLarge when K exceeds ``k_max`` (the channel
    count grows as 2^K - 2).
    """
    if K < 2:
        raise ShapeMismatch(f"K must be >= 2, got {K}")
    if K > k_max:
        raise KTooLarge(f"K={K} exceeds the compound-label cap k_max={k_max}")
    out = []
    for d in range(1, K):
        out.extend(itertools.combinations(range(1, K + 1), d))
    return tuple(out)


def compound_label_index(K: int, members) -> int:
    """Row index of a compound label in the canonical order."""
    key = tuple(sorted(int(v) for v in members))
    space = compound_label_space(K)
    try:
        return space.index(key)
    except ValueError:
        raise ShapeMismatch(f"{key} is not a nonempty strict subset of 1..{K}") from None


def _member_mask(K: int) -> np.ndarray:
    """(|S|, K) indicator matrix: mask[j, k-1] = 1 iff class k is in s_j."""
    return np.array([[float(c in s) for c in range(1, K + 1)] for s in compound_label_space(K)])


def _compound_str(members) -> str:
    return ",".join(str(c) for c in members)


def channel_labels(spec: ScenarioSpec, K: int) -> tuple:
    """Observed-channel labels, in the row order of the contamination matrix."""
    fixed = {
        "MCD": ("P_noisy", "N_noisy"),
        "UU": ("U1", "U2"),
        "PU": ("P", "U"),
        "SU": ("S", "U"),
        "DU": ("D", "U"),
        "SD": ("S", "D"),
        "Pcomp": ("Sup", "Inf"),
        "Sconf": ("pair_p", "pair_n"),
    }
    if spec.name in fixed:
        return fixed[spec.name]
    if spec.name == "CCN":
        return ("1", "2")
    if spec.name == "CL":
        return tuple(str(k) for k in range(1, K + 1))
    if spec.name in COMPOUND_SCENARIOS:
        return tuple(_compound_str(s) for s in compound_label_space(K))
    if spec.family == FAMILY_CONF:
        return tuple(str(k) for k in range(1, K + 1))
    raise UnsupportedScenario(spec.name)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_spec(spec: ScenarioSpec, m: Marginals, rewrite_preconditions: bool = True) -> None:
    """Check the scenario's parameter invariants against the marginals.

    ``rewrite_preconditions=False`` skips the off-center-prior requirement;
    the pair laws themselves stay well defined at a prior of exactly 1/2,
    only the rewrites divide by the prior gap.
    Raises NotBinary, DegenerateParams, ShapeMismatch or KTooLarge.
    """
    K, n_x = m.K, m.n_x
    if spec.name in BINARY_ONLY and K != 2:
        raise NotBinary(f"{spec.name} requires K=2, got K={K}")
    if (rewrite_preconditions and spec.name in NEEDS_OFFCENTER_PRIOR
            and abs(m.priors[0] - 0.5) <= PARAM_TOL):
        raise DegenerateParams(f"{spec.name} requires the positive prior away from 1/2")
    if isinstance(spec, MCD):
        if not (0.0 <= spec.gamma_p <= 1.0 and 0.0 <= spec.gamma_n <= 1.0):
            raise DegenerateParams("MCD mixing rates must lie in [0, 1]")
        if spec.gamma_p + spec.gamma_n >= 1.0:
            raise DegenerateParams("MCD requires gamma_p + gamma_n < 1")
    elif isinstance(spec, UU):
        if not (0.0 <= spec.gamma_1 <= 1.0 and 0.0 <= spec.gamma_2 <= 1.0):
            raise DegenerateParams("UU mixing rates must lie in [0, 1]")
        if abs(spec.gamma_1 + spec.gamma_2 - 1.0) <= PARAM_TOL:
            raise DegenerateParams("UU requires gamma_1 + gamma_2 != 1 (channels coincide)")
    elif isinstance(spec, CCN):
        if spec.flip.shape != (n_x, 2, 2):
            raise ShapeMismatch(f"CCN flip tensor must be ({n_x}, 2, 2), got {spec.flip.shape}")
        _check_column_stochastic(spec.flip, "CCN flip")
    elif isinstance(spec, GCCN):
        n_s = len(compound_label_space(K))
        if spec.cond.shape != (n_x, n_s, K):
            raise ShapeMismatch(f"GCCN cond tensor must be ({n_x}, {n_s}, {K}), got {spec.cond.shape}")
        _check_column_stochastic(spec.cond, "GCCN cond")
    elif isinstance(spec, PPL):
        n_s = len(compound_label_space(K))
        if spec.C.shape != (n_s, n_x):
            raise ShapeMismatch(f"PPL weight table must be ({n_s}, {n_x}), got {spec.C.shape}")
        if np.any(spec.C < 0.0):
            raise DegenerateParams("PPL weights must be nonnegative")
        # properness: for every class y and instance x the weights of the
        # labels containing y sum to one
        totals = _member_mask(K).T @ spec.C
        if np.max(np.abs(totals - 1.0)) > PARAM_TOL:
            raise DegenerateParams("PPL weights are not proper: sum over labels containing a class must be 1")
    elif isinstance(spec, MCL):
        if len(spec.q) != K - 1:
            raise ShapeMismatch(f"MCL size distribution must have K-1={K - 1} entries, got {len(spec.q)}")
        q = np.asarray(spec.q)
        if np.any(q < 0.0) or abs(q.sum() - 1.0) > PARAM_TOL:
            raise DegenerateParams("MCL size probabilities must be nonnegative and sum to 1")
    elif isinstance(spec, SubConf):
        if not spec.Y_s:
            raise DegenerateParams("SubConf class subset must be nonempty")
        if not all(1 <= c <= K for c in spec.Y_s) or len(set(spec.Y_s)) != len(spec.Y_s):
            raise ShapeMismatch(f"SubConf subset {spec.Y_s} is not a set of classes in 1..{K}")
        if len(spec.Y_s) >= K:
            raise DegenerateParams("SubConf class subset must be a strict subset of 1..K")
    elif isinstance(spec, SCConf):
        if not 1 <= spec.y_s <= K:
            raise ShapeMismatch(f"SCConf class y_s={spec.y_s} outside 1..{K}")
    if spec.name in COMPOUND_SCENARIOS or spec.name == "CL":
        compound_label_space(K)


def _check_column_stochastic(tensor: np.ndarray, what: str) -> None:
    if np.any(tensor < 0.0):
        raise DegenerateParams(f"{what} has negative entries")
    sums = tensor.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > PARAM_TOL:
        raise DegenerateParams(f"{what} columns must each sum to 1 (conditional channel)")


# ---------------------------------------------------------------------------
# Matrix kernels, batched over the instance axis: each stacks one matrix per
# index in ``idx`` on axis 0 (the per-instance functions pass one index) and
# leaves validation to its caller, which runs validate_spec once per call.
# ---------------------------------------------------------------------------

def _mixture_matrix(spec: ScenarioSpec, m: Marginals) -> np.ndarray:
    pi_p, pi_n = float(m.priors[0]), float(m.priors[1])
    s2 = pi_p * pi_p + pi_n * pi_n
    if isinstance(spec, MCD):
        return np.array([[1.0 - spec.gamma_p, spec.gamma_p],
                         [spec.gamma_n, 1.0 - spec.gamma_n]])
    if isinstance(spec, UU):
        return np.array([[1.0 - spec.gamma_1, spec.gamma_1],
                         [spec.gamma_2, 1.0 - spec.gamma_2]])
    if isinstance(spec, PU):
        return np.array([[1.0, 0.0], [pi_p, pi_n]])
    if isinstance(spec, SU):
        return np.array([[pi_p * pi_p / s2, pi_n * pi_n / s2], [pi_p, pi_n]])
    if isinstance(spec, DU):
        return np.array([[0.5, 0.5], [pi_p, pi_n]])
    if isinstance(spec, SD):
        return np.array([[pi_p * pi_p / s2, pi_n * pi_n / s2], [0.5, 0.5]])
    if isinstance(spec, Pcomp):
        return np.array([
            [pi_p / (pi_p + pi_n * pi_n), pi_n * pi_n / (pi_p + pi_n * pi_n)],
            [pi_p * pi_p / (pi_p * pi_p + pi_n), pi_n / (pi_p * pi_p + pi_n)],
        ])
    raise UnsupportedScenario(spec.name)


def _channel_tensor(spec: ScenarioSpec, m: Marginals, idx) -> np.ndarray:
    """P(S=s_j | Y=k, x_i) for the label-channel family: (len(idx), |S|, K)."""
    K, n = m.K, len(idx)
    if isinstance(spec, CCN):
        return spec.flip[idx]
    if isinstance(spec, GCCN):
        return spec.cond[idx]
    mask = _member_mask(K)
    if isinstance(spec, PPL):
        return spec.C[:, idx].T[:, :, None] * mask
    if isinstance(spec, CL):
        mat = (np.ones((K, K)) - np.eye(K)) / (K - 1)
    elif isinstance(spec, PCPL):
        mat = mask / (2 ** (K - 1) - 1)
    elif isinstance(spec, MCL):
        sizes = mask.sum(axis=1).astype(int)
        row_scale = np.array([spec.q[d - 1] / math.comb(K - 1, d) for d in sizes])
        mat = row_scale[:, None] * (1.0 - mask)
    else:
        raise UnsupportedScenario(spec.name)
    return np.broadcast_to(mat, (n,) + mat.shape)


def _superclass_probability(spec: ScenarioSpec, r: np.ndarray) -> np.ndarray:
    """Probability of the sampled super-class given x, for class-probability
    columns ``r`` of shape (K, n): the sum over the sampled classes, and 1
    for Soft, whose super-class is every class."""
    if isinstance(spec, Soft):
        return np.ones(r.shape[1])
    if isinstance(spec, SubConf):
        members = [c - 1 for c in spec.Y_s]
    elif isinstance(spec, SCConf):
        members = [spec.y_s - 1]
    elif isinstance(spec, Pconf):
        members = [0]
    else:
        raise UnsupportedScenario(spec.name)
    return r[members].sum(axis=0)


def _diagonal_stack(v: np.ndarray) -> np.ndarray:
    """(n, K, K) stack of diagonal matrices from the (K, n) columns ``v``."""
    K, n = v.shape
    out = np.zeros((n, K, K))
    out[:, np.arange(K), np.arange(K)] = v.T
    return out


def _confidence_tensor(spec: ScenarioSpec, m: Marginals, idx) -> np.ndarray:
    """diag(r_sel(x) / r_k(x)) for the confidence family: (len(idx), K, K)."""
    r = m.class_probabilities[:, idx]
    zero = np.any(r <= 0.0, axis=0)
    if np.any(zero):
        raise ZeroConfidence(f"instance {idx[int(np.argmax(zero))]} has zero class probabilities")
    return _diagonal_stack(_superclass_probability(spec, r) / r)


def _contamination_tensor(spec: ScenarioSpec, m: Marginals, idx) -> np.ndarray:
    """M(x_i) for every i in ``idx``, C-contiguous: (len(idx), m, b)."""
    if spec.family == FAMILY_MCD:
        out = np.broadcast_to(_mixture_matrix(spec, m), (len(idx), 2, 2))
    elif spec.family == FAMILY_CCN:
        out = _channel_tensor(spec, m, idx)
    elif spec.family == FAMILY_CONF:
        out = _confidence_tensor(spec, m, idx)
    else:
        raise UnsupportedScenario(f"{spec.name} is pair-shaped; use the Sconf pair kernel")
    return np.ascontiguousarray(out)


def _transform_tensor(spec: ScenarioSpec, m: Marginals, idx) -> np.ndarray:
    """M_trsf(x_i) for every i in ``idx``: reciprocal priors for the mixture
    family (and Sconf), identity otherwise."""
    mat = np.diag(1.0 / m.priors) if spec.family in (FAMILY_MCD, FAMILY_SCONF) else np.eye(m.K)
    return np.ascontiguousarray(np.broadcast_to(mat, (len(idx),) + mat.shape))


def _sconf_confidences(m: Marginals, a, b) -> np.ndarray:
    """Pair confidences r(x_i, x_i2) for i in ``a`` and i2 in ``b``, as the
    outer products of the class-weighted conditionals: (len(a), len(b))."""
    pi_p, pi_n = float(m.priors[0]), float(m.priors[1])
    cp, cn = m.class_conditionals[0], m.class_conditionals[1]
    num = np.outer(pi_p ** 2 * cp[a], cp[b]) + np.outer(pi_n ** 2 * cn[a], cn[b])
    den = np.outer(m.instance_marginal[a], m.instance_marginal[b])
    zero = den <= 0.0
    if np.any(zero):
        ia, ib = np.argwhere(zero)[0]
        raise ZeroPairMass(f"pair ({a[ia]}, {b[ib]}) has zero product mass")
    return num / den


def _sconf_denominators(m: Marginals, r: np.ndarray) -> tuple:
    pi_p, pi_n = float(m.priors[0]), float(m.priors[1])
    dp, dn = r - pi_n, pi_p - r
    bad = (np.abs(dp) < 1e-12) | (np.abs(dn) < 1e-12)
    if np.any(bad):
        raise DegenerateParams(
            f"Sconf confidence r={r[bad][0]} coincides with a prior; matrix entries blow up")
    return dp, dn


def _sconf_pair_tensor(m: Marginals, a, b) -> tuple:
    """(r, M): confidences and 2x2 matrices of the pairs (x_i, x_i2), i in ``a``, i2 in
    ``b``; both rows of M map the class conditionals at x_i to the mass P(x_i) P(x_i2)."""
    pi_p, pi_n = float(m.priors[0]), float(m.priors[1])
    r = _sconf_confidences(m, a, b)
    dp, dn = _sconf_denominators(m, r)
    cpp, cnp = m.class_conditionals[0, b], m.class_conditionals[1, b]
    pm = np.empty(r.shape + (2, 2))
    pm[..., 0, 0] = pi_p * (pi_p ** 2 * cpp - pi_n ** 2 * cnp) / dp
    pm[..., 0, 1] = pi_p * (pi_n ** 2 * cnp - pi_n ** 2 * cpp) / dp
    pm[..., 1, 0] = pi_n * (pi_p ** 2 * cnp - pi_p ** 2 * cpp) / dn
    pm[..., 1, 1] = pi_n * (pi_p ** 2 * cpp - pi_n ** 2 * cnp) / dn
    return r, pm


def base_distributions(spec: ScenarioSpec, m: Marginals, i: int) -> np.ndarray:
    """B(x_i): class conditionals for the mixture family (and Sconf), the
    risk-defining joint column for the channel and confidence families."""
    _check_instance(m, i)
    if spec.family in (FAMILY_MCD, FAMILY_SCONF):
        return m.class_conditionals[:, i].copy()
    return m.class_probabilities[:, i] * m.instance_marginal[i]


def transform_matrix(spec: ScenarioSpec, m: Marginals, i: int) -> np.ndarray:
    """M_trsf(x_i) with B = M_trsf P: reciprocal priors for the mixture
    family (and Sconf), identity otherwise."""
    _check_instance(m, i)
    return _transform_tensor(spec, m, [i])[0]


def contamination_matrix(spec: ScenarioSpec, m: Marginals, i: int, i2: Optional[int] = None) -> np.ndarray:
    """M(x_i) mapping base distributions to observed channel masses.

    Sconf is pair-shaped: pass the second instance as ``i2``.
    """
    validate_spec(spec, m)
    _check_instance(m, i)
    if spec.family != FAMILY_SCONF:
        return _contamination_tensor(spec, m, [i])[0]
    if i2 is None:
        raise ShapeMismatch("Sconf contamination matrix needs the pair partner index i2")
    _check_instance(m, i2)
    return _sconf_pair_tensor(m, [i], [i2])[1][0, 0]


def _check_instance(m: Marginals, i: int) -> None:
    if not 0 <= i < m.n_x:
        raise IndexOutOfRange(f"instance index {i} outside 0..{m.n_x - 1}")


# ---------------------------------------------------------------------------
# Observed distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PairDistribution:
    """n_x x n_x matrix of pair probabilities; ``tag`` names which pair law."""
    tag: str
    matrix: np.ndarray

    def row_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def column_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=0)


@dataclass(frozen=True, eq=False)
class ContaminationModel:
    """Per-instance contamination structures and observed channel masses.

    ``observed[i, c]`` is the mass the observed channel c places on x_i
    (a density value for mixture channels, a joint P(S=s_c, x_i) for label
    channels, the super-class joint for confidence channels).  For Sconf the
    pair fields hold the per-pair matrix, the product pair law and the pair
    confidences instead.
    """
    spec: ScenarioSpec
    family: str
    channels: tuple
    matrix: Optional[np.ndarray] = None      # (n_x, m, b)
    transform: Optional[np.ndarray] = None   # (n_x, b, K)
    observed: Optional[np.ndarray] = None    # (n_x, m)
    pair: Optional[PairDistribution] = None
    pair_matrix: Optional[np.ndarray] = None      # (n_x, n_x, 2, 2)
    pair_confidence: Optional[np.ndarray] = None  # (n_x, n_x)

    @property
    def n_x(self) -> int:
        return self.matrix.shape[0] if self.matrix is not None else self.pair_matrix.shape[0]


def observed_distribution(spec: ScenarioSpec, j: FiniteJoint) -> ContaminationModel:
    """Instantiate the full contamination model of ``spec`` on ``j``."""
    m = compute_marginals(j)
    validate_spec(spec, m)
    labels = channel_labels(spec, j.K)
    idx = np.arange(j.n_x)

    if spec.family == FAMILY_SCONF:
        conf, pm = _sconf_pair_tensor(m, idx, idx)
        pair = PairDistribution(tag="XX", matrix=np.outer(m.instance_marginal, m.instance_marginal))
        return ContaminationModel(spec=spec, family=spec.family, channels=labels,
                                  pair=pair, pair_matrix=pm, pair_confidence=conf)

    mats = _contamination_tensor(spec, m, idx)
    trsf = _transform_tensor(spec, m, idx)
    observed = np.einsum("imb,ibk,ki->im", mats, trsf, j.joint)
    return ContaminationModel(spec=spec, family=spec.family, channels=labels,
                              matrix=mats, transform=trsf, observed=observed)


def pair_distribution(spec: ScenarioSpec, j: FiniteJoint, channel: Optional[str] = None) -> PairDistribution:
    """Exact pair law of the pair-shaped scenarios (K=2 only).

    SU has the similar pair "S", DU the dissimilar pair "D", SD both (select
    with ``channel``), Pcomp the comparison pair "PC", Sconf the product "XX".
    """
    if j.K != 2:
        raise NotBinary(f"pair distributions are defined for K=2, got K={j.K}")
    m = compute_marginals(j)
    validate_spec(spec, m, rewrite_preconditions=False)
    pi_p, pi_n = float(m.priors[0]), float(m.priors[1])
    cp, cn = m.class_conditionals[0], m.class_conditionals[1]

    def similar():
        s2 = pi_p * pi_p + pi_n * pi_n
        return (pi_p ** 2 * np.outer(cp, cp) + pi_n ** 2 * np.outer(cn, cn)) / s2

    def dissimilar():
        return (np.outer(cp, cn) + np.outer(cn, cp)) / 2.0

    if isinstance(spec, SU):
        which = channel or "S"
    elif isinstance(spec, DU):
        which = channel or "D"
    elif isinstance(spec, SD):
        if channel not in ("S", "D"):
            raise ValidationError('SD has two pair channels; pass channel="S" or channel="D"')
        which = channel
    elif isinstance(spec, Pcomp):
        which = channel or "PC"
    elif isinstance(spec, Sconf):
        which = channel or "XX"
    else:
        raise UnsupportedScenario(f"{spec.name} has no pair distribution")

    if which == "S":
        return PairDistribution(tag="S", matrix=similar())
    if which == "D":
        return PairDistribution(tag="D", matrix=dissimilar())
    if which == "PC":
        denom = pi_p ** 2 + pi_p * pi_n + pi_n ** 2
        q = (pi_p ** 2 * np.outer(cp, cp) + pi_p * pi_n * np.outer(cp, cn)
             + pi_n ** 2 * np.outer(cn, cn)) / denom
        return PairDistribution(tag="PC", matrix=q)
    if which == "XX":
        return PairDistribution(tag="XX", matrix=np.outer(m.instance_marginal, m.instance_marginal))
    raise ValidationError(f"unknown pair channel {which!r} for {spec.name}")


def _sconf_confidence_from_marginals(m: Marginals, i: int, i2: int) -> float:
    return float(_sconf_confidences(m, [i], [i2])[0, 0])


def sconf_confidence(j: FiniteJoint, i: int, i2: int) -> float:
    """Probability that x_i and x_{i2} carry the same label given both."""
    if j.K != 2:
        raise NotBinary("Sconf confidence is defined for K=2")
    m = compute_marginals(j)
    _check_instance(m, i)
    _check_instance(m, i2)
    return _sconf_confidence_from_marginals(m, i, i2)


# ---------------------------------------------------------------------------
# Reduction graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Reduction:
    """One edge of the reduction graph.

    ``assignments`` records how the parent's parameters realize the child.
    ``row_map`` (child row -> parent row) and ``parent_zero_rows`` handle the
    edges where the child matrix is a relabeled or pruned parent matrix
    (complement relabeling for PPL -> MCL, dropped zero rows for MCL -> CL).
    When the parent is not representable as a spec (SubConf -> Soft realizes
    the super-class probability as the constant 1), ``parent_matrix`` builds
    its matrix directly.
    """
    parent_name: str
    child_name: str
    child: ScenarioSpec
    assignments: dict
    parent: Optional[ScenarioSpec] = None
    row_map: Optional[np.ndarray] = None
    parent_zero_rows: Optional[np.ndarray] = None
    parent_matrix: Optional[Callable] = None  # (m, i) -> np.ndarray


REDUCTION_EDGES = (
    ("UU", "PU"), ("UU", "SU"), ("UU", "DU"), ("UU", "SD"), ("UU", "Pcomp"), ("UU", "MCD"),
    ("GCCN", "CCN"), ("GCCN", "PPL"), ("PPL", "PCPL"), ("PPL", "MCL"), ("MCL", "CL"),
    ("SubConf", "SCConf"), ("SCConf", "Pconf"), ("SubConf", "Soft"),
)


def _spec_name(spec_or_name) -> str:
    if isinstance(spec_or_name, str):
        return spec_or_name
    return spec_or_name.name


def reduce_spec(parent, child, m: Marginals) -> Reduction:
    """Parameter assignments realizing ``child`` as a special case of ``parent``.

    ``parent``/``child`` may be specs or names; specs are required where the
    edge depends on their parameters (UU -> MCD needs the UU rates, GCCN ->
    PPL needs the child's weight table, PPL -> MCL the child's size law).
    Raises NotAnEdge for pairs outside the graph.
    """
    pname, cname = _spec_name(parent), _spec_name(child)
    if (pname, cname) not in REDUCTION_EDGES:
        raise NotAnEdge(f"{pname} -> {cname} is not on the reduction graph")
    K, n_x = m.K, m.n_x

    if pname == "UU":
        if K != 2:
            raise NotBinary("the UU family is binary")
        if cname == "MCD":
            if isinstance(parent, str):
                raise ValidationError("UU -> MCD needs the parent UU spec (its rates carry over)")
            child_spec = MCD(gamma_p=parent.gamma_1, gamma_n=parent.gamma_2)
            return Reduction("UU", "MCD", child_spec,
                             {"gamma_p": parent.gamma_1, "gamma_n": parent.gamma_2},
                             parent=parent)
        child_spec = child if not isinstance(child, str) else SCENARIO_TYPES[cname]()
        # the UU rates are the child's off-diagonal mixture entries
        g1, g2 = _mixture_matrix(child_spec, m)[[0, 1], [1, 0]].tolist()
        return Reduction("UU", cname, child_spec, {"gamma_1": g1, "gamma_2": g2},
                         parent=UU(gamma_1=g1, gamma_2=g2))

    if pname == "GCCN":
        if isinstance(child, str):
            raise ValidationError(f"GCCN -> {cname} needs the child spec (its channel law carries over)")
        if cname == "CCN":
            cond = np.array(child.flip, dtype=np.float64)
            return Reduction("GCCN", "CCN", child, {"cond": "label-flip probabilities"},
                             parent=GCCN(cond=cond))
        cond = _channel_tensor(child, m, np.arange(n_x))
        return Reduction("GCCN", "PPL", child, {"cond": "C(s, x) on labels containing the class"},
                         parent=GCCN(cond=cond))

    if pname == "PPL":
        n_s = len(compound_label_space(K))
        if cname == "PCPL":
            w = 1.0 / (2 ** (K - 1) - 1)
            return Reduction("PPL", "PCPL", PCPL(), {"C": w},
                             parent=PPL(C=np.full((n_s, n_x), w)))
        if isinstance(child, str):
            raise ValidationError("PPL -> MCL needs the child MCL spec (its size law fixes C)")
        space = compound_label_space(K)
        # child row for an excluded set equals the parent row of its complement, so the
        # complement's weight is the scale of the child's row (its largest entry)
        row_map = np.array([space.index(tuple(sorted(set(range(1, K + 1)) - set(s)))) for s in space])
        c_table = np.empty((n_s, n_x))
        c_table[row_map] = _channel_tensor(child, m, [0])[0].max(axis=1)[:, None]
        return Reduction("PPL", "MCL", child,
                         {"C": "q over complement sizes divided by binomial(K-1, |s|-1)"},
                         parent=PPL(C=c_table), row_map=row_map)

    if pname == "MCL":
        q = tuple([1.0] + [0.0] * (K - 2))
        space = compound_label_space(K)
        return Reduction("MCL", "CL", CL(), {"q": q}, parent=MCL(q=q),
                         row_map=np.arange(K),
                         parent_zero_rows=np.arange(K, len(space)))

    if pname == "SubConf":
        if cname == "SCConf":
            child_spec = child if not isinstance(child, str) else SCConf(y_s=1)
            return Reduction("SubConf", "SCConf", child_spec, {"Y_s": (child_spec.y_s,)},
                             parent=SubConf(Y_s=(child_spec.y_s,)))
        # Soft: the super-class covers every class, so its probability is 1
        def full_set_matrix(mm: Marginals, i: int, _spec=None) -> np.ndarray:
            r = mm.class_probabilities[:, i]
            if np.any(r <= 0.0):
                raise ZeroConfidence(f"instance {i} has zero class probabilities")
            return np.diag(1.0 / r)

        return Reduction("SubConf", "Soft", Soft(), {"Y_s": "all classes (super-class probability 1)"},
                         parent_matrix=full_set_matrix)

    if pname == "SCConf":
        if K != 2:
            raise NotBinary("SCConf -> Pconf requires K=2")
        return Reduction("SCConf", "Pconf", Pconf(), {"y_s": 1}, parent=SCConf(y_s=1))

    raise NotAnEdge(f"{pname} -> {cname} is not on the reduction graph")


# ---------------------------------------------------------------------------
# JSON: {"name": "<tag>", "params": {...}}
# ---------------------------------------------------------------------------

_ALIASES = {cls.name.lower().replace("-", "").replace("_", ""): cls.name for cls in SCENARIO_TYPES.values()}


def scenario_to_json(spec: ScenarioSpec) -> str:
    params = {}
    for f in (fl.name for fl in fields(spec)):
        v = getattr(spec, f)
        if isinstance(v, np.ndarray):
            v = v.tolist()
        elif isinstance(v, tuple):
            v = list(v)
        params[f] = v
    return json.dumps({"name": spec.name, "params": params}, indent=2)


def scenario_from_json(text: str) -> ScenarioSpec:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid scenario JSON: {e}") from e
    if not isinstance(raw, dict) or "name" not in raw:
        raise SchemaMismatch('scenario JSON needs a "name" key')
    key = str(raw["name"]).lower().replace("-", "").replace("_", "")
    if key not in _ALIASES:
        raise SchemaMismatch(f"unknown scenario name {raw['name']!r}")
    cls = SCENARIO_TYPES[_ALIASES[key]]
    params = raw.get("params", {}) or {}
    expected = {fl.name for fl in fields(cls)}
    unknown = set(params) - expected
    if unknown:
        raise SchemaMismatch(f"unknown params {sorted(unknown)} for scenario {cls.name}")
    missing = expected - set(params)
    if missing:
        raise SchemaMismatch(f"missing params {sorted(missing)} for scenario {cls.name}")
    try:
        return cls(**params)
    except (TypeError, ValueError) as e:
        raise SchemaMismatch(f"bad params for {cls.name}: {e}") from e

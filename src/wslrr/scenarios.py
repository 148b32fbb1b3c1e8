"""Weak-supervision scenarios as matrix contaminations of a clean joint.

Each setting is a frozen record that owns its per-setting data, as class
attributes or one small method each; the kernels here read that data and
never branch on the setting.  They build, per instance, the contamination
matrix M(x), the transform M_trsf that maps the risk-defining vector P(x)
to the base distributions B(x), and the observed channel masses
M(x) M_trsf P(x).  M_trsf is the same at every x and only reweights: it is
diagonal, so the observed masses are the K-term sum over b of
M[:, :, b] t_b P(Y=b, x) with t its diagonal.  A record declares its
channel ``labels(K)`` (fixed ``channels``), the ``pair_channels`` drawn as
index pairs, the ``streams`` a sample-size request names when they are not
the labels (Pcomp's single ``PC`` stream), the preconditions
``binary_only``, ``offcenter_prior`` and ``check(K, n_x)``, and its
decontamination ``method`` (the default) and ``estimator`` (weighs the
empirical risk's draws); the formulas of D live in ``decontam``.  Three
families share one pipeline and differ in what M reads:

* mixture family (``MCD``): the rows ``mixture(pi_p, pi_n)``, the same at
  every x; B holds the class conditionals, M_trsf the reciprocal priors
  (the identity for the other families);
* label-channel family (``CCN``): P(S=s_j | Y=k, x), one ``matrix`` for
  every x (CL, PCPL, MCL) or a per-instance ``tensor`` (CCN, GCCN, PPL);
* confidence family (``Conf``): the diagonal r_sel(x) / r_k(x), r_sel
  summing the class probabilities of the super-class ``members`` (None
  for Soft, whose super-class probability is exactly 1).

A matrix M that is the same at every x is built once and copied out to
the (n_x, ...) stack.  Sconf is pair-shaped and kept out of the generic
pipeline; its structures live in the ``pair_*`` fields of
:class:`ContaminationModel`, built from outer products.  Every kernel is
batched over the whole instance axis and reads the spec's validated system,
which the joint keeps for its last spec: M(x_i) is
``observed_distribution(spec, j).matrix[i]``, M_trsf is its ``transform``,
one (b, K) matrix for every instance, and no array aliases a record's own.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from functools import cache, cached_property
from typing import Callable, ClassVar, Optional, Union

import numpy as np

from .core import FiniteJoint, Marginals, _frozen, marginals as compute_marginals, parse_json, record
from .errors import (
    DegenerateParams,
    KTooLarge,
    NotAnEdge,
    NotBinary,
    SchemaMismatch,
    ShapeMismatch,
    UnsupportedScenario,
    ValidationError,
    ZeroConfidence,
    ZeroPairMass,
)

K_MAX_DEFAULT = 8
PARAM_TOL = 1e-9
# The rewrites of the off-center-prior settings divide by the prior gap
# |pi_p - 1/2|; at 1e-6 their risk is already off by up to 1e-10.
PRIOR_GAP_TOL = 1e-5

FAMILY_MCD = "MCD-family"
FAMILY_CCN = "CCN-family"
FAMILY_CONF = "Conf-family"
FAMILY_SCONF = "Sconf-pairwise"

METHOD_INVERSION = "inversion"
METHOD_MARGINAL_CHAIN = "marginal-chain"
METHOD_SCONF = "sconf-special"
METHOD_MCL_BLOCKWISE = "mcl-blockwise"
METHOD_DIAGONAL = "conf-diagonal"


# ---------------------------------------------------------------------------
# Scenario parameter records
# ---------------------------------------------------------------------------

def _require(spec, kind, field: str, values) -> None:
    """SchemaMismatch unless ``values`` is a sequence of ``kind``
    (numbers.Real or numbers.Integral, numpy scalars included, bools not)."""
    what = "integers" if kind is numbers.Integral else "numbers"
    try:
        values = tuple(values)
    except TypeError:
        raise SchemaMismatch(f"{spec.name} {field} must be a sequence of {what}, got {values!r}") from None
    for v in values:
        if isinstance(v, bool) or not isinstance(v, kind):
            raise SchemaMismatch(f"{spec.name} {field} must be {what}, got {v!r}")


def _float_array(spec, field: str, value) -> np.ndarray:
    """``value`` as the spec's own read-only float64 array; SchemaMismatch
    unless it is a rectangular array of integers or floats (strings and
    bools are refused, as for the scalar parameters)."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as e:
        raise SchemaMismatch(f"{spec.name} {field} must be a rectangular array of numbers: {e}") from None
    if arr.dtype.kind not in "iuf":
        raise SchemaMismatch(f"{spec.name} {field} must be a rectangular array of numbers, "
                             f"got {arr.dtype} values")
    return _frozen(arr.astype(np.float64))


class _Setting:
    """The per-setting data the kernels read; records override what differs."""
    name: ClassVar[str]
    family: ClassVar[str]
    channels: ClassVar[tuple] = ()
    pair_channels: ClassVar[tuple] = ()
    streams: ClassVar[tuple] = ()
    binary_only: ClassVar[bool] = False
    offcenter_prior: ClassVar[bool] = False  # the rewrite divides by the prior gap
    method: ClassVar[str]
    estimator: ClassVar[str]
    size_law = None  # MCL: the excluded-set size law, sampled before the label

    def labels(self, K: int) -> tuple:
        return self.channels

    def check(self, K: int, n_x: int) -> None:
        """Raise unless the parameters fit a K-class joint on n_x instances."""

    def matrix(self, m: Marginals) -> Optional[np.ndarray]:
        """M when it is the same at every instance; None when M depends on x,
        and ``tensor(m)`` stacks M(x_i) over every instance."""
        return None

    def diagonal(self, m: Marginals) -> Optional[np.ndarray]:
        """The (K, n_x) columns v with M(x_i) = diag(v[:, i]) when every M(x_i)
        is diagonal, so that inversion is entrywise; None otherwise."""
        return None


class _Mixture(_Setting):
    """Two channels mixing the class conditionals by ``mixture(pi_p, pi_n)``."""
    family = FAMILY_MCD
    binary_only = True
    method = estimator = METHOD_INVERSION

    def matrix(self, m: Marginals) -> np.ndarray:
        return np.array(self.mixture(float(m.priors[0]), float(m.priors[1])))


class _LabelChannel(_Setting):
    """Labels drawn through P(S=s_j | Y=k, x), sampled as one (label, x) stream;
    the labels are the nonempty strict subsets of the classes (CL overrides)."""
    family = FAMILY_CCN
    streams = ("SX",)
    method = estimator = METHOD_MARGINAL_CHAIN

    def labels(self, K: int) -> tuple:
        return tuple(_compound_str(s) for s in compound_label_space(K))


class _Confidence(_Setting):
    """Points from the super-class ``members`` (0-based; None for every class)
    with their class probabilities attached."""
    family = FAMILY_CONF
    streams = ("X",)
    method = estimator = METHOD_DIAGONAL

    def labels(self, K: int) -> tuple:
        return tuple(str(k) for k in range(1, K + 1))

    def diagonal(self, m: Marginals) -> np.ndarray:
        """r_sel(x) / r_k(x): (K, n_x)."""
        r = m.class_probabilities
        zero = np.any(r <= 0.0, axis=0)
        if np.any(zero):
            raise ZeroConfidence(f"instance {int(np.argmax(zero))} has zero class probabilities")
        return _superclass_probability(self, r) / r

    def tensor(self, m: Marginals) -> np.ndarray:
        return _diagonal_stack(self.diagonal(m))


@record()
class MCD(_Mixture):
    """Two noisy labeled channels mixing the class conditionals."""
    gamma_p: float
    gamma_n: float
    name = "MCD"
    channels = ("P_noisy", "N_noisy")

    def __post_init__(self):
        _require(self, numbers.Real, "rates", (self.gamma_p, self.gamma_n))

    def check(self, K, n_x):
        if not (0.0 <= self.gamma_p <= 1.0 and 0.0 <= self.gamma_n <= 1.0):
            raise DegenerateParams("MCD mixing rates must lie in [0, 1]")
        if self.gamma_p + self.gamma_n >= 1.0:
            raise DegenerateParams("MCD requires gamma_p + gamma_n < 1")

    def mixture(self, pi_p, pi_n):
        return [[1.0 - self.gamma_p, self.gamma_p], [self.gamma_n, 1.0 - self.gamma_n]]


@record()
class UU(_Mixture):
    """Two unlabeled channels with mixture rates (1-gamma_1) and gamma_2."""
    gamma_1: float
    gamma_2: float
    name = "UU"
    channels = ("U1", "U2")

    def __post_init__(self):
        _require(self, numbers.Real, "rates", (self.gamma_1, self.gamma_2))

    def check(self, K, n_x):
        if not (0.0 <= self.gamma_1 <= 1.0 and 0.0 <= self.gamma_2 <= 1.0):
            raise DegenerateParams("UU mixing rates must lie in [0, 1]")
        if abs(self.gamma_1 + self.gamma_2 - 1.0) <= PARAM_TOL:
            raise DegenerateParams("UU requires gamma_1 + gamma_2 != 1 (channels coincide)")

    def mixture(self, pi_p, pi_n):
        return [[1.0 - self.gamma_1, self.gamma_1], [self.gamma_2, 1.0 - self.gamma_2]]


@record()
class PU(_Mixture):
    name = "PU"
    channels = ("P", "U")

    def mixture(self, pi_p, pi_n):
        return [[1.0, 0.0], [pi_p, pi_n]]


@record()
class SU(_Mixture):
    name = "SU"
    channels = ("S", "U")
    pair_channels = ("S",)
    offcenter_prior = True

    def mixture(self, pi_p, pi_n):
        s2 = pi_p * pi_p + pi_n * pi_n
        return [[pi_p * pi_p / s2, pi_n * pi_n / s2], [pi_p, pi_n]]


@record()
class DU(_Mixture):
    name = "DU"
    channels = ("D", "U")
    pair_channels = ("D",)
    offcenter_prior = True

    def mixture(self, pi_p, pi_n):
        return [[0.5, 0.5], [pi_p, pi_n]]


@record()
class SD(_Mixture):
    name = "SD"
    channels = pair_channels = ("S", "D")
    offcenter_prior = True

    def mixture(self, pi_p, pi_n):
        s2 = pi_p * pi_p + pi_n * pi_n
        return [[pi_p * pi_p / s2, pi_n * pi_n / s2], [0.5, 0.5]]


@record()
class Pcomp(_Mixture):
    """Comparison pairs: the first point is drawn from Sup, the second from Inf."""
    name = "Pcomp"
    channels = ("Sup", "Inf")
    pair_channels = streams = ("PC",)

    def mixture(self, pi_p, pi_n):
        return [[pi_p / (pi_p + pi_n * pi_n), pi_n * pi_n / (pi_p + pi_n * pi_n)],
                [pi_p * pi_p / (pi_p * pi_p + pi_n), pi_n / (pi_p * pi_p + pi_n)]]


@record()
class Sconf(_Setting):
    name = "Sconf"
    family = FAMILY_SCONF
    channels = ("pair_p", "pair_n")
    pair_channels = streams = ("XX",)
    binary_only = offcenter_prior = True
    method = estimator = METHOD_SCONF


@record(eq=False)
class CCN(_LabelChannel):
    """Binary label noise: flip[i, noisy, clean] = P(noisy label | clean label, x_i)."""
    flip: np.ndarray
    name = "CCN"
    binary_only = True

    def __post_init__(self):
        object.__setattr__(self, "flip", _float_array(self, "flip", self.flip))

    def check(self, K, n_x):
        if self.flip.shape != (n_x, 2, 2):
            raise ShapeMismatch(f"CCN flip tensor must be ({n_x}, 2, 2), got {self.flip.shape}")
        _check_column_stochastic(self.flip, "CCN flip")

    def tensor(self, m):
        return self.flip.copy()


@record(eq=False)
class GCCN(_LabelChannel):
    """Compound-label channel: cond[i, j, k] = P(S = s_j | Y=k+1, x_i)."""
    cond: np.ndarray
    name = "GCCN"

    def __post_init__(self):
        object.__setattr__(self, "cond", _float_array(self, "cond", self.cond))

    def check(self, K, n_x):
        n_s = len(compound_label_space(K))
        if self.cond.shape != (n_x, n_s, K):
            raise ShapeMismatch(f"GCCN cond tensor must be ({n_x}, {n_s}, {K}), got {self.cond.shape}")
        _check_column_stochastic(self.cond, "GCCN cond")

    def tensor(self, m):
        return self.cond.copy()


@record(eq=False)
class PPL(_LabelChannel):
    """Proper partial labels: C[j, i] is the weight of compound label s_j at x_i."""
    C: np.ndarray
    name = "PPL"

    def __post_init__(self):
        object.__setattr__(self, "C", _float_array(self, "C", self.C))

    def check(self, K, n_x):
        n_s = len(compound_label_space(K))
        if self.C.shape != (n_s, n_x):
            raise ShapeMismatch(f"PPL weight table must be ({n_s}, {n_x}), got {self.C.shape}")
        if not np.all(np.isfinite(self.C)) or np.any(self.C < 0.0):
            raise DegenerateParams("PPL weights must be finite and nonnegative")
        # properness: for every class y and instance x the weights of the
        # labels containing y sum to one
        totals = _member_mask(K).T @ self.C
        if np.max(np.abs(totals - 1.0)) > PARAM_TOL:
            raise DegenerateParams("PPL weights are not proper: sum over labels containing a class must be 1")

    def tensor(self, m):
        return self.C.T[:, :, None] * _member_mask(m.K)


@record()
class PCPL(_LabelChannel):
    """Partial labels drawn uniformly among the compound labels holding the class."""
    name = "PCPL"

    def matrix(self, m):
        return _member_mask(m.K) / (2 ** (m.K - 1) - 1)


@record()
class MCL(_LabelChannel):
    """Multi-complementary labels; q[d-1] = P(|excluded set| = d) for d in 1..K-1."""
    q: tuple
    name = "MCL"
    estimator = METHOD_MCL_BLOCKWISE

    def __post_init__(self):
        _require(self, numbers.Real, "q", self.q)
        object.__setattr__(self, "q", tuple(float(v) for v in self.q))

    @property
    def size_law(self) -> tuple:
        return self.q

    def check(self, K, n_x):
        if len(self.q) != K - 1:
            raise ShapeMismatch(f"MCL size distribution must have K-1={K - 1} entries, got {len(self.q)}")
        q = np.asarray(self.q)
        if not np.all(np.isfinite(q)) or np.any(q < 0.0) or abs(q.sum() - 1.0) > PARAM_TOL:
            raise DegenerateParams("MCL size probabilities must be finite, nonnegative and sum to 1")

    def matrix(self, m):
        K = m.K
        mask = _member_mask(K)
        sizes = mask.sum(axis=1).astype(int)
        row_scale = np.array([self.q[d - 1] / math.comb(K - 1, d) for d in sizes])
        return row_scale[:, None] * (1.0 - mask)


@record()
class CL(_LabelChannel):
    """Complementary labels: one class the instance does not belong to."""
    name = "CL"
    estimator = METHOD_MCL_BLOCKWISE

    def labels(self, K):
        return super().labels(K)[:K]  # the size-1 compound labels, which lead the canonical order

    def matrix(self, m):
        return (np.ones((m.K, m.K)) - np.eye(m.K)) / (m.K - 1)


@record()
class SubConf(_Confidence):
    """Samples from a super-class: Y_s is a nonempty strict subset of 1..K."""
    Y_s: tuple
    name = "SubConf"

    def __post_init__(self):
        _require(self, numbers.Integral, "Y_s", self.Y_s)
        object.__setattr__(self, "Y_s", tuple(sorted(int(v) for v in self.Y_s)))

    @property
    def members(self) -> tuple:
        return tuple(c - 1 for c in self.Y_s)

    def check(self, K, n_x):
        if not self.Y_s:
            raise DegenerateParams("SubConf class subset must be nonempty")
        if not all(1 <= c <= K for c in self.Y_s) or len(set(self.Y_s)) != len(self.Y_s):
            raise ShapeMismatch(f"SubConf subset {self.Y_s} is not a set of classes in 1..{K}")
        if len(self.Y_s) >= K:
            raise DegenerateParams("SubConf class subset must be a strict subset of 1..K")


@record()
class SCConf(_Confidence):
    """Samples from a single class y_s in 1..K."""
    y_s: int
    name = "SCConf"

    def __post_init__(self):
        _require(self, numbers.Integral, "y_s", (self.y_s,))
        object.__setattr__(self, "y_s", int(self.y_s))

    @property
    def members(self) -> tuple:
        return (self.y_s - 1,)

    def check(self, K, n_x):
        if not 1 <= self.y_s <= K:
            raise ShapeMismatch(f"SCConf class y_s={self.y_s} outside 1..{K}")


@record()
class Pconf(_Confidence):
    name = "Pconf"
    binary_only = True
    members = (0,)


@record()
class Soft(_Confidence):
    name = "Soft"
    members = None


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


def specs_equal(a: ScenarioSpec, b: ScenarioSpec) -> bool:
    if type(a) is not type(b):
        return False
    for f in a._fields:
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

@cache
def compound_label_space(K: int) -> tuple:
    """All nonempty strict subsets of {1..K}, ordered by (size, lexicographic).

    The order is the canonical row index for every compound-label matrix in
    this package.  Raises KTooLarge when K exceeds :data:`K_MAX_DEFAULT`
    (the channel count grows as 2^K - 2).
    """
    if K < 2:
        raise ShapeMismatch(f"K must be >= 2, got {K}")
    if K > K_MAX_DEFAULT:
        raise KTooLarge(f"K={K} exceeds the compound-label cap {K_MAX_DEFAULT}")
    out = []
    for d in range(1, K):
        out.extend(itertools.combinations(range(1, K + 1), d))
    return tuple(out)


@cache
def _member_mask(K: int) -> np.ndarray:
    """(|S|, K) indicator matrix, read-only: mask[j, k-1] = 1 iff class k is in s_j."""
    return _frozen(np.array([[float(c in s) for c in range(1, K + 1)] for s in compound_label_space(K)]))


def _compound_str(members) -> str:
    return ",".join(str(c) for c in members)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_spec(spec: ScenarioSpec, m: Marginals) -> None:
    """Check the scenario's parameter invariants against the marginals.

    The settings with ``offcenter_prior`` need the positive prior more than
    PRIOR_GAP_TOL from 1/2, because their rewrites divide by the prior gap.
    Raises NotBinary, DegenerateParams, ShapeMismatch or KTooLarge.
    """
    K = m.K
    if spec.binary_only and K != 2:
        raise NotBinary(f"{spec.name} requires K=2, got K={K}")
    if spec.offcenter_prior and abs(m.priors[0] - 0.5) <= PRIOR_GAP_TOL:
        raise DegenerateParams(f"{spec.name} requires the positive prior more than {PRIOR_GAP_TOL:g} "
                               "from 1/2")
    spec.check(K, m.n_x)
    if spec.family == FAMILY_CCN:
        compound_label_space(K)  # the label channels and the blockwise inverse index its subsets


def _check_column_stochastic(tensor: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(tensor)) or np.any(tensor < 0.0):
        raise DegenerateParams(f"{what} has negative or non-finite entries")
    sums = tensor.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > PARAM_TOL:
        raise DegenerateParams(f"{what} columns must each sum to 1 (conditional channel)")


# ---------------------------------------------------------------------------
# Matrix kernels, batched over the instance axis: each stacks one matrix per
# instance on axis 0 and leaves validation to its caller's _System.
# ---------------------------------------------------------------------------

def _superclass_probability(spec: ScenarioSpec, r: np.ndarray) -> np.ndarray:
    """Probability of the sampled super-class given x, for class-probability
    columns ``r`` of shape (K, n): the sum over the members, and exactly 1
    for Soft, whose super-class is every class."""
    if spec.members is None:
        return np.ones(r.shape[1])
    return r[list(spec.members)].sum(axis=0)


def _diagonal_stack(v: np.ndarray) -> np.ndarray:
    """(n, K, K) stack of diagonal matrices from the (K, n) columns ``v``."""
    K, n = v.shape
    out = np.zeros((n, K, K))
    out[:, np.arange(K), np.arange(K)] = v.T
    return out


def _contamination_tensor(spec: ScenarioSpec, m: Marginals) -> np.ndarray:
    """M(x_i) at every instance, C-contiguous: (n_x, m, b).  A matrix that is
    the same at every x is materialized, never a stride-0 view, so every
    contraction over the stack sums as it would per instance."""
    mat = spec.matrix(m)
    if mat is None:
        return np.ascontiguousarray(spec.tensor(m))
    return np.broadcast_to(mat, (m.n_x,) + mat.shape).copy()


def _transform_diagonal(spec: ScenarioSpec, m: Marginals) -> np.ndarray:
    """The diagonal t of M_trsf, which is the same at every instance and only
    reweights: reciprocal priors for the mixture family (and Sconf), ones
    otherwise."""
    return 1.0 / m.priors if spec.family in (FAMILY_MCD, FAMILY_SCONF) else np.ones(m.K)


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


def _sconf_pair_tensor(m: Marginals) -> tuple:
    """(r, M): confidences and 2x2 matrices of every pair (x_i, x_i2); both rows
    of M map the class conditionals at x_i to the mass P(x_i) P(x_i2)."""
    pi_p, pi_n = float(m.priors[0]), float(m.priors[1])
    idx = np.arange(m.n_x)
    r = _sconf_confidences(m, idx, idx)
    dp, dn = _sconf_denominators(m, r)
    cpp, cnp = m.class_conditionals[0], m.class_conditionals[1]
    pm = np.empty(r.shape + (2, 2))
    pm[..., 0, 0] = pi_p * (pi_p ** 2 * cpp - pi_n ** 2 * cnp) / dp
    pm[..., 0, 1] = pi_p * (pi_n ** 2 * cnp - pi_n ** 2 * cpp) / dp
    pm[..., 1, 0] = pi_n * (pi_p ** 2 * cnp - pi_p ** 2 * cpp) / dn
    pm[..., 1, 1] = pi_n * (pi_p ** 2 * cpp - pi_n ** 2 * cnp) / dn
    return r, pm


# ---------------------------------------------------------------------------
# Observed distributions
# ---------------------------------------------------------------------------

@record(eq=False)
class PairDistribution:
    """n_x x n_x matrix of pair probabilities; ``tag`` names which pair law."""
    tag: str
    matrix: np.ndarray


@record(eq=False)
class ContaminationModel:
    """Per-instance contamination structures and observed channel masses.

    ``observed[i, c]`` is the mass the observed channel c places on x_i
    (a density value for mixture channels, a joint P(S=s_c, x_i) for label
    channels, the super-class joint for confidence channels).  For Sconf the
    pair fields hold the per-pair matrix, the product pair law and the pair
    confidences instead.
    """
    channels: tuple
    matrix: Optional[np.ndarray] = None      # (n_x, m, b)
    transform: Optional[np.ndarray] = None   # (b, K), the same at every instance
    observed: Optional[np.ndarray] = None    # (n_x, m)
    pair: Optional[PairDistribution] = None
    pair_matrix: Optional[np.ndarray] = None      # (n_x, n_x, 2, 2)
    pair_confidence: Optional[np.ndarray] = None  # (n_x, n_x)


class _System:
    """``spec`` validated once on ``j``: the marginals ``m`` and, each built on
    its first read and read-only, the contamination ``tensor`` M(x_i) at every
    instance, the ``observed`` channel masses and, by ``decontam._decontaminate``,
    one ``decontaminated`` result per method.  The harness shares one system
    per input among all its checks; the public kernels read the one that
    :func:`_system` keeps on the joint."""

    def __init__(self, spec: ScenarioSpec, j: FiniteJoint):
        self.spec, self.j = spec, j
        self.m = compute_marginals(j)
        validate_spec(spec, self.m)
        self.decontaminated = {}

    @cached_property
    def tensor(self) -> np.ndarray:
        return _frozen(_contamination_tensor(self.spec, self.m))

    @cached_property
    def observed(self) -> np.ndarray:
        """M(x) M_trsf P(x) at every instance, (n_x, m): M_trsf is diagonal, so
        this is the K-term sum over b of M[:, :, b] t_b P(Y=b, x), in b order."""
        mats, t, joint = self.tensor, _transform_diagonal(self.spec, self.m), self.j.joint
        out = mats[:, :, 0] * t[0] * joint[0][:, None]
        for b in range(1, self.m.K):
            out += mats[:, :, b] * t[b] * joint[b][:, None]
        return _frozen(out)


def _system(spec: ScenarioSpec, j: FiniteJoint) -> _System:
    """The system the joint keeps when its spec is ``spec`` itself, else a new
    one that takes its one slot.  Specs and joints own read-only arrays, so
    identity stands for their values; an invalid spec raises and keeps none."""
    s = j.__dict__.get("_system")
    if s is None or s.spec is not spec:
        s = j.__dict__["_system"] = _System(spec, j)
    return s


def _contamination_model(s: _System) -> ContaminationModel:
    spec, j, m = s.spec, s.j, s.m
    labels = spec.labels(j.K)
    if spec.family == FAMILY_SCONF:
        conf, pm = _sconf_pair_tensor(m)
        pair = PairDistribution(tag="XX", matrix=np.outer(m.instance_marginal, m.instance_marginal))
        return ContaminationModel(channels=labels, pair=pair, pair_matrix=pm, pair_confidence=conf)
    return ContaminationModel(channels=labels, matrix=s.tensor,
                              transform=np.diag(_transform_diagonal(spec, m)), observed=s.observed)


def observed_distribution(spec: ScenarioSpec, j: FiniteJoint) -> ContaminationModel:
    """Instantiate the full contamination model of ``spec`` on ``j``."""
    return _contamination_model(_system(spec, j))


def _pair_law(m: Marginals, channel: str) -> np.ndarray:
    """The n_x x n_x law of pair channel ``channel`` (see :func:`pair_distribution`)."""
    pi_p, pi_n = float(m.priors[0]), float(m.priors[1])
    cp, cn = m.class_conditionals[0], m.class_conditionals[1]
    if channel == "S":
        return (pi_p ** 2 * np.outer(cp, cp) + pi_n ** 2 * np.outer(cn, cn)) / (pi_p * pi_p + pi_n * pi_n)
    if channel == "D":
        return (np.outer(cp, cn) + np.outer(cn, cp)) / 2.0
    if channel == "PC":
        return (pi_p ** 2 * np.outer(cp, cp) + pi_p * pi_n * np.outer(cp, cn)
                + pi_n ** 2 * np.outer(cn, cn)) / (pi_p ** 2 + pi_p * pi_n + pi_n ** 2)
    return np.outer(m.instance_marginal, m.instance_marginal)


def pair_distribution(spec: ScenarioSpec, j: FiniteJoint, channel: Optional[str] = None) -> PairDistribution:
    """Exact pair law of the pair-shaped scenarios (K=2 only).

    SU has the similar pair "S", DU the dissimilar pair "D", SD both (select
    with ``channel``), Pcomp the comparison pair "PC", Sconf the product "XX".
    The pair laws need no prior gap, and the pair records carry no parameters.
    """
    if j.K != 2:
        raise NotBinary(f"pair distributions are defined for K=2, got K={j.K}")
    m = compute_marginals(j)
    if not spec.pair_channels:
        raise UnsupportedScenario(f"{spec.name} has no pair distribution")
    if channel is None:
        if len(spec.pair_channels) > 1:
            raise ValidationError(f"{spec.name} has pair channels {spec.pair_channels}; pass one as channel")
        channel = spec.pair_channels[0]
    if channel not in spec.pair_channels:
        raise ValidationError(f"unknown pair channel {channel!r} for {spec.name}")
    return PairDistribution(tag=channel, matrix=_pair_law(m, channel))


# ---------------------------------------------------------------------------
# Reduction graph
# ---------------------------------------------------------------------------

@record(eq=False)
class Reduction:
    """One edge of the reduction graph, for the child spec it was made from.

    ``assignments`` records how the parent's parameters realize the child.
    ``row_map`` (child row -> parent row) handles the edges where the child
    matrix is a relabeled or pruned parent matrix (complement relabeling for
    PPL -> MCL, MCL -> CL keeping the size-1 rows); every parent row outside
    it must be zero.
    When the parent is not representable as a spec (SubConf -> Soft realizes
    the super-class probability as the constant 1), ``parent_matrix`` builds
    its (n_x, K, K) stack from the marginals directly.
    """
    assignments: dict
    parent: Optional[ScenarioSpec] = None
    row_map: Optional[np.ndarray] = None
    parent_matrix: Optional[Callable] = None  # m -> (n_x, K, K) stack


# Each child has exactly one parent, so an edge is named by its child.
REDUCTION_EDGES = (
    ("UU", "MCD"), ("UU", "PU"), ("UU", "SU"), ("UU", "DU"), ("UU", "SD"), ("UU", "Pcomp"),
    ("GCCN", "CCN"), ("GCCN", "PPL"), ("PPL", "PCPL"), ("PPL", "MCL"), ("MCL", "CL"),
    ("SubConf", "SCConf"), ("SCConf", "Pconf"), ("SubConf", "Soft"),
)
_PARENT = {child: parent for parent, child in REDUCTION_EDGES}


def reduce_spec(child: ScenarioSpec, m: Marginals) -> Reduction:
    """Parameter assignments realizing ``child`` as a special case of its
    parent on the reduction graph, the one :data:`REDUCTION_EDGES` names.

    The child's parameters carry over where the edge depends on them (an
    MCD's rates are the UU rates, a PPL's weight table fixes GCCN's channel
    law, an MCL's size law fixes PPL's weights).  Raises NotAnEdge for a
    root of the graph or a setting outside it, NotBinary for a binary-only
    child on K != 2.
    """
    cname = child.name
    if cname not in _PARENT:
        raise NotAnEdge(f"{cname} is not the child of an edge of the reduction graph")
    pname = _PARENT[cname]
    K, n_x = m.K, m.n_x
    if child.binary_only and K != 2:
        raise NotBinary(f"{cname} requires K=2, got K={K}")

    if pname == "UU":
        if cname == "MCD":
            return Reduction({"gamma_p": child.gamma_p, "gamma_n": child.gamma_n},
                             parent=UU(gamma_1=child.gamma_p, gamma_2=child.gamma_n))
        # the UU rates are the child's off-diagonal mixture entries
        g1, g2 = child.matrix(m)[[0, 1], [1, 0]].tolist()
        return Reduction({"gamma_1": g1, "gamma_2": g2}, parent=UU(gamma_1=g1, gamma_2=g2))

    if pname == "GCCN":
        if cname == "CCN":
            return Reduction({"cond": "label-flip probabilities"},
                             parent=GCCN(cond=np.array(child.flip, dtype=np.float64)))
        return Reduction({"cond": "C(s, x) on labels containing the class"}, parent=GCCN(cond=child.tensor(m)))

    if pname == "PPL":
        space = compound_label_space(K)
        n_s = len(space)
        if cname == "PCPL":
            w = 1.0 / (2 ** (K - 1) - 1)
            return Reduction({"C": w}, parent=PPL(C=np.full((n_s, n_x), w)))
        # child row for an excluded set equals the parent row of its complement, so the
        # complement's weight is the scale of the child's row (its largest entry)
        row_map = np.array([space.index(tuple(sorted(set(range(1, K + 1)) - set(s)))) for s in space])
        c_table = np.empty((n_s, n_x))
        c_table[row_map] = child.matrix(m).max(axis=1)[:, None]
        return Reduction({"C": "q over complement sizes divided by binomial(K-1, |s|-1)"},
                         parent=PPL(C=c_table), row_map=row_map)

    if pname == "MCL":
        q = tuple([1.0] + [0.0] * (K - 2))
        return Reduction({"q": q}, parent=MCL(q=q), row_map=np.arange(K))

    if cname == "SCConf":
        return Reduction({"Y_s": (child.y_s,)}, parent=SubConf(Y_s=(child.y_s,)))
    if cname == "Soft":  # the super-class covers every class, so its probability is 1
        def full_set_matrix(mm: Marginals) -> np.ndarray:
            r = mm.class_probabilities
            zero = np.any(r <= 0.0, axis=0)
            if np.any(zero):
                raise ZeroConfidence(f"instance {int(np.argmax(zero))} has zero class probabilities")
            return _diagonal_stack(1.0 / r)

        return Reduction({"Y_s": "all classes (super-class probability 1)"}, parent_matrix=full_set_matrix)
    if cname == "Pconf":
        return Reduction({"y_s": 1}, parent=SCConf(y_s=1))
    raise NotAnEdge(f"{pname} -> {cname} has no reduction")


# ---------------------------------------------------------------------------
# JSON: {"name": "<tag>", "params": {...}}
# ---------------------------------------------------------------------------

_ALIASES = {cls.name.lower().replace("-", "").replace("_", ""): cls.name for cls in SCENARIO_TYPES.values()}


def _spec_object(spec: ScenarioSpec) -> dict:
    """The JSON object of a spec: its name, and its fields as lists and numbers."""
    params = {}
    for f in spec._fields:
        v = getattr(spec, f)
        if isinstance(v, np.ndarray):
            v = v.tolist()
        elif isinstance(v, tuple):
            v = list(v)
        params[f] = v
    return {"name": spec.name, "params": params}


def scenario_to_json(spec: ScenarioSpec) -> str:
    return json.dumps(_spec_object(spec), indent=2)


def scenario_from_json(text: str) -> ScenarioSpec:
    return _scenario_from_object(parse_json(text, "scenario JSON"))


def _scenario_from_object(raw) -> ScenarioSpec:
    """The record a parsed scenario JSON value describes."""
    if not isinstance(raw, dict) or "name" not in raw:
        raise SchemaMismatch('scenario JSON needs a "name" key')
    key = str(raw["name"]).lower().replace("-", "").replace("_", "")
    if key not in _ALIASES:
        raise SchemaMismatch(f"unknown scenario name {raw['name']!r}")
    cls = SCENARIO_TYPES[_ALIASES[key]]
    params = raw.get("params", {}) or {}
    if not isinstance(params, dict):
        raise SchemaMismatch(f"scenario params must be a JSON object, got {params!r}")
    expected = set(cls._fields)
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

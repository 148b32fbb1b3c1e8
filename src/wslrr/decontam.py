"""Decontamination matrices: inversion, marginal chain, and the special paths.

A decontamination matrix D(x) satisfies D(x) observed(x) = P(x).  Five
constructions are implemented:

* ``inversion``: D = (M M_trsf)^-1 for square invertible systems (the whole
  mixture family, CCN, CL and the confidence family);
* ``marginal-chain``: D[k, j] = P(Y=k | S=s_j, x), defined for the label
  channel family without any invertibility assumption;
* ``mcl-blockwise``: the closed-form blockwise inverse of the
  multi-complementary matrix, one block per excluded-set size (CL is the
  single size-1 block);
* ``conf-diagonal``: diag(r_k(x) / r_sel(x)) for the confidence family;
* ``sconf-special``: the per-pair diagonal built from the pair confidence.

:func:`decontaminate` builds every D(x) in one numpy pass over the instance
axis, validating the spec once per call; D(x_i) is its ``matrices[i]``, and
the corrected losses at x_i are ``lam[:, i] @ D(x_i)``.  Square systems are
inverted with the 2x2 closed form or partial-pivot Gauss-Jordan batched with
per-instance pivots, never a library call, so results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import FiniteJoint, Marginals, marginals as compute_marginals
from .errors import BadSize, NonSquare, Singular, WrongFamily, ZeroConfidence
from .scenarios import (
    FAMILY_CCN,
    FAMILY_CONF,
    FAMILY_SCONF,
    METHOD_DIAGONAL,
    METHOD_INVERSION,
    METHOD_MARGINAL_CHAIN,
    METHOD_MCL_BLOCKWISE,
    METHOD_SCONF,
    ScenarioSpec,
    validate_spec,
    _contamination_tensor,
    _diagonal_stack,
    _member_mask,
    _sconf_confidences,
    _sconf_denominators,
    _superclass_probability,
    _transform_tensor,
)

SINGULAR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DecontaminationResult:
    """Per-instance decontamination matrices.

    ``matrices[i]`` is the K x m matrix at x_i; for the sconf-special method
    ``pair_matrices[i, i2]`` holds the per-pair 2x2 diagonal instead.
    """
    method: str
    matrices: Optional[np.ndarray] = None       # (n_x, K, m)
    pair_matrices: Optional[np.ndarray] = None  # (n_x, n_x, 2, 2)


def _invert_stack(a: np.ndarray) -> np.ndarray:
    """Inverse of every matrix in the (n, k, k) stack ``a``: the 2x2 closed form, or
    Gauss-Jordan on the row-scaled system with each instance's own partial pivots.
    Raises NonSquare for non-square systems, Singular when a row-scaled
    determinant or pivot is below SINGULAR_TOL."""
    n, k = a.shape[0], a.shape[1]
    if a.shape[2] != k:
        raise NonSquare(f"cannot invert {k} x {a.shape[2]} systems: the channel count is not the class count")
    scale = np.max(np.abs(a), axis=2)
    if np.any(scale == 0.0):
        raise Singular("matrix has an all-zero row")
    if k == 2:
        s = a / scale[:, :, None]
        if np.any(np.abs(s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]) <= SINGULAR_TOL):
            raise Singular("2x2 system is numerically singular")
        det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        adj = np.stack([a[:, 1, 1], -a[:, 0, 1], -a[:, 1, 0], a[:, 0, 0]], axis=1)
        return adj.reshape(n, 2, 2) / det[:, None, None]
    work = a / scale[:, :, None]
    inv = np.eye(k) / scale[:, :, None]
    det_scaled = np.ones(n)
    rows = np.arange(n)
    for col in range(k):
        pivot = col + np.argmax(np.abs(work[:, col:, col]), axis=1)
        for arr in (work, inv):
            arr[rows, col], arr[rows, pivot] = arr[rows, pivot], arr[rows, col]
        det_scaled = np.where(pivot != col, -det_scaled, det_scaled)
        p = work[rows, col, col]
        det_scaled *= p
        if np.any(np.abs(p) <= SINGULAR_TOL):
            raise Singular(f"pivot {np.min(np.abs(p)):.3e} below threshold at column {col}")
        work[:, col] /= p[:, None]
        inv[:, col] /= p[:, None]
        f = work[:, :, col].copy()
        f[:, col] = 0.0
        work -= f[:, :, None] * work[:, None, col]
        inv -= f[:, :, None] * inv[:, None, col]
    if np.any(np.abs(det_scaled) <= SINGULAR_TOL):
        raise Singular(f"scaled determinant {np.min(np.abs(det_scaled)):.3e} below threshold")
    return inv


def _marginal_chain(spec: ScenarioSpec, j: FiniteJoint, m: Marginals, idx) -> np.ndarray:
    """P(Y=k | S=s_j, x_i) for i in ``idx``: (len(idx), K, m), zero where a
    channel has no mass at x_i."""
    if spec.family != FAMILY_CCN:
        raise WrongFamily(f"marginal chain is defined for the label-channel family, not {spec.name}")
    mats = _contamination_tensor(spec, m, idx)
    terms = j.joint[:, idx].T[:, :, None] * mats.transpose(0, 2, 1)  # P(Y=k, S=s_j, x)
    masses = terms.sum(axis=1, keepdims=True)
    out = np.zeros(terms.shape)
    np.divide(terms, masses, out=out, where=masses > 0.0)
    return out


def _size_d_sets(K: int, d: int) -> np.ndarray:
    """(N_d, K) membership mask of the size-d compound labels, canonical order."""
    if not 1 <= d <= K - 1:
        raise BadSize(f"block size d={d} outside 1..{K - 1}")
    mask = _member_mask(K)
    return mask[mask.sum(axis=1) == d]


def mcl_block_inverse(K: int, d: int) -> np.ndarray:
    """K x N_d block inverse for excluded sets of size d.

    Entry (i, j) is 1 - ((K-1)/d) when class i+1 belongs to the j-th size-d
    set in canonical order, else 1.  Satisfies block_inverse @ block = I.
    """
    return 1.0 - (K - 1) / d * _size_d_sets(K, d).T


def mcl_block(K: int, d: int) -> np.ndarray:
    """N_d x K forward block: row j is the uniform channel law of the j-th
    size-d excluded set, 1/binomial(K-1, d) on the classes outside it."""
    return (1.0 - _size_d_sets(K, d)) / math.comb(K - 1, d)


def mcl_inverse(spec: ScenarioSpec, K: int) -> np.ndarray:
    """Horizontal concatenation of the blockwise inverses, aligned with the
    canonical channel order; left-inverts the size-scaled MCL matrix for any
    size law summing to one, and is CL's single size-1 block."""
    sizes = spec.excluded_sizes(K)
    if not sizes:
        raise WrongFamily(f"the blockwise inverse is specific to MCL and CL, not {spec.name}")
    return np.hstack([mcl_block_inverse(K, d) for d in sizes])


def _sconf_diagonals(m: Marginals) -> np.ndarray:
    """diag((r - pi_n)/(pi_p - pi_n), (pi_p - r)/(pi_p - pi_n)) for the
    confidence r of every pair (x_i, x_i2): (n_x, n_x, 2, 2).  The spec's
    validation keeps pi_p away from 1/2."""
    idx = np.arange(m.n_x)
    r = _sconf_confidences(m, idx, idx)
    _sconf_denominators(m, r)
    pi_p = float(m.priors[0])
    pi_n = 1.0 - pi_p
    out = np.zeros(r.shape + (2, 2))
    out[..., 0, 0] = (r - pi_n) / (pi_p - pi_n)
    out[..., 1, 1] = (pi_p - r) / (pi_p - pi_n)
    return out


def _conf_diagonal(spec: ScenarioSpec, m: Marginals, idx) -> np.ndarray:
    if spec.family != FAMILY_CONF:
        raise WrongFamily(f"{spec.name} is not a confidence scenario")
    r = m.class_probabilities[:, idx]
    denom = _superclass_probability(spec, r)
    zero = denom <= 0.0
    if np.any(zero):
        raise ZeroConfidence(f"super-class probability is zero at instance {idx[int(np.argmax(zero))]}")
    return _diagonal_stack(r / denom)


def decontaminate(spec: ScenarioSpec, j: FiniteJoint, method: str = "auto") -> DecontaminationResult:
    """Build per-instance decontamination matrices by the requested method.

    ``method`` is "inversion", "marginal-chain", "mcl-blockwise",
    "conf-diagonal", "sconf-special" or "auto" (the record's default method).
    """
    m = compute_marginals(j)
    validate_spec(spec, m)
    return _decontaminate(spec, j, m, spec.method if method == "auto" else method)


def _decontaminate(spec: ScenarioSpec, j: FiniteJoint, m: Marginals, method: str) -> DecontaminationResult:
    """:func:`decontaminate` on the marginals ``m`` of ``j``, with the spec
    already validated and ``method`` resolved."""
    idx = np.arange(j.n_x)

    if method == METHOD_SCONF:
        if spec.family != FAMILY_SCONF:
            raise WrongFamily(f"sconf-special only applies to Sconf, not {spec.name}")
        return DecontaminationResult(method=method, pair_matrices=_sconf_diagonals(m))

    if method == METHOD_MARGINAL_CHAIN:
        return DecontaminationResult(method=method, matrices=_marginal_chain(spec, j, m, idx))

    if method == METHOD_DIAGONAL:
        return DecontaminationResult(method=method, matrices=_conf_diagonal(spec, m, idx))

    if method == METHOD_MCL_BLOCKWISE:
        inv = mcl_inverse(spec, j.K)
        mats = np.broadcast_to(inv, (j.n_x,) + inv.shape).copy()
        return DecontaminationResult(method=method, matrices=mats)

    if method == METHOD_INVERSION:
        if spec.family == FAMILY_SCONF:
            raise WrongFamily("use sconf-special for Sconf")
        # a system that is the same at every x is inverted once, then copied out
        fixed = spec.matrix(m) is not None
        sel = idx[:1] if fixed else idx
        inv = _invert_stack(_contamination_tensor(spec, m, sel) @ _transform_tensor(spec, m, sel))
        mats = np.broadcast_to(inv, (j.n_x,) + inv.shape[1:]).copy() if fixed else inv
        return DecontaminationResult(method=method, matrices=mats)

    raise WrongFamily(f"unknown decontamination method {method!r}")

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

:func:`decontaminate`, the one entry point, validates the spec and builds
every D(x) in one numpy pass; D(x_i) is its ``matrices[i]``.  Both diagonals
are kernels of the confidences (:func:`_sconf_weights`, :func:`_conf_weights`)
that ``risk.channel_terms`` also evaluates at a dataset's stored confidences.
Square systems are inverted by the 2x2 closed form or by Gauss-Jordan with
per-instance partial pivots, never a library call, so runs are repeatable;
diagonal systems (the confidence family's) are inverted entrywise.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import FiniteJoint, record
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
    _System,
    _diagonal_stack,
    _frozen,
    _member_mask,
    _sconf_confidences,
    _sconf_denominators,
    _superclass_probability,
    _transform_diagonal,
)

SINGULAR_TOL = 1e-12


@record(eq=False)
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
        # a swap with every pivot already on the diagonal, or an elimination
        # in a column that is already zero off it, changes nothing: skip it
        pivot = col + np.argmax(np.abs(work[:, col:, col]), axis=1)
        swap = pivot != col
        if np.any(swap):
            for arr in (work, inv):
                arr[rows, col], arr[rows, pivot] = arr[rows, pivot], arr[rows, col]
            det_scaled = np.where(swap, -det_scaled, det_scaled)
        p = work[rows, col, col]
        det_scaled *= p
        if np.any(np.abs(p) <= SINGULAR_TOL):
            raise Singular(f"pivot {np.min(np.abs(p)):.3e} below threshold at column {col}")
        work[:, col] /= p[:, None]
        inv[:, col] /= p[:, None]
        f = work[:, :, col].copy()
        f[:, col] = 0.0
        if np.any(f):
            work -= f[:, :, None] * work[:, None, col]
            inv -= f[:, :, None] * inv[:, None, col]
    if np.any(np.abs(det_scaled) <= SINGULAR_TOL):
        raise Singular(f"scaled determinant {np.min(np.abs(det_scaled)):.3e} below threshold")
    return inv


def _marginal_chain(s: _System) -> np.ndarray:
    """P(Y=k | S=s_j, x_i) at every instance: (n_x, K, m), zero where a
    channel has no mass at x_i."""
    if s.spec.family != FAMILY_CCN:
        raise WrongFamily(f"marginal chain is defined for the label-channel family, not {s.spec.name}")
    terms = s.j.joint.T[:, :, None] * s.tensor.transpose(0, 2, 1)  # P(Y=k, S=s_j, x)
    masses = s.observed[:, None, :]  # P(S=s_j, x), the sum of the terms over k
    # the terms are nonnegative, so a channel without mass at x has only zero
    # terms; C order, since a transposed D(x_i) changes how products with it sum
    return np.divide(terms, np.where(masses > 0.0, masses, 1.0), order="C")


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
    """The blockwise inverses of excluded-set sizes 1..K-1 in canonical channel
    order, cut to the record's channels: it left-inverts the size-scaled MCL
    matrix for any size law summing to one; CL keeps the size-1 block."""
    if spec.estimator != METHOD_MCL_BLOCKWISE:
        raise WrongFamily(f"the blockwise inverse is specific to MCL and CL, not {spec.name}")
    return np.hstack([mcl_block_inverse(K, d) for d in range(1, K)])[:, :len(spec.labels(K))]


def _sconf_weights(priors, r) -> np.ndarray:
    """((r - pi_n), (pi_p - r)) / (pi_p - pi_n) on a last axis: the Sconf pair
    diagonal at confidences ``r`` (validation keeps pi_p away from 1/2)."""
    pi_p, pi_n = float(priors[0]), float(priors[1])
    return np.stack([r - pi_n, pi_p - r], axis=-1) / (pi_p - pi_n)


def _conf_weights(spec: ScenarioSpec, r: np.ndarray, where, rows=None) -> np.ndarray:
    """r / r_sel for the (n, K) class-probability rows ``r``, each read by a
    draw: the confidence diagonal.  Draw e at instance ``where[e]`` reads row
    ``rows[e]`` (or e); raises ZeroConfidence at the first whose r_sel is 0."""
    den = _superclass_probability(spec, r.T)
    if np.any(den <= 0.0):
        zero = den <= 0.0 if rows is None else (den <= 0.0)[rows]
        raise ZeroConfidence(f"super-class probability is zero at instance {where[int(np.argmax(zero))]}")
    return r / den[:, None]


def decontaminate(spec: ScenarioSpec, j: FiniteJoint, method: str = "auto") -> DecontaminationResult:
    """Build per-instance decontamination matrices by the requested method.

    ``method`` is "inversion", "marginal-chain", "mcl-blockwise",
    "conf-diagonal", "sconf-special" or "auto" (the record's default method).
    """
    return _decontaminate(_System(spec, j), method)


def _decontaminate(s: _System, method: str) -> DecontaminationResult:
    """:func:`decontaminate` on a validated system, built once per method and
    kept, read-only, in ``s.decontaminated``; a failure is not kept."""
    method = s.spec.method if method == "auto" else method
    if method not in s.decontaminated:
        dr = s.decontaminated[method] = _decontamination(s, method)
        _frozen(dr.matrices)
        _frozen(dr.pair_matrices)
    return s.decontaminated[method]


def _decontamination(s: _System, method: str) -> DecontaminationResult:
    spec, j, m = s.spec, s.j, s.m

    if method == METHOD_SCONF:
        if spec.family != FAMILY_SCONF:
            raise WrongFamily(f"sconf-special only applies to Sconf, not {spec.name}")
        idx = np.arange(j.n_x)
        r = _sconf_confidences(m, idx, idx)
        _sconf_denominators(m, r)
        pair = np.zeros(r.shape + (2, 2))
        pair[..., [0, 1], [0, 1]] = _sconf_weights(m.priors, r)
        return DecontaminationResult(method=method, pair_matrices=pair)

    if method == METHOD_MARGINAL_CHAIN:
        return DecontaminationResult(method=method, matrices=_marginal_chain(s))

    if method == METHOD_DIAGONAL:
        if spec.family != FAMILY_CONF:
            raise WrongFamily(f"{spec.name} is not a confidence scenario")
        w = _conf_weights(spec, m.class_probabilities.T, np.arange(j.n_x))
        return DecontaminationResult(method=method, matrices=_diagonal_stack(w.T))

    if method == METHOD_MCL_BLOCKWISE:
        inv = mcl_inverse(spec, j.K)
        mats = np.broadcast_to(inv, (j.n_x,) + inv.shape).copy()
        return DecontaminationResult(method=method, matrices=mats)

    if method == METHOD_INVERSION:
        if spec.family == FAMILY_SCONF:
            raise WrongFamily("use sconf-special for Sconf")
        t = _transform_diagonal(spec, m)  # M M_trsf scales the columns of M
        mat, diag = spec.matrix(m), spec.diagonal(m)
        if mat is not None:  # a system that is the same at every x is inverted once, then copied out
            inv = _invert_stack((mat * t)[None])
            mats = np.broadcast_to(inv, (j.n_x,) + inv.shape[1:]).copy()
        elif diag is not None:  # a diagonal system is inverted entrywise, as Gauss-Jordan would
            v = diag * t[:, None]
            if not np.all(v):
                raise Singular("matrix has an all-zero row")
            mats = _diagonal_stack(1.0 / v)
        else:
            mats = _invert_stack(s.tensor * t)
        return DecontaminationResult(method=method, matrices=mats)

    raise WrongFamily(f"unknown decontamination method {method!r}")

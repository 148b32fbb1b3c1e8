"""Oracle harness: every proved identity, run on seeded finite instances.

Checks are pure functions from a seeded random joint (plus scenario
parameters) to a CheckReport holding the worst observed error against a
fixed tolerance.  ``verify_all`` runs the whole registry serially and
reports in registry order.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import FiniteJoint, marginals as compute_marginals, validate_joint
from .datagen import datasets_equal, philox_uniforms, sample_weak_dataset
from .decontam import (
    METHOD_INVERSION,
    METHOD_MARGINAL_CHAIN,
    METHOD_MCL_BLOCKWISE,
    METHOD_SCONF,
    decontaminate,
    mcl_block,
    mcl_block_inverse,
)
from .errors import KTooLarge, ShapeMismatch, ValidationError, WslrrError
from .risk import (
    LossSpec,
    channel_terms,
    closed_form_corrected_loss,
    empirical_risk,
    loss_matrix,
    per_draw_values,
    rewrite_table,
    rewritten_risk,
    score_matrix,
    weight_table,
    _check_scores,
    _loss_table,
    _term_losses,
)
from .scenarios import (
    CCN,
    CL,
    CONCRETE_SCENARIOS,
    FAMILY_CCN,
    FAMILY_MCD,
    FAMILY_SCONF,
    GCCN,
    K_MAX_DEFAULT,
    MCD,
    MCL,
    PCPL,
    PPL,
    PU,
    Pcomp,
    SCENARIO_TYPES,
    SCConf,
    SU,
    Sconf,
    SubConf,
    DU,
    UU,
    ScenarioSpec,
    compound_label_space,
    observed_distribution,
    pair_distribution,
    reduce_spec,
    _member_mask,
    _sconf_confidences,
)
from .train import (
    TrainConfig,
    empirical_gradient,
    init_model,
    predictions,
    train_erm,
    train_supervised_exact,
)

TOL_MATRIX = 1e-12
TOL_RISK = 1e-10
TOL_REDUCTION = 1e-15
TOL_WORKED = 1e-14
TOL_GRADIENT = 1e-5
MC_SIGMAS = 5.0
# Floor of the Monte-Carlo tolerance in units of eps * sum|terms|, for when 5 se
# falls below rounding (one instance); pairwise sums of 1e5 draws lose ~log2(1e5)
MC_ROUNDING = 16.0
MC_TRIAL = 17  # the trial whose inputs the Monte-Carlo checks draw
_LOGISTIC = LossSpec("logistic")

ALL_SCENARIO_NAMES = CONCRETE_SCENARIOS
ABSTRACT_SCENARIO_NAMES = ("MCD", "CCN", "GCCN")
# exact inverses checked against the default marginal chain, which their closed forms need not match
EXACT_INVERSE = {"MCL": METHOD_MCL_BLOCKWISE, "CL": METHOD_INVERSION}


@dataclass(frozen=True)
class CheckReport:
    name: str
    scenario: str
    params: dict
    max_abs_err: float
    tol: float
    passed: bool
    seed: int
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scenario": self.scenario,
            "params": self.params,
            "max_abs_err": self.max_abs_err,
            "tol": self.tol,
            "pass": self.passed,
            "seed": self.seed,
            "elapsed": self.elapsed,
        }


@dataclass(frozen=True)
class VerifyConfig:
    K: int = 4
    nx: int = 6
    trials: int = 20
    seed: int = 7
    d_feat: int = 3
    mc_samples: int = 100_000

    def __post_init__(self):
        if self.K < 2 or self.nx < 1:
            raise ShapeMismatch(f"the harness needs K >= 2 and nx >= 1, got K={self.K}, nx={self.nx}")
        # the reduction graph and the CL Monte-Carlo check build every compound label
        if self.K > K_MAX_DEFAULT:
            raise KTooLarge(f"the harness needs K <= {K_MAX_DEFAULT}, got K={self.K}")
        if self.trials < 0 or self.mc_samples < 2:  # one draw per channel has no spread to bound
            raise ShapeMismatch(f"the harness needs trials >= 0 and mc_samples >= 2, "
                                f"got trials={self.trials}, mc_samples={self.mc_samples}")
        # the largest Philox key derived from the seed, seed + 1000 or seed + 31 * trial + 1, is a u64
        top = 2 ** 64 - 1 - max(1000, 31 * max(self.trials - 1, MC_TRIAL) + 1)
        if not 0 <= self.seed <= top:
            raise ValidationError(f"at {self.trials} trials the harness needs a seed in [0, {top}], "
                                  f"got {self.seed}")


@dataclass(frozen=True)
class AggregateReport:
    seed: int
    checks: tuple
    passed: bool

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "checks": [c.to_dict() for c in self.checks], "pass": self.passed},
            indent=2,
        )


def _report(name, scenario, params, err, tol, seed, t0) -> CheckReport:
    err = float(err)
    return CheckReport(name=name, scenario=scenario, params=params, max_abs_err=err,
                       tol=float(tol), passed=bool(err <= tol), seed=int(seed),
                       elapsed=time.perf_counter() - t0)


def _failure(name, scenario, params, tol, seed, t0, e: WslrrError) -> CheckReport:
    failed = dict(params, error=f"{type(e).__name__}: {e}")
    return _report(name, scenario, failed, float("inf"), tol, seed, t0)


def _guarded(name, scenario, params, tol, seed, body) -> CheckReport:
    """Run a check body returning the max error; a library error becomes a
    failed report carrying the message instead of an exception."""
    t0 = time.perf_counter()
    try:
        err = body()
    except WslrrError as e:
        return _failure(name, scenario, params, tol, seed, t0, e)
    return _report(name, scenario, params, err, tol, seed, t0)


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def random_joint(K: int, nx: int, d_feat: int, seed: int, stream: int) -> FiniteJoint:
    """Uniform draws normalized into a strictly positive joint, with seeded
    features in [-1, 1)."""
    u = philox_uniforms(seed, stream, K * nx).reshape(K, nx) + 0.05
    u /= u.sum()
    # exact renormalization so the validator's 1e-12 budget is never at risk
    feats = 2.0 * philox_uniforms(seed, stream + 1, nx * d_feat).reshape(nx, d_feat) - 1.0
    return validate_joint(K, feats, u / u.sum())


def _joint_ok(name: str, j: FiniteJoint) -> bool:
    m = compute_marginals(j)
    if m.class_probabilities.min() < 1e-3:
        return False
    if SCENARIO_TYPES[name].offcenter_prior and abs(m.priors[0] - 0.5) < 0.05:
        return False
    if SCENARIO_TYPES[name].family == FAMILY_SCONF:
        pi_p, pi_n = m.priors[0], m.priors[1]
        r = _sconf_confidences(m, np.arange(j.n_x), np.arange(j.n_x))
        if np.abs(r - pi_n).min() < 1e-3 or np.abs(pi_p - r).min() < 1e-3:
            return False
    return True


def _first_admissible(name: str, K: int, trial: int, candidate) -> FiniteJoint:
    """The first of a trial's candidate joints, ``candidate(K, stream)``,
    that meets the scenario's preconditions; binary settings draw K = 2."""
    K = 2 if SCENARIO_TYPES[name].binary_only else K
    for attempt in range(200):
        j = candidate(K, 1000 * trial + 2 * attempt + 11)
        if _joint_ok(name, j):
            return j
    raise WslrrError(f"could not draw an admissible joint for {name}")


def scenario_joint(name: str, K: int, nx: int, d_feat: int, seed: int, trial: int) -> FiniteJoint:
    """Seeded joint rejected until the scenario's preconditions hold (the
    preconditions are modeling assumptions, not failures)."""
    return _first_admissible(name, K, trial, lambda K, stream: random_joint(K, nx, d_feat, seed, stream))


def _ccn_flips(j: FiniteJoint, seed: int, trial: int) -> CCN:
    u = 0.4 * philox_uniforms(seed, 5000 + trial, 60)
    a, b = u[2 * np.arange(j.n_x) % 60], u[(2 * np.arange(j.n_x) + 1) % 60]
    return CCN(flip=np.ascontiguousarray(np.array([[1.0 - a, b], [a, 1.0 - b]]).transpose(2, 0, 1)))


def _gccn_conditionals(j: FiniteJoint, seed: int, trial: int) -> GCCN:
    n_s = len(compound_label_space(j.K))
    raw = philox_uniforms(seed, 6000 + trial, j.n_x * n_s * j.K).reshape(j.n_x, n_s, j.K) + 0.05
    raw /= raw.sum(axis=1, keepdims=True)
    return GCCN(cond=raw)


def _ppl_weights(j: FiniteJoint, seed: int, trial: int) -> PPL:
    """Instance-dependent proper weights: each instance mixes label sizes
    with its own law, uniform within a size (see the MCL construction)."""
    K = j.K
    sizes = [len(s) for s in compound_label_space(K)]
    alpha = philox_uniforms(seed, 7000 + trial, j.n_x * (K - 1)).reshape(j.n_x, K - 1) + 0.1
    alpha /= alpha.sum(axis=1, keepdims=True)
    binom = np.array([math.comb(K - 1, d - 1) for d in sizes], dtype=np.float64)
    return PPL(C=alpha[:, np.array(sizes) - 1].T / binom[:, None])


def _mcl_size_law(j: FiniteJoint, seed: int, trial: int) -> MCL:
    q = philox_uniforms(seed, 8000 + trial, j.K - 1) + 0.1
    return MCL(q=tuple(q / q.sum()))


# The seeded parameter draw of each setting that has parameters, as
# f(joint, seed, trial); the others are built without arguments.
_PARAMETER_DRAWS = {
    "UU": lambda j, seed, trial: UU(*(0.45 * philox_uniforms(seed, 5000 + trial, 2))),
    "MCD": lambda j, seed, trial: MCD(*(0.45 * philox_uniforms(seed, 5000 + trial, 2))),
    "CCN": _ccn_flips,
    "GCCN": _gccn_conditionals,
    "PPL": _ppl_weights,
    "MCL": _mcl_size_law,
    "SubConf": lambda j, seed, trial: SubConf(
        Y_s=tuple(sorted((trial + i) % j.K + 1 for i in range(1 + trial % (j.K - 1))))),
    "SCConf": lambda j, seed, trial: SCConf(y_s=trial % j.K + 1),
}


def make_spec(name: str, j: FiniteJoint, seed: int, trial: int) -> ScenarioSpec:
    """Seeded scenario parameters valid for the given joint."""
    draw = _PARAMETER_DRAWS.get(name)
    return draw(j, seed, trial) if draw else SCENARIO_TYPES[name]()


def seeded_model(j: FiniteJoint, seed: int, trial: int):
    model = init_model(j.K, j.d_feat, seed + 31 * trial + 1)
    for a in (model.weights, model.bias):  # read-only as joints are, so checks sharing it cannot change it
        a.setflags(write=False)
    return model


def _exact_risk(ls: LossSpec, model, j: FiniteJoint) -> tuple:
    """(the (n_x, K) loss table, the exact risk) of a model on a joint,
    summed as ``weighted_loss`` sums it."""
    losses = _loss_table(ls, _check_scores(score_matrix(model, j)))
    return losses, float((j.joint.T * losses).sum())


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def verify_formulation(spec: ScenarioSpec, j: FiniteJoint, tol: float = TOL_MATRIX,
                       seed: int = 0) -> CheckReport:
    """observed = M M_trsf P at every instance, plus the family's structural
    facts (convex rows, stochastic columns, or both Sconf rows hitting the
    pair mass)."""

    def body():
        m = compute_marginals(j)
        cm = observed_distribution(spec, j)
        if spec.family == FAMILY_SCONF:
            rows = cm.pair_matrix @ m.class_conditionals.T[:, None, :, None]  # (n_x, n_x, 2, 1)
            target = np.outer(m.instance_marginal, m.instance_marginal)[:, :, None, None]
            return max(float(np.max(np.abs(rows - target))), abs(float(cm.pair.matrix.sum()) - 1.0))
        lhs = cm.matrix @ cm.transform @ j.joint.T[:, :, None]  # one M_trsf for the whole stack
        err = float(np.max(np.abs(lhs[:, :, 0] - cm.observed)))
        if spec.family == FAMILY_MCD:
            rows = cm.matrix.sum(axis=2)
            err = max(err, float(np.max(np.abs(rows - 1.0))))
            err = max(err, float(max(0.0, np.max(-cm.matrix), np.max(cm.matrix - 1.0))))
        elif spec.family == FAMILY_CCN:
            cols = cm.matrix.sum(axis=1)
            err = max(err, float(np.max(np.abs(cols - 1.0))))
            err = max(err, float(np.max(np.abs(cm.observed.sum(axis=1) - m.instance_marginal))))
        return err

    return _guarded("formulation", spec.name, {}, tol, seed, body)


def _sconf_block_identity_error(spec: Sconf, j: FiniteJoint) -> float:
    """Finite analog of the pair decontamination identity: summing the
    diagonal decontamination against the prior-unscaled pair matrices over
    the second argument gives the identity at every x."""
    m = compute_marginals(j)
    cm = observed_distribution(spec, j)
    dr = decontaminate(spec, j, method=METHOD_SCONF)
    acc = (dr.pair_matrices @ np.diag(1.0 / m.priors) @ cm.pair_matrix).sum(axis=1)
    return float(np.max(np.abs(acc - np.eye(2))))


def verify_reconstruction(spec: ScenarioSpec, j: FiniteJoint, tol: float = TOL_MATRIX,
                          method: str = "auto", seed: int = 0) -> CheckReport:
    """Decontamination times observed masses returns the joint column at
    every instance (for Sconf, the pair identity)."""
    if spec.family == FAMILY_SCONF:
        return _guarded(f"reconstruction[{METHOD_SCONF}]", spec.name, {}, tol, seed,
                        lambda: _sconf_block_identity_error(spec, j))
    resolved = spec.method if method == "auto" else method

    return _guarded(f"reconstruction[{resolved}]", spec.name, {}, tol, seed,
                    lambda: float(np.max(np.abs(rewrite_table(spec, j, resolved) - j.joint.T))))


def verify_risk_equality(spec: ScenarioSpec, j: FiniteJoint, model, ls: LossSpec,
                         tol: float = TOL_RISK, method: str = "auto",
                         flip_sign: bool = False, seed: int = 0) -> CheckReport:
    """|rewritten risk - exact risk| under the scenario's default method.

    ``flip_sign`` is the mutation hook: it negates class 1's column of the
    rewrite table, which must break the equality (used to prove the harness
    can fail)."""
    return _risk_equality(spec, j, lambda: _exact_risk(ls, model, j), ls.name, tol, method, flip_sign, seed)


def _risk_equality(spec, j, risk, loss: str, tol=TOL_RISK, method="auto", flip_sign=False, seed=0):
    """:func:`verify_risk_equality` given ``risk()``, the pair of :func:`_exact_risk`."""

    def body():
        losses, exact = risk()
        table = rewrite_table(spec, j, method)
        if flip_sign:
            table[:, 0] = -table[:, 0]
        return abs(float((table * losses).sum()) - exact)

    return _guarded("risk-equality", spec.name, {"loss": loss}, tol, seed, body)


def verify_closed_form(spec: ScenarioSpec, j: FiniteJoint, model, ls: LossSpec,
                       tol: float = TOL_MATRIX, seed: int = 0) -> CheckReport:
    """Hand-coded corrected losses match the generic matrix product."""
    t0 = time.perf_counter()
    m = compute_marginals(j)
    lam = loss_matrix(ls, model, j)
    err = 0.0
    if spec.family == FAMILY_SCONF:
        dr = decontaminate(spec, j, method=METHOD_SCONF)
        for i in range(j.n_x):
            for i2 in range(j.n_x):
                closed = closed_form_corrected_loss(spec, m, i, lam[:, i], i2=i2)
                generic = lam[:, i] @ dr.pair_matrices[i, i2]
                err = max(err, float(np.max(np.abs(closed - generic))))
    else:
        dr = decontaminate(spec, j, method="auto")
        for i in range(j.n_x):
            closed = closed_form_corrected_loss(spec, m, i, lam[:, i])
            generic = lam[:, i] @ dr.matrices[i]
            err = max(err, float(np.max(np.abs(closed - generic))))
    return _report("closed-form", spec.name, {"loss": ls.name}, err, tol, seed, t0)


def verify_reduction_graph(j: FiniteJoint, tol: float = TOL_REDUCTION,
                           seed: int = 0) -> list:
    """Every edge of the reduction graph: the child matrix equals the parent
    matrix under the recorded assignments (modulo the documented row
    relabelings)."""
    K, nx = j.K, j.n_x
    reports = []
    binary_j = random_joint(2, nx, j.d_feat, seed, 4242) if K != 2 else j

    def check(parent, child, binary: bool):
        t0 = time.perf_counter()
        jj = binary_j if binary else j
        mm = compute_marginals(jj)
        red = reduce_spec(parent, child, mm)
        child_mats = observed_distribution(red.child, jj).matrix
        parent_mats = (red.parent_matrix(mm) if red.parent_matrix is not None
                       else observed_distribution(red.parent, jj).matrix)
        rows = red.row_map if red.row_map is not None else np.arange(child_mats.shape[1])
        err = float(np.max(np.abs(child_mats - parent_mats[:, rows])))
        # and every parent row outside the map is zero
        err = max(err, float(np.max(np.abs(np.delete(parent_mats, rows, axis=1)), initial=0.0)))
        assignments = {k: (v if isinstance(v, (int, float, str)) else str(v))
                       for k, v in red.assignments.items()}
        reports.append(_report(f"reduction[{red.parent_name}->{red.child_name}]",
                               red.child_name, assignments, err, tol, seed, t0))

    check(UU(gamma_1=0.2, gamma_2=0.3), "MCD", binary=True)
    for child in ("PU", "SU", "DU", "SD", "Pcomp"):
        check("UU", child, binary=True)
    check("GCCN", make_spec("CCN", j, seed, 0), binary=True)  # the flips read only n_x
    check("GCCN", make_spec("PPL", j, seed, 0), binary=False)
    check("PPL", "PCPL", binary=False)
    check("PPL", make_spec("MCL", j, seed, 0), binary=False)
    check("MCL", "CL", binary=False)
    check("SubConf", SCConf(y_s=min(2, K)), binary=False)
    check("SCConf", "Pconf", binary=True)
    check("SubConf", "Soft", binary=False)
    return reports


def verify_worked_example(seed: int = 0) -> CheckReport:
    """The four-class single-complement example: the forward matrix is
    (all-ones minus identity)/3, the inverse has -2 on the diagonal and 1
    elsewhere, and the conditional-probability route restores any joint."""
    t0 = time.perf_counter()
    K = 4
    spec = CL()
    err = 0.0

    p = philox_uniforms(seed, 90, K) + 0.1
    p /= p.sum()
    j = validate_joint(K, [[0.0]], (p / p.sum()).reshape(K, 1))

    mat = observed_distribution(spec, j).matrix[0]
    expect = (np.ones((K, K)) - np.eye(K)) / 3.0
    err = max(err, float(np.max(np.abs(mat - expect))))

    inv = mcl_block_inverse(K, 1)
    expect_inv = np.ones((K, K)) + np.eye(K) * (-3.0)
    err = max(err, float(np.max(np.abs(inv - expect_inv))))
    err = max(err, float(np.max(np.abs(inv @ mat @ j.joint[:, 0] - j.joint[:, 0]))))

    dr = decontaminate(spec, j, method=METHOD_MARGINAL_CHAIN)
    cm = observed_distribution(spec, j)
    err = max(err, float(np.max(np.abs(dr.matrices[0] @ cm.observed[0] - j.joint[:, 0]))))

    uniform = validate_joint(K, [[0.0]], np.full((K, 1), 0.25))
    dru = decontaminate(spec, uniform, method=METHOD_MARGINAL_CHAIN)
    offdiag = dru.matrices[0][~np.eye(K, dtype=bool)]
    err = max(err, float(np.max(np.abs(offdiag - 1.0 / 3.0))))
    err = max(err, float(np.max(np.abs(np.diag(dru.matrices[0])))))
    return _report("worked-example[CL-K4]", "CL", {}, err, TOL_WORKED, seed, t0)


def verify_pair_symmetry(j: FiniteJoint, tol: float = TOL_MATRIX, seed: int = 0,
                         n_funcs: int = 10) -> list:
    """E[h(X)] equals E[h(X')] under the similar and dissimilar pair laws,
    and the pair marginals match the pointwise channel rows."""
    reports = []
    m = compute_marginals(j)
    for name, spec in (("S", SU()), ("D", DU())):
        t0 = time.perf_counter()
        q = pair_distribution(spec, j, channel=name).matrix
        err = 0.0
        for t in range(n_funcs):
            h = philox_uniforms(seed, 300 + t, j.n_x) * 2.0 - 1.0
            left = float(np.sum(q * h[:, None]))
            right = float(np.sum(q * h[None, :]))
            err = max(err, abs(left - right))
        row = observed_distribution(spec, j).matrix[0, 0]  # the pair channel's pointwise row
        tilde = row @ m.class_conditionals
        err = max(err, float(np.max(np.abs(q.sum(axis=1) - tilde))))
        reports.append(_report(f"pair-symmetry[{name}]", spec.name, {}, err, tol, seed, t0))

    t0 = time.perf_counter()
    q = pair_distribution(Pcomp(), j, channel="PC").matrix
    mat = observed_distribution(Pcomp(), j).matrix[0]
    sup = mat[0] @ m.class_conditionals
    inf = mat[1] @ m.class_conditionals
    err = float(np.max(np.abs(q.sum(axis=1) - sup)))
    err = max(err, float(np.max(np.abs(q.sum(axis=0) - inf))))
    reports.append(_report("pair-marginals[Pcomp]", "Pcomp", {}, err, tol, seed, t0))
    return reports


def verify_pcpl_half_identity(j: FiniteJoint, model, ls: LossSpec,
                              tol: float = TOL_MATRIX, seed: int = 0) -> CheckReport:
    """The partial-label expectation equals half the expectation of the full
    confidence-weighted loss sum."""
    t0 = time.perf_counter()
    spec = PCPL()
    m = compute_marginals(j)
    cm = observed_distribution(spec, j)
    lam = loss_matrix(ls, model, j)
    left = rewritten_risk(spec, j, model, ls, method=METHOD_MARGINAL_CHAIN)
    r = m.class_probabilities
    den = (_member_mask(j.K) @ r).T  # super-class probability of each label at each x
    right = float(np.sum(0.5 * cm.observed * ((r * lam).sum(axis=0)[:, None] / den)))
    return _report("pcpl-half-identity", "PCPL", {"loss": ls.name}, abs(left - right),
                   tol, seed, t0)


def verify_mcl_blocks(max_K: int = 6, tol: float = TOL_MATRIX, seed: int = 0) -> CheckReport:
    """Blockwise inverse times forward block is the identity for every class
    count up to ``max_K`` and every excluded-set size."""
    t0 = time.perf_counter()
    err = 0.0
    for K in range(2, max_K + 1):
        for d in range(1, K):
            prod = mcl_block_inverse(K, d) @ mcl_block(K, d)
            err = max(err, float(np.max(np.abs(prod - np.eye(K)))))
    return _report("mcl-block-inverse", "MCL", {"max_K": max_K}, err, tol, seed, t0)


def verify_method_agreement(spec: ScenarioSpec, j: FiniteJoint, model, ls: LossSpec,
                            tol: float = TOL_RISK, seed: int = 0) -> CheckReport:
    """The exact inverse of CL or MCL (:data:`EXACT_INVERSE`) and the marginal
    chain give the same rewritten risk."""
    t0 = time.perf_counter()
    a = rewritten_risk(spec, j, model, ls, method=EXACT_INVERSE[spec.name])
    b = rewritten_risk(spec, j, model, ls, method=METHOD_MARGINAL_CHAIN)
    return _report("method-agreement", spec.name, {"loss": ls.name}, abs(a - b),
                   tol, seed, t0)


def _estimator_spread(ds, spec: ScenarioSpec, j: FiniteJoint, lam: np.ndarray) -> tuple:
    """(standard error of the empirical risk, sum over channels of the mean
    |term|) from the per-draw values of each channel."""
    var = abs_terms = 0.0
    for terms in channel_terms(ds, spec, j):
        losses = _term_losses(terms, lam)  # gathered once, for both sums
        vals = per_draw_values(terms, lam, losses)
        if len(vals) > 1:
            var += float(np.var(vals, ddof=1)) / len(vals)
        abs_terms += float(np.einsum("ek,ke->", np.abs(terms.weights), losses)) / len(vals)
    return math.sqrt(var), abs_terms


def verify_mc_consistency(name: str, cfg: VerifyConfig, n: int = 0) -> CheckReport:
    """Monte-Carlo estimate within MC_SIGMAS standard errors of the exact
    risk (or within the MC_ROUNDING floor), and bit-identical on a same-seed
    rerun."""
    return _mc_consistency(cfg, *_scenario_trial_inputs(cfg, {}, name, MC_TRIAL, cfg.K, cfg.nx), n)


def _mc_consistency(cfg: VerifyConfig, spec: ScenarioSpec, j: FiniteJoint, model, risk, n: int = 0):
    """:func:`verify_mc_consistency` on inputs already drawn (see :func:`_scenario_trial_inputs`)."""
    t0 = time.perf_counter()
    n = n or cfg.mc_samples
    losses, exact = risk()
    ds = sample_weak_dataset(spec, j, n, seed=cfg.seed + 1000)
    est = empirical_risk(ds, spec, model, _LOGISTIC, j)

    # in its own frame, so the per-draw terms are freed before the rerun draws as many again
    se, abs_terms = _estimator_spread(ds, spec, j, np.ascontiguousarray(losses.T))
    tol = max(MC_SIGMAS * se, MC_ROUNDING * np.finfo(np.float64).eps * abs_terms)

    ds2 = sample_weak_dataset(spec, j, n, seed=cfg.seed + 1000)
    est2 = empirical_risk(ds2, spec, model, _LOGISTIC, j)
    identical = datasets_equal(ds, ds2) and est == est2

    err = abs(est - exact) if identical else float("inf")
    return _report(f"mc-consistency[n={n}]", spec.name,
                   {"exact": exact, "estimate": est, "se": se, "rerun_identical": identical},
                   err, tol, cfg.seed, t0)


def verify_gradient_check(spec: ScenarioSpec, j: FiniteJoint, model, ds, ls: LossSpec,
                          tol: float = TOL_GRADIENT, eps: float = 1e-6,
                          seed: int = 0) -> CheckReport:
    """Analytic gradient of the empirical corrected risk against central
    finite differences; error is relative with a unit floor.  The risk at
    all 2P perturbed parameter vectors is one weighted loss over a
    (2P, n_x, K) stack of scores."""
    t0 = time.perf_counter()
    dW, db = empirical_gradient(ds, spec, model, ls, j)
    W = weight_table(ds, spec, j)  # the empirical risk is the weighted loss of this table
    # every parameter in one flat vector: the weights row by row, then the bias
    theta = np.concatenate([model.weights.ravel(), model.bias])
    analytic = np.concatenate([dW.ravel(), db])
    P, n_w = theta.size, model.weights.size
    thetas = theta + eps * np.concatenate([np.eye(P), -np.eye(P)])  # each parameter up, then down
    weights = thetas[:, :n_w].reshape(2 * P, *model.weights.shape)
    scores = j.features @ weights.transpose(0, 2, 1) + thetas[:, None, n_w:]  # (2P, n_x, K)
    risks = (W * _loss_table(ls, scores)).sum(axis=(1, 2))
    numeric = (risks[:P] - risks[P:]) / (2.0 * eps)
    err = np.abs(numeric - analytic) / np.maximum(1.0, np.maximum(np.abs(numeric), np.abs(analytic)))
    return _report("gradient-check", spec.name, {"loss": ls.name, "eps": eps},
                   err.max(), tol, seed, t0)


def separable_binary_joint(n_half: int = 20, seed: int = 7) -> FiniteJoint:
    """Two well separated clusters, one per class, equal mass per instance."""
    u = philox_uniforms(seed, 777, 4 * n_half).reshape(2 * n_half, 2)
    jitter = 0.3 * (u - 0.5)
    feats = np.vstack([np.tile([1.0, 1.0], (n_half, 1)) + jitter[:n_half],
                       np.tile([-1.0, -1.0], (n_half, 1)) + jitter[n_half:]])
    joint = np.zeros((2, 2 * n_half))
    joint[0, :n_half] = 1.0 / (2 * n_half)
    joint[1, n_half:] = 1.0 / (2 * n_half)
    return validate_joint(2, feats, joint)


def verify_erm_sanity(seed: int = 7, agreement: float = 0.95) -> CheckReport:
    """A model trained on positive-unlabeled data matches the fully
    supervised one on at least ``agreement`` of the instances."""
    t0 = time.perf_counter()
    j = separable_binary_joint(seed=seed)
    spec = PU()
    ds = sample_weak_dataset(spec, j, {"P": 2000, "U": 2000}, seed=seed + 3)
    cfg = TrainConfig(learning_rate=0.2, epochs=300, seed=seed)
    ls = LossSpec("logistic")
    weak_model, _ = train_erm(ds, spec, ls, cfg, j)
    full_model, _ = train_supervised_exact(j, ls, cfg)
    agree = float(np.mean(predictions(weak_model, j) == predictions(full_model, j)))
    # reported error is the agreement shortfall
    err = max(0.0, agreement - agree)
    return _report("erm-sanity[PU]", "PU", {"agreement": agree}, err, 0.0, seed, t0)


# ---------------------------------------------------------------------------
# The registry and the aggregate run
# ---------------------------------------------------------------------------

def _worst(reports: list) -> CheckReport:
    return max(reports, key=lambda r: (r.max_abs_err / r.tol) if r.tol else r.max_abs_err)


def _memo(table: dict, key, make):
    if key not in table:
        table[key] = make()
    return table[key]


def _draw_keys(trial: int, K: int, nx: int) -> tuple:
    """The table keys of the draws that every setting reading a trial at K
    and n_x shares: the candidate joints of that shape, and the trial's models."""
    return ("joints", trial, K, nx), ("models", trial)


def _scenario_trial_inputs(cfg: VerifyConfig, table: dict, name: str, trial: int, K: int, nx: int) -> tuple:
    """(spec, joint, model, risk) of a setting at a trial, built from the
    shared draws in ``table``: candidate joints by (K, stream) and models by K.
    ``risk()`` is the joint's logistic :func:`_exact_risk`, kept with it."""
    joints, models = (table.setdefault(key, {}) for key in _draw_keys(trial, K, nx))
    j = _first_admissible(name, K, trial, lambda K, stream: _memo(
        joints, (K, stream), lambda: random_joint(K, nx, cfg.d_feat, cfg.seed, stream)))
    model = _memo(models, j.K, lambda: seeded_model(j, cfg.seed, trial))
    return (make_spec(name, j, cfg.seed, trial), j, model,
            lambda: _memo(joints, j, lambda: _exact_risk(_LOGISTIC, model, j)))


_SETTINGS = ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES
_EVERY_TRIAL, _FIRST_FIVE = slice(None), slice(5)  # of range(cfg.trials); other rows read fixed trials
_MC_INPUT = "mc"  # the Monte-Carlo trial at the configured K and n_x
_ONCE = ("",)  # the settings of a task that names none

# The registry, one row per kind of task in report order: (task-name
# template, settings, the trials it reads, check).  A row gives one task per
# setting, named by the template formatted with the setting's entry, a name
# or a (name, method) pair.  Trial t's input has K = 2 + t % min(4, cfg.K - 1)
# and n_x = 3 + t % 6.  A check that reads inputs is called as check(cfg,
# spec, j, model, risk, *rest) on each one, where rest is the entry after the
# name, and its task reports the worst; one that reads none, as check(cfg, name).
_REGISTRY = (
    ("formulation:{}", _SETTINGS, _FIRST_FIVE,
     lambda cfg, spec, j, model, risk: verify_formulation(spec, j, seed=cfg.seed)),
    # each record's default method, and for CL and MCL also the exact inverse
    ("reconstruction:{}:{}",
     tuple((name, method) for name in _SETTINGS
           for method in (SCENARIO_TYPES[name].method, EXACT_INVERSE.get(name)) if method),
     _FIRST_FIVE,
     lambda cfg, spec, j, model, risk, method: verify_reconstruction(spec, j, method=method, seed=cfg.seed)),
    ("risk-equality:{}", _SETTINGS, _EVERY_TRIAL,
     lambda cfg, spec, j, model, risk: _risk_equality(spec, j, risk, _LOGISTIC.name, seed=cfg.seed)),
    ("closed-form:{}", tuple(n for n in ALL_SCENARIO_NAMES if n not in EXACT_INVERSE), _FIRST_FIVE,
     lambda cfg, spec, j, model, risk: verify_closed_form(spec, j, model, _LOGISTIC, seed=cfg.seed)),
    ("reduction-graph", _ONCE, (), lambda cfg, _: verify_reduction_graph(
        random_joint(cfg.K, cfg.nx, cfg.d_feat, cfg.seed, 21), seed=cfg.seed)),
    ("worked-example", _ONCE, (), lambda cfg, _: verify_worked_example(seed=cfg.seed)),
    # scenario_joint's first draw for trial 5 (stream 5011), not held to SU's
    # prior-gap rule: the pair laws need no gap, and at large n_x few draws have one
    ("pair-checks", _ONCE, (), lambda cfg, _: verify_pair_symmetry(
        random_joint(2, cfg.nx, cfg.d_feat, cfg.seed, 5011), seed=cfg.seed)),
    ("pcpl-half-identity", ("PCPL",), (2,),
     lambda cfg, spec, j, model, risk: verify_pcpl_half_identity(j, model, _LOGISTIC, seed=cfg.seed)),
    ("mcl-block-inverse", _ONCE, (), lambda cfg, _: verify_mcl_blocks(seed=cfg.seed)),
    ("method-agreement:{}", tuple(EXACT_INVERSE), (4,),
     lambda cfg, spec, j, model, risk: verify_method_agreement(spec, j, model, _LOGISTIC, seed=cfg.seed)),
    ("mc-consistency:{}", ("PU", "CL", "Soft"), _MC_INPUT, _mc_consistency),
    # 40 draws per sampling channel
    ("gradient-check:{}", ALL_SCENARIO_NAMES, (3,), lambda cfg, spec, j, model, risk: verify_gradient_check(
        spec, j, model, sample_weak_dataset(spec, j, 40, seed=cfg.seed + 5), _LOGISTIC, seed=cfg.seed)),
    ("erm-sanity", _ONCE, (), lambda cfg, _: verify_erm_sanity(seed=cfg.seed)),
)


def build_registry(cfg: VerifyConfig) -> list:
    """Named thunks in report order, one per task of :data:`_REGISTRY`; each
    returns one or more CheckReports.

    A library error inside a task becomes one failed report named after the
    task, so a single failing check never aborts the run.  A zero trial
    count yields an empty registry.

    The tasks share one table of the (scenario, trial) inputs of
    :func:`_scenario_trial_inputs` and of the draws they are built from: an
    entry is made on first read and dropped after the last task reading it.
    """
    if cfg.trials <= 0:
        return []
    tasks, table, readers = [], {}, Counter()

    def task(label, name, keys, rest, check):
        held = [*keys, *{draw for key in keys for draw in _draw_keys(*key[1:])}]  # the inputs and their draws
        readers.update(held)
        def run():
            t0 = time.perf_counter()
            try:
                if not keys:
                    return check(cfg, name)
                return _worst([check(cfg, *_memo(table, key, lambda: _scenario_trial_inputs(cfg, table, *key)),
                                     *rest) for key in keys])
            except WslrrError as e:
                return _failure(label, name, {}, 0.0, cfg.seed, t0, e)
            finally:
                for key in held:
                    readers[key] -= 1
                    if readers[key] <= 0:
                        table.pop(key, None)
        return run

    for template, settings, reads, check in _REGISTRY:
        shapes = [(MC_TRIAL, cfg.K, cfg.nx)] if reads == _MC_INPUT else [
            (t, 2 + t % min(4, cfg.K - 1), 3 + t % 6)
            for t in (range(cfg.trials)[reads] if isinstance(reads, slice) else reads)]
        for entry in settings:
            name, *rest = entry if isinstance(entry, tuple) else (entry,)
            keys = [(name, *shape) for shape in shapes]
            label = template.format(name, *rest)
            tasks.append((label, task(label, name, keys, rest, check)))
    return tasks


def verify_all(cfg: VerifyConfig = VerifyConfig()) -> AggregateReport:
    """Run the whole registry, in registry order."""
    checks = []
    for _, fn in build_registry(cfg):
        out = fn()
        checks += out if isinstance(out, list) else [out]
    return AggregateReport(seed=cfg.seed, checks=tuple(checks),
                           passed=all(c.passed for c in checks))

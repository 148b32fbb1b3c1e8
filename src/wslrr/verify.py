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
from dataclasses import dataclass

import numpy as np

from .core import FiniteJoint, marginals as compute_marginals, validate_joint
from .datagen import datasets_equal, philox_uniforms, sample_weak_dataset, sampling_channels
from .decontam import (
    METHOD_MARGINAL_CHAIN,
    METHOD_SCONF,
    decontaminate,
    mcl_block,
    mcl_block_inverse,
)
from .errors import ShapeMismatch, WslrrError
from .risk import (
    LossSpec,
    channel_terms,
    classification_risk,
    closed_form_corrected_loss,
    empirical_risk,
    loss_matrix,
    per_draw_values,
    rewrite_table,
    rewritten_risk,
    weight_table,
    weighted_loss,
)
from .scenarios import (
    CCN,
    CL,
    CONCRETE_SCENARIOS,
    FAMILY_CCN,
    FAMILY_MCD,
    FAMILY_SCONF,
    GCCN,
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
    LinearModel,
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

ALL_SCENARIO_NAMES = CONCRETE_SCENARIOS
ABSTRACT_SCENARIO_NAMES = ("MCD", "CCN", "GCCN")
CLOSED_FORM_NAMES = tuple(n for n in ALL_SCENARIO_NAMES if n not in ("CL", "MCL"))


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
    scenarios: tuple = ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES

    def __post_init__(self):
        if self.K < 2 or self.nx < 1:
            raise ShapeMismatch(f"the harness needs K >= 2 and nx >= 1, got K={self.K}, nx={self.nx}")


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
    if np.min(m.class_probabilities) < 1e-3:
        return False
    if SCENARIO_TYPES[name].offcenter_prior and abs(m.priors[0] - 0.5) < 0.05:
        return False
    if name == "Sconf":
        pi_p, pi_n = m.priors[0], m.priors[1]
        r = _sconf_confidences(m, np.arange(j.n_x), np.arange(j.n_x))
        if np.min(np.abs(r - pi_n)) < 1e-3 or np.min(np.abs(pi_p - r)) < 1e-3:
            return False
    return True


def scenario_joint(name: str, K: int, nx: int, d_feat: int, seed: int, trial: int) -> FiniteJoint:
    """Seeded joint rejected until the scenario's preconditions hold (the
    preconditions are modeling assumptions, not failures)."""
    if SCENARIO_TYPES[name].binary_only:
        K = 2
    for attempt in range(200):
        stream = 1000 * trial + 2 * attempt + 11
        j = random_joint(K, nx, d_feat, seed, stream)
        if _joint_ok(name, j):
            return j
    raise WslrrError(f"could not draw an admissible joint for {name}")


def make_spec(name: str, j: FiniteJoint, seed: int, trial: int) -> ScenarioSpec:
    """Seeded scenario parameters valid for the given joint."""
    K, nx = j.K, j.n_x
    u = philox_uniforms(seed, 5000 + trial, 64)
    if name == "UU":
        return UU(gamma_1=0.45 * u[0], gamma_2=0.45 * u[1])
    if name == "MCD":
        return MCD(gamma_p=0.45 * u[0], gamma_n=0.45 * u[1])
    if name == "CCN":
        flip = np.empty((nx, 2, 2))
        for i in range(nx):
            a = 0.4 * u[2 * i % 60]
            b = 0.4 * u[(2 * i + 1) % 60]
            flip[i] = [[1.0 - a, b], [a, 1.0 - b]]
        return CCN(flip=flip)
    if name == "GCCN":
        n_s = len(compound_label_space(K))
        raw = philox_uniforms(seed, 6000 + trial, nx * n_s * K).reshape(nx, n_s, K) + 0.05
        raw /= raw.sum(axis=1, keepdims=True)
        return GCCN(cond=raw)
    if name == "PPL":
        # instance-dependent proper weights: each instance mixes label sizes
        # with its own law, uniform within a size (see the MCL construction)
        sizes = [len(s) for s in compound_label_space(K)]
        alpha = philox_uniforms(seed, 7000 + trial, nx * (K - 1)).reshape(nx, K - 1) + 0.1
        alpha /= alpha.sum(axis=1, keepdims=True)
        binom = np.array([math.comb(K - 1, d - 1) for d in sizes], dtype=np.float64)
        return PPL(C=alpha[:, np.array(sizes) - 1].T / binom[:, None])
    if name == "MCL":
        q = philox_uniforms(seed, 8000 + trial, K - 1) + 0.1
        return MCL(q=tuple(q / q.sum()))
    if name == "SubConf":
        size = 1 + trial % (K - 1)
        members = tuple(sorted(((trial + i) % K) + 1 for i in range(size)))
        return SubConf(Y_s=members)
    if name == "SCConf":
        return SCConf(y_s=(trial % K) + 1)
    return SCENARIO_TYPES[name]()


def seeded_model(j: FiniteJoint, seed: int, trial: int):
    return init_model(j.K, j.d_feat, seed + 31 * trial + 1)


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
        lhs = cm.matrix @ cm.transform @ j.joint.T[:, :, None]
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

    def body():
        exact = classification_risk(j, model, ls)
        if not flip_sign:
            return abs(rewritten_risk(spec, j, model, ls, method=method) - exact)
        table = rewrite_table(spec, j, method)
        table[:, 0] = -table[:, 0]
        return abs(weighted_loss(table, model, ls, j) - exact)

    return _guarded("risk-equality", spec.name, {"loss": ls.name}, tol, seed, body)


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

    def check(parent, child, binary: bool):
        t0 = time.perf_counter()
        jj = random_joint(2, nx, j.d_feat, seed, 4242) if binary and K != 2 else j
        mm = compute_marginals(jj)
        red = reduce_spec(parent, child, mm)
        child_mats = observed_distribution(red.child, jj).matrix
        parent_mats = (red.parent_matrix(mm) if red.parent_matrix is not None
                       else observed_distribution(red.parent, jj).matrix)
        rows = red.row_map if red.row_map is not None else np.arange(child_mats.shape[1])
        err = float(np.max(np.abs(child_mats - parent_mats[:, rows])))
        if red.parent_zero_rows is not None:
            err = max(err, float(np.max(np.abs(parent_mats[:, red.parent_zero_rows]))))
        assignments = {k: (v if isinstance(v, (int, float, str)) else str(v))
                       for k, v in red.assignments.items()}
        reports.append(_report(f"reduction[{red.parent_name}->{red.child_name}]",
                               red.child_name, assignments, err, tol, seed, t0))

    check(UU(gamma_1=0.2, gamma_2=0.3), "MCD", binary=True)
    for child in ("PU", "SU", "DU", "SD", "Pcomp"):
        check("UU", child, binary=True)
    check("GCCN", make_spec("CCN", _binary_like(j, seed), seed, 0), binary=True)
    check("GCCN", make_spec("PPL", j, seed, 0), binary=False)
    check("PPL", "PCPL", binary=False)
    check("PPL", make_spec("MCL", j, seed, 0), binary=False)
    check("MCL", "CL", binary=False)
    check("SubConf", SCConf(y_s=min(2, K)), binary=False)
    check("SCConf", "Pconf", binary=True)
    check("SubConf", "Soft", binary=False)
    return reports


def _binary_like(j: FiniteJoint, seed: int) -> FiniteJoint:
    return j if j.K == 2 else random_joint(2, j.n_x, j.d_feat, seed, 4242)


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
    """The record's exact inverse (inversion, or MCL's blockwise inverse) and
    the marginal chain give the same rewritten risk."""
    t0 = time.perf_counter()
    a = rewritten_risk(spec, j, model, ls, method=spec.inverse)
    b = rewritten_risk(spec, j, model, ls, method=METHOD_MARGINAL_CHAIN)
    return _report("method-agreement", spec.name, {"loss": ls.name}, abs(a - b),
                   tol, seed, t0)


def verify_mc_consistency(name: str, cfg: VerifyConfig, n: int = 0) -> CheckReport:
    """Monte-Carlo estimate within MC_SIGMAS standard errors of the exact
    risk (or within the MC_ROUNDING floor), and bit-identical on a same-seed
    rerun."""
    t0 = time.perf_counter()
    n = n or cfg.mc_samples
    j = scenario_joint(name, cfg.K, cfg.nx, cfg.d_feat, cfg.seed, 17)
    spec = make_spec(name, j, cfg.seed, 17)
    model = seeded_model(j, cfg.seed, 17)
    ls = LossSpec("logistic")
    exact = classification_risk(j, model, ls)
    ds = sample_weak_dataset(spec, j, n, seed=cfg.seed + 1000)
    est = empirical_risk(ds, spec, model, ls, j)

    lam = loss_matrix(ls, model, j)
    var = abs_terms = 0.0
    for terms in channel_terms(ds, spec, j):
        vals = per_draw_values(terms, lam)
        if len(vals) > 1:
            var += float(np.var(vals, ddof=1)) / len(vals)
        abs_terms += float(np.einsum("ek,ke->", np.abs(terms.weights), lam[:, terms.idx])) / len(vals)
    se = math.sqrt(var)
    tol = max(MC_SIGMAS * se, MC_ROUNDING * np.finfo(np.float64).eps * abs_terms)

    ds2 = sample_weak_dataset(spec, j, n, seed=cfg.seed + 1000)
    est2 = empirical_risk(ds2, spec, model, ls, j)
    identical = datasets_equal(ds, ds2) and est == est2

    err = abs(est - exact) if identical else float("inf")
    return _report(f"mc-consistency[n={n}]", name,
                   {"exact": exact, "estimate": est, "se": se, "rerun_identical": identical},
                   err, tol, cfg.seed, t0)


def verify_gradient_check(spec: ScenarioSpec, j: FiniteJoint, ds, ls: LossSpec,
                          tol: float = TOL_GRADIENT, eps: float = 1e-6,
                          seed: int = 0) -> CheckReport:
    """Analytic gradient of the empirical corrected risk against central
    finite differences; error is relative with a unit floor."""
    t0 = time.perf_counter()
    model = seeded_model(j, seed, 3)
    dW, db = empirical_gradient(ds, spec, model, ls, j)
    W = weight_table(ds, spec, j)  # the empirical risk is the weighted loss of this table
    # every parameter in one flat vector: the weights row by row, then the bias
    theta = np.concatenate([model.weights.ravel(), model.bias])
    analytic = np.concatenate([dW.ravel(), db])
    n_w = model.weights.size

    def risk_at(t):
        return weighted_loss(W, LinearModel(t[:n_w].reshape(model.weights.shape), t[n_w:]), ls, j)

    err = 0.0
    for ix in range(theta.size):
        step = np.zeros_like(theta)
        step[ix] = eps
        numeric = (risk_at(theta + step) - risk_at(theta - step)) / (2.0 * eps)
        denom = max(1.0, abs(numeric), abs(analytic[ix]))
        err = max(err, abs(numeric - analytic[ix]) / denom)
    return _report("gradient-check", spec.name, {"loss": ls.name, "eps": eps},
                   err, tol, seed, t0)


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

def _reconstruction_methods(name: str) -> tuple:
    """The record's default method, and for CL and MCL, whose method agreement
    is checked too, also their exact inverse."""
    cls = SCENARIO_TYPES[name]
    return (cls.method, cls.inverse) if name in ("CL", "MCL") else (cls.method,)


def _worst(reports: list) -> CheckReport:
    worst = max(reports, key=lambda r: (r.max_abs_err / r.tol) if r.tol else r.max_abs_err)
    return worst


def _scenario_trial_inputs(name: str, cfg: VerifyConfig, trial: int):
    K = 2 if SCENARIO_TYPES[name].binary_only else 2 + (trial % min(4, cfg.K - 1))
    nx = 3 + (trial % 6)
    j = scenario_joint(name, K, nx, cfg.d_feat, cfg.seed, trial)
    spec = make_spec(name, j, cfg.seed, trial)
    model = seeded_model(j, cfg.seed, trial)
    return spec, j, model


def build_registry(cfg: VerifyConfig) -> list:
    """Named thunks in report order; each returns one or more CheckReports.

    A library error inside a task becomes one failed report named after the
    task, so a single failing check never aborts the run.  An empty scenario
    list or a zero trial count yields an empty registry.
    """
    ls = LossSpec("logistic")
    tasks = []
    if not cfg.scenarios or cfg.trials <= 0:
        return tasks

    def add(name, fn):
        def guarded():
            t0 = time.perf_counter()
            try:
                return fn()
            except WslrrError as e:
                scenario = name.split(":")[1] if ":" in name else ""
                return _failure(name, scenario, {}, 0.0, cfg.seed, t0, e)
        tasks.append((name, guarded))

    def worst_over_trials(name, trials, check):
        """The worst report of ``check(spec, j, model)`` over the trials."""
        return lambda: _worst([check(*_scenario_trial_inputs(name, cfg, t)) for t in range(trials)])

    few = min(cfg.trials, 5)
    for name in cfg.scenarios:
        add(f"formulation:{name}", worst_over_trials(
            name, few, lambda spec, j, _: verify_formulation(spec, j, seed=cfg.seed)))
    for name in cfg.scenarios:
        for method in _reconstruction_methods(name):
            add(f"reconstruction:{name}:{method}", worst_over_trials(
                name, few, lambda spec, j, _, method=method:
                verify_reconstruction(spec, j, method=method, seed=cfg.seed)))
    for name in cfg.scenarios:
        add(f"risk-equality:{name}", worst_over_trials(
            name, cfg.trials, lambda spec, j, model: verify_risk_equality(spec, j, model, ls, seed=cfg.seed)))
    for name in CLOSED_FORM_NAMES:
        add(f"closed-form:{name}", worst_over_trials(
            name, few, lambda spec, j, model: verify_closed_form(spec, j, model, ls, seed=cfg.seed)))

    def reduction():
        j = random_joint(cfg.K, cfg.nx, cfg.d_feat, cfg.seed, 21)
        return verify_reduction_graph(j, seed=cfg.seed)
    add("reduction-graph", reduction)

    add("worked-example", lambda: verify_worked_example(seed=cfg.seed))

    if {"SU", "DU", "Pcomp"} & set(cfg.scenarios):
        def pair_checks():
            j = scenario_joint("SU", 2, cfg.nx, cfg.d_feat, cfg.seed, 5)
            return verify_pair_symmetry(j, seed=cfg.seed)
        add("pair-checks", pair_checks)

    if "PCPL" in cfg.scenarios:
        def half_identity():
            spec, j, model = _scenario_trial_inputs("PCPL", cfg, 2)
            return verify_pcpl_half_identity(j, model, ls, seed=cfg.seed)
        add("pcpl-half-identity", half_identity)

    if "MCL" in cfg.scenarios:
        add("mcl-block-inverse", lambda: verify_mcl_blocks(seed=cfg.seed))

    for name in ("MCL", "CL"):
        if name not in cfg.scenarios:
            continue
        def agreement(name=name):
            spec, j, model = _scenario_trial_inputs(name, cfg, 4)
            return verify_method_agreement(spec, j, model, ls, seed=cfg.seed)
        add(f"method-agreement:{name}", agreement)

    for name in ("PU", "CL", "Soft"):
        if name in cfg.scenarios:
            add(f"mc-consistency:{name}", lambda name=name: verify_mc_consistency(name, cfg))

    for name in ALL_SCENARIO_NAMES:
        if name not in cfg.scenarios:
            continue
        def grad(name=name):
            spec, j, _ = _scenario_trial_inputs(name, cfg, 3)
            sizes = _small_sizes(spec, j)
            ds = sample_weak_dataset(spec, j, sizes, seed=cfg.seed + 5)
            return verify_gradient_check(spec, j, ds, ls, seed=cfg.seed)
        add(f"gradient-check:{name}", grad)

    if "PU" in cfg.scenarios:
        add("erm-sanity", lambda: verify_erm_sanity(seed=cfg.seed))
    return tasks


def _small_sizes(spec, j):
    return {name: 40 for name in sampling_channels(spec, j.K)}


def verify_all(cfg: VerifyConfig = VerifyConfig()) -> AggregateReport:
    """Run the whole registry, in registry order."""
    checks = []
    for _, fn in build_registry(cfg):
        out = fn()
        checks += out if isinstance(out, list) else [out]
    return AggregateReport(seed=cfg.seed, checks=tuple(checks),
                           passed=all(c.passed for c in checks))

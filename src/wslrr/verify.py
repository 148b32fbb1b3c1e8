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

import numpy as np

from .core import FiniteJoint, marginals as compute_marginals, record, validate_joint
from .datagen import datasets_equal, philox_uniforms, sample_weak_dataset, _keyed
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
    loss_matrix,
    rewrite_table,
    weight_table,
    weighted_loss,
    _fold,
    _loss_table,
    _losses,
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
    REDUCTION_EDGES,
    SCENARIO_TYPES,
    SCConf,
    SU,
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
    init_model,
    predictions,
    _descend,
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
PAIR_FUNCTIONS = 10  # the seeded test functions h whose means the pair laws must agree on
MCL_MAX_K = 6  # the blockwise inverse is checked at every class count up to this
GRADIENT_EPS = 1e-6  # the central-difference step
ERM_AGREEMENT = 0.95  # the least share of instances on which PU training matches supervised
ERM_HALF = 20  # the instances per class of the erm-sanity joint
_LOGISTIC = LossSpec("logistic")

ALL_SCENARIO_NAMES = CONCRETE_SCENARIOS
ABSTRACT_SCENARIO_NAMES = ("MCD", "CCN", "GCCN")
# exact inverses checked against the default marginal chain, which their closed forms need not match
EXACT_INVERSE = {"MCL": METHOD_MCL_BLOCKWISE, "CL": METHOD_INVERSION}


@record()
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


@record()
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


@record()
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


@record(eq=False)
class CheckInput:
    """A setting's input to the checks: its spec, joint and model.  The
    kernels the checks call read the system the input's own spec keeps for
    its joint, and ``exact``, the model's logistic loss table and exact risk,
    comes from the joint's loss slot; each is made on first read inside the
    reading check, so an error fails each check reading it and is not kept."""
    spec: ScenarioSpec
    j: FiniteJoint
    model: LinearModel

    @property
    def exact(self) -> tuple:
        return _losses(_LOGISTIC, self.model, self.j)


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def verify_formulation(inp: CheckInput, tol: float = TOL_MATRIX, seed: int = 0) -> CheckReport:
    """observed = M M_trsf P at every instance, plus the family's structural
    facts (convex rows, stochastic columns, or both Sconf rows hitting the
    pair mass)."""

    def body():
        spec, j = inp.spec, inp.j
        cm, m = observed_distribution(spec, j), compute_marginals(j)
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

    return _guarded("formulation", inp.spec.name, {}, tol, seed, body)


def verify_reconstruction(inp: CheckInput, tol: float = TOL_MATRIX, method: str = "auto",
                          seed: int = 0) -> CheckReport:
    """Decontamination times observed masses returns the joint column at
    every instance.  For Sconf, its finite analog of the pair identity:
    summing the diagonal decontamination against the prior-unscaled pair
    matrices over the second argument gives the identity at every x."""
    sconf = inp.spec.family == FAMILY_SCONF
    resolved = inp.spec.method if method == "auto" or sconf else method  # Sconf has one method

    def body():
        spec, j = inp.spec, inp.j
        if not sconf:
            return float(np.max(np.abs(rewrite_table(spec, j, resolved) - j.joint.T)))
        pairs = decontaminate(spec, j, METHOD_SCONF).pair_matrices
        pm = observed_distribution(spec, j).pair_matrix
        acc = (pairs @ np.diag(1.0 / compute_marginals(j).priors) @ pm).sum(axis=1)
        return float(np.max(np.abs(acc - np.eye(2))))

    return _guarded(f"reconstruction[{resolved}]", inp.spec.name, {}, tol, seed, body)


def verify_risk_equality(inp: CheckInput, tol: float = TOL_RISK, seed: int = 0) -> CheckReport:
    """|rewritten risk - exact risk| of the input's model under the logistic
    loss, by the scenario's default method."""

    def body():
        losses, exact = inp.exact
        return abs(float((rewrite_table(inp.spec, inp.j) * losses).sum()) - exact)

    return _guarded("risk-equality", inp.spec.name, {"loss": _LOGISTIC.name}, tol, seed, body)


def verify_closed_form(inp: CheckInput, ls: LossSpec, seed: int = 0) -> CheckReport:
    """Hand-coded corrected losses match the generic matrix product."""
    t0 = time.perf_counter()
    spec, j = inp.spec, inp.j
    dr, err = decontaminate(spec, j), 0.0  # Sconf's one method is sconf-special
    m, lam = compute_marginals(j), loss_matrix(ls, inp.model, j)
    if spec.family == FAMILY_SCONF:
        for i in range(j.n_x):
            for i2 in range(j.n_x):
                closed = closed_form_corrected_loss(spec, m, i, lam[:, i], i2=i2)
                generic = lam[:, i] @ dr.pair_matrices[i, i2]
                err = max(err, float(np.max(np.abs(closed - generic))))
    else:
        for i in range(j.n_x):
            closed = closed_form_corrected_loss(spec, m, i, lam[:, i])
            generic = lam[:, i] @ dr.matrices[i]
            err = max(err, float(np.max(np.abs(closed - generic))))
    return _report("closed-form", spec.name, {"loss": ls.name}, err, TOL_MATRIX, seed, t0)


def verify_reduction_graph(j: FiniteJoint, seed: int = 0) -> list:
    """Every edge of the reduction graph, in :data:`REDUCTION_EDGES` order:
    the child matrix equals the parent matrix under the recorded
    assignments (modulo the documented row relabelings).  A binary-only
    child is checked on a binary joint."""
    binary_j = random_joint(2, j.n_x, j.d_feat, seed, 4242) if j.K != 2 else j
    # the children that carry parameters (CCN's flips read only n_x); the others take none
    children = {"MCD": MCD(gamma_p=0.2, gamma_n=0.3), "SCConf": SCConf(y_s=min(2, j.K)),
                **{name: make_spec(name, j, seed, 0) for name in ("CCN", "PPL", "MCL")}}
    reports = []
    for parent, name in REDUCTION_EDGES:
        t0 = time.perf_counter()
        child = children[name] if name in children else SCENARIO_TYPES[name]()
        jj = binary_j if child.binary_only else j
        mm = compute_marginals(jj)
        red = reduce_spec(child, mm)
        child_mats = observed_distribution(child, jj).matrix
        parent_mats = (red.parent_matrix(mm) if red.parent_matrix is not None
                       else observed_distribution(red.parent, jj).matrix)
        rows = red.row_map if red.row_map is not None else np.arange(child_mats.shape[1])
        err = float(np.max(np.abs(child_mats - parent_mats[:, rows])))
        # and every parent row outside the map is zero
        err = max(err, float(np.max(np.abs(np.delete(parent_mats, rows, axis=1)), initial=0.0)))
        assignments = {k: (v if isinstance(v, (int, float, str)) else str(v))
                       for k, v in red.assignments.items()}
        reports.append(_report(f"reduction[{parent}->{name}]", name, assignments, err, TOL_REDUCTION, seed, t0))
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

    cm = observed_distribution(spec, j)
    mat = cm.matrix[0]
    expect = (np.ones((K, K)) - np.eye(K)) / 3.0
    err = max(err, float(np.max(np.abs(mat - expect))))

    inv = mcl_block_inverse(K, 1)
    expect_inv = np.ones((K, K)) + np.eye(K) * (-3.0)
    err = max(err, float(np.max(np.abs(inv - expect_inv))))
    err = max(err, float(np.max(np.abs(inv @ mat @ j.joint[:, 0] - j.joint[:, 0]))))

    dr = decontaminate(spec, j, method=METHOD_MARGINAL_CHAIN)
    err = max(err, float(np.max(np.abs(dr.matrices[0] @ cm.observed[0] - j.joint[:, 0]))))

    uniform = validate_joint(K, [[0.0]], np.full((K, 1), 0.25))
    dru = decontaminate(spec, uniform, method=METHOD_MARGINAL_CHAIN)
    offdiag = dru.matrices[0][~np.eye(K, dtype=bool)]
    err = max(err, float(np.max(np.abs(offdiag - 1.0 / 3.0))))
    err = max(err, float(np.max(np.abs(np.diag(dru.matrices[0])))))
    return _report("worked-example[CL-K4]", "CL", {}, err, TOL_WORKED, seed, t0)


def verify_pair_symmetry(j: FiniteJoint, seed: int = 0) -> list:
    """E[h(X)] equals E[h(X')] under the similar and dissimilar pair laws,
    and the pair marginals match the pointwise channel rows."""
    reports = []
    m = compute_marginals(j)
    for name, spec in (("S", SU()), ("D", DU())):
        t0 = time.perf_counter()
        q = pair_distribution(spec, j, channel=name).matrix
        err = 0.0
        for t in range(PAIR_FUNCTIONS):
            h = philox_uniforms(seed, 300 + t, j.n_x) * 2.0 - 1.0
            left = float(np.sum(q * h[:, None]))
            right = float(np.sum(q * h[None, :]))
            err = max(err, abs(left - right))
        row = observed_distribution(spec, j).matrix[0, 0]  # the pair channel's pointwise row
        tilde = row @ m.class_conditionals
        err = max(err, float(np.max(np.abs(q.sum(axis=1) - tilde))))
        reports.append(_report(f"pair-symmetry[{name}]", spec.name, {}, err, TOL_MATRIX, seed, t0))

    t0 = time.perf_counter()
    q = pair_distribution(Pcomp(), j, channel="PC").matrix
    mat = observed_distribution(Pcomp(), j).matrix[0]
    sup = mat[0] @ m.class_conditionals
    inf = mat[1] @ m.class_conditionals
    err = float(np.max(np.abs(q.sum(axis=1) - sup)))
    err = max(err, float(np.max(np.abs(q.sum(axis=0) - inf))))
    reports.append(_report("pair-marginals[Pcomp]", "Pcomp", {}, err, TOL_MATRIX, seed, t0))
    return reports


def verify_pcpl_half_identity(inp: CheckInput, ls: LossSpec, seed: int = 0) -> CheckReport:
    """The partial-label expectation equals half the expectation of the full
    confidence-weighted loss sum, on a PCPL input."""
    t0 = time.perf_counter()
    spec, j = inp.spec, inp.j
    lam = loss_matrix(ls, inp.model, j)
    left = weighted_loss(rewrite_table(spec, j, METHOD_MARGINAL_CHAIN), inp.model, ls, j)
    r, observed = compute_marginals(j).class_probabilities, observed_distribution(spec, j).observed
    den = (_member_mask(j.K) @ r).T  # super-class probability of each label at each x
    right = float(np.sum(0.5 * observed * ((r * lam).sum(axis=0)[:, None] / den)))
    return _report("pcpl-half-identity", "PCPL", {"loss": ls.name}, abs(left - right),
                   TOL_MATRIX, seed, t0)


def verify_mcl_blocks(seed: int = 0) -> CheckReport:
    """Blockwise inverse times forward block is the identity for every class
    count up to :data:`MCL_MAX_K` and every excluded-set size."""
    t0 = time.perf_counter()
    err = 0.0
    for K in range(2, MCL_MAX_K + 1):
        for d in range(1, K):
            prod = mcl_block_inverse(K, d) @ mcl_block(K, d)
            err = max(err, float(np.max(np.abs(prod - np.eye(K)))))
    return _report("mcl-block-inverse", "MCL", {"max_K": MCL_MAX_K}, err, TOL_MATRIX, seed, t0)


def verify_method_agreement(inp: CheckInput, ls: LossSpec, seed: int = 0) -> CheckReport:
    """The exact inverse of CL or MCL (:data:`EXACT_INVERSE`) and the marginal
    chain give the same rewritten risk."""
    t0 = time.perf_counter()
    a, b = (weighted_loss(rewrite_table(inp.spec, inp.j, method), inp.model, ls, inp.j)
            for method in (EXACT_INVERSE[inp.spec.name], METHOD_MARGINAL_CHAIN))
    return _report("method-agreement", inp.spec.name, {"loss": ls.name}, abs(a - b),
                   TOL_RISK, seed, t0)


def _estimator_spread(ds, spec: ScenarioSpec, j: FiniteJoint, losses: np.ndarray) -> tuple:
    """(empirical risk, its standard error, sum over channels of the mean
    |term|) of a dataset of ``spec`` on ``j`` under the nonnegative (n_x, K)
    loss table ``losses``, from one build of its channel terms.

    An entry's value table[key] . loss(x_inst[key]) depends only on its key,
    so each channel sums over its keys with their ``np.bincount`` counts c,
    as the fold does.  A pair draw is keyed by its two entries' keys, its
    pair code (:func:`_keyed`).  Each channel forms the mean sum c v / n, the
    two-pass variance sum c (v - mean)^2 / (n - 1) of a draw, and sum c |w|
    . loss over its entries; the estimate is the folded table's."""
    terms_list = channel_terms(ds, spec, j)
    est = float((_fold(terms_list, j) * losses).sum())
    var = abs_terms = 0.0
    ones = np.ones(j.K)
    for t in terms_list:
        n = t.n_draws
        terms = t.table * losses[t.inst]  # the K terms w_k loss_k of each key
        vals, abs_vals = terms @ ones, np.abs(terms, out=terms) @ ones  # |w_k| loss_k = |w_k loss_k|
        counts = t.counts
        abs_terms += float(np.sum(counts * abs_vals)) / n
        if len(t.rows) > n:  # pairs: a draw's two entry keys as one key
            first, second = t.rows[:n], t.rows[n:]
            key, one = _keyed(first * len(vals) + second, len(vals) ** 2)
            counts, vals = np.bincount(key, minlength=len(one)), vals[first[one]] + vals[second[one]]
        mean = float(np.sum(counts * vals)) / n
        if n > 1:
            var += float(np.sum(counts * (vals - mean) ** 2)) / (n - 1) / n
    return est, math.sqrt(var), abs_terms


def verify_mc_consistency(name: str, cfg: VerifyConfig) -> CheckReport:
    """Monte-Carlo estimate of ``cfg.mc_samples`` draws within MC_SIGMAS
    standard errors of the exact risk (or within the MC_ROUNDING floor), and
    bit-identical on a same-seed rerun, on the setting's input at MC_TRIAL:
    the registry's mc-consistency task, run on its own."""
    return _mc_consistency(cfg, _scenario_trial_inputs(cfg, {}, name, MC_TRIAL, cfg.K, cfg.nx))


def _mc_consistency(cfg: VerifyConfig, inp: CheckInput) -> CheckReport:
    """:func:`verify_mc_consistency` on an input already built."""
    t0 = time.perf_counter()
    spec, j, n = inp.spec, inp.j, cfg.mc_samples
    losses, exact = inp.exact
    ds = sample_weak_dataset(spec, j, n, cfg.seed + 1000)
    # in its own frame, so the channel terms are freed before the rerun draws as many again
    est, se, abs_terms = _estimator_spread(ds, spec, j, losses)
    tol = max(MC_SIGMAS * se, MC_ROUNDING * np.finfo(np.float64).eps * abs_terms)

    ds2 = sample_weak_dataset(spec, j, n, cfg.seed + 1000)
    same_draws = datasets_equal(ds, ds2)
    del ds  # before the rerun's terms and fold, so only one dataset is alive at the task's peak
    identical = same_draws and est == float((_fold(channel_terms(ds2, spec, j), j) * losses).sum())

    err = abs(est - exact) if identical else float("inf")
    return _report(f"mc-consistency[n={n}]", inp.spec.name,
                   {"exact": exact, "estimate": est, "se": se, "rerun_identical": identical},
                   err, tol, cfg.seed, t0)


def verify_gradient_check(inp: CheckInput, ds, ls: LossSpec, seed: int = 0) -> CheckReport:
    """Analytic gradient of the empirical corrected risk against central
    finite differences; error is relative with a unit floor.  The risk at
    all 2P perturbed parameter vectors is one weighted loss over a
    (2P, n_x, K) stack of scores."""
    t0 = time.perf_counter()
    j, model = inp.j, inp.model
    W = weight_table(ds, inp.spec, j)  # the empirical risk is the weighted loss of this table
    _, dW, db = weighted_loss(W, model, ls, j, grad=True)
    # every parameter in one flat vector: the weights row by row, then the bias
    theta = np.concatenate([model.weights.ravel(), model.bias])
    analytic = np.concatenate([dW.ravel(), db])
    P, n_w = theta.size, model.weights.size
    thetas = theta + GRADIENT_EPS * np.concatenate([np.eye(P), -np.eye(P)])  # each parameter up, then down
    weights = thetas[:, :n_w].reshape(2 * P, *model.weights.shape)
    scores = j.features @ weights.transpose(0, 2, 1) + thetas[:, None, n_w:]  # (2P, n_x, K)
    risks = (W * _loss_table(ls, scores)).sum(axis=(1, 2))
    numeric = (risks[:P] - risks[P:]) / (2.0 * GRADIENT_EPS)
    err = np.abs(numeric - analytic) / np.maximum(1.0, np.maximum(np.abs(numeric), np.abs(analytic)))
    return _report("gradient-check", inp.spec.name, {"loss": ls.name, "eps": GRADIENT_EPS},
                   err.max(), TOL_GRADIENT, seed, t0)


def separable_binary_joint(seed: int = 7) -> FiniteJoint:
    """Two well separated clusters of :data:`ERM_HALF` instances, one per
    class, equal mass per instance."""
    jitter = 0.3 * (philox_uniforms(seed, 777, 4 * ERM_HALF).reshape(2 * ERM_HALF, 2) - 0.5)
    feats = np.repeat([[1.0, 1.0], [-1.0, -1.0]], ERM_HALF, axis=0) + jitter
    return validate_joint(2, feats, np.repeat(np.eye(2), ERM_HALF, axis=1) / (2 * ERM_HALF))


def verify_erm_sanity(seed: int = 7) -> CheckReport:
    """A model trained on positive-unlabeled data matches the fully
    supervised one on at least :data:`ERM_AGREEMENT` of the instances."""
    t0 = time.perf_counter()
    j = separable_binary_joint(seed=seed)
    spec = PU()
    ds = sample_weak_dataset(spec, j, {"P": 2000, "U": 2000}, seed=seed + 3)
    cfg = TrainConfig(learning_rate=0.2, epochs=300, seed=seed)
    tables = np.stack([weight_table(ds, spec, j), j.joint.T])  # both models descend together
    (weak_model, _), (full_model, _) = _descend(tables, _LOGISTIC, cfg, j, ("empirical risk", "risk"))
    agree = float(np.mean(predictions(weak_model, j) == predictions(full_model, j)))
    # reported error is the agreement shortfall
    err = max(0.0, ERM_AGREEMENT - agree)
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


def _scenario_trial_inputs(cfg: VerifyConfig, table: dict, name: str, trial: int, K: int,
                           nx: int) -> CheckInput:
    """The input of a setting at a trial, built from the shared draws in
    ``table``: candidate joints by (K, stream), and models by K."""
    joints, models = (table.setdefault(key, {}) for key in _draw_keys(trial, K, nx))
    j = _first_admissible(name, K, trial, lambda K, stream: _memo(
        joints, (K, stream), lambda: random_joint(K, nx, cfg.d_feat, cfg.seed, stream)))
    model = _memo(models, j.K, lambda: seeded_model(j, cfg.seed, trial))
    return CheckInput(make_spec(name, j, cfg.seed, trial), j, model)


def _trial_shapes(cfg: VerifyConfig, trials) -> list:
    """The (trial, K, n_x) of each trial's input."""
    return [(t, 2 + t % min(4, cfg.K - 1), 3 + t % 6) for t in trials]


_SETTINGS = ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES
_ONCE = ("",)  # the settings of a task that names none
_NO_INPUT = lambda cfg: ()
_EVERY_TRIAL = lambda cfg: _trial_shapes(cfg, range(cfg.trials))
_FIRST_FIVE = lambda cfg: _trial_shapes(cfg, range(min(5, cfg.trials)))

# The registry, one row per kind of task in report order: (task-name
# template, settings, reads, check).  A row gives one task per setting,
# named by the template formatted with the setting's entry, a name or a
# (name, method) pair.  ``reads(cfg)`` lists the (trial, K, n_x) shapes of
# the inputs each task reads.  A check that reads inputs is called as
# check(cfg, inp, *rest) on each :class:`CheckInput`, where rest is the
# entry after the name, and its task reports the worst; one that reads
# none, as check(cfg).
_REGISTRY = (
    ("formulation:{}", _SETTINGS, _FIRST_FIVE, lambda cfg, inp: verify_formulation(inp, seed=cfg.seed)),
    # each record's default method, and for CL and MCL also the exact inverse
    ("reconstruction:{}:{}",
     tuple((name, method) for name in _SETTINGS
           for method in (SCENARIO_TYPES[name].method, EXACT_INVERSE.get(name)) if method),
     _FIRST_FIVE,
     lambda cfg, inp, method: verify_reconstruction(inp, method=method, seed=cfg.seed)),
    ("risk-equality:{}", _SETTINGS, _EVERY_TRIAL, lambda cfg, inp: verify_risk_equality(inp, seed=cfg.seed)),
    ("closed-form:{}", tuple(n for n in ALL_SCENARIO_NAMES if n not in EXACT_INVERSE), _FIRST_FIVE,
     lambda cfg, inp: verify_closed_form(inp, _LOGISTIC, seed=cfg.seed)),
    ("reduction-graph", _ONCE, _NO_INPUT, lambda cfg: verify_reduction_graph(
        random_joint(cfg.K, cfg.nx, cfg.d_feat, cfg.seed, 21), seed=cfg.seed)),
    ("worked-example", _ONCE, _NO_INPUT, lambda cfg: verify_worked_example(seed=cfg.seed)),
    # scenario_joint's first draw for trial 5 (stream 5011), not held to SU's
    # prior-gap rule: the pair laws need no gap, and at large n_x few draws have one
    ("pair-checks", _ONCE, _NO_INPUT, lambda cfg: verify_pair_symmetry(
        random_joint(2, cfg.nx, cfg.d_feat, cfg.seed, 5011), seed=cfg.seed)),
    ("pcpl-half-identity", ("PCPL",), lambda cfg: _trial_shapes(cfg, (2,)),
     lambda cfg, inp: verify_pcpl_half_identity(inp, _LOGISTIC, seed=cfg.seed)),
    ("mcl-block-inverse", _ONCE, _NO_INPUT, lambda cfg: verify_mcl_blocks(seed=cfg.seed)),
    ("method-agreement:{}", tuple(EXACT_INVERSE), lambda cfg: _trial_shapes(cfg, (4,)),
     lambda cfg, inp: verify_method_agreement(inp, _LOGISTIC, seed=cfg.seed)),
    ("mc-consistency:{}", ("PU", "CL", "Soft"), lambda cfg: [(MC_TRIAL, cfg.K, cfg.nx)], _mc_consistency),
    # 40 draws per sampling channel
    ("gradient-check:{}", ALL_SCENARIO_NAMES, lambda cfg: _trial_shapes(cfg, (3,)),
     lambda cfg, inp: verify_gradient_check(inp, sample_weak_dataset(inp.spec, inp.j, 40, cfg.seed + 5),
                                            _LOGISTIC, seed=cfg.seed)),
    ("erm-sanity", _ONCE, _NO_INPUT, lambda cfg: verify_erm_sanity(seed=cfg.seed)),
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
                    return check(cfg)
                return _worst([check(cfg, _memo(table, key, lambda: _scenario_trial_inputs(cfg, table, *key)),
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
        shapes = reads(cfg)
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

"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines.
"""

import time

import numpy as np

from wslrr.core import marginals, validate_joint
from wslrr.datagen import sample_weak_dataset
from wslrr.decontam import (
    METHOD_MARGINAL_CHAIN,
    METHOD_MCL_BLOCKWISE,
    decontaminate,
    mcl_block,
    mcl_block_inverse,
)
from wslrr.risk import (
    LossSpec,
    classification_risk,
    closed_form_corrected_loss,
    loss_matrix,
    rewritten_risk,
)
from wslrr.scenarios import (
    CL,
    compound_label_space,
    observed_distribution,
)
from wslrr.verify import (
    ALL_SCENARIO_NAMES,
    CheckInput,
    VerifyConfig,
    build_registry,
    make_spec,
    scenario_joint,
    seeded_model,
    verify_erm_sanity,
    verify_gradient_check,
    verify_mc_consistency,
    verify_worked_example,
    verify_pair_symmetry,
    verify_pcpl_half_identity,
    verify_reconstruction,
    verify_reduction_graph,
)

CFG = VerifyConfig(K=5, nx=8, trials=20, seed=7)
# the (setting, method) reconstructions and the closed-form settings, as the harness lists them
TASKS = [task.split(":") for task, _ in build_registry(CFG)]
RECONSTRUCTIONS = [(t[1], t[2]) for t in TASKS if t[0] == "reconstruction" and t[1] in ALL_SCENARIO_NAMES]
CLOSED_FORM_NAMES = [t[1] for t in TASKS if t[0] == "closed-form"]
LOGISTIC = LossSpec("logistic")
SQUARED = LossSpec("squared")


def _trial_inputs(name, trial):
    """The harness's (spec, joint, model) of a setting at a trial, drawn
    afresh: trial t reads a joint of 2 + t % min(4, K - 1) classes and
    3 + t % 6 instances."""
    j = scenario_joint(name, 2 + trial % min(4, CFG.K - 1), 3 + trial % 6, CFG.d_feat, CFG.seed, trial)
    return make_spec(name, j, CFG.seed, trial), j, seeded_model(j, CFG.seed, trial)


def _line(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_criterion_01_risk_rewrite_equality():
    t0 = time.perf_counter()
    worst = 0.0
    for name in ALL_SCENARIO_NAMES:
        for trial in range(CFG.trials):
            spec, j, model = _trial_inputs(name, trial)
            exact = classification_risk(j, model, LOGISTIC)
            rewritten = rewritten_risk(spec, j, model, LOGISTIC)
            worst = max(worst, abs(rewritten - exact))
    elapsed = time.perf_counter() - t0
    _line(1, worst <= 1e-10 and elapsed < 10.0,
          f"15 scenarios x 20 joints, max |rewritten - exact| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_reconstruction_every_method():
    worst = 0.0
    for name, method in RECONSTRUCTIONS:
        for trial in range(5):
            spec, j, model = _trial_inputs(name, trial)
            rep = verify_reconstruction(CheckInput(spec, j, model), tol=1e-12, method=method, seed=CFG.seed)
            assert rep.passed, (name, method, rep.params)
            worst = max(worst, rep.max_abs_err)
    _line(2, worst <= 1e-12, f"all scenario/method reconstructions, max err = {worst:.2e}")


def test_criterion_03_worked_example():
    j4 = validate_joint(4, [[0.0]], np.full((4, 1), 0.25))
    mat = observed_distribution(CL(), j4).matrix[0]
    exact_entries = set(np.unique(mat)) == {0.0, 1.0 / 3.0}
    inv = mcl_block_inverse(4, 1)
    exact_inverse = set(np.unique(inv)) == {-2.0, 1.0}
    rep = verify_worked_example(seed=CFG.seed)
    _line(3, exact_entries and exact_inverse and rep.passed and rep.max_abs_err <= 1e-14,
          f"matrix entries exact, reconstruction err = {rep.max_abs_err:.2e}")


def test_criterion_04_mcl_combinatorics():
    worst = 0.0
    for K in range(2, 7):
        for d in range(1, K):
            prod = mcl_block_inverse(K, d) @ mcl_block(K, d)
            worst = max(worst, float(np.max(np.abs(prod - np.eye(K)))))
    spec, j, model = _trial_inputs("MCL", 6)
    a = rewritten_risk(spec, j, model, LOGISTIC, method=METHOD_MCL_BLOCKWISE)
    b = rewritten_risk(spec, j, model, LOGISTIC, method=METHOD_MARGINAL_CHAIN)
    _line(4, worst <= 1e-12 and abs(a - b) <= 1e-10,
          f"block inverses K<=6 err = {worst:.2e}, method gap = {abs(a - b):.2e}")


def test_criterion_05_pcpl_half_identity_and_ppl_closed_form():
    spec, j, model = _trial_inputs("PCPL", 3)
    rep = verify_pcpl_half_identity(CheckInput(spec, j, model), LOGISTIC, seed=CFG.seed)

    pspec, pj, _ = _trial_inputs("PPL", 4)
    m = marginals(pj)
    dr = decontaminate(pspec, pj, method=METHOD_MARGINAL_CHAIN)
    space = compound_label_space(pj.K)
    worst = 0.0
    for i in range(pj.n_x):
        r = m.class_probabilities[:, i]
        closed = np.zeros((pj.K, len(space)))
        for jdx, s in enumerate(space):
            members = [c - 1 for c in s]
            closed[members, jdx] = r[members] / r[members].sum()
        worst = max(worst, float(np.max(np.abs(closed - dr.matrices[i]))))
    _line(5, rep.passed and rep.tol == 1e-12 and worst <= 1e-14,
          f"half-identity err = {rep.max_abs_err:.2e}, closed-form matrix err = {worst:.2e}")


def test_criterion_06_reduction_graph():
    from wslrr.verify import random_joint

    j = random_joint(CFG.K, CFG.nx, CFG.d_feat, CFG.seed, 21)
    reports = verify_reduction_graph(j, seed=CFG.seed)
    worst = max(r.max_abs_err for r in reports)
    _line(6, all(r.passed and r.tol == 1e-15 for r in reports),
          f"{len(reports)} edges verified, max err = {worst:.2e}")


def test_criterion_07_pair_symmetry_and_marginals():
    j = scenario_joint("SU", 2, CFG.nx, CFG.d_feat, CFG.seed, 5)
    reports = verify_pair_symmetry(j, seed=CFG.seed)  # over ten seeded functions
    worst = max(r.max_abs_err for r in reports)
    _line(7, all(r.passed and r.tol == 1e-12 for r in reports),
          f"S/D symmetry + Pcomp marginals, max err = {worst:.2e}")


def test_criterion_08_closed_forms_match_generic():
    worst = 0.0
    for name in CLOSED_FORM_NAMES:
        spec, j, model = _trial_inputs(name, 1)
        m = marginals(j)
        lam = loss_matrix(LOGISTIC, model, j)
        if name == "Sconf":
            dr = decontaminate(spec, j)
            for i in range(j.n_x):
                for i2 in range(j.n_x):
                    closed = closed_form_corrected_loss(spec, m, i, lam[:, i], i2=i2)
                    generic = lam[:, i] @ dr.pair_matrices[i, i2]
                    worst = max(worst, float(np.max(np.abs(closed - generic))))
            continue
        dr = decontaminate(spec, j)
        for i in range(j.n_x):
            closed = closed_form_corrected_loss(spec, m, i, lam[:, i])
            generic = lam[:, i] @ dr.matrices[i]
            worst = max(worst, float(np.max(np.abs(closed - generic))))
    _line(8, worst <= 1e-12, f"13 scenarios, max entrywise gap = {worst:.2e}")


def test_criterion_09_monte_carlo_consistency():
    details = []
    ok = True
    for name in ("PU", "CL", "Soft"):
        rep = verify_mc_consistency(name, CFG)
        ok = ok and rep.passed and rep.name == "mc-consistency[n=100000]" and rep.params["rerun_identical"]
        details.append(f"{name}: |err|={rep.max_abs_err:.1e} <= 5se={rep.tol:.1e}")
    _line(9, ok, "; ".join(details))


def test_criterion_10_gradient_checks():
    worst = 0.0
    for name in ALL_SCENARIO_NAMES:
        for ls in (LOGISTIC, SQUARED):
            spec, j, model = _trial_inputs(name, 3)
            ds = sample_weak_dataset(spec, j, 40, seed=CFG.seed + 5)
            rep = verify_gradient_check(CheckInput(spec, j, model), ds, ls, seed=CFG.seed)
            assert rep.passed and rep.tol == 1e-5, (name, ls.name, rep.max_abs_err)
            worst = max(worst, rep.max_abs_err)
    _line(10, worst <= 1e-5,
          f"analytic vs central differences over all scenarios, max rel err = {worst:.2e}")


def test_criterion_11_erm_sanity():
    rep = verify_erm_sanity(seed=CFG.seed)
    _line(11, rep.passed, f"weak/supervised argmax agreement = {rep.params['agreement']:.3f}")


def test_criterion_12_verify_all_under_budget(default_report):
    report, elapsed = default_report
    n_pass = sum(c.passed for c in report.checks)
    _line(12, report.passed and elapsed < 60.0,
          f"{n_pass}/{len(report.checks)} checks pass in {elapsed:.1f}s")

"""Batched instance-axis kernels against the per-instance public functions.

The whole-joint operations build every instance in one numpy pass; the
per-instance functions are single-instance calls of the same kernels.
These tests check that instance i of a batch is the per-instance result,
that every decontamination still reconstructs the joint, that the typed
errors are unchanged, and that validation runs a constant number of times
per call whatever the instance count.
"""

import numpy as np
import pytest

import wslrr.decontam
import wslrr.scenarios
from wslrr.core import marginals, validate_joint
from wslrr.decontam import (
    _invert_stack,
    conf_diagonal_inverse,
    decontaminate,
    decontaminate_inversion,
    decontaminate_marginal_chain,
    invert_square,
    mcl_inverse,
    sconf_decontamination,
)
from wslrr.errors import DegenerateParams, Singular, ZeroConfidence, ZeroPairMass
from wslrr.risk import LOSS_NAMES, LossSpec, classification_risk, loss_matrix, loss_vector, rewritten_risk
from wslrr.scenarios import (
    CCN,
    SCConf,
    Sconf,
    Soft,
    contamination_matrix,
    observed_distribution,
    sconf_confidence,
    transform_matrix,
)
from wslrr.verify import (
    ABSTRACT_SCENARIO_NAMES,
    ALL_SCENARIO_NAMES,
    _reconstruction_methods,
    make_spec,
    random_joint,
    scenario_joint,
    seeded_model,
)

NAMES = ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES
TOL_SAME = 1e-15
TOL_MATRIX = 1e-12
TOL_RISK = 1e-10


def _case(name, nx):
    j = scenario_joint(name, 4, nx, 3, seed=17, trial=nx)
    return make_spec(name, j, 17, nx), j


def _methods(name):
    extra = {"CCN": ("inversion",), "Pconf": ("inversion",), "SCConf": ("inversion",),
             "SubConf": ("inversion",), "Soft": ("inversion",)}
    return _reconstruction_methods(name) + extra.get(name, ())


def _gauss_jordan_loop(a):
    """The per-instance partial-pivot elimination, one matrix at a time."""
    n = a.shape[0]
    scale = np.max(np.abs(a), axis=1)
    work = a / scale[:, None]
    inv = np.eye(n) / scale[:, None]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(work[col:, col])))
        if pivot != col:
            work[[col, pivot]] = work[[pivot, col]]
            inv[[col, pivot]] = inv[[pivot, col]]
        p = work[col, col]
        work[col] /= p
        inv[col] /= p
        for r in range(n):
            if r != col and work[r, col] != 0.0:
                f = work[r, col]
                work[r] -= f * work[col]
                inv[r] -= f * inv[col]
    return inv


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("nx", [1, 5, 23])
def test_batched_contamination_matches_per_instance(name, nx):
    spec, j = _case(name, nx)
    m = marginals(j)
    cm = observed_distribution(spec, j)
    if spec.family == "Sconf-pairwise":
        for i in range(nx):
            for i2 in range(nx):
                assert np.max(np.abs(cm.pair_matrix[i, i2] - contamination_matrix(spec, m, i, i2))) <= TOL_SAME
                assert abs(cm.pair_confidence[i, i2] - sconf_confidence(j, i, i2)) <= TOL_SAME
        return
    mats = np.stack([contamination_matrix(spec, m, i) for i in range(nx)])
    trsf = np.stack([transform_matrix(spec, m, i) for i in range(nx)])
    assert np.max(np.abs(cm.matrix - mats)) <= TOL_SAME
    assert np.max(np.abs(cm.transform - trsf)) <= TOL_SAME
    for i in range(nx):
        assert np.max(np.abs(mats[i] @ trsf[i] @ j.joint[:, i] - cm.observed[i])) <= TOL_MATRIX


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("nx", [1, 5, 23])
def test_batched_decontamination_matches_per_instance(name, nx):
    spec, j = _case(name, nx)
    m = marginals(j)
    cm = observed_distribution(spec, j)
    for method in _methods(name):
        dr = decontaminate(spec, j, method=method)
        if method == "sconf-special":
            pi_p = float(m.priors[0])
            inv_prior = np.diag(1.0 / m.priors)
            for i in range(nx):
                acc = np.zeros((2, 2))
                for i2 in range(nx):
                    one = sconf_decontamination(pi_p, sconf_confidence(j, i, i2))
                    assert np.max(np.abs(dr.pair_matrices[i, i2] - one)) <= TOL_SAME
                    acc += dr.pair_matrices[i, i2] @ inv_prior @ cm.pair_matrix[i, i2]
                assert np.max(np.abs(acc - np.eye(2))) <= TOL_MATRIX
            continue
        per_instance = {
            "inversion": lambda i: decontaminate_inversion(cm, i),
            "marginal-chain": lambda i: decontaminate_marginal_chain(spec, j, i),
            "conf-diagonal": lambda i: conf_diagonal_inverse(spec, m, i),
            "mcl-blockwise": lambda i: mcl_inverse(spec, j.K),
        }[method]
        for i in range(nx):
            assert np.max(np.abs(dr.matrices[i] - per_instance(i))) <= TOL_SAME, method
            rec = dr.matrices[i] @ cm.observed[i]
            assert np.max(np.abs(rec - j.joint[:, i])) <= TOL_MATRIX, method


@pytest.mark.parametrize("name", NAMES)
def test_loss_table_and_rewritten_risk(name):
    spec, j = _case(name, 9)
    model = seeded_model(j, 17, 2)
    for loss in LOSS_NAMES:
        ls = LossSpec(loss)
        lam = loss_matrix(ls, model, j)
        scores = j.features @ model.weights.T + model.bias
        rows = np.stack([loss_vector(ls, scores[i]) for i in range(j.n_x)], axis=1)
        assert np.max(np.abs(lam - rows)) <= TOL_SAME
        exact = classification_risk(j, model, ls)
        for method in _methods(name):
            assert abs(rewritten_risk(spec, j, model, ls, method=method) - exact) <= TOL_RISK


@pytest.mark.parametrize("k", [2, 3, 5])
def test_inverse_stack_matches_the_loop(k):
    rng = np.random.default_rng(k)
    a = rng.normal(size=(40, k, k))
    a[::3] = a[::3][:, ::-1]  # rows reversed: the pivots differ between instances
    inv = _invert_stack(a)
    for i in range(a.shape[0]):
        assert np.array_equal(inv[i], invert_square(a[i]))
        if k > 2:
            assert np.array_equal(inv[i], _gauss_jordan_loop(a[i]))
        assert np.max(np.abs(inv[i] @ a[i] - np.eye(k))) <= TOL_MATRIX


def test_singular_instance_in_a_stack():
    a = np.tile(np.eye(3), (6, 1, 1))
    a[4] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]
    with pytest.raises(Singular):
        _invert_stack(a)
    j = random_joint(2, 6, 3, seed=3, stream=0)
    flip = np.tile([[0.8, 0.1], [0.2, 0.9]], (6, 1, 1))
    flip[3] = [[0.5, 0.5], [0.5, 0.5]]
    with pytest.raises(Singular):
        decontaminate(CCN(flip=flip), j, method="inversion")
    # the marginal chain needs no invertibility
    decontaminate(CCN(flip=flip), j, method="marginal-chain")


def test_zero_confidence_names_the_first_instance():
    joint = np.array([[0.1, 0.1, 0.0, 0.2, 0.0],
                      [0.1, 0.1, 0.2, 0.1, 0.1]])
    j = validate_joint(2, np.zeros((5, 1)), joint)
    with pytest.raises(ZeroConfidence, match="instance 2 "):
        observed_distribution(Soft(), j)
    with pytest.raises(ZeroConfidence, match="instance 2$"):
        decontaminate(SCConf(y_s=1), j, method="conf-diagonal")
    with pytest.raises(ZeroConfidence, match="instance 4$"):
        conf_diagonal_inverse(SCConf(y_s=1), marginals(j), 4)


def test_sconf_prior_coincidence_is_degenerate():
    # x_0 is purely positive and P(+ | x_1) equals the positive prior, so the
    # pair confidence r(x_0, x_1) coincides with the prior
    joint = np.array([[0.2, 0.3, 0.1], [0.0, 0.2, 0.2]])
    j = validate_joint(2, np.zeros((3, 1)), joint)
    m = marginals(j)
    for call in (lambda: observed_distribution(Sconf(), j),
                 lambda: decontaminate(Sconf(), j),
                 lambda: contamination_matrix(Sconf(), m, 0, 1)):
        with pytest.raises(DegenerateParams):
            call()
    contamination_matrix(Sconf(), m, 0, 2)


def test_sconf_zero_pair_mass():
    joint = np.array([[0.3, 1e-170, 0.3], [0.2, 0.0, 0.2]])
    j = validate_joint(2, np.zeros((3, 1)), joint)
    with pytest.raises(ZeroPairMass, match=r"pair \(1, 1\)"):
        observed_distribution(Sconf(), j)
    with pytest.raises(ZeroPairMass):
        sconf_confidence(j, 1, 1)


@pytest.mark.parametrize("name", ["GCCN", "CCN", "PPL", "Soft", "PU", "Sconf"])
def test_validation_runs_a_constant_number_of_times(name, monkeypatch):
    calls = []
    real = wslrr.scenarios.validate_spec

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(wslrr.scenarios, "validate_spec", counting)
    monkeypatch.setattr(wslrr.decontam, "validate_spec", counting)
    counts = []
    for nx in (4, 12):
        spec, j = _case(name, nx)
        per_call = []
        for method in ("auto",) + _methods(name):
            calls.clear()
            decontaminate(spec, j, method=method)
            per_call.append(len(calls))
        calls.clear()
        observed_distribution(spec, j)
        per_call.append(len(calls))
        counts.append(per_call)
    assert counts[0] == counts[1]
    assert max(counts[0]) <= 2

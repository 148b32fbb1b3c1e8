import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wslrr.core
import wslrr.risk
import wslrr.scenarios
from wslrr.core import marginals, validate_joint
from wslrr.datagen import DatasetChannel, WeakDataset, philox_uniforms, sample_weak_dataset
from wslrr.decontam import (
    METHOD_DIAGONAL,
    METHOD_INVERSION,
    METHOD_MARGINAL_CHAIN,
    METHOD_MCL_BLOCKWISE,
    METHOD_SCONF,
    decontaminate,
)
from wslrr.errors import (
    DegenerateParams,
    EmptyChannel,
    NonDifferentiableLoss,
    NonFiniteConfidence,
    NonFiniteScore,
    NonSquare,
    ShapeMismatch,
    SpecMismatch,
    UnsupportedScenario,
    ValidationError,
    WrongFamily,
    ZeroConfidence,
)
from wslrr.risk import (
    LossSpec,
    channel_terms,
    classification_risk,
    closed_form_corrected_loss,
    empirical_risk,
    loss_matrix,
    rewrite_table,
    rewritten_risk,
    score_matrix,
    weight_table,
    weighted_loss,
    _loss_parts,
    _loss_table,
)
from wslrr.scenarios import (
    CCN,
    CL,
    DU,
    FAMILY_CCN,
    FAMILY_CONF,
    FAMILY_MCD,
    FAMILY_SCONF,
    PRIOR_GAP_TOL,
    PU,
    SCENARIO_TYPES,
    SD,
    SU,
    Pcomp,
    SCConf,
    Sconf,
    Soft,
    UU,
    observed_distribution,
)
from wslrr.train import LinearModel, init_model
from wslrr.verify import (
    ABSTRACT_SCENARIO_NAMES,
    ALL_SCENARIO_NAMES,
    TOL_MATRIX,
    make_spec,
    random_joint,
    scenario_joint,
    seeded_model,
)

LOGISTIC = LossSpec("logistic")
SQUARED = LossSpec("squared")
ZERO_ONE = LossSpec("zero-one")
METHODS = ("auto", METHOD_INVERSION, METHOD_MARGINAL_CHAIN, METHOD_MCL_BLOCKWISE, METHOD_DIAGONAL,
           METHOD_SCONF)


def _at_scores(g):
    """A one-instance joint and a model whose scores there are ``g``."""
    K = len(g)
    j = validate_joint(K, [[0.0]], np.full((K, 1), 1.0 / K))
    return j, LinearModel(weights=np.zeros((K, 1)), bias=np.asarray(g, dtype=np.float64))


def _losses(ls, g):
    """Entry k is the loss at the scores ``g`` when the true class is k+1."""
    j, model = _at_scores(g)
    return loss_matrix(ls, model, j)[:, 0]


def _loss_gradients(ls, g):
    """Row k is the gradient of loss entry k in the scores: the bias gradient
    of the weighted loss whose only weight is class k."""
    j, model = _at_scores(g)
    return np.array([weighted_loss(e[None, :], model, ls, j, grad=True)[2] for e in np.eye(len(g))])


class TestLosses:
    def test_zero_one(self):
        assert np.array_equal(_losses(ZERO_ONE, [2.0, 1.0]), [0.0, 1.0])

    def test_zero_one_tie_breaks_low(self):
        assert np.array_equal(_losses(ZERO_ONE, [1.0, 1.0, 1.0]), [0.0, 1.0, 1.0])

    def test_logistic_at_zero_margin(self):
        # each one-vs-all term contributes ln 2
        L = _losses(LOGISTIC, [0.0, 0.0])
        assert np.allclose(L, 2.0 * math.log(2.0), atol=1e-15)

    def test_squared_componentwise(self):
        g = np.array([0.2, -0.1, 0.4])
        L = _losses(SQUARED, g)
        for k in range(3):
            target = np.zeros(3)
            target[k] = 1.0
            assert L[k] == pytest.approx(float(((g - target) ** 2).sum()), abs=1e-15)

    def test_non_finite_scores(self):
        with pytest.raises(NonFiniteScore):
            _losses(LOGISTIC, [np.inf, 0.0])

    def test_zero_one_has_no_gradient(self):
        with pytest.raises(NonDifferentiableLoss):
            _loss_parts(ZERO_ONE, np.array([[0.1, 0.2]]), slope=True)
        with pytest.raises(NonDifferentiableLoss):
            _loss_gradients(ZERO_ONE, [0.1, 0.2])

    @pytest.mark.parametrize("ls", (LOGISTIC, SQUARED))
    def test_gradients_match_finite_differences(self, ls):
        g = np.array([0.3, -0.7, 0.2])
        grads = _loss_gradients(ls, g)
        eps = 1e-6
        for k in range(3):
            for jdx in range(3):
                up, down = g.copy(), g.copy()
                up[jdx] += eps
                down[jdx] -= eps
                numeric = (_losses(ls, up)[k] - _losses(ls, down)[k]) / (2 * eps)
                assert grads[k, jdx] == pytest.approx(numeric, abs=1e-8)


def _softplus_reference(x):
    with np.errstate(over="ignore"):
        return np.log1p(np.exp(x))


def _logistic_table_reference(g):
    """The logistic table as two softplus passes: log1p(exp(g)) and log1p(exp(-g))."""
    with np.errstate(invalid="ignore"):
        sp, sm = _softplus_reference(g), _softplus_reference(-g)
        return sp.sum(axis=1, keepdims=True) - sp + sm


def _sigmoid_reference(x):
    """The sigmoid on boolean-masked halves, each exponential taken where it
    cannot overflow."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLogisticFromOneExponentialPair:
    """The logistic table and slope share exp(g) and exp(-g); they must be the
    bits of the two-softplus table and the masked sigmoid."""

    SCALES = (1e-3, 1.0, 30.0, 720.0)  # the last overflows exp in both signs

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("shape", [(1, 2), (6, 4), (40, 5), (1000, 3)])
    def test_table_and_slope_bits(self, shape, scale):
        u = philox_uniforms(3, shape[0] * 10 + shape[1], math.prod(shape)).reshape(shape)
        g = scale * (2.0 * u - 1.0)
        g[0, 0] = 0.0  # the sigmoid's branch point
        assert _same_bits(_loss_table(LOGISTIC, g), _logistic_table_reference(g))
        _, base, scale_out = _loss_parts(LOGISTIC, g, slope=True)
        assert _same_bits(base, _sigmoid_reference(g)) and scale_out == 1.0

    def test_overflowed_scores_give_a_non_finite_table_and_a_finite_slope(self):
        # the overflow reaches the table (inf, or inf - inf), where training sees it
        g = np.array([[800.0, -800.0, 0.0]])
        table = _loss_table(LOGISTIC, g)
        assert _same_bits(table, _logistic_table_reference(g)) and not np.isfinite(table).any()
        assert _same_bits(_loss_parts(LOGISTIC, g, slope=True)[1], np.array([[1.0, 0.0, 0.5]]))

    @pytest.mark.parametrize("ls", (ZERO_ONE, LOGISTIC, SQUARED))
    def test_a_stack_of_score_tables_is_each_table(self, ls):
        g = 4.0 * philox_uniforms(4, 0, 7 * 6 * 4).reshape(7, 6, 4) - 2.0
        g[2, 3] = [0.5, 0.5, -1.0, 0.5]  # a zero-one tie
        stack = _loss_table(ls, g)
        assert all(_same_bits(stack[b], _loss_table(ls, g[b])) for b in range(7))

    def test_squared_table_bits(self):
        g = 4.0 * philox_uniforms(5, 0, 40 * 5).reshape(40, 5) - 2.0
        want = np.einsum("ik,ik->i", g, g)[:, None] - 2.0 * g + 1.0
        assert _same_bits(_loss_table(SQUARED, g), want)

    def test_weighted_loss_gradient_bits(self):
        j = scenario_joint("CL", 4, 7, 3, seed=5, trial=0)
        model = LinearModel(weights=40.0 * init_model(4, 3, 9).weights, bias=init_model(4, 3, 9).bias)
        W = j.joint.T.copy()
        value, dW, db = weighted_loss(W, model, LOGISTIC, j, grad=True)
        g = score_matrix(model, j)
        dscores = W.sum(axis=1)[:, None] * _sigmoid_reference(g) - W
        assert value == float(np.sum(W * _logistic_table_reference(g)))
        assert _same_bits(dW, dscores.T @ j.features) and _same_bits(db, dscores.sum(axis=0))

    @pytest.mark.parametrize("ls", (LOGISTIC, SQUARED))
    def test_scores_checked_once_per_call(self, ls, monkeypatch):
        calls = _count_calls(monkeypatch, wslrr.risk, "_check_scores")
        j = scenario_joint("PU", 2, 5, 3, seed=5, trial=0)
        weighted_loss(j.joint.T, init_model(2, 3, 1), ls, j, grad=True)
        assert len(calls) == 1


class TestCorrectedLosses:
    """The corrected losses at x_i: the loss vector times D(x_i)."""

    def test_pu_form(self, binary_joint):
        dr = decontaminate(PU(), binary_joint)
        pi_p = float(marginals(binary_joint).priors[0])
        L = np.array([0.8, 0.3])
        corr = L @ dr.matrices[0]
        assert corr[0] == pytest.approx(pi_p * L[0] - pi_p * L[1], abs=1e-12)
        assert corr[1] == pytest.approx(L[1], abs=1e-12)

    def test_uu_matches_closed_form(self, binary_joint):
        spec = UU(gamma_1=0.3, gamma_2=0.25)
        m = marginals(binary_joint)
        dr = decontaminate(spec, binary_joint)
        L = np.array([1.2, -0.4])
        for i in range(binary_joint.n_x):
            assert np.allclose(L @ dr.matrices[i], closed_form_corrected_loss(spec, m, i, L), atol=1e-12)

    def test_identity_decontamination_is_noop(self, binary_joint):
        # noise-free labels: the label channel is the identity at every x
        spec = CCN(flip=np.broadcast_to(np.eye(2), (binary_joint.n_x, 2, 2)))
        L = np.array([0.5, 1.0])
        for method in (METHOD_INVERSION, METHOD_MARGINAL_CHAIN):
            dr = decontaminate(spec, binary_joint, method=method)
            for i in range(binary_joint.n_x):
                assert np.array_equal(L @ dr.matrices[i], L)


class TestClassificationRisk:
    def test_perfect_zero_one_classifier(self):
        j = validate_joint(2, [[1.0, 0.0], [-1.0, 0.0]][:2], [[0.5, 0.0], [0.0, 0.5]])
        model = LinearModel(weights=np.array([[2.0, 0.0], [-2.0, 0.0]]), bias=np.zeros(2))
        assert classification_risk(j, model, ZERO_ONE) == 0.0

    def test_constant_prediction(self, binary_joint):
        model = LinearModel(weights=np.zeros((2, 3)), bias=np.array([1.0, 0.0]))
        pi_p = float(marginals(binary_joint).priors[0])
        assert classification_risk(binary_joint, model, ZERO_ONE) == pytest.approx(1.0 - pi_p, abs=1e-12)

    def test_logistic_matches_enumeration(self):
        j = random_joint(2, 3, 2, seed=5, stream=0)
        model = init_model(2, 2, seed=9)
        expect = 0.0
        for k in range(2):
            for i in range(3):
                g = model.weights @ j.features[i] + model.bias
                # one-vs-all: softplus(-g_k) plus softplus(g_c) over c != k
                loss = math.log1p(math.exp(-g[k])) + math.log1p(math.exp(g[1 - k]))
                expect += j.joint[k, i] * loss
        assert classification_risk(j, model, LOGISTIC) == pytest.approx(expect, abs=1e-14)


class TestRewrittenRisk:
    @pytest.mark.parametrize("name", ALL_SCENARIO_NAMES)
    def test_equals_exact_risk(self, name):
        j = scenario_joint(name, 4, 5, 3, seed=23, trial=0)
        spec = make_spec(name, j, 23, 0)
        model = seeded_model(j, 23, 0)
        exact = classification_risk(j, model, LOGISTIC)
        assert rewritten_risk(spec, j, model, LOGISTIC) == pytest.approx(exact, abs=1e-10)

    def test_identity_contamination_is_same_sum(self, binary_joint):
        spec = UU(gamma_1=0.0, gamma_2=0.0)
        model = seeded_model(binary_joint, 1, 1)
        exact = classification_risk(binary_joint, model, LOGISTIC)
        assert rewritten_risk(spec, binary_joint, model, LOGISTIC) == pytest.approx(exact, abs=1e-12)

    def test_cl_methods_agree(self, multi_joint):
        model = seeded_model(multi_joint, 2, 2)
        a = rewritten_risk(CL(), multi_joint, model, LOGISTIC, method=METHOD_INVERSION)
        b = rewritten_risk(CL(), multi_joint, model, LOGISTIC, method=METHOD_MARGINAL_CHAIN)
        assert a == pytest.approx(b, abs=1e-10)

    @pytest.mark.parametrize("name", ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES)
    def test_rewrite_table_is_the_joint(self, name):
        """D(x) . observed(x) is joint.T under every method the setting
        accepts, Sconf's pair fold included, so the zero-one rewritten risk
        is the exact one too."""
        for trial in range(4):
            j = scenario_joint(name, 4, 6, 2, seed=29, trial=trial)
            spec = make_spec(name, j, 29, trial)
            model = seeded_model(j, 29, trial)
            exact = classification_risk(j, model, ZERO_ONE)
            accepted = set()
            for method in METHODS:
                try:
                    table = rewrite_table(spec, j, method)
                except (WrongFamily, NonSquare):
                    continue
                accepted.add(method)
                assert np.max(np.abs(table - j.joint.T)) <= 1e-12, method
                assert abs(rewritten_risk(spec, j, model, ZERO_ONE, method=method) - exact) <= 1e-10, method
            assert {"auto", spec.method, spec.estimator} <= accepted

    @pytest.mark.parametrize("method", [m for m in METHODS if m not in ("auto", METHOD_SCONF)] + ["no-such"])
    def test_sconf_refuses_other_methods(self, method):
        j = scenario_joint("Sconf", 2, 5, 2, seed=3, trial=0)
        with pytest.raises(WrongFamily):
            rewritten_risk(Sconf(), j, seeded_model(j, 3, 0), LOGISTIC, method=method)


def _joint_with_prior_gap(gap, seed, n_x=5):
    """A dense binary joint whose positive prior is 1/2 + gap."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.05, 1.0, (2, n_x))
    u *= np.array([[0.5 + gap], [0.5 - gap]]) / u.sum(axis=1, keepdims=True)
    return validate_joint(2, rng.uniform(-1.0, 1.0, (n_x, 2)), u / u.sum())


PRIOR_GAP_SPECS = [SU(), DU(), SD(), Sconf()]


@pytest.mark.parametrize("spec", PRIOR_GAP_SPECS, ids=lambda s: s.name)
@pytest.mark.parametrize("gap", [1.5 * PRIOR_GAP_TOL, 1e-4, 1e-3, 1e-2])
def test_prior_gaps_above_the_gate_meet_the_risk_bar(spec, gap):
    for seed in range(5):
        j = _joint_with_prior_gap(gap, seed)
        model = init_model(2, 2, seed)
        for ls in (LOGISTIC, SQUARED):
            assert abs(rewritten_risk(spec, j, model, ls) - classification_risk(j, model, ls)) <= 1e-10


@pytest.mark.parametrize("spec", PRIOR_GAP_SPECS, ids=lambda s: s.name)
def test_prior_gap_below_the_gate_is_refused(spec):
    j = _joint_with_prior_gap(1e-6, 0)
    with pytest.raises(DegenerateParams):
        rewritten_risk(spec, j, init_model(2, 2, 0), LOGISTIC)


@st.composite
def _sparse_joints(draw, binary: bool):
    """K in 2..4 (2 for binary-only settings), n_x in 1..5, about 30% zero
    cells, every instance mass positive, the first prior at least 1e-3 from 1/2."""
    K = 2 if binary else draw(st.integers(2, 4))
    n_x = draw(st.integers(1, 5))
    cells = draw(st.lists(st.tuples(st.integers(0, 9), st.floats(0.01, 1.0)),
                          min_size=K * n_x, max_size=K * n_x))
    u = np.array([0.0 if z < 3 else v for z, v in cells]).reshape(K, n_x)
    keep = draw(st.lists(st.integers(0, K - 1), min_size=n_x, max_size=n_x))
    for i in np.flatnonzero(u.sum(axis=0) == 0.0):  # an empty column gets one cell back
        u[keep[i], i] = cells[keep[i] * n_x + i][1]
    u /= u.sum()
    assume(abs(u[0].sum() / u.sum() - 0.5) >= 1e-3)
    feats = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(-1.0, 1.0, (n_x, 2))
    return validate_joint(K, feats, u / u.sum())


@pytest.mark.parametrize("name", ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10_000))
def test_rewrite_is_exact_or_a_typed_error_on_sparse_joints(name, data, seed):
    """On joints with zero cells the rewrite either reproduces the exact risk
    or refuses the input with a ValidationError; never another exception, a
    NaN or a warning (warnings are errors in this suite)."""
    j = data.draw(_sparse_joints(SCENARIO_TYPES[name].binary_only))
    model = init_model(j.K, j.d_feat, seed)
    try:
        spec = make_spec(name, j, seed, 0)
        exact = classification_risk(j, model, LOGISTIC)
        rewritten = rewritten_risk(spec, j, model, LOGISTIC)
    except ValidationError:
        return
    assert math.isfinite(rewritten) and abs(rewritten - exact) <= 1e-10


class TestClosedForms:
    def test_pcomp(self, binary_joint):
        m = marginals(binary_joint)
        L = np.array([0.9, 0.4])
        out = closed_form_corrected_loss(Pcomp(), m, 0, L)
        pi_p, pi_n = m.priors
        assert np.allclose(out, [L[0] - pi_p * L[1], -pi_n * L[0] + L[1]], atol=1e-15)

    def test_cl_k3(self):
        j = random_joint(3, 4, 2, seed=8, stream=0)
        L = np.array([0.2, 0.5, 0.9])
        out = closed_form_corrected_loss(CL(), marginals(j), 0, L)
        assert np.allclose(out, L.sum() - 2.0 * L, atol=1e-15)

    def test_soft(self, multi_joint):
        m = marginals(multi_joint)
        L = np.array([1.0, 2.0, 3.0, 4.0])
        out = closed_form_corrected_loss(Soft(), m, 2, L)
        assert np.allclose(out, m.class_probabilities[:, 2] * L, atol=1e-15)

    @pytest.mark.parametrize("name", [n for n in ALL_SCENARIO_NAMES if n not in ("CL", "MCL", "Sconf")])
    def test_matches_generic_product(self, name):
        j = scenario_joint(name, 4, 5, 3, seed=31, trial=1)
        spec = make_spec(name, j, 31, 1)
        m = marginals(j)
        model = seeded_model(j, 31, 1)
        lam = loss_matrix(LOGISTIC, model, j)
        dr = decontaminate(spec, j)
        for i in range(j.n_x):
            closed = closed_form_corrected_loss(spec, m, i, lam[:, i])
            generic = lam[:, i] @ dr.matrices[i]
            assert np.max(np.abs(closed - generic)) <= 1e-12

    @pytest.mark.parametrize("trial", [0, 1, 2])
    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_mcl_matches_the_blockwise_inverse(self, K, trial):
        # the harness's closed-form tasks leave CL and MCL out, so only this reaches MCL's branch
        j = scenario_joint("MCL", K, 5, 3, 7, trial)
        spec = make_spec("MCL", j, 7, trial)
        lam = loss_matrix(LOGISTIC, seeded_model(j, 7, trial), j)
        dr = decontaminate(spec, j, METHOD_MCL_BLOCKWISE)
        for i in range(j.n_x):
            closed = closed_form_corrected_loss(spec, marginals(j), i, lam[:, i])
            assert np.max(np.abs(closed - lam[:, i] @ dr.matrices[i])) <= TOL_MATRIX

    def test_no_closed_form_for_gccn(self, multi_joint):
        spec = make_spec("GCCN", multi_joint, 1, 0)
        with pytest.raises(UnsupportedScenario):
            closed_form_corrected_loss(spec, marginals(multi_joint), 0, np.zeros(4))


class TestEmpiricalRisk:
    def test_pu_approaches_exact(self, binary_joint):
        spec = PU()
        model = seeded_model(binary_joint, 4, 0)
        ds = sample_weak_dataset(spec, binary_joint, 200_000, seed=12)
        exact = classification_risk(binary_joint, model, LOGISTIC)
        assert empirical_risk(ds, spec, model, LOGISTIC, binary_joint) == pytest.approx(exact, abs=0.02)

    def test_empty_channel(self, binary_joint):
        ds = sample_weak_dataset(PU(), binary_joint, {"P": 5, "U": 0}, seed=1)
        model = seeded_model(binary_joint, 4, 0)
        with pytest.raises(EmptyChannel):
            empirical_risk(ds, PU(), model, LOGISTIC, binary_joint)

    def test_label_stream_of_no_draws(self, multi_joint):
        ds = sample_weak_dataset(CL(), multi_joint, 0, seed=1)
        with pytest.raises(EmptyChannel, match="no draws in any label channel"):
            weight_table(ds, CL(), multi_joint)

    def test_confidences_of_another_class_count(self):
        ds = sample_weak_dataset(Soft(), scenario_joint("Soft", 3, 5, 3, 7, 0), 50, seed=1)
        with pytest.raises(ShapeMismatch, match="3 confidences per draw, not K=4"):
            channel_terms(ds, Soft(), scenario_joint("Soft", 4, 5, 3, 7, 0))

    def test_cl_estimator_shape(self, multi_joint):
        # mean over draws of (sum of losses minus (K-1) times the excluded loss)
        ds = sample_weak_dataset(CL(), multi_joint, 500, seed=3)
        model = seeded_model(multi_joint, 4, 0)
        lam = loss_matrix(LOGISTIC, model, multi_joint)
        manual = []
        for c, ch in enumerate(ds.channels):
            for i in ch.indices:
                manual.append(lam[:, i].sum() - 3.0 * lam[c, i])
        expected = float(np.mean(manual))
        assert empirical_risk(ds, CL(), model, LOGISTIC, multi_joint) == pytest.approx(expected, abs=1e-12)

    def test_spec_mismatch(self, binary_joint):
        ds = sample_weak_dataset(PU(), binary_joint, 10, seed=1)
        model = seeded_model(binary_joint, 4, 0)
        with pytest.raises(SpecMismatch):
            empirical_risk(ds, UU(gamma_1=0.1, gamma_2=0.1), model, LOGISTIC, binary_joint)

    @pytest.mark.parametrize("name", ALL_SCENARIO_NAMES)
    def test_unbiased_against_channel_masses(self, name):
        """Weighting each support point by its exact channel mass reproduces
        the exact risk, for every estimator family."""
        j = scenario_joint(name, 3, 4, 2, seed=41, trial=2)
        spec = make_spec(name, j, 41, 2)
        model = seeded_model(j, 41, 2)
        exact = classification_risk(j, model, LOGISTIC)
        est = _exact_expectation_of_estimator(spec, j, model)
        assert est == pytest.approx(exact, abs=1e-10)


def _per_draw(ds, conf) -> WeakDataset:
    """``ds`` with its one confidence channel rebuilt from the per-draw
    confidences ``conf``, one code per draw."""
    c = ds.channels[0]
    return WeakDataset(ds.spec, ds.seed, (DatasetChannel(c.label, c.kind, indices=c.indices, pairs=c.pairs,
                                                         table=conf, codes=np.arange(c.n_draws)),))


@pytest.mark.parametrize("name", ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES)
def test_channel_terms_match_reference_weights(name):
    """Every estimator entry carries the weight of an independent reference:
    the closed-form corrected losses of the unit loss vectors for the mixture
    family (column c of D), :func:`_weight_for` for the label channels, and
    the diagonal typed out below for Sconf and the confidence family, at
    stored confidences moved off the oracle values."""
    j = scenario_joint(name, 4, 5, 2, seed=43, trial=1)
    spec = make_spec(name, j, 43, 1)
    ds = sample_weak_dataset(spec, j, 60, seed=9)
    m, cm = marginals(j), observed_distribution(spec, j)
    idx, rows = [], []
    dag = np.array([closed_form_corrected_loss(spec, m, 0, e) for e in np.eye(2)]) \
        if spec.family == FAMILY_MCD else None
    if spec.family == FAMILY_SCONF:  # each instance of a pair carries half the pair diagonal
        r = 0.5 * ds.channels[0].confidences + 0.25
        ds = _per_draw(ds, r)
        ch = ds.channels[0]
        pi_p, pi_n = m.priors
        half = np.column_stack([(r - pi_n) / (pi_p - pi_n) / 2.0, (pi_p - r) / (pi_p - pi_n) / 2.0])
        idx, rows = [ch.pairs[:, 0], ch.pairs[:, 1]], [half, half]
    elif spec.family == FAMILY_CONF:  # the super-class prior times r / r_sel
        c = np.sqrt(ds.channels[0].confidences)
        c = c / c.sum(axis=1, keepdims=True)
        ds = _per_draw(ds, c)
        ch = ds.channels[0]
        members = _members(spec)
        coeff = sum(m.priors[k] for k in members) if members else 1.0
        den = sum(c[:, k] for k in members) if members else 1.0
        idx, rows = [ch.indices], [coeff * (c / np.reshape(den, (-1, 1)))]
    elif spec.name == "Pcomp":  # the first instance of a pair is a Sup draw, the second an Inf draw
        pairs = ds.channels[0].pairs
        idx, rows = [pairs[:, 0], pairs[:, 1]], [[dag[:, 0]] * len(pairs), [dag[:, 1]] * len(pairs)]
    else:
        for c, ch in enumerate(ds.channels):
            if dag is None:
                idx.append(ch.indices)
                rows.append([_weight_for(spec, j, m, cm, c, i) for i in ch.indices])
            elif ch.pairs is not None:  # each instance of a pair carries half the weight
                idx += [ch.pairs[:, 0], ch.pairs[:, 1]]
                rows.append([dag[:, c] / 2.0] * 2 * ch.n_draws)
            else:
                idx.append(ch.indices)
                rows.append([dag[:, c]] * ch.n_draws)
    expected = np.vstack([np.reshape(r, (-1, j.K)) for r in rows])
    terms = channel_terms(ds, spec, j)
    assert np.array_equal(np.concatenate([t.idx for t in terms]), np.concatenate(idx))
    weights = np.vstack([t.table if t.rows is None else np.take(t.table, t.rows, axis=0) for t in terms])
    # two formulas of a 2x2 inverse D differ by about eps * cond * |D|, with cond ~ |D|,
    # so the mixture bar scales with |D|^2 (SU here: 6.2e-15 on entries of 4.3)
    scale = max(1.0, float(np.max(np.abs(expected)))) ** 2 if spec.family == FAMILY_MCD else 1.0
    assert np.max(np.abs(weights - expected)) <= 1e-15 * scale


@pytest.mark.parametrize("name", ["CL", "MCL", "CCN", "GCCN", "PPL", "PCPL"])
def test_label_stream_weights_are_columns_of_the_estimator_decontamination(name):
    """Draw e of label channel c at x carries D(x)[:, c], gathered from the
    (n_x * m, K) table of columns: the values and the C layout of
    ``D[idx, :, chan]``."""
    j = scenario_joint(name, 4, 6, 2, seed=43, trial=2)
    spec = make_spec(name, j, 43, 2)
    ds = sample_weak_dataset(spec, j, 500, seed=9)
    dag = decontaminate(spec, j, spec.estimator).matrices
    idx = np.concatenate([c.indices for c in ds.channels])
    chan = np.repeat(np.arange(len(ds.channels)), [c.n_draws for c in ds.channels])
    (terms,) = channel_terms(ds, spec, j)
    want = dag[idx, :, chan]
    assert np.array_equal(terms.idx, idx)
    weights = np.take(terms.table, terms.rows, axis=0)
    assert _same_bits(weights, want) and weights.strides == want.strides


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["Soft", "SubConf", "Sconf"])
def test_non_finite_stored_confidence_is_refused(name, value):
    j = scenario_joint(name, 3, 5, 2, seed=43, trial=0)
    spec = make_spec(name, j, 43, 0)
    ds = sample_weak_dataset(spec, j, 30, seed=9)
    conf = ds.channels[0].confidences.copy()
    conf[7] = value
    ds = _per_draw(ds, conf)
    with pytest.raises(NonFiniteConfidence, match="NaN or infinite"):
        channel_terms(ds, spec, j)


def test_zero_stored_superclass_confidence_names_the_draw():
    j = scenario_joint("SCConf", 3, 5, 2, seed=43, trial=0)
    spec = SCConf(y_s=1)
    ds = sample_weak_dataset(spec, j, 30, seed=9)
    conf = ds.channels[0].confidences.copy()
    conf[7] = [0.0, 0.5, 0.5]
    ds = _per_draw(ds, conf)
    ch = ds.channels[0]
    with pytest.raises(ZeroConfidence, match=f"instance {ch.indices[7]}$"):
        empirical_risk(ds, spec, seeded_model(j, 43, 0), LOGISTIC, j)


def _exact_expectation_of_estimator(spec, j, model):
    """Exact expectation of the per-draw estimator terms (population version
    of empirical_risk), built from the channel laws themselves and from the
    hand-coded corrected losses, not from the estimator's own weights."""
    from wslrr.scenarios import FAMILY_SCONF
    from wslrr.scenarios import pair_distribution as pd

    lam = loss_matrix(LOGISTIC, model, j)
    m = marginals(j)
    cm = observed_distribution(spec, j)

    if spec.family == FAMILY_SCONF:
        return rewritten_risk(spec, j, model, LOGISTIC)

    if spec.family == FAMILY_MCD:
        # population mean per channel: channel density times draw value, where
        # corr[:, c] is the corrected loss of channel c at every instance
        total = 0.0
        corr = np.array([closed_form_corrected_loss(spec, m, i, lam[:, i]) for i in range(j.n_x)])
        if spec.name in ("SU", "DU", "SD", "Pcomp"):
            chans = {"SU": (("S", 0), ("U", 1)), "DU": (("D", 0), ("U", 1)),
                     "SD": (("S", 0), ("D", 1)), "Pcomp": (("PC", None),)}[spec.name]
            for label, col in chans:
                if label == "PC":
                    q = pd(spec, j, channel="PC").matrix
                    vals = corr[:, 0][:, None] + corr[:, 1][None, :]
                    total += float(np.sum(q * vals))
                elif label in ("S", "D"):
                    q = pd(spec, j, channel=label).matrix
                    v = corr[:, col]
                    total += float(np.sum(q * (v[:, None] + v[None, :]) / 2.0))
                else:
                    total += float(cm.observed[:, col] @ corr[:, col])
            return total
        for col in (0, 1):
            total += float(cm.observed[:, col] @ corr[:, col])
        return total

    if spec.family == FAMILY_CCN:
        total = 0.0
        for c in range(cm.observed.shape[1]):
            # weight column c at each instance, paired with the channel mass
            for i in range(j.n_x):
                mass = cm.observed[i, c]
                if mass == 0.0:
                    continue
                w = _weight_for(spec, j, m, cm, c, i)
                total += mass * float(w @ lam[:, i])
        return total

    # confidence family
    total = 0.0
    coeff, den_idx = _conf_coeff(spec, m)
    for i in range(j.n_x):
        r = m.class_probabilities[:, i]
        den = r[den_idx].sum() if den_idx is not None else 1.0
        w = coeff * r / den
        mass = cm.observed[i, 0] / coeff  # sample law of the conf channel
        total += mass * float(w @ lam[:, i])
    return total


def _weight_for(spec, j, m, cm, c, i):
    from wslrr.scenarios import CL as _CL, MCL as _MCL, PCPL as _PCPL, PPL as _PPL
    from wslrr.scenarios import compound_label_space
    K = j.K
    space = compound_label_space(K)
    if isinstance(spec, _CL):
        w = np.ones(K)
        w[c] -= K - 1
        return w
    if isinstance(spec, _MCL):
        sbar = space[c]
        d = len(sbar)
        w = np.ones(K)
        for cls in sbar:
            w[cls - 1] = 1.0 - (K - 1) / d
        return w
    if isinstance(spec, (_PPL, _PCPL)):
        members = [cls - 1 for cls in space[c]]
        r = m.class_probabilities[:, i]
        w = np.zeros(K)
        w[members] = r[members] / r[members].sum()
        return w
    return cm.matrix[i, c, :] * j.joint[:, i] / cm.observed[i, c]


def _members(spec):
    """The 0-based classes of a confidence record's super-class; None for Soft."""
    from wslrr.scenarios import Pconf as _Pconf, SCConf as _SCConf, SubConf as _SubConf
    if isinstance(spec, _SubConf):
        return [c - 1 for c in spec.Y_s]
    if isinstance(spec, _SCConf):
        return [spec.y_s - 1]
    return [0] if isinstance(spec, _Pconf) else None


def _conf_coeff(spec, m):
    members = _members(spec)
    return (float(m.priors[members].sum()), members) if members else (1.0, None)


# ---------------------------------------------------------------------------
# Each call builds its inputs once
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, module, name) -> list:
    """Count the calls of ``module.name`` through every wslrr module that binds it."""
    real, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in [m for n, m in sys.modules.items() if n.startswith("wslrr")]:
        for attr, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("name", ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES)
def test_marginals_computed_once_per_joint(name, monkeypatch):
    j0 = scenario_joint(name, 4, 6, 3, seed=47, trial=1)
    spec = make_spec(name, j0, 47, 1)
    calls = _count_calls(monkeypatch, wslrr.core, "_compute_marginals")
    j = validate_joint(j0.K, j0.features, j0.joint)  # the same joint, nothing computed yet
    ds = sample_weak_dataset(spec, j, 30, seed=3)
    decontaminate(spec, j)
    observed_distribution(spec, j)
    rewrite_table(spec, j)
    channel_terms(ds, spec, j)
    assert [args[0] for args in calls] == [j]


def test_rewritten_risk_validates_and_builds_once(monkeypatch):
    j = random_joint(4, 400, 3, seed=5, stream=0)
    model = seeded_model(j, 5, 0)
    validated = _count_calls(monkeypatch, wslrr.scenarios, "validate_spec")
    built = _count_calls(monkeypatch, wslrr.scenarios, "_contamination_tensor")
    assert rewritten_risk(CL(), j, model, LOGISTIC) == pytest.approx(classification_risk(j, model, LOGISTIC),
                                                                     abs=1e-10)
    assert len(validated) == 1 and len(built) == 1

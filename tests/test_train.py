import numpy as np
import pytest

import wslrr.risk
from wslrr.datagen import sample_weak_dataset
from wslrr.errors import Diverged, NonDifferentiableLoss, ShapeMismatch
from wslrr.risk import (
    LossSpec,
    channel_terms,
    empirical_risk,
    loss_matrix,
    per_draw_values,
    score_matrix,
    _loss_parts,
)
from wslrr.scenarios import PU, UU
from wslrr.train import (
    LinearModel,
    TrainConfig,
    empirical_gradient,
    init_model,
    model_from_json,
    model_to_json,
    predictions,
    train_erm,
    train_supervised_exact,
)
from wslrr.verify import (
    ABSTRACT_SCENARIO_NAMES,
    ALL_SCENARIO_NAMES,
    make_spec,
    scenario_joint,
    seeded_model,
    separable_binary_joint,
)

LOGISTIC = LossSpec("logistic")


class TestInitModel:
    def test_deterministic(self):
        a, b = init_model(2, 3, seed=5), init_model(2, 3, seed=5)
        assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)

    def test_shapes_and_range(self):
        m = init_model(2, 3, seed=5)
        assert m.weights.shape == (2, 3) and m.bias.shape == (2,)
        assert np.all(np.abs(m.weights) <= 0.1) and np.all(np.abs(m.bias) <= 0.1)

    def test_seeds_differ(self):
        assert not np.array_equal(init_model(2, 3, 5).weights, init_model(2, 3, 6).weights)


class TestGradient:
    def test_ridge_term_only(self, binary_joint):
        ds = sample_weak_dataset(PU(), binary_joint, 30, seed=2)
        model = init_model(2, 3, seed=1)
        dW0, db0 = empirical_gradient(ds, PU(), model, LOGISTIC, binary_joint, l2=0.0)
        dW1, db1 = empirical_gradient(ds, PU(), model, LOGISTIC, binary_joint, l2=0.7)
        assert np.allclose(dW1 - dW0, 2.0 * 0.7 * model.weights, atol=1e-14)
        assert np.array_equal(db1, db0)

    def test_zero_one_rejected(self, binary_joint):
        ds = sample_weak_dataset(PU(), binary_joint, 30, seed=2)
        with pytest.raises(NonDifferentiableLoss):
            empirical_gradient(ds, PU(), init_model(2, 3, 1), LossSpec("zero-one"), binary_joint)

    @pytest.mark.parametrize("lsname", ["logistic", "squared"])
    def test_matches_central_differences(self, lsname, binary_joint):
        ls = LossSpec(lsname)
        ds = sample_weak_dataset(PU(), binary_joint, 40, seed=3)
        model = init_model(2, 3, seed=4)
        dW, db = empirical_gradient(ds, PU(), model, ls, binary_joint, l2=0.1)
        eps = 1e-6

        def risk(w, b):
            reg = 0.1 * float((w * w).sum())
            return empirical_risk(ds, PU(), LinearModel(w, b), ls, binary_joint) + reg

        for arr, grad in ((model.weights, dW), (model.bias, db)):
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                ix = it.multi_index
                wp, bp = model.weights.copy(), model.bias.copy()
                (wp if arr is model.weights else bp)[ix] += eps
                wm, bm = model.weights.copy(), model.bias.copy()
                (wm if arr is model.weights else bm)[ix] -= eps
                numeric = (risk(wp, bp) - risk(wm, bm)) / (2 * eps)
                denom = max(1.0, abs(numeric), abs(grad[ix]))
                assert abs(numeric - grad[ix]) / denom <= 1e-5
                it.iternext()


def _per_draw_risk_and_gradient(ds, spec, model, ls, j):
    """The estimator term by term: the sum of per-channel draw means, and
    the gradient accumulated one channel's terms at a time."""
    lam = loss_matrix(ls, model, j)
    _, bases, scale = _loss_parts(ls, score_matrix(model, j), slope=True)
    risk, dW, db = 0.0, np.zeros_like(model.weights), np.zeros_like(model.bias)
    for terms in channel_terms(ds, spec, j):
        risk += float(per_draw_values(terms, lam).mean())
        wsum = terms.weights.sum(axis=1)
        dscores = (wsum[:, None] * bases[terms.idx] - scale * terms.weights) / terms.n_draws
        dW += dscores.T @ j.features[terms.idx]
        db += dscores.sum(axis=0)
    return risk, dW, db


class TestWeightTable:
    @pytest.mark.parametrize("name", ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES)
    def test_matches_per_draw_path(self, name):
        j = scenario_joint(name, 4, 7, 3, seed=43, trial=1)
        spec = make_spec(name, j, 43, 1)
        model = seeded_model(j, 43, 1)
        ds = sample_weak_dataset(spec, j, 300, seed=5)
        risk, dW, db = _per_draw_risk_and_gradient(ds, spec, model, LOGISTIC, j)
        assert abs(empirical_risk(ds, spec, model, LOGISTIC, j) - risk) <= 1e-12
        gW, gb = empirical_gradient(ds, spec, model, LOGISTIC, j)
        assert np.max(np.abs(gW - dW)) <= 1e-12 and np.max(np.abs(gb - db)) <= 1e-12

    @pytest.mark.parametrize("epochs", [1, 9])
    def test_train_compiles_the_dataset_once(self, monkeypatch, epochs):
        j = scenario_joint("GCCN", 3, 6, 3, seed=17, trial=0)
        spec = make_spec("GCCN", j, 17, 0)
        ds = sample_weak_dataset(spec, j, 200, seed=2)
        calls = []

        def counted(*args):
            calls.append(args)
            return channel_terms(*args)

        monkeypatch.setattr(wslrr.risk, "channel_terms", counted)
        _, trace = train_erm(ds, spec, LOGISTIC, TrainConfig(learning_rate=0.1, epochs=epochs), j)
        assert len(trace) == epochs + 1 and len(calls) == 1


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")), ("learning_rate", -0.1),
        ("l2", float("nan")), ("l2", float("inf")), ("l2", -1.0),
    ])
    def test_bad_rates_rejected(self, field, value):
        # NaN fails every comparison, so it is refused explicitly
        with pytest.raises(ShapeMismatch):
            TrainConfig(**{"learning_rate": 0.1, "epochs": 1, field: value})


class TestTrainErm:
    def test_zero_learning_rate_keeps_model(self, binary_joint):
        ds = sample_weak_dataset(PU(), binary_joint, 50, seed=5)
        cfg = TrainConfig(learning_rate=0.0, epochs=3, seed=6)
        model, trace = train_erm(ds, PU(), LOGISTIC, cfg, binary_joint)
        assert np.array_equal(model.weights, init_model(2, 3, 6).weights)
        assert len(set(trace)) == 1 and len(trace) == 4

    def test_supervised_descent_is_monotone(self, binary_joint):
        # identity contamination: the two channels are the clean class conditionals
        spec = UU(gamma_1=0.0, gamma_2=0.0)
        ds = sample_weak_dataset(spec, binary_joint, 200, seed=7)
        cfg = TrainConfig(learning_rate=0.05, epochs=60, seed=8)
        _, trace = train_erm(ds, spec, LOGISTIC, cfg, binary_joint)
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_pu_agrees_with_supervised(self):
        j = separable_binary_joint(seed=7)
        ds = sample_weak_dataset(PU(), j, {"P": 2000, "U": 2000}, seed=10)
        cfg = TrainConfig(learning_rate=0.2, epochs=300, seed=7)
        weak, _ = train_erm(ds, PU(), LOGISTIC, cfg, j)
        full, full_trace = train_supervised_exact(j, LOGISTIC, cfg)
        agree = float(np.mean(predictions(weak, j) == predictions(full, j)))
        assert agree >= 0.95
        assert full_trace[-1] < full_trace[0]

    def test_huge_learning_rate_diverges(self, binary_joint):
        ds = sample_weak_dataset(PU(), binary_joint, 50, seed=5)
        cfg = TrainConfig(learning_rate=1e6, epochs=50, seed=6)
        with pytest.raises(Diverged):
            train_erm(ds, PU(), LOGISTIC, cfg, binary_joint)

    def test_deterministic(self, binary_joint):
        ds = sample_weak_dataset(PU(), binary_joint, 80, seed=5)
        cfg = TrainConfig(learning_rate=0.1, epochs=20, seed=3)
        m1, t1 = train_erm(ds, PU(), LOGISTIC, cfg, binary_joint)
        m2, t2 = train_erm(ds, PU(), LOGISTIC, cfg, binary_joint)
        assert np.array_equal(m1.weights, m2.weights) and t1 == t2


class TestModelJson:
    def test_round_trip(self):
        model = init_model(3, 2, seed=11)
        back = model_from_json(model_to_json(model))
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.bias, model.bias)

    def test_gradient_check_per_scenario_sample(self):
        # a broader pass lives in verify; spot check a multiclass scenario here
        from wslrr.verify import verify_gradient_check
        j = scenario_joint("MCL", 4, 5, 3, seed=19, trial=0)
        spec = make_spec("MCL", j, 19, 0)
        ds = sample_weak_dataset(spec, j, 40, seed=20)
        rep = verify_gradient_check(spec, j, seeded_model(j, 19, 3), ds, LOGISTIC, seed=19)
        assert rep.passed

import json
import math

import numpy as np
import pytest

import wslrr.risk
import wslrr.verify
from wslrr.datagen import DatasetChannel, WeakDataset, sample_weak_dataset
from wslrr.errors import Diverged, NonDifferentiableLoss, SchemaMismatch, ShapeMismatch
from wslrr.risk import (
    LossSpec,
    channel_terms,
    empirical_risk,
    loss_matrix,
    score_matrix,
    weight_table,
    _check_scores,
    _loss_parts,
)
from wslrr.scenarios import MCL, PU, SCENARIO_TYPES, UU
from wslrr.train import (
    LinearModel,
    TrainConfig,
    empirical_gradient,
    init_model,
    model_to_json,
    predictions,
    train_erm,
    train_supervised_exact,
    _descend,
)
from wslrr.verify import (
    ABSTRACT_SCENARIO_NAMES,
    ALL_SCENARIO_NAMES,
    make_spec,
    scenario_joint,
    seeded_model,
    separable_binary_joint,
    verify_erm_sanity,
)

LOGISTIC = LossSpec("logistic")
SQUARED = LossSpec("squared")


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
        weights = terms.table if terms.rows is None else np.take(terms.table, terms.rows, axis=0)
        contrib = np.einsum("ek,ke->e", weights, lam[:, terms.idx])
        risk += float(contrib.reshape(-1, terms.n_draws).sum(axis=0).mean())
        wsum = weights.sum(axis=1)
        dscores = (wsum[:, None] * bases[terms.idx] - scale * weights) / terms.n_draws
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

    @pytest.mark.parametrize("name", ["CL", "MCL", "PCPL", "PPL", "CCN", "GCCN", "MCL, no size-3 draws"])
    def test_count_fold_matches_per_draw_path_at_many_draws(self, name):
        """The label stream's count fold stays within 1e-12 of the per-draw
        sums at 100k draws, also with label channels that hold no draw."""
        setting = name.split(",")[0]
        j = scenario_joint(setting, 4, 7, 3, seed=43, trial=1)
        spec = MCL(q=(0.7, 0.3, 0.0)) if "size-3" in name else make_spec(setting, j, 43, 1)
        model = seeded_model(j, 43, 1)
        ds = sample_weak_dataset(spec, j, 100_000, seed=5)
        assert any(c.n_draws == 0 for c in ds.channels) == ("size-3" in name)
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


def _single_loss(W, model, ls, j):
    """One model's weighted loss and gradient on an (n_x, K) table, as the
    single descent computed them."""
    g = _check_scores(j.features @ np.asarray(model.weights).T + np.asarray(model.bias))
    table, bases, scale = _loss_parts(ls, g, slope=True)
    dscores = W.sum(axis=1)[:, None] * bases - scale * W
    return float((W * table).sum()), dscores.T @ j.features, dscores.sum(axis=0)


def _single_descent(W, ls, cfg, j, what):
    """The reference: one model descended alone on one (n_x, K) table."""
    model = init_model(j.K, j.d_feat, cfg.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        value, dW, db = _single_loss(W, model, ls, j)
        if not math.isfinite(value):
            raise Diverged(f"initial {what} is {value}")
        trace = [value]
        for epoch in range(1, cfg.epochs + 1):
            model.weights = model.weights - cfg.learning_rate * (dW + 2.0 * cfg.l2 * model.weights)
            model.bias = model.bias - cfg.learning_rate * db
            if not (np.isfinite(model.weights).all() and np.isfinite(model.bias).all()):
                raise Diverged(f"parameters became non-finite at epoch {epoch}")
            value, dW, db = _single_loss(W, model, ls, j)
            if not math.isfinite(value):
                raise Diverged(f"{what} became non-finite at epoch {epoch}")
            trace.append(value)
    return model, trace


def _same_descent(got, want) -> bool:
    (gm, gt), (wm, wt) = got, want
    return all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in ((np.asarray(gm.weights), wm.weights), (np.asarray(gm.bias), wm.bias))) and gt == wt


# the settings and (K, n_x) shapes the stacked descent is checked on; binary settings run at K = 2
DESCENT_CASES = sorted({(name, 2 if SCENARIO_TYPES[name].binary_only else K, nx)
                        for name in ("PU", "CL", "Soft", "MCL", "Pcomp")
                        for K, nx in ((2, 40), (4, 100), (3, 200))})


class TestStackedDescent:
    """The stacked descent gives each table the bits of its own descent."""

    @pytest.mark.parametrize("ls, l2", [(LOGISTIC, 0.0), (LOGISTIC, 0.01), (SQUARED, 0.01)],
                             ids=["logistic", "logistic-l2", "squared-l2"])
    @pytest.mark.parametrize("name, K, nx", DESCENT_CASES)
    def test_stacks_of_one_and_two_match_single_descents(self, name, K, nx, ls, l2):
        j = scenario_joint(name, K, nx, 3, seed=5, trial=1)
        spec = make_spec(name, j, 5, 1)
        ds = sample_weak_dataset(spec, j, 3000, seed=9)
        cfg = TrainConfig(learning_rate=0.05, epochs=40, seed=3, l2=l2)
        W = weight_table(ds, spec, j)
        weak = _single_descent(W, ls, cfg, j, "empirical risk")
        full = _single_descent(j.joint.T, ls, cfg, j, "risk")
        assert _same_descent(train_erm(ds, spec, ls, cfg, j), weak)
        assert _same_descent(train_supervised_exact(j, ls, cfg), full)
        both = _descend(np.stack([W, j.joint.T]), ls, cfg, j, ("empirical risk", "risk"))
        assert _same_descent(both[0], weak) and _same_descent(both[1], full)

    # the loss, the learning rate and the messages the empirical and the supervised descent diverge with
    DIVERGING = [(LOGISTIC, 1e3, "empirical risk became non-finite at epoch 3", "risk became non-finite at epoch 15"),
                 (LOGISTIC, 1e6, "empirical risk became non-finite at epoch 1", "risk became non-finite at epoch 1"),
                 (SQUARED, 1e150, "empirical risk became non-finite at epoch 2", "risk became non-finite at epoch 2"),
                 (SQUARED, 1.7e308, "parameters became non-finite at epoch 1",
                  "parameters became non-finite at epoch 1")]

    @pytest.mark.parametrize("ls, lr, weak_message, full_message", DIVERGING)
    def test_divergence_message_and_epoch(self, binary_joint, ls, lr, weak_message, full_message):
        """A diverging stack of one raises what the single descent raised."""
        ds = sample_weak_dataset(PU(), binary_joint, 50, seed=5)
        cfg = TrainConfig(learning_rate=lr, epochs=50, seed=6)
        for run, W, what, message in (
                (lambda: train_erm(ds, PU(), ls, cfg, binary_joint), weight_table(ds, PU(), binary_joint),
                 "empirical risk", weak_message),
                (lambda: train_supervised_exact(binary_joint, ls, cfg), binary_joint.joint.T, "risk", full_message)):
            with pytest.raises(Diverged) as want:
                _single_descent(W, ls, cfg, binary_joint, what)
            with pytest.raises(Diverged) as got:
                run()
            assert str(got.value) == str(want.value) == message

    def test_non_finite_initial_risk(self, binary_joint):
        W = binary_joint.joint.T.copy()
        W[1, 0] = np.inf
        cfg = TrainConfig(learning_rate=0.1, epochs=3, seed=6)
        with pytest.raises(Diverged, match="^initial risk is inf$"):
            _single_descent(W, LOGISTIC, cfg, binary_joint, "risk")
        with pytest.raises(Diverged, match="^initial risk is inf$"):
            _descend(W[None], LOGISTIC, cfg, binary_joint, ("risk",))

    @pytest.mark.parametrize("seed", [0, 7, 11, 123])
    def test_erm_sanity_agreement_is_the_single_descents(self, seed):
        """verify_erm_sanity's one stacked descent gives the agreement of the
        two single descents, and the check passes."""
        j = separable_binary_joint(seed=seed)
        ds = sample_weak_dataset(PU(), j, {"P": 2000, "U": 2000}, seed=seed + 3)
        cfg = TrainConfig(learning_rate=0.2, epochs=300, seed=seed)
        weak, _ = _single_descent(weight_table(ds, PU(), j), LOGISTIC, cfg, j, "empirical risk")
        full, _ = _single_descent(j.joint.T, LOGISTIC, cfg, j, "risk")
        rep = verify_erm_sanity(seed=seed)
        assert rep.params["agreement"] == float(np.mean(predictions(weak, j) == predictions(full, j)))
        assert rep.passed

    def test_erm_sanity_fails_on_a_channel_swapped_dataset(self, monkeypatch):
        """Positive draws read as unlabeled and unlabeled as positive train a
        model that disagrees with the supervised one."""
        real = wslrr.verify.sample_weak_dataset

        def swapped(*args, **kwargs):
            ds = real(*args, **kwargs)
            p, u = ds.channels
            return WeakDataset(ds.spec, ds.seed, (DatasetChannel(p.label, p.kind, indices=u.indices),
                                                  DatasetChannel(u.label, u.kind, indices=p.indices)))

        monkeypatch.setattr(wslrr.verify, "sample_weak_dataset", swapped)
        rep = verify_erm_sanity(seed=7)
        assert not rep.passed and rep.params["agreement"] < 0.5


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
        """The written model reads back bit for bit with ``json.loads``, as
        the benchmark reads it: no subcommand reads a model."""
        model = init_model(3, 2, seed=11)
        raw = json.loads(model_to_json(model))
        assert (raw["K"], raw["d"]) == (3, 2)
        assert np.array_equal(np.array(raw["weights"]), model.weights)
        assert np.array_equal(np.array(raw["bias"]), model.bias)

    def test_gradient_check_per_scenario_sample(self):
        # a broader pass lives in verify; spot check a multiclass scenario here
        from wslrr.verify import CheckInput, verify_gradient_check
        j = scenario_joint("MCL", 4, 5, 3, seed=19, trial=0)
        spec = make_spec("MCL", j, 19, 0)
        ds = sample_weak_dataset(spec, j, 40, seed=20)
        rep = verify_gradient_check(CheckInput(spec, j, seeded_model(j, 19, 3)), ds, LOGISTIC, seed=19)
        assert rep.passed

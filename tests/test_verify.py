import gc
import json
import math
import weakref

import numpy as np
import pytest

import wslrr.verify
from wslrr.core import FiniteJoint
from wslrr.datagen import sample_weak_dataset
from wslrr.errors import KTooLarge, ShapeMismatch, ValidationError, ZeroPairMass
from wslrr.risk import LossSpec, channel_terms, loss_matrix, weighted_loss
from wslrr.scenarios import UU, specs_equal
from wslrr.train import LinearModel
from wslrr.verify import (
    ABSTRACT_SCENARIO_NAMES,
    ALL_SCENARIO_NAMES,
    AggregateReport,
    VerifyConfig,
    build_registry,
    make_spec,
    random_joint,
    scenario_joint,
    seeded_model,
    verify_all,
    verify_formulation,
    verify_gradient_check,
    verify_worked_example,
    verify_reconstruction,
    verify_reduction_graph,
    verify_risk_equality,
)

LOGISTIC = LossSpec("logistic")
# the default registry's tasks, in report order
DEFAULT_TASKS = (
    "formulation:PU", "formulation:Pconf", "formulation:UU", "formulation:SU", "formulation:DU",
    "formulation:SD", "formulation:Pcomp", "formulation:Sconf", "formulation:CL",
    "formulation:MCL", "formulation:PCPL", "formulation:PPL", "formulation:SCConf",
    "formulation:SubConf", "formulation:Soft", "formulation:MCD", "formulation:CCN",
    "formulation:GCCN",
    "reconstruction:PU:inversion", "reconstruction:Pconf:conf-diagonal",
    "reconstruction:UU:inversion", "reconstruction:SU:inversion", "reconstruction:DU:inversion",
    "reconstruction:SD:inversion", "reconstruction:Pcomp:inversion",
    "reconstruction:Sconf:sconf-special", "reconstruction:CL:marginal-chain",
    "reconstruction:CL:inversion", "reconstruction:MCL:marginal-chain",
    "reconstruction:MCL:mcl-blockwise", "reconstruction:PCPL:marginal-chain",
    "reconstruction:PPL:marginal-chain", "reconstruction:SCConf:conf-diagonal",
    "reconstruction:SubConf:conf-diagonal", "reconstruction:Soft:conf-diagonal",
    "reconstruction:MCD:inversion", "reconstruction:CCN:marginal-chain",
    "reconstruction:GCCN:marginal-chain",
    "risk-equality:PU", "risk-equality:Pconf", "risk-equality:UU", "risk-equality:SU",
    "risk-equality:DU", "risk-equality:SD", "risk-equality:Pcomp", "risk-equality:Sconf",
    "risk-equality:CL", "risk-equality:MCL", "risk-equality:PCPL", "risk-equality:PPL",
    "risk-equality:SCConf", "risk-equality:SubConf", "risk-equality:Soft", "risk-equality:MCD",
    "risk-equality:CCN", "risk-equality:GCCN",
    "closed-form:PU", "closed-form:Pconf", "closed-form:UU", "closed-form:SU", "closed-form:DU",
    "closed-form:SD", "closed-form:Pcomp", "closed-form:Sconf", "closed-form:PCPL",
    "closed-form:PPL", "closed-form:SCConf", "closed-form:SubConf", "closed-form:Soft",
    "reduction-graph", "worked-example", "pair-checks", "pcpl-half-identity",
    "mcl-block-inverse",
    "method-agreement:MCL", "method-agreement:CL",
    "mc-consistency:PU", "mc-consistency:CL", "mc-consistency:Soft",
    "gradient-check:PU", "gradient-check:Pconf", "gradient-check:UU", "gradient-check:SU",
    "gradient-check:DU", "gradient-check:SD", "gradient-check:Pcomp", "gradient-check:Sconf",
    "gradient-check:CL", "gradient-check:MCL", "gradient-check:PCPL", "gradient-check:PPL",
    "gradient-check:SCConf", "gradient-check:SubConf", "gradient-check:Soft",
    "erm-sanity",
)


class TestChecks:
    def test_worked_example(self):
        rep = verify_worked_example(seed=5)
        assert rep.passed and rep.max_abs_err <= 1e-14

    def test_reduction_graph_all_edges(self, multi_joint):
        reports = verify_reduction_graph(multi_joint, seed=3)
        assert len(reports) == 14
        assert all(r.passed for r in reports)
        assert all(r.max_abs_err <= 1e-15 for r in reports)

    def test_reduction_graph_draws_its_binary_joint_once(self, multi_joint, binary_joint, monkeypatch):
        # the binary edges of a K > 2 graph share one binary joint; a binary
        # graph reads its own joint throughout
        draws = []

        def counted(*args):
            draws.append(args)
            return random_joint(*args)

        monkeypatch.setattr(wslrr.verify, "random_joint", counted)
        want = [r.max_abs_err for r in verify_reduction_graph(multi_joint, seed=3)]
        assert draws == [(2, 6, 3, 3, 4242)]
        monkeypatch.undo()
        assert [r.max_abs_err for r in verify_reduction_graph(multi_joint, seed=3)] == want
        monkeypatch.setattr(wslrr.verify, "random_joint", counted)
        verify_reduction_graph(binary_joint, seed=3)
        assert len(draws) == 1

    def test_degenerate_params_surface_as_failed_check(self, binary_joint):
        spec = UU(gamma_1=0.5, gamma_2=0.5)
        rep = verify_reconstruction(spec, binary_joint, seed=1)
        assert not rep.passed
        assert "DegenerateParams" in rep.params["error"]

    def test_mutation_flips_the_verdict(self, binary_joint):
        spec = make_spec("UU", binary_joint, 1, 0)
        model = seeded_model(binary_joint, 1, 0)
        ok = verify_risk_equality(spec, binary_joint, model, LOGISTIC, seed=1)
        bad = verify_risk_equality(spec, binary_joint, model, LOGISTIC, flip_sign=True, seed=1)
        assert ok.passed and not bad.passed

    def test_mutation_caught_for_every_family(self):
        for name in ("PU", "CL", "Soft", "Sconf"):
            j = scenario_joint(name, 4, 5, 3, seed=2, trial=0)
            spec = make_spec(name, j, 2, 0)
            model = seeded_model(j, 2, 0)
            assert not verify_risk_equality(spec, j, model, LOGISTIC, flip_sign=True).passed

    def test_checks_are_deterministic(self, binary_joint):
        spec = make_spec("SU", binary_joint, 4, 0)
        a = verify_formulation(spec, binary_joint, seed=4)
        b = verify_formulation(spec, binary_joint, seed=4)
        assert a.max_abs_err == b.max_abs_err


class TestAggregate:
    def test_zero_trials_empty_report(self):
        rep = verify_all(VerifyConfig(trials=0))
        assert rep.checks == () and rep.passed

    def test_default_tasks_in_report_order(self):
        assert tuple(name for name, _ in build_registry(VerifyConfig())) == DEFAULT_TASKS

    def test_subset_run(self):
        tasks = dict(build_registry(VerifyConfig(trials=2, mc_samples=2000)))
        reports = [tasks[name]() for name in ("formulation:PU", "risk-equality:PU", "mc-consistency:PU")]
        assert all(r.passed and r.scenario == "PU" for r in reports)
        assert [r.name for r in reports] == ["formulation", "risk-equality", "mc-consistency[n=2000]"]

    def test_report_serializes_losslessly(self):
        tasks = build_registry(VerifyConfig(trials=2, mc_samples=2000))
        checks = tuple(fn() for name, fn in tasks if name.split(":")[1:2] == ["Soft"])
        rep = AggregateReport(seed=7, checks=checks, passed=all(c.passed for c in checks))
        raw = json.loads(rep.to_json())
        assert raw["seed"] == rep.seed and raw["pass"] == rep.passed
        assert len(raw["checks"]) == len(rep.checks) == 6
        for c, d in zip(rep.checks, raw["checks"]):
            assert d["name"] == c.name and d["max_abs_err"] == c.max_abs_err

    def test_registry_order_is_stable(self):
        cfg = VerifyConfig(trials=1, mc_samples=1000)
        names1 = [n for n, _ in build_registry(cfg)]
        names2 = [n for n, _ in build_registry(cfg)]
        assert names1 == names2

    def test_closed_form_tasks_leave_out_the_exact_inverses(self):
        names = [n for n, _ in build_registry(VerifyConfig(trials=1))]
        closed = [n.split(":")[1] for n in names if n.startswith("closed-form:")]
        assert closed == [n for n in ALL_SCENARIO_NAMES if n not in ("CL", "MCL")]

    def test_failing_task_becomes_failed_report(self, monkeypatch):
        # a library error inside the pair checks fails them as a report
        # instead of ending the run
        def zero_pair_mass(j, seed):
            raise ZeroPairMass("a pair (x, x') has zero product mass")

        monkeypatch.setattr(wslrr.verify, "verify_pair_symmetry", zero_pair_mass)
        tasks = dict(build_registry(VerifyConfig(trials=1)))
        pair = tasks["pair-checks"]()
        assert pair.name == "pair-checks" and not pair.passed
        assert "zero product mass" in pair.params["error"]
        assert json.loads(AggregateReport(seed=7, checks=(pair,), passed=False).to_json())["checks"]
        others = [tasks[name]() for name in ("formulation:SU", "risk-equality:SU", "worked-example")]
        assert all(c.passed for c in others)

    @pytest.mark.parametrize("nx", [150, 400])
    def test_pair_checks_pass_at_many_instances(self, nx):
        # the binary joints' priors concentrate at 1/2 as n_x grows, and the
        # pair laws need no prior gap: the checks run on the first draw
        reports = dict(build_registry(VerifyConfig(trials=1, nx=nx)))["pair-checks"]()
        assert len(reports) == 3 and all(r.passed for r in reports)

    def test_nx_does_not_reach_the_per_trial_checks(self):
        # the formulation tasks draw joints of 3 + trial % 6 instances, so --nx
        # leaves their errors unchanged
        def formulation_errors(nx):
            tasks = build_registry(VerifyConfig(nx=nx))
            return {name: fn().max_abs_err for name, fn in tasks if name.startswith("formulation:")}

        at6 = formulation_errors(6)
        assert len(at6) == 18 and at6 == formulation_errors(40)


def test_each_trial_input_is_drawn_once_and_dropped_after_its_last_reader(monkeypatch):
    """A default run builds each of its 18 x 20 (scenario, trial) inputs, and
    the three Monte-Carlo inputs, once, from the draws that every setting of
    a trial shares.  When the first Monte-Carlo task starts, the only inputs,
    joints and loss tables still alive are the trial-3 ones that the gradient
    checks read later.  The only models alive are trial 3's and the two of
    trial 17 that the Monte-Carlo tasks read: they take trial 17's models,
    which the per-setting readers of trial 17 drew.  Nothing outlives the
    run."""
    real_inputs, real_risk = wslrr.verify._scenario_trial_inputs, wslrr.verify._exact_risk
    inputs, draws, alive_at_mc, reports = {}, {}, [], []

    def track(kind, trial, K, draw):
        if id(draw) not in draws or draws[id(draw)][1]() is not draw:
            draws[id(draw)] = (kind, trial, K), weakref.ref(draw)

    def tracked_inputs(cfg, table, name, trial, K, nx):
        out = real_inputs(cfg, table, name, trial, K, nx)
        assert (name, trial, K, nx) not in inputs
        inputs[name, trial, K, nx] = weakref.ref(out[0])  # each input has its own spec
        for draw in table["joints", trial, K, nx].values():  # the candidates, and the loss tables made so far
            if isinstance(draw, FiniteJoint):
                track("joint", trial, draw.K, draw)
        for model in table["models", trial].values():
            track("model", trial, model.weights.shape[0], model)
        return out

    def exact_risk(ls, model, j):
        out = real_risk(ls, model, j)
        track("loss table", draws[id(j)][0][1], j.K, out[0])
        return out

    def alive(refs):
        return {key for key, ref in refs if ref() is not None}

    monkeypatch.setattr(wslrr.verify, "_scenario_trial_inputs", tracked_inputs)
    monkeypatch.setattr(wslrr.verify, "_exact_risk", exact_risk)
    for label, run in build_registry(VerifyConfig()):
        if label.startswith("mc-consistency:") and not alive_at_mc:
            gc.collect()
            alive_at_mc.append((alive(inputs.items()), alive(draws.values())))
        out = run()
        reports += out if isinstance(out, list) else [out]
    del run
    assert all(r.passed for r in reports)
    mc_inputs = {(name, wslrr.verify.MC_TRIAL, 4, 6) for name in ("PU", "CL", "Soft")}
    assert len(inputs.keys() - mc_inputs) == len(ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES) * 20 == 360
    assert mc_inputs <= inputs.keys()
    (inputs_at_mc, draws_at_mc), = alive_at_mc
    assert {key[:2] for key in inputs_at_mc} == {(name, 3) for name in ALL_SCENARIO_NAMES}
    assert len(inputs_at_mc) == len(ALL_SCENARIO_NAMES)
    # trial 3 reads K = 2 + 3 % 3 = 2 for every setting; trial 17, K = 2 + 17 % 3 = 4, or 2 if binary
    assert {(kind, trial) for kind, trial, _ in draws_at_mc if kind != "model"} == {("joint", 3), ("loss table", 3)}
    assert {(trial, K) for kind, trial, K in draws_at_mc if kind == "model"} == {(3, 2), (17, 2), (17, 4)}
    gc.collect()
    assert alive(inputs.items()) == set() and alive(draws.values()) == set()


def test_default_run_draws_each_joint_and_model_once(monkeypatch):
    # the candidate streams and the model seeds depend on the trial, not on
    # the setting, so the 18 settings of a trial share them: 54 joints (51
    # trial candidates, the reduction graph's two and the pair checks' one)
    # and 33 models, where drawing per setting took 412 and 378 calls
    joints, models = [], []
    real_joint, real_model = wslrr.verify.random_joint, wslrr.verify.init_model
    monkeypatch.setattr(wslrr.verify, "random_joint", lambda *args: joints.append(args) or real_joint(*args))
    monkeypatch.setattr(wslrr.verify, "init_model", lambda *args: models.append(args) or real_model(*args))
    assert verify_all(VerifyConfig()).passed
    assert len(joints) == len(set(joints)) == 54
    assert len(models) == len(set(models)) == 33


def test_shared_models_are_read_only(monkeypatch):
    real_inputs, models = wslrr.verify._scenario_trial_inputs, []

    def inputs(*args):
        out = real_inputs(*args)
        models.append(out[2])
        return out

    monkeypatch.setattr(wslrr.verify, "_scenario_trial_inputs", inputs)
    assert verify_all(VerifyConfig(trials=2, mc_samples=2000)).passed
    # two trials of every setting, PCPL at trial 2, CL and MCL at 4, the
    # gradient checks at 3 and the Monte-Carlo inputs
    assert len(models) == 18 * 2 + 1 + 2 + 15 + 3
    for model in models:
        assert not model.weights.flags.writeable and not model.bias.flags.writeable
        with pytest.raises(ValueError):
            model.bias[0] = 0.0


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def test_shared_draws_equal_fresh_draws(monkeypatch):
    """Every registry input equals the one scenario_joint, make_spec and
    seeded_model draw afresh, array for array, and every risk-equality report
    equals verify_risk_equality's on the fresh inputs, bit for bit."""
    cfg = VerifyConfig(trials=7, nx=5)
    real_inputs, real_equality = wslrr.verify._scenario_trial_inputs, wslrr.verify._risk_equality
    built, equality = {}, []

    def inputs(cfg_, table, *key):
        built[key] = real_inputs(cfg_, table, *key)
        return built[key]

    def risk_equality(spec, *args, **kwargs):
        equality.append((spec, real_equality(spec, *args, **kwargs)))
        return equality[-1][1]

    monkeypatch.setattr(wslrr.verify, "_scenario_trial_inputs", inputs)
    monkeypatch.setattr(wslrr.verify, "_risk_equality", risk_equality)
    assert verify_all(cfg).passed
    monkeypatch.undo()
    assert len(built) == 18 * 7 + 3 and len(equality) == 18 * 7
    fresh = {}
    for key, (spec, j, model, _) in built.items():
        name, trial, K, nx = key
        mc = name in ("PU", "CL", "Soft") and trial == wslrr.verify.MC_TRIAL
        assert (K, nx) == ((cfg.K, cfg.nx) if mc else (2 + trial % min(4, cfg.K - 1), 3 + trial % 6))
        fj = scenario_joint(name, K, nx, cfg.d_feat, cfg.seed, trial)
        fspec, fmodel = make_spec(name, fj, cfg.seed, trial), seeded_model(fj, cfg.seed, trial)
        fresh[id(spec)] = fspec, fj, fmodel
        assert j.K == fj.K and _bits(j.joint) == _bits(fj.joint) and _bits(j.features) == _bits(fj.features)
        assert specs_equal(spec, fspec)
        assert _bits(model.weights) == _bits(fmodel.weights) and _bits(model.bias) == _bits(fmodel.bias)
    for spec, report in equality:
        want = verify_risk_equality(*fresh[id(spec)], LOGISTIC, seed=cfg.seed).to_dict()
        got = report.to_dict()
        assert got.pop("elapsed") >= 0.0 and want.pop("elapsed") >= 0.0
        assert got == want and _bits(got["max_abs_err"]) == _bits(want["max_abs_err"])


def test_mc_consistency_frees_its_estimator_terms_before_the_rerun(monkeypatch):
    """The rerun draws a second dataset of the same size; the first one's
    per-draw terms must be gone by then, or the task's memory peak grows by
    a weight table."""
    real_terms, real_sample = wslrr.verify.channel_terms, wslrr.verify.sample_weak_dataset
    terms, alive_at_rerun = [], []

    def channel_terms(*args):
        out = real_terms(*args)
        terms.extend(weakref.ref(t) for t in out)
        return out

    def sample(*args, **kwargs):
        if terms:  # the rerun
            gc.collect()
            alive_at_rerun.append(sum(ref() is not None for ref in terms))
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(wslrr.verify, "channel_terms", channel_terms)
    monkeypatch.setattr(wslrr.verify, "sample_weak_dataset", sample)
    for name in ("PU", "CL", "Soft"):
        terms.clear()
        assert wslrr.verify.verify_mc_consistency(name, VerifyConfig(mc_samples=2000)).passed
    assert alive_at_rerun == [0, 0, 0]


class TestConfigBounds:
    def test_negative_trials_rejected(self):
        with pytest.raises(ShapeMismatch):
            VerifyConfig(trials=-1)

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_fewer_than_two_mc_samples_rejected(self, n):
        # one draw per channel has no spread: se is 0 and the 5 se bar collapses
        with pytest.raises(ShapeMismatch):
            VerifyConfig(mc_samples=n)

    def test_k_above_the_compound_label_cap_rejected(self):
        # the reduction graph and the CL Monte-Carlo check build every compound label
        with pytest.raises(KTooLarge):
            VerifyConfig(K=9)

    def test_smallest_accepted_values(self):
        assert verify_all(VerifyConfig(trials=0, mc_samples=2)).checks == ()

    def test_seed_bounds_cover_every_derived_key(self):
        # mc-consistency samples at seed + 1000, the trial models use seed + 31 * trial + 1
        VerifyConfig(seed=0)
        VerifyConfig(seed=2 ** 64 - 1001)
        for cfg in ({"seed": -1}, {"seed": 2 ** 64 - 1000}, {"seed": 2 ** 64 - 1001, "trials": 40}):
            with pytest.raises(ValidationError):
                VerifyConfig(**cfg)
        VerifyConfig(seed=2 ** 64 - 31 * 39 - 2, trials=40)


def _spread_reference(ds, spec, j, lam):
    """The estimator spread with a fancy-index gather of lam[:, idx] for each
    sum: per-draw totals, their sample variance over the draw count, and the
    mean |term| per channel."""
    var = abs_terms = 0.0
    for terms in channel_terms(ds, spec, j):
        contrib = np.einsum("ek,ke->e", terms.weights, lam[:, terms.idx])
        vals = contrib.reshape(len(terms.idx) // terms.n_draws, terms.n_draws).sum(axis=0)
        var += float(np.var(vals, ddof=1)) / len(vals)
        abs_terms += float(np.einsum("ek,ke->", np.abs(terms.weights), lam[:, terms.idx])) / len(vals)
    return math.sqrt(var), abs_terms


@pytest.mark.parametrize("name", ["PU", "CL", "Soft"])
def test_estimator_spread_bits(name):
    """On the default Monte-Carlo inputs, se and the |terms| sum are the bits
    of the reference that gathers the losses twice."""
    cfg = VerifyConfig()
    t = wslrr.verify.MC_TRIAL
    j = scenario_joint(name, cfg.K, cfg.nx, cfg.d_feat, cfg.seed, t)
    spec = make_spec(name, j, cfg.seed, t)
    model = seeded_model(j, cfg.seed, t)
    ds = sample_weak_dataset(spec, j, cfg.mc_samples, seed=cfg.seed + 1000)
    lam = loss_matrix(LOGISTIC, model, j)
    assert wslrr.verify._estimator_spread(ds, spec, j, lam) == _spread_reference(ds, spec, j, lam)


def _gradient_inputs(name):
    j = scenario_joint(name, 3, 6, 3, seed=7, trial=3)
    spec = make_spec(name, j, 7, 3)
    return spec, j, sample_weak_dataset(spec, j, 40, seed=12)


@pytest.mark.parametrize("name", ["PU", "SD", "Sconf", "MCL", "SubConf"])
def test_gradient_check_matches_one_parameter_at_a_time(name):
    """The batched central differences agree with differences taken one
    parameter at a time through ``weighted_loss``."""
    spec, j, ds = _gradient_inputs(name)
    model = seeded_model(j, 7, 3)
    rep = verify_gradient_check(spec, j, model, ds, LOGISTIC, seed=7)
    dW, db = wslrr.verify.empirical_gradient(ds, spec, model, LOGISTIC, j)
    W = wslrr.verify.weight_table(ds, spec, j)
    theta = np.concatenate([model.weights.ravel(), model.bias])
    analytic, n_w, eps, err = np.concatenate([dW.ravel(), db]), model.weights.size, 1e-6, 0.0
    for ix in range(theta.size):
        risks = []
        for sign in (1.0, -1.0):
            t = theta.copy()
            t[ix] += sign * eps
            risks.append(weighted_loss(
                W, LinearModel(t[:n_w].reshape(model.weights.shape), t[n_w:]), LOGISTIC, j))
        numeric = (risks[0] - risks[1]) / (2.0 * eps)
        err = max(err, abs(numeric - analytic[ix]) / max(1.0, abs(numeric), abs(analytic[ix])))
    assert rep.passed and abs(rep.max_abs_err - err) <= 1e-9


@pytest.mark.parametrize("part", ["weights", "bias"])
@pytest.mark.parametrize("name", ["PU", "CL", "Soft"])
def test_gradient_check_fails_on_a_perturbed_gradient(name, part, monkeypatch):
    spec, j, ds = _gradient_inputs(name)
    real = wslrr.verify.empirical_gradient

    def perturbed(*args, **kwargs):
        dW, db = real(*args, **kwargs)
        return (dW + 1e-3, db) if part == "weights" else (dW, db + 1e-3)

    monkeypatch.setattr(wslrr.verify, "empirical_gradient", perturbed)
    rep = verify_gradient_check(spec, j, seeded_model(j, 7, 3), ds, LOGISTIC, seed=7)
    assert not rep.passed and rep.max_abs_err >= 1e-4

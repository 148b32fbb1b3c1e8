import gc
import json
import math
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

import wslrr.verify
from wslrr.core import FiniteJoint
from wslrr.datagen import DatasetChannel, WeakDataset, dataset_from_json, dataset_to_json, sample_weak_dataset
import wslrr.decontam
from wslrr.decontam import _decontaminate
from wslrr.errors import (DegenerateParams, KTooLarge, ShapeMismatch, ValidationError, ZeroConfidence,
                          ZeroPairMass)
from wslrr.risk import LossSpec, _channel_terms, _fold, channel_terms, empirical_risk, loss_matrix, weight_table, weighted_loss
import wslrr.scenarios
from wslrr.scenarios import CCN, FAMILY_SCONF, UU, Soft, _member_mask, _spec_object, specs_equal
from wslrr.train import LinearModel, empirical_gradient
from wslrr.verify import (
    ABSTRACT_SCENARIO_NAMES,
    ALL_SCENARIO_NAMES,
    AggregateReport,
    CheckInput,
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

    @pytest.mark.parametrize("mutate", ["soft-tensor", "superclass-probability"])
    def test_subconf_to_soft_edge_checks_soft_against_its_own_reference(self, multi_joint, monkeypatch, mutate):
        # the edge's parent matrix is the 1/r diagonal built apart from Soft's
        # kernel, so breaking the kernel fails that edge and no other
        if mutate == "soft-tensor":
            real = Soft.tensor
            monkeypatch.setattr(Soft, "tensor", lambda self, m: 1.5 * real(self, m))
        else:
            real = wslrr.scenarios._superclass_probability
            monkeypatch.setattr(wslrr.scenarios, "_superclass_probability",
                                lambda spec, r: 0.5 * real(spec, r) if spec.members is None else real(spec, r))
        failed = [r.name for r in verify_reduction_graph(multi_joint, seed=3) if not r.passed]
        assert failed == ["reduction[SubConf->Soft]"]

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
        rep = verify_reconstruction(CheckInput(spec, binary_joint, seeded_model(binary_joint, 1, 0)), seed=1)
        assert not rep.passed
        assert "DegenerateParams" in rep.params["error"]

    def test_mutation_flips_the_verdict(self, binary_joint):
        inp = CheckInput(make_spec("UU", binary_joint, 1, 0), binary_joint, seeded_model(binary_joint, 1, 0))
        ok = verify_risk_equality(inp, seed=1)
        bad = verify_risk_equality(inp, flip_sign=True, seed=1)
        assert ok.passed and not bad.passed

    def test_mutation_caught_for_every_family(self):
        for name in ("PU", "CL", "Soft", "Sconf"):
            j = scenario_joint(name, 4, 5, 3, seed=2, trial=0)
            inp = CheckInput(make_spec(name, j, 2, 0), j, seeded_model(j, 2, 0))
            assert not verify_risk_equality(inp, flip_sign=True).passed

    def test_checks_are_deterministic(self, binary_joint):
        spec = make_spec("SU", binary_joint, 4, 0)
        model = seeded_model(binary_joint, 4, 0)
        a = verify_formulation(CheckInput(spec, binary_joint, model), seed=4)
        b = verify_formulation(CheckInput(spec, binary_joint, model), seed=4)
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
    checks read later, and so are the only systems: each input builds one,
    which dies with it.  The only models alive are trial 3's and the two of
    trial 17 that the Monte-Carlo tasks read: they take trial 17's models,
    which the per-setting readers of trial 17 drew.  Nothing outlives the
    run."""
    real_inputs, real_risk = wslrr.verify._scenario_trial_inputs, wslrr.verify._exact_risk
    real_system = wslrr.verify._System
    inputs, draws, systems, alive_at_mc, reports = {}, {}, {}, [], []
    input_of = {}  # id of a live input's spec -> the input's key

    def track(kind, trial, K, draw):
        if id(draw) not in draws or draws[id(draw)][1]() is not draw:
            draws[id(draw)] = (kind, trial, K), weakref.ref(draw)

    def tracked_inputs(cfg, table, name, trial, K, nx):
        out = real_inputs(cfg, table, name, trial, K, nx)
        assert (name, trial, K, nx) not in inputs
        inputs[name, trial, K, nx] = weakref.ref(out.spec)  # each input has its own spec
        input_of[id(out.spec)] = (name, trial, K, nx)
        for draw in table["joints", trial, K, nx].values():  # the candidates, and the loss tables made so far
            if isinstance(draw, FiniteJoint):
                track("joint", trial, draw.K, draw)
        for model in table["models", trial].values():
            track("model", trial, model.weights.shape[0], model)
        return out

    def exact_risk(model, j):
        out = real_risk(model, j)
        track("loss table", draws[id(j)][0][1], j.K, out[0])
        return out

    def system(spec, j):
        out = real_system(spec, j)
        assert input_of[id(spec)] not in systems
        systems[input_of[id(spec)]] = weakref.ref(out)
        return out

    def alive(refs):
        return {key for key, ref in refs if ref() is not None}

    monkeypatch.setattr(wslrr.verify, "_scenario_trial_inputs", tracked_inputs)
    monkeypatch.setattr(wslrr.verify, "_System", system)
    monkeypatch.setattr(wslrr.verify, "_exact_risk", exact_risk)
    for label, run in build_registry(VerifyConfig()):
        if label.startswith("mc-consistency:") and not alive_at_mc:
            gc.collect()
            alive_at_mc.append((alive(inputs.items()), alive(draws.values()), alive(systems.items())))
        out = run()
        reports += out if isinstance(out, list) else [out]
    del run
    assert all(r.passed for r in reports)
    mc_inputs = {(name, wslrr.verify.MC_TRIAL, 4, 6) for name in ("PU", "CL", "Soft")}
    assert len(inputs.keys() - mc_inputs) == len(ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES) * 20 == 360
    assert mc_inputs <= inputs.keys()
    assert systems.keys() == inputs.keys()
    (inputs_at_mc, draws_at_mc, systems_at_mc), = alive_at_mc
    assert {key[:2] for key in inputs_at_mc} == {(name, 3) for name in ALL_SCENARIO_NAMES}
    assert len(inputs_at_mc) == len(ALL_SCENARIO_NAMES) and systems_at_mc == inputs_at_mc
    # trial 3 reads K = 2 + 3 % 3 = 2 for every setting; trial 17, K = 2 + 17 % 3 = 4, or 2 if binary
    assert {(kind, trial) for kind, trial, _ in draws_at_mc if kind != "model"} == {("joint", 3), ("loss table", 3)}
    assert {(trial, K) for kind, trial, K in draws_at_mc if kind == "model"} == {(3, 2), (17, 2), (17, 4)}
    gc.collect()
    assert alive(inputs.items()) == set() and alive(draws.values()) == set() and alive(systems.items()) == set()


def test_default_run_builds_each_input_system_and_decontamination_once(monkeypatch):
    """A default run builds one system per input, on the first read of the
    363 inputs' checks, and each (system, method) decontamination once.  Only
    the four tasks that read no input build systems of their own."""
    real_inputs, real_init = wslrr.verify._scenario_trial_inputs, wslrr.scenarios._System.__init__
    real_decontamination = wslrr.decontam._decontamination
    held, input_specs, built, decontaminated, task = [], set(), Counter(), Counter(), [None]

    def inputs(*args):
        out = real_inputs(*args)
        held.append(out.spec)  # held to the end, so no id is reused
        input_specs.add(id(out.spec))
        return out

    def init(self, spec, j):
        held.append(self)
        built[id(spec) if id(spec) in input_specs else task[0]] += 1
        real_init(self, spec, j)

    def decontamination(s, method):
        decontaminated[id(s), method] += 1
        return real_decontamination(s, method)

    monkeypatch.setattr(wslrr.verify, "_scenario_trial_inputs", inputs)
    monkeypatch.setattr(wslrr.scenarios._System, "__init__", init)
    monkeypatch.setattr(wslrr.decontam, "_decontamination", decontamination)
    for task[0], run in build_registry(VerifyConfig()):
        out = run()
        assert all(r.passed for r in (out if isinstance(out, list) else [out]))
    per_input = [n for key, n in built.items() if isinstance(key, int)]
    assert len(per_input) == len(input_specs) == 363 and set(per_input) == {1}
    assert {key for key in built if isinstance(key, str)} == {
        "reduction-graph", "worked-example", "pair-checks", "erm-sanity"}
    assert decontaminated and set(decontaminated.values()) == {1}


def test_a_failing_system_fails_each_reading_check_with_its_message_and_is_not_kept(monkeypatch):
    """UU's trial-0 spec, made degenerate, fails the four checks that read
    that input, each with the error a fresh build raises, and each builds
    the system anew; every other check passes."""
    real_spec, real_system = wslrr.verify.make_spec, wslrr.verify._System
    bad, attempts = UU(gamma_1=0.4, gamma_2=0.6), []

    def make_spec_(name, j, seed, trial):
        return bad if (name, trial) == ("UU", 0) else real_spec(name, j, seed, trial)

    def system(spec, j):
        attempts.append(spec is bad)
        return real_system(spec, j)

    monkeypatch.setattr(wslrr.verify, "make_spec", make_spec_)
    monkeypatch.setattr(wslrr.verify, "_System", system)
    reports = {label: run() for label, run in build_registry(VerifyConfig(trials=1, mc_samples=2000))}
    j = scenario_joint("UU", 4, 3, 3, seed=7, trial=0)
    with pytest.raises(DegenerateParams) as e:
        real_system(bad, j)
    # the guarded checks name their report, and the registry names a check that raises by its task
    readers = {"formulation:UU": "formulation", "reconstruction:UU:inversion": "reconstruction[inversion]",
               "risk-equality:UU": "risk-equality", "closed-form:UU": "closed-form:UU"}
    for label, name in readers.items():
        rep = reports[label]
        assert (rep.name, rep.passed, rep.params["error"]) == (name, False, f"DegenerateParams: {e.value}")
    assert all(r.passed for label, out in reports.items() if label not in readers
               for r in (out if isinstance(out, list) else [out]))
    assert attempts.count(True) == len(readers)


def test_a_failing_decontamination_fails_every_reader_and_is_not_kept():
    """A singular flip matrix validates but has no inverse: each reading
    check fails with the same message, and no inversion is kept."""
    j = random_joint(2, 3, 2, seed=9, stream=0)
    inp = CheckInput(CCN(flip=np.full((3, 2, 2), 0.5)), j, seeded_model(j, 9, 0))
    first, second = (verify_reconstruction(inp, method="inversion") for _ in range(2))
    assert not first.passed and first.params == second.params
    assert first.params["error"].startswith("Singular: ")
    assert "inversion" not in inp.system.decontaminated


def test_shared_system_arrays_are_read_only():
    """What an input's system hands out to every reader, its tensor, its
    observed masses and each decontamination, is read-only, as the member
    masks shared across K are."""
    cfg = VerifyConfig()
    for name in ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES:
        s = wslrr.verify._scenario_trial_inputs(cfg, {}, name, 1, 3, 4).system
        methods = {s.spec.method, s.spec.estimator, wslrr.verify.EXACT_INVERSE.get(name)} - {None}
        arrays = [a for method in methods for a in vars(_decontaminate(s, method)).values()
                  if isinstance(a, np.ndarray)]
        if s.spec.family != FAMILY_SCONF:
            arrays += [s.tensor, s.observed]
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            arrays[0].flat[0] = 0.0
    assert not _member_mask(4).flags.writeable


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
        models.append(out.model)
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
    """Every registry input equals the one scenario_joint, make_spec,
    seeded_model and CheckInput build afresh, array for array, and every
    risk-equality report equals verify_risk_equality's on the fresh inputs,
    bit for bit."""
    cfg = VerifyConfig(trials=7, nx=5)
    real_inputs, real_equality = wslrr.verify._scenario_trial_inputs, wslrr.verify.verify_risk_equality
    built, equality = {}, []

    def inputs(cfg_, table, *key):
        built[key] = real_inputs(cfg_, table, *key)
        return built[key]

    def risk_equality(inp, *args, **kwargs):
        equality.append((inp.spec, real_equality(inp, *args, **kwargs)))
        return equality[-1][1]

    monkeypatch.setattr(wslrr.verify, "_scenario_trial_inputs", inputs)
    monkeypatch.setattr(wslrr.verify, "verify_risk_equality", risk_equality)
    assert verify_all(cfg).passed
    monkeypatch.undo()
    assert len(built) == 18 * 7 + 3 and len(equality) == 18 * 7
    fresh = {}
    for key, inp in built.items():
        spec, j, model = inp.spec, inp.j, inp.model
        name, trial, K, nx = key
        mc = name in ("PU", "CL", "Soft") and trial == wslrr.verify.MC_TRIAL
        assert (K, nx) == ((cfg.K, cfg.nx) if mc else (2 + trial % min(4, cfg.K - 1), 3 + trial % 6))
        fj = scenario_joint(name, K, nx, cfg.d_feat, cfg.seed, trial)
        finp = CheckInput(make_spec(name, fj, cfg.seed, trial), fj, seeded_model(fj, cfg.seed, trial))
        fresh[id(spec)], fmodel = finp, finp.model
        assert j.K == fj.K and _bits(j.joint) == _bits(fj.joint) and _bits(j.features) == _bits(fj.features)
        assert specs_equal(spec, finp.spec)
        assert _bits(model.weights) == _bits(fmodel.weights) and _bits(model.bias) == _bits(fmodel.bias)
        (losses, risk), (flosses, frisk) = inp.exact, finp.exact
        assert _bits(losses) == _bits(flosses) and _bits(risk) == _bits(frisk)
    for spec, report in equality:
        want = verify_risk_equality(fresh[id(spec)], seed=cfg.seed).to_dict()
        got = report.to_dict()
        assert got.pop("elapsed") >= 0.0 and want.pop("elapsed") >= 0.0
        assert got == want and _bits(got["max_abs_err"]) == _bits(want["max_abs_err"])


def test_mc_consistency_frees_its_estimator_terms_before_the_rerun(monkeypatch):
    """The rerun draws a second dataset of the same size; the first one's
    per-draw terms must be gone by then, or the task's memory peak grows by
    a weight table, and the first dataset must be gone before the rerun's
    terms are built, or the peak holds two datasets."""
    real_terms, real_sample = wslrr.verify._channel_terms, wslrr.verify._sample
    terms, datasets, alive_at_rerun, first_alive_at_rerun_terms = [], [], [], []

    def channel_terms(*args):
        if len(datasets) == 2:  # the rerun's terms
            gc.collect()
            first_alive_at_rerun_terms.append(datasets[0]() is not None)
        out = real_terms(*args)
        terms.extend(weakref.ref(t) for t in out)
        return out

    def sample(*args, **kwargs):
        if terms:  # the rerun
            gc.collect()
            alive_at_rerun.append(sum(ref() is not None for ref in terms))
        ds = real_sample(*args, **kwargs)
        datasets.append(weakref.ref(ds))
        return ds

    monkeypatch.setattr(wslrr.verify, "_channel_terms", channel_terms)
    monkeypatch.setattr(wslrr.verify, "_sample", sample)
    for name in ("PU", "CL", "Soft"):
        terms.clear()
        datasets.clear()
        assert wslrr.verify.verify_mc_consistency(name, VerifyConfig(mc_samples=2000)).passed
    assert alive_at_rerun == [0, 0, 0] and first_alive_at_rerun_terms == [False] * 3


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


def _channel_spread(terms, lam):
    """One channel's (variance of its mean, mean |term|), from a fancy-index
    gather of lam[:, idx] and of every draw's weights: per-draw totals and
    their sample variance over the draw count."""
    weights = terms.table if terms.rows is None else np.take(terms.table, terms.rows, axis=0)
    contrib = np.einsum("ek,ke->e", weights, lam[:, terms.idx])
    vals = contrib.reshape(len(terms.idx) // terms.n_draws, terms.n_draws).sum(axis=0)
    var = float(np.var(vals, ddof=1)) / len(vals) if len(vals) > 1 else 0.0
    return var, float(np.einsum("ek,ke->", np.abs(weights), lam[:, terms.idx])) / len(vals)


def _spread_reference(ds, spec, j, lam):
    """The estimator spread draw by draw: the square root of the summed
    channel variances, and the summed mean |term|."""
    var, abs_terms = np.sum([_channel_spread(terms, lam) for terms in channel_terms(ds, spec, j)], axis=0)
    return math.sqrt(var), abs_terms


def _mc_spread_case(name, nx=None, n=None):
    """A setting's Monte-Carlo input at MC_TRIAL, its sample, and (the spread,
    the reference, the estimate, empirical_risk)."""
    cfg = VerifyConfig() if nx is None else VerifyConfig(nx=nx)
    t = wslrr.verify.MC_TRIAL
    j = scenario_joint(name, cfg.K, cfg.nx, cfg.d_feat, cfg.seed, t)
    inp = CheckInput(make_spec(name, j, cfg.seed, t), j, seeded_model(j, cfg.seed, t))
    ds = sample_weak_dataset(inp.spec, j, cfg.mc_samples if n is None else n, seed=cfg.seed + 1000)
    est, *spread = wslrr.verify._estimator_spread(ds, inp.system, inp.exact[0])
    want = _spread_reference(ds, inp.spec, j, loss_matrix(LOGISTIC, inp.model, j))
    return inp, ds, tuple(spread), want, est, empirical_risk(ds, inp.spec, inp.model, LOGISTIC, j)


def _relative_close(got, want, rel=1e-12) -> bool:
    return all(abs(g - w) <= rel * abs(w) for g, w in zip(got, want))


@pytest.mark.parametrize("name", ["PU", "CL", "Soft"])
def test_estimator_spread_bits(name):
    """On the default Monte-Carlo inputs, se and the |terms| sum are within
    1e-12 relative of the reference that gathers the losses per draw (the
    count sums add in another order), and the estimate, made from the same
    terms, has empirical_risk's bits."""
    _, _, spread, want, est, risk = _mc_spread_case(name)
    assert _relative_close(spread, want)
    assert _bits(est) == _bits(risk)


# the prior-gap rule admits no binary joint of 150 instances for these settings
NO_JOINT_AT_150 = ("SU", "DU", "SD", "Sconf")


@pytest.mark.parametrize("name, nx", [(name, None) for name in wslrr.verify._SETTINGS]
                         + [(name, 150) for name in wslrr.verify._SETTINGS if name not in NO_JOINT_AT_150])
def test_estimator_spread_matches_the_per_draw_reference(name, nx):
    """Every setting's spread, by distinct key or per draw, is the per-draw
    reference's within 1e-12 relative; pair channels must stay per draw (keyed
    by instance, SU's se is 2.5% off)."""
    _, _, spread, want, est, risk = _mc_spread_case(name, nx)
    assert _relative_close(spread, want) and spread[0] > 0.0
    assert _bits(est) == _bits(risk)


def test_a_channel_of_one_draw_adds_no_variance():
    """PU with a single positive draw: the se is the unlabeled channel's alone,
    and the reference agrees."""
    j = scenario_joint("PU", 2, 12, 3, seed=0, trial=wslrr.verify.MC_TRIAL)
    inp = CheckInput(make_spec("PU", j, 0, 1), j, seeded_model(j, 0, 1))
    ds = sample_weak_dataset(inp.spec, j, {"P": 1, "U": 5000}, seed=4)
    lam = loss_matrix(LOGISTIC, inp.model, j)
    _, se, abs_terms = wslrr.verify._estimator_spread(ds, inp.system, inp.exact[0])
    p_terms, u_terms = channel_terms(ds, inp.spec, j)
    assert p_terms.n_draws == 1 and _channel_spread(p_terms, lam)[0] == 0.0
    assert _relative_close((se ** 2,), (_channel_spread(u_terms, lam)[0],))
    assert _relative_close((se, abs_terms), _spread_reference(ds, inp.spec, j, lam))



def _conf_case(name, edit, n=3000):
    """A confidence setting's default Monte-Carlo input and an ``n``-draw
    sample of it, its confidences edited: "keyed" leaves them as sampled;
    "two rows" gives the first draw's instance a second row in its second
    draw; "signed zero" gives every draw of that instance the row
    (1, 0, ..., 0), with -0.0 as the last entry of its second draw.  An
    edited channel is built anew from its per-draw confidences, one code per
    draw."""
    cfg, t = VerifyConfig(), wslrr.verify.MC_TRIAL
    j = scenario_joint(name, cfg.K, cfg.nx, cfg.d_feat, cfg.seed, t)
    inp = CheckInput(make_spec(name, j, cfg.seed, t), j, seeded_model(j, cfg.seed, t))
    ds = sample_weak_dataset(inp.spec, j, n, seed=cfg.seed + 1000)
    ch = ds.channels[0]
    mine = np.flatnonzero(ch.indices == ch.indices[0])
    conf = ch.confidences.copy()
    if edit == "two rows":
        conf[mine[1]] = conf[0][::-1]
    elif edit == "signed zero":
        conf[mine] = np.eye(j.K)[0]
        conf[mine[1], -1] = -0.0
    if edit != "keyed":
        ds = WeakDataset(ds.spec, ds.seed,
                         (DatasetChannel(ch.label, ch.kind, indices=ch.indices, table=conf, codes=np.arange(n)),))
    return inp, ds


def _per_draw_conf_reference(inp, ds):
    """(weight table, estimate, se, mean |term|) of a confidence channel
    draw by draw: each draw weighs the losses by the super-class prior times
    r / r_sel at its stored confidences r."""
    ch, j, losses = ds.channels[0], inp.j, inp.exact[0]
    r, idx, n = ch.confidences, ch.indices, ch.n_draws
    members = list(range(j.K)) if inp.spec.members is None else list(inp.spec.members)
    coeff = float(inp.system.m.priors[members].sum())
    w = coeff * r / r[:, members].sum(axis=1, keepdims=True)
    W = np.zeros((j.n_x, j.K))
    np.add.at(W, idx, w / n)
    terms = w * losses[idx]
    vals = terms.sum(axis=1)
    return W, float(vals.mean()), math.sqrt(float(np.var(vals, ddof=1)) / n), float(np.abs(terms).sum()) / n


class TestKeyedConfidenceChannels:
    """A sampled confidence channel is folded and spread by the counts of its
    codes, which are its instances; one built from edited per-draw
    confidences by one code per draw.  Both give the per-draw reference."""

    @pytest.mark.parametrize("edit, keyed", [("keyed", True), ("two rows", False), ("signed zero", False)])
    @pytest.mark.parametrize("name", ["Soft", "Pconf"])
    def test_fold_and_spread_match_the_per_draw_reference(self, name, edit, keyed):
        inp, ds = _conf_case(name, edit)
        (terms,) = _channel_terms(ds, inp.system)
        assert (terms.rows is ds.channels[0].indices) == keyed  # sampled codes are the instances
        if keyed:
            assert terms.table.shape == (inp.j.n_x, inp.j.K) and terms.rows is ds.channels[0].indices
        W_ref, est_ref, se_ref, abs_ref = _per_draw_conf_reference(inp, ds)
        W = _fold([terms], inp.j)
        assert np.all(np.abs(W - W_ref) <= 1e-12 * np.abs(W_ref))
        est, se, abs_terms = wslrr.verify._estimator_spread(ds, inp.system, inp.exact[0])
        assert _relative_close((est, se, abs_terms), (est_ref, se_ref, abs_ref))

    def test_a_code_read_at_two_instances_is_keyed_by_both(self):
        # a read channel codes its draws by distinct item: a draw moved in place to
        # another instance keeps the code it shares with the draws at the old one
        inp, ds = _conf_case("Soft", "keyed")
        ds = dataset_from_json(dataset_to_json(ds))
        ch = ds.channels[0]
        ch.indices[0] = (ch.indices[0] + 1) % inp.j.n_x
        W = weight_table(ds, inp.spec, inp.j)
        got = wslrr.verify._estimator_spread(ds, inp.system, inp.exact[0])
        W_ref, *want = _per_draw_conf_reference(inp, ds)  # reads the per-draw confidences
        assert np.all(np.abs(W - W_ref) <= 1e-12 * np.abs(W_ref)) and _relative_close(got, want)

    @pytest.mark.parametrize("edit", ["keyed", "two rows", "signed zero"])
    @pytest.mark.parametrize("name", ["Soft", "Pconf"])
    def test_writer_is_json_dumps(self, name, edit):
        _, ds = _conf_case(name, edit, n=500)
        ch = ds.channels[0]
        items = [{"index": i, "confidences": row} for i, row in zip(ch.indices.tolist(), ch.confidences.tolist())]
        want = json.dumps({"spec": _spec_object(ds.spec), "seed": ds.seed,
                           "channels": [{"label": ch.label, "kind": ch.kind, "items": items}]})
        assert dataset_to_json(ds) == want
        assert ("-0.0" in want) == (edit == "signed zero")

    def test_zero_confidence_names_the_first_draw_not_the_lowest_instance(self):
        # two instances lose their super-class confidence in every draw; the one
        # drawn first has the higher index, and the error names it, as the
        # per-draw path does
        inp, ds = _conf_case("Pconf", "keyed")
        ch = ds.channels[0]
        seen = list(dict.fromkeys(ch.indices.tolist()))  # instances by first draw
        first, later = next((a, b) for k, a in enumerate(seen) for b in seen[k + 1:] if b < a)
        conf = ch.confidences.copy()
        conf[np.isin(ch.indices, [first, later])] = np.eye(inp.j.K)[1]
        ds = WeakDataset(ds.spec, ds.seed, (DatasetChannel(ch.label, ch.kind, indices=ch.indices, table=conf,
                                                           codes=np.arange(ch.n_draws)),))
        with pytest.raises(ZeroConfidence, match=f"instance {first}$"):
            _channel_terms(ds, inp.system)

    def test_spread_and_fold_hold_no_per_draw_table(self):
        # on the default Soft input, the spread and the rerun's fold together
        # allocate less than one (n, K) float table of per-draw weights
        cfg = VerifyConfig()
        inp, ds = _conf_case("Soft", "keyed", n=cfg.mc_samples)
        n, K = ds.channels[0].n_draws, inp.j.K
        tracemalloc.start()
        try:
            wslrr.verify._estimator_spread(ds, inp.system, inp.exact[0])
            _fold(_channel_terms(ds, inp.system), inp.j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * K * 8

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
    rep = verify_gradient_check(CheckInput(spec, j, model), ds, LOGISTIC, seed=7)
    dW, db = empirical_gradient(ds, spec, model, LOGISTIC, j)
    W = weight_table(ds, spec, j)
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
    real = wslrr.verify.weighted_loss

    def perturbed(*args, **kwargs):  # the check's analytic gradient
        value, dW, db = real(*args, **kwargs)
        return (value, dW + 1e-3, db) if part == "weights" else (value, dW, db + 1e-3)

    monkeypatch.setattr(wslrr.verify, "weighted_loss", perturbed)
    rep = verify_gradient_check(CheckInput(spec, j, seeded_model(j, 7, 3)), ds, LOGISTIC, seed=7)
    assert not rep.passed and rep.max_abs_err >= 1e-4


def _per_draw_pair_reference(inp, ds):
    """(weight table, estimate, se, mean |term|) of a pair-setting dataset
    draw by draw, from the decontamination's columns and the stored
    confidences: a point draw of channel c weighs the losses by D[:, c], a
    pair of SU, DU or SD by D[:, c] / 2 at each instance, a Pcomp pair by
    D[:, 0] at its first and D[:, 1] at its second instance, and a Sconf pair
    by half the pair diagonal at its confidence at each instance.  The table
    is summed in extended precision."""
    j, spec, losses = inp.j, inp.spec, inp.exact[0]
    W = np.zeros((j.n_x, j.K), dtype=np.longdouble)
    est = var = abs_terms = 0.0
    for c, ch in enumerate(ds.channels):
        if spec.family == FAMILY_SCONF:
            pi_p, pi_n = inp.system.m.priors
            r = ch.confidences
            w = np.column_stack([r - pi_n, pi_p - r]) / (pi_p - pi_n) / 2.0
            entries = [(ch.pairs[:, 0], w), (ch.pairs[:, 1], w)]
        else:
            dag = _decontaminate(inp.system, spec.estimator).matrices[0]
            if spec.streams:  # Pcomp
                entries = [(ch.pairs[:, p], np.broadcast_to(dag[:, p], (ch.n_draws, j.K))) for p in (0, 1)]
            elif ch.kind == "pairs":
                entries = [(ch.pairs[:, p], np.broadcast_to(dag[:, c] / 2.0, (ch.n_draws, j.K))) for p in (0, 1)]
            else:
                entries = [(ch.indices, np.broadcast_to(dag[:, c], (ch.n_draws, j.K)))]
        vals = np.zeros(ch.n_draws)
        for at, w in entries:
            np.add.at(W, at, w.astype(np.longdouble) / ch.n_draws)
            vals += (w * losses[at]).sum(axis=1)
            abs_terms += float((np.abs(w) * losses[at]).sum()) / ch.n_draws
        est += float(vals.mean())
        var += float(np.var(vals, ddof=1)) / ch.n_draws
    return W.astype(np.float64), est, math.sqrt(var), abs_terms


@pytest.mark.parametrize("name", ["SU", "DU", "SD", "Pcomp", "Sconf"])
def test_pair_settings_fold_and_spread_match_the_per_draw_reference(name):
    """At 100k draws per channel, the keyed fold and the spread, whose pair
    draws are keyed by pair code, are a per-draw reference's within 1e-12
    relative, and the setting's Monte-Carlo check passes at the default config."""
    cfg, t = VerifyConfig(), wslrr.verify.MC_TRIAL
    j = scenario_joint(name, cfg.K, cfg.nx, cfg.d_feat, cfg.seed, t)
    inp = CheckInput(make_spec(name, j, cfg.seed, t), j, seeded_model(j, cfg.seed, t))
    ds = sample_weak_dataset(inp.spec, j, cfg.mc_samples, seed=cfg.seed + 1000)
    W = weight_table(ds, inp.spec, j)
    est, se, abs_terms = wslrr.verify._estimator_spread(ds, inp.system, inp.exact[0])
    W_ref, *want = _per_draw_pair_reference(inp, ds)
    assert np.all(np.abs(W - W_ref) <= 1e-12 * np.abs(W_ref))
    assert _relative_close((est, se, abs_terms), want) and se > 0.0
    assert wslrr.verify.verify_mc_consistency(name, cfg).passed

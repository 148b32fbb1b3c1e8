"""The three workloads: harness, exact-sweep and simulate-train.

A workload builds its inputs from the seed when it is made, then runs whole
rounds of the same program calls (``round``).  Every call goes through a
:class:`Meter`, which adds its wall and CPU time to the round and counts it
as attempted, or as failed when it raises or a CLI call exits non-zero.
``check`` compares a round's outputs with :mod:`reference` and returns the
failures.  For the per-layer metrics, ``traced_round`` makes the calls the
metrics are made of, ``check_traced`` checks them, and ``layer_metrics``
reads the metrics back from the spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import calib
import checks
import reference as ref
import wslrr.risk
from tracing import Api, Tracer
from wslrr.core import validate_joint
from wslrr.risk import LossSpec
from wslrr.scenarios import SCENARIO_TYPES
from wslrr.train import LinearModel, TrainConfig

D_FEAT = 3
K_MULTI = 4
LOSSES = ("logistic", "squared", "zero-one")

FAILED = object()


class Meter:
    """Wall and CPU time of program calls, with attempted and failed counts.

    Given a :class:`calib.Calibrator`, the meter runs a block of calibration
    units for ``calib.SHARE`` of the program time after every
    ``calib.INTERVAL_S`` of program calls and at the round's end
    (``settle``).  ``settle`` then sets ``norm_wall`` and ``norm_cpu``: the
    round's times scaled to the nominal host speed by the units from the
    block just before the round to the block just after it, so that even a
    round of one long call is timed between two blocks.
    """

    def __init__(self, cal=None):
        self.wall = 0.0
        self.cpu = 0.0
        self.norm_wall = 0.0
        self.norm_cpu = 0.0
        self.cal = cal
        self._first_unit = cal.block if cal is not None else 0
        self._pending = 0.0                # program wall time since the last calibration
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.cli_s = defaultdict(float)    # wall time per CLI command

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = fn(*args, **kwargs)
        except Exception as e:  # a failing call is counted, and the round goes on
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {type(e).__name__}: {e}")
            out = FAILED
        dw = time.perf_counter() - w0
        self.wall += dw
        self.cpu += time.process_time() - c0
        self._pending += dw
        if self.cal is not None and self._pending >= calib.INTERVAL_S:
            self._calibrate()
        return out

    def _calibrate(self) -> None:
        self.cal.run(calib.SHARE * self._pending)
        self._pending = 0.0

    def settle(self) -> None:
        if self._pending > 0.0:
            self._calibrate()
        fw, fc = self.cal.factors(self._first_unit)
        self.norm_wall, self.norm_cpu = self.wall * fw, self.cpu * fc

    def cli(self, api: Api, argv: list) -> tuple:
        """``wslrr.cli.main(argv)`` with its stdout captured: (exit code, stdout)."""
        buf = io.StringIO()

        def main():
            with contextlib.redirect_stdout(buf):
                return api.cli.main(argv)

        w0 = time.perf_counter()
        code = self.call(main)
        self.cli_s[argv[0]] += time.perf_counter() - w0
        if code is FAILED:
            return code, buf.getvalue()
        if code != 0:
            self.failed += 1
            self.errors.append(f"wslrr {' '.join(argv[:1])} exited {code}")
        return code, buf.getvalue()


def _rng(seed: int, *purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, *purpose])


def make_joint(rng: np.random.Generator, K: int, n_x: int) -> tuple:
    """(joint (K, n_x), features (n_x, D_FEAT)) with a skewed class prior.

    Binary priors lie in [0.62, 0.72], away from the 1/2 at which SU, DU, SD
    and Sconf have no rewrite; class conditionals are positive and tilted by
    the features, so training has a signal to find.
    """
    X = rng.uniform(-1.0, 1.0, (n_x, D_FEAT))
    if K == 2:
        p = rng.uniform(0.62, 0.72)
        priors = np.array([p, 1.0 - p])
    else:
        priors = rng.uniform(0.5, 1.5, K)
        priors /= priors.sum()
    tilt = rng.normal(size=(K, D_FEAT))
    cond = rng.uniform(0.2, 1.0, (K, n_x)) * np.exp(tilt @ X.T)
    cond /= cond.sum(axis=1, keepdims=True)
    joint = priors[:, None] * cond
    return joint / joint.sum(), X


def make_params(rng: np.random.Generator, name: str, K: int, n_x: int) -> dict:
    """Seeded scenario parameters, in the field names of the wslrr records."""
    if name == "MCD":
        return {"gamma_p": rng.uniform(0.0, 0.4), "gamma_n": rng.uniform(0.0, 0.4)}
    if name == "UU":
        return {"gamma_1": rng.uniform(0.0, 0.4), "gamma_2": rng.uniform(0.0, 0.4)}
    if name == "CCN":
        a, b = rng.uniform(0.0, 0.35, n_x), rng.uniform(0.0, 0.35, n_x)
        return {"flip": np.stack([np.stack([1.0 - a, b], -1), np.stack([a, 1.0 - b], -1)], 1)}
    if name == "GCCN":
        cond = rng.uniform(size=(n_x, 2 ** K - 2, K)) + 0.05
        return {"cond": cond / cond.sum(axis=1, keepdims=True)}
    if name == "PPL":
        # proper weights: each instance mixes label sizes, uniform within a size
        sizes = [len(s) for s in ref.compound_labels(K)]
        alpha = rng.uniform(size=(n_x, K - 1)) + 0.1
        alpha /= alpha.sum(axis=1, keepdims=True)
        return {"C": np.array([alpha[:, d - 1] / math.comb(K - 1, d - 1) for d in sizes])}
    if name == "MCL":
        q = rng.uniform(size=K - 1) + 0.1
        return {"q": tuple(q / q.sum())}
    if name == "SubConf":
        size = int(rng.integers(1, K))
        return {"Y_s": tuple(sorted(int(c) for c in rng.choice(np.arange(1, K + 1), size, replace=False)))}
    if name == "SCConf":
        return {"y_s": int(rng.integers(1, K + 1))}
    return {}


def make_model(rng: np.random.Generator, K: int) -> LinearModel:
    return LinearModel(weights=0.8 * rng.normal(size=(K, D_FEAT)), bias=0.3 * rng.normal(size=K))


# =============================================================================
# exact-sweep
# =============================================================================

# setting, class count, family (the metric suffix), decontamination methods
EXACT_SETTINGS = (
    ("MCD", 2, "mcd", ("inversion",)),
    ("UU", 2, "mcd", ("inversion",)),
    ("PU", 2, "mcd", ("inversion",)),
    ("SU", 2, "mcd", ("inversion",)),
    ("DU", 2, "mcd", ("inversion",)),
    ("SD", 2, "mcd", ("inversion",)),
    ("Pcomp", 2, "mcd", ("inversion",)),
    ("CCN", 2, "ccn", ("marginal-chain", "inversion")),
    ("GCCN", K_MULTI, "ccn", ("marginal-chain",)),
    ("PPL", K_MULTI, "ccn", ("marginal-chain",)),
    ("PCPL", K_MULTI, "ccn", ("marginal-chain",)),
    ("MCL", K_MULTI, "ccn", ("marginal-chain", "mcl-blockwise")),
    ("CL", K_MULTI, "ccn", ("marginal-chain", "inversion")),
    ("Pconf", 2, "conf", ("conf-diagonal", "inversion")),
    ("SCConf", K_MULTI, "conf", ("conf-diagonal", "inversion")),
    ("SubConf", K_MULTI, "conf", ("conf-diagonal", "inversion")),
    ("Soft", K_MULTI, "conf", ("conf-diagonal", "inversion")),
    ("Sconf", 2, "sconf", ("sconf-special",)),
)
PAIR_CHANNELS = {"SU": ("S",), "DU": ("D",), "SD": ("S", "D"), "Pcomp": ("PC",), "Sconf": ("XX",)}
# instance counts of the two rungs; Sconf's objects are n_x x n_x pair laws
RUNGS = {"small": 100, "large": 400}
SCONF_RUNGS = {"small": 50, "large": 100}
CHECK_FAMILY = {"mcd": "mixture", "ccn": "label", "conf": "confidence"}


class Case:
    """One setting at one rung: the joint, the scenario and a model."""

    def __init__(self, name, K, family, methods, rung, n_x, rng):
        self.name, self.K, self.family, self.methods, self.rung, self.n_x = name, K, family, methods, rung, n_x
        self.joint, self.X = make_joint(rng, K, n_x)
        self.params = make_params(rng, name, K, n_x)
        self.model = make_model(rng, K)
        self.fj = validate_joint(K, self.X, self.joint)
        self.spec = SCENARIO_TYPES[name](**self.params)


class ExactSweep:
    name = "exact-sweep"

    def __init__(self, seed: int, workdir: Path):
        self.losses = {loss: LossSpec(loss) for loss in LOSSES}
        self.cases = []
        for rung in ("small", "large"):
            for index, (name, K, family, methods) in enumerate(EXACT_SETTINGS):
                n_x = (SCONF_RUNGS if name == "Sconf" else RUNGS)[rung]
                self.cases.append(Case(name, K, family, methods, rung, n_x, _rng(seed, 1, index, n_x)))

    def round(self, api: Api, meter: Meter) -> list:
        out = []
        for c in self.cases:
            with api.tracer.span("op", setting=c.name, family=c.family, rung=c.rung, n=c.n_x):
                marg = meter.call(api.core.marginals, c.fj)
                cm = meter.call(api.scenarios.observed_distribution, c.spec, c.fj)
                pairs = {tag: meter.call(api.scenarios.pair_distribution, c.spec, c.fj, channel=tag)
                         for tag in PAIR_CHANNELS.get(c.name, ())}
                drs = {meth: meter.call(api.decontam.decontaminate, c.spec, c.fj, method=meth)
                       for meth in c.methods}
                tables, exact, rewritten = {}, {}, {}
                for loss, ls in self.losses.items():
                    tables[loss] = meter.call(api.risk.loss_matrix, ls, c.model, c.fj)
                    exact[loss] = meter.call(api.risk.classification_risk, c.fj, c.model, ls)
                    for meth in c.methods:
                        rewritten[meth, loss] = meter.call(api.risk.rewritten_risk, c.spec, c.fj,
                                                           c.model, ls, method=meth)
            out.append((c, marg, cm, pairs, drs, tables, exact, rewritten))
        return out

    def check(self, outputs: list) -> list:
        errs = []
        for c, marg, cm, pairs, drs, tables, exact, rewritten in outputs:
            tag = f"{c.name}/n={c.n_x}"
            W, b = c.model.weights, c.model.bias
            if marg is not FAILED:
                errs += checks.check_marginals(f"{tag} marginals", marg.priors, marg.instance_marginal, c.joint)
            if cm is not FAILED and c.family != "sconf":
                errs += checks.check_channel_masses(f"{tag} channel masses", CHECK_FAMILY[c.family],
                                                    cm.observed, c.joint, c.name, c.params)
            for ptag, pd in pairs.items():
                if pd is not FAILED:
                    errs += checks.check_pair_law(f"{tag} pair law {ptag}", pd.matrix, ptag, c.joint)
            for meth, dr in drs.items():
                if dr is FAILED or cm is FAILED:
                    continue
                what = f"{tag} reconstruction[{meth}]"
                if c.family == "sconf":
                    errs += checks.check_pair_reconstruction(what, dr.pair_matrices,
                                                             ref.pair_law("XX", c.joint), c.joint)
                else:
                    errs += checks.check_reconstruction(what, dr.matrices, cm.observed, c.joint)
            for loss in LOSSES:
                if tables[loss] is not FAILED:
                    errs += checks.check_loss_table(f"{tag} loss table[{loss}]", tables[loss], c.X, W, b, loss)
                if exact[loss] is not FAILED:
                    errs += checks.check_risk(f"{tag} exact risk[{loss}]", exact[loss], c.joint, c.X, W, b, loss)
            for (meth, loss), value in rewritten.items():
                if value is not FAILED:
                    errs += checks.check_risk(f"{tag} rewritten risk[{meth}, {loss}]", value,
                                              c.joint, c.X, W, b, loss)
        return errs

    traced_round = round
    check_traced = check

    @staticmethod
    def layer_metrics(tr: Tracer, plain: Meter, traced: Meter) -> dict:
        def total(name, **tags):
            return sum(t for t, _ in tr.calls(name, **tags))

        def mean_ms(name, **tags):
            times = [t for t, _ in tr.calls(name, **tags)]
            return 1e3 * sum(times) / len(times)

        def growth(name, per_pair=False, **tags):
            """Per-instance (per-pair) time at the large rung over the small one."""
            per = []
            for rung in ("small", "large"):
                calls = tr.calls(name, rung=rung, **tags)
                units = sum(p["n"] ** (2 if per_pair else 1) for _, p in calls)
                per.append(sum(t for t, _ in calls) / units)
            return per[1] / per[0]

        out = {"core.marginals_ms": (mean_ms("core.marginals", rung="large"), "ms")}
        for fam in ("mcd", "ccn", "conf", "sconf"):
            out[f"scenarios.observed_s.{fam}"] = (
                total("scenarios.observed_distribution", rung="large", family=fam), "s")
            out[f"scenarios.observed_growth.{fam}"] = (
                growth("scenarios.observed_distribution", per_pair=fam == "sconf", family=fam), "ratio")
        out["scenarios.pair_distribution_ms"] = (mean_ms("scenarios.pair_distribution", rung="large"), "ms")
        for meth in ("inversion", "marginal-chain", "mcl-blockwise", "conf-diagonal", "sconf-special"):
            out[f"decontam.{meth}_s"] = (total("decontam.decontaminate", rung="large", method=meth), "s")
        for meth in ("inversion", "marginal-chain"):
            out[f"decontam.{meth}_growth"] = (growth("decontam.decontaminate", method=meth), "ratio")
        out["risk.loss_matrix_ms"] = (mean_ms("risk.loss_matrix", rung="large"), "ms")
        out["risk.classification_risk_ms"] = (mean_ms("risk.classification_risk", rung="large"), "ms")
        for fam in ("mcd", "ccn", "conf", "sconf"):
            out[f"risk.rewritten_risk_s.{fam}"] = (
                total("risk.rewritten_risk", rung="large", family=fam), "s")
        out["trace.overhead_s.exact-sweep"] = (traced.wall - plain.wall, "s")
        return out


# =============================================================================
# simulate-train
# =============================================================================

# setting, class count; GCCN reaches the CLI as a scenario file, MCL and
# SubConf as inline --params, the rest by name
SIM_SETTINGS = (("PU", 2), ("SD", 2), ("Pcomp", 2), ("Sconf", 2), ("CL", K_MULTI),
                ("MCL", K_MULTI), ("GCCN", K_MULTI), ("Soft", K_MULTI), ("SubConf", K_MULTI))
SIM_CHANNELS = {"PU": ("P", "U"), "SD": ("S", "D"), "Pcomp": ("PC",), "Sconf": ("XX",),
                "CL": ("SX",), "MCL": ("SX",), "GCCN": ("SX",), "Soft": ("X",), "SubConf": ("X",)}
POINT_SETTINGS = ("PU", "CL", "MCL", "GCCN", "Soft", "SubConf")   # frequency-checked
LABEL_STREAMS = ("CL", "MCL", "GCCN")
SIM_NX = 100
COUNTS = {"n-small": 3_000, "n-large": 30_000}   # draws per sampling channel
EPOCHS = 10
LEARNING_RATE = 0.2
TRAIN_SEED = 0          # the CLI's default --seed for train


class SimSetting:
    def __init__(self, name, K, index, seed, workdir: Path, joints: dict):
        self.name, self.K, self.workdir = name, K, workdir
        self.joint, self.X, self.joint_path = joints[K]
        self.fj = validate_joint(K, self.X, self.joint)
        self.params = make_params(_rng(seed, 3, index), name, K, SIM_NX)
        self.seed = 16 * seed + index
        plain = {k: list(v) if isinstance(v, tuple) else v for k, v in self.params.items()}
        if name == "GCCN":
            path = workdir / "gccn.json"
            path.write_text(json.dumps({"name": name, "params": {"cond": self.params["cond"].tolist()}}))
            self.args = ["--scenario", str(path)]
            self.scenario_json = path.read_text()
        else:
            self.args = ["--scenario", name] + (["--params", json.dumps(plain)] if plain else [])
            # what the CLI builds from a name and --params before scenario_from_json
            self.scenario_json = json.dumps({"name": name, "params": plain})

    def path(self, rung: str, route: str, what: str) -> str:
        return str(self.workdir / f"{self.name}-{rung}-{route}.{what}.json")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text + ("\n" if not text.endswith("\n") else ""))


class SimulateTrain:
    name = "simulate-train"

    def __init__(self, seed: int, workdir: Path):
        joints = {}
        for K in (2, K_MULTI):
            joint, X = make_joint(_rng(seed, 2, K), K, SIM_NX)
            path = workdir / f"joint{K}.json"
            path.write_text(json.dumps({"K": K, "features": X.tolist(), "joint": joint.tolist()}))
            joints[K] = (joint, X, str(path))
        self.settings = [SimSetting(name, K, i, seed, workdir, joints)
                         for i, (name, K) in enumerate(SIM_SETTINGS)]
        self.hashes = {}
        self.draws = 0
        self.json_bytes = 0

    def round(self, api: Api, meter: Meter) -> list:
        out = []
        for st in self.settings:
            for rung, n in COUNTS.items():
                data = st.path(rung, "cli", "data")
                sim = ["simulate", "--joint", st.joint_path, *st.args, "--n", str(n),
                       "--seed", str(st.seed), "--out"]
                with api.tracer.span("op", setting=st.name, rung=rung, n=n):
                    meter.cli(api, sim + [data])
                    if rung == "n-small":   # same seed again: the file must not change
                        meter.cli(api, sim + [st.path(rung, "cli", "rerun")])
                    code, text = meter.cli(api, ["train", "--data", data, "--joint", st.joint_path,
                                                 "--lr", str(LEARNING_RATE), "--epochs", str(EPOCHS),
                                                 "--out", st.path(rung, "cli", "model")])
                out.append((st, rung, n, "cli", code, text))
        return out

    def check(self, outputs: list) -> list:
        errs = []
        for st, rung, n, route, code, text in outputs:
            if code != 0:
                continue        # counted as failed
            what = f"{st.name}/{rung}/{route}"
            data = Path(st.path(rung, route, "data")).read_bytes()
            if rung == "n-small":
                errs += checks.check_same_bytes(what, data, Path(st.path(rung, route, "rerun")).read_bytes())
            digest = hashlib.sha256(data).hexdigest()
            if (st.name, rung) not in self.hashes:
                ds = json.loads(data)
                errs += checks.check_draw_counts(what, ds, {c: n for c in SIM_CHANNELS[st.name]})
                if st.name in POINT_SETTINGS and rung == "n-large":
                    laws = ref.point_channel_laws(st.name, st.joint, st.params)
                    errs += checks.check_point_frequencies(what, ds, laws, stream=st.name in LABEL_STREAMS)
                self.hashes[st.name, rung] = digest
            elif digest != self.hashes[st.name, rung]:
                errs.append(f"{what}: dataset differs from the first one made with the same seed")
            model_text = Path(st.path(rung, route, "model")).read_text()
            model = json.loads(model_text)
            program_risk = wslrr.risk.classification_risk(
                st.fj, LinearModel(np.asarray(model["weights"]), np.asarray(model["bias"])),
                LossSpec("logistic"))
            errs += checks.check_trained_model(what, model_text, text, st.joint, st.X,
                                               program_risk, "logistic", TRAIN_SEED)
        return errs

    # ---- traced: the library calls `wslrr simulate` and `wslrr train` make ------

    def _simulate(self, api, st, n, out_path):
        j = api.core.joint_from_json(Path(st.joint_path).read_text())
        spec = api.scenarios.scenario_from_json(st.scenario_json)
        ds = api.datagen.sample_weak_dataset(spec, j, n, seed=st.seed)
        text = api.datagen.dataset_to_json(ds)
        _write(out_path, text)
        self.draws += sum(c.n_draws for c in ds.channels)
        self.json_bytes += len(text)

    def _train(self, api, st, data_path, model_path):
        ls = LossSpec("logistic")
        cfg = TrainConfig(learning_rate=LEARNING_RATE, epochs=EPOCHS, seed=TRAIN_SEED)
        j = api.core.joint_from_json(Path(st.joint_path).read_text())
        ds = api.datagen.dataset_from_json(Path(data_path).read_text())
        model, trace = api.train.train_erm(ds, ds.spec, ls, cfg, j)
        _write(model_path, api.train.model_to_json(model))
        Path(model_path).with_suffix(".trace.csv").write_text(
            "epoch,risk\n" + "\n".join(f"{e},{v!r}" for e, v in enumerate(trace)) + "\n")
        final = api.risk.classification_risk(j, model, ls)
        return ds, j, (f"final empirical risk {trace[-1]:.6f}; "
                       f"exact risk of trained model {final:.6f}")

    def traced_round(self, api: Api, meter: Meter) -> list:
        """The CLI round's work as library calls, one span each, followed by
        one call each of channel_terms, empirical_risk and empirical_gradient
        (inside train_erm they are out of the benchmark's sight).  Only the
        first part is timed by ``meter``."""
        out, probe = [], Meter()
        ls = LossSpec("logistic")
        self.draws = self.json_bytes = 0
        for st in self.settings:
            for rung, n in COUNTS.items():
                data = st.path(rung, "lib", "data")
                with api.tracer.span("op", setting=st.name, rung=rung, n=n, route="library"):
                    meter.call(self._simulate, api, st, n, data)
                    if rung == "n-small":
                        meter.call(self._simulate, api, st, n, st.path(rung, "lib", "rerun"))
                    res = meter.call(self._train, api, st, data, st.path(rung, "lib", "model"))
                out.append((st, rung, n, "lib", 1 if res is FAILED else 0, "" if res is FAILED else res[2]))
                if res is FAILED:
                    continue
                ds, j, _ = res
                with api.tracer.span("op", setting=st.name, rung=rung, n=n, route="probe"):
                    model0 = probe.call(api.train.init_model, j.K, j.d_feat, TRAIN_SEED)
                    probe.call(api.risk.channel_terms, ds, ds.spec, j)
                    probe.call(api.risk.empirical_risk, ds, ds.spec, model0, ls, j)
                    probe.call(api.train.empirical_gradient, ds, ds.spec, model0, ls, j)
        meter.attempted += probe.attempted
        meter.failed += probe.failed
        meter.errors += probe.errors
        return out

    def check_traced(self, outputs: list) -> list:
        """The library route must write the very files the CLI wrote."""
        errs = self.check(outputs)
        for st, rung, n, route, code, text in outputs:
            for what in ("data", "model"):
                if code == 0 and Path(st.path(rung, "cli", what)).exists():
                    errs += checks.check_same_bytes(
                        f"{st.name}/{rung} library {what} file against the CLI's",
                        Path(st.path(rung, "cli", what)).read_bytes(),
                        Path(st.path(rung, "lib", what)).read_bytes())
        return errs

    def layer_metrics(self, tr: Tracer, plain: Meter, traced: Meter) -> dict:
        def times(name, **tags):
            return [t for t, _ in tr.calls(name, **tags)]

        def mean_ms(name, **tags):
            ts = times(name, **tags)
            return 1e3 * sum(ts) / len(ts)

        sample_s = sum(times("datagen.sample_weak_dataset"))
        out = {
            "core.joint_from_json_ms": (mean_ms("core.joint_from_json"), "ms"),
            "risk.channel_terms_ms": (mean_ms("risk.channel_terms", rung="n-large"), "ms"),
            "datagen.sample_s": (sample_s, "s"),
            "datagen.draws_per_s": (self.draws / sample_s, "1/s"),
            "datagen.to_json_s": (sum(times("datagen.dataset_to_json")), "s"),
            "datagen.from_json_s": (sum(times("datagen.dataset_from_json")), "s"),
            "datagen.json_mb": (self.json_bytes / 1e6, "MB"),
            "train.empirical_gradient_ms.n-large": (mean_ms("train.empirical_gradient", rung="n-large"), "ms"),
            "train.epochs": (EPOCHS, "count"),
            "cli.simulate_s": (plain.cli_s["simulate"], "s"),
            "cli.train_s": (plain.cli_s["train"], "s"),
            "trace.overhead_s.simulate-train": (traced.wall - plain.wall, "s"),
        }
        for rung in COUNTS:
            out[f"risk.empirical_risk_ms.{rung}"] = (mean_ms("risk.empirical_risk", rung=rung), "ms")
            out[f"train.epoch_ms.{rung}"] = (mean_ms("train.train_erm", rung=rung) / EPOCHS, "ms")
        return out


# =============================================================================
# harness
# =============================================================================

# `wslrr verify-all` with no options: K=4, nx=6, 20 trials, seed 7, d_feat 3;
# the Monte-Carlo checks draw their joint and model at trial 17
HARNESS_CFG = {"K": 4, "nx": 6, "d": 3, "seed": 7, "mc_trial": 17}
HARNESS_CHECKS = 110
VERIFY_GROUPS = ("formulation", "reconstruction", "risk-equality", "closed-form",
                 "mc-consistency", "gradient-check", "erm-sanity")


class Harness:
    name = "harness"

    def __init__(self, seed: int, workdir: Path):
        # the command under test is the default configuration, so the seed
        # does not change this workload's inputs
        self.report = str(workdir / "report.json")

    def round(self, api: Api, meter: Meter) -> list:
        with api.tracer.span("op", command="verify-all"):
            code, _ = meter.cli(api, ["verify-all", "--out", self.report])
        return [code]

    def check(self, outputs: list) -> list:
        code = outputs[0]
        if code is FAILED:
            return []
        report = json.loads(Path(self.report).read_text()) if Path(self.report).exists() else {}
        return checks.check_harness_report(report, code, HARNESS_CHECKS, HARNESS_CFG)

    def traced_round(self, api: Api, meter: Meter) -> list:
        """The registry behind verify-all, each task timed on its own, serially."""
        tasks = meter.call(api.verify.build_registry, api.verify.VerifyConfig())
        reports = []
        for task, fn in ([] if tasks is FAILED else tasks):
            group = task.split(":", 1)[0]
            with api.tracer.span("verify.task", task=task,
                                 group=group if group in VERIFY_GROUPS else "other"):
                out = meter.call(fn)
            if out is not FAILED:
                reports += out if isinstance(out, list) else [out]
        return reports

    def check_traced(self, reports: list) -> list:
        errs = [f"registry check {r.name}[{r.scenario}] failed: err {r.max_abs_err:.3e}, tol {r.tol:.1e}"
                for r in reports if not r.passed]
        if len(reports) != HARNESS_CHECKS:
            errs.append(f"registry gave {len(reports)} checks, expected {HARNESS_CHECKS}")
        self.checks = len(reports)
        return errs

    def layer_metrics(self, tr: Tracer, plain: Meter, traced: Meter) -> dict:
        groups = {g: 0.0 for g in VERIFY_GROUPS + ("other",)}
        for _, name, _, start, end, tags in tr.spans:
            if name == "verify.task":
                groups[tags["group"]] += end - start
        out = {f"verify.{g}_s": (t, "s") for g, t in groups.items()}
        out["verify.registry_serial_s"] = (sum(groups.values()), "s")
        out["verify.checks"] = (self.checks, "count")
        out["cli.verify_all_s"] = (plain.cli_s["verify-all"], "s")
        return out


WORKLOADS = {w.name: w for w in (Harness, ExactSweep, SimulateTrain)}

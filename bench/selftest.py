#!/usr/bin/env python3
"""Self-test of the benchmark's checks, at tiny sizes, in a few seconds.

    python3 bench/selftest.py

Every check in checks.py is run twice: on the program's own output, where
it must hold, and on a copy made slightly wrong (a risk off by 1e-9, a
matrix entry off by 1e-11, a model file with one weight changed, ...),
where it must fail.  Prints one line per check and exits 1 if any check
held on the wrong input or failed on the right one.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
from wslrr import cli  # noqa: E402
from wslrr.core import marginals, validate_joint  # noqa: E402
from wslrr.datagen import dataset_to_json, sample_weak_dataset  # noqa: E402
from wslrr.decontam import decontaminate  # noqa: E402
from wslrr.risk import LossSpec, classification_risk, loss_matrix  # noqa: E402
from wslrr.scenarios import CL, PU, Soft, Sconf, observed_distribution, pair_distribution  # noqa: E402
from wslrr.train import LinearModel  # noqa: E402
from wslrr.verify import VerifyConfig, verify_mc_consistency  # noqa: E402
from workloads import HARNESS_CFG, make_joint, make_model  # noqa: E402

results = []


def expect(name: str, right: list, wrong: list) -> None:
    ok = not right and bool(wrong)
    results.append(ok)
    detail = f"right input: {right}" if right else ("wrong input passed" if not wrong else wrong[0])
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def nudged(a, delta, index=(0,)):
    out = np.array(a, dtype=np.float64, copy=True)
    out[index] += delta
    return out


def main() -> int:
    rng = np.random.default_rng(0)
    joint2, X2 = make_joint(rng, 2, 5)
    joint4, X4 = make_joint(rng, 4, 5)
    j2, j4 = validate_joint(2, X2, joint2), validate_joint(4, X4, joint4)
    model = make_model(rng, 2)
    W, b = model.weights, model.bias

    for loss in ("logistic", "squared", "zero-one"):
        risk = classification_risk(j2, model, LossSpec(loss))
        expect(f"risk[{loss}]", checks.check_risk("r", risk, joint2, X2, W, b, loss),
               checks.check_risk("r", risk + 1e-9, joint2, X2, W, b, loss))
        table = loss_matrix(LossSpec(loss), model, j2)
        expect(f"loss table[{loss}]", checks.check_loss_table("t", table, X2, W, b, loss),
               checks.check_loss_table("t", nudged(table, 1e-11, (1, 2)), X2, W, b, loss))

    m = marginals(j2)
    expect("marginals", checks.check_marginals("m", m.priors, m.instance_marginal, joint2),
           checks.check_marginals("m", nudged(m.priors, 1e-11), m.instance_marginal, joint2))

    cm, dr = observed_distribution(PU(), j2), decontaminate(PU(), j2, method="inversion")
    expect("reconstruction", checks.check_reconstruction("d", dr.matrices, cm.observed, joint2),
           checks.check_reconstruction("d", nudged(dr.matrices, 1e-9, (2, 0, 1)), cm.observed, joint2))
    expect("mixture channel masses", checks.check_channel_masses("c", "mixture", cm.observed, joint2, "PU", {}),
           checks.check_channel_masses("c", "mixture", nudged(cm.observed, 1e-11, (3, 1)), joint2, "PU", {}))
    cm4 = observed_distribution(CL(), j4)
    expect("label channel masses", checks.check_channel_masses("c", "label", cm4.observed, joint4, "CL", {}),
           checks.check_channel_masses("c", "label", nudged(cm4.observed, 1e-11, (0, 2)), joint4, "CL", {}))
    cms = observed_distribution(Soft(), j4)
    expect("confidence channel masses",
           checks.check_channel_masses("c", "confidence", cms.observed, joint4, "Soft", {}),
           checks.check_channel_masses("c", "confidence", nudged(cms.observed, 1e-11, (4, 3)), joint4, "Soft", {}))

    drs = decontaminate(Sconf(), j2, method="sconf-special")
    xx = ref.pair_law("XX", joint2)
    expect("Sconf pair reconstruction", checks.check_pair_reconstruction("p", drs.pair_matrices, xx, joint2),
           checks.check_pair_reconstruction("p", nudged(drs.pair_matrices, 1e-9, (1, 3, 0, 0)), xx, joint2))
    pd = pair_distribution(Sconf(), j2, channel="XX").matrix
    expect("pair law", checks.check_pair_law("q", pd, "XX", joint2),
           checks.check_pair_law("q", nudged(pd, 1e-11, (0, 4)), "XX", joint2))

    # sampling: counts, frequencies and reruns on a 20000-draw PU dataset
    ds = json.loads(dataset_to_json(sample_weak_dataset(PU(), j2, 20_000, seed=3)))
    short = copy.deepcopy(ds)
    short["channels"][0]["items"].pop()
    expect("draw counts", checks.check_draw_counts("n", ds, {"P": 20_000, "U": 20_000}),
           checks.check_draw_counts("n", short, {"P": 20_000, "U": 20_000}))
    laws = ref.point_channel_laws("PU", joint2, {})
    swapped = {"P": laws["U"], "U": laws["P"]}      # P drawn from the wrong law
    expect("point frequencies", checks.check_point_frequencies("f", ds, laws, stream=False),
           checks.check_point_frequencies("f", ds, swapped, stream=False))
    text = dataset_to_json(sample_weak_dataset(PU(), j2, 100, seed=3)).encode()
    expect("same bytes", checks.check_same_bytes("s", text, text),
           checks.check_same_bytes("s", text, text.replace(b'"seed": 3', b'"seed": 4')))

    # training through the CLI on a tiny joint, then a model with one weight changed
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        jp, dp, mp = (str(Path(tmp) / f) for f in ("joint.json", "data.json", "model.json"))
        Path(jp).write_text(json.dumps({"K": 2, "features": X2.tolist(), "joint": joint2.tolist()}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = (cli.main(["simulate", "--joint", jp, "--scenario", "PU", "--n", "2000",
                               "--seed", "1", "--out", dp]),
                     cli.main(["train", "--data", dp, "--joint", jp, "--lr", "0.2",
                               "--epochs", "10", "--out", mp]))
        assert codes == (0, 0), codes
        text = Path(mp).read_text()
        trained = json.loads(text)
        risk = classification_risk(j2, LinearModel(np.asarray(trained["weights"]),
                                                   np.asarray(trained["bias"])), LossSpec("logistic"))
        changed = copy.deepcopy(trained)
        changed["weights"][0][1] += 1e-3
        right = checks.check_trained_model("m", text, out.getvalue(), joint2, X2, risk, "logistic", 0)
        expect("trained model, one weight changed", right,
               checks.check_trained_model("m", json.dumps(changed), out.getvalue(), joint2, X2,
                                          risk, "logistic", 0))
        W0, b0 = ref.initial_model(2, X2.shape[1], 0)
        start = json.dumps({"K": 2, "d": 3, "weights": W0.tolist(), "bias": b0.tolist()})
        start_risk = ref.exact_risk(joint2, X2, W0, b0, "logistic")
        printed = f"exact risk of trained model {start_risk:.6f}"
        expect("trained model no better than the initial one", right,
               checks.check_trained_model("m", start, printed, joint2, X2, start_risk, "logistic", 0))

    # the harness report: a real Monte-Carlo entry, then a wrong exact value
    cfg = VerifyConfig(K=HARNESS_CFG["K"], nx=HARNESS_CFG["nx"], seed=HARNESS_CFG["seed"],
                       d_feat=HARNESS_CFG["d"], mc_samples=2_000)
    entry = verify_mc_consistency("CL", cfg).to_dict()
    report = {"checks": [entry], "pass": entry["pass"]}
    off = copy.deepcopy(report)
    off["checks"][0]["params"]["exact"] += 1e-11
    expect("harness exact risk", checks.check_harness_report(report, 0, 1, HARNESS_CFG),
           checks.check_harness_report(off, 0, 1, HARNESS_CFG))
    failing = copy.deepcopy(report)
    failing["checks"][0]["pass"] = failing["pass"] = False
    expect("harness failed check", checks.check_harness_report(report, 0, 1, HARNESS_CFG),
           checks.check_harness_report(failing, 1, 1, HARNESS_CFG))

    print(f"{sum(results)}/{len(results)} checks behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

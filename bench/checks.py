"""Correctness checks of the benchmark.

Each check takes the program's outputs together with the inputs the
benchmark generated and returns a list of failure messages, empty when the
check holds.  The references come from :mod:`reference`, which does not use
``wslrr``.  ``selftest.py`` shows every check failing on a wrong input.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

import reference as ref

TOL_RISK = 1e-10            # rewritten and exact risk against the numpy risk
TOL_MATRIX = 1e-12          # reconstruction, channel sums, pair laws, loss tables
TOL_HARNESS_EXACT = 1e-12   # the harness report's exact risk against numpy
MC_SIGMAS = 5.0             # sampling frequencies against the channel law
PRINTED_DIGITS = 6          # `wslrr train` prints the exact risk with 6 decimals


def _over(what: str, err: float, tol: float) -> list:
    return [] if err <= tol else [f"{what}: error {err:.3e} above {tol:.0e}"]


# ---- exact-sweep -------------------------------------------------------------

def check_risk(what: str, value: float, joint, features, W, b, loss: str) -> list:
    """A risk the program computed against the numpy exact risk."""
    return _over(what, abs(value - ref.exact_risk(joint, features, W, b, loss)), TOL_RISK)


def check_loss_table(what: str, table, features, W, b, loss: str) -> list:
    expect = ref.loss_table(loss, features @ W.T + b)
    return _over(what, float(np.max(np.abs(np.asarray(table) - expect))), TOL_MATRIX)


def check_marginals(what: str, priors, instance_marginal, joint) -> list:
    err = max(float(np.max(np.abs(priors - joint.sum(axis=1)))),
              float(np.max(np.abs(instance_marginal - joint.sum(axis=0)))))
    return _over(what, err, TOL_MATRIX)


def check_reconstruction(what: str, matrices, observed, joint) -> list:
    """max over x of |D(x) observed(x) - P(x)|."""
    rec = np.einsum("ikm,im->ki", matrices, observed)
    return _over(what, float(np.max(np.abs(rec - joint))), TOL_MATRIX)


def check_pair_reconstruction(what: str, pair_matrices, pair_law, joint) -> list:
    """Sconf: summing the per-pair diagonal against the pair law over the
    second instance gives P(Y=k, x) for both classes."""
    diag = np.diagonal(pair_matrices, axis1=2, axis2=3)          # (n, n, 2)
    rec = np.einsum("ab,abk->ka", pair_law, diag)
    return _over(what, float(np.max(np.abs(rec - joint))), TOL_MATRIX)


def check_channel_masses(what: str, family: str, observed, joint, name: str, params: dict) -> list:
    """Mixture channels are densities over x (each column sums to one); label
    channels split P(x) (each row sums to P(x)); confidence channels carry the
    super-class mass P(Y in sampled classes, x) in every column."""
    observed = np.asarray(observed)
    if family == "mixture":
        err = float(np.max(np.abs(observed.sum(axis=0) - 1.0)))
    elif family == "label":
        err = float(np.max(np.abs(observed.sum(axis=1) - joint.sum(axis=0))))
    else:
        err = float(np.max(np.abs(observed - ref.super_class_mass(name, joint, params)[:, None])))
    return _over(what, err, TOL_MATRIX)


def check_pair_law(what: str, matrix, tag: str, joint) -> list:
    return _over(what, float(np.max(np.abs(np.asarray(matrix) - ref.pair_law(tag, joint)))),
                 TOL_MATRIX)


# ---- simulate-train ----------------------------------------------------------

def check_draw_counts(what: str, dataset: dict, requested: dict) -> list:
    """Each sampling channel holds exactly the requested number of draws; the
    label stream SX counts all label channels together."""
    counts = {c["label"]: len(c["items"]) for c in dataset["channels"]}
    if "SX" in requested:
        counts = {"SX": sum(counts.values())}
    return [] if counts == requested else [f"{what}: draw counts {counts}, requested {requested}"]


def chi2_sigmas(counts: np.ndarray, p: np.ndarray) -> float:
    """Pearson's statistic of ``counts`` against the law ``p``, as standard
    deviations of a normal (Wilson-Hilferty), over the cells with p > 0."""
    live = p > 0.0
    n, k = counts.sum(), int(live.sum()) - 1
    if k < 1:
        return 0.0
    expected = n * p[live]
    stat = float(np.sum((counts[live] - expected) ** 2 / expected))
    return ((stat / k) ** (1.0 / 3.0) - (1.0 - 2.0 / (9.0 * k))) / math.sqrt(2.0 / (9.0 * k))


def check_point_frequencies(what: str, dataset: dict, laws: dict, stream: bool) -> list:
    """Instance frequencies of every point channel within MC_SIGMAS of the
    channel's law, given the channel's size, with no draw of an instance the
    law gives no mass.  In a label stream (``stream``) the channel sizes are
    random too, and each is held to MC_SIGMAS of its binomial law.

    The instance test is one Pearson statistic per channel rather than one
    z-score per instance: a label stream has over a thousand (channel,
    instance) cells, some expecting fewer than five draws, and per-cell 5σ
    tests then fail by chance on some seeds."""
    by_label = {c["label"]: c["items"] for c in dataset["channels"]}
    total_mass = sum(float(np.sum(v)) for v in laws.values())
    total_draws = sum(len(by_label.get(label, [])) for label in laws)
    out = []
    for label, mass in laws.items():
        items = by_label.get(label, [])
        idx = np.array([it["index"] if isinstance(it, dict) else it for it in items], dtype=int)
        p = np.asarray(mass, dtype=np.float64) / float(np.sum(mass))
        counts = np.bincount(idx, minlength=p.size)
        if counts.size != p.size:
            out.append(f"{what}/{label}: instance index {int(idx.max())} outside 0..{p.size - 1}")
            continue
        if np.any(counts[p == 0.0]):
            out.append(f"{what}/{label}: draws of instances the law gives no mass: "
                       f"{np.nonzero((p == 0.0) & (counts > 0))[0].tolist()}")
        z = chi2_sigmas(counts, p)
        if z > MC_SIGMAS:
            worst = int(np.argmax(np.abs(counts - idx.size * p)))
            out.append(f"{what}/{label}: instance frequencies {z:.1f} sd from the law "
                       f"(instance {worst}: {counts[worst]} draws, {idx.size * p[worst]:.1f} expected)")
        if stream:
            share = float(np.sum(mass)) / total_mass
            sd = math.sqrt(total_draws * share * (1.0 - share))
            if abs(idx.size - total_draws * share) > MC_SIGMAS * sd:
                out.append(f"{what}/{label}: channel size {idx.size}, "
                           f"expected {total_draws * share:.1f} (sd {sd:.1f})")
    return out


def check_same_bytes(what: str, first: bytes, second: bytes) -> list:
    if first == second:
        return []
    return [f"{what}: rerun with the same seed differs "
            f"(sha256 {hashlib.sha256(first).hexdigest()[:12]} vs {hashlib.sha256(second).hexdigest()[:12]})"]


def check_trained_model(what: str, model_text: str, stdout: str, joint, features,
                        program_risk: float, loss: str, init_seed: int) -> list:
    """The exact risk of the written model: the program's value within
    TOL_RISK of numpy, the printed figure equal to numpy at its printed
    precision, and below the exact risk of the initial model."""
    model = json.loads(model_text)
    W, b = np.asarray(model["weights"]), np.asarray(model["bias"])
    expect = ref.exact_risk(joint, features, W, b, loss)
    out = _over(f"{what} exact risk of the written model", abs(program_risk - expect), TOL_RISK)
    marker = "exact risk of trained model "
    lines = [ln for ln in stdout.splitlines() if marker in ln]
    if not lines:
        return out + [f"{what}: train printed no exact risk"]
    printed = float(lines[-1].split(marker)[1].split()[0])
    if abs(printed - expect) > 0.5 * 10.0 ** -PRINTED_DIGITS + 1e-12:
        out.append(f"{what}: printed exact risk {printed} but the written model has {expect:.12f}")
    W0, b0 = ref.initial_model(joint.shape[0], features.shape[1], init_seed)
    start = ref.exact_risk(joint, features, W0, b0, loss)
    if not expect < start:
        out.append(f"{what}: trained exact risk {expect:.6f} not below the initial {start:.6f}")
    return out


# ---- harness -----------------------------------------------------------------

def check_harness_report(report: dict, exit_code: int, expected_checks: int,
                         cfg: dict) -> list:
    """verify-all exits 0, every check passes, and each Monte-Carlo entry's
    exact risk equals the numpy risk of the same joint and model."""
    out = [] if exit_code == 0 else [f"verify-all exited {exit_code}"]
    checks = report.get("checks", [])
    if len(checks) != expected_checks:
        out.append(f"verify-all reported {len(checks)} checks, expected {expected_checks}")
    failed = [f"{c['name']}[{c['scenario']}]" for c in checks if not c.get("pass")]
    if failed or not report.get("pass"):
        out.append(f"verify-all failed checks: {failed}")
    mc = [c for c in checks if c["name"].startswith("mc-consistency")]
    if not mc:
        out.append("verify-all report has no mc-consistency entry")
    for c in mc:
        name = c["scenario"]
        joint, feats = ref.harness_joint(name, cfg["K"], cfg["nx"], cfg["d"], cfg["seed"], cfg["mc_trial"])
        W, b = ref.initial_model(joint.shape[0], cfg["d"], cfg["seed"] + 31 * cfg["mc_trial"] + 1)
        expect = ref.exact_risk(joint, feats, W, b, "logistic")
        out += _over(f"mc-consistency[{name}] exact", abs(c["params"]["exact"] - expect), TOL_HARNESS_EXACT)
    return out

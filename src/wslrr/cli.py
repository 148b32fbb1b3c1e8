"""Command line front end: verify, verify-all, simulate, train.

Each command imports the modules it runs when it runs, so ``simulate``
never loads ``verify``, ``risk`` or ``train``.

Exit codes: 0 success / all checks pass, 1 failed checks or divergence,
2 usage or validation problems, a file that cannot be read or written, or
a request too large for memory.  Stdout carries a human summary; files are
the machine-readable artifacts (JSON reports, datasets, models, and a
two-column "epoch,risk" CSV loss trace).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .core import joint_from_json, marginals as compute_marginals, parse_json
from .datagen import dataset_from_json, dataset_to_json, sample_weak_dataset
from .errors import Diverged, ValidationError, WslrrError
from .scenarios import _scenario_from_object, scenario_from_json, validate_spec

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _load_scenario(arg: str, params_json: str | None):
    """A scenario given by name (optionally with --params JSON) or by file."""
    path = Path(arg)
    if path.exists():
        return scenario_from_json(path.read_text())
    params = parse_json(params_json, "--params JSON") if params_json else {}
    return _scenario_from_object({"name": arg, "params": params})


def _parse_sizes(text: str):
    """Either one integer for every channel or label=count pairs."""
    text = text.strip()
    try:
        if "=" not in text:
            return int(text)
        out = {}
        for part in text.split(","):
            label, _, count = part.partition("=")
            if not count:
                raise ValidationError(f"bad size spec {part!r}; use label=count")
            if label.strip() in out:
                raise ValidationError(f"channel {label.strip()!r} is given twice")
            out[label.strip()] = int(count)
        return out
    except ValidationError:  # a ValueError, but already says what is wrong
        raise
    except ValueError as e:
        raise ValidationError(f"bad --n value {text!r}: {e}") from e


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, ending in a newline.  The newline is written
    on its own: appending it would copy a dataset's text, megabytes at the
    peak of ``simulate``."""
    if path:
        with Path(path).open("w") as f:
            f.write(text)
            if not text.endswith("\n"):
                f.write("\n")


def cmd_verify(args) -> int:
    from .verify import (TOL_MATRIX, TOL_RISK, AggregateReport, CheckInput, seeded_model,
                         verify_formulation, verify_reconstruction, verify_risk_equality)
    if not 0 <= args.seed <= 2 ** 64 - 2:  # the model's Philox key, seed + 1, is a u64
        raise ValidationError(f"--seed must be an integer in [0, 2**64 - 2], got {args.seed}")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValidationError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    joint = joint_from_json(Path(args.joint).read_text())
    spec = _load_scenario(args.scenario, args.params)
    validate_spec(spec, compute_marginals(joint))
    tol_matrix = args.tol if args.tol is not None else TOL_MATRIX
    tol_risk = args.tol if args.tol is not None else TOL_RISK
    inp = CheckInput(spec, joint, seeded_model(joint, args.seed, 0))
    checks = [
        verify_formulation(inp, tol=tol_matrix, seed=args.seed),
        verify_reconstruction(inp, tol=tol_matrix, seed=args.seed),
        verify_risk_equality(inp, tol=tol_risk, seed=args.seed),
    ]
    report = AggregateReport(seed=args.seed, checks=tuple(checks),
                             passed=all(c.passed for c in checks))
    _write(args.out, report.to_json())
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name} {c.scenario} "
              f"err={c.max_abs_err:.3e} tol={c.tol:.1e}")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_verify_all(args) -> int:
    from .verify import VerifyConfig, verify_all
    cfg = VerifyConfig(K=args.K, nx=args.nx, trials=args.trials, seed=args.seed)
    report = verify_all(cfg)
    _write(args.out, report.to_json())
    for c in report.checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name} [{c.scenario}] "
              f"err={c.max_abs_err:.3e} tol={c.tol:.1e}")
    n_pass = sum(c.passed for c in report.checks)
    print(f"{n_pass}/{len(report.checks)} checks passed")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_simulate(args) -> int:
    joint = joint_from_json(Path(args.joint).read_text())
    spec = _load_scenario(args.scenario, args.params)
    sizes = _parse_sizes(args.n)
    ds = sample_weak_dataset(spec, joint, sizes, seed=args.seed)
    text = dataset_to_json(ds)
    _write(args.out, text)
    if not args.out:
        print(text)
    else:
        counts = ", ".join(f"{c.label}:{c.n_draws}" for c in ds.channels if c.n_draws)
        print(f"wrote {args.out} ({spec.name}, channels {counts or 'empty'})")
    return EXIT_OK


def cmd_train(args) -> int:
    from .risk import LossSpec, classification_risk
    from .train import TrainConfig, model_to_json, train_erm
    joint = joint_from_json(Path(args.joint).read_text())
    ds = dataset_from_json(Path(args.data).read_text())
    ls = LossSpec(args.loss)
    cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed, l2=args.l2)
    model, trace = train_erm(ds, ds.spec, ls, cfg, joint)
    if args.out:
        _write(args.out, model_to_json(model))
        trace_path = Path(args.out).with_suffix(".trace.csv")
    else:
        trace_path = Path("loss_trace.csv")
        print(model_to_json(model))
    trace_path.write_text("epoch,risk\n" + "\n".join(
        f"{e},{v!r}" for e, v in enumerate(trace)) + "\n")
    final = classification_risk(joint, model, ls)
    print(f"final empirical risk {trace[-1]:.6f}; exact risk of trained model {final:.6f}")
    print(f"loss trace written to {trace_path}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``wslrr`` parser, built once per process and shared by every
    :func:`main` call; parsing reads it and never changes it."""
    p = argparse.ArgumentParser(prog="wslrr",
                                description="Contamination matrices, risk rewrites and "
                                            "corrected-loss training for weak supervision.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="check one scenario against a joint")
    v.add_argument("--joint", required=True)
    v.add_argument("--scenario", required=True, help="scenario name or spec JSON file")
    v.add_argument("--params", default=None, help="inline params JSON for a named scenario")
    v.add_argument("--tol", type=float, default=None)
    v.add_argument("--seed", type=int, default=7)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verify)

    va = sub.add_parser("verify-all", help="run the full identity harness")
    va.add_argument("--K", type=int, default=4)
    va.add_argument("--nx", type=int, default=6,
                    help="instance count of the reduction-graph, pair and Monte-Carlo checks; the "
                         "formulation, reconstruction, risk-equality, closed-form, method-agreement "
                         "and gradient checks draw joints of 3 to 8 instances whatever --nx is")
    va.add_argument("--trials", type=int, default=20)
    va.add_argument("--seed", type=int, default=7)
    va.add_argument("--out", default=None)
    va.set_defaults(fn=cmd_verify_all)

    s = sub.add_parser("simulate", help="sample a weak dataset")
    s.add_argument("--joint", required=True)
    s.add_argument("--scenario", required=True)
    s.add_argument("--params", default=None)
    s.add_argument("--n", required=True, help='sample sizes: "1000" or "P=500,U=2000"')
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_simulate)

    t = sub.add_parser("train", help="corrected-loss ERM on a weak dataset")
    t.add_argument("--data", required=True)
    t.add_argument("--joint", required=True)
    t.add_argument("--loss", default="logistic", choices=("logistic", "squared"))
    t.add_argument("--lr", type=float, required=True)
    t.add_argument("--epochs", type=int, required=True)
    t.add_argument("--l2", type=float, default=0.0)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", default=None)
    t.set_defaults(fn=cmd_train)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except Diverged as e:
        print(f"diverged: {e}", file=sys.stderr)
        return EXIT_FAIL
    except ValidationError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeError, MemoryError) as e:
        # a missing, unreadable or non-UTF-8 file, or a request beyond the
        # machine, such as simulate --n 2**40
        print(f"{type(e).__name__}: {str(e) or 'not enough memory'}", file=sys.stderr)
        return EXIT_USAGE
    except WslrrError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

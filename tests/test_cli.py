import builtins
import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wslrr.cli
import wslrr.errors
from wslrr.cli import build_parser, main
from wslrr.core import joint_to_json, validate_joint
from wslrr.datagen import dataset_from_json, dataset_to_json, sample_weak_dataset
from wslrr.scenarios import CL, PU, SCENARIO_TYPES
from wslrr.train import init_model, model_from_json
from wslrr.verify import TOL_MATRIX, TOL_RISK, random_joint, scenario_joint


@pytest.fixture
def joint_file(tmp_path):
    j = scenario_joint("PU", 2, 5, 3, seed=11, trial=0)
    path = tmp_path / "joint.json"
    path.write_text(joint_to_json(j))
    return path


class TestVerifyCommand:
    def test_pass_run(self, joint_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--joint", str(joint_file), "--scenario", "PU",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] and len(report["checks"]) == 3
        assert "PASS" in capsys.readouterr().out

    def test_degenerate_params_exit_2(self, joint_file, capsys):
        code = main(["verify", "--joint", str(joint_file), "--scenario", "UU",
                     "--params", '{"gamma_1": 0.4, "gamma_2": 0.6}'])
        assert code == 2
        assert "DegenerateParams" in capsys.readouterr().err

    def test_unknown_scenario_exit_2(self, joint_file, capsys):
        assert main(["verify", "--joint", str(joint_file), "--scenario", "NoSuch"]) == 2
        assert "NoSuch" in capsys.readouterr().err

    def test_prior_within_the_gate_exit_2(self, tmp_path, capsys):
        # the rewrites of SU, DU, SD and Sconf divide by |pi_p - 1/2|, here 1e-6
        joint = np.array([[0.2, 0.300001], [0.3, 0.199999]])
        path = tmp_path / "joint.json"
        path.write_text(joint_to_json(validate_joint(2, [[0.0], [1.0]], joint)))
        assert main(["verify", "--joint", str(path), "--scenario", "SU"]) == 2
        assert "DegenerateParams" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["verify", "--joint", str(tmp_path / "nope.json"),
                     "--scenario", "PU"]) == 2

    @pytest.mark.parametrize("flag, want", [([], [TOL_MATRIX, TOL_MATRIX, TOL_RISK]),
                                            (["--tol", "1e-3"], [1e-3, 1e-3, 1e-3])])
    def test_tol_sets_every_report(self, joint_file, tmp_path, flag, want):
        out = tmp_path / "report.json"
        assert main(["verify", "--joint", str(joint_file), "--scenario", "PU", "--out", str(out), *flag]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert [c["name"] for c in checks] == ["formulation", "reconstruction[inversion]", "risk-equality"]
        assert [c["tol"] for c in checks] == want

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_scores_that_overflow_fail_only_risk_equality(self, tmp_path):
        # every feature at 1e308 with the sign of the model's class-1 weight, so
        # that class's score overflows; the model is the one `verify --seed 7` scores
        w = init_model(2, 40, 7 + 1).weights[0]
        path, out = tmp_path / "joint.json", tmp_path / "report.json"
        path.write_text(joint_to_json(validate_joint(2, [1e308 * np.sign(w)] * 2, [[0.3, 0.1], [0.2, 0.4]])))
        assert main(["verify", "--joint", str(path), "--scenario", "PU", "--seed", "7", "--out", str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        assert [c["pass"] for c in checks] == [True, True, False]
        assert checks[2]["params"] == {"loss": "logistic", "error": "NonFiniteScore: scores contain NaN or infinity"}

    def test_scenario_from_file(self, joint_file, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"name": "UU", "params": {"gamma_1": 0.2, "gamma_2": 0.3}}')
        assert main(["verify", "--joint", str(joint_file), "--scenario", str(spec_path)]) == 0


class TestParser:
    TRAIN = ["train", "--data", "d.json", "--joint", "j.json", "--lr", "0.1", "--epochs", "1"]

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_usage_error_then_a_valid_run(self, joint_file, tmp_path):
        assert main([]) == 2
        assert main(["simulate", "--joint", str(joint_file), "--scenario", "PU",
                     "--n", "10", "--seed", "1", "--out", str(tmp_path / "ds.json")]) == 0

    def test_defaults_do_not_leak_between_calls(self):
        assert build_parser().parse_args(self.TRAIN + ["--l2", "0.5"]).l2 == 0.5
        assert build_parser().parse_args(self.TRAIN).l2 == 0.0


class TestVerifyAllCommand:
    def test_small_run_exit_0(self, tmp_path, capsys):
        out = tmp_path / "all.json"
        code = main(["verify-all", "--trials", "2", "--K", "3", "--nx", "4",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"]
        assert "checks passed" in capsys.readouterr().out

    def test_zero_trials_empty(self, capsys):
        assert main(["verify-all", "--trials", "0"]) == 0
        assert "0/0" in capsys.readouterr().out

    def test_bad_flag_exit_2(self):
        assert main(["verify-all", "--bogus", "1"]) == 2

    def test_seed_outside_u64_exit_2(self, capsys):
        assert main(["verify-all", "--seed", "-1"]) == 2
        assert "ValidationError" in capsys.readouterr().err

    @pytest.mark.parametrize("K", ["9", "12"])
    def test_k_above_the_compound_label_cap_exit_2(self, tmp_path, capsys, K):
        out = tmp_path / "all.json"
        assert main(["verify-all", "--K", K, "--trials", "1", "--out", str(out)]) == 2
        assert "KTooLarge" in capsys.readouterr().err and not out.exists()

    def test_largest_k_exit_0(self, tmp_path):
        out = tmp_path / "all.json"
        assert main(["verify-all", "--K", "8", "--nx", "4", "--trials", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pass"]

    def test_negative_trials_exit_2(self, capsys):
        # not an empty run that passes: 0/0 checks would read as success
        assert main(["verify-all", "--trials", "-1"]) == 2
        captured = capsys.readouterr()
        assert "ShapeMismatch" in captured.err and "0/0" not in captured.out


class TestSimulateCommand:
    def test_out_of_memory_exit_2(self, joint_file, monkeypatch, capsys):
        # the sampler is replaced, so nothing of the requested size is allocated
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB for an array with shape (1099511627776,)")

        monkeypatch.setattr(wslrr.cli, "sample_weak_dataset", no_memory)
        assert main(["simulate", "--joint", str(joint_file), "--scenario", "PU",
                     "--n", "1099511627776", "--seed", "1"]) == 2
        assert "MemoryError: Unable to allocate" in capsys.readouterr().err

    def test_writes_dataset(self, joint_file, tmp_path):
        out = tmp_path / "ds.json"
        code = main(["simulate", "--joint", str(joint_file), "--scenario", "PU",
                     "--n", "P=40,U=60", "--seed", "3", "--out", str(out)])
        assert code == 0
        ds = dataset_from_json(out.read_text())
        assert ds.channel("P").n_draws == 40 and ds.channel("U").n_draws == 60

    def test_compound_labels(self, tmp_path):
        j = random_joint(4, 5, 2, seed=3, stream=0)
        jp = tmp_path / "j.json"
        jp.write_text(joint_to_json(j))
        out = tmp_path / "cl.json"
        assert main(["simulate", "--joint", str(jp), "--scenario", "CL",
                     "--n", "100", "--seed", "4", "--out", str(out)]) == 0
        ds = dataset_from_json(out.read_text())
        assert sum(c.n_draws for c in ds.channels) == 100

    @pytest.mark.parametrize("n", ["P=10,P=5,U=3", "P=1,U=2, U=3"])
    def test_repeated_channel_exit_2(self, joint_file, tmp_path, capsys, n):
        # not the last count silently winning
        out = tmp_path / "ds.json"
        assert main(["simulate", "--joint", str(joint_file), "--scenario", "PU",
                     "--n", n, "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err  # named once, not wrapped again as a bad --n value
        assert err.startswith("ValidationError: channel ") and "given twice" in err and not out.exists()

    @pytest.mark.parametrize("n, error", [("P=", "bad size spec 'P='; use label=count"),
                                          ("P=x", "bad --n value 'P=x': invalid literal")])
    def test_size_error_is_reported_once(self, joint_file, capsys, n, error):
        assert main(["simulate", "--joint", str(joint_file), "--scenario", "PU",
                     "--n", n, "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"ValidationError: {error}")

    def test_unknown_channel_exit_2(self, joint_file):
        assert main(["simulate", "--joint", str(joint_file), "--scenario", "PU",
                     "--n", "Q=5", "--seed", "1"]) == 2

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551623"])
    def test_seed_outside_u64_exit_2(self, joint_file, tmp_path, capsys, seed):
        # modulo 2**64 these would write the draws of seeds 2**64 - 1 and 7
        out = tmp_path / "ds.json"
        assert main(["simulate", "--joint", str(joint_file), "--scenario", "PU",
                     "--n", "10", "--seed", seed, "--out", str(out)]) == 2
        assert "ValidationError" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("n", ["99999999999999999999", "9223372036854775808", "P=9223372036854775808",
                                   "1152921504606846976", "4611686018427387904", "U=1152921504606846976",
                                   "-1", "U=-3"])
    def test_size_outside_the_draw_range_exit_2(self, joint_file, tmp_path, capsys, n):
        # rejected before anything is allocated, not a traceback from numpy
        out = tmp_path / "ds.json"
        assert main(["simulate", "--joint", str(joint_file), "--scenario", "PU",
                     "--n", n, "--seed", "1", "--out", str(out)]) == 2
        assert "ValidationError" in capsys.readouterr().err and not out.exists()


class TestTrainCommand:
    def test_end_to_end(self, joint_file, tmp_path, capsys):
        ds_path = tmp_path / "ds.json"
        main(["simulate", "--joint", str(joint_file), "--scenario", "PU",
              "--n", "P=300,U=300", "--seed", "5", "--out", str(ds_path)])
        model_path = tmp_path / "model.json"
        code = main(["train", "--data", str(ds_path), "--joint", str(joint_file),
                     "--loss", "logistic", "--lr", "0.1", "--epochs", "40",
                     "--out", str(model_path)])
        assert code == 0
        model = model_from_json(model_path.read_text())
        assert model.K == 2
        trace = (tmp_path / "model.trace.csv").read_text().strip().splitlines()
        assert trace[0] == "epoch,risk" and len(trace) == 42
        assert "exact risk" in capsys.readouterr().out

    def test_supervised_trace_decreases(self, tmp_path):
        j = scenario_joint("UU", 2, 5, 3, seed=21, trial=0)
        jp = tmp_path / "j.json"
        jp.write_text(joint_to_json(j))
        ds_path = tmp_path / "sup.json"
        main(["simulate", "--joint", str(jp), "--scenario", "UU",
              "--params", '{"gamma_1": 0.0, "gamma_2": 0.0}',
              "--n", "400", "--seed", "2", "--out", str(ds_path)])
        model_path = tmp_path / "m.json"
        assert main(["train", "--data", str(ds_path), "--joint", str(jp),
                     "--loss", "logistic", "--lr", "0.05", "--epochs", "30",
                     "--out", str(model_path)]) == 0
        rows = (tmp_path / "m.trace.csv").read_text().strip().splitlines()[1:]
        risks = [float(r.split(",")[1]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(risks, risks[1:]))

    def test_seed_outside_u64_exit_2(self, joint_file, tmp_path, capsys):
        ds_path = tmp_path / "ds.json"
        assert main(["simulate", "--joint", str(joint_file), "--scenario", "PU",
                     "--n", "50", "--seed", "5", "--out", str(ds_path)]) == 0
        assert main(["train", "--data", str(ds_path), "--joint", str(joint_file),
                     "--lr", "0.1", "--epochs", "2", "--seed", "18446744073709551616",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert "ValidationError" in capsys.readouterr().err

    def test_divergence_prints_no_numpy_warning(self, joint_file, tmp_path, capsys):
        # one of these 12 draws' instances has zero weight for a class, and
        # zero times an overflowed loss is nan (a RuntimeWarning is an error here)
        ds_path = tmp_path / "ds.json"
        assert main(["simulate", "--joint", str(joint_file), "--scenario", "PU",
                     "--n", "12", "--seed", "5", "--out", str(ds_path)]) == 0
        capsys.readouterr()
        assert main(["train", "--data", str(ds_path), "--joint", str(joint_file), "--lr", "1e6",
                     "--epochs", "1", "--out", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err.startswith("diverged: ")

    def test_divergence_exit_1(self, joint_file, tmp_path):
        ds_path = tmp_path / "ds.json"
        main(["simulate", "--joint", str(joint_file), "--scenario", "PU",
              "--n", "50", "--seed", "5", "--out", str(ds_path)])
        assert main(["train", "--data", str(ds_path), "--joint", str(joint_file),
                     "--loss", "logistic", "--lr", "1e6", "--epochs", "30",
                     "--out", str(tmp_path / "boom.json")]) == 1


class TestMalformedInputs:
    """Malformed inputs end with a typed error and exit 2, never a traceback."""

    def _dataset(self, joint_file, tmp_path, scenario="PU"):
        ds_path = tmp_path / "ds.json"
        assert main(["simulate", "--joint", str(joint_file), "--scenario", scenario,
                     "--n", "20", "--seed", "5", "--out", str(ds_path)]) == 0
        return ds_path, json.loads(ds_path.read_text())

    def _train(self, ds_path, joint_file):
        return main(["train", "--data", str(ds_path), "--joint", str(joint_file),
                     "--lr", "0.1", "--epochs", "2"])

    def test_instance_index_outside_joint(self, joint_file, tmp_path, capsys):
        ds_path, raw = self._dataset(joint_file, tmp_path)
        raw["channels"][0]["items"][0] = 99
        ds_path.write_text(json.dumps(raw))
        assert self._train(ds_path, joint_file) == 2
        assert "IndexOutOfRange" in capsys.readouterr().err

    def test_negative_instance_index(self, joint_file, tmp_path, capsys):
        ds_path, raw = self._dataset(joint_file, tmp_path)
        raw["channels"][1]["items"][-1] = -1
        ds_path.write_text(json.dumps(raw))
        assert self._train(ds_path, joint_file) == 2
        assert "IndexOutOfRange" in capsys.readouterr().err

    def test_non_integer_seed(self, joint_file, tmp_path, capsys):
        ds_path, raw = self._dataset(joint_file, tmp_path)
        raw["seed"] = "abc"
        ds_path.write_text(json.dumps(raw))
        assert self._train(ds_path, joint_file) == 2
        assert "SchemaMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_u64(self, joint_file, tmp_path, capsys, seed):
        # the dataset format's seed is a u64
        ds_path, raw = self._dataset(joint_file, tmp_path)
        raw["seed"] = seed
        ds_path.write_text(json.dumps(raw))
        assert self._train(ds_path, joint_file) == 2
        assert "SchemaMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_seed_of_another_type(self, joint_file, tmp_path, capsys, seed):
        # rejected, not truncated or converted to an integer
        ds_path, raw = self._dataset(joint_file, tmp_path)
        raw["seed"] = seed
        ds_path.write_text(json.dumps(raw))
        assert self._train(ds_path, joint_file) == 2
        assert "SchemaMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("features", [[["a"], [1.0]], [[0.0], [1.0, 2.0]]])
    def test_malformed_joint_arrays(self, tmp_path, capsys, features):
        path = tmp_path / "joint.json"
        path.write_text(json.dumps({"K": 2, "features": features, "joint": [[0.25, 0.25], [0.25, 0.25]]}))
        assert main(["verify", "--joint", str(path), "--scenario", "PU"]) == 2
        assert "ShapeMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, params", [
        ("UU", {"gamma_1": "a", "gamma_2": 0.1}),
        ("UU", {"gamma_1": 0.1, "gamma_2": None}),
        ("MCD", {"gamma_p": True, "gamma_n": 0.1}),
        ("SCConf", {"y_s": 1.5}),
        ("SCConf", {"y_s": True}),
        ("SCConf", {"y_s": "x"}),
        ("SubConf", {"Y_s": [1.5]}),
        ("SubConf", {"Y_s": ["1"]}),
        ("MCL", {"q": ["1.0"]}),
    ])
    def test_wrongly_typed_scalar_params(self, joint_file, capsys, scenario, params):
        assert main(["verify", "--joint", str(joint_file), "--scenario", scenario,
                     "--params", json.dumps(params)]) == 2
        assert "SchemaMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, item", [("PU", "x"), ("PU", 1.5), ("SU", [0, "x"]), ("SU", [0, 1.5])])
    def test_non_integer_item(self, joint_file, tmp_path, capsys, scenario, item):
        ds_path, raw = self._dataset(joint_file, tmp_path, scenario)
        raw["channels"][0]["items"][0] = item
        ds_path.write_text(json.dumps(raw))
        assert self._train(ds_path, joint_file) == 2
        assert "SchemaMismatch" in capsys.readouterr().err

    def test_channels_of_another_class_count(self, joint_file, tmp_path, capsys):
        # a CL dataset drawn on a K=4 joint has four label channels, the
        # K=2 joint two
        j4 = tmp_path / "j4.json"
        j4.write_text(joint_to_json(random_joint(4, 5, 3, seed=3, stream=0)))
        ds_path, _ = self._dataset(j4, tmp_path, "CL")
        assert self._train(ds_path, joint_file) == 2
        assert "SpecMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("flip", [[[["0.9", "0.2"], ["0.1", "0.8"]]] * 5,
                                      [[[True, False], [False, True]]] * 5])
    def test_array_params_of_another_type(self, joint_file, capsys, flip):
        # a flip tensor of the joint's shape, written as strings or bools
        assert main(["verify", "--joint", str(joint_file), "--scenario", "CCN",
                     "--params", json.dumps({"flip": flip})]) == 2
        assert "SchemaMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("params", ["5", "[[1]]"])
    def test_params_not_an_object(self, joint_file, capsys, params):
        assert main(["verify", "--joint", str(joint_file), "--scenario", "UU", "--params", params]) == 2
        assert "SchemaMismatch" in capsys.readouterr().err

    def test_dataset_spec_params_not_an_object(self, joint_file, tmp_path, capsys):
        ds_path, raw = self._dataset(joint_file, tmp_path)
        raw["spec"]["params"] = 5
        ds_path.write_text(json.dumps(raw))
        assert self._train(ds_path, joint_file) == 2
        assert "SchemaMismatch" in capsys.readouterr().err

    def test_nan_size_law_exit_2(self, tmp_path, capsys):
        # NaN fails every comparison, so it must be refused explicitly
        jp = tmp_path / "j4.json"
        jp.write_text(joint_to_json(random_joint(4, 5, 3, seed=3, stream=0)))
        assert main(["simulate", "--joint", str(jp), "--scenario", "MCL",
                     "--params", '{"q": [NaN, 0.5, 0.5]}', "--n", "50", "--seed", "1"]) == 2
        assert "DegenerateParams" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"), ("--lr", "-inf"),
                                             ("--l2", "nan"), ("--l2", "inf"), ("--l2", "-1")])
    def test_non_finite_or_negative_rates_exit_2(self, joint_file, tmp_path, capsys, flag, value):
        ds_path, _ = self._dataset(joint_file, tmp_path)
        args = {"--lr": "0.1", "--l2": "0.0", flag: value}
        assert main(["train", "--data", str(ds_path), "--joint", str(joint_file), "--epochs", "2",
                     *(f"{k}={v}" for k, v in args.items())]) == 2
        assert "ShapeMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
    def test_non_finite_or_negative_tol_exit_2(self, joint_file, capsys, tol):
        assert main(["verify", "--joint", str(joint_file), "--scenario", "PU", f"--tol={tol}"]) == 2
        assert "--tol" in capsys.readouterr().err

    # argv with {joint}, {data} (valid files), {latin1} (not UTF-8), {dir} (a
    # directory) and {deep} (a list nested 200 000 deep); how its error line starts
    UNREADABLE = {
        "verify non-UTF-8 joint": ("verify --joint {latin1} --scenario PU", "UnicodeDecodeError: "),
        "verify non-UTF-8 scenario file": ("verify --joint {joint} --scenario {latin1}", "UnicodeDecodeError: "),
        "simulate non-UTF-8 joint": ("simulate --joint {latin1} --scenario PU --n 5 --seed 1",
                                     "UnicodeDecodeError: "),
        "train non-UTF-8 data": ("train --data {latin1} --joint {joint} --lr 0.1 --epochs 1",
                                 "UnicodeDecodeError: "),
        "train non-UTF-8 joint": ("train --data {data} --joint {latin1} --lr 0.1 --epochs 1",
                                  "UnicodeDecodeError: "),
        "train data a directory": ("train --data {dir} --joint {joint} --lr 0.1 --epochs 1",
                                   "IsADirectoryError: "),
        "train missing data": ("train --data {dir}/nope.json --joint {joint} --lr 0.1 --epochs 1",
                               "FileNotFoundError: "),
        "verify out a directory": ("verify --joint {joint} --scenario PU --out {dir}", "IsADirectoryError: "),
        "verify-all out a directory": ("verify-all --trials 0 --out {dir}", "IsADirectoryError: "),
        "simulate out a directory": ("simulate --joint {joint} --scenario PU --n 5 --seed 1 --out {dir}",
                                     "IsADirectoryError: "),
        "train out a directory": ("train --data {data} --joint {joint} --lr 0.1 --epochs 1 --out {dir}",
                                  "IsADirectoryError: "),
        "verify deep joint": ("verify --joint {deep} --scenario PU", "ParseError: "),
        "verify deep scenario file": ("verify --joint {joint} --scenario {deep}", "ParseError: "),
        "simulate deep joint": ("simulate --joint {deep} --scenario PU --n 5 --seed 1", "ParseError: "),
        "train deep data": ("train --data {deep} --joint {joint} --lr 0.1 --epochs 1", "ParseError: "),
        # the model's Philox key is seed + 1, so the largest seed is 2**64 - 2
        "verify seed -1": ("verify --joint {joint} --scenario PU --seed -1", "ValidationError: --seed"),
        "verify seed 2**64 - 1": ("verify --joint {joint} --scenario PU --seed 18446744073709551615",
                                  "ValidationError: --seed"),
    }

    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_unreadable_or_deeply_nested_file_exit_2(self, joint_file, tmp_path, capsys, case):
        argv, error = self.UNREADABLE[case]
        (tmp_path / "latin1.json").write_bytes(b'\xff{"K": 2}')
        (tmp_path / "dir").mkdir()
        (tmp_path / "deep.json").write_text("[" * 200_000 + "]" * 200_000)
        ds_path, _ = self._dataset(joint_file, tmp_path)
        paths = {name: str(tmp_path / f"{name}.json") for name in ("latin1", "deep")}
        argv = argv.format(joint=joint_file, data=ds_path, dir=tmp_path / "dir", **paths).split()
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(error) and "Traceback" not in err

    def test_deeply_nested_params_exit_2(self, joint_file, capsys):
        params = "[" * 50_000 + "]" * 50_000
        assert main(["verify", "--joint", str(joint_file), "--scenario", "UU", "--params", params]) == 2
        assert capsys.readouterr().err.startswith("ParseError: invalid --params JSON")

    def test_verify_all_single_class(self, capsys):
        assert main(["verify-all", "--K", "1", "--trials", "1"]) == 2
        assert "ShapeMismatch" in capsys.readouterr().err


# ---- never a traceback: a property over malformed arguments and files ------

# every exception type the CLI reports by name: the package's own, and the
# OSError, UnicodeError and MemoryError families that cli.main maps to exit 2
TYPED = ({name for name, c in vars(wslrr.errors).items() if isinstance(c, type) and issubclass(c, Exception)}
         | {name for name, c in vars(builtins).items()
            if isinstance(c, type) and issubclass(c, (OSError, UnicodeError, MemoryError))})
# replacements spliced into a valid file's text
SPLICES = ["", "x", "-1", "0", "99", "1.5", "-0", "1e308", "NaN", "Infinity", "true", "null",
           "[", "]", "{", "}", '"', ",", "[[]]", "{}", '"P"', '"pairs"', "[0, 1]"]
SIZES = [str(2 ** 60), "99999999999999999999", "-1", "1.5", "x", ""]  # each refused before drawing


def _often(n: int, m: int):
    """True n times in m.  Hypothesis leans towards the first entries."""
    return st.sampled_from([True] * n + [False] * (m - n))


def _mostly(valid, malformed):
    """A valid value seven times in ten, else a malformed one."""
    return _often(7, 10).flatmap(lambda ok: valid if ok else malformed)


def _numbers(lo, hi, *extra):
    """Integers in [lo, hi] as text, or malformed or extreme text."""
    return _mostly(st.integers(lo, hi).map(str), st.sampled_from(["x", "1.5", "", *extra]))


SEEDS = _numbers(0, 40, "-1", str(2 ** 64 - 2), str(2 ** 64 - 1), str(2 ** 64), str(2 ** 64 - 1001))
FILES = st.sampled_from(["{joint}", "{joint4}", "{data}", "{data_cl}", "{scenario}", "{drawn}",
                         "{dir}", "{dir}/missing.json"])
JOINTS = _mostly(st.sampled_from(["{joint}", "{joint4}", "{drawn}"]), FILES)
SCENARIOS = _mostly(st.sampled_from(sorted(SCENARIO_TYPES)),
                    st.one_of(FILES, st.sampled_from(["NoSuch", "", "pu"])))
PARAMS = _mostly(st.sampled_from(['{"gamma_1": 0.2, "gamma_2": 0.3}', '{"q": [0.5, 0.5]}', '{"y_s": 1}',
                                  '{"q": [0.2, 0.3, 0.5]}', '{"Y_s": [1]}', '{"gamma_1": 0.5, "gamma_2": 0.5}']),
                 st.one_of(st.sampled_from(["{}", "[]", "5", '{"y_s": 9}']), st.text(max_size=12)))
OUTS = _mostly(st.just("{out}"), st.sampled_from(["{dir}", "{dir}/missing.json/out.json"]))


@st.composite
def _sizes(draw) -> str:
    """A --n value: bounded counts, or sizes refused before anything is drawn."""
    count = _mostly(st.integers(0, 30).map(str), st.sampled_from(SIZES))
    if draw(st.booleans()):
        return draw(count)
    labels = _mostly(st.sampled_from(["P", "U", "S", "D", "U1", "U2", "PC", "XX", "SX", "X"]),
                     st.sampled_from(["Q", "", "P=1,P"]))
    return ",".join(f"{draw(labels)}={draw(count)}" for _ in range(draw(st.integers(1, 3))))


# each subcommand's options: (flag, values, whether it is given nearly always,
# as the required ones are and --trials is, which keeps verify-all short); train
# always gets --out, since without one it writes its trace into the working directory
OPTIONS = {
    "verify": [("--joint", JOINTS, True), ("--scenario", SCENARIOS, True), ("--params", PARAMS, False),
               ("--tol", _mostly(st.sampled_from(["0", "1e-9"]), st.sampled_from(["-1", "nan", "x"])), False),
               ("--seed", SEEDS, False), ("--out", OUTS, False)],
    "verify-all": [("--K", _numbers(2, 8, "1", "9", "-1"), False), ("--nx", _numbers(1, 8, "0", "-1"), False),
                   ("--trials", _numbers(0, 1, "-1"), True), ("--seed", SEEDS, False), ("--out", OUTS, False)],
    "simulate": [("--joint", JOINTS, True), ("--scenario", SCENARIOS, True), ("--params", PARAMS, False),
                 ("--n", _sizes(), True), ("--seed", SEEDS, True), ("--out", OUTS, False)],
    "train": [("--data", _mostly(st.sampled_from(["{data}", "{data_cl}", "{drawn}"]), FILES), True),
              ("--joint", JOINTS, True),
              ("--loss", _mostly(st.sampled_from(["logistic", "squared"]), st.sampled_from(["zero-one", "x"])),
               False),
              ("--lr", _mostly(st.sampled_from(["0.1", "0", "1e6", "1e308"]),
                               st.sampled_from(["-1", "nan", "inf", "x"])), True),
              ("--epochs", _numbers(1, 5, "0", "-1"), True),
              ("--l2", _mostly(st.sampled_from(["0", "0.5"]), st.sampled_from(["-1", "nan", "inf"])), False),
              ("--seed", SEEDS, False), ("--out", st.just("{out}"), None)],
}


@st.composite
def _argv(draw) -> list:
    """An argv for one of the four subcommands: each option valid, malformed
    or left out (a usual one 1 time in 20), and every size small or refused
    before drawing."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for flag, values, usual in OPTIONS[command]:
        if usual is None or draw(_often(19, 20) if usual else _often(1, 2)):
            argv += [flag, draw(values)]
    if not draw(_often(19, 20)):
        argv.append(draw(st.sampled_from(["--bogus", "-h", "extra"])))
    return argv


def _cli_texts() -> dict:
    j2 = scenario_joint("PU", 2, 5, 3, seed=11, trial=0)
    j4 = random_joint(4, 5, 3, seed=3, stream=0)
    return {"joint": joint_to_json(j2), "joint4": joint_to_json(j4),
            "data": dataset_to_json(sample_weak_dataset(PU(), j2, 12, seed=5)),
            "data_cl": dataset_to_json(sample_weak_dataset(CL(), j4, 12, seed=5)),
            "scenario": '{"name": "MCL", "params": {"q": [0.5, 0.3, 0.2]}}'}


CLI_TEXTS = _cli_texts()


@st.composite
def _drawn_file(draw) -> str:
    """Text for the {drawn} file: a valid joint, dataset or scenario with one
    short span replaced, random JSON, or a byte that is not UTF-8."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        leaves = st.one_of(st.none(), st.booleans(), st.integers(-3, 9), st.floats(), st.text(max_size=3))
        keys = st.sampled_from(["K", "features", "joint", "spec", "seed", "channels", "name", "params",
                                "label", "kind", "items", "gamma_1", "gamma_2", "Y_s", "y_s", "q"])
        value = draw(st.recursive(leaves, lambda inner: st.lists(inner, max_size=4)
                                  | st.dictionaries(keys, inner, max_size=4), max_leaves=12))
        return json.dumps(value)
    if kind == 1:
        return "\udcff"  # written with surrogateescape: the byte 0xff
    text = draw(st.sampled_from(sorted(CLI_TEXTS.values())))
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, min(len(text), start + 8)))
    return text[:start] + draw(st.sampled_from(SPLICES)) + text[end:]


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    for name, text in CLI_TEXTS.items():
        (root / f"{name}.json").write_text(text)
    (root / "dir").mkdir()
    return root


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=_argv(), drawn=_drawn_file())
def test_no_traceback_on_malformed_arguments_or_files(cli_dir, argv, drawn):
    """Every run ends in exit 0, exit 2 with a usage or typed error line, or a
    reported outcome with exit 1: divergence, or checks reported as FAIL.
    cli.main never raises.  The example sequence is fixed, so a run does not
    depend on an example database."""
    (cli_dir / "drawn.json").write_text(drawn, errors="surrogateescape")
    places = {f"{{{name}}}": str(cli_dir / f"{name}.json") for name in (*CLI_TEXTS, "drawn", "out")}
    places.update({"{dir}": str(cli_dir / "dir"), "{dir}/missing.json": str(cli_dir / "dir" / "missing.json"),
                   "{dir}/missing.json/out.json": str(cli_dir / "dir" / "missing.json" / "out.json")})
    argv = [places.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("diverged: ") or "\nFAIL " in "\n" + out, (argv, out, err)
    elif code == 2:
        assert err.startswith("usage: ") or err.split(":", 1)[0] in TYPED, (argv, err)
    else:
        assert code == 0, (argv, code)

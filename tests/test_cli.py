import json

import numpy as np
import pytest

from wslrr.cli import build_parser, main
from wslrr.core import joint_to_json, validate_joint
from wslrr.datagen import dataset_from_json
from wslrr.train import model_from_json
from wslrr.verify import random_joint, scenario_joint


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

    def test_negative_trials_exit_2(self, capsys):
        # not an empty run that passes: 0/0 checks would read as success
        assert main(["verify-all", "--trials", "-1"]) == 2
        captured = capsys.readouterr()
        assert "ShapeMismatch" in captured.err and "0/0" not in captured.out


class TestSimulateCommand:
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

    def test_verify_all_single_class(self, capsys):
        assert main(["verify-all", "--K", "1", "--trials", "1"]) == 2
        assert "ShapeMismatch" in capsys.readouterr().err

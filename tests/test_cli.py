import json
import time

import pytest

from exptail.cli import (ExperimentConfig, ResultRecord, emit_table, main,
                         records_from_json, run)
from exptail.errors import ConfigError


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


TAIL_CFG = {
    "experiment": "tailbound",
    "phi": "quadratic{B=[[1,0],[0,1]]}",
    "dist": "gaussian{Q=[[1,0],[0,1]]}",
    "x": {"start": 0.5, "stop": 4.0, "step": 0.5, "direction": [1, 1]},
    "n": 10000, "reps": 10000, "seed": 7,
}


class TestConfig:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "nope"})

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, "c.json", TAIL_CFG)
        cfg = ExperimentConfig.from_file(path, seed=99)
        assert cfg.seed == 99

    def test_bad_format(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**TAIL_CFG, "format": "xml"})

    def test_env_var_default_seed(self, monkeypatch):
        payload = {k: v for k, v in TAIL_CFG.items() if k != "seed"}
        monkeypatch.setenv("EXPTAIL_SEED", "123")
        assert ExperimentConfig.from_dict(payload).seed == 123
        # explicit config seed beats the environment
        monkeypatch.setenv("EXPTAIL_SEED", "55")
        assert ExperimentConfig.from_dict(TAIL_CFG).seed == TAIL_CFG["seed"]


class TestRunTailbound:
    def test_grid_rows_and_columns(self, tmp_path):
        out = tmp_path / "t.csv"
        cfg = ExperimentConfig.from_dict({**TAIL_CFG, "out": str(out)})
        records, status = run(cfg)
        assert status == 0
        assert len(records) == 8            # 0.5..4.0 step 0.5
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "case,n_terms,x_1,x_2,bound,empirical,width,verdict"
        assert len(lines) == 9

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(ExperimentConfig.from_dict({**TAIL_CFG, "out": str(out1)}))
        run(ExperimentConfig.from_dict({**TAIL_CFG, "out": str(out2)}))
        assert out1.read_bytes() == out2.read_bytes()

    def test_probability_outputs_in_range(self, tmp_path):
        cfg = ExperimentConfig.from_dict(TAIL_CFG)
        records, _ = run(cfg)
        for r in records:
            if r.outputs["verdict"] == "skip":
                continue
            assert 0.0 <= r.outputs["bound"] <= 1.0
            assert 0.0 <= r.outputs["empirical"] <= 1.0


class TestEmitTable:
    def test_json_round_trip(self, tmp_path):
        rec = ResultRecord("conjugate", {"y_1": 1.0}, {"phi_star": 0.5,
                                                       "slack": 1e-9,
                                                       "diverged": False},
                           seed=3, provenance={"phi": "quadratic{B=[[1]]}"},
                           wall_time=0.125)
        path = tmp_path / "r.json"
        emit_table([rec], "json", path)
        back = records_from_json(path)
        assert back == [rec]

    def test_seventeen_digit_floats(self, tmp_path):
        rec = ResultRecord("conjugate", {"y_1": 1.0 / 3.0}, {"phi_star": 0.1},
                           seed=0)
        path = tmp_path / "r.csv"
        emit_table([rec], "csv", path)
        assert "0.33333333333333331" in path.read_text()


class TestVerifySuite:
    def _suite(self, bound_scale=1.0):
        return {
            "experiment": "verify-suite",
            "seed": 11,
            "cases": [
                {"name": "gq", "kind": "tail",
                 "dist": "gaussian{Q=[[1,0],[0,1]]}",
                 "phi": "quadratic{B=[[1,0],[0,1]]}",
                 "x": {"start": 0.5, "stop": 1.5, "step": 0.5,
                       "direction": [1, 1]},
                 "n": 8000, "reps": 8000, "bound_scale": bound_scale},
            ],
        }

    def test_positive_control_exit_zero(self, tmp_path):
        out = tmp_path / "v.csv"
        cfg = ExperimentConfig.from_dict({**self._suite(), "out": str(out)})
        _, status = run(cfg)
        assert status == 0

    def test_negative_control_exit_one(self):
        cfg = ExperimentConfig.from_dict(self._suite(bound_scale=1e-3))
        records, status = run(cfg)
        assert status == 1
        assert any(r.outputs["verdict"] == "fail" for r in records)

    def test_power_phi_case_skips(self):
        cfg = ExperimentConfig.from_dict({
            "experiment": "verify-suite", "seed": 1,
            "cases": [{"name": "gp4", "kind": "tail",
                       "dist": "gaussian{Q=[[1,0],[0,1]]}",
                       "phi": "power{p=4,c=1,d=2}",
                       "x": {"start": 0.5, "stop": 1.0, "step": 0.5,
                             "direction": [1, 1]},
                       "n": 5000, "reps": 5000}]})
        records, status = run(cfg)
        assert status == 0
        assert all(r.outputs["verdict"] == "skip" for r in records)

    def test_wall_time_per_case(self, tmp_path):
        suite = self._suite()
        second = {**suite["cases"][0], "name": "gq_big", "n": 16000,
                  "reps": 16000}
        payload = {**suite, "cases": suite["cases"] + [second]}
        out = tmp_path / "v.csv"
        t0 = time.perf_counter()
        records, _ = run(ExperimentConfig.from_dict({**payload,
                                                     "out": str(out)}))
        total = time.perf_counter() - t0
        times = {}
        for r in records:
            times.setdefault(r.inputs["case"], set()).add(r.wall_time)
        assert sorted(times) == ["gq", "gq_big"]
        assert all(len(v) == 1 and min(v) > 0 for v in times.values())
        (t_small,), (t_big,) = times["gq"], times["gq_big"]
        assert t_small != t_big
        assert t_small + t_big <= total
        assert "wall_time" not in out.read_text()   # timings stay out of CSV

    def test_sum_case(self):
        cfg = ExperimentConfig.from_dict({
            "experiment": "verify-suite", "seed": 2,
            "cases": [{"name": "gsum", "kind": "sum",
                       "dist": "gaussian{Q=[[1]]}", "phi": "quadratic{B=[[1]]}",
                       "x": {"start": 1.0, "stop": 2.0, "step": 0.5},
                       "n_set": [1, 4], "n": 8000, "reps": 8000}]})
        records, status = run(cfg)
        assert status == 0
        assert {r.inputs["n_terms"] for r in records} == {1, 4}


class TestCases:
    def test_tailbound_is_a_one_case_suite(self):
        single, _ = run(ExperimentConfig.from_dict(TAIL_CFG))
        case = {k: v for k, v in TAIL_CFG.items()
                if k not in ("experiment", "seed")}
        suite, _ = run(ExperimentConfig.from_dict({
            "experiment": "verify-suite", "seed": TAIL_CFG["seed"],
            "cases": [{**case, "name": "tailbound"}]}))
        assert [r.csv_cells() for r in single] == \
            [r.csv_cells() for r in suite]

    def test_config_errors_name_their_key(self):
        with pytest.raises(ConfigError) as info:
            run(ExperimentConfig.from_dict({**TAIL_CFG,
                                            "dist": "gaussian{Q=[[1]]}"}))
        assert str(info.value) == "dist: dimension mismatch with phi"
        for experiment in ("tailbound", "sumbound"):
            payload = {k: v for k, v in TAIL_CFG.items() if k != "x"}
            with pytest.raises(ConfigError) as info:
                run(ExperimentConfig.from_dict({**payload,
                                                "experiment": experiment}))
            assert info.value.key == "x"
        case = {k: v for k, v in TAIL_CFG.items()
                if k not in ("experiment", "seed")}
        no_phi = {k: v for k, v in case.items() if k != "phi"}
        for bad, message in (
                ({**case, "kind": "bogus"}, "kind: unknown kind 'bogus'"),
                (no_phi, "phi: missing required option")):
            with pytest.raises(ConfigError) as info:
                run(ExperimentConfig.from_dict({"experiment": "verify-suite",
                                                "cases": [case, bad]}))
            assert str(info.value) == "cases[1]." + message


class TestMainEntry:
    def test_config_error_exit_two(self, tmp_path):
        path = write_config(tmp_path, "bad.json",
                            {**TAIL_CFG, "phi": "quadratic{B=oops}"})
        assert main(["tailbound", path]) == 2

    def test_wrong_subcommand_for_config(self, tmp_path):
        path = write_config(tmp_path, "t.json", TAIL_CFG)
        assert main(["norm", path]) == 2

    def test_happy_path(self, tmp_path):
        out = tmp_path / "o.csv"
        path = write_config(tmp_path, "t.json",
                            {**TAIL_CFG, "out": str(out),
                             "x": {"start": 1.0, "stop": 2.0, "step": 0.5,
                                   "direction": [1, 1]}})
        assert main(["tailbound", path]) == 0
        assert out.exists()

    def test_malformed_json_exit_two(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["tailbound", str(p)]) == 2


class TestOtherExperiments:
    def test_conjugate_rows(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "experiment": "conjugate", "phi": "quadratic{B=[[2,0],[0,1]]}",
            "y": [[1.0, 1.0], [0.0, 0.0]], "seed": 0})
        records, status = run(cfg)
        assert status == 0
        assert records[0].outputs["phi_star"] == pytest.approx(0.75, rel=1e-8)
        assert records[1].outputs["phi_star"] == 0.0

    # the ascent at y = 300 overflows before it stalls: that defect is open,
    # and this test pins only that its row is flagged
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_conjugate_flags_loose_row(self):
        # phi*(y) = 5 (y / 6)^(6/5) for phi = |x|^6: 546.68 at y = 300, where
        # the search stalls far below it with a slack above its value
        cfg = ExperimentConfig.from_dict({
            "experiment": "conjugate", "phi": "power{p=6,c=1,d=1}",
            "y": [[8.0], [300.0]], "seed": 0})
        exact, loose = (r.outputs for r in run(cfg)[0])
        assert exact["phi_star"] == pytest.approx(5 * (8 / 6) ** 1.2,
                                                  rel=1e-10)
        assert exact["flags"] == ""
        assert loose["slack"] > loose["phi_star"]
        assert loose["flags"] == "slack_exceeds_value"

    def test_norm_spaces(self):
        cfg = ExperimentConfig.from_dict({
            "experiment": "norm", "space": "all",
            "phi": "quadratic{B=[[1]]}", "dist": "gaussian{Q=[[1]]}",
            "n": 8000, "seed": 5})
        assert cfg.format == "json"     # norm records default to JSON
        records, _ = run(cfg)
        spaces = [r.inputs["space"] for r in records]
        assert spaces == ["bphi", "gls", "orlicz"]
        for r in records:
            assert r.outputs["value"] >= 0.0

    def test_characterize_verdict(self):
        cfg = ExperimentConfig.from_dict({
            "experiment": "characterize", "function": "exp_linear{w=[1,1]}",
            "box": [[0, 1], [0, 1]], "kmax": 3, "seed": 0})
        records, status = run(cfg)
        assert status == 0
        assert records[0].outputs["status"] == "consistent"

    def test_equivalence_record(self):
        cfg = ExperimentConfig.from_dict({
            "experiment": "equivalence", "phi": "quadratic{B=[[1]]}",
            "dist": "gaussian{Q=[[1]]}", "n": 8000, "seed": 2})
        records, _ = run(cfg)
        out = records[0].outputs
        assert out["bphi"] > 0 and out["luxemburg"] > 0 and out["gls"] > 0

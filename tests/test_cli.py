import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from exptail import cli, empirical
from exptail.cli import (EXPERIMENTS, ExperimentConfig, ResultRecord,
                         emit_table, main, records_from_json, run)
from exptail.empirical import sample
from exptail.errors import ConfigError
from exptail.specs import young_from_spec


#: the repository root, for the shipped configs
ROOT = Path(__file__).parents[1]


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

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict({**TAIL_CFG, "tol": 0.5, "bogus": 1})
        assert info.value.key == "tol"
        assert "bogus" in info.value.message

    def test_unknown_case_key_is_named(self):
        case = {k: v for k, v in TAIL_CFG.items()
                if k not in ("experiment", "seed")}
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict({"experiment": "verify-suite",
                                        "cases": [case, {**case, "grid": 3}]})
        assert info.value.key == "cases[1].grid"

    @pytest.mark.parametrize("path", [
        *sorted(ROOT.glob("configs/*.json")),
        ROOT / "perfbench" / "equivalence.json"], ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        cfg = ExperimentConfig.from_file(path)
        assert cfg.experiment in EXPERIMENTS


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

    def test_relaxed_membership_case_draws_no_tail_sample(self, monkeypatch):
        # every row of a power-phi case is skipped, so it samples nothing
        calls = []

        def counting_sample(*args, **kwargs):
            calls.append(args)
            return sample(*args, **kwargs)

        monkeypatch.setattr(cli, "sample", counting_sample)
        records, status = run(ExperimentConfig.from_dict({
            "experiment": "tailbound", "seed": 1,
            "phi": "power{p=4,c=1,d=1}", "dist": "rademacher{scale=1,d=1}",
            "x": {"start": 0.2, "stop": 0.8, "step": 0.2},
            "n": 2000, "reps": 2000}))
        assert status == 0 and len(records) == 4
        assert all(r.outputs["verdict"] == "skip" for r in records)
        assert calls == []

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

    def test_empty_x_grid_exits_zero_with_no_rows(self, tmp_path, capsys):
        path = write_config(tmp_path, "e.json",
                            {**TAIL_CFG, "x": {"start": 2.0, "stop": 1.0,
                                               "step": 0.5,
                                               "direction": [1, 1]}})
        assert main(["tailbound", path]) == 0
        assert capsys.readouterr().out == ""

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
        # phi*(y) = 5 (y / 6)^(6/5) for phi = |x|^6, exact at y = 8 and at
        # y = 300, whose maximizer 2.19 lies far inside its |y|-sized box
        cfg = ExperimentConfig.from_dict({
            "experiment": "conjugate", "phi": "power{p=6,c=1,d=1}",
            "y": [[8.0], [300.0]], "seed": 0})
        for y, out in zip((8.0, 300.0), (r.outputs for r in run(cfg)[0])):
            assert out["phi_star"] == pytest.approx(5 * (y / 6) ** 1.2,
                                                    rel=1e-10)
            assert out["flags"] == ""
        # phi*(y) = (y / 1.5)^3 / 2 for phi = |x|^1.5 is 1.48e-28 at
        # y = 1e-9, below the slack's floor of 1e-14
        cfg = ExperimentConfig.from_dict({
            "experiment": "conjugate", "phi": "power{p=1.5,c=1,d=1}",
            "y": [[1e-9]], "seed": 0})
        loose = run(cfg)[0][0].outputs
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


#: a small tail case for tests that stop at config validation
SMALL_CASE = {"phi": "quadratic{B=[[1,0],[0,1]]}",
              "dist": "gaussian{Q=[[1,0],[0,1]]}",
              "x": {"start": 0.5, "stop": 1.0, "step": 0.5,
                    "direction": [1, 1]},
              "n": 2000, "reps": 2000}


class TestBadValues:
    @pytest.mark.parametrize("experiment, change, key", [
        ("tailbound", {"n": 0}, "n"),
        ("tailbound", {"reps": 0}, "reps"),
        ("tailbound", {"n": 2.5}, "n"),
        ("tailbound", {"reps": True}, "reps"),
        ("tailbound", {"x": {"start": 0.5, "stop": 1.0, "count": -1}},
         "x.count"),
        ("tailbound", {"x": {"start": 0.5, "stop": 1.0, "step": 0}},
         "x.step"),
        ("tailbound", {"bound_scale": "abc"}, "bound_scale"),
        ("tailbound", {"bound_scale": 0}, "bound_scale"),
        ("tailbound", {"x": {"start": -1.0, "stop": 1.0, "step": 0.5}},
         "x"),
        ("tailbound", {"x": [[1.0, 1.0], [1.0]]}, "x"),
        ("tailbound", {"x": [[1.0, "nan"]]}, "x"),
        ("sumbound", {"n_set": [0]}, "n_set[0]"),
        ("sumbound", {"n_set": [1, 2.5]}, "n_set[1]"),
        ("sumbound", {"n_set": 4}, "n_set"),
        ("verify-suite", {"reps": 0}, "cases[1].reps"),
        ("verify-suite", {"kind": "sum", "n_set": [0]}, "cases[1].n_set[0]"),
        ("norm", {"n": 0}, "n"),
        ("equivalence", {"n": 2.5}, "n"),
    ])
    def test_bad_value_exits_two_naming_its_key(self, tmp_path, capsys,
                                                experiment, change, key):
        if experiment == "verify-suite":
            payload = {"experiment": experiment, "seed": 0,
                       "cases": [SMALL_CASE, {**SMALL_CASE, **change}]}
        else:
            payload = {"experiment": experiment, "seed": 0,
                       **{k: v for k, v in SMALL_CASE.items()
                          if experiment in ("tailbound", "sumbound")
                          or k in ("phi", "dist", "n")},
                       **change}
        path = write_config(tmp_path, "bad.json", payload)
        assert main([experiment, path]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")


class TestEmptyTable:
    @pytest.mark.parametrize("fmt, text", [("csv", ""), ("json", "[]\n")])
    @pytest.mark.parametrize("experiment", ["tailbound", "sumbound",
                                            "verify-suite"])
    def test_empty_x_grid_writes_an_empty_table(self, tmp_path, experiment,
                                                fmt, text):
        case = {**SMALL_CASE, "x": {"start": 2.0, "stop": 1.0, "step": 0.5,
                                    "direction": [1, 1]}}
        payload = ({"experiment": experiment, "cases": [case]}
                   if experiment == "verify-suite"
                   else {"experiment": experiment, **case})
        out = tmp_path / f"e.{fmt}"
        path = write_config(tmp_path, "e.json", {**payload, "format": fmt})
        assert main([experiment, path, "--out", str(out)]) == 0
        assert out.read_text() == text
        if fmt == "json":
            assert records_from_json(out) == []


#: provenance keys of every certified tail or sum record
PROVENANCE_KEYS = {"norm", "sigma_n", "slack", "exponent"}


def _one_case_suite(seed, **case):
    return run(ExperimentConfig.from_dict(
        {"experiment": "verify-suite", "seed": seed,
         "cases": [{"name": "c", **case}]}))[0]


class TestTailIsOneTermSum:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_one_term_sum_case_equals_tail_case(self, seed):
        case = {"dist": "gaussian{Q=[[1,0.3],[0.3,1]]}",
                "phi": "quadratic{B=[[1,0],[0,1]]}",
                "x": {"start": 0.5, "stop": 2.0, "step": 0.5,
                      "direction": [1, 1]},
                "n": 8000, "reps": 8000}
        tail = _one_case_suite(seed, kind="tail", **case)
        one = _one_case_suite(seed, kind="sum", n_set=[1], **case)
        assert [r.csv_cells() for r in tail] == [r.csv_cells() for r in one]
        assert {r.outputs["verdict"] for r in tail} == {"pass"}
        for r in tail + one:
            assert set(r.provenance) == PROVENANCE_KEYS
            assert r.provenance["sigma_n"] == r.provenance["norm"]

    def test_lambda2_gates_only_the_sum_case(self):
        case = {"dist": "rademacher{scale=1,d=1}", "phi": "logcosh{d=1}",
                "x": {"start": 0.2, "stop": 0.8, "step": 0.2},
                "n": 4000, "reps": 4000}
        tail = _one_case_suite(1, kind="tail", **case)
        assert "skip" not in {r.outputs["verdict"] for r in tail}
        one = _one_case_suite(1, kind="sum", n_set=[1], **case)
        assert len(one) == len(tail)
        assert all(r.outputs["verdict"] == "skip" and
                   r.provenance == {"reason": "no_lambda2"} for r in one)

    @pytest.mark.parametrize("case, rows", [
        ({"kind": "tail", "phi": "power{p=4,c=1,d=1}"}, []),
        ({"kind": "sum", "phi": "power{p=4,c=1,d=1}", "n_set": [1, 4]}, []),
        # the Lambda_2 gate needs the fitted norm first, but no tail sample
        ({"kind": "sum", "phi": "logcosh{d=1}", "n_set": [1, 4]}, [2000]),
    ], ids=["tail", "sum", "no_lambda2"])
    def test_skipped_case_draws_no_tail_sample(self, monkeypatch, case,
                                               rows):
        drawn = []

        def counting_sample(dist, n, seed):
            drawn.append(n)
            return sample(dist, n, seed)

        monkeypatch.setattr(cli, "sample", counting_sample)
        monkeypatch.setattr(empirical, "sample", counting_sample)
        records = _one_case_suite(
            1, dist="rademacher{scale=1,d=1}",
            x={"start": 0.2, "stop": 0.8, "step": 0.2},
            n=2000, reps=2000, **case)
        assert records and all(r.outputs["verdict"] == "skip"
                               for r in records)
        assert drawn == rows


#: a small conjugate config for tests of the seed
CONJ_CFG = {"experiment": "conjugate", "phi": "quadratic{B=[[1]]}",
            "y": [[1.0]]}
CHAR_CFG = {"experiment": "characterize", "function": "exp_linear{w=[1,1]}",
            "box": [[0, 1], [0, 1]], "seed": 0}


class TestSeedAndKmax:
    """The seed, from the config, ``--seed`` or ``EXPTAIL_SEED``, is an
    integer >= 0 and characterize's ``kmax`` an integer >= 1; anything
    else exits 2 and names its key."""

    @pytest.mark.parametrize("payload, argv, key", [
        ({**CONJ_CFG, "seed": "abc"}, [], "seed"),
        ({**CONJ_CFG, "seed": 2.5}, [], "seed"),
        ({**CONJ_CFG, "seed": -1}, [], "seed"),
        ({**CONJ_CFG, "seed": True}, [], "seed"),
        ({**CONJ_CFG, "seed": 3}, ["--seed", "-1"], "--seed"),
        ({**CHAR_CFG, "kmax": 2.5}, [], "kmax"),
        ({**CHAR_CFG, "kmax": 0}, [], "kmax"),
        ({**CHAR_CFG, "kmax": "3"}, [], "kmax"),
    ])
    def test_bad_value_exits_two_naming_its_key(self, tmp_path, capsys,
                                                payload, argv, key):
        path = write_config(tmp_path, "bad.json", payload)
        assert main([payload["experiment"], path, *argv]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")

    @pytest.mark.parametrize("value", ["abc", "2.5", "-3", ""])
    def test_bad_env_seed_exits_two(self, tmp_path, capsys, monkeypatch,
                                    value):
        monkeypatch.setenv("EXPTAIL_SEED", value)
        path = write_config(tmp_path, "c.json", CONJ_CFG)
        assert main(["conjugate", path]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: EXPTAIL_SEED: ")

    def test_good_values_pass(self, monkeypatch):
        monkeypatch.setenv("EXPTAIL_SEED", "12")
        assert ExperimentConfig.from_dict(CONJ_CFG).seed == 12
        assert ExperimentConfig.from_dict({**CONJ_CFG, "seed": 0}).seed == 0
        assert ExperimentConfig.from_dict(CONJ_CFG, seed=0).seed == 0
        records, status = run(ExperimentConfig.from_dict(
            {**CHAR_CFG, "kmax": 1}))
        assert status == 0 and records[0].inputs["kmax"] == 1


class TestConjugateQuadraticD5:
    def test_rows_match_closed_form(self, tmp_path):
        # the CI config: a correlated B at d = 5, some rows ray-seeded and
        # some on the 9^5 grid
        path = ROOT / "configs" / "conjugate_quadratic_d5.json"
        cfg = ExperimentConfig.from_file(path, out=str(tmp_path / "c.csv"))
        records, status = run(cfg)
        B = young_from_spec(cfg.options["phi"]).params["B"]
        Y = np.array([[r.inputs[f"y_{j + 1}"] for j in range(5)]
                      for r in records])
        want = 0.5 * np.einsum("ij,ij->i", Y, np.linalg.solve(B, Y.T).T)
        got = np.array([r.outputs["phi_star"] for r in records])
        assert status == 0 and len(records) == 5
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)
        assert not any(r.outputs["diverged"] for r in records)


class TestNoNumpyMa:
    @pytest.mark.parametrize("command, config", [
        ("equivalence", "perfbench/equivalence.json"),
        # its rows with some |y_j| > 1 have no ray crossing and are gridded
        ("conjugate", "configs/conjugate_logcosh.json"),
    ])
    def test_run_leaves_numpy_ma_out(self, tmp_path, command, config):
        # np.unique imports numpy.ma, 9-14 ms, in the middle of a run
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        code = ("import sys; from exptail.cli import main; "
                "status = main(sys.argv[1:]); "
                "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'; "
                "sys.exit(status)")
        res = subprocess.run(
            [sys.executable, "-c", code, command, str(ROOT / config),
             "--out", str(tmp_path / "out.csv")],
            env=env, capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr

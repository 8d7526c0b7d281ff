"""End-to-end checks of the command line front end.

Everything goes through main(argv) so exit codes, stderr, and the files
written to --out are exercised exactly as a shell user sees them.
"""

import csv
import json
import math
import re
import tracemalloc
import warnings
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from bff import __version__
from bff.cli import MAX_MC, _round2, main
from bff.engine import MAX_GRID_POINTS
from bff.datasets import coinflip_meta_path, neonatal_births_path
from bff.glm import GlmPrior, fit_map, read_glm_csv
from bff.normal import (
    GlobalNormalPrior,
    NormalSummary,
    ReplicationPair,
    bff_threshold_prob,
    normal_bff,
    normal_closed_summaries,
    replication_bff,
    replication_posterior_hpd,
)


def _summary(out):
    with open(out / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _stderr_record(capsys, expect_code):
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    rec = json.loads(err)
    assert set(rec) == {"error", "exit_code", "message"}
    assert rec["exit_code"] == expect_code
    return rec


def _main_without_warnings(argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code


RECOVERY = ["normal", "--estimate", "-0.14", "--se", "0.064",
            "--prior", "global:m=-0.56,v=0.0144"]


class TestNormal:
    def test_summary_headline(self, tmp_path):
        assert main(RECOVERY + ["--k", "1", "--out", str(tmp_path)]) == 0
        rec = _summary(tmp_path)
        data = NormalSummary(-0.14, 0.064)
        prior = GlobalNormalPrior(-0.56, 0.0144)
        mee, si = normal_closed_summaries(data, prior, 1.0)

        assert rec["tool_version"] == __version__
        assert rec["config"]["subcommand"] == "normal"
        assert "global-normal" in rec["descriptor"]
        assert rec["mee"]["exists"]
        assert rec["mee"]["theta"][0] == pytest.approx(-0.14, abs=5e-7)
        assert rec["mee"]["display"]["theta"] == ["-0.14"]
        assert rec["mee"]["k_me"] == pytest.approx(mee.k_me, rel=1e-9)
        (ss,) = rec["support_sets"]
        assert ss["k"] == 1.0 and not ss["empty"]
        (iv,) = ss["intervals"]
        assert iv["lower"] == pytest.approx(si.intervals[0].lower, abs=1e-7)
        assert iv["upper"] == pytest.approx(si.intervals[0].upper, abs=1e-7)
        assert ss["display"] == ["[-0.35, 0.07]"]

    def test_curve_values_round_trip_exactly(self, tmp_path):
        assert main(RECOVERY + ["--grid=-1,1,101", "--out", str(tmp_path)]) == 0
        rows = _rows(tmp_path / "curve.csv")
        assert rows[0] == ["theta0", "log_bf01"]
        assert len(rows) == 102
        model = normal_bff(NormalSummary(-0.14, 0.064), GlobalNormalPrior(-0.56, 0.0144))
        for theta_txt, value_txt in rows[1::20]:
            # %.17g makes float(text) reproduce the binary value
            assert float(value_txt) == model.log_bff(float(theta_txt))
        raw = (tmp_path / "curve.csv").read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")

    def test_rerun_from_echoed_config_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        args = RECOVERY + ["--k", "0.5,1", "--grid=-0.5,0.3,257", "--out", str(first)]
        assert main(args) == 0
        cfg_path = tmp_path / "rerun.json"
        cfg_path.write_text(json.dumps(_summary(first)["config"]))
        assert main(["normal", "--config", str(cfg_path), "--out", str(second)]) == 0
        assert (first / "curve.csv").read_bytes() == (second / "curve.csv").read_bytes()
        assert not list(second.glob(".bff-*"))  # atomic writes leave no temp files

    def test_config_int_for_float_option_is_echoed_as_float(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"estimate": 1, "se": 2, "prior": "local:v=1"}))
        assert main(["normal", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        echo = _summary(tmp_path)["config"]
        assert isinstance(echo["estimate"], float) and isinstance(echo["se"], float)

    def test_small_k_gets_conservative_label(self, tmp_path):
        assert main(RECOVERY + ["--k", "0.05,1", "--out", str(tmp_path)]) == 0
        labels = [s["label"] for s in _summary(tmp_path)["support_sets"]]
        assert labels[0] == "95% conservative confidence set (universal bound)"
        assert labels[1] is None

    def test_point_prior_boundary_warnings(self, tmp_path):
        args = ["normal", "--estimate", "-0.14", "--se", "0.064",
                "--prior", "point:d=0.3", "--grid=-1,1,201", "--out", str(tmp_path)]
        assert main(args) == 0
        rec = _summary(tmp_path)
        assert rec["mee"] == {"exists": False, "diagnostic": rec["mee"]["diagnostic"]}
        assert "increasing" in rec["mee"]["diagnostic"]
        kinds = {w.split(":")[0] for w in rec["warnings"]}
        assert {"boundary-mee", "unbounded-si-edge"} <= kinds

    def test_point_prior_grid_reaches_far_support_set(self, tmp_path):
        # the k=10 set is [11.41, inf), beyond y + 8 se + d = 8.2
        args = ["normal", "--estimate", "0", "--se", "1", "--prior", "point:d=0.2",
                "--k", "10", "--out", str(tmp_path)]
        assert main(args) == 0
        rec = _summary(tmp_path)
        (ss,) = rec["support_sets"]
        assert not ss["empty"]
        (iv,) = ss["intervals"]
        start = math.log(10.0) / 0.2 - 0.1  # ln BF01 = 0.2 theta0 + 0.02
        assert iv["lower"] == pytest.approx(start, abs=1e-7)
        assert iv["upper_unbounded"]
        assert rec["config"]["grid"][1] > start

    def test_point_prior_grid_unchanged_when_sets_start_inside(self, tmp_path):
        args = ["normal", "--estimate", "0", "--se", "1", "--prior", "point:d=0.2",
                "--k", "1,3", "--out", str(tmp_path)]
        assert main(args) == 0
        assert _summary(tmp_path)["config"]["grid"] == [-8.2, 8.2, 512]

    def test_sweep_writes_quoted_long_format(self, tmp_path):
        args = RECOVERY + ["--grid=-0.5,0.3,41", "--out", str(tmp_path),
                           "--sweep", "global:m=0,v=0.01;local:v=0.02"]
        assert main(args) == 0
        rows = _rows(tmp_path / "sensitivity.csv")
        assert rows[0] == ["prior", "theta0", "log_bf01"]
        by_prior = {}
        for label, theta, value in rows[1:]:
            by_prior.setdefault(label, []).append((float(theta), float(value)))
        assert set(by_prior) == {"global-normal(m=0, v=0.01)", "local-normal(v=0.02)"}
        assert all(len(block) == 41 for block in by_prior.values())
        model = normal_bff(NormalSummary(-0.14, 0.064), GlobalNormalPrior(0.0, 0.01))
        theta, value = by_prior["global-normal(m=0, v=0.01)"][7]
        assert value == model.log_bff(theta)

    def test_out_directory_is_created(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "dir"
        assert main(RECOVERY + ["--out", str(out)]) == 0
        assert (out / "summary.json").exists()


class TestErrorPaths:
    def test_missing_required_flag(self, capsys):
        assert main(["normal", "--estimate", "1"]) == 2
        rec = _stderr_record(capsys, 2)
        assert rec["error"] == "invalid-input" and "--se" in rec["message"]

    def test_unknown_prior_kind(self, capsys):
        assert main(["normal", "--estimate", "1", "--se", "1",
                     "--prior", "gaussian:m=1"]) == 2
        assert "unknown prior kind" in _stderr_record(capsys, 2)["message"]

    def test_invalid_domain_value(self, capsys):
        assert main(["normal", "--estimate", "1", "--se", "-1",
                     "--prior", "local:v=1"]) == 2
        _stderr_record(capsys, 2)

    def test_argparse_failures_map_to_exit_2(self, capsys):
        assert main([]) == 2
        _stderr_record(capsys, 2)
        assert main(["frobnicate"]) == 2
        _stderr_record(capsys, 2)
        assert main(["binomial", "--y", "1.5", "--n", "10",
                     "--prior", "truncbeta:a=1,b=1"]) == 2
        _stderr_record(capsys, 2)

    @pytest.mark.parametrize("a", ["inf", "1e308"])
    def test_beta_shape_beyond_log_gamma_refused(self, tmp_path, capsys, a):
        # log-gamma of 1e308 overflows a double: refused, not a NaN curve
        assert main(["binomial", "--y", "3", "--n", "10", "--prior", f"truncbeta:a={a},b=1",
                     "--out", str(tmp_path)]) == 2
        assert f"a={float(a)!r}" in _stderr_record(capsys, 2)["message"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value", [
        ("--estimate", "-1e-05"), ("--estimate", "-.5"), ("--estimate", "-2"),
    ])
    def test_negative_values_need_no_equals_sign(self, tmp_path, flag, value):
        args = ["normal", "--se", "1", "--prior", "local:v=1", flag, value, "--out", str(tmp_path)]
        assert main(args) == 0
        assert _summary(tmp_path)["config"]["estimate"] == float(value)

    def test_negative_exponent_replication_estimate(self, tmp_path):
        args = ["replication", "--yo", "0.0126", "--so", "0.0755", "--yr", "-7.402344798911054e-05",
                "--sr", "0.0816", "--out", str(tmp_path)]
        assert main(args) == 0
        assert _summary(tmp_path)["config"]["yr"] == -7.402344798911054e-05

    def test_negative_grid_lower_bound(self, tmp_path):
        assert main(RECOVERY + ["--grid", "-9,9,301", "--out", str(tmp_path)]) == 0
        assert _summary(tmp_path)["config"]["grid"] == [-9.0, 9.0, 301]
        assert len(_rows(tmp_path / "curve.csv")) == 302

    def test_unknown_flags_still_refused(self, capsys, tmp_path):
        for bogus in (["--bogus", "1"], ["-x"], ["--estimate", "1", "--bogus"]):
            assert main(RECOVERY + bogus + ["--out", str(tmp_path)]) == 2
            assert "unrecognized arguments" in _stderr_record(capsys, 2)["message"]

    def test_huge_grid_refused_before_allocation(self, capsys, tmp_path):
        code, peak = _peak_bytes(
            lambda: main(RECOVERY + ["--grid", "0,1,1000000000000", "--out", str(tmp_path)])
        )
        assert code == 2
        assert f"at most {MAX_GRID_POINTS}" in _stderr_record(capsys, 2)["message"]
        assert peak < 20e6
        assert not (tmp_path / "curve.csv").exists()

    def test_huge_joint_grid_refused_before_the_denominator(self, capsys, monkeypatch, tmp_path):
        import bff.cli

        def never(*args, **kwargs):
            raise AssertionError("denominator computed for a refused grid")

        monkeypatch.setattr(bff.cli, "meta_log_denominator", never)
        args = ["meta", "--data", str(coinflip_meta_path()), "--theta-prior",
                "truncbeta:a=5100,b=4900,l=0.5,u=1", "--mode", "joint",
                "--theta-grid", "0.5,0.52,2000", "--tau-grid", "0,0.05,2000", "--out", str(tmp_path)]
        assert main(args) == 2
        assert "4000000 points" in _stderr_record(capsys, 2)["message"]

    def test_auto_grid_with_evidence_beyond_float_range(self, tmp_path):
        # log k_ME = 801.65: the closed-form sets that size the grid, and
        # the engine, report k_ME = inf instead of overflowing
        args = ["normal", "--estimate", "-2", "--se", "0.0625",
                "--prior", "global:m=3,v=0.0117", "--out", str(tmp_path)]
        assert _main_without_warnings(args) == 0
        mee = _summary(tmp_path)["mee"]
        assert mee["k_me"] is None and mee["display"]["k_me"] == "inf"
        assert mee["log_k_me"] == pytest.approx(801.6537002043325, rel=1e-12)

    def test_k_me_beyond_decimal_default_precision(self, tmp_path):
        # k_ME = 3.8e43 has 44 integer digits, more than Decimal's default 28
        args = ["normal", "--estimate", "1", "--se", "0.1",
                "--prior", "global:m=-1,v=0.01", "--out", str(tmp_path)]
        assert _main_without_warnings(args) == 0
        mee = _summary(tmp_path)["mee"]
        assert mee["display"]["k_me"] == "38015717192039290000000000000000000000000000.00"
        assert Decimal(mee["display"]["k_me"]) == Decimal(repr(mee["k_me"]))

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"estimate": 1.0, "se": 1.0,
                                   "prior": "local:v=1", "sigma": 3.0}))
        assert main(["normal", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "unknown config keys" in _stderr_record(capsys, 2)["message"]

    def test_malformed_config_json(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{nope")
        assert main(["normal", "--config", str(cfg)]) == 2
        assert "invalid JSON" in _stderr_record(capsys, 2)["message"]

    def test_missing_config_file(self, capsys, tmp_path):
        assert main(["normal", "--config", str(tmp_path / "absent.json")]) == 2
        _stderr_record(capsys, 2)

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out.strip() == f"bff {__version__}"

    # (argv, config key, a bad value for it, the same value as a flag or None
    # where no flag can carry it): a flag and a config value pass the same check
    @pytest.mark.parametrize("argv, key, value, flag_value", [
        (["normal", "--se", "1", "--prior", "local:v=1"], "estimate", "x", "x"),
        (RECOVERY, "k", [1, "a"], "1,a"),
        (RECOVERY, "grid", [0, 1, "x"], "0,1,x"),
        (["binomial", "--n", "20", "--prior", "truncbeta:a=1,b=1"], "y", 10.7, "10.7"),
        (["binomial", "--y", "10", "--prior", "truncbeta:a=1,b=1"], "n", 20.5, "20.5"),
        (["glm", "--data", str(neonatal_births_path()), "--coef", "early_age"],
         "samples", 1000.5, "1000.5"),
        (["glm", "--data", str(neonatal_births_path()), "--coef", "early_age"], "seed", 1.5, "1.5"),
        (["simulate", "--prior", "local:v=1"], "mc", 100.5, "100.5"),
        (["simulate", "--prior", "local:v=1"], "n_values", [10.5], "10.5"),
        (["meta", "--theta-prior", "truncbeta:a=1,b=1"], "data", 5, None),
    ], ids=["estimate", "k", "grid", "y", "n", "samples", "seed", "mc", "n-values", "data"])
    def test_bad_value_refused_from_flag_and_config(self, capsys, tmp_path, argv, key, value,
                                                    flag_value):
        option = "--" + key.replace("_", "-")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        runs = [argv + ["--config", str(cfg)]]
        if flag_value is not None:
            runs.append(argv + [option, flag_value])
        for args in runs:
            assert main(args + ["--out", str(tmp_path)]) == 2
            assert option in _stderr_record(capsys, 2)["message"]
            assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("args", [
        ["simulate", "--prior", "local:v=1", "--mc", "100", "--seed", "-1"],
        ["glm", "--data", str(neonatal_births_path()), "--coef", "early_age", "--method", "mcmc",
         "--samples", "1000", "--seed", "-1"],
        ["simulate", "--prior", "local:v=1", "--mc", "-5"],
    ], ids=["simulate-seed", "glm-seed", "simulate-mc"])
    def test_negative_seed_and_mc_refused_before_sampling(self, capsys, monkeypatch, tmp_path,
                                                          args):
        import bff.cli

        def never(*args, **kwargs):
            raise AssertionError("sampling started for a refused value")

        monkeypatch.setattr(bff.cli, "metropolis_sample", never)
        monkeypatch.setattr(np.random, "default_rng", never)
        assert main(args + ["--out", str(tmp_path)]) == 2
        assert args[-2] in _stderr_record(capsys, 2)["message"]
        assert not (tmp_path / "summary.json").exists()


class TestRound2:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_double(self, x):
        text = _round2(x)
        got, exact = Decimal(text), Decimal(repr(x))
        assert got.as_tuple().exponent == -2
        assert abs(got - exact) <= Decimal("0.005")
        try:
            # what the default 28-digit context could quantize stays byte-identical
            before = str(exact.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
        except InvalidOperation:
            return
        assert text == before


class TestHelp:
    def test_top_level_help_names_every_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for sub in ("normal", "binomial", "meta", "replication", "glm", "simulate"):
            assert re.search(rf"^    {sub} +\S", out, re.M), sub

    @pytest.mark.parametrize("sub, options", [
        ("normal", "estimate se prior k grid sweep"),
        ("binomial", "y n prior k grid sweep"),
        ("meta", "data theta-prior tau-scale mode k theta-grid tau-grid sweep"),
        ("replication", "yo so yr sr k grid"),
        ("glm", "data coef method prior-var samples seed k grid"),
        ("simulate", "theta-star kappa2 prior theta0 n-values gamma-grid mc seed"),
    ])
    def test_subcommand_help_lists_exactly_its_options(self, capsys, sub, options):
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        listed = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
        assert listed == {"--help", "--config", "--out", *("--" + o for o in options.split())}


class TestBinomial:
    def test_coin_flip_headline(self, tmp_path):
        args = ["binomial", "--y", "178078", "--n", "350757",
                "--prior", "truncbeta:a=5100,b=4900,l=0.5,u=1", "--out", str(tmp_path)]
        assert main(args) == 0
        rec = _summary(tmp_path)
        assert rec["config"]["grid"] == [0.5, 0.515, 601]
        assert rec["mee"]["theta"][0] == pytest.approx(0.5076962, abs=3e-4)
        assert rec["mee"]["k_me"] == pytest.approx(6.5087, rel=5e-3)
        assert rec["mee"]["display"]["k_me"] == "6.51"
        (iv,) = rec["support_sets"][0]["intervals"]
        assert iv["lower"] == pytest.approx(0.50606, abs=2e-4)
        assert iv["upper"] == pytest.approx(0.50933, abs=2e-4)

    def test_k_me_beyond_float_range_is_inf_without_warning(self, capsys, tmp_path):
        # log k_ME is about 1.3e5: k_ME itself overflows a float
        args = ["binomial", "--y", "35000", "--n", "350757",
                "--prior", "truncbeta:a=5100,b=4900,l=0.5,u=1", "--grid", "0.05,0.2,301",
                "--out", str(tmp_path)]
        assert _main_without_warnings(args) == 0
        assert capsys.readouterr().err == ""
        mee = _summary(tmp_path)["mee"]
        assert mee["log_k_me"] > 1e5
        assert mee["k_me"] is None
        assert mee["display"]["k_me"] == "inf"

    def test_requires_truncbeta_prior(self, capsys):
        assert main(["binomial", "--y", "3", "--n", "10",
                     "--prior", "global:m=0,v=1"]) == 2
        assert "truncbeta" in _stderr_record(capsys, 2)["message"]

    def test_sweep_rejects_other_priors(self, capsys, tmp_path):
        assert main(["binomial", "--y", "3", "--n", "10",
                     "--prior", "truncbeta:a=1,b=1", "--grid", "0.1,0.9,21",
                     "--sweep", "local:v=1", "--out", str(tmp_path)]) == 2
        _stderr_record(capsys, 2)


@pytest.fixture
def meta_csv(tmp_path):
    path = tmp_path / "studies.csv"
    path.write_text(
        "id,estimate,se\n"
        "s1,0.32,0.010\n"
        "s2,0.29,0.012\n"
        "s3,0.31,0.008\n"
        "s4,0.30,0.015\n"
        "s5,0.33,0.011\n"
    )
    return path


class TestMeta:
    def test_marginal_theta_mode(self, meta_csv, tmp_path):
        out = tmp_path / "out"
        args = ["meta", "--data", str(meta_csv), "--theta-prior", "global:m=0.3,v=0.01",
                "--mode", "theta", "--theta-grid", "0.25,0.35,101", "--out", str(out)]
        assert main(args) == 0
        rows = _rows(out / "curve.csv")
        assert rows[0] == ["theta0", "log_bf01"] and len(rows) == 102
        rec = _summary(out)
        assert rec["mode"] == "theta"
        assert isinstance(rec["log_denominator"], float)
        assert 0.25 < rec["mee"]["theta"][0] < 0.35

    def test_joint_mode_grid_and_regions(self, meta_csv, tmp_path):
        out = tmp_path / "out"
        args = ["meta", "--data", str(meta_csv), "--theta-prior", "global:m=0.3,v=0.01",
                "--mode", "joint", "--theta-grid", "0.27,0.34,15",
                "--tau-grid", "0,0.05,11", "--out", str(out)]
        assert main(args) == 0
        rows = _rows(out / "curve.csv")
        assert rows[0] == ["theta0", "tau0", "log_bf01"]
        assert len(rows) == 1 + 15 * 11
        rec = _summary(out)
        assert len(rec["mee"]["theta"]) == 2
        (region,) = rec["support_regions"]
        assert region["k"] == 1.0
        assert region["cells_inside"] > 0
        assert all(len(seg) == 2 for seg in region["contour_segments"])

    def test_tau_scale_sweep(self, meta_csv, tmp_path):
        out = tmp_path / "out"
        args = ["meta", "--data", str(meta_csv), "--theta-prior", "global:m=0.3,v=0.01",
                "--mode", "tau", "--tau-grid", "0,0.06,41",
                "--sweep", "0.01,0.03", "--out", str(out)]
        assert main(args) == 0
        labels = {row[0] for row in _rows(out / "sensitivity.csv")[1:]}
        assert labels == {"tau-scale=0.01", "tau-scale=0.03"}

    def test_bad_header_names_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("study,est,stderr\na,1,1\n")
        assert main(["meta", "--data", str(bad),
                     "--theta-prior", "global:m=0,v=1"]) == 2
        assert "bad.csv" in _stderr_record(capsys, 2)["message"]

    def test_rejects_local_theta_prior(self, capsys, meta_csv):
        assert main(["meta", "--data", str(meta_csv),
                     "--theta-prior", "local:v=1"]) == 2
        _stderr_record(capsys, 2)

    def test_auto_theta_grid_follows_likelihood_outside_global_prior_box(self, tmp_path):
        # the studies sit 30 prior sd above m: the auto grid once clipped
        # to m + 10 sd = 0.1, below its own lower end
        data = tmp_path / "far.csv"
        data.write_text("id,estimate,se\na,0.30,0.01\nb,0.31,0.012\nc,0.29,0.009\nd,0.305,0.011\n")
        out = tmp_path / "out"
        args = ["meta", "--data", str(data), "--theta-prior", "global:m=0,v=0.0001",
                "--tau-scale", "1e-6", "--mode", "theta", "--out", str(out)]
        assert _main_without_warnings(args) == 0
        rec = _summary(out)
        lo, hi, _ = rec["config"]["theta_grid"]
        assert lo < 0.3 < hi
        assert lo < rec["mee"]["theta"][0] < hi


class TestReplication:
    LAB3 = ["replication", "--yo", "0.205", "--so", "0.051",
            "--yr", "0.435", "--sr", "0.044"]

    def test_lab3_headline(self, tmp_path):
        assert main(self.LAB3 + ["--out", str(tmp_path)]) == 0
        rec = _summary(tmp_path)
        pair = ReplicationPair(0.205, 0.051, 0.435, 0.044)
        mode, hpd = replication_posterior_hpd(pair)
        assert rec["posterior"]["mode"] == pytest.approx(mode, abs=1e-12)
        assert rec["posterior"]["hpd"]["lower"] == pytest.approx(hpd.lower, abs=1e-12)
        assert rec["posterior"]["hpd"]["upper"] == pytest.approx(hpd.upper, abs=1e-12)
        assert rec["posterior"]["display"]["mode"] == "0.34"
        assert rec["mee"]["k_me"] == pytest.approx(520.955, rel=1e-3)

    def test_curve_matches_model_at_zero(self, tmp_path):
        assert main(self.LAB3 + ["--grid=-0.1,0.1,3", "--out", str(tmp_path)]) == 0
        rows = _rows(tmp_path / "curve.csv")
        at_zero = [float(v) for t, v in rows[1:] if float(t) == 0.0]
        model = replication_bff(ReplicationPair(0.205, 0.051, 0.435, 0.044))
        assert at_zero == [model.log_bff(0.0)]


def _write_glm_csv(path, rng, n, beta, separable=False):
    covs = rng.standard_normal((n, len(beta) - 1))
    if separable:
        y = (covs[:, 0] > 0.0).astype(float)
    else:
        eta = beta[0] + covs @ np.asarray(beta[1:])
        y = (rng.uniform(size=n) < expit(eta)).astype(float)
    names = ["outcome"] + [f"x{j}" for j in range(1, len(beta))]
    lines = [",".join(names)]
    for yi, row in zip(y, covs):
        lines.append(",".join([f"{yi:g}"] + [f"{c:.10g}" for c in row]))
    path.write_text("\n".join(lines) + "\n")


class TestGlm:
    def test_laplace_early_age_odds_ratio(self, tmp_path):
        args = ["glm", "--data", str(neonatal_births_path()), "--coef", "early_age",
                "--method", "laplace", "--out", str(tmp_path)]
        assert main(args) == 0
        rec = _summary(tmp_path)
        assert rec["descriptor"] == "logistic[early_age] via laplace"
        dataset = read_glm_csv(neonatal_births_path())
        j = dataset.coefficient_index("early_age")
        fit = fit_map(dataset, GlmPrior(0.5))
        mu = fit.mode[j]
        s2 = np.linalg.inv(fit.neg_hessian)[j, j]
        # argmax of N(t; mu, s2)/N(t; 0, 0.5), not the posterior mode
        log_mee = rec["mee"]["theta"][0]
        assert log_mee == pytest.approx(mu / (1.0 - s2 / 0.5), abs=5e-7)
        assert rec["odds_ratio"]["mee"]["mee"] == pytest.approx(math.exp(log_mee), rel=1e-12)
        (iv,) = rec["odds_ratio"]["support_sets"][0]["intervals"]
        (log_iv,) = rec["support_sets"][0]["intervals"]
        assert iv["lower"] == pytest.approx(math.exp(log_iv["lower"]), rel=1e-12)
        assert iv["upper"] == pytest.approx(math.exp(log_iv["upper"]), rel=1e-12)

    def test_univariate_hydramnios(self, tmp_path):
        args = ["glm", "--data", str(neonatal_births_path()), "--coef", "hydramnios",
                "--method", "univariate-normal", "--out", str(tmp_path)]
        assert main(args) == 0
        rec = _summary(tmp_path)
        assert 30.0 < rec["odds_ratio"]["mee"]["mee"] < 120.0

    def test_mcmc_truncated_curve_and_determinism(self, tmp_path):
        rng = np.random.default_rng(21)
        data_path = tmp_path / "toy.csv"
        _write_glm_csv(data_path, rng, 40, [0.0, 1.0])
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            args = ["glm", "--data", str(data_path), "--coef", "x1", "--method", "mcmc",
                    "--samples", "2000", "--seed", "3", "--grid=-6,6,101",
                    "--out", str(out)]
            assert main(args) == 0
            outs.append(out)
        assert (outs[0] / "curve.csv").read_bytes() == (outs[1] / "curve.csv").read_bytes()
        kinds = {w.split(":")[0] for w in _summary(outs[0])["warnings"]}
        assert "truncated-curve" in kinds

    def test_perfect_separation_exits_3(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        data_path = tmp_path / "sep.csv"
        _write_glm_csv(data_path, rng, 60, [0.0, 1.0], separable=True)
        args = ["glm", "--data", str(data_path), "--coef", "x1",
                "--method", "univariate-normal", "--out", str(tmp_path)]
        assert main(args) == 3
        rec = _stderr_record(capsys, 3)
        assert rec["error"] == "numerical-failure"
        assert "separation" in rec["message"]

    def test_intercept_is_refused(self, capsys, tmp_path):
        args = ["glm", "--data", str(neonatal_births_path()), "--coef", "intercept",
                "--method", "laplace", "--out", str(tmp_path)]
        assert main(args) == 2
        assert "flat prior" in _stderr_record(capsys, 2)["message"]

    def test_huge_sample_count_refused_before_allocation(self, capsys, tmp_path):
        args = ["glm", "--data", str(neonatal_births_path()), "--coef", "early_age",
                "--method", "mcmc", "--samples", "1000000000000", "--out", str(tmp_path)]
        tracemalloc.start()
        try:
            code = main(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "between 100 and 2000000" in _stderr_record(capsys, 2)["message"]
        # the table and its patterns, nothing of the size of the draws
        assert peak < 20e6
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("method", ["laplace", "univariate-normal"])
    def test_one_fit_per_analysis(self, monkeypatch, tmp_path, method):
        import bff.cli
        import bff.glm

        calls = []

        def counted(data, prior):
            calls.append(prior)
            return fit_map(data, prior)

        monkeypatch.setattr(bff.cli, "fit_map", counted)
        monkeypatch.setattr(bff.glm, "fit_map", counted)
        args = ["glm", "--data", str(neonatal_births_path()), "--coef", "anemia",
                "--method", method, "--out", str(tmp_path)]
        assert main(args) == 0
        assert len(calls) == 1

    def test_unknown_coefficient(self, capsys):
        assert main(["glm", "--data", str(neonatal_births_path()),
                     "--coef", "nope"]) == 2
        _stderr_record(capsys, 2)


class TestSimulate:
    def test_cdf_table_monotone_and_matches_mc(self, tmp_path):
        args = ["simulate", "--theta-star", "0", "--kappa2", "4", "--prior", "local:v=4",
                "--theta0", "0", "--n-values", "10,50", "--gamma-grid", "0.05,5,7",
                "--mc", "20000", "--seed", "5", "--out", str(tmp_path)]
        assert main(args) == 0
        rows = _rows(tmp_path / "bff_cdf.csv")
        assert rows[0] == ["n", "theta0", "gamma", "prob_bf_le_gamma", "mc_estimate"]
        blocks = {}
        for n, t0, gamma, p, mc in rows[1:]:
            blocks.setdefault((n, t0), []).append((float(gamma), float(p), float(mc)))
        assert set(blocks) == {("10", "0"), ("50", "0")}
        for block in blocks.values():
            probs = [p for _, p, _ in block]
            assert probs == sorted(probs)
            assert all(0.0 <= p <= 1.0 for p in probs)
            for gamma, p, mc in block:
                se = math.sqrt(max(p * (1.0 - p), 1e-12) / 20000)
                assert abs(p - mc) <= 3.0 * se + 1e-4
        rec = _summary(tmp_path)
        assert rec["descriptor"].startswith("bff-sampling-distribution")
        assert rec["mee"] is None

    def test_analytic_column_matches_library(self, tmp_path):
        args = ["simulate", "--theta-star", "0.2", "--kappa2", "1.5",
                "--prior", "global:m=0.1,v=0.8", "--theta0", "0,0.3",
                "--n-values", "25", "--gamma-grid", "0.1,3,5", "--out", str(tmp_path)]
        assert main(args) == 0
        for n, t0, gamma, p in _rows(tmp_path / "bff_cdf.csv")[1:]:
            expected = bff_threshold_prob(float(gamma), float(t0), 0.2, 0.1, 0.8, 1.5, 25)
            assert float(p) == expected

    def test_tiny_gamma_keeps_its_tail(self, tmp_path):
        from scipy import stats

        args = ["simulate", "--theta-star", "0", "--kappa2", "4", "--prior", "local:v=4",
                "--theta0", "0.3", "--n-values", "200", "--gamma-grid", "1e-30,1e-3,5",
                "--out", str(tmp_path)]
        assert main(args) == 0
        n, t0, gamma, p = _rows(tmp_path / "bff_cdf.csv")[1]
        assert float(gamma) == pytest.approx(1e-30, rel=1e-12)
        # local prior: m = theta0, so lam = n theta0^2 / kappa2 and the cut
        # point is (ln(1 + n v / kappa2) - 2 ln gamma)(1 + kappa2 / (v n))
        cut = (math.log1p(200.0) - 2.0 * math.log(float(gamma))) * (1.0 + 1.0 / 200.0)
        want = float(stats.ncx2.sf(cut, 1, 200 * 0.09 / 4.0))
        assert want == pytest.approx(2.4e-23, rel=0.01, abs=0.0)
        assert float(p) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_same_seed_same_bytes(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            args = ["simulate", "--prior", "local:v=1", "--n-values", "1",
                    "--gamma-grid", "0.5,2,3", "--mc", "500", "--seed", "7",
                    "--out", str(out)]
            assert main(args) == 0
            outs.append((out / "bff_cdf.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_huge_mc_refused_before_allocation(self, capsys, tmp_path):
        args = ["simulate", "--prior", "local:v=1", "--mc", "1000000000000", "--out", str(tmp_path)]
        code, peak = _peak_bytes(lambda: main(args))
        assert code == 2
        assert str(MAX_MC) in _stderr_record(capsys, 2)["message"]
        assert peak < 20e6
        assert not (tmp_path / "bff_cdf.csv").exists()

    def test_huge_gamma_grid_refused(self, capsys, tmp_path):
        args = ["simulate", "--prior", "local:v=1", "--gamma-grid", "0.1,2,1000000000000",
                "--out", str(tmp_path)]
        code, peak = _peak_bytes(lambda: main(args))
        assert code == 2
        assert str(MAX_GRID_POINTS) in _stderr_record(capsys, 2)["message"]
        assert peak < 20e6

    def test_rejects_bad_inputs(self, capsys, tmp_path):
        assert main(["simulate", "--prior", "point:d=1", "--out", str(tmp_path)]) == 2
        _stderr_record(capsys, 2)
        assert main(["simulate", "--prior", "local:v=1", "--kappa2", "-1"]) == 2
        _stderr_record(capsys, 2)
        assert main(["simulate", "--prior", "local:v=1",
                     "--gamma-grid", "0,2,5"]) == 2
        _stderr_record(capsys, 2)

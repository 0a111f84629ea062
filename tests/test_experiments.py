import ast
import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from mmwcov import analytic, montecarlo
from mmwcov.cli import main
from mmwcov.experiments import (
    _KEYS,
    ConfigError,
    ExperimentConfig,
    run_experiment,
    validate_config,
)
from mmwcov.radio import AntennaConfig, ChannelParams, NetworkParams


class TestValidateConfig:
    def test_empty_source_gives_defaults(self, tmp_path):
        empty = tmp_path / "empty.cfg"
        empty.write_text("")
        config = validate_config(empty)
        assert config.params.density == pytest.approx(8e-4)
        assert config.params.channel.alpha_l == pytest.approx(2.0)
        assert config.params.channel.f_c == pytest.approx(26.5e9)
        assert config.params.channel.tx_power_w == pytest.approx(10.0 ** 1.5)
        assert config.params.channel.noise_w == pytest.approx(10.0 ** (-10.4))
        assert config.params.antenna.sectors_exp == 2
        assert config.params.antenna.phi_3db == pytest.approx(math.pi / 2.0)

    def test_range_error_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 2.*channel\.alpha_l.*positive"):
            validate_config("# comment\nchannel.alpha_l = -1\n")

    @pytest.mark.filterwarnings("ignore:alpha_l=")
    def test_alpha_below_the_region_exponents_is_refused_where_they_run(self):
        # the analytic curves and fig8's report integrate the region
        # exponents, and the dominant P2 curves the fade-ratio rows, whose
        # antiderivative tables stop at alpha 0.25
        for text in ("channel.alpha_l = 0.2\nrun.engines = analytic\n",
                     "channel.alpha_l = 0.2\nscenario = fig8\nrun.engines = dominant\n",
                     "channel.alpha_l = 0.2\nrun.engines = dominant\nrun.policies = P2,P3\n"):
            with pytest.raises(ConfigError, match=r"line 1: channel\.alpha_l must be at least "
                                                  r"0\.25 for the analytic region exponents "
                                                  r"\(got 0\.2\)"):
                validate_config(text, environ={})
        for text in ("channel.alpha_l = 0.2\nrun.engines = mc\n",
                     "channel.alpha_l = 0.2\nrun.engines = dominant\nrun.policies = P1,P3\n",
                     "channel.alpha_l = 0.2\nscenario = fig4\nrun.engines = analytic\n",
                     "channel.alpha_l = 0.25\nrun.engines = analytic\n"):
            validate_config(text, environ={})

    def test_sweep_range_errors_name_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 2: sweep\.density must all be positive "
                                              r"\(got \(0\.0008, -1\.0\)\)"):
            validate_config("run.engines = analytic\nsweep.density = 8e-4,-1\n", environ={})
        with pytest.raises(ConfigError, match=r"line 3: sweep\.sectors must all lie in \[0, 8\] "
                                              r"\(got \(12, -1\)\)"):
            validate_config("\n\nsweep.sectors = 12,-1\n", environ={})
        with pytest.raises(ConfigError, match=r"line 1: sweep\.sectors"):
            validate_config("sweep.sectors = 2,9\n", environ={})
        config = validate_config("sweep.density = 5e-5\nsweep.sectors = 0,8\n", environ={})
        assert config.density_sweep == (5e-5,) and config.sector_sweep == (0, 8)
        # an empty list would run nothing: every list key refuses one
        for key in ("run.engines", "run.policies", "grid.gamma_db", "sweep.density",
                    "sweep.sectors"):
            for raw in ("", ","):
                with pytest.raises(ConfigError, match=rf"line 2: {key} must .* \(got \(\)\)"):
                    validate_config(f"scenario = fig7\n{key} = {raw}\n", environ={})

    def test_unknown_key_strict_suggests(self):
        with pytest.raises(ConfigError, match=r"alpha.*did you mean.*channel\.alpha_l"):
            validate_config("alpha = 2\n", strict=True)

    def test_unknown_key_lenient_warns(self):
        # a lenient unknown key is dropped: it sets nothing, not even the
        # known key it resembles
        with pytest.warns(UserWarning, match="unknown key"):
            config = validate_config("alpha = 3\n", environ={})
        assert config == validate_config("", environ={})

    def test_strict_via_config_key(self):
        with pytest.raises(ConfigError):
            validate_config("run.strict = true\nbogus.key = 1\n")
        # strictness does not depend on where run.strict appears
        with pytest.raises(ConfigError, match=r"line 1: unknown key 'bogus'"):
            validate_config("bogus = 1\nrun.strict = true\n", environ={})
        with pytest.raises(ConfigError, match=r"line 1: unknown key 'bogus'"):
            validate_config("bogus = 1\n", environ={"MMWCOV_RUN__STRICT": "true"})
        with pytest.warns(UserWarning, match="unknown key 'bogus'"):
            config = validate_config("run.strict = true\nbogus = 1\n",
                                     environ={"MMWCOV_RUN__STRICT": "false"})
        assert config.strict is False

    def test_phi_3db_range_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 2: antenna\.phi_3db must lie in "
                                              r"\(0, 2\*pi\] \(got -1\.0\)"):
            validate_config("run.engines = dominant\nantenna.phi_3db = -1\n", environ={})
        config = validate_config(f"antenna.phi_3db = {2.0 * math.pi!r}\n", environ={})
        assert config.params.antenna.phi_3db == 2.0 * math.pi

    def test_infinite_value_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 2: channel\.r_los must not be inf"):
            validate_config("run.engines = analytic\nchannel.r_los = inf\n", environ={})
        for key in ("network.density", "antenna.g_max_db", "antenna.phi_3db", "channel.f_c",
                    "channel.tx_power_dbm", "channel.noise_dbm", "sweep.density"):
            with pytest.raises(ConfigError, match=rf"line 1: {key} must not be inf"):
                validate_config(f"{key} = inf\n", environ={})
        with pytest.raises(ConfigError, match=r"env MMWCOV_CHANNEL__ALPHA_L: .* must not be -inf"):
            validate_config(None, environ={"MMWCOV_CHANNEL__ALPHA_L": "-inf"})
        # -inf dBm is no noise, and infinite thresholds are valid thresholds
        config = validate_config("channel.noise_dbm = -inf\ngrid.gamma_db = -inf,0,inf\n"
                                 "grid.fig7_gamma_db = inf\n", environ={})
        assert config.params.channel.noise_w == 0.0
        assert config.gamma_grid_db == (-math.inf, 0.0, math.inf)
        assert config.fig7_gamma_db == math.inf

    def test_level_beyond_the_float_range_names_key_and_line(self):
        # each of these dB levels has a linear value of 0 or above the float
        # range, which the engines cannot take
        for key, level in (("antenna.g_max_db", "4000"), ("antenna.g_max_db", "-4000"),
                           ("channel.tx_power_dbm", "4000"), ("channel.tx_power_dbm", "-4000"),
                           ("channel.noise_dbm", "4000"), ("channel.noise_dbm", "-4000")):
            with pytest.raises(ConfigError, match=rf"line 2: {key} must be finite and above 0 "
                                                  rf"in linear units \(got {level}\.0\)"):
                validate_config(f"run.engines = analytic\n{key} = {level}\n", environ={})
        config = validate_config("antenna.g_max_db = 300\nchannel.tx_power_dbm = -300\n"
                                 "channel.noise_dbm = 300\n", environ={})
        assert config.params.antenna.g_max == 1e30
        assert config.params.channel.tx_power_w == pytest.approx(1e-33)
        assert config.params.channel.noise_w == pytest.approx(1e27)

    def test_range_is_checked_on_the_value_that_wins(self):
        # the environment overrides the file before any range is checked
        config = validate_config("channel.alpha_l = -1\n",
                                 environ={"MMWCOV_CHANNEL__ALPHA_L": "2.1"})
        assert config.params.channel.alpha_l == 2.1
        with pytest.raises(ConfigError, match=r"env MMWCOV_CHANNEL__ALPHA_L: channel\.alpha_l "
                                              r"must be positive \(got -1\.0\)"):
            validate_config("channel.alpha_l = 2.1\n",
                            environ={"MMWCOV_CHANNEL__ALPHA_L": "-1"})

    def test_no_noise_config_flattens_without_warning(self):
        config = validate_config("channel.noise_dbm = -inf\n", environ={})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flat = config.to_flat()
        assert flat["channel.noise_dbm"] == "-inf"

    def test_nan_value_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 2: grid\.gamma_db must not be nan"):
            validate_config("run.engines = dominant\ngrid.gamma_db = 0,nan\n", environ={})
        for key in ("channel.noise_dbm", "grid.fig7_gamma_db", "antenna.sla_db", "channel.r_los"):
            with pytest.raises(ConfigError, match=rf"line 1: {key} must not be nan"):
                validate_config(f"{key} = nan\n", environ={})

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            validate_config("just some words\n")

    def test_db_conversion_at_boundary(self):
        config = validate_config("channel.tx_power_dbm = 30\nchannel.noise_dbm = -90\n")
        assert config.params.channel.tx_power_w == pytest.approx(1.0)
        assert config.params.channel.noise_w == pytest.approx(1e-12)

    def test_env_override(self):
        env = {"MMWCOV_NETWORK__DENSITY": "0.0016", "MMWCOV_RUN__TRIALS": "555"}
        config = validate_config(None, environ=env)
        assert config.params.density == pytest.approx(0.0016)
        assert config.trials == 555

    def test_fixed_point(self):
        # every key set to a value other than its default
        given = {
            "scenario": "fig5",
            "network.density": "0.0012",
            "antenna.g_max_db": "12.5",
            "antenna.sla_db": "25",
            "antenna.sectors_exp": "3",
            "antenna.phi_3db": "0.5",
            "channel.alpha_l": "2.1",
            "channel.f_c": "28e9",
            "channel.m_s": "3",
            "channel.m_x": "4",
            "channel.r_los": "90",
            "channel.tx_power_dbm": "40",
            "channel.noise_dbm": "-inf",
            "run.engines": "mc,dominant",
            "run.policies": "P2,P3",
            "run.seed": str(2**128 - 1),
            "run.trials": "777",
            "run.workers": "2",
            "run.out_dir": "elsewhere",
            "run.strict": "true",
            "grid.gamma_db": "-inf,-5,0,5,inf",
            "grid.fig7_gamma_db": "inf",
            "sweep.density": "5e-4,1e-3",
            "sweep.sectors": "2,4",
        }
        assert set(given) == set(_KEYS)
        config = validate_config("\n".join(f"{k} = {v}" for k, v in given.items()), environ={})
        flat = config.to_flat()
        defaults = ExperimentConfig().to_flat()
        assert list(flat) == list(defaults) == list(_KEYS)
        assert [k for k in flat if flat[k] == defaults[k]] == []
        text = "\n".join(f"{k} = {v}" for k, v in flat.items())
        assert validate_config(text, environ={}).to_flat() == flat

    def test_every_field_is_set_by_exactly_one_key(self):
        def leaves(cls, prefix=""):
            nested = {"params": NetworkParams, "antenna": AntennaConfig,
                      "channel": ChannelParams}
            for f in fields(cls):
                if f.name in nested:
                    yield from leaves(nested[f.name], f"{prefix}{f.name}.")
                else:
                    yield prefix + f.name

        paths = [row.path for row in _KEYS.values()]
        assert sorted(paths) == sorted(leaves(ExperimentConfig))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="does not exist"):
            validate_config(Path("/no/such/file.cfg"))

    def test_seed_range_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 2: run\.seed must lie in \[0, 2\*\*128\) "
                                              r"\(got -1\)"):
            validate_config("run.trials = 10\nrun.seed = -1\n", environ={})
        with pytest.raises(ConfigError, match=rf"line 1: run\.seed .*\(got {2**128}\)"):
            validate_config(f"run.seed = {2**128}\n", environ={})
        with pytest.raises(ConfigError, match=r"env MMWCOV_RUN__SEED: run\.seed"):
            validate_config(None, environ={"MMWCOV_RUN__SEED": "-1"})
        with pytest.raises(ConfigError, match=r"run\.seed must lie in \[0, 2\*\*128\)"):
            replace(validate_config(None, environ={}), seed=-1)
        assert validate_config(f"run.seed = {2**128 - 1}\n", environ={}).seed == 2**128 - 1

    def test_engine_validation(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            validate_config("run.engines = mc,excel\n")
        with pytest.raises(ConfigError, match="at least one engine"):
            validate_config("run.engines =\n")

    def test_chunk_point_budget_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 3: sweep\.density density 1 /m\^2 "
                                              r".*points per chunk.*budget"):
            validate_config("scenario = fig7\nrun.engines = mc\nsweep.density = 8e-4,1.0\n",
                            environ={})
        with pytest.raises(ConfigError, match=r"line 1: network\.density density 1 /m\^2"):
            validate_config("network.density = 1.0\n", environ={})
        with pytest.raises(ConfigError, match=r"line 1: network\.density .*r_los 2000 m"):
            validate_config("channel.r_los = 2000\n", environ={})
        # engines other than mc hold no per-trial point arrays
        config = validate_config("run.engines = analytic\nnetwork.density = 1.0\n", environ={})
        assert config.params.density == 1.0
        # fig4 and fig7 draw the swept densities alone, the other scenarios the
        # network density alone
        with pytest.raises(ConfigError, match=r"line 3: sweep\.density density 1000 /m\^2"):
            validate_config("scenario = fig4\nrun.engines = mc\nsweep.density = 1e3\n",
                            environ={})
        for scenario in ("fig5", "fig6", "fig8", "custom"):
            config = validate_config(f"scenario = {scenario}\nrun.engines = mc\n"
                                     f"sweep.density = 1e3\n", environ={})
            assert config.density_sweep == (1e3,)
        for scenario in ("fig4", "fig7"):
            config = validate_config(f"scenario = {scenario}\nrun.engines = mc\n"
                                     f"network.density = 1e3\n", environ={})
            assert config.params.density == 1e3

    def test_serving_law_names_key_and_line(self):
        # the analytic P1 curves need half the beam spacing within phi_a
        with pytest.raises(ConfigError, match=r"line 1: antenna\.phi_3db leaves beams up to "
                                              r"half the spacing 0\.7854 rad .*phi_a 0\.1581"):
            validate_config("antenna.phi_3db = 0.1\n", environ={})
        # fig5 keeps sla_db in its sector sweep but resets phi_3db
        with pytest.raises(ConfigError, match=r"line 2: antenna\.sla_db .*sla_db 2\)"):
            validate_config("scenario = fig5\nantenna.sla_db = 2\n", environ={})
        # fig8's report builds the law of its own antenna on the dominant engine
        with pytest.raises(ConfigError, match=r"line 3: antenna\.phi_3db"):
            validate_config("scenario = fig8\nrun.engines = dominant\nantenna.phi_3db = 0.1\n",
                            environ={})
        # no law is built: Monte Carlo only, a P3-only custom run, fig6's reset phi_3db
        for text in ("run.engines = mc\nantenna.phi_3db = 0.1\n",
                     "run.policies = P3\nantenna.phi_3db = 0.1\n",
                     "scenario = fig6\nantenna.phi_3db = 0.1\n"):
            assert validate_config(text, environ={}).params.antenna.phi_3db == 0.1

    def test_discrepancy_report_draws_within_the_chunk_budget(self):
        with pytest.raises(ConfigError, match=r"line 3: network\.density density 1 /m\^2"):
            validate_config("scenario = fig8\nrun.engines = dominant\nnetwork.density = 1\n",
                            environ={})
        config = validate_config("scenario = fig6\nrun.engines = dominant\n"
                                 "network.density = 1\n", environ={})
        assert config.params.density == 1.0

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            validate_config("scenario = fig99\n")


def _tiny_config(tmp_path, scenario, **overrides) -> ExperimentConfig:
    base = validate_config(None, environ={})
    defaults = dict(
        scenario=scenario,
        trials=4000,
        seed=2024,
        out_dir=str(tmp_path / scenario),
        gamma_grid_db=(-5.0, 0.0, 5.0),
        sector_sweep=(2,),
        density_sweep=(8e-4,),
    )
    defaults.update(overrides)
    return replace(base, **defaults)


class TestRunExperiment:
    def test_fig5_structure(self, tmp_path):
        config = _tiny_config(tmp_path, "fig5", engines=("mc", "analytic"))
        written = run_experiment(config)
        names = {p.name for p in written}
        assert names == {"fig5_mc.csv", "fig5_analytic.csv", "fig5_manifest.json"}
        mc_rows = list(csv.DictReader(open(tmp_path / "fig5" / "fig5_mc.csv")))
        an_rows = list(csv.DictReader(open(tmp_path / "fig5" / "fig5_analytic.csv")))
        assert set(mc_rows[0]) == {"x", "value", "stderr", "engine", "policy"}
        # matching threshold grids across engines
        assert [r["x"] for r in mc_rows] == [r["x"] for r in an_rows]
        assert {r["engine"] for r in mc_rows} == {"mc"}
        assert len(mc_rows) == 3 * 2   # 3 thresholds x (P1, P3) at one sector count

    def test_replaced_config_that_cannot_run_is_refused_before_any_output(self, tmp_path):
        # a library caller changes a validated config: the run re-checks it
        base = validate_config("antenna.sla_db = 2\nrun.engines = mc\n", environ={})
        out = tmp_path / "refused"
        config = replace(base, scenario="fig5", engines=("analytic",), out_dir=str(out))
        with pytest.raises(ConfigError, match=r"antenna\.sla_db leaves beams up to half the "
                                              r"spacing .*sla_db 2\)"):
            run_experiment(config)
        dense = replace(validate_config("run.engines = mc\n", environ={}), out_dir=str(out),
                        params=NetworkParams(density=1.0))
        with pytest.raises(ConfigError, match=r"network\.density density 1 /m\^2"):
            run_experiment(dense)
        assert not out.exists()

    def test_fig7_grid_size(self, tmp_path):
        config = _tiny_config(tmp_path, "fig7", engines=("mc",),
                              density_sweep=(4e-4, 8e-4, 1.6e-3),
                              sector_sweep=(2, 3, 4, 5, 6), trials=500)
        run_experiment(config)
        rows = list(csv.DictReader(open(tmp_path / "fig7" / "fig7_mc.csv")))
        per_policy = {}
        for r in rows:
            per_policy.setdefault(r["policy"].split(";")[0], []).append(r)
        assert {k: len(v) for k, v in per_policy.items()} == {"P1": 15, "P3": 15}
        manifest = json.loads((tmp_path / "fig7" / "fig7_manifest.json").read_text())
        assert manifest["mc_trials_per_s"] * manifest["runtimes_s"]["mc"] == pytest.approx(
            30 * 500)

    def test_fig7_analytic_curves_share_one_call_per_beam_count(self, tmp_path, monkeypatch):
        # the curves that differ only in density go to one coverage call, and
        # the rows come back in curve order
        calls = []
        for name in ("coverage_p1", "coverage_p3"):
            def counting(gamma, params, fn=getattr(analytic, name), name=name):
                calls.append((name, [p.density for p in params],
                              {p.antenna.sectors_exp for p in params}))
                return fn(gamma, params)
            monkeypatch.setattr(analytic, name, counting)
        densities = (4e-4, 8e-4, 1.6e-3)
        config = _tiny_config(tmp_path, "fig7", engines=("analytic",),
                              density_sweep=densities, sector_sweep=(1, 2))
        run_experiment(config)
        assert sorted((name, tuple(d), tuple(m)) for name, d, m in calls) == [
            (name, densities, (m,)) for name in ("coverage_p1", "coverage_p3") for m in (1, 2)]
        monkeypatch.undo()
        rows = list(csv.DictReader(open(tmp_path / "fig7" / "fig7_analytic.csv")))
        gamma = 10.0 ** (config.fig7_gamma_db / 10.0)
        expected = [(f"{policy};density={d:g}", float(m),
                     fn(gamma, NetworkParams(density=d, antenna=AntennaConfig(sectors_exp=m))))
                    for d in densities for m in (1, 2)
                    for policy, fn in (("P1", analytic.coverage_p1),
                                       ("P3", analytic.coverage_p3))]
        assert [(r["policy"], float(r["x"])) for r in rows] == [e[:2] for e in expected]
        np.testing.assert_allclose([float(r["value"]) for r in rows], [e[2] for e in expected],
                                   rtol=1e-9, atol=0.0)

    def test_manifest_closure(self, tmp_path):
        config = _tiny_config(tmp_path, "custom", engines=("mc",), policies=("P3",))
        written = run_experiment(config)
        manifest = json.loads((tmp_path / "custom" / "custom_manifest.json").read_text())
        flat = manifest["config"]
        text = "\n".join(f"{k} = {v}" for k, v in flat.items())
        assert validate_config(text, environ={}).to_flat() == flat
        assert manifest["seed"] == config.seed
        assert "runtimes_s" in manifest and "versions" in manifest
        assert set(manifest["runtimes_s"]) == {"total", "mc"}
        assert 0.0 < manifest["runtimes_s"]["mc"] <= manifest["runtimes_s"]["total"]
        assert manifest["mc_trials_per_s"] == pytest.approx(
            config.trials / manifest["runtimes_s"]["mc"])
        assert set(manifest["outputs"]) == {"custom_mc.csv"}

    def test_manifest_times_the_analytic_engine(self, tmp_path):
        config = _tiny_config(tmp_path, "custom", engines=("analytic",), policies=("P1", "P3"))
        run_experiment(config)
        manifest = json.loads((tmp_path / "custom" / "custom_manifest.json").read_text())
        runtimes = manifest["runtimes_s"]
        assert set(runtimes) == {"total", "analytic"}
        assert 0.0 < runtimes["analytic"] <= runtimes["total"]

    def test_replay_is_byte_identical(self, tmp_path):
        config = _tiny_config(tmp_path, "custom", engines=("mc",), policies=("P1",))
        run_experiment(config)
        first = (tmp_path / "custom" / "custom_mc.csv").read_bytes()
        run_experiment(config)
        assert (tmp_path / "custom" / "custom_mc.csv").read_bytes() == first

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        c1 = _tiny_config(tmp_path / "a", "custom", engines=("mc",), policies=("P1",),
                          workers=1)
        c4 = _tiny_config(tmp_path / "b", "custom", engines=("mc",), policies=("P1",),
                          workers=4)
        run_experiment(c1)
        run_experiment(c4)
        a = (tmp_path / "a" / "custom" / "custom_mc.csv").read_bytes()
        b = (tmp_path / "b" / "custom" / "custom_mc.csv").read_bytes()
        assert a == b

    def test_fig4_emits_both_engines(self, tmp_path):
        config = _tiny_config(tmp_path, "fig4", engines=("mc", "analytic"),
                              density_sweep=(8e-4,), trials=2000)
        run_experiment(config)
        rows = list(csv.DictReader(open(tmp_path / "fig4" / "fig4_analytic.csv")))
        assert {r["policy"].split(";")[0] for r in rows} == {"P1", "P3"}
        values = np.array([float(r["value"]) for r in rows])
        assert np.all((0.0 <= values) & (values <= 1.0))

    def test_fig4_draws_each_chunk_once(self, tmp_path, monkeypatch):
        # P1 and P3 of one density evaluate on one draw per chunk
        sizes = []
        draw = montecarlo._field_chunk

        def counting(params, n, rng, ws):
            sizes.append(n)
            return draw(params, n, rng, ws)

        monkeypatch.setattr(montecarlo, "_field_chunk", counting)
        config = _tiny_config(tmp_path, "fig4", engines=("mc",), density_sweep=(4e-4, 8e-4),
                              trials=montecarlo.CHUNK_TRIALS + 100, workers=2)
        run_experiment(config)
        assert sorted(sizes) == [100, 100, montecarlo.CHUNK_TRIALS, montecarlo.CHUNK_TRIALS]
        rows = list(csv.DictReader(open(tmp_path / "fig4" / "fig4_mc.csv")))
        assert [r["policy"].split(";")[0] for r in rows[::41]] == ["P1", "P3", "P1", "P3"]

    def test_fig8_emits_discrepancy_report(self, tmp_path):
        config = _tiny_config(tmp_path, "fig8", engines=("dominant",),
                              gamma_grid_db=(0.0,), trials=2000)
        written = run_experiment(config)
        report_path = tmp_path / "fig8" / "discrepancies.json"
        assert report_path in written
        report = json.loads(report_path.read_text())
        assert {e["id"] for e in report} >= {"p2-gain-ratio-density",
                                             "p3-distance-ratio-constant",
                                             "p3-dominant-sir-pairing"}
        manifest = json.loads((tmp_path / "fig8" / "fig8_manifest.json").read_text())
        runtimes = manifest["runtimes_s"]
        assert set(runtimes) == {"total", "dominant", "discrepancy_report"}
        assert 0.0 < runtimes["dominant"] <= runtimes["total"]
        assert runtimes["discrepancy_report"] > 0.0

    def test_csv_full_precision(self, tmp_path):
        config = _tiny_config(tmp_path, "custom", engines=("mc",), policies=("P3",),
                              gamma_grid_db=(0.0,))
        run_experiment(config)
        line = (tmp_path / "custom" / "custom_mc.csv").read_text().splitlines()[1]
        x_field = line.split(",")[0]
        assert "e" in x_field and len(x_field.split("e")[0].split(".")[1]) == 10


class TestThresholdEdges:
    # 4000 dB is finite but above the float range in linear terms: coverage 0,
    # as at +inf, with no overflow warning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("engine, policies", [("analytic", "P1,P2,P3"),
                                                  ("dominant", "P2,P3"),
                                                  ("mc", "P1,P2,P3")])
    def test_infinite_threshold_gives_zero_coverage(self, tmp_path, engine, policies):
        config = validate_config(f"scenario = custom\nrun.engines = {engine}\n"
                                 f"run.policies = {policies}\ngrid.gamma_db = -inf,0,4000,inf\n"
                                 f"run.trials = 2000\nrun.out_dir = {tmp_path}\n", environ={})
        run_experiment(config)
        with open(tmp_path / f"custom_{engine}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        keys = [p + ("-dominant" if engine == "dominant" else "") for p in policies.split(",")]
        assert [row["policy"] for row in rows] == [k for k in keys for _ in range(4)]
        for row in rows:
            x, value = float(row["x"]), float(row["value"])
            if x > 0.0:
                assert value == 0.0
            elif x < 0.0:
                assert value == 1.0
            else:
                assert 0.0 < value < 1.0


class TestCli:
    def test_runs_scenario(self, tmp_path, capsys):
        rc = main(["custom", "--out", str(tmp_path), "--trials", "1000",
                   "--seed", "3", "--engines", "mc"])
        assert rc == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert any(p.endswith("custom_mc.csv") for p in printed)
        assert (tmp_path / "custom_manifest.json").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("channel.alpha_l = -2\n")
        rc = main(["fig5", "--config", str(bad)])
        assert rc == 2
        assert "alpha_l" in capsys.readouterr().err

    def test_missing_config_path_with_equals_sign(self, tmp_path, capsys):
        # a path is never read as config text, whatever characters it holds
        rc = main(["custom", "--config", str(tmp_path / "seed=7.cfg"), "--trials", "100",
                   "--engines", "mc", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_seed_range(self, tmp_path, capsys):
        rc = main(["custom", "--seed", "-1", "--out", str(tmp_path / "bad")])
        assert rc == 2
        assert "--seed: run.seed must lie in [0, 2**128) (got -1)" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()
        rc = main(["custom", "--seed", str(2**128 - 1), "--trials", "10", "--engines", "mc",
                   "--out", str(tmp_path / "top")])
        assert rc == 0
        assert (tmp_path / "top" / "custom_mc.csv").is_file()

    def test_trials_range_names_the_flag(self, tmp_path, capsys):
        rc = main(["custom", "--trials", "0", "--out", str(tmp_path / "bad")])
        assert rc == 2
        assert "--trials: run.trials must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("scenario, text, flags, message", [
        ("custom", "antenna.phi_3db = 0.1\nrun.engines = analytic\n", [],
         r"line 1: antenna\.phi_3db leaves beams up to half the spacing"),
        ("fig5", "antenna.sla_db = 2\n", [], r"line 1: antenna\.sla_db leaves beams"),
        ("custom", "network.density = 1\nrun.engines = analytic\n", ["--engines", "mc"],
         r"line 1: network\.density density 1 /m\^2 .*over the budget"),
        ("custom", "antenna.g_max_db = 4000\n", [], r"line 1: antenna\.g_max_db must be finite"),
        ("fig4", "\nsweep.density =\n", [], r"line 2: sweep\.density must not be empty"),
        ("custom", "run.policies =\n", [], r"line 1: run\.policies must not be empty"),
        # the gain of a link with g_max at both ends, or the side-lobe floor,
        # leaves the float range
        ("custom", "antenna.g_max_db = 3000\n", [],
         r"line 1: antenna\.g_max_db leaves the gain g_max\*\*2 at inf, which must be finite"),
        ("custom", "antenna.g_max_db = -3000\n", [],
         r"line 1: antenna\.g_max_db leaves the gain g_max\*\*2 at 0\.0, which must be"),
        ("custom", "\nantenna.sla_db = 4000\n", [],
         r"line 2: antenna\.sla_db leaves the gain g_s at 0\.0, which must be finite")],
        ids=["custom-phi_3db", "fig5-sla_db", "density-engines-flag", "g_max_db",
             "fig4-empty-sweep", "custom-empty-policies", "g_max_db-squared-inf",
             "g_max_db-squared-0", "sla_db-g_s-0"])
    def test_config_that_cannot_run_is_refused(self, tmp_path, capsys, scenario, text, flags,
                                                message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        rc = main([scenario, "--config", str(cfg), "--out", str(out), "--trials", "10", *flags])
        assert rc == 2
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("text", ["antenna.g_max_db = 300\n", "antenna.g_max_db = -300\n",
                                      "antenna.sla_db = 300\n", "antenna.sla_db = 400\n"])
    def test_antenna_gains_inside_the_float_range_run_on_every_engine(self, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "grid.gamma_db = 0,5\nrun.policies = P1,P2,P3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["custom", "--config", str(cfg), "--out", str(tmp_path / "out"),
                       "--trials", "2000", "--engines", "mc,analytic,dominant"])
        assert rc == 0
        for engine in ("mc", "analytic", "dominant"):
            assert (tmp_path / "out" / f"custom_{engine}.csv").is_file()

    def test_checks_run_on_the_config_the_flags_make(self, tmp_path, monkeypatch):
        # the file alone is a custom analytic P1 run that cannot build its
        # serving law; fig6 resets phi_3db per beam count and runs
        cfg = tmp_path / "run.cfg"
        cfg.write_text("antenna.phi_3db = 0.1\nrun.engines = analytic\nsweep.sectors = 2\n"
                       "grid.gamma_db = 0\n")
        with pytest.raises(ConfigError, match=r"antenna\.phi_3db"):
            validate_config(cfg, environ={})
        rc = main(["fig6", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "fig6_analytic.csv").is_file()
        # the flags win over the file, and over the environment
        cfg.write_text("network.density = 1\nrun.engines = mc\ngrid.gamma_db = 0\n"
                       "run.policies = P3\n")
        monkeypatch.setenv("MMWCOV_RUN__ENGINES", "mc")
        rc = main(["custom", "--config", str(cfg), "--engines", "analytic",
                   "--out", str(tmp_path / "dense")])
        assert rc == 0
        assert (tmp_path / "dense" / "custom_analytic.csv").is_file()

    def test_strict_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.cfg"
        cfg.write_text("alpha = 2\n")
        rc = main(["fig5", "--config", str(cfg), "--strict"])
        assert rc == 2
        assert "did you mean" in capsys.readouterr().err


# The package needs numpy alone, so no engine process pays the 0.2-0.3 s of
# CPU that importing scipy costs.  Importing any scipy submodule loads the
# package ``scipy`` itself, so that one name stands for all of them.
_LOADED = """
import sys
{body}
print("loaded:" + ",".join(sorted(m for m in {modules!r} if m in sys.modules)))
"""


def _modules_loaded(body: str, modules=("scipy",)) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(montecarlo.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _LOADED.format(body=body, modules=modules)],
                         capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip().splitlines()[-1].removeprefix("loaded:")


class TestImportHygiene:
    def test_package_source_imports_no_scipy(self):
        paths = sorted(Path(montecarlo.__file__).parent.glob("*.py"))
        assert paths
        found = []
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] == "scipy"]
        assert found == []

    def test_engine_imports_load_no_scipy_special(self):
        body = ("import mmwcov, mmwcov.cli\n"
                "from mmwcov import (analytic, dominant, experiments, geometry, montecarlo,\n"
                "                    numerics, radio)")
        assert _modules_loaded(body) == ""

    def test_monte_carlo_run_loads_no_scipy_special(self, tmp_path):
        body = ("from dataclasses import replace\n"
                "from mmwcov.experiments import run_experiment, validate_config\n"
                "config = replace(validate_config(None, environ={}), scenario='custom',\n"
                f"                 engines=('mc',), trials=2000, out_dir={str(tmp_path)!r})\n"
                "run_experiment(config)")
        assert _modules_loaded(body) == ""
        assert (tmp_path / "custom_mc.csv").is_file()

    # Nor do the analytic and dominant scenarios, fig8's report included.
    @pytest.mark.parametrize("scenarios, engine, outputs", [
        (("fig6", "fig7"), "analytic", ("fig6_analytic.csv", "fig7_analytic.csv")),
        (("fig8",), "dominant", ("fig8_dominant.csv", "discrepancies.json"))])
    def test_quadrature_runs_load_no_scipy_special(self, tmp_path, scenarios, engine, outputs):
        body = ("from dataclasses import replace\n"
                "from mmwcov.experiments import run_experiment, validate_config\n"
                "base = validate_config(None, environ={})\n"
                f"for scenario in {scenarios!r}:\n"
                f"    run_experiment(replace(base, scenario=scenario, engines=({engine!r},),\n"
                f"                           trials=2000, out_dir={str(tmp_path)!r}))")
        assert _modules_loaded(body) == ""
        for name in outputs:
            assert (tmp_path / name).is_file()

    # The antiderivative tables, of the region exponents and of the dominant
    # P2 law, are fitted without LAPACK (whose first call adds about 1 MB of
    # resident memory), and only when a coverage call first needs them, not
    # at import or validation.
    def test_region_exponents_need_no_lapack_and_no_work_at_import(self):
        body = ("import numpy as np\n"
                "def refuse(*args, **kwargs):\n"
                "    raise AssertionError('numpy.linalg called')\n"
                "np.linalg.solve = np.linalg.lstsq = np.linalg.inv = refuse\n"
                "import mmwcov.cli\n"
                "from mmwcov import analytic, dominant\n"
                "from mmwcov.experiments import validate_config\n"
                "from mmwcov.radio import ChannelParams, NetworkParams\n"
                "validate_config(None, environ={})\n"
                "assert analytic._radial_table.cache_info().currsize == 0\n"
                "assert dominant._fade_table.cache_info().currsize == 0\n"
                "for params in (NetworkParams(), NetworkParams(channel=ChannelParams(m_s=3))):\n"
                "    for fn in (analytic.coverage_p1, analytic.coverage_p2,\n"
                "               analytic.coverage_p3):\n"
                "        assert np.all(fn(np.array([0.5, 2.0]), params) > 0.0)\n"
                "assert analytic._radial_table.cache_info().currsize == 2\n"
                "assert dominant._fade_table.cache_info().currsize == 0\n"
                "cov = dominant.coverage_dom_p2(np.array([0.5, 2.0]), NetworkParams())\n"
                "assert np.all(cov > 0.0)\n"
                "assert dominant._fade_table.cache_info().currsize == 1")
        assert _modules_loaded(body) == ""

    # numpy.polynomial (leggauss) and numpy.ma (np.unique of integers) add
    # about 1.75 MB of resident memory; the quadrature path needs neither.
    def test_quadrature_path_loads_no_numpy_polynomial_or_ma(self, tmp_path):
        body = ("import numpy as np\n"
                "from mmwcov.analytic import coverage_p1\n"
                "from mmwcov.cli import main\n"
                "from mmwcov.radio import NetworkParams\n"
                "main(['fig8', '--engines', 'dominant', '--trials', '2000',\n"
                f"      '--out', {str(tmp_path)!r}])\n"
                "coverage_p1(np.array([0.5, 2.0]), NetworkParams())")
        assert _modules_loaded(body, ("numpy.ma", "numpy.polynomial")) == ""
        assert (tmp_path / "fig8_dominant.csv").is_file()

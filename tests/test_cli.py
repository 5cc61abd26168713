"""Tests for the config parser and the qthermo CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qthermo
from qthermo.cli import _write_outputs, main, parse_config_text, run_experiment
from qthermo.errors import ConfigError

REPO = Path(__file__).resolve().parent.parent


CLM_CFG = """
# fig2a-style sweep, shrunk for test speed
experiment = clm-qfi
family = lorentz_drude
gamma = 0.1
omega_c = 100
omega0_sq = 1.0
T_min = 1e-3
T_max = 1e-2
points = 6
fit_window_lo = 1e-3
fit_window_hi = 1e-2
"""

HEATCAP_CFG = "experiment = heatcap\nJ = 1.0\nh = 0.5\nN = 20\nT_min = 0.1\nT_max = 1.0\n"
TIHC_CFG = "experiment = tihc-qfi\nN = 12\nT_min = 0.05\nT_max = 0.2\n"


class TestConfigParser:
    def test_parses_comments_and_blanks(self):
        cfg = parse_config_text(CLM_CFG)
        assert cfg["experiment"] == "clm-qfi"
        assert cfg["gamma"] == "0.1"

    def test_missing_experiment(self):
        with pytest.raises(ConfigError):
            parse_config_text("gamma = 0.1")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("experiment = heatcap\nexperiment = heatcap")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            parse_config_text("experiment = nonesuch")

    def test_bad_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("experiment = heatcap\njust words")

    def test_unknown_keys_rejected_at_run(self, tmp_path):
        cfg = parse_config_text(CLM_CFG + "\nmystery_key = 3\n")
        with pytest.raises(ConfigError):
            run_experiment(cfg, out=str(tmp_path / "x.csv"), slow_ok=False)


def _record_calls(monkeypatch, module, name: str) -> list:
    """Patch module.name to record each call's argument; returns the record."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda arg: calls.append(arg) or fn(arg))
    return calls


class TestRunExperiment:
    def test_clm_qfi_outputs(self, tmp_path):
        cfg = parse_config_text(CLM_CFG)
        out = tmp_path / "fig2a.csv"
        summary = run_experiment(cfg, out=str(out), slow_ok=False)
        lines = out.read_text().splitlines()
        assert lines[0] == "T,beta,sigma11,sigma22,qfi,rel_error_M1"
        assert len(lines) == 7
        assert summary["fits"][0]["exponent_or_gap"] == pytest.approx(2.0, abs=0.05)
        spath = out.with_suffix(".summary.json")
        stored = json.loads(spath.read_text())
        assert stored["experiment"] == "clm-qfi"
        assert "wall_time_s" in stored

    def test_determinism(self, tmp_path):
        cfg = parse_config_text(CLM_CFG)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        sa = run_experiment(cfg, out=str(out_a), slow_ok=False)
        sb = run_experiment(cfg, out=str(out_b), slow_ok=False)
        assert out_a.read_bytes() == out_b.read_bytes()
        sa.pop("wall_time_s")
        sb.pop("wall_time_s")
        assert sa == sb

    def test_gap_error_experiment(self, tmp_path):
        cfg = parse_config_text(
            "experiment = gap-error\ns = 3.0\nG = 1.0\nN_list = 50,100,200,400"
        )
        summary = run_experiment(cfg, out=str(tmp_path / "xi.csv"), slow_ok=False)
        assert summary["fits"][0]["exponent_or_gap"] == pytest.approx(-2.0, abs=0.15)

    def test_heatcap_experiment(self, tmp_path):
        cfg = parse_config_text(
            "experiment = heatcap\nJ = 0.5\nh = 1.0\nN = 1000\n"
            "T_min = 0.04\nT_max = 0.1\npoints = 4"
        )
        out = tmp_path / "ising.csv"
        run_experiment(cfg, out=str(out), slow_ok=False)
        lines = out.read_text().splitlines()
        assert lines[0] == "T,beta,C_exact,C_asymptotic,ratio"
        assert len(lines) == 5

    def test_star_to_chain_experiment(self, tmp_path):
        cfg = parse_config_text(
            "experiment = star-to-chain\nfamily = lorentz_drude\ngamma = 0.1\n"
            "omega_c = 2.0\nn_modes = 80\nomega_max = 20\nomega0_sq = 0.04\n"
            "fit_n_lo = 5\nfit_n_hi = 40"
        )
        out = tmp_path / "chain.csv"
        summary = run_experiment(cfg, out=str(out), slow_ok=False)
        assert out.read_text().splitlines()[0] == "n,G"
        assert summary["physical"] is True
        assert summary["Omega"] > 0
        assert summary["fits"]  # power law over the requested n window

    def test_discretize_exponential_family(self, tmp_path):
        cfg = parse_config_text(
            "experiment = discretize\nfamily = exponential\ngamma = 0.1\nomega_c = 2.0\n"
            "s = 1.5\nn_modes = 50\nomega_max = 20\n"
        )
        out = tmp_path / "modes.csv"
        summary = run_experiment(cfg, out=str(out), slow_ok=False)
        omega, g = np.loadtxt(out, delimiter=",", skiprows=1, unpack=True)
        star = qthermo.discretize_clm(qthermo.ExponentialCutoff(0.1, 2.0, 1.5), 50, 20.0)
        assert np.array_equal(omega, star.sd.omega_array)
        assert np.array_equal(g, star.sd.g_array)
        assert summary["omega_R_sq"] == star.omega_R_sq
        assert "deficit" not in summary  # the residual is Lorentz-Drude's alone

    def test_chain_to_star_with_no_coupled_modes(self, tmp_path):
        # G = 0 decouples every node from the probe: the table has only its
        # header, and the renormalization is the empty sum
        cfg = parse_config_text("experiment = chain-to-star\nN = 5\nG = 0.0\ngap = 1.0")
        out = tmp_path / "star.csv"
        summary = run_experiment(cfg, out=str(out), slow_ok=False)
        assert out.read_text() == "omega,g\n"
        assert summary["renormalization_sq"] == 0.0
        assert summary["decoupled_count"] == 10

    def test_tihc_gap_config_equivalence(self, tmp_path):
        cfg = parse_config_text(
            "experiment = tihc-qfi\nN = 40\ncoupling_family = power_law\nG = 1\nt = 2.5\n"
            "gap = 0.5\nT_min = 0.05\nT_max = 0.2\npoints = 5\nfit = exponential_gap"
        )
        summary = run_experiment(cfg, out=str(tmp_path / "tihc.csv"), slow_ok=False)
        assert summary["gap"] == pytest.approx(0.5, rel=1e-6)

    def test_tihc_exponential_couplings(self, tmp_path):
        cfg = parse_config_text(
            "experiment = tihc-qfi\nN = 30\ncoupling_family = exponential\nc = 0.8\nG = 1.5\n"
            "gap = 0.4\nT_min = 0.05\nT_max = 0.2\npoints = 4"
        )
        summary = run_experiment(cfg, out=str(tmp_path / "tihc_exp.csv"), slow_ok=False)
        couplings = qthermo.chain.exponential_chain(30, 0.0, G=1.5, c=0.8).couplings
        omega_sq = qthermo.chain.gapless_frequency_sq(30, couplings) + 0.4**2
        chain = qthermo.chain.ChainSpec(N=30, omega_sq=omega_sq, couplings=couplings)
        assert summary["omega_sq"] == omega_sq
        assert summary["gap"] == qthermo.chain.chain_spectrum(chain).gap
        assert summary["gap"] == pytest.approx(0.4, rel=1e-6)

    def test_unknown_tihc_fit_fails_before_the_sweep(self, tmp_path, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the fit kind was checked")

        monkeypatch.setattr(qthermo.chain, "node_moments", sweep)
        cfg = parse_config_text(
            "experiment = tihc-qfi\nN = 12\ngap = 0.3\nT_min = 0.05\nT_max = 0.2\n"
            "points = 4\nfit = bogus"
        )
        with pytest.raises(ConfigError, match="bogus"):
            run_experiment(cfg, out=str(tmp_path / "never.csv"), slow_ok=False)
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("fit", ["", "fit = none\n"], ids=["absent", "none"])
    def test_tihc_fit_window_without_a_fit_fails_before_the_sweep(
        self, tmp_path, monkeypatch, fit
    ):
        # used to exit 0 with "fits": [], the window silently ignored
        def sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the fit window was checked")

        monkeypatch.setattr(qthermo.chain, "node_moments", sweep)
        cfg = parse_config_text(
            "experiment = tihc-qfi\nN = 12\ngap = 0.3\nT_min = 0.05\nT_max = 0.2\n"
            "points = 6\nfit_window_lo = 0.06\nfit_window_hi = 0.15\n" + fit
        )
        with pytest.raises(ConfigError) as exc:
            run_experiment(cfg, out=str(tmp_path / "never.csv"), slow_ok=False)
        for key in ("fit_window_lo", "fit_window_hi", "fit ="):
            assert key in str(exc.value)
        assert not (tmp_path / "never.csv").exists()

    def test_tihc_builds_the_chain_spectrum_once(self, tmp_path, monkeypatch):
        builds = _record_calls(monkeypatch, qthermo.chain, "chain_spectrum")
        cfg = parse_config_text(
            "experiment = tihc-qfi\nN = 40\ngap = 0.5\nT_min = 0.05\nT_max = 0.2\n"
            "points = 5\nfit = exponential_gap"
        )
        summary = run_experiment(cfg, out=str(tmp_path / "tihc.csv"), slow_ok=False)
        assert len(builds) == 1
        assert summary["gap"] == pytest.approx(0.5, rel=1e-6)

    def test_heatcap_builds_the_spectrum_once_and_gates_the_asymptotic_form(
        self, tmp_path, monkeypatch
    ):
        builds = _record_calls(monkeypatch, qthermo.heatcap, "ising_spectrum")
        # gap = 1: T in [0.04, 0.5] spans beta*Delta from 25 down to 2
        cfg = parse_config_text(
            "experiment = heatcap\nJ = 0.5\nh = 1.0\nN = 1000\n"
            "T_min = 0.04\nT_max = 0.5\npoints = 6"
        )
        out = tmp_path / "ising.csv"
        run_experiment(cfg, out=str(out), slow_ok=False)
        assert len(builds) == 1
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        gated = rows[:, 1] < 5.0  # beta * Delta with Delta = 1
        assert gated.any() and not gated.all()
        assert np.all(np.isnan(rows[gated, 3:])) and np.all(np.isfinite(rows[~gated, 2:]))

    def test_gap_error_computes_each_size_once(self, tmp_path, monkeypatch):
        # the table's rows are the values the fit was made from
        calls, gap_error = [], qthermo.chain.gap_error
        monkeypatch.setattr(qthermo.chain, "gap_error", lambda N, s, G: calls.append(N) or gap_error(N, s, G))
        cfg = parse_config_text(GAP_ERROR_CFG.read_text())
        run_experiment(cfg, out=str(tmp_path / "gap_error.csv"), slow_ok=False)
        assert calls == [50, 100, 200, 400, 800]

    def test_slow_gating(self, tmp_path):
        cfg = parse_config_text(CLM_CFG + "\nrequires_slow = true\n")
        with pytest.raises(ConfigError):
            run_experiment(cfg, out=str(tmp_path / "x.csv"), slow_ok=False)
        run_experiment(cfg, out=str(tmp_path / "x.csv"), slow_ok=True)


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        cfg_path = tmp_path / "ok.cfg"
        cfg_path.write_text(CLM_CFG.replace("points = 6", "points = 4"))
        out = tmp_path / "out.csv"
        code = main(["clm-qfi", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_config_error_is_2_and_no_partial_output(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("experiment = clm-qfi\ngamma = not_a_number\nomega_c = 1\n")
        out = tmp_path / "never.csv"
        code = main(["clm-qfi", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["exit_code"] == 2

    def test_experiment_mismatch_is_2(self, tmp_path):
        cfg_path = tmp_path / "mismatch.cfg"
        cfg_path.write_text(CLM_CFG)
        assert main(["heatcap", "--config", str(cfg_path)]) == 2

    def test_computation_error_is_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "divergent.cfg"
        cfg_path.write_text(
            "experiment = clm-qfi\nfamily = lorentz_drude\ngamma = 0.1\nomega_c = 100\n"
            "omega0_sq = 0.0\nT_min = 1e-3\nT_max = 1e-2\npoints = 4\n"
        )
        code = main(["clm-qfi", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
        assert code == 3
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "computation-error"

    @pytest.mark.parametrize("T", ["nan", "inf", "0", "-1"])
    def test_free_probe_bad_temperature_is_3(self, tmp_path, capsys, T):
        # free_probe_qfi_limit checks T itself: it builds no steady-state query
        cfg_path = tmp_path / "free.cfg"
        cfg_path.write_text(f"experiment = free-probe-limit\ngamma = 0.1\nomega_c = 100\nT = {T}\n")
        out = tmp_path / "never.csv"
        assert main(["free-probe-limit", "--config", str(cfg_path), "--out", str(out)]) == 3
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["message"] == "ValueError: temperature must be positive and finite"
        assert not out.exists()

    def test_free_probe_default_ladder_serves_low_temperature(self, tmp_path):
        # the default ladder starts at min(1e-4, T/10): a ladder fixed at 1e-4
        # lies above the pole sums' 10 T bound for T < 1e-5 and exited 3
        cfg_path = tmp_path / "free.cfg"
        cfg_path.write_text("experiment = free-probe-limit\ngamma = 0.1\nomega_c = 100\nT = 1e-6\n")
        out = tmp_path / "free.csv"
        assert main(["free-probe-limit", "--config", str(cfg_path), "--out", str(out)]) == 0
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["two_T_sq_F"] == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize(
        "experiment, text, message",
        [
            ("heatcap", "experiment = heatcap\nJ =\n", "line 2: empty key or value"),
            ("heatcap", "experiment = heatcap\n= 1.0\n", "line 2: empty key or value"),
            ("heatcap", HEATCAP_CFG.replace("h = 0.5\n", ""), "missing required key 'h'"),
            ("heatcap", HEATCAP_CFG + "points = 1\n", "points must be >= 2"),
            ("tihc-qfi", TIHC_CFG + "gapless = maybe\n", "key 'gapless': 'maybe' is not a boolean"),
            ("tihc-qfi", TIHC_CFG + "gapless = true\ngap = 0.3\n", "give exactly one of"),
            ("clm-qfi", CLM_CFG.replace("fit_window_hi = 1e-2", "fit_window_hi = 1e-1"), "fit window"),
            ("clm-qfi", CLM_CFG.replace("lorentz_drude", "gaussian"), "unknown spectral family"),
        ],
        ids=["empty-value", "empty-key", "missing", "points", "gapless", "two", "window", "family"],
    )
    def test_bad_config_value_is_2(self, tmp_path, capsys, experiment, text, message):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text)
        out = tmp_path / "never.csv"
        assert main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "config-error"
        assert payload["message"].startswith(message)
        assert not out.exists()

    def test_non_utf8_config_is_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "latin1.cfg"
        cfg_path.write_bytes(b"experiment = heatcap\nJ = 0.5\xff\n")
        assert main(["heatcap", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "config-error"
        assert str(cfg_path) in payload["message"]

    @pytest.mark.parametrize("points", ["", "points = 4\n"], ids=["default", "given"])
    def test_infinite_t_max_is_2(self, tmp_path, capsys, points):
        cfg_path = tmp_path / "inf.cfg"
        cfg_path.write_text(
            f"experiment = heatcap\nJ = 0.5\nh = 1.0\nN = 100\nT_min = 0.1\nT_max = inf\n{points}"
        )
        out = tmp_path / "never.csv"
        assert main(["heatcap", "--config", str(cfg_path), "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "config-error"
        assert payload["message"].startswith("need 0 < T_min < T_max")
        assert not out.exists()

    def test_tolerance_flag_is_gone(self, tmp_path, capsys):
        # tables are always CSV: --format is as unknown as --tol
        cfg_path = tmp_path / "ok.cfg"
        cfg_path.write_text(CLM_CFG)
        for flag, value in (("--tol", "1e-7"), ("--format", "json")):
            with pytest.raises(SystemExit) as exc:
                main(["clm-qfi", "--config", str(cfg_path), flag, value])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

    def test_tolerance_config_key_is_unknown(self, tmp_path, capsys):
        # no recipe set these keys, so none is read: clm-qfi's infrared
        # cutoff, the table format, free-probe-limit's omega_min ladder,
        # discretize's omega0_sq, on which no output depends, and the input
        # tables of star-to-chain and tihc-qfi, which used to be opened
        free_cfg = "experiment = free-probe-limit\ngamma = 0.1\nomega_c = 100\nT = 1e-3\n"
        modes_cfg = (
            "experiment = discretize\ngamma = 0.1\nomega_c = 2\nn_modes = 40\nomega_max = 20\n"
        )
        star_cfg = modes_cfg.replace("discretize", "star-to-chain") + "omega0_sq = 0.04\n"
        tihc_cfg = "experiment = tihc-qfi\nN = 12\ngap = 0.3\nT_min = 0.05\nT_max = 0.2\n"
        cases = (
            ("clm-qfi", CLM_CFG, ("quad_tol = 1e-9", "omega_min = 1e-3", "format = json")),
            (
                "free-probe-limit",
                free_cfg,
                ("omega_min_start = 1e-4", "omega_min_count = 4", "omega_min_ratio = 10"),
            ),
            ("discretize", modes_cfg, ("omega0_sq = 0.04",)),
            ("star-to-chain", star_cfg, (f"modes_csv = {tmp_path / 'modes.csv'}",)),
            ("tihc-qfi", tihc_cfg, (f"couplings_csv = {tmp_path / 'couplings.csv'}",)),
        )
        for experiment, text, lines in cases:
            cfg_path = tmp_path / "tol.cfg"
            cfg_path.write_text(text + "".join(line + "\n" for line in lines))
            out = tmp_path / "never.csv"
            assert main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 2
            payload = json.loads(capsys.readouterr().err.strip())
            assert payload["error"] == "config-error"
            keys = sorted(line.split(" = ")[0] for line in lines)
            assert payload["message"] == f"unknown config keys: {keys}"
            assert not out.exists()
        # the coupling family that read a table is as unknown as any other
        cfg_path.write_text(tihc_cfg + "coupling_family = csv\n")
        assert main(["tihc-qfi", "--config", str(cfg_path), "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["message"] == "unknown coupling family 'csv'"
        assert not out.exists()

    @pytest.mark.parametrize(
        "window, message",
        [
            ("fit_n_lo = 40\nfit_n_hi = 5\n", "need fit_n_lo < fit_n_hi"),
            ("fit_n_lo = 5\nfit_n_hi = 5\n", "need fit_n_lo < fit_n_hi"),
            ("fit_n_hi = 40\n", "fit_n_lo and fit_n_hi must be given together"),
            ("fit_n_lo = 5\n", "fit_n_lo and fit_n_hi must be given together"),
            ("fit_n_lo = 0\nfit_n_hi = 40\n", "fit_n_lo must be >= 1"),
            (
                "fit_n_lo = 10\nfit_n_hi = 5000\n",
                "fit_n_hi = 5000 exceeds the chain's 80 couplings",
            ),
        ],
        ids=["reversed", "empty", "hi-only", "lo-only", "zero", "beyond-chain"],
    )
    def test_bad_star_to_chain_fit_window_is_2(self, tmp_path, capsys, window, message):
        # each of these used to drop the fit silently and exit 0
        cfg_path = tmp_path / "window.cfg"
        cfg_path.write_text(
            "experiment = star-to-chain\ngamma = 0.1\nomega_c = 2.0\nn_modes = 80\n"
            "omega_max = 20\nomega0_sq = 0.04\n" + window
        )
        out = tmp_path / "never.csv"
        assert main(["star-to-chain", "--config", str(cfg_path), "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "config-error"
        assert payload["message"] == message
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["tihc-qfi", "chain-to-star"])
    @pytest.mark.parametrize(
        "gap, code",
        [("-0.5", 2), ("0", 2), ("nan", 3), ("inf", 3)],
        ids=["negative", "zero", "nan", "inf"],
    )
    def test_non_positive_gap_is_2(self, tmp_path, capsys, experiment, gap, code):
        # gap = -0.5 used to give gap = 0.5's table (only gap^2 entered), and
        # gap = 0 an unflagged gapless chain; NaN and inf stay model errors
        cfg_path = tmp_path / "gap.cfg"
        grid = "T_min = 0.05\nT_max = 0.2\npoints = 4\n" if experiment == "tihc-qfi" else ""
        cfg_path.write_text(f"experiment = {experiment}\nN = 12\ngap = {gap}\n" + grid)
        out = tmp_path / "never.csv"
        assert main([experiment, "--config", str(cfg_path), "--out", str(out)]) == code
        payload = json.loads(capsys.readouterr().err.strip())
        if code == 2:
            assert payload["message"] == (
                f"need gap > 0, got gap={float(gap)!r}; a gapless chain takes gapless = true"
            )
        assert not out.exists()

    def test_fit_window_may_end_at_the_last_coupling(self, tmp_path):
        cfg = parse_config_text(
            "experiment = star-to-chain\ngamma = 0.1\nomega_c = 2.0\nn_modes = 80\n"
            "omega_max = 20\nomega0_sq = 0.04\nfit_n_lo = 10\nfit_n_hi = 80\n"
        )
        summary = run_experiment(cfg, out=str(tmp_path / "chain.csv"), slow_ok=False)
        assert summary["fits"][0]["window"] == (10.0, 80.0)
        assert summary["fits"][0]["n_points"] == 71

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("s = nan\nN_list = 50,100,200,400\n", "1 < s < inf, got s=nan"),
            ("s = inf\nN_list = 50,100,200,400\n", "1 < s < inf, got s=inf"),
            ("s = 3.0\nN_list = -5,10,20,40\n", "N_list entries must be positive"),
            ("s = 3.0\nN_list = 0,10,20,40\n", "N_list entries must be positive"),
            ("s = 3.0\nG = nan\nN_list = 50,100,200,400\n", "got G=nan"),
        ],
        ids=["s-nan", "s-inf", "N-negative", "N-zero", "G-nan"],
    )
    def test_bad_gap_error_input_is_3(self, tmp_path, capsys, entry, message):
        # s = nan and G = nan used to fail as a FitError on r_squared,
        # N = -5 on the couplings length
        cfg_path = tmp_path / "xi.cfg"
        cfg_path.write_text("experiment = gap-error\n" + entry)
        out = tmp_path / "never.csv"
        assert main(["gap-error", "--config", str(cfg_path), "--out", str(out)]) == 3
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "computation-error"
        assert payload["message"].startswith("ValueError: ")
        assert message in payload["message"]
        assert not out.exists()

    def test_missing_config_is_4(self, tmp_path):
        assert main(["clm-qfi", "--config", str(tmp_path / "missing.cfg")]) == 4

    @pytest.mark.parametrize(
        "cfg_text",
        [
            "experiment = heatcap\nJ = nan\nh = 1.0\nN = 100\nT_min = 0.1\nT_max = 1.0\n",
            "experiment = discretize\ngamma = nan\nomega_c = 2.0\nn_modes = 50\nomega_max = 20\n",
            "experiment = discretize\ngamma = 0.1\nomega_c = 2.0\nn_modes = 50\nomega_max = inf\n",
        ],
        ids=["heatcap-J-nan", "discretize-gamma-nan", "discretize-omega_max-inf"],
    )
    def test_non_finite_model_parameter_is_3(self, tmp_path, capsys, cfg_text):
        # these used to exit 0 with C_exact = 0.0, g = nan or inf,nan rows
        cfg_path = tmp_path / "nonfinite.cfg"
        cfg_path.write_text(cfg_text)
        out = tmp_path / "never.csv"
        experiment = parse_config_text(cfg_text)["experiment"]
        assert main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 3
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "computation-error"
        assert not out.exists() and not out.with_suffix(".summary.json").exists()


GAP_ERROR_CFG = REPO / "configs" / "gap_error.cfg"


def _run_gap_error(out: Path) -> tuple[bytes, dict]:
    """The gap_error recipe through main: its table bytes and its summary
    without wall_time_s."""
    assert main(["gap-error", "--config", str(GAP_ERROR_CFG), "--out", str(out)]) == 0
    summary = json.loads(out.with_suffix(".summary.json").read_text())
    summary.pop("wall_time_s")
    return out.read_bytes(), summary


class TestOutputRewrite:
    """A run writes its outputs over the old bytes and cuts off any tail."""

    @pytest.mark.parametrize("stale_bytes", [100_000, 3], ids=["longer", "shorter"])
    def test_stale_outputs_end_as_a_fresh_run(self, tmp_path, stale_bytes):
        fresh = _run_gap_error(tmp_path / "fresh.csv")
        out = tmp_path / "stale.csv"
        out.write_bytes(b"9" * stale_bytes)
        out.with_suffix(".summary.json").write_bytes(b"{" * stale_bytes)
        assert _run_gap_error(out) == fresh

    def test_symlinked_out_is_written_through(self, tmp_path):
        fresh = _run_gap_error(tmp_path / "fresh.csv")
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"9" * 100_000)
        link.symlink_to(target)
        assert _run_gap_error(link) == fresh
        assert link.is_symlink() and target.read_bytes() == fresh[0]

    def test_directory_out_is_4_and_writes_no_summary(self, tmp_path, capsys):
        out = tmp_path / "table"
        out.mkdir()
        assert main(["gap-error", "--config", str(GAP_ERROR_CFG), "--out", str(out)]) == 4
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "io-error" and payload["exit_code"] == 4
        assert not out.with_suffix(".summary.json").exists()

    def test_same_length_rewrite_makes_no_truncate_call(self, tmp_path, monkeypatch):
        out, summary = tmp_path / "t.csv", {"experiment": "gap-error"}
        _write_outputs(out, ("N", "x"), [[1.0, 2.0], [3.0, 4.0]], summary)
        calls, ftruncate = [], os.ftruncate
        monkeypatch.setattr(os, "ftruncate", lambda fd, size: calls.append(size) or ftruncate(fd, size))
        _write_outputs(out, ("N", "x"), [[1.0, 2.0], [3.0, 4.0]], summary)
        assert calls == []
        _write_outputs(out, ("N", "x"), [[1.0, 2.0]], summary)
        assert len(calls) == 1 and out.read_text() == "N,x\n1.0,2.0\n"

    @pytest.mark.parametrize("n_rows", [0, 1, 4])
    def test_table_bytes_are_the_repr_of_each_entry_as_a_float(self, tmp_path, n_rows):
        entries = [0.1, np.float64(1 / 3), 7, np.nan, np.inf, -np.inf, -0.0, 1e16, 1e-5, np.float64(-2.5e-300),
                   np.int64(3), 2.0**0.5]
        rows = [[entries[(3 * i + j) % len(entries)] for j in range(3)] for i in range(n_rows)]
        out = tmp_path / "t.csv"
        _write_outputs(out, ("a", "b", "c"), rows, {})
        expected = "\n".join(["a,b,c"] + [",".join(map(repr, map(float, row))) for row in rows]) + "\n"
        assert out.read_bytes() == expected.encode()

    @pytest.mark.parametrize(
        "rows",
        [[[1.0, 2.0], [3.0]], [[1.0, 2.0, 3.0], [4.0]], [[1.0], [2.0, 3.0, 4.0], [5.0, 6.0]]],
        ids=["short", "balanced", "balanced-3"],
    )
    def test_ragged_rows_are_refused_before_writing(self, tmp_path, rows):
        # one format over every entry would shift a balanced pair of ragged rows silently
        out = tmp_path / "t.csv"
        out.write_bytes(b"old")
        with pytest.raises(ValueError, match="every row needs 2 entries"):
            _write_outputs(out, ("a", "b"), rows, {})
        assert out.read_bytes() == b"old" and not out.with_suffix(".summary.json").exists()


# Recipe tables committed with the benchmark (perfbench/reference, seed 0).
# fig5/fig5_desk are left out: they sit ~1e-13 off their tables since the
# DFT chain reconstruction.  Four route changes moved other tables' last
# digits: fig2a and fig2b take the Lorentz-Drude pole sums, fig4 the
# mirror-symmetric half of the chain on numpy's eigh, free_probe's cutoffs
# the pole sums with closed forms and a Gauss-Legendre sum below each
# cutoff, with no quadrature, fig3a, fig3b and chain_n1000 the chain
# spectrum as one real FFT and one expm1 per mode, and heatcap_ising the
# Ising levels of k <= 0 summed once per +-k pair.  Their bytes are pinned
# to tests/reference, within the benchmark's own tolerance of
# perfbench/reference, until the benchmark's tables are regenerated.
PINNED_RECIPES = (
    "chain_n1000", "fig2a", "fig2b", "fig3a", "fig3b", "fig4_gapless", "fig4_gapped", "free_probe",
    "heatcap_ising",
)
REFERENCE_RECIPES = {
    name: REPO / "configs" / f"{name}.cfg"
    for name in (
        "fig2a",
        "fig2b",
        "fig3a",
        "fig3b",
        "gap_error",
        "heatcap_ising",
        "discretize_residual",
        "fig4_gapless",
        "fig4_gapped",
        "free_probe",
    )
}
REFERENCE_RECIPES["chain_n1000"] = REPO / "perfbench" / "configs" / "chain_n1000.cfg"

_RUN_RECIPES = """
import sys
from qthermo.cli import parse_config_text, run_experiment
out = sys.argv[1]
for name, path in zip(sys.argv[2::2], sys.argv[3::2]):
    with open(path, encoding="utf-8") as fh:
        run_experiment(parse_config_text(fh.read()), out=f"{out}/{name}.csv", slow_ok=False)
"""


@pytest.fixture(scope="module")
def recipe_tables(tmp_path_factory):
    """CLI tables of REFERENCE_RECIPES, made as the benchmark makes them.

    A dense eigensolver's last bits can depend on the BLAS thread count
    (chain-to-star beyond fig4's size), so the recipes run in one child
    process with BLAS pinned to one thread, like perfbench/run.py's workers.
    """
    out = tmp_path_factory.mktemp("recipes")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(Path(qthermo.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    args = [str(x) for item in REFERENCE_RECIPES.items() for x in item]
    subprocess.run([sys.executable, "-c", _RUN_RECIPES, str(out), *args], env=env, check=True)
    return out


@pytest.mark.parametrize("name", sorted(REFERENCE_RECIPES))
def test_recipe_table_matches_reference(recipe_tables, name):
    tables = REPO / ("tests" if name in PINNED_RECIPES else "perfbench") / "reference"
    expected = (tables / f"{name}.csv").read_bytes()
    assert (recipe_tables / f"{name}.csv").read_bytes() == expected


@pytest.mark.parametrize("name", PINNED_RECIPES)
def test_pinned_tables_stay_within_the_benchmark_tolerance(recipe_tables, name):
    got = np.loadtxt(recipe_tables / f"{name}.csv", delimiter=",", skiprows=1)
    ref = np.loadtxt(REPO / "perfbench" / "reference" / f"{name}.csv", delimiter=",", skiprows=1)
    assert got.shape == ref.shape
    assert _scaled_deviation(got, ref) <= 1e-8


_RUN_SLOW_RECIPES = """
import sys
from qthermo.cli import parse_config_text, run_experiment
out = sys.argv[1]
for name, path in zip(sys.argv[2::2], sys.argv[3::2]):
    with open(path, encoding="utf-8") as fh:
        run_experiment(parse_config_text(fh.read()), out=f"{out}/{name}.csv", slow_ok=True)
"""


def _scaled_deviation(got: np.ndarray, ref: np.ndarray) -> float:
    """perfbench's measure: |a - b| / max(|b|, 1e-3 column max)."""
    scale = np.maximum(np.abs(ref), 1e-3 * np.max(np.abs(ref), axis=0))
    return float(np.max(np.abs(got - ref) / scale))


def test_star_to_chain_tables_do_not_depend_on_blas_threads(tmp_path):
    # fig5 and fig5_desk take their star modes from a secular solver, not a
    # threaded eigensolver, so their last bits hold for any thread count;
    # so do fig4's, from the eigh of a 100 x 100 half block (at N = 400 the
    # half block's eigh rounds differently on two threads)
    names = ("fig5", "fig5_desk", "fig4_gapless", "fig4_gapped")
    recipes = [str(x) for name in names for x in (name, REPO / "configs" / f"{name}.cfg")]
    src = str(Path(qthermo.__file__).resolve().parent.parent)
    for threads in ("1", "2"):
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        (tmp_path / threads).mkdir()
        cmd = [sys.executable, "-c", _RUN_SLOW_RECIPES, str(tmp_path / threads), *recipes]
        subprocess.run(cmd, env=env, check=True)
    for name in names:
        table = (tmp_path / "1" / f"{name}.csv").read_bytes()
        assert (tmp_path / "2" / f"{name}.csv").read_bytes() == table
        got = np.loadtxt(tmp_path / "1" / f"{name}.csv", delimiter=",", skiprows=1)
        ref_path = REPO / "perfbench" / "reference" / f"{name}.csv"
        ref = np.loadtxt(ref_path, delimiter=",", skiprows=1)
        assert got.shape == ref.shape
        assert _scaled_deviation(got, ref) <= 1e-8

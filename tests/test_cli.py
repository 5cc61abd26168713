"""Tests for the config parser and the qthermo CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qthermo
from qthermo.cli import main, parse_config_text, run_experiment
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
            run_experiment(cfg, out=str(tmp_path / "x.csv"))


def _record_calls(monkeypatch, module, name: str) -> list:
    """Patch module.name to record each call's argument; returns the record."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda arg: calls.append(arg) or fn(arg))
    return calls


class TestRunExperiment:
    def test_clm_qfi_outputs(self, tmp_path):
        cfg = parse_config_text(CLM_CFG)
        out = tmp_path / "fig2a.csv"
        summary = run_experiment(cfg, out=str(out))
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
        sa = run_experiment(cfg, out=str(out_a))
        sb = run_experiment(cfg, out=str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()
        sa.pop("wall_time_s")
        sb.pop("wall_time_s")
        assert sa == sb

    def test_json_format(self, tmp_path):
        cfg = parse_config_text(CLM_CFG)
        out = tmp_path / "fig2a.json"
        run_experiment(cfg, out=str(out), fmt="json")
        data = json.loads(out.read_text())
        assert data["columns"][0] == "T"
        assert len(data["rows"]) == 6

    def test_gap_error_experiment(self, tmp_path):
        cfg = parse_config_text(
            "experiment = gap-error\ns = 3.0\nG = 1.0\nN_list = 50,100,200,400"
        )
        summary = run_experiment(cfg, out=str(tmp_path / "xi.csv"))
        assert summary["fits"][0]["exponent_or_gap"] == pytest.approx(-2.0, abs=0.15)

    def test_heatcap_experiment(self, tmp_path):
        cfg = parse_config_text(
            "experiment = heatcap\nJ = 0.5\nh = 1.0\nN = 1000\n"
            "T_min = 0.04\nT_max = 0.1\npoints = 4"
        )
        out = tmp_path / "ising.csv"
        run_experiment(cfg, out=str(out))
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
        summary = run_experiment(cfg, out=str(out))
        assert out.read_text().splitlines()[0] == "n,G"
        assert summary["physical"] is True
        assert summary["Omega"] > 0
        assert summary["fits"]  # power law over the requested n window

    def test_tihc_gap_config_equivalence(self, tmp_path):
        cfg = parse_config_text(
            "experiment = tihc-qfi\nN = 40\ncoupling_family = power_law\nG = 1\nt = 2.5\n"
            "gap = 0.5\nT_min = 0.05\nT_max = 0.2\npoints = 5\nfit = exponential_gap"
        )
        summary = run_experiment(cfg, out=str(tmp_path / "tihc.csv"))
        assert summary["gap"] == pytest.approx(0.5, rel=1e-6)

    def test_tihc_couplings_from_csv(self, tmp_path):
        csv_path = tmp_path / "g.csv"
        csv_path.write_text("n,G\n" + "".join(f"{n},{1.0 / n**2.5!r}\n" for n in range(1, 13)))
        cfg = parse_config_text(
            "experiment = tihc-qfi\nN = 12\ncoupling_family = csv\n"
            f"couplings_csv = {csv_path}\n"
            "gap = 0.3\nT_min = 0.05\nT_max = 0.2\npoints = 4"
        )
        summary = run_experiment(cfg, out=str(tmp_path / "tihc_csv.csv"))
        assert summary["gap"] == pytest.approx(0.3, rel=1e-6)

    def test_unknown_tihc_fit_fails_before_the_sweep(self, tmp_path, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the fit kind was checked")

        monkeypatch.setattr(qthermo.chain, "node_moments", sweep)
        cfg = parse_config_text(
            "experiment = tihc-qfi\nN = 12\ngap = 0.3\nT_min = 0.05\nT_max = 0.2\n"
            "points = 4\nfit = bogus"
        )
        with pytest.raises(ConfigError, match="bogus"):
            run_experiment(cfg, out=str(tmp_path / "never.csv"))
        assert not (tmp_path / "never.csv").exists()

    def test_tihc_builds_the_chain_spectrum_once(self, tmp_path, monkeypatch):
        builds = _record_calls(monkeypatch, qthermo.chain, "chain_spectrum")
        cfg = parse_config_text(
            "experiment = tihc-qfi\nN = 40\ngap = 0.5\nT_min = 0.05\nT_max = 0.2\n"
            "points = 5\nfit = exponential_gap"
        )
        summary = run_experiment(cfg, out=str(tmp_path / "tihc.csv"))
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
        run_experiment(cfg, out=str(out))
        assert len(builds) == 1
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        gated = rows[:, 1] < 5.0  # beta * Delta with Delta = 1
        assert gated.any() and not gated.all()
        assert np.all(np.isnan(rows[gated, 3:])) and np.all(np.isfinite(rows[~gated, 2:]))

    def test_slow_gating(self, tmp_path):
        cfg = parse_config_text(CLM_CFG + "\nrequires_slow = true\n")
        with pytest.raises(ConfigError):
            run_experiment(cfg, out=str(tmp_path / "x.csv"))
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

    def test_missing_config_is_4(self, tmp_path):
        assert main(["clm-qfi", "--config", str(tmp_path / "missing.cfg")]) == 4

    @pytest.mark.parametrize(
        "key, cfg_text",
        [
            (
                "couplings_csv",
                "experiment = tihc-qfi\nN = 12\ncoupling_family = csv\n"
                "gap = 0.3\nT_min = 0.05\nT_max = 0.2\npoints = 4\n",
            ),
            ("modes_csv", "experiment = star-to-chain\nomega0_sq = 0.04\n"),
        ],
        ids=["couplings_csv", "modes_csv"],
    )
    def test_missing_input_csv_is_4(self, tmp_path, capsys, key, cfg_text):
        missing = tmp_path / "missing.csv"
        cfg_path = tmp_path / "input.cfg"
        cfg_path.write_text(cfg_text + f"{key} = {missing}\n")
        out = tmp_path / "never.csv"
        experiment = parse_config_text(cfg_text)["experiment"]
        code = main([experiment, "--config", str(cfg_path), "--out", str(out)])
        assert code == 4
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "io-error" and payload["exit_code"] == 4
        assert str(missing) in payload["message"]
        assert not out.exists() and not out.with_suffix(".summary.json").exists()

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

    @pytest.mark.parametrize(
        "body, line",
        [
            pytest.param(b"x,y\n1.0,0.5\n2.0,0.25\n", 1, id="header"),
            pytest.param(b"{h}\n1.0,0.5\n2.0,abc\n", 3, id="non-numeric"),
            pytest.param(b"{h}\n1.0,0.5,7.0\n2.0,0.25\n", 2, id="extra-column"),
            pytest.param(b"{h}\n1.0,nan\n2.0,0.25\n", 2, id="non-finite"),
            pytest.param(b"{h}\n", None, id="no-rows"),
            pytest.param(b"{h}\n1.0,0.5\n2.0,0.25\xff\n", None, id="non-utf8"),
        ],
    )
    @pytest.mark.parametrize(
        "key, header, cfg_text",
        [
            (
                "couplings_csv",
                b"n,G",
                "experiment = tihc-qfi\nN = 2\ncoupling_family = csv\n"
                "gap = 0.3\nT_min = 0.05\nT_max = 0.2\npoints = 4\n",
            ),
            ("modes_csv", b"omega,g", "experiment = star-to-chain\nomega0_sq = 0.04\n"),
        ],
        ids=["couplings_csv", "modes_csv"],
    )
    def test_malformed_input_table_is_2(
        self, tmp_path, capsys, key, header, cfg_text, body, line
    ):
        table = tmp_path / "table.csv"
        table.write_bytes(body.replace(b"{h}", header))
        cfg_path = tmp_path / "input.cfg"
        cfg_path.write_text(cfg_text + f"{key} = {table}\n")
        out = tmp_path / "never.csv"
        experiment = parse_config_text(cfg_text)["experiment"]
        assert main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "config-error"
        assert str(table) in payload["message"]
        if line is not None:
            assert f"line {line}:" in payload["message"]
        assert not out.exists() and not out.with_suffix(".summary.json").exists()


def test_chain_to_star_table_maps_back_through_star_to_chain(tmp_path):
    # one omega,g format serves both directions: the fig4_gapped star, read
    # back as modes_csv, rebuilds the chain's couplings G_n = n^-2.5
    star_csv = tmp_path / "star.csv"
    with open(REPO / "configs" / "fig4_gapped.cfg", encoding="utf-8") as fh:
        first = run_experiment(parse_config_text(fh.read()), out=str(star_csv))
    omega0_sq = first["probe_omega_sq"] - first["renormalization_sq"]
    cfg = parse_config_text(
        f"experiment = star-to-chain\nmodes_csv = {star_csv}\nomega0_sq = {omega0_sq!r}"
    )
    chain_csv = tmp_path / "chain.csv"
    back = run_experiment(cfg, out=str(chain_csv))
    n, g = np.loadtxt(chain_csv, delimiter=",", skiprows=1, unpack=True)
    assert np.array_equal(n, np.arange(1, 101))
    assert np.max(np.abs(g - n**-2.5)) <= 1e-12
    assert back["omega_sq"] == pytest.approx(first["probe_omega_sq"], rel=1e-12)



# Recipe tables committed with the benchmark (perfbench/reference, seed 0).
# fig5/fig5_desk are left out: they sit ~1e-13 off their tables since the
# DFT chain reconstruction.  fig2a and fig2b take about 1 s together.
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
        run_experiment(parse_config_text(fh.read()), out=f"{out}/{name}.csv")
"""


@pytest.fixture(scope="module")
def recipe_tables(tmp_path_factory):
    """CLI tables of REFERENCE_RECIPES, made as the benchmark makes them.

    The eigensolver's last bits depend on the BLAS thread count (fig4), so
    the recipes run in one child process with BLAS pinned to one thread,
    like perfbench/run.py's workers.
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
    expected = (REPO / "perfbench" / "reference" / f"{name}.csv").read_bytes()
    assert (recipe_tables / f"{name}.csv").read_bytes() == expected


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
    # threaded eigensolver, so their last bits hold for any thread count
    names = ("fig5", "fig5_desk")
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

"""scipy stays off the import path: only routines that call it load it.

Each test runs in a fresh interpreter, because this one has already
imported scipy (the other test modules use it as an oracle).
"""

import json
import os
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import pytest

import qthermo

REPO = Path(__file__).resolve().parent.parent

# Prints the loaded scipy modules and, given a config file and an output
# path, the env record of the summary run_experiment returns.
_PROBE = """
import json, sys
import qthermo, qthermo.cli
env = None
if len(sys.argv) > 1:
    with open(sys.argv[1], encoding="utf-8") as fh:
        cfg = qthermo.cli.parse_config_text(fh.read())
    env = qthermo.cli.run_experiment(cfg, out=sys.argv[2], slow_ok=False)["env"]
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.startswith("scipy")), "env": env}))
"""


def probe(*args: str) -> dict:
    env = dict(os.environ)
    src = str(Path(qthermo.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *args], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def test_import_loads_no_scipy():
    assert probe()["scipy"] == []


# fig3a is tihc-qfi; discretize_residual has a Lorentz-Drude reservoir,
# whose bins have a closed form; the clm-qfi probes of fig2a and fig2b take
# the pole sums, and so do free_probe's cutoffs; fig4's chain-to-star takes
# numpy's eigh.
@pytest.mark.parametrize(
    "recipe",
    [
        "fig3a", "gap_error", "heatcap_ising", "discretize_residual", "fig2a", "fig2b", "free_probe",
        "fig4_gapless", "fig4_gapped",
    ],
)
def test_chain_experiments_load_no_scipy(tmp_path, recipe):
    result = probe(str(REPO / "configs" / f"{recipe}.cfg"), str(tmp_path / "out.csv"))
    assert result["scipy"] == []
    # the summary records the installed scipy, read from its metadata, so it
    # does not depend on whether an earlier run in the process loaded scipy
    assert result["env"]["scipy"] == metadata.version("scipy")
    assert result["env"]["qthermo"] == qthermo.__version__


def test_brownian_probe_loads_scipy(tmp_path):
    # every Lorentz-Drude probe route and chain-to-star are free of scipy;
    # star-to-chain's normal modes still take LAPACK's dlasd4 from scipy
    result = probe(str(REPO / "configs" / "fig5_desk.cfg"), str(tmp_path / "out.csv"))
    assert "scipy" in result["scipy"]
    assert isinstance(result["env"]["scipy"], str) and result["env"]["scipy"]

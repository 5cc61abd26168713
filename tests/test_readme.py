"""The README's python blocks run as written.

The first block composes the two mappings on fig4_gapped's chain
(configs/fig4_gapped.cfg: N = 100, G_n = n^-2.5, gap 0.5) and claims the
rebuilt chain gives back its couplings and node frequency.  The couplings
come back to 1e-12 of the largest one: the 1e-5 tail keeps only about
1e-11 relative each.
"""

import re
from pathlib import Path

import numpy as np

import qthermo as qt

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_has_two_python_blocks():
    assert len(_python_blocks()) == 2


def test_round_trip_block_gives_back_fig4_gapped_chain():
    base = qt.power_law_chain(100, 0.0, G=1.0, t=2.5)
    chain = qt.ChainSpec(100, qt.gapless_frequency_sq(100, base.couplings) + 0.5**2, base.couplings)
    scope = {"qt": qt, "chain": chain}
    exec(_python_blocks()[0], scope)
    back = scope["back"]
    assert back.N == chain.N
    g = chain.couplings
    assert np.max(np.abs(back.couplings - g)) <= 1e-12 * np.max(np.abs(g))
    assert abs(back.omega_sq - chain.omega_sq) <= 1e-12


def test_library_example_block_runs(capsys):
    exec(_python_blocks()[1], {})
    assert len(capsys.readouterr().out.splitlines()) == 3

"""The reservoir, chain and mode-system specs hold each quantity once.

Each of DiscreteModes, ChainSpec, ChainSpectrum, EffectiveStar and
ModeSystem keeps its quantities as read-only float copies of its input, so
a caller that changes its own array afterwards changes nothing, and a spec
compares and hashes by identity, as QfiCurve does.
"""

import numpy as np
import pytest

from qthermo import ChainSpec, ChainSpectrum, DiscreteModes, EffectiveStar, ModeSystem

# (build, input arrays, the field that keeps each input)
SPECS = {
    "DiscreteModes": (DiscreteModes, ([0.5, 1.0, 2.0], [0.1, 0.0, 0.3]), ("omega_array", "g_array")),
    "ChainSpec": (lambda g: ChainSpec(3, 1.0, g), ([0.3, 0.2, 0.1],), ("couplings",)),
    "ChainSpectrum": (ChainSpectrum, ([2.0, 1.5, 1.0],), ("array",)),
    "EffectiveStar": (lambda m: EffectiveStar(1.0, m, 1), ([[0.5, 0.1], [1.0, 0.2]],), ("coupled_modes",)),
    "ModeSystem": (lambda e: ModeSystem("bosonic", e), ([0.5, 1.0, 2.0],), ("energies",)),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_spec_keeps_a_read_only_copy_and_compares_by_identity(name):
    build, data, fields = SPECS[name]
    inputs = [np.array(d, dtype=float) for d in data]
    spec = build(*inputs)
    for x in inputs:
        x[...] = 7.0
    for field, d in zip(fields, data):
        value = getattr(spec, field)
        assert value.dtype == np.float64 and np.array_equal(value, d)
        with pytest.raises(ValueError, match="read-only"):
            value[0] = 0.0
    twin = build(*map(np.array, data))
    assert spec != twin and len({spec, twin}) == 2


def test_one_name_per_quantity():
    chain = ChainSpec(3, 1.0, [0.3, 0.2, 0.1])
    assert chain.coupling_array is chain.couplings
    star = EffectiveStar(1.0, [[0.5, 0.1], [1.0, 0.2]], 1)
    assert np.array_equal(star.omega_array, [0.5, 1.0]) and np.array_equal(star.g_array, [0.1, 0.2])
    with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
        EffectiveStar(1.0, [0.5, 0.1], 1)

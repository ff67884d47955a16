"""The exact oracles give the same bits whichever SIMD loops numpy picks.

numpy dispatches its ufuncs to per-CPU loops at import; its AVX-512 ``pow``
loop rounds differently from the baseline one, so a value built with
``x**4`` or ``eta**k`` on an array could depend on the machine.  Here a fixed
sample of oracle values is computed in this process and again in a child
process with numpy's AVX-512-class dispatch targets switched off through
``NPY_DISABLE_CPU_FEATURES``; every ``float.hex`` must agree.  Run as a
script, this file prints the sample as JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stabrenyi
from stabrenyi.noise import (
    _dressed_purity_coefficients,
    corrected_w,
    haar_channel_stats,
    prep_channel,
    w_epsilon,
)
from stabrenyi.oracle import haar_random_state, stab_purity_exact
from stabrenyi.states import gamma_state

GAMMAS = [(2, 2), (3, 4), (4, 6), (5, 6), (5, 9)]
DRAWS_PER_STATE = 40
HAAR_QUBITS = range(1, 9)
HAAR_SEEDS = range(5)
#: (channel probabilities, Pauli strings) for haar_channel_stats.
CHANNELS = [
    ([0.9, 0.1], ["I", "Z"]),
    ([0.7, 0.2, 0.1], ["II", "XZ", "YY"]),
    ([0.85, 0.05, 0.05, 0.05], ["III", "ZII", "IZI", "IIZ"]),
    ([0.6, 0.3, 0.1], ["IIII", "XYZI", "ZZZZ"]),
]


def sample_hexes() -> list[str]:
    """float.hex of w_epsilon, stab_purity_exact, corrected_w and the dressed
    purity coefficients over gamma states and random (p, eps, q), of the Haar
    stabilizer purity for n = 1..8, and of the Haar channel statistic X."""
    rng = np.random.default_rng(2204)
    values: list[float] = []
    for n, t in GAMMAS:
        state = gamma_state(n, t)
        for _ in range(DRAWS_PER_STATE):
            p, eps, q = rng.uniform(0.5, 1.0), rng.uniform(0.0, 0.8), rng.uniform(0.8, 1.0)
            rho_p = prep_channel(state, p)
            values += [w_epsilon(rho_p, eps), stab_purity_exact(rho_p)]
            values.append(corrected_w(0.1, state, p, eps))
            values += _dressed_purity_coefficients(state, q)
    for n in HAAR_QUBITS:
        values += [stab_purity_exact(haar_random_state(n, seed)) for seed in HAAR_SEEDS]
    for probs, strings in CHANNELS:
        values.append(haar_channel_stats(probs, strings, len(strings[0]))["x"])
    return [float(v).hex() for v in values]


def _avx512_targets() -> list[str]:
    """numpy's AVX-512-class dispatch targets that this CPU has."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    found = umath.__cpu_features__
    return [
        name for name in getattr(umath, "__cpu_dispatch__", [])
        if (name.startswith("AVX512") or name == "X86_V4") and found.get(name)
    ]


def test_oracle_bits_do_not_depend_on_simd_dispatch():
    targets = _avx512_targets()
    if not targets:
        pytest.skip("numpy found no AVX-512-class dispatch target on this CPU")
    package_root = str(Path(stabrenyi.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True,
        check=True, timeout=300,
    )
    child = json.loads(result.stdout)
    here = sample_hexes()
    assert len(child) == len(here)
    moved = [k for k, (a, b) in enumerate(zip(here, child)) if a != b]
    assert moved == [], f"{len(moved)} of {len(here)} values moved: {moved[:10]}"


if __name__ == "__main__":
    print(json.dumps(sample_hexes()))

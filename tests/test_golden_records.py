"""Frozen sha256 digests of ``stabrenyi simulate`` record files and of
``stabrenyi estimate``, ``fit-noise``, ``calibrate`` and ``predict`` reports.

For a fixed seed a record file must stay byte-identical: the Clifford words,
the RNG draws, the count keys and their order, and the JSON layout all feed
the digest.  Any change to the simulator, the sampler or the writer that
moves a single byte fails here.  The first six digests were taken from the
package before the estimation path was batched, the noisy gamma 5-6 record
and the calibrate report before the word probabilities were batched; the
gamma-12 seed-2022 digest is the one the benchmark pins for its
``wide_estimate`` workload.  The estimate and fit-noise report digests were
taken before experiment data moved from per-unit count dicts to arrays; they
gate the whole read -> estimate path, down to the last printed digit.  The
fit-noise digest was re-pinned once, for the closed-form p solve, after its
values had been pinned as literals: p moved by 1e-13, p_err by 1e-11 relative.
The predict digest was taken while the oracles still raised their Pauli
spectra to the fourth power with numpy's ``pow``, before they squared twice.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from stabrenyi import estimator
from stabrenyi.cli import EXIT_OK, main, state_from_label
from stabrenyi.estimator import estimate
from stabrenyi.fitting import fit_noise
from stabrenyi.recordio import read_records

GOLDEN_RECORDS = [
    (
        "gamma 3-4 noiseless",
        ["--state", "gamma", "--n", "3", "--t", "4", "--nu", "20", "--nm", "50",
         "--seed", "7"],
        "8d3781e9de3ee21c26dbc97c61f054f5f8bba4b074f8dacead3a7ec879839100",
    ),
    (
        "zero 2 noiseless",
        ["--state", "zero", "--n", "2", "--nu", "10", "--nm", "30", "--seed", "0"],
        "916666cdcc0603c6bfa47246b53b949da7cd394f8f6feb107d7f68cbc149b1c2",
    ),
    (
        "ptheta 0.7 noiseless",
        ["--state", "ptheta", "--theta", "0.7", "--nu", "12", "--nm", "40",
         "--seed", "5"],
        "5e2e51450d6cb4bbc7e4d83ff3840dc42d990d6ec7aa0e808aaf40a750bcbe1e",
    ),
    (
        "gamma 3-4 noisy",
        ["--state", "gamma", "--n", "3", "--t", "4", "--nu", "30", "--nm", "100",
         "--seed", "11", "--noise", "0.85,0.95,0.3"],
        "2eae772c36d104c5b5ceac87c57e3c469b7cc6dc4c363b97509deadfb0817ea9",
    ),
    (
        "gamma 4-3 noisy, no displacement",
        ["--state", "gamma", "--n", "4", "--t", "3", "--nu", "8", "--nm", "64",
         "--seed", "3", "--noise", "0.9,0.97,0"],
        "2ade37bbe3bea362a87b6ec6ececdd988d1ad1dbecb7fa038193f21b88067e57",
    ),
    (
        "gamma 12-12 seed 2022",
        ["--state", "gamma", "--n", "12", "--t", "12", "--nu", "50", "--nm", "1000",
         "--seed", "2022"],
        "8ef0f072b3694302ed1e89370214d5bc494d3a57490665d6346fdaf376be92fa",
    ),
    (
        "gamma 5-6 noisy, all prep terms",
        ["--state", "gamma", "--n", "5", "--t", "6", "--nu", "20", "--nm", "80",
         "--seed", "13", "--noise", "0.85,0.95,0.3"],
        "cb4a3121fdc0f82ffac1677cffe33a7a85b58d0009277d91a4e4a9493315386f",
    ),
]

#: ``estimate --verbose`` reports of two golden record files, per method.
GOLDEN_ESTIMATES = [
    ("gamma 3-4 noisy", "ustat",
     "8aa338d19c0d96d612602af0dd9814e25c121c3e76167eacf169ce9f6471e007"),
    ("gamma 3-4 noisy", "plugin",
     "322d38a153b0e51ea6e1dfcbfcc9a30a743ca3cbe44b295e48e0f6b97c5d2dfe"),
    ("gamma 12-12 seed 2022", "ustat",
     "c4d86f50c7a69eb2de52072b4bd9762e28b1bc6fedb4f363644fe57bb75fec8c"),
    ("gamma 12-12 seed 2022", "plugin",
     "e54db43210b29bd5700ff8d3b753cbd7b70fda1355bc27aaa9f28143ca11544d"),
]

#: fit-noise on zero-3 (seed 1) and gamma 3-4 (seed 2) records, 300 x 300,
#: both simulated with --noise 0.85,0.95,0.3.
FIT_NOISE_DIGEST = "3a203b922a56cc78f27903492f17df3afc3b4dec808d256bc9b79135974beb69"

#: gamma 3-4 on a 2x2 grid, 3 trials, plugin: every cell's spread and purity
#: deviation, and the selected cell, are pinned to the byte.
CALIBRATE_DIGEST = "6063cb3be0f2a31a435bd05749d18e3e395537f9a7b7c677e3c01e880d6ca8c9"

#: predict --state gamma --n 5 --t 6 --p 0.9 --eps 0.3: the exact W_eps, W,
#: purity and Omega of the noise model, pinned to the last printed digit.
PREDICT_DIGEST = "55d010d25fcaef7b94fc2bfbf0d3c22aeb86f6eb4729e3e17825e46900b3d6ac"


RECORD_CASES = [pytest.param(a, d, id=name) for name, a, d in GOLDEN_RECORDS]


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv, digest", RECORD_CASES)
def test_simulate_record_bytes_are_frozen(tmp_path, argv, digest):
    out = tmp_path / "records.jsonl"
    assert main(["simulate", *argv, "--out", str(out)]) == EXIT_OK
    assert _digest(out) == digest


@pytest.mark.parametrize("argv, digest", RECORD_CASES)
def test_record_bytes_hold_when_units_redraw_their_ids(
    tmp_path, monkeypatch, argv, digest
):
    """The simulator's rejection threshold raised to one draw in eight: from
    an eighth of the units (one draw each) to most of them (10 or 12 draws)
    redraw by numpy's own ``integers``, and every byte stays."""
    monkeypatch.setattr(estimator, "_LEMIRE_REJECT", 2**32 // 8)
    out = tmp_path / "records.jsonl"
    assert main(["simulate", *argv, "--out", str(out)]) == EXIT_OK
    assert _digest(out) == digest


@pytest.mark.parametrize(
    "record, method, digest",
    [pytest.param(r, m, d, id=f"{r}, {m}") for r, m, d in GOLDEN_ESTIMATES],
)
def test_estimate_report_bytes_are_frozen(tmp_path, record, method, digest):
    argv = next(a for name, a, _ in GOLDEN_RECORDS if name == record)
    records = tmp_path / "records.jsonl"
    assert main(["simulate", *argv, "--out", str(records)]) == EXIT_OK
    out = tmp_path / "report.json"
    assert main(["estimate", "--records", str(records), "--method", method,
                 "--verbose", "--out", str(out)]) == EXIT_OK
    assert _digest(out) == digest


def _fit_noise_records(tmp_path):
    zero, target = tmp_path / "zero.jsonl", tmp_path / "target.jsonl"
    common = ["--nu", "300", "--nm", "300", "--noise", "0.85,0.95,0.3"]
    assert main(["simulate", "--state", "zero", "--n", "3", *common,
                 "--seed", "1", "--out", str(zero)]) == EXIT_OK
    assert main(["simulate", "--state", "gamma", "--n", "3", "--t", "4", *common,
                 "--seed", "2", "--out", str(target)]) == EXIT_OK
    return zero, target


def test_fit_noise_report_bytes_are_frozen(tmp_path):
    zero, target = _fit_noise_records(tmp_path)
    out = tmp_path / "report.json"
    assert main(["fit-noise", "--records-zero", str(zero), "--records", str(target),
                 "--out", str(out)]) == EXIT_OK
    assert _digest(out) == FIT_NOISE_DIGEST


def test_fit_noise_values_are_pinned(tmp_path):
    """The fit behind FIT_NOISE_DIGEST, as literals: a solver change may move
    the last digits of p and the finite-difference errors, but no further."""
    zero, target = _fit_noise_records(tmp_path)
    zero_data, target_data = read_records(zero), read_records(target)
    fit = fit_noise(estimate(zero_data), estimate(target_data),
                    state_from_label(target_data.state_label))
    assert fit.p == pytest.approx(0.8644932106070982, rel=0, abs=1e-12)
    assert fit.q == pytest.approx(0.9412698590452371, rel=0, abs=1e-12)
    assert fit.epsilon == pytest.approx(0.23343808903151705, rel=0, abs=1e-12)
    assert fit.p_err == pytest.approx(0.043584244017096756, rel=1e-6)
    assert fit.q_err == pytest.approx(0.011884112170860233, rel=1e-6)
    assert fit.epsilon_err == pytest.approx(0.21228387825633666, rel=1e-6)


def test_calibrate_report_bytes_are_frozen(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"unit_grid": [8, 16], "shot_grid": [32, 64]}))
    out = tmp_path / "report.json"
    argv = ["calibrate", "--state", "gamma", "--n", "3", "--t", "4",
            "--grid", str(grid), "--trials", "3", "--seed", "17",
            "--method", "plugin", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert _digest(out) == CALIBRATE_DIGEST


def test_predict_report_bytes_are_frozen(tmp_path):
    out = tmp_path / "report.json"
    argv = ["predict", "--state", "gamma", "--n", "5", "--t", "6", "--p", "0.9",
            "--eps", "0.3", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert _digest(out) == PREDICT_DIGEST

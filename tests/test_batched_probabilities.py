"""Properties of the batched word probabilities, the batched readout channel
and the block shot sampler.

Simulation computes the outcome distributions of a block of measurement
units as one (U, 2**n) array and draws their counts with one
``sample_counts`` call, one generator per row.  The record bytes stay fixed only if every row
carries exactly the bits a unit computed alone would: so batched rows are
checked bitwise against one-row calls, against any split into blocks, and
against a per-word reference kept here that applies each gate with
``np.tensordot``, one qubit at a time.  Hypothesis runs derandomized and
without an example database, so the suite stays deterministic.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabrenyi import estimator
from stabrenyi.cliffords import CLIFFORD_1Q, N_CLIFFORD
from stabrenyi.estimator import ExperimentData, simulate_experiment, word_outcome_probs
from stabrenyi.noise import (
    NoiseParams,
    phase_gate,
    prep_channel,
    protocol_average_1q,
    readout_channel,
)
from stabrenyi.oracle import (
    exact_protocol_value,
    haar_random_state,
    subset_moments,
    walsh_z_expectations,
    word_statistics,
)
from stabrenyi.states import as_mixture, gamma_state, ptheta_state, sample_counts

PROPERTY = settings(max_examples=60)


def _tensordot_1q(vec: np.ndarray, n: int, gate: np.ndarray, qubit: int) -> np.ndarray:
    """Reference: a 2x2 operator on one qubit of one vector, by tensordot."""
    moved = np.moveaxis(vec.reshape([2] * n), qubit, 0)
    out = np.tensordot(gate, moved, axes=([1], [0]))
    return np.moveaxis(out, 0, qubit).reshape(-1)


def per_word_reference(state, outer, inner, noise) -> np.ndarray:
    """One unit's outcome distribution, word by word and gate by gate."""
    n = state.n
    if noise.epsilon != 0.0:
        p_eps = phase_gate(noise.epsilon)
        mats = [CLIFFORD_1Q[o] @ p_eps @ CLIFFORD_1Q[i] for o, i in zip(outer, inner)]
    else:
        mats = [CLIFFORD_1Q[o] for o in outer]
    probs = np.zeros(2**n)
    for weight, term in prep_channel(state, noise.p).terms:
        amps = term.amplitudes
        for qubit, mat in enumerate(mats):
            amps = _tensordot_1q(amps, n, mat, qubit)
        probs += weight * np.abs(amps) ** 2
    if noise.q != 1.0:
        flip = np.array([[noise.q, 1.0 - noise.q], [1.0 - noise.q, noise.q]])
        for qubit in range(n):
            probs = _tensordot_1q(probs, n, flip, qubit)
    return probs


noise_params = st.builds(
    NoiseParams,
    p=st.one_of(st.just(1.0), st.just(0.0), st.floats(0.0, 1.0)),
    q=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    epsilon=st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)),
)


@st.composite
def word_batches(draw):
    """(state, outer, inner, noise): 1-12 random words on a 1-6 qubit state."""
    n = draw(st.integers(1, 6))
    units = draw(st.integers(1, 12))
    words = st.lists(
        st.lists(st.integers(0, N_CLIFFORD - 1), min_size=n, max_size=n),
        min_size=units,
        max_size=units,
    )
    outer, inner = np.array(draw(words)), np.array(draw(words))
    state = haar_random_state(n, draw(st.integers(0, 2**32 - 1)))
    return state, outer, inner, draw(noise_params)


@PROPERTY
@given(word_batches())
def test_batched_rows_equal_one_row_calls_and_reference(case):
    state, outer, inner, noise = case
    batch = word_outcome_probs(state, outer, inner_ids=inner, noise=noise)
    assert batch.shape == (len(outer), 2**state.n)
    for row, o, i in zip(batch, outer.tolist(), inner.tolist()):
        one = word_outcome_probs(state, tuple(o), inner_ids=tuple(i), noise=noise)
        assert np.array_equal(row, one)
        assert np.array_equal(row, per_word_reference(state, o, i, noise))


@PROPERTY
@given(word_batches(), st.lists(st.integers(0, 12), max_size=4))
def test_any_block_split_gives_same_bits(case, cuts):
    state, outer, inner, noise = case
    inner = inner if noise.epsilon else None
    whole = word_outcome_probs(state, outer, inner_ids=inner, noise=noise)
    bounds = [0, *sorted(c for c in cuts if c < len(outer)), len(outer)]
    pieces = [
        word_outcome_probs(
            state,
            outer[a:b],
            inner_ids=None if inner is None else inner[a:b],
            noise=noise,
        )
        for a, b in zip(bounds, bounds[1:])
        if b > a
    ]
    assert np.array_equal(np.concatenate(pieces), whole)


@PROPERTY
@given(
    st.integers(1, 6),
    st.sampled_from([(1,), (5,), (2, 3)]),
    st.one_of(st.just(1.0), st.just(0.0), st.floats(0.0, 1.0)),
    st.integers(0, 2**32 - 1),
)
def test_batched_readout_rows_equal_1d_calls(n, lead, q, seed):
    probs = np.random.default_rng(seed).dirichlet(np.full(2**n, 0.5), size=lead)
    dressed = readout_channel(probs, q)
    assert dressed.shape == probs.shape
    for index in np.ndindex(*lead):
        assert np.array_equal(dressed[index], readout_channel(probs[index], q))


@st.composite
def probability_blocks(draw):
    """(probs, seeds): 1-12 rows of 2**n outcome probabilities, n = 1..6,
    some entries zero or a hair below zero, and one generator seed per row."""
    n = draw(st.integers(1, 6))
    units = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    alpha = draw(st.sampled_from([0.05, 0.5, 5.0]))
    probs = np.random.default_rng(seed).dirichlet(np.full(2**n, alpha), size=units)
    probs[:, 0] -= draw(st.sampled_from([0.0, 1e-13]))
    return probs, [seed + k for k in range(units)]


@PROPERTY
@given(probability_blocks(), st.integers(1, 1000))
def test_block_sampling_equals_one_row_calls(block, n_shots):
    probs, seeds = block
    got = sample_counts(probs, n_shots, [np.random.default_rng(s) for s in seeds])
    assert got.shape == probs.shape and got.dtype == np.int64
    for row, counts, s in zip(probs, got, seeds):
        one = sample_counts(row, n_shots, np.random.default_rng(s))
        assert np.array_equal(counts, one)


@PROPERTY
@given(probability_blocks(), st.data(), st.sampled_from(["nan", "negative", "sum"]))
def test_one_bad_row_fails_the_block(block, data, fault):
    probs, seeds = block
    row = data.draw(st.integers(0, len(probs) - 1))
    if fault == "nan":
        probs[row, 1] = np.nan
    elif fault == "negative":  # the sum stays 1 to rounding
        probs[row, 1] += probs[row, 0] + 1e-11
        probs[row, 0] = -1e-11
    else:
        probs[row] *= 1.0 + 1e-6
    rngs = [np.random.default_rng(s) for s in seeds]
    with pytest.raises(ValueError, match="probability distribution"):
        sample_counts(probs, 10, rngs)


@PROPERTY
@given(probability_blocks(), st.sampled_from([-1, 1]))
def test_block_needs_one_generator_per_row(block, extra):
    probs, seeds = block
    rngs = [np.random.default_rng(s) for s in [*seeds, 0]][: len(seeds) + extra]
    with pytest.raises(ValueError, match="generators"):
        sample_counts(probs, 10, rngs)


def per_unit_simulation(state, n_units, n_shots, seed, noise) -> ExperimentData:
    """Reference: every unit on its own, words then counts from its substream."""
    ids, counts = [], []
    for k in range(n_units):
        stream = np.random.SeedSequence(entropy=seed, spawn_key=(k,))
        rng = np.random.default_rng(stream)
        outer = tuple(int(c) for c in rng.integers(0, N_CLIFFORD, size=state.n))
        inner = None
        if noise.epsilon != 0.0:
            inner = tuple(int(c) for c in rng.integers(0, N_CLIFFORD, size=state.n))
        probs = per_word_reference(state, outer, inner, noise)
        ids.append(outer)
        counts.append(sample_counts(probs, n_shots, rng))
    return ExperimentData(
        n=state.n, state_label="custom", clifford_ids=ids, counts=counts, seed=seed
    )


@pytest.mark.parametrize(
    "n, t, n_units, noise",
    [
        (3, 4, 40, NoiseParams()),
        (3, 4, 40, NoiseParams(0.85, 0.95, 0.3)),
        (9, 9, 150, NoiseParams()),  # 64 units a block: three blocks
        (9, 9, 150, NoiseParams(0.9, 0.97, 0.2)),
    ],
)
def test_simulation_matches_per_unit_reference(n, t, n_units, noise):
    state = gamma_state(n, t)
    got = simulate_experiment(state, n_units, 50, seed=31, noise=noise)
    assert got == per_unit_simulation(state, n_units, 50, 31, noise)


@pytest.mark.parametrize("noise", [NoiseParams(), NoiseParams(0.85, 0.95, 0.3)])
def test_rejected_units_match_per_unit_reference(monkeypatch, noise):
    """With the rejection threshold raised so that about half the units have
    a rejected draw, those units redraw by ``integers`` on a fresh generator
    (a second ``_SeedWords``), and the data are still the reference's."""
    state = gamma_state(3, 4)
    draws = 2 * state.n if noise.epsilon != 0.0 else state.n
    threshold = int(2**32 * (1.0 - 0.5 ** (1.0 / draws)))  # P(no rejection) = 1/2
    monkeypatch.setattr(estimator, "_LEMIRE_REJECT", threshold)
    made = []

    class CountedSeedWords(estimator._SeedWords):
        def __init__(self, words):
            made.append(words)
            super().__init__(words)

    monkeypatch.setattr(estimator, "_SeedWords", CountedSeedWords)
    got = simulate_experiment(state, 200, 50, seed=31, noise=noise)
    assert 60 < len(made) - 200 < 140
    assert got == per_unit_simulation(state, 200, 50, 31, noise)


@pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 4])
@pytest.mark.parametrize("epsilon, q", [(0.0, 1.0), (0.3, 1.0), (0.6, 0.9), (1.1, 0.0)])
def test_protocol_average_1q_equals_per_pair_loop(theta, epsilon, q):
    state = ptheta_state(theta)
    p_eps = phase_gate(epsilon)
    flip = np.array([[q, 1.0 - q], [1.0 - q, q]])
    w_total = p_total = 0.0
    for outer in CLIFFORD_1Q:
        for inner in CLIFFORD_1Q:
            probs = np.abs((outer @ p_eps @ inner) @ state.amplitudes) ** 2
            if q != 1.0:
                probs = _tensordot_1q(probs, 1, flip, 0)
            w_c, p_c = word_statistics(probs, 1)
            w_total += w_c
            p_total += p_c
    count = N_CLIFFORD**2
    assert protocol_average_1q(state, epsilon, q) == (w_total / count, p_total / count)


@pytest.mark.parametrize(
    "state",
    [ptheta_state(0.7), gamma_state(2, 2), prep_channel(gamma_state(2, 3), 0.8)],
    ids=["ptheta", "gamma-2-2", "gamma-2-3 dephased"],
)
def test_exact_protocol_value_equals_per_word_loop(state):
    n = state.n
    probs = np.zeros((N_CLIFFORD**n, 2**n))
    for row, ids in zip(probs, itertools.product(range(N_CLIFFORD), repeat=n)):
        for weight, psi in as_mixture(state).terms:
            amps = psi.amplitudes
            for qubit, cid in enumerate(ids):
                amps = _tensordot_1q(amps, n, CLIFFORD_1Q[cid], qubit)
            row += weight * np.abs(amps) ** 2
    z2 = walsh_z_expectations(probs, n) ** 2
    w_c, p_c = subset_moments(z2, z2 * z2, n)
    assert exact_protocol_value(state, "stab_purity") == float(np.mean(w_c))
    assert exact_protocol_value(state, "purity") == float(np.mean(p_c))

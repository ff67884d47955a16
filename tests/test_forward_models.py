"""The noise fit's forward models against the simulator's exact average.

``fit_noise`` inverts three closed forms: ``readout_dressed_purity(
prep_channel(psi, p), q)`` for the purity, ``w_chi(q, eps)**n`` for the zero
state's stabilizer purity and ``w_epsilon(prep_channel(psi, p), eps)`` inside
``corrected_w``.  Here each equals the protocol statistics of the simulator's
own outcome distributions (``word_outcome_probs``) averaged over every
(recorded, hidden) Clifford word pair: all 576 pairs at n = 1 and all
331,776 at n = 2, summed in chunks of 24 outer words so memory stays flat.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabrenyi.cliffords import N_CLIFFORD
from stabrenyi.estimator import word_outcome_probs
from stabrenyi.noise import (
    NoiseParams,
    prep_channel,
    readout_dressed_purity,
    w_chi,
    w_epsilon,
)
from stabrenyi.oracle import word_statistics
from stabrenyi.states import gamma_state, ptheta_state, zero_state

TOL = 1e-12

#: Every word of n Clifford ids, one row each, in lexicographic order.
WORDS = {n: np.array(list(itertools.product(range(N_CLIFFORD), repeat=n))) for n in (1, 2)}


def exact_average(state, noise: NoiseParams) -> tuple[float, float]:
    """(W, P) averaged over every (outer, inner) pair of words, in chunks of
    24 outer words, each against every inner word."""
    words = WORDS[state.n]
    w_sum = p_sum = 0.0
    for chunk in np.split(words, len(words) // N_CLIFFORD):
        outer = np.repeat(chunk, len(words), axis=0)
        inner = np.tile(words, (len(chunk), 1))
        probs = word_outcome_probs(state, outer, inner_ids=inner, noise=noise)
        w_c, p_c = word_statistics(probs, state.n)
        w_sum += float(w_c.sum())
        p_sum += float(p_c.sum())
    pairs = len(words) ** 2
    return w_sum / pairs, p_sum / pairs


@settings(max_examples=60)
@given(
    p=st.floats(0.0, 1.0),
    q=st.floats(0.0, 1.0),
    eps=st.floats(-math.pi, math.pi),
    theta=st.floats(0.0, math.pi),
)
def test_single_qubit_forward_models_equal_all_576_pairs(p, q, eps, theta):
    state = ptheta_state(theta)
    w_avg, p_avg = exact_average(state, NoiseParams(p, q, eps))
    assert abs(p_avg - readout_dressed_purity(prep_channel(state, p), q)) < TOL
    w_avg, _ = exact_average(state, NoiseParams(p, 1.0, eps))
    assert abs(w_avg - w_epsilon(prep_channel(state, p), eps)) < TOL
    w_avg, p_avg = exact_average(zero_state(1), NoiseParams(p, q, eps))
    assert abs(w_avg - w_chi(q, eps)) < TOL
    assert abs(p_avg - (q**2 + (1 - q) ** 2)) < TOL


@pytest.mark.parametrize(
    "state, noise, check_w",
    [
        (gamma_state(2, 2), NoiseParams(0.8, 1.0, 0.3), "w_epsilon"),
        (zero_state(2), NoiseParams(0.7, 0.9, 0.6), "w_chi"),
    ],
    ids=["gamma-2-2-q1", "zero-2-q0.9"],
)
def test_two_qubit_forward_models_equal_all_331776_pairs(state, noise, check_w):
    p, q, eps = noise.p, noise.q, noise.epsilon
    w_avg, p_avg = exact_average(state, noise)
    assert abs(p_avg - readout_dressed_purity(prep_channel(state, p), q)) < TOL
    if check_w == "w_epsilon":
        assert abs(w_avg - w_epsilon(prep_channel(state, p), eps)) < TOL
    else:
        assert abs(w_avg - w_chi(q, eps) ** 2) < TOL

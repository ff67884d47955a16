"""Tests for state construction, circuit application, and sampling."""

from __future__ import annotations

import numpy as np
import pytest

from stabrenyi.cliffords import CLIFFORD_1Q
from stabrenyi.states import (
    Circuit,
    CliffordWord,
    MixedState,
    StateVector,
    apply_circuit,
    apply_local_cliffords,
    as_mixture,
    gamma_circuit,
    gamma_state,
    gamma_tcounts,
    outcome_distribution,
    pauli_z_on,
    plus_state,
    ptheta_state,
    sample_counts,
    zero_state,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def _dense_1q(n: int, mat: np.ndarray, qubit: int) -> np.ndarray:
    ops = [np.eye(2, dtype=complex)] * n
    ops[qubit] = mat
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _dense_cx(n: int, control: int, target: int) -> np.ndarray:
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        bit_c = (idx >> (n - 1 - control)) & 1
        out_idx = idx ^ ((bit_c) << (n - 1 - target))
        out[out_idx, idx] = 1.0
    return out


class TestConstructors:
    def test_zero_state(self):
        st = zero_state(2)
        assert st.n == 2
        assert np.allclose(st.amplitudes, [1, 0, 0, 0])

    def test_plus_state(self):
        st = plus_state(2)
        assert np.allclose(st.amplitudes, np.full(4, 0.5))

    def test_ptheta_state(self):
        theta = 0.7
        st = ptheta_state(theta)
        want = np.array([1.0, np.exp(1j * theta)]) / np.sqrt(2)
        assert np.allclose(st.amplitudes, want)

    def test_norm_validation(self):
        with pytest.raises(ValueError):
            StateVector(n=1, amplitudes=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_amplitudes_rejected(self, bad):
        # NaN once passed the norm check, which was written `> tol`
        with pytest.raises(ValueError, match="norm"):
            StateVector(n=1, amplitudes=np.array([1.0, bad]))
        with pytest.raises(ValueError, match="norm"):
            ptheta_state(bad)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            StateVector(n=2, amplitudes=np.array([1.0, 0.0]))

    def test_mixture_weights_validation(self):
        psi = zero_state(1)
        with pytest.raises(ValueError):
            MixedState(n=1, terms=((0.5, psi),))
        with pytest.raises(ValueError):
            MixedState(n=1, terms=((-0.1, psi), (1.1, psi)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        psi = zero_state(1)
        with pytest.raises(ValueError, match="sum to"):
            MixedState(n=1, terms=((bad, psi), (0.5, psi)))

    def test_as_mixture_wraps_pure(self):
        psi = plus_state(1)
        mix = as_mixture(psi)
        assert len(mix.terms) == 1 and mix.terms[0][0] == 1.0


class TestGammaFamily:
    @pytest.mark.parametrize(
        "n, t, expected",
        [
            (3, 1, (0, 1)),
            (3, 2, (1, 1)),
            (3, 4, (3, 1)),
            (3, 5, (3, 2)),
            (4, 1, (0, 1)),
            (4, 5, (4, 1)),
            (4, 6, (4, 2)),
            (4, 7, (4, 3)),
            (5, 9, (5, 4)),
        ],
    )
    def test_tcount_split(self, n, t, expected):
        assert gamma_tcounts(n, t) == expected

    @pytest.mark.parametrize("n, t", [(3, 0), (3, 6), (1, 1), (5, 10), (13, 3)])
    def test_tcount_validation(self, n, t):
        with pytest.raises(ValueError):
            gamma_tcounts(n, t)

    def test_circuit_gate_inventory(self):
        n, t = 4, 6
        circ = gamma_circuit(n, t)
        kinds = [g[0] for g in circ.gates]
        assert kinds.count("h") == n
        assert kinds.count("cx") == 2 * (n - 1)
        phase_gates = [g for g in circ.gates if g[0] == "p"]
        assert len(phase_gates) == t
        assert all(abs(g[2] - np.pi / 4) < 1e-15 for g in phase_gates)

    def test_state_is_normalized(self):
        for n, t in [(2, 3), (3, 4), (5, 9)]:
            st = gamma_state(n, t)
            assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12


class TestApplication:
    def test_apply_circuit_matches_dense(self):
        circ = Circuit(
            n=2,
            gates=(("h", 0), ("p", 1, 0.3), ("cx", 0, 1), ("clifford", 1, 7)),
        )
        got = apply_circuit(circ, zero_state(2)).amplitudes
        mat = _dense_1q(2, CLIFFORD_1Q[7], 1) @ _dense_cx(2, 0, 1)
        mat = mat @ _dense_1q(2, np.diag([1, np.exp(0.3j)]), 1) @ _dense_1q(2, H, 0)
        want = mat @ np.array([1, 0, 0, 0], dtype=complex)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_apply_local_cliffords_matches_kron(self):
        st = gamma_state(2, 2)
        got = apply_local_cliffords(st, CliffordWord(ids=(13, 21))).amplitudes
        mat = np.kron(CLIFFORD_1Q[13], CLIFFORD_1Q[21])
        assert np.max(np.abs(got - mat @ st.amplitudes)) < 1e-12

    def test_pauli_z_on_msb_first(self):
        st = StateVector(n=2, amplitudes=np.full(4, 0.5, dtype=complex))
        flipped = pauli_z_on(st, 0)
        assert np.allclose(flipped.amplitudes, [0.5, 0.5, -0.5, -0.5])
        flipped = pauli_z_on(st, 1)
        assert np.allclose(flipped.amplitudes, [0.5, -0.5, 0.5, -0.5])

    def test_cx_control_target_validation(self):
        with pytest.raises(ValueError):
            Circuit(n=2, gates=(("cx", 1, 1),))

    def test_clifford_word_validation(self):
        for ids in ((24,), (-1,), (1.7,), (True,), (np.bool_(True),), (2.0,)):
            with pytest.raises(ValueError):
                CliffordWord(ids=ids)
        word = CliffordWord(ids=(np.int64(5), np.uint8(23), 0))
        assert word.ids == (5, 23, 0)
        assert all(type(c) is int for c in word.ids)


class TestSampling:
    def test_outcome_distribution_normalized(self):
        probs = outcome_distribution(gamma_state(3, 4))
        assert abs(probs.sum() - 1.0) < 1e-12
        mix = MixedState(
            n=1, terms=((0.5, zero_state(1)), (0.5, plus_state(1)))
        )
        probs = outcome_distribution(mix)
        assert np.allclose(probs, [0.75, 0.25])

    def test_outcome_distribution_at_the_constructor_tolerances(self):
        # weights 1e-9 and norms 1e-10 off, each accepted by its constructor,
        # together drift the total by 1.1e-9; this once raised AssertionError
        psi = StateVector(n=1, amplitudes=np.array([1.0 + 0.99e-10, 0.0]))
        weight = 0.5 + 0.45e-9
        mix = MixedState(n=1, terms=((weight, psi), (weight, psi)))
        assert np.array_equal(outcome_distribution(mix), [1.0, 0.0])

    def test_sample_counts_deterministic(self):
        probs = outcome_distribution(plus_state(2))
        a = sample_counts(probs, 100, 11)
        b = sample_counts(probs, 100, 11)
        assert np.array_equal(a, b)
        assert a.shape == (4,) and a.dtype == np.int64
        assert a.sum() == 100
        assert np.all(a >= 0)
        # the one draw: a multinomial over the clipped, renormalised probs
        want = np.random.default_rng(11).multinomial(100, probs / probs.sum())
        assert np.array_equal(a, want)

    def test_sample_counts_validation(self):
        with pytest.raises(ValueError):
            sample_counts(np.array([0.5, 0.3, 0.2]), 10, 0)
        with pytest.raises(ValueError):
            sample_counts(np.array([0.9, 0.2]), 10, 0)
        with pytest.raises(ValueError):
            sample_counts(np.array([0.5, 0.5]), 0, 0)
        with pytest.raises(ValueError, match="distribution"):
            sample_counts(np.array([np.nan, 1.0]), 10, 0)

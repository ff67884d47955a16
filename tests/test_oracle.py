"""Tests for the exact Pauli-spectrum oracles."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from stabrenyi.oracle import (
    MAX_ENUMERATION_QUBITS,
    MAX_ORACLE_QUBITS,
    exact_protocol_value,
    haar_random_state,
    max_offidentity_pauli,
    pauli_table,
    purity_exact,
    stab_purity_exact,
    stabilizer_renyi,
    subset_weights,
    walsh_z_expectations,
    word_statistics,
    xi_distribution,
)
from stabrenyi.states import (
    CliffordWord,
    MixedState,
    StateVector,
    apply_local_cliffords,
    gamma_state,
    plus_state,
    ptheta_state,
    zero_state,
)

_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _pauli_string_matrix(string: str) -> np.ndarray:
    out = _PAULIS[string[0]]
    for ch in string[1:]:
        out = np.kron(out, _PAULIS[ch])
    return out


class TestPauliTable:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_explicit_traces(self, n):
        state = haar_random_state(n, seed=n + 10)
        table = pauli_table(state)
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
        for idx, string in enumerate(itertools.product("IXYZ", repeat=n)):
            want = np.trace(_pauli_string_matrix("".join(string)) @ rho).real
            assert abs(table.values[idx] - want) < 1e-12

    def test_support_sizes(self):
        table = pauli_table(zero_state(2))
        sizes = table.support_sizes()
        # base-4 digits: I=0, X=1, Y=2, Z=3; support counts non-identity digits
        assert sizes[0] == 0  # II
        assert sizes[3] == 1  # IZ
        assert sizes[12] == 1  # ZI
        assert sizes[15] == 2  # ZZ
        assert sizes.sum() == sum(
            sum(d != "I" for d in s)
            for s in ("".join(p) for p in itertools.product("IXYZ", repeat=2))
        )

    def test_register_guard(self):
        with pytest.raises(ValueError):
            pauli_table(zero_state(MAX_ORACLE_QUBITS + 1))


class TestAnchors:
    def test_zero_state(self):
        assert abs(stab_purity_exact(zero_state(1)) - 0.5) < 1e-14
        assert abs(purity_exact(zero_state(1)) - 1.0) < 1e-14

    def test_plus_state(self):
        assert abs(stab_purity_exact(plus_state(1)) - 0.5) < 1e-14
        assert abs(stabilizer_renyi(plus_state(1), 2.0)) < 1e-12

    def test_t_state(self):
        t_state = ptheta_state(np.pi / 4)
        assert abs(stab_purity_exact(t_state) - 0.375) < 1e-14
        assert abs(stabilizer_renyi(t_state, 2.0) - math.log2(4 / 3)) < 1e-12

    def test_bell_state(self):
        bell = StateVector(
            n=2,
            amplitudes=np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
        )
        assert abs(stab_purity_exact(bell) - 0.25) < 1e-14
        assert abs(stabilizer_renyi(bell, 2.0)) < 1e-12

    @pytest.mark.parametrize(
        "theta", [0.0, np.pi / 16, np.pi / 8, np.pi / 6, np.pi / 5, np.pi / 4]
    )
    def test_ptheta_closed_form(self, theta):
        m2 = stabilizer_renyi(ptheta_state(theta), 2.0)
        want = 3.0 - math.log2(7.0 + math.cos(4.0 * theta))
        assert abs(m2 - want) < 1e-12

    def test_maximally_mixed_has_zero_magic(self):
        mix = MixedState(
            n=1, terms=((0.5, zero_state(1)), (0.5, pauli_z_flip()))
        )
        assert abs(purity_exact(mix) - 0.5) < 1e-14
        assert abs(stabilizer_renyi(mix, 2.0)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_stab_purity_matches_an_exact_sum_of_fourth_powers(self, n):
        state = haar_random_state(n, seed=n)
        values = pauli_table(state).values
        exact = sum(Fraction(float(t)) ** 4 for t in values) / 4**n
        got = stab_purity_exact(state)
        assert abs(Fraction(got) - exact) <= Fraction(1, 10**15) * exact


def pauli_z_flip() -> StateVector:
    return StateVector(n=1, amplitudes=np.array([0.0, 1.0], dtype=complex))


class TestRenyiFamily:
    def test_alpha_one_is_shannon(self):
        state = ptheta_state(0.6)
        xi = xi_distribution(state)
        probs = xi.probabilities[xi.probabilities > 0]
        shannon = -float(np.sum(probs * np.log2(probs)))
        want = shannon - math.log2(purity_exact(state)) - 1.0
        assert abs(stabilizer_renyi(state, 1.0) - want) < 1e-12

    def test_alpha_inf_is_min_entropy(self):
        state = ptheta_state(0.6)
        xi = xi_distribution(state)
        want = (
            -math.log2(float(xi.probabilities.max()))
            - math.log2(purity_exact(state))
            - 1.0
        )
        assert abs(stabilizer_renyi(state, math.inf) - want) < 1e-12

    @pytest.mark.parametrize("alpha", [math.nan, -0.5, -math.inf])
    def test_alpha_must_be_nonnegative(self, alpha):
        # NaN once passed the `alpha < 0` check and returned NaN
        with pytest.raises(ValueError, match="nonnegative"):
            stabilizer_renyi(ptheta_state(0.6), alpha)

    def test_xi_normalized(self):
        for n in (1, 2, 3):
            xi = xi_distribution(haar_random_state(n, seed=n))
            assert abs(float(xi.probabilities.sum()) - 1.0) < 1e-10
            assert np.all(xi.probabilities >= -1e-15)

    def test_max_offidentity(self):
        t_state = ptheta_state(np.pi / 4)
        assert abs(max_offidentity_pauli(t_state) - 1 / math.sqrt(2)) < 1e-12
        # distinguishability bound at the anchor: 0.7071 >= 0.612
        m2 = stabilizer_renyi(t_state, 2.0)
        assert max_offidentity_pauli(t_state) >= 2.0 ** (-(m2 + 1) / 2)


class TestProtocolEnumeration:
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_pauli_oracles(self, n):
        state = haar_random_state(n, seed=77 + n)
        w = exact_protocol_value(state, "stab_purity")
        p = exact_protocol_value(state, "purity")
        assert abs(w - stab_purity_exact(state)) < 1e-9
        assert abs(p - purity_exact(state)) < 1e-9

    def test_matches_on_structured_state(self):
        state = gamma_state(2, 3)
        w = exact_protocol_value(state, "stab_purity")
        assert abs(w - stab_purity_exact(state)) < 1e-9

    def test_zero_state_unit_purity(self):
        assert abs(exact_protocol_value(zero_state(1), "purity") - 1.0) < 1e-12

    def test_guard(self):
        state = haar_random_state(MAX_ENUMERATION_QUBITS + 1, seed=0)
        with pytest.raises(ValueError):
            exact_protocol_value(state, "purity")

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            exact_protocol_value(zero_state(1), "entropy")


class TestSubsetMachinery:
    def test_subset_weights(self):
        w = subset_weights(2)
        assert list(w) == [1, 3, 3, 9]

    def test_walsh_expectations(self):
        # |0>: <Z_A> = 1 for every subset A
        probs = np.array([1.0, 0.0])
        assert np.allclose(walsh_z_expectations(probs, 1), [1.0, 1.0])
        # uniform: only the empty subset survives
        probs = np.full(4, 0.25)
        assert np.allclose(walsh_z_expectations(probs, 2), [1.0, 0, 0, 0])

    def test_word_statistics_zero_state(self):
        w_c, p_c = word_statistics(np.array([1.0, 0.0]), 1)
        assert abs(w_c - 1.0) < 1e-14
        assert abs(p_c - 2.0) < 1e-14  # single-word value; averages to purity


class TestHaarSampling:
    def test_deterministic_and_normalized(self):
        a = haar_random_state(3, seed=5)
        b = haar_random_state(3, seed=5)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12

    def test_z_second_moment(self):
        # mean tr^2(Z_1 psi) over Haar samples approaches 1/(d+1) = 1/9
        samples = 1000
        vals = np.empty(samples)
        for k in range(samples):
            table = pauli_table(haar_random_state(3, seed=k))
            vals[k] = table.values[3 * 16] ** 2  # ZII
        mean = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(samples)
        assert abs(mean - 1 / 9) < 5 * se

    def test_clifford_invariance_oracle(self):
        state = haar_random_state(2, seed=3)
        m2 = stabilizer_renyi(state, 2.0)
        rotated = apply_local_cliffords(state, CliffordWord(ids=(17, 4)))
        assert abs(stabilizer_renyi(rotated, 2.0) - m2) < 1e-9

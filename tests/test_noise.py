"""Tests for the three-parameter noise model and its exact machinery."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabrenyi.noise import (
    InfeasibleNoiseError,
    NoiseParams,
    SmallOperator,
    T_DOUBLE_SUM,
    T_FOURCYCLE_SUM,
    T_SWAP_SUM,
    corrected_w,
    g_factor,
    haar_channel_stats,
    phase_gate,
    predict_noisy_observables,
    prep_channel,
    prep_purity,
    protocol_average_1q,
    q1_epsilon,
    q1_epsilon_brute,
    q1_projector,
    readout_channel,
    readout_dressed_purity,
    solve_epsilon,
    solve_p,
    solve_p_readout_aware,
    solve_q,
    w_chi,
    w_eps_zero,
    w_epsilon,
    z_square_sum,
    _dressed_purity_coefficients,
    _kron_power,
    _q1_epsilon_rows,
)
from stabrenyi.oracle import (
    _PAULIS_1Q,
    haar_random_state,
    purity_exact,
    stab_purity_exact,
)
from stabrenyi.states import (
    as_mixture,
    gamma_state,
    plus_state,
    ptheta_state,
    zero_state,
)

PROPERTY = settings(max_examples=60)


def _apply_16_at(vec: np.ndarray, n: int, op16: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a 16x16 operator to the four copies of one qubit of a 4n-qubit
    register (copy-major layout: copy c's qubit i is axis c*n + i)."""
    axes = (qubit, n + qubit, 2 * n + qubit, 3 * n + qubit)
    tensor = vec.reshape([2] * (4 * n))
    tensor = np.moveaxis(tensor, axes, (0, 1, 2, 3))
    rest = tensor.shape[4:]
    flat = op16 @ tensor.reshape(16, -1)
    tensor = flat.reshape((2, 2, 2, 2) + rest)
    return np.moveaxis(tensor, (0, 1, 2, 3), axes).reshape(-1)


def _w_epsilon_dense(state, eps: float) -> float:
    """Reference W_eps: tr(rho^{x4} Q1(eps)^{xn}) on 2**(4n)-amplitude vectors.

    The fourth power of the mixture is expanded into Kronecker products of
    its terms; Q1(eps) commutes with copy permutations, so each multiset of
    terms is contracted once, with its multinomial weight."""
    n = state.n
    terms = as_mixture(state).terms
    op16 = q1_epsilon(eps).matrix
    total = 0.0
    for combo in itertools.combinations_with_replacement(range(len(terms)), 4):
        weight = math.prod(terms[k][0] for k in combo)
        multiplicity = math.factorial(4)
        for k in set(combo):
            multiplicity //= math.factorial(combo.count(k))
        vec = terms[combo[0]][1].amplitudes
        for k in combo[1:]:
            vec = np.kron(vec, terms[k][1].amplitudes)
        out = vec
        for qubit in range(n):
            out = _apply_16_at(out, n, op16, qubit)
        total += multiplicity * weight * float(np.real(np.vdot(vec, out)))
    return total


class TestNoiseParams:
    def test_defaults_trivial(self):
        assert NoiseParams().is_trivial
        assert not NoiseParams(p=0.9).is_trivial
        assert not NoiseParams(epsilon=0.1).is_trivial

    @pytest.mark.parametrize("bad", [{"p": -0.1}, {"p": 1.1}, {"q": 2.0}, {"q": -1.0}])
    def test_range_validation(self, bad):
        with pytest.raises(ValueError):
            NoiseParams(**bad)

    def test_epsilon_must_be_finite(self):
        with pytest.raises(ValueError):
            NoiseParams(epsilon=math.inf)


class TestFourCopyOperators:
    def test_q1_is_projector(self):
        q1 = q1_projector().matrix
        assert np.max(np.abs(q1 @ q1 - q1)) < 1e-12
        assert abs(np.trace(q1).real - 4.0) < 1e-12

    def test_class_sums_are_permutation_counts(self):
        # 6 swaps, 3 double swaps, 6 four-cycles; all entries nonnegative ints
        for mat, count in ((T_SWAP_SUM, 6), (T_DOUBLE_SUM, 3), (T_FOURCYCLE_SUM, 6)):
            assert mat.shape == (16, 16)
            assert np.allclose(mat.sum(axis=0), count)
            assert np.allclose(mat, np.round(mat))

    def test_small_operator_validation(self):
        with pytest.raises(ValueError):
            SmallOperator(k=3, matrix=np.eye(8))
        with pytest.raises(ValueError):
            SmallOperator(k=2, matrix=np.eye(3))

    def test_small_operator_must_be_hermitian(self):
        # a real check, not an assert: it holds under python -O too
        upper = np.triu(np.ones((4, 4)))
        with pytest.raises(ValueError, match="Hermitian"):
            SmallOperator(k=2, matrix=upper)
        with pytest.raises(ValueError, match="Hermitian"):
            SmallOperator(k=2, matrix=np.eye(4) * 1j)
        with pytest.raises(ValueError, match="Hermitian"):
            SmallOperator(k=2, matrix=np.full((4, 4), np.nan))
        assert SmallOperator(k=2, matrix=upper + upper.T).k == 2

    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.7, 1.1, 1.5])
    def test_closed_form_matches_brute_average(self, eps):
        closed = q1_epsilon(eps).matrix
        brute = q1_epsilon_brute(eps).matrix
        assert np.max(np.abs(closed - brute)) < 1e-12

    def test_zero_displacement_recovers_q1(self):
        assert np.max(np.abs(q1_epsilon(0.0).matrix - q1_projector().matrix)) < 1e-14

    def test_w_eps_zero_is_corner_entry(self):
        for eps in (0.0, 0.4, 1.2):
            assert abs(q1_epsilon(eps).matrix[0, 0].real - w_eps_zero(eps)) < 1e-14


class TestPrepChannel:
    def test_structure(self):
        mix = prep_channel(gamma_state(2, 2), 0.8)
        weights = [w for w, _ in mix.terms]
        assert weights[0] == pytest.approx(0.8)
        assert weights[1:] == pytest.approx([0.1, 0.1])

    def test_p_one_is_identity(self):
        state = gamma_state(2, 3)
        mix = prep_channel(state, 1.0)
        assert len(mix.terms) == 1
        assert np.array_equal(mix.terms[0][1].amplitudes, state.amplitudes)

    def test_range_check(self):
        with pytest.raises(ValueError):
            prep_channel(zero_state(1), 1.5)

    def test_z_square_sum_anchors(self):
        assert z_square_sum(zero_state(3)) == pytest.approx(3.0)
        assert z_square_sum(plus_state(3)) == pytest.approx(0.0)
        assert z_square_sum(gamma_state(3, 5)) == pytest.approx(0.0, abs=1e-12)

    def test_prep_purity_closed_form_matches_oracle(self):
        # the closed form must agree with the generic purity oracle on the
        # channel output for arbitrary states, not just the gamma family
        rng = np.random.default_rng(8)
        for trial in range(50):
            n = int(rng.integers(1, 5))
            state = haar_random_state(n, seed=int(rng.integers(1 << 31)))
            p = float(rng.uniform(0.0, 1.0))
            want = purity_exact(prep_channel(state, p))
            assert abs(prep_purity(state, p) - want) < 1e-10

    def test_prep_purity_range_check(self):
        with pytest.raises(ValueError):
            prep_purity(zero_state(1), -0.2)


class TestReadoutChannel:
    def test_identity_at_unit_fidelity(self):
        probs = np.array([0.4, 0.1, 0.3, 0.2])
        assert np.array_equal(readout_channel(probs, 1.0), probs)

    def test_full_flip_reverses_bits(self):
        probs = np.array([0.4, 0.1, 0.3, 0.2])
        flipped = readout_channel(probs, 0.0)
        # q=0 maps outcome b to its bitwise complement
        assert np.allclose(flipped, [0.2, 0.3, 0.1, 0.4])

    def test_preserves_normalization(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(8))
        out = readout_channel(probs, 0.83)
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= 0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="sum to 1"):
            readout_channel(np.array([math.nan, math.nan]), 0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            readout_channel(np.array([0.5, 0.3, 0.2]), 0.9)
        with pytest.raises(ValueError):
            readout_channel(np.array([1.0, 0.0]), 1.2)

    def test_rejects_rows_that_are_not_distributions(self):
        # Checked on input with a raise, so it holds under python -O too.
        with pytest.raises(ValueError, match="sum to 1"):
            readout_channel(np.array([[0.5, 0.5], [0.6, 0.6]]), 0.9)
        with pytest.raises(ValueError, match="sum to 1"):
            readout_channel(np.array([0.5, 0.5 + 1e-10]), 0.9)


class TestWEpsilon:
    def test_zero_displacement_delegates_to_exact(self):
        state = gamma_state(3, 4)
        assert w_epsilon(state, 0.0) == stab_purity_exact(state)

    def test_single_qubit_closed_form(self):
        for eps in (0.2, 0.7, 1.3):
            assert abs(w_epsilon(zero_state(1), eps) - w_eps_zero(eps)) < 1e-12

    def test_multiplicative_on_product_states(self):
        eps = 0.5
        got = w_epsilon(zero_state(2), eps)
        assert abs(got - w_eps_zero(eps) ** 2) < 1e-12

    def test_matches_exact_protocol_enumeration(self):
        # independent check: exhaustive (recorded, hidden) Clifford pairs
        state = ptheta_state(0.9)
        eps = 0.6
        w_brute, _ = protocol_average_1q(state, eps)
        assert abs(w_epsilon(state, eps) - w_brute) < 1e-12

    def test_mixture_expansion(self):
        mix = prep_channel(gamma_state(2, 3), 0.7)
        eps = 0.4
        # reference: expand the mixture fourth power without multiset tricks
        from itertools import product as iproduct

        op16 = q1_epsilon(eps).matrix
        want = 0.0
        for combo in iproduct(range(len(mix.terms)), repeat=4):
            weight = math.prod(mix.terms[k][0] for k in combo)
            vec = mix.terms[combo[0]][1].amplitudes
            for k in combo[1:]:
                vec = np.kron(vec, mix.terms[k][1].amplitudes)
            out = vec
            for qubit in range(2):
                out = _apply_16_at(out, 2, op16, qubit)
            want += weight * float(np.real(np.vdot(vec, out)))
        assert abs(w_epsilon(mix, eps) - want) < 1e-12

    def test_register_guard(self):
        with pytest.raises(ValueError):
            w_epsilon(zero_state(6), 0.3)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_epsilon_must_be_finite(self, eps):
        with pytest.raises(ValueError, match="finite"):
            w_epsilon(zero_state(1), eps)
        with pytest.raises(ValueError, match="finite"):
            predict_noisy_observables(gamma_state(2, 2), 0.9, eps)

    @PROPERTY
    @given(
        n=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        p=st.none() | st.floats(0.0, 1.0),
        eps=st.floats(-2 * math.pi, 2 * math.pi),
    )
    def test_matches_dense_contraction(self, n, seed, p, eps):
        state = haar_random_state(n, seed)
        if p is not None:
            state = prep_channel(state, p)
        want = _w_epsilon_dense(state, eps)
        assert abs(w_epsilon(state, eps) - want) <= 1e-12 * want

    def test_matches_dense_contraction_at_four_qubits(self):
        state = prep_channel(gamma_state(4, 6), 0.9)
        want = _w_epsilon_dense(state, 0.3)
        assert abs(w_epsilon(state, 0.3) - want) <= 1e-12 * want


class TestQ1Decomposition:
    """Q1(eps) = sum_m mu_m B_m^{x4}, the 16 rows w_epsilon contracts with."""

    @pytest.mark.parametrize(
        "eps",
        [0.0, math.pi / 4, math.pi / 2, -math.pi / 4, 1e-9]
        + list(np.linspace(-4.0, 4.0, 21)),
    )
    def test_rows_sum_to_q1_epsilon(self, eps):
        beta, mu = _q1_epsilon_rows(eps)
        ops = np.einsum("ma,aij->mij", beta, _PAULIS_1Q)
        total = sum(m * _kron_power(b, 4) for m, b in zip(mu, ops))
        assert np.max(np.abs(total - q1_epsilon(eps).matrix)) < 1e-12
        assert np.max(np.abs(total - q1_epsilon_brute(eps).matrix)) < 1e-12

    def test_weights_are_a_distribution(self):
        beta, mu = _q1_epsilon_rows(0.3)
        assert beta.shape == (16, 4) and mu.shape == (16,)
        assert abs(mu.sum() - 1.0) < 1e-15
        assert np.all(mu > 0)


class TestPurityProtection:
    def test_purity_immune_to_displacement(self):
        # the protocol's purity estimate is displacement-independent
        for eps in (0.0, 0.5, 1.2):
            _, p_avg = protocol_average_1q(ptheta_state(0.7), eps)
            assert abs(p_avg - 1.0) < 1e-12

    def test_w_not_immune(self):
        w_clean, _ = protocol_average_1q(ptheta_state(0.7), 0.0)
        w_disp, _ = protocol_average_1q(ptheta_state(0.7), 0.6)
        assert abs(w_clean - w_disp) > 1e-3


class TestSolvers:
    def test_solve_p_round_trips_above_vertex(self):
        for state in (gamma_state(2, 3), gamma_state(3, 5), plus_state(4)):
            for p_true in (0.4, 0.7, 0.95, 1.0):
                p_exp = prep_purity(state, p_true)
                assert abs(solve_p(p_exp, state) - p_true) < 1e-9

    def test_solve_p_returns_larger_root(self):
        # below the purity parabola's vertex two roots exist; the physical
        # (larger) branch is returned
        state = gamma_state(2, 3)  # Z = 0, vertex at p = 1/3
        p_exp = prep_purity(state, 0.30)
        assert solve_p(p_exp, state) == pytest.approx(1 / 3 + (1 / 3 - 0.30), abs=1e-9)

    def test_solve_p_anchor(self):
        want = (1.0 + math.sqrt(7.8)) / 4.0
        assert solve_p(0.9, gamma_state(3, 5)) == pytest.approx(want, abs=1e-12)

    def test_solve_p_infeasible(self):
        with pytest.raises(InfeasibleNoiseError):
            solve_p(0.0, gamma_state(2, 2))
        with pytest.raises(InfeasibleNoiseError):
            solve_p(0.1, gamma_state(2, 2))  # below the channel's floor

    def test_solve_q_round_trip(self):
        for n in (1, 3, 5):
            for q_true in (0.55, 0.8, 0.97, 1.0):
                p0 = (q_true**2 + (1 - q_true) ** 2) ** n
                assert abs(solve_q(p0, n) - q_true) < 1e-12

    def test_solve_q_infeasible(self):
        with pytest.raises(InfeasibleNoiseError):
            solve_q(0.45, 1)
        with pytest.raises(InfeasibleNoiseError):
            solve_q(0.0, 2)

    def test_solve_epsilon_round_trip(self):
        for n in (1, 3):
            for q in (0.8, 0.95, 1.0):
                for eps_true in (0.05, 0.2, 0.5, 0.75):
                    w0 = w_chi(q, eps_true) ** n
                    assert abs(solve_epsilon(w0, q, n) - eps_true) < 1e-9

    def test_solve_epsilon_anchor(self):
        assert solve_epsilon(0.10, 1.0, 3) == pytest.approx(0.35763, abs=1e-4)

    def test_solve_q_needs_a_qubit(self):
        # a negative n once reached the round-trip assert: p**(-1) is huge
        for n in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                solve_q(1e-10, n)

    def test_solve_epsilon_reports_lost_round_trip(self):
        # far outside [0, 1], rounding in the closed form breaks the inverse
        q = 1e6
        with pytest.raises(ValueError, match="round trip"):
            solve_epsilon(w_chi(q, 0.3), q, 1)

    def test_solve_epsilon_infeasible(self):
        with pytest.raises(InfeasibleNoiseError):
            solve_epsilon(0.51, 1.0, 1)  # above the noiseless ceiling
        with pytest.raises(InfeasibleNoiseError):
            solve_epsilon(0.1, 0.5, 1)  # q = 0.5 erases the signal
        with pytest.raises(InfeasibleNoiseError):
            solve_epsilon(0.0, 0.9, 1)

    def test_solve_p_readout_aware_reduces_to_plain(self):
        state = gamma_state(3, 2)
        p_exp = prep_purity(state, 0.8)
        assert abs(
            solve_p_readout_aware(p_exp, state, 1.0) - solve_p(p_exp, state)
        ) < 1e-9

    def test_solve_p_readout_aware_round_trip(self):
        state = gamma_state(3, 4)
        q = 0.93
        for p_true in (0.5, 0.8, 1.0):
            dressed = readout_dressed_purity(prep_channel(state, p_true), q)
            assert abs(solve_p_readout_aware(dressed, state, q) - p_true) < 1e-8

    def test_solve_p_readout_aware_range_check(self):
        with pytest.raises(InfeasibleNoiseError):
            solve_p_readout_aware(1.5, gamma_state(2, 2), 0.9)

    @pytest.mark.parametrize("q", [1.0, 0.95, 0.8, 0.5])
    def test_dressed_purity_is_quadratic_in_p(self, q):
        for state in (gamma_state(3, 4), gamma_state(4, 6), plus_state(3),
                      haar_random_state(4, seed=3)):
            a, b, c = _dressed_purity_coefficients(state, q)
            for p in np.linspace(0.0, 1.0, 11):
                forward = readout_dressed_purity(prep_channel(state, p), q)
                assert abs(a * p**2 + b * p + c - forward) < 1e-14

    @pytest.mark.parametrize("q, vertex", [(1.0, 0.25), (0.95, 0.2286357)])
    def test_solve_p_readout_aware_larger_root(self, q, vertex):
        # gamma(3,4)'s forward model dips below forward(0) on (0, 2 vertex)
        state = gamma_state(3, 4)
        a, b, _ = _dressed_purity_coefficients(state, q)
        assert -b / (2 * a) == pytest.approx(vertex, abs=1e-7)
        forward_zero = readout_dressed_purity(prep_channel(state, 0.0), q)
        for p_true in (0.5 * vertex, vertex, 1.5 * vertex):
            dipped = readout_dressed_purity(prep_channel(state, p_true), q)
            assert dipped < forward_zero - 1e-6
            with pytest.raises(InfeasibleNoiseError, match="reachable range"):
                solve_p_readout_aware(dipped, state, q)
        # at forward(0) both 0 and 2 vertex solve; the larger root is taken,
        # continuous with the answers just above forward(0)
        p_edge = solve_p_readout_aware(forward_zero, state, q)
        assert p_edge == pytest.approx(2 * vertex, abs=1e-7)
        p_above = solve_p_readout_aware(forward_zero + 1e-9, state, q)
        assert p_edge < p_above < p_edge + 1e-6

    def test_solve_p_readout_aware_flat_model_gives_one(self):
        # q = 0.5 erases every Pauli weight; Z-basis states ignore dephasing
        state = gamma_state(3, 4)
        flat = readout_dressed_purity(state, 0.5)
        assert solve_p_readout_aware(flat, state, 0.5) == 1.0
        zero = zero_state(3)
        dressed = readout_dressed_purity(zero, 0.95)
        assert solve_p_readout_aware(dressed, zero, 0.95) == 1.0


class TestReadoutDressedPurity:
    def test_unit_fidelity_is_purity(self):
        state = gamma_state(3, 3)
        assert abs(readout_dressed_purity(state, 1.0) - purity_exact(state)) < 1e-12

    def test_zero_state_closed_form(self):
        for n in (1, 2, 4):
            for q in (0.7, 0.9):
                want = (q**2 + (1 - q) ** 2) ** n
                assert abs(readout_dressed_purity(zero_state(n), q) - want) < 1e-12

    def test_matches_exact_single_qubit_enumeration(self):
        state = ptheta_state(0.5)
        q = 0.88
        _, p_avg = protocol_average_1q(state, 0.0, q)
        assert abs(readout_dressed_purity(state, q) - p_avg) < 1e-12


class TestCorrections:
    def test_g_factor_anchor(self):
        assert g_factor(math.pi / 4, 1) == pytest.approx(2 / 3)
        assert g_factor(0.0, 5) == pytest.approx(1.0)

    def test_corrected_w_closes_on_synthetic_data(self):
        state = gamma_state(2, 3)
        p, eps = 0.85, 0.4
        rho_p = prep_channel(state, p)
        w_exp = w_epsilon(rho_p, eps)
        got = corrected_w(w_exp, state, p, eps)
        assert abs(got - stab_purity_exact(rho_p)) < 1e-9

    def test_w_chi_reduces_at_unit_fidelity(self):
        for eps in (0.1, 0.6):
            assert w_chi(1.0, eps) == pytest.approx(w_eps_zero(eps))

    def test_w_chi_matches_exact_enumeration(self):
        # independent oracle for the dressed displaced zero-state W
        for q, eps in ((0.9, 0.3), (0.8, 0.7)):
            w_avg, _ = protocol_average_1q(zero_state(1), eps, q)
            assert abs(w_chi(q, eps) - w_avg) < 1e-12

    def test_predict_noisy_observables_consistency(self):
        state = gamma_state(3, 5)
        p, eps = 0.9, 0.2
        out = predict_noisy_observables(state, p, eps)
        rho_p = prep_channel(state, p)
        assert out["w_noisy"] == pytest.approx(stab_purity_exact(rho_p), abs=1e-12)
        assert out["purity_noisy"] == pytest.approx(purity_exact(rho_p), abs=1e-12)
        assert out["ratio"] == pytest.approx(out["w_noisy"] / out["purity_noisy"])
        assert out["g"] == pytest.approx(g_factor(eps, 3))
        assert out["omega"] == pytest.approx(
            out["w_epsilon"] - out["g"] * out["w_noisy"]
        )


class TestHaarChannelStats:
    def test_identity_channel_adds_no_magic(self):
        for n in (1, 2, 3):
            out = haar_channel_stats([1.0], ["I" * n], n)
            assert abs(out["mean_purity"] - 1.0) < 1e-12
            assert abs(out["delta_m"]) < 1e-12
            assert out["x"] == pytest.approx(4.0**n)

    def test_uniform_z_channel_anchor(self):
        out = haar_channel_stats(
            [1 / 3, 1 / 3, 1 / 3], ["II", "ZI", "IZ"], 2
        )
        assert out["mean_purity"] == pytest.approx(7 / 15)
        assert out["delta_m"] == pytest.approx(0.2515, abs=5e-4)

    def test_x_statistic_bounds(self):
        # the identity Pauli contributes exactly 1; every term is <= 1, so
        # 1 <= X <= 4**n = d**2
        rng = np.random.default_rng(1)
        strings = ["XX", "YZ", "II", "ZZ"]
        probs = rng.dirichlet(np.ones(4))
        out = haar_channel_stats(probs, strings, 2)
        assert 1.0 <= out["x"] <= 16.0

    def test_validation(self):
        with pytest.raises(ValueError):
            haar_channel_stats([1.0], ["I" * 5], 5)
        with pytest.raises(ValueError):
            haar_channel_stats([0.5, 0.6], ["I", "Z"], 1)
        with pytest.raises(ValueError):
            haar_channel_stats([1.0], ["Q"], 1)
        with pytest.raises(ValueError):
            haar_channel_stats([math.nan], ["I"], 1)

    def test_phase_gate_matrix(self):
        g = phase_gate(0.3)
        want = np.array([[1, 0], [0, np.exp(0.3j)]])
        assert np.max(np.abs(g - want)) < 1e-15

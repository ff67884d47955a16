"""Three-parameter hardware-noise model and its exact machinery.

The model has: a preparation dephasing channel with survival probability
``p`` (the state is replaced by Z_i rho Z_i on a uniformly random qubit with
probability 1-p), independent per-qubit readout flips with fidelity ``q``,
and a phase displacement ``epsilon`` inside every random local Clifford.

The displaced single-qubit measurement ensemble averages to a corrected
four-copy projector Q1(eps), built here both from its closed form (permutation
conjugacy-class sums over the four copies) and by brute-force averaging over
the 24 Cliffords; the two must agree entrywise.  W_eps contracts the Pauli
table with Q1(eps) written as 16 weighted fourth powers.  On top of that sit
exact noisy-observable predictions, the g(eps)/Omega correction of a measured
stabilizer purity, closed-form solvers for (p, q, epsilon), a readout-aware
purity model for fitting p from dressed data, and Haar-averaged statistics of
an arbitrary Pauli channel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cliffords import CLIFFORD_1Q, N_CLIFFORD
from .oracle import (
    _PAULIS_1Q,
    PauliTable,
    _pauli_digits,
    _stab_purity_of,
    pauli_table,
    purity_exact,
    word_statistics,
)
from .states import (
    MixedState,
    StateVector,
    _apply_1q,
    pauli_z_on,
)

__all__ = [
    "InfeasibleNoiseError",
    "NoiseParams",
    "SmallOperator",
    "phase_gate",
    "q1_projector",
    "q1_epsilon",
    "q1_epsilon_brute",
    "prep_channel",
    "prep_purity",
    "z_square_sum",
    "readout_channel",
    "w_epsilon",
    "w_eps_zero",
    "w_chi",
    "g_factor",
    "solve_p",
    "solve_q",
    "solve_epsilon",
    "corrected_w",
    "predict_noisy_observables",
    "readout_dressed_purity",
    "solve_p_readout_aware",
    "protocol_average_1q",
    "haar_channel_stats",
]

#: w_epsilon materializes a (16,)*n table (8 MB at n = 5); keep the register small.
MAX_CONTRACTION_QUBITS = 5


class InfeasibleNoiseError(ValueError):
    """A measured value lies outside the range the noise model can produce."""


@dataclass(frozen=True)
class NoiseParams:
    """(p, q, epsilon): prep survival, readout fidelity, phase displacement.

    (1, 1, 0) is the noiseless identity configuration.
    """

    p: float = 1.0
    q: float = 1.0
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p={self.p} outside [0, 1]")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q={self.q} outside [0, 1]")
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")

    @property
    def is_trivial(self) -> bool:
        return self.p == 1.0 and self.q == 1.0 and self.epsilon == 0.0


@dataclass(frozen=True)
class SmallOperator:
    """A dense Hermitian operator on k copies of one qubit (k = 2 or 4)."""

    k: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.k not in (2, 4):
            raise ValueError("copy count k must be 2 or 4")
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2**self.k
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix for k={self.k}")
        if not np.max(np.abs(mat - mat.conj().T)) < 1e-12:
            raise ValueError("operator must be Hermitian")
        object.__setattr__(self, "matrix", mat)


def _kron_power(mat: np.ndarray, k: int) -> np.ndarray:
    out = mat
    for _ in range(k - 1):
        out = np.kron(out, mat)
    return out


def _permutation_operator(perm: tuple[int, ...]) -> np.ndarray:
    """Operator on (C^2)^{x4} sending copy i's state to copy perm[i]."""
    dim = 16
    mat = np.zeros((dim, dim))
    for idx in range(dim):
        bits = [(idx >> (3 - c)) & 1 for c in range(4)]
        out_bits = [0] * 4
        for src, dst in enumerate(perm):
            out_bits[dst] = bits[src]
        out = sum(b << (3 - c) for c, b in enumerate(out_bits))
        mat[out, idx] = 1.0
    return mat


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _class_sums() -> dict[tuple[int, ...], np.ndarray]:
    sums: dict[tuple[int, ...], np.ndarray] = {}
    for perm in itertools.permutations(range(4)):
        key = _cycle_type(perm)
        sums.setdefault(key, np.zeros((16, 16)))
        sums[key] += _permutation_operator(perm)
    return sums


_CLASS_SUMS = _class_sums()
#: Sum of the 6 transposition operators on the four copies.
T_SWAP_SUM = _CLASS_SUMS[(2, 1, 1)]
#: Sum of the 3 double-transposition operators.
T_DOUBLE_SUM = _CLASS_SUMS[(2, 2)]
#: Sum of the 6 four-cycle operators.
T_FOURCYCLE_SUM = _CLASS_SUMS[(4,)]


def q1_projector() -> SmallOperator:
    """Q1 = (1/4)(I^{x4} + X^{x4} + Y^{x4} + Z^{x4}) on four copies."""
    mat = sum(_kron_power(sigma, 4) for sigma in _PAULIS_1Q) / 4.0
    return SmallOperator(k=4, matrix=mat)


def phase_gate(epsilon: float) -> np.ndarray:
    """The displacement unitary diag(1, e^{i epsilon})."""
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * float(epsilon))]], dtype=complex)


def q1_epsilon(epsilon: float) -> SmallOperator:
    """Closed form of the displaced four-copy average Q1(eps).

    Q1(eps) = (5 + cos 4eps)/6 * Q1
              - sin^2(2eps)/24 * Q1 (T_swaps + T_fourcycles)
              + sin^2(2eps)/12 * (I + T_doubles).
    """
    eps = float(epsilon)
    q1 = q1_projector().matrix
    s2 = np.sin(2 * eps) ** 2
    mat = (
        (5 + np.cos(4 * eps)) / 6.0 * q1
        - s2 / 24.0 * (q1 @ (T_SWAP_SUM + T_FOURCYCLE_SUM))
        + s2 / 12.0 * (np.eye(16) + T_DOUBLE_SUM)
    )
    return SmallOperator(k=4, matrix=mat)


def q1_epsilon_brute(epsilon: float) -> SmallOperator:
    """Independent oracle: average c^{+x4} P^{+x4} Q1 P^{x4} c^{x4} over the
    24 Cliffords c, with P the displacement phase gate."""
    p4 = _kron_power(phase_gate(epsilon), 4)
    q1 = q1_projector().matrix
    middle = p4.conj().T @ q1 @ p4
    acc = np.zeros((16, 16), dtype=complex)
    for c in CLIFFORD_1Q:
        c4 = _kron_power(c, 4)
        acc += c4.conj().T @ middle @ c4
    return SmallOperator(k=4, matrix=acc / N_CLIFFORD)


def prep_channel(state: StateVector, p: float) -> MixedState:
    """Dephasing preparation channel: p * psi + (1-p)/n * sum_i Z_i psi Z_i."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    terms = []
    if p > 0.0:
        terms.append((float(p), state))
    if p < 1.0:
        weight = (1.0 - p) / state.n
        terms.extend((weight, pauli_z_on(state, i)) for i in range(state.n))
    return MixedState(n=state.n, terms=tuple(terms))


def z_square_sum(state: StateVector) -> float:
    """Z = sum_i tr(Z_i psi)^2, the single-qubit Z-expectation weight."""
    total = 0.0
    for i in range(state.n):
        z_i = float(np.real(np.vdot(state.amplitudes, pauli_z_on(state, i).amplitudes)))
        total += z_i**2
    return total


def prep_purity(state: StateVector, p: float) -> float:
    """Exact closed-form purity of prep_channel(state, p).

    tr(rho_p^2) = p^2 + 2p(1-p) Z/n + (1-p)^2/n^2 * sum_{ij} tr(Z_i Z_j psi)^2.
    The pair sum includes i=j (each contributing 1), so for states whose
    off-diagonal ZZ expectations vanish (the gamma family, |+>^n) it reduces
    to the familiar p^2 + (1-p)^2/n + 2p(1-p)Z/n.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    n = state.n
    zz_sq = 0.0
    for i in range(n):
        z_i = pauli_z_on(state, i)
        for j in range(n):
            amp = np.vdot(state.amplitudes, pauli_z_on(z_i, j).amplitudes)
            zz_sq += float(np.real(amp)) ** 2
    return p**2 + 2 * p * (1 - p) * z_square_sum(state) / n + (1 - p) ** 2 * zz_sq / n**2


def readout_channel(probs: np.ndarray, q: float) -> np.ndarray:
    """Dress outcome distributions with independent per-qubit bit flips.

    Each bit is read faithfully with probability q and flipped with
    probability 1-q.  ``probs`` is one distribution (length 2**n) or a
    (..., 2**n) stack of them; a row gets the same bits alone or stacked.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q={q} outside [0, 1]")
    probs = np.asarray(probs, dtype=float)
    size = probs.shape[-1] if probs.ndim else 0
    if size == 0 or (size & (size - 1)):
        raise ValueError("probs must have length 2**n along its last axis")
    if not np.all(np.abs(probs.sum(axis=-1) - 1.0) <= 1e-12):
        raise ValueError("each distribution in probs must sum to 1")
    n = size.bit_length() - 1
    flip = np.array([[q, 1.0 - q], [1.0 - q, q]])
    for qubit in range(n):
        probs = _apply_1q(probs, n, flip, qubit)
    return probs


def _q1_epsilon_rows(epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """(beta, mu) with Q1(eps) = sum_m mu_m B_m^{x4}, B_m = sum_a beta[m, a] sigma_a.

    B_m runs over (P_eps c)^+ sigma (P_eps c) for the 24 Cliffords c, with B and
    -B merged: sigma = I gives I (mu = 1/4), sigma = Z the unit X, Y, Z rows
    (1/12 each), sigma = X, Y four rotated rows per (X,Y), (Y,Z), (Z,X) plane."""
    c, s = math.cos(epsilon), math.sin(epsilon)
    beta = np.zeros((16, 4))
    beta[:4] = np.eye(4)
    row = 4
    for a, b in ((1, 2), (2, 3), (3, 1)):
        for u, v in ((c, s), (c, -s), (s, c), (s, -c)):
            beta[row, a], beta[row, b] = u, v
            row += 1
    mu = np.array([1 / 4] + [1 / 12] * 3 + [1 / 24] * 12)
    return beta, mu


def w_epsilon(state: StateVector | MixedState, epsilon: float) -> float:
    """W_eps(rho) = tr(rho^{x4} Q1(eps)^{xn}) from the Pauli table t of rho.

    With Q1(eps) = sum_m mu_m B_m^{x4}, tr(rho B_{m_1} x ... x B_{m_n}) is
    (beta^{xn} t)_m, so W_eps = sum_m prod_i mu_{m_i} (beta^{xn} t)_m^4: apply
    beta along every axis of t, take fourth powers, contract each axis with mu.
    """
    return _w_epsilon_of(pauli_table(state), epsilon)


def _w_epsilon_of(pauli: PauliTable, epsilon: float) -> float:
    """w_epsilon from the state's Pauli table; eps = 0 gives exactly W."""
    n = pauli.n
    if n > MAX_CONTRACTION_QUBITS:
        raise ValueError(f"w_epsilon limited to n <= {MAX_CONTRACTION_QUBITS}")
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon={epsilon} must be finite")
    if float(epsilon) == 0.0:
        return _stab_purity_of(pauli)
    beta, mu = _q1_epsilon_rows(float(epsilon))
    table = pauli.values.reshape((4,) * n)
    for _ in range(n):
        table = np.tensordot(table, beta, axes=([0], [1]))
    table *= table  # a fresh tensordot result: square it in place, twice
    table *= table
    for _ in range(n):
        table = table @ mu
    return float(table)


def w_eps_zero(epsilon: float) -> float:
    """Closed-form single-qubit W_eps(|0>) = (5 + cos 4eps + sin^2 2eps)/12."""
    eps = float(epsilon)
    return (5 + np.cos(4 * eps) + np.sin(2 * eps) ** 2) / 12.0


def w_chi(q: float, epsilon: float) -> float:
    """Per-qubit displaced-and-readout-dressed stabilizer purity of |0>:
    (1-2q)^4 W_eps(|0>) + 2(q^3(1-q) + (1-q)^3 q)."""
    return (1 - 2 * q) ** 4 * w_eps_zero(epsilon) + 2 * (
        q**3 * (1 - q) + (1 - q) ** 3 * q
    )


def g_factor(epsilon: float, n: int) -> float:
    """g(eps) = ((5 + cos 4eps)/6)^n, the coefficient multiplying W(psi_p)."""
    return float(((5 + np.cos(4 * float(epsilon))) / 6.0) ** n)


def solve_p(p_exp: float, state: StateVector) -> float:
    """Invert the dephasing-purity closed form for p (positive branch).

    p = (1 - Z + sqrt(n) sqrt(P(1 - 2Z + n) + Z^2/n - 1)) / (1 - 2Z + n)
    with Z = z_square_sum(state).  Exact whenever the state's off-diagonal
    ZZ expectations vanish (gamma family, |+>^n).  The purity is quadratic
    in p with vertex at (1 - Z)/(1 - 2Z + n); below it a second, unphysical
    root exists.  This always returns the larger root, the right one for
    survival probabilities in the hardware regime.
    """
    if not 0.0 < p_exp <= 1.0 + 1e-12:
        raise InfeasibleNoiseError(f"measured purity {p_exp} outside (0, 1]")
    n = state.n
    z = z_square_sum(state)
    denom = 1.0 - 2.0 * z + n
    disc = p_exp * denom + z**2 / n - 1.0
    if disc < -1e-12:
        raise InfeasibleNoiseError(
            f"purity {p_exp} below the channel's reachable range (disc={disc:.3e})"
        )
    p = (1.0 - z + math.sqrt(n) * math.sqrt(max(disc, 0.0))) / denom
    if not -1e-9 <= p <= 1.0 + 1e-9:
        raise InfeasibleNoiseError(f"solved p={p} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def solve_q(p_exp_zero: float, n: int) -> float:
    """Readout fidelity from the measured purity of |0>^n (positive branch):
    q = (1 + sqrt(2 P^{1/n} - 1))/2."""
    if n < 1:
        raise ValueError(f"qubit count {n} must be at least 1")
    if not 0.0 < p_exp_zero <= 1.0 + 1e-12:
        raise InfeasibleNoiseError(f"measured purity {p_exp_zero} outside (0, 1]")
    u = float(p_exp_zero) ** (1.0 / n)
    if 2.0 * u - 1.0 < -1e-12:
        raise InfeasibleNoiseError(
            f"per-qubit purity {u:.4f} below 0.5: no real readout fidelity"
        )
    q = 0.5 * (1.0 + math.sqrt(max(2.0 * u - 1.0, 0.0)))
    # invariant: n >= 1 and the checks above leave u in [1/2, 1] up to 1e-12,
    # where q^2 + (1-q)^2 = u holds exactly; only rounding separates the sides.
    assert abs(q**2 + (1 - q) ** 2 - u) < 1e-12
    return q


def solve_epsilon(w_exp_zero: float, q: float, n: int) -> float:
    """Displacement from the measured stabilizer purity of |0>^n.

    eps = (1/4) arccos((-80q^4 + 160q^3 - 120q^2 + 40q + 24 W^{1/n} - 11)
                       / (2q - 1)^4), positive branch in [0, pi/4].
    """
    if w_exp_zero <= 0.0:
        raise InfeasibleNoiseError(f"measured stabilizer purity {w_exp_zero} <= 0")
    if abs(2.0 * q - 1.0) < 1e-9:
        raise InfeasibleNoiseError("q = 0.5 makes the displacement unidentifiable")
    u = float(w_exp_zero) ** (1.0 / n)
    arg = (-80 * q**4 + 160 * q**3 - 120 * q**2 + 40 * q + 24 * u - 11) / (
        2 * q - 1
    ) ** 4
    if not -1.0 - 1e-9 <= arg <= 1.0 + 1e-9:
        raise InfeasibleNoiseError(
            f"stabilizer purity {w_exp_zero} outside the model's range (cos arg "
            f"{arg:.4f})"
        )
    eps = 0.25 * math.acos(min(max(arg, -1.0), 1.0))
    if not abs(w_chi(q, eps) - u) < 1e-9:
        raise ValueError(f"q={q}: rounding breaks the closed form's round trip")
    return eps


def corrected_w(
    w_exp: float, state: StateVector, p: float, epsilon: float
) -> float:
    """Remove the additive displacement artifact from a measured W.

    W_corr = (W_exp - Omega)/g(eps) with Omega = W_eps(psi_p) - g(eps) W(psi_p).
    """
    table = pauli_table(prep_channel(state, p))
    g = g_factor(epsilon, state.n)
    omega = _w_epsilon_of(table, epsilon) - g * _stab_purity_of(table)
    return (w_exp - omega) / g


def predict_noisy_observables(
    state: StateVector, p: float, epsilon: float
) -> dict[str, float]:
    """Exact noise-model predictions for a dephased, displaced measurement.

    Returns W(psi_p), P(psi_p), their ratio, W_eps(psi_p), g(eps), Omega.
    """
    rho_p = prep_channel(state, p)
    table = pauli_table(rho_p)
    w_eps = _w_epsilon_of(table, epsilon)
    w_noisy = _stab_purity_of(table)
    purity_noisy = purity_exact(rho_p)
    g = g_factor(epsilon, state.n)
    return {
        "w_noisy": w_noisy,
        "purity_noisy": purity_noisy,
        "ratio": w_noisy / purity_noisy,
        "w_epsilon": w_eps,
        "g": g,
        "omega": w_eps - g * w_noisy,
    }


def readout_dressed_purity(state: StateVector | MixedState, q: float) -> float:
    """Expected protocol purity of a state measured through readout flips:
    d^{-1} sum_P (2q-1)^{2|P|} tr(P rho)^2, with |P| the support size."""
    table = pauli_table(state)
    eta = (2.0 * q - 1.0) ** 2  # Python float powers: numpy's array pow varies by CPU
    weights = np.array([eta**k for k in range(state.n + 1)])[table.support_sizes()]
    return float(np.sum(weights * table.values**2)) / 2**state.n


def _dressed_purity_coefficients(
    state: StateVector, q: float
) -> tuple[float, float, float]:
    """(A, B, C): readout_dressed_purity(prep_channel(state, p), q) = Ap^2 + Bp + C.

    Dephasing scales t_P = tr(P psi) by c_P + p(1 - c_P), with c_P = 1 - 2k_P/n
    and k_P the number of X or Y factors of P; w_P = (2q-1)^{2|P|} t_P^2 / d.
    """
    digits = _pauli_digits(state.n)
    c = 1.0 - 2.0 * np.count_nonzero((digits == 1) | (digits == 2), axis=1) / state.n
    eta = (2.0 * q - 1.0) ** 2  # indexed Python powers, as in readout_dressed_purity
    w = np.array([eta**k for k in range(state.n + 1)])[np.count_nonzero(digits, axis=1)]
    w *= pauli_table(state).values ** 2 / 2**state.n
    return float(w @ (1.0 - c) ** 2), 2.0 * float(w @ (c * (1.0 - c))), float(w @ c**2)


def solve_p_readout_aware(
    p_exp: float, state: StateVector, q: float
) -> float:
    """Invert p from a purity measured through imperfect readout.

    The forward model dresses prep_channel(state, p) with the readout
    weights; at q=1 it reduces to the plain dephasing-purity inversion.  It
    is a quadratic whose vertex often lies in (0, 1/2) (p = 0.25 for
    gamma(3,4) at q = 1): purities made by p in (0, 2 vertex) fall below
    forward(0) and are refused, and like solve_p the larger root is taken.
    """
    a, b, c = _dressed_purity_coefficients(state, q)
    lo, hi = c, a + b + c
    if not min(lo, hi) - 1e-9 <= p_exp <= max(lo, hi) + 1e-9:
        raise InfeasibleNoiseError(
            f"measured purity {p_exp:.4f} outside the model's reachable "
            f"range [{min(lo, hi):.4f}, {max(lo, hi):.4f}]"
        )
    target = min(max(p_exp, min(lo, hi)), max(lo, hi))
    if abs(hi - lo) < 1e-15:
        return 1.0
    # a > 0 here, as a = 0 forces b = 0; the larger root, without cancellation
    root = math.sqrt(max(b * b - 4.0 * a * (c - target), 0.0))
    p = (root - b) / (2.0 * a) if b <= 0.0 else 2.0 * (target - c) / (b + root)
    return min(max(p, 0.0), 1.0)


def protocol_average_1q(
    state: StateVector, epsilon: float, q: float = 1.0
) -> tuple[float, float]:
    """Exact single-qubit protocol averages (W, P) under the full noise pair
    (epsilon, q): enumerate all 24x24 (recorded, hidden) Clifford pairs with
    the displacement between them, as one batch of 576 words, dress outcomes
    with readout flips, and sum the per-word statistics in enumeration order."""
    if state.n != 1:
        raise ValueError("exact displaced enumeration is single-qubit only")
    outer = np.repeat(CLIFFORD_1Q, N_CLIFFORD, axis=0)
    inner = np.tile(CLIFFORD_1Q, (N_CLIFFORD, 1, 1))
    mats = (outer @ phase_gate(epsilon)) @ inner
    probs = np.abs(_apply_1q(state.amplitudes, 1, mats, 0)) ** 2
    if q != 1.0:
        probs = readout_channel(probs, q)
    w_c, p_c = word_statistics(probs, 1)
    count = N_CLIFFORD**2
    return float(np.cumsum(w_c)[-1]) / count, float(np.cumsum(p_c)[-1]) / count


def haar_channel_stats(
    q_probs, pauli_strings, n: int
) -> dict[str, float]:
    """Haar-averaged observables for the Pauli channel sum_i q_i P_i . P_i.

    <Pur> = (d sum q_i^2 + 1)/(d + 1);
    <tr(Q E(psi)^{x4})> = (d^2 + 6d + 8 + 3X + 6X/d)/(d(d+1)(d+2)(d+3)) with
    X = sum_P (sum_i q_i chi(P_i, P))^4 and chi = +/-1 for commuting /
    anticommuting Pauli strings.  delta_m estimates the spurious magic the
    channel adds to a Haar-random pure state.
    """
    if n > 4:
        raise ValueError("haar_channel_stats enumerates 4**n Paulis; n <= 4 only")
    q = np.asarray(q_probs, dtype=float)
    if q.ndim != 1 or q.size != len(pauli_strings):
        raise ValueError("need one probability per Pauli string")
    if np.any(q < -1e-12) or not abs(float(q.sum()) - 1.0) <= 1e-9:
        raise ValueError("channel probabilities must form a distribution")
    d = 2**n
    # chi(P_i, P) over all P: product over qubits of the single-qubit rule
    # (commute unless both non-identity and different).
    digits = _pauli_digits(n)
    signed = np.zeros(4**n)
    for qi, string in zip(q, pauli_strings):
        sd = np.array(["IXYZ".index(ch) for ch in string])
        anti = (sd != 0) & (digits != 0) & (digits != sd[None, :])
        signed += qi * (-1.0) ** anti.sum(axis=1)
    fourth = signed * signed
    fourth *= fourth
    x_stat = float(np.sum(fourth))
    mean_purity = (d * float(np.sum(q**2)) + 1.0) / (d + 1.0)
    mean_w = (d**2 + 6 * d + 8 + 3 * x_stat + 6 * x_stat / d) / (
        d * (d + 1) * (d + 2) * (d + 3)
    )
    haar_w = 4.0 / (d * (d + 3))
    delta_m = -math.log2(haar_w * mean_purity / mean_w)
    return {
        "mean_purity": mean_purity,
        "mean_w": mean_w,
        "x": x_stat,
        "delta_m": delta_m,
    }

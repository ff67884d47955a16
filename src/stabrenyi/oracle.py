"""Exact Pauli-spectrum oracles for small registers.

Everything here is dense linear algebra on at most a few thousand
amplitudes: Pauli expectation tables, the stabilizer purity
W(rho) = d^{-2} sum_P tr(P rho)^4, stabilizer Renyi entropies M_alpha,
state purity, and a brute-force average of the randomized-measurement
protocol over every local Clifford word (tractable for n <= 3), built on
one batched fast Walsh-Hadamard transform.

Results are deterministic: reductions run in fixed index order.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .cliffords import CLIFFORD_1Q, N_CLIFFORD
from .states import MixedState, StateVector, _apply_local, as_mixture

__all__ = [
    "PauliTable",
    "XiDistribution",
    "pauli_table",
    "xi_distribution",
    "stab_purity_exact",
    "stabilizer_renyi",
    "purity_exact",
    "max_offidentity_pauli",
    "exact_protocol_value",
    "haar_random_state",
    "walsh_z_expectations",
    "subset_weights",
    "subset_moments",
    "word_statistics",
]

#: pauli_table materializes the full density matrix; cap the register width.
MAX_ORACLE_QUBITS = 8

#: Exhaustive word enumeration grows as 24**n; cap it where it stays fast.
MAX_ENUMERATION_QUBITS = 3

# Single-qubit Paulis in index order I, X, Y, Z.
_PAULIS_1Q = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class PauliTable:
    """All 4**n Pauli expectations tr(P rho), indexed base-4 (I,X,Y,Z)."""

    n: int
    values: np.ndarray

    def support_sizes(self) -> np.ndarray:
        """Number of non-identity tensor factors for each Pauli index."""
        return np.count_nonzero(_pauli_digits(self.n), axis=1)


@dataclass(frozen=True)
class XiDistribution:
    """The normalized Pauli weight distribution Xi(P) = tr^2(P rho)/(d W_raw).

    ``probabilities`` sums to 1; the identity entry is included.
    """

    n: int
    probabilities: np.ndarray


def _pauli_digits(n: int) -> np.ndarray:
    """(4**n, n) base-4 digits of every Pauli index, qubit 0 first."""
    return (np.arange(4**n)[:, None] // 4 ** np.arange(n - 1, -1, -1)) % 4


def _density_matrix(state: StateVector | MixedState) -> np.ndarray:
    mixture = as_mixture(state)
    dim = mixture.dim
    rho = np.zeros((dim, dim), dtype=complex)
    for weight, psi in mixture.terms:
        if weight != 0.0:
            rho += weight * np.outer(psi.amplitudes, psi.amplitudes.conj())
    return rho


def pauli_table(state: StateVector | MixedState) -> PauliTable:
    """Compute all 4**n expectations tr(P rho) in one pass.

    The density matrix, viewed as a (2,2)^n tensor over (row, col) index
    pairs, is contracted qubit by qubit against the conjugated Pauli basis,
    costing O(n 4**n) instead of 8**n.  Expectations of Hermitian Paulis are
    real; the imaginary dust is checked and dropped.
    """
    n = state.n
    if n > MAX_ORACLE_QUBITS:
        raise ValueError(f"pauli_table limited to n <= {MAX_ORACLE_QUBITS}")
    rho = _density_matrix(state)
    # tr(P rho) = sum_{r,c} prod_i sigma_{a_i}[c_i, r_i] rho[r, c], i.e. each
    # sigma row index pairs with rho's column index and vice versa.
    tensor = rho.reshape([2] * (2 * n))  # axes: r_0..r_{n-1}, c_0..c_{n-1}
    for qubit in range(n):
        # Invariant entering step `qubit`: axes are a_0..a_{qubit-1} (first
        # `qubit` positions), then r_qubit..r_{n-1}, then c_qubit..c_{n-1};
        # so r_qubit sits at position `qubit` and c_qubit at position n.
        tensor = np.tensordot(_PAULIS_1Q, tensor, axes=([1, 2], [n, qubit]))
        tensor = np.moveaxis(tensor, 0, qubit)
    values = tensor.reshape(4**n)
    # invariant: Paulis are Hermitian and rho is a finite mixture of states
    # with finite norm 1 (NaN is refused on construction), so tr(P rho) is real.
    assert np.max(np.abs(values.imag)) < 1e-9, "Pauli expectations must be real"
    return PauliTable(n=n, values=values.real.copy())


def _stab_purity_of(table: PauliTable) -> float:
    """sum_P t_P^4 / 4**n, each fourth power a squared square: IEEE products
    round alike on every CPU, where numpy's array pow does not."""
    fourth = table.values * table.values
    fourth *= fourth
    return float(np.sum(fourth)) / 4**table.n


def stab_purity_exact(state: StateVector | MixedState) -> float:
    """Stabilizer purity W(rho) = d^{-2} sum_P tr(P rho)^4."""
    return _stab_purity_of(pauli_table(state))


def purity_exact(state: StateVector | MixedState) -> float:
    """tr(rho^2) via the Gram matrix of the mixture terms (no d x d matrix)."""
    mixture = as_mixture(state)
    weights = np.array([w for w, _ in mixture.terms])
    vecs = np.stack([psi.amplitudes for _, psi in mixture.terms])
    gram = vecs.conj() @ vecs.T
    return float(np.real(weights @ (np.abs(gram) ** 2) @ weights))


def xi_distribution(state: StateVector | MixedState) -> XiDistribution:
    """Normalized Pauli weights Xi(P) = tr(P rho)^2 / (d tr(rho^2))."""
    table = pauli_table(state)
    d = 2**table.n
    weights = table.values**2 / (d * purity_exact(state))
    total = float(weights.sum())
    # invariant: sum_P tr(P rho)^2 = d tr(rho^2) for any finite state (NaN is
    # refused on construction), so only rounding separates the total from 1.
    assert abs(total - 1.0) < 1e-10, "Xi must normalize to 1"
    return XiDistribution(n=table.n, probabilities=weights / total)


def stabilizer_renyi(state: StateVector | MixedState, alpha: float = 2.0) -> float:
    """Stabilizer Renyi entropy M_alpha = S_alpha(Xi) - log2 purity - log2 d.

    alpha = 1 is the Shannon limit; alpha = inf uses -log2 max Xi.
    """
    if not alpha >= 0:
        raise ValueError(f"alpha={alpha} must be nonnegative")
    xi = xi_distribution(state).probabilities
    if np.isinf(alpha):
        s_alpha = -np.log2(float(xi.max()))
    elif alpha == 1.0:
        nz = xi[xi > 1e-300]
        s_alpha = float(-(nz * np.log2(nz)).sum())
    else:
        s_alpha = float(np.log2(np.sum(xi**alpha))) / (1.0 - alpha)
    d = 2**state.n
    return s_alpha - np.log2(purity_exact(state)) - np.log2(d)


def max_offidentity_pauli(state: StateVector | MixedState) -> float:
    """max_{P != identity} |tr(P rho)|."""
    table = pauli_table(state)
    return float(np.max(np.abs(table.values[1:])))


@functools.lru_cache(maxsize=None)
def subset_weights(n: int) -> np.ndarray:
    """3**|A| for every qubit subset A, indexed by the subset bitmask."""
    masks = np.arange(2**n)
    sizes = np.zeros(2**n, dtype=np.int64)
    for bit in range(n):
        sizes += (masks >> bit) & 1
    out = (3.0**sizes).astype(float)
    out.setflags(write=False)
    return out


def walsh_z_expectations(values: np.ndarray, n: int) -> np.ndarray:
    """<Z_A> for every subset A: the fast Walsh-Hadamard transform of outcome
    probabilities (or counts, giving subset sign sums) along the last axis of
    a (..., 2**n) array.  A float copy is transformed in place by n butterfly
    stages, O(n 2**n) per row, in Sylvester order (entry A carries the signs
    (-1)^{|A & s|}); integer inputs transform exactly."""
    out = np.array(values, dtype=float)
    if out.shape[-1:] != (2**n,):
        raise ValueError(f"last axis must have length 2**{n}, got shape {out.shape}")
    for bit in range(n):
        low, high = np.moveaxis(out.reshape(*out.shape[:-1], -1, 2, 2**bit), -2, 0)
        low[...], high[...] = low + high, low - high
    return out


def subset_moments(
    z2: np.ndarray, z4: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(W_C, P_C) = (4^{-n} sum_A 3^{|A|} z4_A, 2^{-n} sum_A 3^{|A|} z2_A) along
    the last axis, from per-subset values z2 ~ <Z_A>^2 and z4 ~ <Z_A>^4.  Each
    row is reduced on its own: a word gives the same bits alone or batched."""
    weights = subset_weights(n)
    return (z4 * weights).sum(axis=-1) / 4**n, (z2 * weights).sum(axis=-1) / 2**n


def word_statistics(probs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-word protocol statistics (W_C, P_C) of every outcome distribution
    along the last axis of a (..., 2**n) array, with <Z_A> read off its Walsh
    spectrum; one distribution gives two scalars."""
    z2 = walsh_z_expectations(probs, n) ** 2
    return subset_moments(z2, z2 * z2, n)


def exact_protocol_value(
    state: StateVector | MixedState, quantity: str = "stab_purity"
) -> float:
    """Average the protocol statistic (``word_statistics``) over all 24**n
    local Clifford words, as one batch.  Exhaustive enumeration is capped at
    n <= 3 (13824 words)."""
    if quantity not in ("stab_purity", "purity"):
        raise ValueError("quantity must be 'stab_purity' or 'purity'")
    n = state.n
    if n > MAX_ENUMERATION_QUBITS:
        raise ValueError(
            f"exhaustive enumeration limited to n <= {MAX_ENUMERATION_QUBITS}"
        )
    mats = CLIFFORD_1Q[list(itertools.product(range(N_CLIFFORD), repeat=n))]
    probs = np.zeros((N_CLIFFORD**n, 2**n))
    for w_k, psi in as_mixture(state).terms:
        probs += w_k * np.abs(_apply_local(psi.amplitudes, mats)) ** 2
    w_c, p_c = word_statistics(probs, n)
    return float(np.mean(w_c if quantity == "stab_purity" else p_c))


def haar_random_state(n: int, seed: int | np.random.Generator) -> StateVector:
    """Haar-random pure state: normalized complex Gaussian amplitudes."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n=n, amplitudes=raw / np.linalg.norm(raw))

"""State vectors, circuits, named state families, and measurement sampling.

Bit-order convention used by every module and file format in this package:
qubit ``i`` is bit ``i`` of the computational-basis index, **most significant
bit first**.  For an ``n``-qubit basis index ``b``, qubit ``i`` holds the bit
``(b >> (n - 1 - i)) & 1``, and the bitstring label of ``b`` is
``format(b, f"0{n}b")`` read left to right as qubits ``0 .. n-1``.

Supported gates are H, the single-qubit phase rotation P(theta) =
diag(1, e^{i theta}) (T is P(pi/4)), CX with explicit control/target, and the
24 single-qubit Cliffords from :mod:`stabrenyi.cliffords` addressed by id.
One kernel applies every single-qubit operator, along a qubit axis of a
(..., 2**n) array whose leading axes are a batch (one word per row).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .cliffords import CLIFFORD_1Q, N_CLIFFORD

__all__ = [
    "MAX_QUBITS",
    "StateVector",
    "MixedState",
    "Circuit",
    "CliffordWord",
    "zero_state",
    "plus_state",
    "ptheta_state",
    "gamma_tcounts",
    "gamma_circuit",
    "gamma_state",
    "apply_circuit",
    "apply_local_cliffords",
    "pauli_z_on",
    "as_mixture",
    "outcome_distribution",
    "sample_counts",
]

#: Hard cap on register width; 2**12 amplitudes keep every dense path cheap.
MAX_QUBITS = 12

_NORM_TOL = 1e-10

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state on ``n`` qubits (2**n complex amplitudes)."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count {self.n} outside [1, {MAX_QUBITS}]")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n,):
            raise ValueError(
                f"expected {2**self.n} amplitudes for n={self.n}, got shape {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"statevector norm {norm} drifted beyond {_NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 2**self.n


@dataclass(frozen=True)
class MixedState:
    """A convex mixture of pure states: list of (weight, StateVector) terms."""

    n: int
    terms: tuple

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("mixture needs at least one term")
        weights = np.array([w for w, _ in terms], dtype=float)
        if np.any(weights < -1e-12):
            raise ValueError("mixture weights must be nonnegative")
        if not abs(weights.sum() - 1.0) <= 1e-9:
            raise ValueError(f"mixture weights sum to {weights.sum()}, expected 1")
        for _, psi in terms:
            if psi.n != self.n:
                raise ValueError("all mixture terms must share the qubit count")
        object.__setattr__(self, "terms", terms)

    @property
    def dim(self) -> int:
        return 2**self.n


def as_mixture(state: StateVector | MixedState) -> MixedState:
    """View a pure state as a single-term mixture (mixtures pass through)."""
    if isinstance(state, MixedState):
        return state
    return MixedState(n=state.n, terms=((1.0, state),))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on ``n`` qubits.

    Gates are tuples: ``("h", i)``, ``("p", i, theta)``, ``("cx", control,
    target)``, ``("clifford", i, id)``.  Indices are validated against ``n``;
    CX requires control != target.
    """

    n: int
    gates: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count {self.n} outside [1, {MAX_QUBITS}]")
        gates = tuple(tuple(g) for g in self.gates)
        for gate in gates:
            kind = gate[0]
            if kind == "h":
                (_, i) = gate
                self._check_index(i)
            elif kind == "p":
                (_, i, theta) = gate
                self._check_index(i)
                float(theta)
            elif kind == "cx":
                (_, c, t) = gate
                self._check_index(c)
                self._check_index(t)
                if c == t:
                    raise ValueError("CX control and target must differ")
            elif kind == "clifford":
                (_, i, cid) = gate
                self._check_index(i)
                if not 0 <= cid < N_CLIFFORD:
                    raise ValueError(f"clifford id {cid} outside [0, {N_CLIFFORD})")
            else:
                raise ValueError(f"unknown gate kind {kind!r}")
        object.__setattr__(self, "gates", gates)

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ValueError(f"qubit index {i} outside [0, {self.n})")


@dataclass(frozen=True)
class CliffordWord:
    """One single-qubit Clifford id per qubit: the local measurement basis."""

    ids: tuple

    def __post_init__(self) -> None:
        ids = tuple(self.ids)
        for cid in ids:
            if isinstance(cid, bool) or not isinstance(cid, (int, np.integer)):
                raise ValueError(f"clifford id {cid!r} is not an integer")
            if not 0 <= cid < N_CLIFFORD:
                raise ValueError(f"clifford id {cid} outside [0, {N_CLIFFORD})")
        object.__setattr__(self, "ids", tuple(int(i) for i in ids))

    @property
    def n(self) -> int:
        return len(self.ids)


def _apply_1q(amps: np.ndarray, n: int, gate: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a 2x2 operator (``gate`` (2, 2), or (..., 2, 2) broadcast against
    the batch axes) along one qubit axis of a (..., 2**n) array: each row is
    copied, qubit axis first, to a contiguous (2, rest) block for one
    ``np.matmul``, the layout that gives a row the same bits alone or batched."""
    moved = np.moveaxis(amps.reshape(*amps.shape[:-1], *[2] * n), qubit - n, -n)
    out = np.matmul(gate, moved.reshape(*amps.shape[:-1], 2, -1))
    batch = out.shape[:-2]
    return np.moveaxis(out.reshape(*batch, *[2] * n), -n, qubit - n).reshape(*batch, -1)


def _apply_local(amps: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Apply ``mats[..., i, :, :]`` of a (..., n, 2, 2) stack to qubit i, in order."""
    n = mats.shape[-3]
    for qubit in range(n):
        amps = _apply_1q(amps, n, mats[..., qubit, :, :], qubit)
    return amps


def _apply_cx(amps: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    tensor = amps.reshape([2] * n).copy()
    moved = np.moveaxis(tensor, (control, target), (0, 1))
    moved[1, 0], moved[1, 1] = moved[1, 1].copy(), moved[1, 0].copy()
    return np.moveaxis(moved, (0, 1), (control, target)).reshape(-1)


def apply_circuit(circuit: Circuit, state: StateVector) -> StateVector:
    """Run a circuit on a pure state, returning the new state."""
    if circuit.n != state.n:
        raise ValueError("circuit and state qubit counts differ")
    amps = state.amplitudes.copy()
    for gate in circuit.gates:
        kind = gate[0]
        if kind == "h":
            amps = _apply_1q(amps, state.n, _HADAMARD, gate[1])
        elif kind == "p":
            phase = np.array([[1, 0], [0, np.exp(1j * float(gate[2]))]], dtype=complex)
            amps = _apply_1q(amps, state.n, phase, gate[1])
        elif kind == "cx":
            amps = _apply_cx(amps, state.n, gate[1], gate[2])
        elif kind == "clifford":
            amps = _apply_1q(amps, state.n, CLIFFORD_1Q[gate[2]], gate[1])
    return StateVector(n=state.n, amplitudes=amps)


def apply_local_cliffords(state: StateVector, word: CliffordWord) -> StateVector:
    """Apply one single-qubit Clifford per qubit (a local basis rotation)."""
    if word.n != state.n:
        raise ValueError("word length must equal qubit count")
    mats = CLIFFORD_1Q[list(word.ids)]
    return StateVector(n=state.n, amplitudes=_apply_local(state.amplitudes, mats))


def pauli_z_on(state: StateVector, qubit: int) -> StateVector:
    """Apply Z to one qubit: flip the sign of amplitudes where its bit is 1."""
    if not 0 <= qubit < state.n:
        raise ValueError(f"qubit index {qubit} outside [0, {state.n})")
    bits = (np.arange(state.dim) >> (state.n - 1 - qubit)) & 1
    return StateVector(n=state.n, amplitudes=state.amplitudes * (1.0 - 2.0 * bits))


def zero_state(n: int) -> StateVector:
    """|0...0> on n qubits."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count {n} outside [1, {MAX_QUBITS}]")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    return StateVector(n=n, amplitudes=amps)


def plus_state(n: int = 1) -> StateVector:
    """|+>^n, the uniform-superposition stabilizer state."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count {n} outside [1, {MAX_QUBITS}]")
    amps = np.full(2**n, 2.0 ** (-n / 2), dtype=complex)
    return StateVector(n=n, amplitudes=amps)


def ptheta_state(theta: float) -> StateVector:
    """Single-qubit phase family (|0> + e^{i theta} |1>)/sqrt(2).

    theta = pi/4 is the T state; theta = 0 and pi/2 are stabilizer states.
    """
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError(f"theta={theta} gives no state of finite norm")
    amps = np.array([1.0, np.exp(1j * theta)], dtype=complex) / np.sqrt(2.0)
    return StateVector(n=1, amplitudes=amps)


def gamma_tcounts(n: int, t: int) -> tuple[int, int]:
    """Split a total T count t into the two layer counts (n1, n2).

    The first layer fills up before the second: t=1 -> (0, 1); for
    2 <= t <= n+1 -> (t-1, 1); for t > n+1 -> (n, t-n).
    """
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"gamma family needs n in [2, {MAX_QUBITS}]")
    if not 1 <= t <= 2 * n - 1:
        raise ValueError(f"t={t} outside [1, {2 * n - 1}] for n={n}")
    if t == 1:
        return 0, 1
    if t <= n + 1:
        return t - 1, 1
    return n, t - n


def gamma_circuit(n: int, t: int) -> Circuit:
    """Brickwork circuit with t genuine T gates.

    Layers: H on all qubits; T on the top n1 qubits (0..n1-1); ascending CX
    chain CX(0,1)..CX(n-2,n-1); T on the bottom n2 qubits (n-n2..n-1);
    descending CX chain CX(n-2,n-1)..CX(0,1).

    The second T layer must sit on the *bottom* block: a T on qubit i < n-1
    placed between the chains commutes through the CX controls and merges
    with the first layer into a Clifford S, silently lowering the T count.
    Bottom placement keeps every T genuine and reproduces the exact
    stabilizer purities of the whole family.
    """
    n1, n2 = gamma_tcounts(n, t)
    gates: list[tuple] = [("h", i) for i in range(n)]
    gates += [("p", i, np.pi / 4) for i in range(n1)]
    gates += [("cx", i, i + 1) for i in range(n - 1)]
    gates += [("p", i, np.pi / 4) for i in range(n - n2, n)]
    gates += [("cx", i, i + 1) for i in reversed(range(n - 1))]
    return Circuit(n=n, gates=gates)


def gamma_state(n: int, t: int) -> StateVector:
    """The t-doped brickwork state gamma_circuit(n, t) applied to |0...0>."""
    return apply_circuit(gamma_circuit(n, t), zero_state(n))


def outcome_distribution(state: StateVector | MixedState) -> np.ndarray:
    """Computational-basis outcome probabilities (length 2**n, sums to 1)."""
    if isinstance(state, MixedState):
        probs = np.zeros(state.dim)
        for weight, psi in state.terms:
            probs += weight * np.abs(psi.amplitudes) ** 2
    else:
        probs = np.abs(state.amplitudes) ** 2
    return probs / probs.sum()


def sample_counts(
    probs: np.ndarray,
    n_shots: int,
    seed: int | np.random.Generator | Sequence[np.random.Generator],
) -> np.ndarray:
    """Draw multinomial shot counts: int64 counts indexed like ``probs``.

    ``probs`` is one (2**n,) distribution with an int seed or a Generator,
    or a (U, 2**n) block of them with a sequence of U generators, one per
    row.  The block is checked once and normalised as a whole; then each
    row is one multinomial draw from its own generator, so a block row gets
    the bits of a one-row call.  Identical (probs, n_shots, seed) always give
    identical counts.
    """
    probs = np.asarray(probs, dtype=float)
    width = probs.shape[-1] if probs.ndim in (1, 2) else 0
    if not width or width & (width - 1):
        raise ValueError("probs must have length 2**n")
    rows = probs.reshape(-1, width)
    sums = rows.sum(axis=1, keepdims=True)
    if np.any(rows < -1e-12) or not np.all(np.abs(sums - 1.0) <= 1e-9):
        raise ValueError("probs must be a probability distribution")
    if n_shots < 1:
        raise ValueError("n_shots must be positive")
    if probs.ndim == 1:
        rngs = [np.random.default_rng(seed)]  # a Generator passes through as is
    else:
        rngs = list(seed)
        if len(rngs) != len(rows):
            raise ValueError(f"{len(rngs)} generators for {len(rows)} rows of probs")
    counts = np.empty(rows.shape, dtype=np.int64)
    for out, rng, row in zip(counts, rngs, np.clip(rows, 0.0, None) / sums):
        out[:] = rng.multinomial(n_shots, row)
    return counts.reshape(probs.shape)

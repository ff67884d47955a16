"""Enumeration of the single-qubit Clifford group.

The group is built as the closure of {I, H, S} under matrix multiplication,
with each element normalized to a canonical global phase: the first nonzero
entry (in row-major order) is made real and positive.  After normalization
the 24 distinct elements are sorted by their matrix entries (descending
lexicographic order on (real, imag) pairs), which places the identity at
id 0.  Ids are therefore stable across runs and processes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CLIFFORD_1Q", "N_CLIFFORD"]

_ROUND_DECIMALS = 9


def _phase_normalize(u: np.ndarray) -> np.ndarray:
    """Rescale a 2x2 unitary so its first nonzero entry is real positive.

    The matrix itself is kept at full precision (it must stay unitary to
    machine accuracy); only the dedup/sort keys are rounded.
    """
    flat = u.ravel()
    idx = int(np.argmax(np.abs(flat) > 1e-9))
    phase = flat[idx] / abs(flat[idx])
    return u / phase


def _matrix_key(u: np.ndarray) -> tuple:
    rounded = np.round(u, _ROUND_DECIMALS) + 0.0
    return tuple((float(z.real), float(z.imag)) for z in rounded.ravel())


def _build_group() -> np.ndarray:
    ident = np.eye(2, dtype=complex)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    phase_s = np.array([[1, 0], [0, 1j]], dtype=complex)

    generators = [ident, hadamard, phase_s]
    elements: dict[tuple, np.ndarray] = {}
    frontier = [_phase_normalize(g) for g in generators]
    for g in frontier:
        elements.setdefault(_matrix_key(g), g)

    while frontier:
        new_frontier = []
        for u in frontier:
            for g in generators:
                prod = _phase_normalize(g @ u)
                key = _matrix_key(prod)
                if key not in elements:
                    elements[key] = prod
                    new_frontier.append(prod)
        frontier = new_frontier

    # invariant: built once at import from fixed generators; H and S generate
    # the 24-element group modulo phase.
    assert len(elements) == 24, f"expected 24 Clifford elements, got {len(elements)}"
    ordered = sorted(elements.values(), key=_matrix_key, reverse=True)
    stack = np.stack(ordered)
    # invariant: build-time; the identity has the largest key of the 24.
    assert np.allclose(stack[0], ident), "identity must sort to id 0"
    return stack


#: All 24 single-qubit Clifford unitaries, shape (24, 2, 2), indexed by id.
CLIFFORD_1Q: np.ndarray = _build_group()
CLIFFORD_1Q.setflags(write=False)

#: Number of single-qubit Clifford elements.
N_CLIFFORD: int = 24

"""Group-structure tests for the single-qubit Clifford table."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from stabrenyi.cliffords import CLIFFORD_1Q, N_CLIFFORD, clifford_element


def _phase_key(u: np.ndarray) -> bytes:
    flat = u.reshape(-1)
    pivot = flat[np.argmax(np.abs(flat) > 1e-9)]
    # + 0.0 collapses -0.0 to 0.0 so keys are byte-comparable
    return (np.round(u * (abs(pivot) / pivot), 9) + 0.0).tobytes()


class TestTable:
    def test_size(self):
        assert N_CLIFFORD == 24
        assert CLIFFORD_1Q.shape == (24, 2, 2)

    def test_identity_is_id_zero(self):
        assert np.allclose(CLIFFORD_1Q[0], np.eye(2), atol=1e-14)

    def test_all_unitary(self):
        for u in CLIFFORD_1Q:
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12

    def test_distinct_up_to_phase(self):
        keys = {_phase_key(u) for u in CLIFFORD_1Q}
        assert len(keys) == 24

    def test_closed_under_multiplication(self):
        keys = {_phase_key(u) for u in CLIFFORD_1Q}
        for a, b in itertools.product(CLIFFORD_1Q, repeat=2):
            assert _phase_key(a @ b) in keys

    def test_closed_under_inverse(self):
        keys = {_phase_key(u) for u in CLIFFORD_1Q}
        for u in CLIFFORD_1Q:
            assert _phase_key(u.conj().T) in keys

    def test_contains_hadamard_and_phase(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        s = np.diag([1, 1j]).astype(complex)
        keys = {_phase_key(u) for u in CLIFFORD_1Q}
        assert _phase_key(h) in keys
        assert _phase_key(s) in keys

    def test_normalizes_paulis(self):
        paulis = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        pauli_keys = {_phase_key(p) for p in paulis}
        for u in CLIFFORD_1Q:
            for p in paulis:
                assert _phase_key(u @ p @ u.conj().T) in pauli_keys


class TestZImageClasses:
    """c^dagger Z c is +-X, +-Y or +-Z; the protocol's W_C and P_C see only
    <Z_A>^2 and <Z_A>^4, so a word matters only through these classes."""

    def test_each_signed_pauli_is_the_image_of_four_cliffords(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        paulis = {
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "Z": z,
        }
        images = []
        for c in CLIFFORD_1Q:
            image = c.conj().T @ z @ c
            hits = [
                sign + name
                for name, pauli in paulis.items()
                for sign, factor in (("+", 1.0), ("-", -1.0))
                if np.max(np.abs(image - factor * pauli)) < 1e-12
            ]
            assert len(hits) == 1
            images.append(hits[0])
        counts = {key: images.count(key) for key in sorted(set(images))}
        assert counts == {f"{s}{p}": 4 for s in "+-" for p in "XYZ"}
        for name in paulis:
            assert images.count("+" + name) + images.count("-" + name) == 8


class TestElementAccess:
    def test_returns_copy(self):
        u = clifford_element(5)
        u[0, 0] = 99.0
        assert CLIFFORD_1Q[5, 0, 0] != 99.0

    @pytest.mark.parametrize("bad", [-1, 24, 100])
    def test_range_check(self, bad):
        with pytest.raises(ValueError):
            clifford_element(bad)

    def test_table_read_only(self):
        with pytest.raises(ValueError):
            CLIFFORD_1Q[0, 0, 0] = 2.0

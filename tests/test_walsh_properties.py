"""Properties of the batched fast Walsh-Hadamard transform and of batched
estimation.

The transform is checked against dense Sylvester-Hadamard references built
here (by Kronecker products) and against ``scipy.linalg.hadamard``; batched
estimation is checked against its one-row scalar calls and under record
permutations.  Hypothesis runs derandomized and without an example database,
so the suite stays deterministic.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import hadamard

from stabrenyi.estimator import ExperimentData, estimate, word_estimates
from stabrenyi.oracle import walsh_z_expectations, word_statistics

PROPERTY = settings(max_examples=60)


def sylvester(n: int) -> np.ndarray:
    """Dense int64 Sylvester-Hadamard matrix: H_{2m} = [[H, H], [H, -H]]."""
    out = np.ones((1, 1), dtype=np.int64)
    for _ in range(n):
        out = np.kron(np.array([[1, 1], [1, -1]], dtype=np.int64), out)
    return out


@pytest.mark.parametrize("n", range(1, 11))
def test_integer_counts_transform_bitwise(n):
    rng = np.random.default_rng(n)
    counts = rng.integers(0, 10**6, size=(3, 2**n))
    exact = counts @ sylvester(n).T  # int64: no rounding anywhere
    assert np.array_equal(walsh_z_expectations(counts, n), exact.astype(float))


@pytest.mark.parametrize("n", range(1, 11))
def test_probabilities_within_1e12_relative(n):
    rng = np.random.default_rng(100 + n)
    probs = rng.dirichlet(np.full(2**n, 0.3), size=4)
    dense = probs @ sylvester(n).T.astype(float)
    fast = walsh_z_expectations(probs, n)
    assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_input_is_not_modified_and_shape_is_checked():
    counts = np.array([[3, 1, 0, 2]])
    walsh_z_expectations(counts, 2)
    assert counts.tolist() == [[3, 1, 0, 2]]
    with pytest.raises(ValueError):
        walsh_z_expectations(counts, 3)


@st.composite
def batched_arrays(draw, dtype, elements):
    n = draw(st.integers(1, 8))
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=3))
    return n, draw(hnp.arrays(dtype, lead + (2**n,), elements=elements))


@PROPERTY
@given(batched_arrays(np.float64, st.floats(-1e3, 1e3)))
def test_matches_scipy_hadamard_with_batch_axes(case):
    n, x = case
    dense = x @ hadamard(2**n, dtype=float).T
    fast = walsh_z_expectations(x, n)
    assert fast.shape == x.shape
    scale = max(1.0, float(np.max(np.abs(x), initial=0.0))) * 2**n
    assert np.max(np.abs(fast - dense), initial=0.0) <= 1e-13 * scale


@PROPERTY
@given(batched_arrays(np.int64, st.integers(0, 10**9)))
def test_exact_on_integer_counts(case):
    n, counts = case
    exact = counts @ hadamard(2**n, dtype=np.int64).T
    assert np.array_equal(walsh_z_expectations(counts, n), exact.astype(float))


@st.composite
def experiments(draw):
    """(data, permutation): 1-8 words on 1-3 qubits, each with >= 4 shots."""
    n = draw(st.integers(1, 3))
    units = draw(st.integers(1, 8))
    matrix = draw(hnp.arrays(np.int64, (units, 2**n), elements=st.integers(0, 30)))
    matrix[:, 0] += 4
    ids = draw(hnp.arrays(np.int64, (units, n), elements=st.integers(0, 23)))
    order = draw(st.permutations(range(units)))
    return ExperimentData(n=n, state_label="x", clifford_ids=ids, counts=matrix), order


@PROPERTY
@given(experiments(), st.sampled_from(["ustat", "plugin"]))
def test_estimate_invariant_under_record_permutation(case, method):
    data, order = case
    shuffled = ExperimentData(
        n=data.n,
        state_label="x",
        clifford_ids=data.clifford_ids[order],
        counts=data.counts[order],
    )
    base, perm = estimate(data, method), estimate(shuffled, method)
    assert perm.per_word_stab_purity == tuple(
        base.per_word_stab_purity[k] for k in order
    )
    assert perm.per_word_purity == tuple(base.per_word_purity[k] for k in order)
    assert perm.shots == tuple(base.shots[k] for k in order)
    for field in ("stab_purity", "purity", "stab_purity_err", "purity_err"):
        a, b = getattr(base, field), getattr(perm, field)
        assert (a is None) == (b is None)
        if a is not None:
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-14)


@PROPERTY
@given(experiments(), st.sampled_from(["ustat", "plugin"]))
def test_batched_per_word_equals_one_row_calls(case, method):
    data, _ = case
    report = estimate(data, method)
    for k in range(len(data.counts)):
        w_c, p_c = word_estimates(data.counts[k : k + 1], data.n, method)
        assert w_c[0] == report.per_word_stab_purity[k]
        assert p_c[0] == report.per_word_purity[k]


@PROPERTY
@given(experiments())
def test_plugin_rows_are_word_statistics_of_frequencies(case):
    data, _ = case
    counts = data.counts
    w_arr, p_arr = word_estimates(counts, data.n, "plugin")
    for row, w_c, p_c in zip(counts, w_arr, p_arr):
        assert word_statistics(row / row.sum(), data.n) == (w_c, p_c)

"""Tests for the randomized-measurement estimators and their statistics."""

from __future__ import annotations

import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from stabrenyi import estimator
from stabrenyi.estimator import (
    ExperimentData,
    bernstein_tail,
    estimate,
    simulate_experiment,
    variance_bound,
    word_estimates,
    word_outcome_probs,
)
from stabrenyi.noise import NoiseParams
from stabrenyi.oracle import subset_weights, word_statistics
from stabrenyi.recordio import RecordFormatError, read_records
from stabrenyi.states import (
    CliffordWord,
    apply_local_cliffords,
    gamma_state,
    outcome_distribution,
    plus_state,
    zero_state,
)


def _row(counts: dict[str, int], n: int) -> np.ndarray:
    """One word's dense count row from bitstring counts (msb-first)."""
    vec = np.zeros(2**n, dtype=np.int64)
    for bits, count in counts.items():
        vec[int(bits, 2)] = count
    return vec


def _one_row(vec: np.ndarray, n: int, method: str) -> tuple[float, float]:
    """(W_C, P_C) of one word: a one-row ``word_estimates`` call."""
    w_c, p_c = word_estimates(np.asarray(vec)[None, :], n, method)
    return float(w_c[0]), float(p_c[0])


def _data(ids, counts, n: int = 1) -> ExperimentData:
    return ExperimentData(
        n=n,
        state_label="x",
        clifford_ids=np.array(ids, dtype=np.int64).reshape(-1, n),
        counts=np.array(counts, dtype=np.int64).reshape(-1, 2**n),
    )


def _records(*lines: str, n: int = 1) -> str:
    header = (
        '{"format": "rm-records", "format_version": 1, "n": %d, '
        '"state_label": "x", "bit_order": "msb-first"}' % n
    )
    return "\n".join((header, *lines)) + "\n"


def naive_ustat(vec: np.ndarray, n: int) -> tuple[float, float]:
    """Literal U-statistic: sums over distinct shot pairs/quadruples.

    Exponentially slower than the Walsh/Newton path but unambiguous; used
    as the correctness reference on tiny shot counts.
    """
    outcomes = np.repeat(np.arange(2**n), vec)
    total = outcomes.size
    weights = subset_weights(n)
    e2 = np.zeros(2**n)
    e4 = np.zeros(2**n)
    for mask in range(2**n):
        signs = 1.0 - 2.0 * (
            np.array([bin(mask & o).count("1") for o in outcomes]) % 2
        )
        e2[mask] = sum(
            signs[i] * signs[j] for i, j in itertools.combinations(range(total), 2)
        )
        e4[mask] = sum(
            signs[i] * signs[j] * signs[k] * signs[l]
            for i, j, k, l in itertools.combinations(range(total), 4)
        )
    pairs = math.comb(total, 2)
    quads = math.comb(total, 4)
    p_c = float(weights @ (e2 / pairs)) / 2**n
    w_c = float(weights @ (e4 / quads)) / 4**n
    return w_c, p_c


class TestWordEstimates:
    @pytest.mark.parametrize(
        "counts, n",
        [
            ({"0": 4, "1": 2}, 1),
            ({"00": 3, "01": 1, "10": 1, "11": 2}, 2),
            ({"00": 5, "11": 1}, 2),
            ({"010": 2, "101": 2, "111": 1, "000": 1}, 3),
        ],
    )
    def test_ustat_matches_naive_loop(self, counts, n):
        vec = _row(counts, n)
        fast_w, fast_p = _one_row(vec, n, "ustat")
        slow_w, slow_p = naive_ustat(vec, n)
        assert math.isclose(fast_w, slow_w, rel_tol=1e-12, abs_tol=1e-13)
        assert math.isclose(fast_p, slow_p, rel_tol=1e-12, abs_tol=1e-13)

    def test_plugin_is_word_statistics_of_frequencies(self):
        counts = np.array([[3, 1, 0, 4], [0, 2, 5, 1], [7, 0, 0, 0]])
        got_w, got_p = word_estimates(counts, 2, "plugin")
        want_w, want_p = word_statistics(counts / counts.sum(axis=1, keepdims=True), 2)
        assert np.array_equal(got_w, want_w)
        assert np.array_equal(got_p, want_p)

    def test_pure_word_gives_extremal_values(self):
        # every shot lands on one outcome: all subset signs are +-1 exactly
        w_c, p_c = _one_row(_row({"00": 10}, 2), 2, "ustat")
        assert abs(w_c - 1.0) < 1e-12
        assert abs(p_c - 4.0) < 1e-12

    def test_ustat_needs_four_shots(self):
        with pytest.raises(ValueError):
            _one_row(_row({"0": 3}, 1), 1, "ustat")

    def test_plugin_needs_one_shot(self):
        with pytest.raises(ValueError):
            _one_row(np.zeros(2, dtype=np.int64), 1, "plugin")

    def test_ustat_unbiased_monte_carlo(self):
        # fixed word, finite shots: the mean of the U-statistic over count
        # draws must hit the exact per-word value, unlike the plugin
        probs = outcome_distribution(
            apply_local_cliffords(gamma_state(2, 2), CliffordWord(ids=(7, 19)))
        )
        w_true, p_true = word_statistics(probs, 2)
        rng = np.random.default_rng(42)
        draws = 4000
        n_shots = 8
        w_hat = np.empty(draws)
        p_hat = np.empty(draws)
        for k in range(draws):
            vec = rng.multinomial(n_shots, probs)
            w_hat[k], p_hat[k] = _one_row(vec, 2, "ustat")
        for sample, truth in ((w_hat, w_true), (p_hat, p_true)):
            se = sample.std(ddof=1) / math.sqrt(draws)
            assert abs(sample.mean() - truth) < 5 * se


class TestCountsVector:
    """A record line's bitstring counts land in one dense row, msb-first."""

    def test_dense_layout_msb_first(self):
        data = read_records(io.StringIO(_records(
            '{"clifford_ids": [0, 0], "counts": {"10": 3, "01": 1}}', n=2
        )))
        assert data.counts.tolist() == [[0, 1, 3, 0]]
        assert data.counts.dtype == np.int64

    def test_rejects_bad_bitstrings(self):
        for bits, n in (("012", 3), ("0", 2)):
            line = '{"clifford_ids": %s, "counts": {"%s": 1}}' % ([0] * n, bits)
            fragment = f"line 2: bad bitstring '{bits}'"
            with pytest.raises(RecordFormatError, match=fragment):
                read_records(io.StringIO(_records(line, n=n)))


class TestRecords:
    def test_shot_record_validation(self):
        # The checks once made per unit, on ExperimentData's arrays ...
        bad = [
            ([[24]], [[1, 0]]),
            ([[-1]], [[1, 0]]),
            ([[0]], [[-1, 2]]),
            (np.array([[1.5]]), [[1, 0]]),
            ([[0]], np.array([[1.5, 0.0]])),
            (np.array([[True]]), [[1, 0]]),
            ([[0]], np.array([[True, False]])),
            ([[0]], [[1, 0, 0]]),
            ([0], [[1, 0]]),
            ([[0], [1]], [[1, 0]]),
        ]
        for ids, counts in bad:
            with pytest.raises(ValueError):
                ExperimentData(n=1, state_label="x", clifford_ids=ids, counts=counts)
        # An empty Clifford word (n = 0), or an n that is not an integer.
        for n in (0, -1, True, 1.0):
            with pytest.raises(ValueError, match="n must be"):
                ExperimentData(
                    n=n, state_label="x", clifford_ids=np.zeros((1, 0), np.int64),
                    counts=[[5]],
                )
        # ... and on record lines, each named by its line number.
        for line in (
            '{"clifford_ids": [24], "counts": {"0": 1}}',
            '{"clifford_ids": [0], "counts": {"2": 1}}',
            '{"clifford_ids": [0], "counts": {"0": 0}}',
            '{"clifford_ids": [0], "counts": {"0": 1.5}}',
            '{"clifford_ids": [true], "counts": {"0": 1}}',
            '{"clifford_ids": [0], "counts": {"0": true}}',
        ):
            with pytest.raises(RecordFormatError, match="line 2: "):
                read_records(io.StringIO(_records(line)))

    def test_n_shots(self):
        data = _data([0, 1], [3, 0, 0, 2], n=2)
        assert estimate(data, "plugin").shots == (5,)

    def test_experiment_data_length_check(self):
        with pytest.raises(ValueError):
            ExperimentData(
                n=2, state_label="x", clifford_ids=[[0]], counts=[[1, 0, 0, 0]]
            )

    def test_arrays_are_read_only_copies(self):
        ids, counts = np.array([[3]]), np.array([[2, 5]])
        data = ExperimentData(n=1, state_label="x", clifford_ids=ids, counts=counts)
        counts[0, 0] = 99
        assert data.counts.tolist() == [[2, 5]]
        assert data.clifford_ids.dtype == data.counts.dtype == np.int64
        with pytest.raises(ValueError):
            data.counts[0, 0] = 1

    def test_equality_compares_every_field(self):
        data = _data([0], [3, 1])
        assert data == _data([0], [3, 1])
        assert data != _data([1], [3, 1])
        assert data != _data([0], [3, 2])
        assert data != ExperimentData(
            n=1, state_label="y", clifford_ids=[[0]], counts=[[3, 1]]
        )
        assert data != ExperimentData(
            n=1, state_label="x", clifford_ids=[[0]], counts=[[3, 1]], seed=1
        )


class TestEstimate:
    def _data(self, n_units=6, n_shots=40):
        return simulate_experiment(
            gamma_state(2, 2), n_units, n_shots, seed=3, state_label="gamma-2-2"
        )

    def test_aggregation_matches_manual(self):
        data = self._data()
        report = estimate(data, method="ustat")
        w = np.array(report.per_word_stab_purity)
        p = np.array(report.per_word_purity)
        assert report.n_units == 6
        assert report.shots == (40,) * 6
        assert report.stab_purity == pytest.approx(w.mean(), abs=0)
        assert report.purity == pytest.approx(p.mean(), abs=0)
        assert report.stab_purity_err == pytest.approx(
            w.std(ddof=1) / math.sqrt(6), abs=0
        )
        assert report.stab_renyi2 == pytest.approx(
            math.log2(p.mean() / (w.mean() * 4))
        )
        want_m2_err = (
            math.hypot(
                report.stab_purity_err / report.stab_purity,
                report.purity_err / report.purity,
            )
            / math.log(2)
        )
        assert report.stab_renyi2_err == pytest.approx(want_m2_err)

    def test_single_unit_has_no_errors(self):
        report = estimate(self._data(n_units=1), method="ustat")
        assert report.stab_purity_err is None
        assert report.purity_err is None
        assert report.stab_renyi2_err is None

    def test_negative_stab_purity_flagged_not_clamped(self):
        # one word, counts chosen so e4 along Z is negative: W_C = -0.5
        data = _data([0], [3, 1])
        report = estimate(data, method="ustat")
        assert report.stab_purity == pytest.approx(-0.5)
        assert report.negative_stab_purity
        assert report.stab_renyi2 is None
        assert report.stab_renyi2_err is None

    def test_method_validation(self):
        with pytest.raises(ValueError):
            estimate(self._data(), method="jackknife")

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            estimate(_data(np.zeros((0, 1)), np.zeros((0, 2))))

    def test_plugin_bias_direction(self):
        # plugin fourth moments are inflated by shot noise; with few shots
        # the plugin W estimate must exceed the unbiased one on average
        data = self._data(n_units=40, n_shots=8)
        assert (
            estimate(data, method="plugin").stab_purity
            > estimate(data, method="ustat").stab_purity
        )


    @pytest.mark.parametrize(
        "method, short_counts, fragment",
        [
            ("ustat", {"0": 2, "1": 1}, "unit 2 has 3 shots"),
            ("plugin", {}, "unit 2 has 0 shots"),
        ],
    )
    def test_short_word_names_its_unit(self, method, short_counts, fragment):
        short = _row(short_counts, 1)
        data = _data([0, 0, 5, 5], [[3, 2], [3, 2], short, short])
        with pytest.raises(ValueError, match=fragment):
            estimate(data, method=method)


class TestBlockEstimation:
    """``estimate`` runs ``word_estimates`` over row blocks of at most
    ``_BLOCK_AMPLITUDES`` counts; the blocks change no bit and no message."""

    @staticmethod
    def _synthetic(n: int, n_units: int, n_shots: int, seed: int = 0) -> ExperimentData:
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(n_shots, rng.dirichlet(np.ones(2**n)), size=n_units)
        return ExperimentData(
            n=n, state_label="x", clifford_ids=rng.integers(0, 24, (n_units, n)),
            counts=counts,
        )

    @pytest.mark.parametrize("method", ["ustat", "plugin"])
    @pytest.mark.parametrize("n, n_units", [(1, 7), (8, 300), (10, 70), (12, 19)])
    def test_blocks_match_one_batch(self, n, n_units, method):
        block = max(1, estimator._BLOCK_AMPLITUDES >> n)
        assert n_units % block or n_units < block
        data = self._synthetic(n, n_units, 40)
        report = estimate(data, method)
        w_all, p_all = word_estimates(data.counts, n, method)
        assert report.per_word_stab_purity == tuple(w_all.tolist())
        assert report.per_word_purity == tuple(p_all.tolist())
        assert report.stab_purity == float(w_all.mean())
        assert report.purity_err == float(p_all.std(ddof=1) / math.sqrt(n_units))

    @pytest.mark.parametrize(
        "method, shots, fragment",
        [("ustat", 3, "unit 13 has 3 shots"), ("plugin", 0, "unit 13 has 0 shots")],
    )
    def test_short_unit_past_the_first_block_keeps_its_index(self, method, shots, fragment):
        data = self._synthetic(12, 20, 40)
        counts = data.counts.copy()
        counts[13] = 0
        counts[13, 5] = shots
        assert 13 >= estimator._BLOCK_AMPLITUDES >> 12
        short = ExperimentData(n=12, state_label="x", clifford_ids=data.clifford_ids,
                               counts=counts)
        with pytest.raises(ValueError, match=fragment):
            estimate(short, method)

    @pytest.mark.parametrize("method", ["ustat", "plugin"])
    def test_peak_memory_below_the_count_array(self, method):
        data = self._synthetic(10, 300, 200)
        tracemalloc.start()
        try:
            estimate(data, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.counts.nbytes


class TestWordOutcomeProbs:
    def test_noiseless_matches_direct_rotation(self):
        state = gamma_state(3, 2)
        ids = (5, 11, 23)
        probs = word_outcome_probs(state, ids)
        want = outcome_distribution(
            apply_local_cliffords(state, CliffordWord(ids=ids))
        )
        assert np.max(np.abs(probs - want)) < 1e-12

    def test_displacement_requires_inner_word(self):
        with pytest.raises(ValueError):
            word_outcome_probs(
                zero_state(1), (0,), noise=NoiseParams(epsilon=0.3)
            )

    def test_readout_flip_limit(self):
        # q = 0 flips every bit deterministically
        probs = word_outcome_probs(
            zero_state(1), (0,), noise=NoiseParams(q=0.0)
        )
        assert np.allclose(probs, [0.0, 1.0])

    def test_word_length_checked(self):
        with pytest.raises(ValueError):
            word_outcome_probs(zero_state(2), (0,))

    def test_block_shapes(self):
        state = gamma_state(2, 2)
        outer = np.array([[0, 5], [7, 23], [11, 2]])
        noise = NoiseParams(0.9, 0.95, 0.3)
        block = word_outcome_probs(state, outer, inner_ids=outer[::-1], noise=noise)
        assert block.shape == (3, 4)
        assert word_outcome_probs(state, outer[0]).shape == (4,)
        with pytest.raises(ValueError, match="inner Clifford word"):
            word_outcome_probs(state, outer, inner_ids=outer[:2], noise=noise)
        with pytest.raises(ValueError, match="word length"):
            word_outcome_probs(state, outer[None])
        with pytest.raises(ValueError, match="Clifford ids must be integers"):
            word_outcome_probs(state, np.array([[0, 1], [2, 24]]))

    @pytest.mark.parametrize(
        "outer, inner", [((1.7,), (0,)), ((24,), (0,)), ((-1,), (0,)), ((0,), (2.5,))]
    )
    def test_ids_must_be_cliffords(self, outer, inner):
        with pytest.raises(ValueError, match="Clifford ids must be integers"):
            word_outcome_probs(
                zero_state(1), outer, inner_ids=inner, noise=NoiseParams(epsilon=0.3)
            )


class TestSimulate:
    def test_deterministic_per_seed(self):
        a = simulate_experiment(plus_state(2), 4, 16, seed=9)
        b = simulate_experiment(plus_state(2), 4, 16, seed=9)
        assert a == b
        c = simulate_experiment(plus_state(2), 4, 16, seed=10)
        assert a != c

    def test_record_streams_are_prefix_stable(self):
        # growing n_units must not disturb earlier records
        small = simulate_experiment(plus_state(2), 3, 16, seed=9)
        large = simulate_experiment(plus_state(2), 5, 16, seed=9)
        assert np.array_equal(large.clifford_ids[:3], small.clifford_ids)
        assert np.array_equal(large.counts[:3], small.counts)

    def test_trivial_noise_bit_identical_to_noiseless(self):
        clean = simulate_experiment(gamma_state(2, 3), 5, 20, seed=1)
        trivial = simulate_experiment(
            gamma_state(2, 3), 5, 20, seed=1, noise=NoiseParams(1.0, 1.0, 0.0)
        )
        assert clean == trivial

    def test_seed_recorded(self):
        data = simulate_experiment(zero_state(1), 2, 8, seed=77)
        assert data.seed == 77

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            simulate_experiment(zero_state(1), 0, 8, seed=0)
        with pytest.raises(ValueError):
            simulate_experiment(zero_state(1), 2, 0, seed=0)

    def test_estimator_consistency_on_simulated_data(self):
        # many units on a known state: the estimate must bracket the truth
        from stabrenyi.oracle import purity_exact, stab_purity_exact

        state = gamma_state(2, 2)
        data = simulate_experiment(state, 300, 64, seed=5)
        report = estimate(data, method="ustat")
        assert abs(report.stab_purity - stab_purity_exact(state)) < 6 * report.stab_purity_err
        assert abs(report.purity - purity_exact(state)) < 6 * report.purity_err


class TestVarianceBound:
    def test_stab_purity_formula_value(self):
        n, m, w = 3, 60.0, 0.05
        d = 8.0
        want = (
            8.0 / math.sqrt(d)
            + 192.0 / (d ** (1 / 3) * m**4)
            + 6792.0 / (math.sqrt(d) * m**4)
            + 5056.0 / m**3
            + 8179.0 / (math.sqrt(d) * m**2)
            + 128.0 / m
            - w**2
        )
        assert variance_bound(n, 60, w, "stab_purity") == pytest.approx(want, abs=0)

    def test_purity_formula_value(self):
        n, m, p = 4, 100.0, 0.9
        want = 2.0**5 + (4.0 / m**2) * 3.0**4 - p**2
        assert variance_bound(n, 100, p, "purity") == pytest.approx(want, abs=0)

    def test_large_shot_limit(self):
        # all shot-noise terms vanish: the bound tends to 8/sqrt(d) - W^2
        w = 0.02
        got = variance_bound(10, 10**9, w, "stab_purity")
        assert abs(got - (8.0 / math.sqrt(1024.0) - w**2)) < 1e-5

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            variance_bound(2, 10, 0.1, "skewness")


class TestBernstein:
    def test_anchor_value(self):
        assert bernstein_tail(100, 0.1, 0.0) == pytest.approx(2.0**-15)

    def test_requires_positive_epsilon(self):
        with pytest.raises(ValueError):
            bernstein_tail(10, 0.0, 1.0)

    def test_units_for_target_scale_inverse_square(self):
        # invert the tail for N_U at fixed confidence; halving epsilon must
        # cost ~4x the units once the variance term dominates
        var, delta = 1.0, 1e-3

        def units(eps: float) -> float:
            return (var + 2.0 * eps / 3.0) * math.log2(1.0 / delta) / eps**2

        eps = 1e-3
        ratio = units(eps / 2) / units(eps)
        assert abs(ratio - 4.0) < 0.05
        # and the inverted count indeed achieves the target tail
        assert bernstein_tail(math.ceil(units(eps)), eps, var) <= delta

"""Tests for resource-grid calibration and the exponential scaling fit."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from stabrenyi import calibration, estimator
from stabrenyi.calibration import (
    CalibrationError,
    FitResult,
    GridCell,
    default_shot_grid,
    default_unit_grid,
    fit_resource_scaling,
    grid_search,
    linear_grid,
    select_optimal,
)
from stabrenyi.estimator import estimate, simulate_experiment
from stabrenyi.oracle import stab_purity_exact
from stabrenyi.states import gamma_state, ptheta_state

# Resource requirements (N_U, N_M) per state, frozen from the calibrated
# protocol runs; N_TOT = N_U * N_M feeds the scaling fits below.
RESOURCE_TABLE = {
    3: [(70, 100), (50, 100), (40, 100), (30, 60), (20, 60)],
    4: [
        (100, 200),
        (60, 200),
        (50, 170),
        (50, 170),
        (30, 150),
        (30, 140),
        (20, 130),
    ],
    5: [
        (300, 410),
        (240, 390),
        (190, 390),
        (160, 370),
        (120, 370),
        (80, 340),
        (60, 330),
        (40, 320),
        (30, 320),
    ],
}

# Frozen fit coefficients computed from RESOURCE_TABLE; regression anchors.
FROZEN_FITS = {
    3: (10.30133, 0.65626, 0.96126),
    4: (11.4112, 0.45632, 0.9643),
    5: (13.3126, 0.47098, 0.9881),
}


class TestGrids:
    def test_default_unit_grid(self):
        grid = default_unit_grid()
        assert grid == (8, 14, 24, 40, 69, 119, 203, 348, 597, 1024)

    def test_default_shot_grid(self):
        grid = default_shot_grid()
        assert grid == (32, 47, 69, 102, 149, 219, 323, 474, 697, 1024)

    def test_linear_grid(self):
        assert linear_grid(10, 100, count=10) == (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
        assert linear_grid(5, 5) == (5,)

    def test_linear_grid_validation(self):
        with pytest.raises(ValueError):
            linear_grid(0, 10)
        with pytest.raises(ValueError):
            linear_grid(10, 5)


class TestGridCell:
    def test_cost(self):
        cell = GridCell(n_units=20, n_shots=60, delta=0.1, purity_dev=0.05, trials=7)
        assert cell.cost == 1200


class TestGridSearch:
    def test_deterministic(self):
        kwargs = dict(
            unit_grid=(8, 16), shot_grid=(32,), trials=3, seed=5
        )
        a = grid_search(ptheta_state(math.pi / 4), **kwargs)
        b = grid_search(ptheta_state(math.pi / 4), **kwargs)
        assert a == b

    def test_spread_shrinks_with_resources(self):
        cells = grid_search(
            ptheta_state(math.pi / 4),
            unit_grid=(8, 128),
            shot_grid=(32,),
            trials=8,
            seed=2,
        )
        assert cells[1].delta < cells[0].delta

    def test_oracle_reference_option(self):
        cells = grid_search(
            ptheta_state(math.pi / 4),
            unit_grid=(16,),
            shot_grid=(32,),
            trials=4,
            seed=3,
            reference="oracle",
        )
        assert len(cells) == 1
        assert cells[0].trials == 4

    def test_oracle_reference_is_computed_once(self, monkeypatch):
        calls = []

        def counted(state):
            calls.append(state)
            return stab_purity_exact(state)

        monkeypatch.setattr(calibration, "stab_purity_exact", counted)
        cells = grid_search(
            gamma_state(3, 4),
            unit_grid=(8, 16),
            shot_grid=(32, 64),
            trials=3,
            seed=3,
            reference="oracle",
        )
        assert len(calls) == 1
        # Taken with the oracle called once per cell.
        assert [(c.n_units, c.n_shots, c.delta, c.purity_dev) for c in cells] == [
            (8, 32, 0.1495264098156197, 0.07560483870967738),
            (8, 64, 0.03983153282465751, 0.012338789682539542),
            (16, 32, 0.13655071291333637, 0.155367943548387),
            (16, 64, 0.16161511236868162, 0.12134176587301582),
        ]

    def test_validation(self):
        state = ptheta_state(0.3)
        with pytest.raises(ValueError):
            grid_search(state, trials=1, seed=0)
        with pytest.raises(ValueError):
            grid_search(state, trials=4, seed=0, reference="median")
        with pytest.raises(ValueError):
            grid_search(state, trials=4, seed=0, method="jackknife", unit_grid=(8,), shot_grid=(32,))


def per_trial_grid_search(state, units, shots, *, trials, seed, method, reference):
    """Reference: one ``simulate_experiment`` + ``estimate`` per trial, each
    trial seeded by ``SeedSequence(seed, spawn_key=(cell, trial))``."""
    exact = stab_purity_exact(state) if reference == "oracle" else None
    cells = []
    for cell, (n_units, n_shots) in enumerate(itertools.product(units, shots)):
        w_vals, p_vals = np.empty(trials), np.empty(trials)
        for trial in range(trials):
            stream = np.random.SeedSequence(entropy=seed, spawn_key=(cell, trial))
            trial_seed = int(stream.generate_state(1, np.uint64)[0])
            data = simulate_experiment(state, n_units, n_shots, seed=trial_seed)
            report = estimate(data, method)
            w_vals[trial], p_vals[trial] = report.stab_purity, report.purity
        ref = float(w_vals.mean()) if exact is None else exact
        delta = float(np.mean(np.abs(w_vals - ref))) / ref
        purity_dev = abs(float(p_vals.mean()) - 1.0)
        cells.append(GridCell(n_units, n_shots, delta, purity_dev, trials))
    return cells


class TestGridSearchEqualsPerTrialLoop:
    """``grid_search`` runs a cell's trials as one block of units; its cells
    must equal, bit for bit, those of one experiment per trial."""

    @pytest.mark.parametrize("reference", ["ensemble", "oracle"])
    @pytest.mark.parametrize("method", ["ustat", "plugin"])
    def test_small_cells(self, method, reference):
        # 200 units x 3 trials = 600 rows: the second block starts inside trial 2
        assert 200 * 2 < estimator._BLOCK_UNITS < 200 * 3
        args = (gamma_state(3, 4), (8, 200), (16, 41))
        kwargs = dict(trials=3, seed=11, method=method, reference=reference)
        assert grid_search(*args, **kwargs) == per_trial_grid_search(*args, **kwargs)

    @pytest.mark.parametrize("method", ["ustat", "plugin"])
    def test_block_boundary_inside_a_trial_at_eight_qubits(self, method):
        # 128 rows a block at n = 8: trial 2 holds rows 96..143
        assert min(estimator._BLOCK_UNITS, estimator._BLOCK_AMPLITUDES >> 8) == 128
        args = (gamma_state(8, 6), (48,), (16,))
        kwargs = dict(trials=5, seed=2**70 + 9, method=method, reference="oracle")
        assert grid_search(*args, **kwargs) == per_trial_grid_search(*args, **kwargs)

    def test_huge_master_seed(self):
        args = (ptheta_state(0.4), (5, 9), (4, 7))
        kwargs = dict(trials=3, seed=2**130 + 5, method="ustat", reference="ensemble")
        assert grid_search(*args, **kwargs) == per_trial_grid_search(*args, **kwargs)


class TestGridSearchChecksFirst:
    """Every argument is checked before any cell is simulated."""

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(unit_grid=(8, 0)), "1 unit"),
            (dict(shot_grid=(32, 3)), "4 shots"),
            (dict(shot_grid=(32, 0), method="plugin"), "1 shots"),
            (dict(method="jackknife"), "unknown method"),
            (dict(seed=-1), "seed must be non-negative"),
            (dict(seed=-(2**70)), "seed must be non-negative"),
            (dict(trials=1), "2 trials"),
            (dict(reference="median"), "unknown reference"),
        ],
    )
    def test_bad_argument_fails_before_simulating(self, monkeypatch, kwargs, match):
        simulated = []
        monkeypatch.setattr(
            calibration, "_simulate_blocks", lambda *a, **k: simulated.append(a)
        )
        args = dict(unit_grid=(8, 16), shot_grid=(32, 64), trials=3, seed=4)
        with pytest.raises(ValueError, match=match):
            grid_search(ptheta_state(0.3), **{**args, **kwargs})
        assert simulated == []

    def test_non_integer_seed_is_a_type_error(self):
        with pytest.raises(TypeError, match="seed must be an integer"):
            grid_search(ptheta_state(0.3), (8,), (32,), trials=2, seed=1.5)


class TestSelectOptimal:
    def _cell(self, n_units, n_shots, delta=0.05, purity_dev=0.05):
        return GridCell(
            n_units=n_units,
            n_shots=n_shots,
            delta=delta,
            purity_dev=purity_dev,
            trials=10,
        )

    def test_picks_cheapest_qualifying(self):
        cells = [
            self._cell(100, 100),
            self._cell(10, 50),
            self._cell(20, 40, delta=0.2),  # disqualified
        ]
        assert select_optimal(cells) == cells[1]

    def test_tie_prefers_fewer_units_then_shots(self):
        cells = [self._cell(50, 20), self._cell(20, 50), self._cell(25, 40)]
        assert select_optimal(cells) == cells[1]
        cells = [self._cell(20, 60), self._cell(20, 50, purity_dev=0.2), self._cell(20, 50)]
        assert select_optimal(cells) == cells[2]

    def test_thresholds_are_strict(self):
        cells = [self._cell(10, 10, delta=0.12)]
        with pytest.raises(CalibrationError):
            select_optimal(cells)

    def test_no_qualifying_cell(self):
        with pytest.raises(CalibrationError):
            select_optimal([self._cell(10, 10, delta=0.9)])

    def test_custom_thresholds(self):
        cells = [self._cell(10, 10, delta=0.3)]
        got = select_optimal(cells, max_delta=0.5)
        assert got == cells[0]


class TestResourceScalingFit:
    def test_exact_exponential_is_fit_exactly(self):
        # N_TOT = 2^(10 + 0.5 x) -> a = 10, b = 0.5, R^2 = 1
        n = 3
        t_vals = [1, 2, 3, 4, 5]
        x = [(2 * n - 1) - t for t in t_vals]
        totals = [2.0 ** (10 + 0.5 * xi) for xi in x]
        fit = fit_resource_scaling(t_vals, totals, n)
        assert fit.a == pytest.approx(10.0, abs=1e-9)
        assert fit.b == pytest.approx(0.5, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_frozen_fit_coefficients(self, n):
        rows = RESOURCE_TABLE[n]
        t_vals = list(range(1, len(rows) + 1))
        totals = [nu * nm for nu, nm in rows]
        fit = fit_resource_scaling(t_vals, totals, n)
        a, b, r2 = FROZEN_FITS[n]
        assert fit.a == pytest.approx(a, abs=5e-4)
        assert fit.b == pytest.approx(b, abs=5e-5)
        assert fit.r_squared == pytest.approx(r2, abs=5e-4)

    def test_requirements_grow_toward_low_t(self):
        for n, rows in RESOURCE_TABLE.items():
            totals = [nu * nm for nu, nm in rows]
            assert all(a >= b for a, b in zip(totals, totals[1:])), (
                f"N_TOT must not increase with t at n={n}"
            )

    def test_needs_three_points(self):
        with pytest.raises(CalibrationError):
            fit_resource_scaling([1, 2], [100.0, 50.0], 3)

    def test_degenerate_abscissae(self):
        with pytest.raises(CalibrationError):
            fit_resource_scaling([2, 2, 2], [10.0, 20.0, 30.0], 3)

    def test_nonpositive_totals(self):
        with pytest.raises(ValueError):
            fit_resource_scaling([1, 2, 3], [100.0, 0.0, 10.0], 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_resource_scaling([1, 2, 3], [100.0, 50.0], 3)

    def test_result_type(self):
        fit = fit_resource_scaling([1, 2, 3], [8.0, 4.0, 2.0], 2)
        assert isinstance(fit, FitResult)


class TestEndToEndCalibration:
    def test_small_grid_selects_a_cell(self):
        cells = grid_search(
            gamma_state(2, 2),
            unit_grid=(32, 64),
            shot_grid=(64,),
            trials=6,
            seed=11,
        )
        best = select_optimal(cells, max_delta=0.5, max_purity_dev=0.5)
        assert best.n_units in (32, 64)
        assert best.n_shots == 64

"""Resource calibration: how many Clifford words and shots are enough.

A grid search simulates the full estimation pipeline at each
(n_units, n_shots) cell over repeated trials and scores the relative spread
of the stabilizer-purity estimate and the bias of the purity estimate.  The
cheapest acceptable cell gives the resource requirement; requirements
collected across states of increasing complexity fit an exponential scaling
law N_TOT = 2^(a + b x), with x the complexity deficit (2n - 1) - t.  The law
is fitted in log space, as a straight line log2(N_TOT) = a + b x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimator import estimate, simulate_experiment
from .oracle import stab_purity_exact
from .states import StateVector

__all__ = [
    "CalibrationError",
    "GridCell",
    "FitResult",
    "default_unit_grid",
    "default_shot_grid",
    "linear_grid",
    "grid_search",
    "select_optimal",
    "fit_resource_scaling",
]


class CalibrationError(ValueError):
    """No grid cell met the calibration thresholds, or a fit is ill-posed."""


@dataclass(frozen=True)
class GridCell:
    """Scores for one (n_units, n_shots) resource cell."""

    n_units: int
    n_shots: int
    delta: float
    purity_dev: float
    trials: int

    @property
    def cost(self) -> int:
        return self.n_units * self.n_shots


@dataclass(frozen=True)
class FitResult:
    """OLS fit of log2(N_TOT) = a + b x over complexity deficits x.

    ``r_squared`` is the coefficient of determination of log2(N_TOT) on x,
    which equals the squared correlation of x and log2(N_TOT).
    """

    a: float
    b: float
    r_squared: float


def _log_spaced(lo: int, hi: int, count: int) -> tuple[int, ...]:
    vals = np.unique(np.rint(np.geomspace(lo, hi, count)).astype(int))
    return tuple(int(v) for v in vals)


def default_unit_grid() -> tuple[int, ...]:
    """Ten log-spaced Clifford-word counts from 8 to 1024."""
    return _log_spaced(8, 1024, 10)


def default_shot_grid() -> tuple[int, ...]:
    """Ten log-spaced per-word shot counts from 32 to 1024."""
    return _log_spaced(32, 1024, 10)


def linear_grid(lo: int, hi: int, count: int = 10) -> tuple[int, ...]:
    """Linearly spaced refinement grid between two resource optima,
    e.g. between the cheapest and costliest states' selected cells."""
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    vals = np.unique(np.rint(np.linspace(lo, hi, count)).astype(int))
    return tuple(int(v) for v in vals)


def _cell_seed(master_seed: int, cell_index: int, trial: int) -> int:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(cell_index, trial))
    return int(seq.generate_state(1, np.uint64)[0])


def grid_search(
    state: StateVector,
    unit_grid: Sequence[int] | None = None,
    shot_grid: Sequence[int] | None = None,
    *,
    trials: int = 100,
    seed: int,
    method: str = "ustat",
    reference: str = "ensemble",
) -> list[GridCell]:
    """Score every (n_units, n_shots) cell over independent trials.

    delta is the mean absolute deviation of the stabilizer-purity estimate
    relative to the reference value -- the ensemble mean by default, or the
    exact oracle value with reference='oracle'.  purity_dev is the absolute
    deviation of the mean purity estimate from 1 (the state is pure).
    Every (cell, trial) pair draws from its own deterministic substream of
    the master seed.
    """
    if reference not in ("ensemble", "oracle"):
        raise ValueError(f"unknown reference {reference!r}")
    if trials < 2:
        raise ValueError("need at least 2 trials to measure spread")
    units = tuple(unit_grid) if unit_grid is not None else default_unit_grid()
    shots = tuple(shot_grid) if shot_grid is not None else default_shot_grid()
    exact = stab_purity_exact(state) if reference == "oracle" else None
    cells = []
    cell_index = 0
    for n_units in units:
        for n_shots in shots:
            w_vals = np.empty(trials)
            p_vals = np.empty(trials)
            for trial in range(trials):
                data = simulate_experiment(
                    state,
                    n_units,
                    n_shots,
                    seed=_cell_seed(seed, cell_index, trial),
                )
                report = estimate(data, method)
                w_vals[trial] = report.stab_purity
                p_vals[trial] = report.purity
            ref = float(w_vals.mean()) if exact is None else exact
            delta = float(np.mean(np.abs(w_vals - ref))) / ref
            purity_dev = abs(float(p_vals.mean()) - 1.0)
            cells.append(
                GridCell(
                    n_units=n_units,
                    n_shots=n_shots,
                    delta=delta,
                    purity_dev=purity_dev,
                    trials=trials,
                )
            )
            cell_index += 1
    return cells


def select_optimal(
    cells: Sequence[GridCell],
    *,
    max_delta: float = 0.12,
    max_purity_dev: float = 0.12,
) -> GridCell:
    """Cheapest cell meeting both thresholds; ties prefer fewer words, then
    fewer shots.  Raises CalibrationError when no cell qualifies."""
    ok = [c for c in cells if c.delta < max_delta and c.purity_dev < max_purity_dev]
    if not ok:
        raise CalibrationError(
            f"no cell met delta < {max_delta} and purity deviation < "
            f"{max_purity_dev} over {len(cells)} cells"
        )
    return min(ok, key=lambda c: (c.cost, c.n_units, c.n_shots))


def fit_resource_scaling(
    t_values: Sequence[int], n_totals: Sequence[float], n: int
) -> FitResult:
    """OLS fit of log2(N_TOT) against the complexity deficit x = (2n-1) - t.

    The returned ``r_squared`` is the coefficient of determination of
    log2(N_TOT) on x, 1 - SS_res / SS_tot with SS_tot taken about the mean;
    it equals the squared correlation of x and log2(N_TOT).  Needs at least
    three points with non-degenerate abscissae.
    """
    t_arr = np.asarray(t_values, dtype=float)
    tot = np.asarray(n_totals, dtype=float)
    if t_arr.ndim != 1 or t_arr.shape != tot.shape:
        raise ValueError("t_values and n_totals must be 1-d and equal length")
    if t_arr.size < 3:
        raise CalibrationError("scaling fit needs at least 3 points")
    if np.any(tot <= 0):
        raise ValueError("resource totals must be positive")
    x = (2 * n - 1) - t_arr
    if np.ptp(x) == 0:
        raise CalibrationError("all points share one abscissa; slope is undefined")
    y = np.log2(tot)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return FitResult(a=float(intercept), b=float(slope), r_squared=r_squared)

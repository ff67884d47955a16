"""Randomized-measurement estimation of stabilizer purity and purity.

An experiment applies a random word of single-qubit Cliffords to the state,
measures in the computational basis for a fixed number of shots, and repeats
over many words.  Per word, the fourth and second moments of all subset-Z
expectation values combine into unbiased (U-statistic) or plugin estimates
of the stabilizer purity W and the purity P; averaging over words and taking
log2(P / (W d)) gives the stabilizer 2-Renyi entropy.

An experiment is held as a (U, n) Clifford-id array and a (U, 2**n) count
array, one row per word; estimation runs one fast Walsh-Hadamard transform
over all the counts at once.  The U-statistic path turns the transformed
counts (subset sign sums) into the elementary symmetric polynomials e2/e4
of the +-1 shot signs through Newton's identities, which is algebraically
identical to (and vastly cheaper than) summing over all distinct shot
quadruples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cliffords import CLIFFORD_1Q, N_CLIFFORD
from .noise import NoiseParams, phase_gate, prep_channel, readout_channel
from .oracle import subset_moments, walsh_z_expectations, word_statistics
from .states import StateVector, _apply_local, sample_counts

__all__ = [
    "ExperimentData",
    "EstimateReport",
    "word_estimates",
    "estimate",
    "word_outcome_probs",
    "simulate_experiment",
    "variance_bound",
    "bernstein_tail",
]

#: Cap on the amplitudes (units x 2**n) of one simulated block: memory stays flat in n.
_BLOCK_AMPLITUDES = 2**15


@dataclass(frozen=True, eq=False)
class ExperimentData:
    """A full randomized-measurement data set on an n-qubit state.

    ``clifford_ids`` is the (U, n) array of recorded Clifford words, one row
    per measurement unit; ``counts`` is the (U, 2**n) array of their shot
    counts, column b counting outcome b (msb-first, as in ``states``).  Both
    are int64, checked once and read-only; equality compares every field.
    seed is the master seed the data was simulated from, or None for
    ingested hardware records; it rides along so downstream reports can
    state the provenance of every published number.
    """

    n: int
    state_label: str
    clifford_ids: np.ndarray
    counts: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        n = self.n
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n must be an integer of at least 1, not {n!r}")
        limits = (("clifford_ids", n, N_CLIFFORD), ("counts", 2**n, np.inf))
        for name, width, upper in limits:
            arr = np.asarray(getattr(self, name))
            if arr.dtype.kind not in "iu":
                raise ValueError(f"{name} must be an integer array, not {arr.dtype}")
            if arr.ndim != 2 or arr.shape[1] != width:
                raise ValueError(f"{name} has shape {arr.shape}, not (U, {width})")
            arr = arr.astype(np.int64)  # a copy; uint64 beyond int64 turns negative
            if np.any((arr < 0) | (arr >= upper)):
                raise ValueError(f"{name} must lie in [0, {upper})")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if len(self.clifford_ids) != len(self.counts):
            raise ValueError("clifford_ids and counts disagree on the number of units")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExperimentData):
            return NotImplemented
        fields = ("n", "state_label", "seed", "clifford_ids", "counts")
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in fields)


@dataclass(frozen=True)
class EstimateReport:
    """Point estimates with standard errors over measurement units.

    stab_renyi2 is None (and negative_stab_purity True) when the unbiased
    stabilizer-purity estimate is not positive; the estimate is reported
    as-is, never clamped.  Standard errors are None with fewer than two
    units.
    """

    method: str
    n: int
    n_units: int
    shots: tuple[int, ...]
    stab_purity: float
    stab_purity_err: float | None
    purity: float
    purity_err: float | None
    stab_renyi2: float | None
    stab_renyi2_err: float | None
    negative_stab_purity: bool
    per_word_stab_purity: tuple[float, ...]
    per_word_purity: tuple[float, ...]


def word_estimates(
    counts: np.ndarray, n: int, method: str = "ustat"
) -> tuple[np.ndarray, np.ndarray]:
    """Per-word (W_C, P_C) for every row (word) of a (U, 2**n) count array.

    'plugin' plugs the empirical frequencies into the subset-moment formulas
    (biased).  'ustat' is unbiased: per subset mask A the +-1 shot signs have
    sum S (a Walsh-Hadamard component of the counts) and power sums
    p_k = S (k odd) / N (k even); Newton's identities give the elementary
    symmetric polynomials e2 = (S^2 - N)/2 and
    e4 = (S^4 - 6 S^2 N + 8 S^2 + 3 N^2 - 6 N)/24, and e4/C(N,4), e2/C(N,2)
    are the unbiased moment estimators over distinct shot quadruples/pairs.
    """
    if method not in ("ustat", "plugin"):
        raise ValueError(f"unknown method {method!r}; use 'ustat' or 'plugin'")
    counts = np.asarray(counts)
    nn = counts.sum(axis=-1, keepdims=True)
    need = 4 if method == "ustat" else 1
    short = np.flatnonzero(nn < need)
    if short.size:
        raise ValueError(
            f"unit {short[0]} has {nn[short[0], 0]} shots; {method} estimates "
            f"need at least {need} shots per word"
        )
    if method == "plugin":
        return word_statistics(counts / nn, n)
    s2 = walsh_z_expectations(counts, n) ** 2
    pairs = nn * (nn - 1.0)
    e4 = s2 * s2 - 6.0 * s2 * nn + 8.0 * s2 + 3.0 * nn * nn - 6.0 * nn
    return subset_moments((s2 - nn) / pairs, e4 / (pairs * (nn - 2.0) * (nn - 3.0)), n)


def estimate(data: ExperimentData, method: str = "ustat") -> EstimateReport:
    """Combine per-word estimates, taken as one (U, 2**n) batch by
    ``word_estimates``, into point estimates with standard errors."""
    if not len(data.counts):
        raise ValueError("no records to estimate from")
    w_arr, p_arr = word_estimates(data.counts, data.n, method)
    n_units = len(w_arr)
    w_est = float(w_arr.mean())
    p_est = float(p_arr.mean())
    w_err = p_err = None
    if n_units >= 2:
        w_err = float(w_arr.std(ddof=1) / math.sqrt(n_units))
        p_err = float(p_arr.std(ddof=1) / math.sqrt(n_units))
    negative = w_est <= 0.0
    m2 = m2_err = None
    if not negative and p_est > 0.0:
        m2 = math.log2(p_est / (w_est * 2**data.n))
        if w_err is not None:
            m2_err = math.hypot(w_err / w_est, p_err / p_est) / math.log(2)
    return EstimateReport(
        method=method,
        n=data.n,
        n_units=n_units,
        shots=tuple(data.counts.sum(axis=1).tolist()),
        stab_purity=w_est,
        stab_purity_err=w_err,
        purity=p_est,
        purity_err=p_err,
        stab_renyi2=m2,
        stab_renyi2_err=m2_err,
        negative_stab_purity=negative,
        per_word_stab_purity=tuple(w_arr.tolist()),
        per_word_purity=tuple(p_arr.tolist()),
    )


def _word_probs(
    state: StateVector, outer: np.ndarray, inner: np.ndarray | None, noise: NoiseParams
) -> np.ndarray:
    """``word_outcome_probs`` of U units at once, bit for bit: (U, n) outer
    (and, when eps != 0, inner) Clifford ids give (U, 2**n) distributions."""
    mats = CLIFFORD_1Q[outer]
    if noise.epsilon != 0.0:
        mats = (mats @ phase_gate(noise.epsilon)) @ CLIFFORD_1Q[inner]
    probs = np.zeros((len(outer), 2**state.n))
    for weight, term in prep_channel(state, noise.p).terms:
        probs += weight * np.abs(_apply_local(term.amplitudes, mats)) ** 2
    if noise.q != 1.0:
        probs = readout_channel(probs, noise.q)
    return probs


def word_outcome_probs(
    state: StateVector,
    outer_ids: tuple[int, ...],
    *,
    inner_ids: tuple[int, ...] | None = None,
    noise: NoiseParams = NoiseParams(),
) -> np.ndarray:
    """Exact outcome distribution for one measurement unit under the noise
    model: dephasing preparation, per-qubit unitary outer . phase(eps) . inner
    (plain outer Clifford when eps = 0), then readout bit flips."""
    if len(outer_ids) != state.n:
        raise ValueError("word length must equal qubit count")
    if noise.epsilon != 0.0 and (inner_ids is None or len(inner_ids) != state.n):
        raise ValueError("a nonzero displacement needs an inner Clifford word")
    ids = np.array([outer_ids, inner_ids if noise.epsilon else outer_ids])
    if ids.dtype.kind not in "iu" or np.any((ids < 0) | (ids >= N_CLIFFORD)):
        raise ValueError(f"Clifford ids must be integers in [0, {N_CLIFFORD})")
    return _word_probs(state, ids[:1], ids[1:] if noise.epsilon else None, noise)[0]


def simulate_experiment(
    state: StateVector,
    n_units: int,
    n_shots: int,
    *,
    seed: int,
    noise: NoiseParams = NoiseParams(),
    state_label: str = "custom",
) -> ExperimentData:
    """Sample a full randomized-measurement data set.

    Each measurement unit k draws from its own deterministic substream
    (SeedSequence(seed, spawn_key=(k,))).  Units run in blocks of at most
    ``_BLOCK_AMPLITUDES / 2**n``, each block in three passes: (1) every unit
    draws its recorded Clifford word, then -- only when the displacement is
    nonzero -- its hidden inner word; (2) one batched call gives every
    unit's outcome distribution, row for row equal to ``word_outcome_probs``;
    (3) every unit, in order, draws its multinomial shot counts.  Each
    substream thus sees the draws of a unit simulated alone, and the
    noiseless configuration is bit-identical to NoiseParams(1, 1, 0).
    """
    if n_units < 1 or n_shots < 1:
        raise ValueError("need at least one unit and one shot")
    n = state.n
    block = max(1, _BLOCK_AMPLITUDES >> n)
    ids = np.empty((n_units, n), dtype=np.int64)
    counts = np.empty((n_units, 2**n), dtype=np.int64)
    for start in range(0, n_units, block):
        stop = min(start + block, n_units)
        rngs = [
            np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
            for k in range(start, stop)
        ]
        ids[start:stop] = [rng.integers(0, N_CLIFFORD, size=n) for rng in rngs]
        inner = None
        if noise.epsilon != 0.0:
            inner = np.array([rng.integers(0, N_CLIFFORD, size=n) for rng in rngs])
        probs = _word_probs(state, ids[start:stop], inner, noise)
        for k, (rng, row) in enumerate(zip(rngs, probs), start):
            counts[k] = sample_counts(row, n_shots, rng)
    return ExperimentData(
        n=n, state_label=state_label, clifford_ids=ids, counts=counts, seed=seed
    )


def variance_bound(
    n: int, n_shots: int, value: float, quantity: str = "stab_purity"
) -> float:
    """Upper bound on the per-word variance of the unbiased estimate.

    quantity='stab_purity' bounds Var[W_C] given the true W = value;
    quantity='purity' bounds Var[P_C] given the true P = value.
    """
    d = float(2**n)
    m = float(n_shots)
    if quantity == "stab_purity":
        return (
            8.0 / math.sqrt(d)
            + 192.0 / (d ** (1.0 / 3.0) * m**4)
            + 6792.0 / (math.sqrt(d) * m**4)
            + 5056.0 / m**3
            + 8179.0 / (math.sqrt(d) * m**2)
            + 128.0 / m
            - value**2
        )
    if quantity == "purity":
        return 2.0 ** (n + 1) + (4.0 / m**2) * 3.0**n - value**2
    raise ValueError(f"unknown quantity {quantity!r}")


def bernstein_tail(n_units: int, epsilon: float, variance: float) -> float:
    """Bernstein tail bound 2^(-N_U eps^2 / (var + 2 eps / 3)) on the
    probability that the word average misses the mean by more than eps."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return 2.0 ** (-(n_units * epsilon**2) / (variance + 2.0 * epsilon / 3.0))

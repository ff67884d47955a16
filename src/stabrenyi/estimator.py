"""Randomized-measurement estimation of stabilizer purity and purity.

An experiment applies a random word of single-qubit Cliffords to the state,
measures in the computational basis for a fixed number of shots, and repeats
over many words.  Per word, the fourth and second moments of all subset-Z
expectation values combine into unbiased (U-statistic) or plugin estimates
of the stabilizer purity W and the purity P; averaging over words and taking
log2(P / (W d)) gives the stabilizer 2-Renyi entropy.

An experiment is held as a (U, n) Clifford-id array and a (U, 2**n) count
array, one row per word; estimation runs one fast Walsh-Hadamard transform
per block of rows of the counts.  The U-statistic path turns the transformed
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

#: Cap on the amplitudes (units x 2**n) of one simulated or estimated block.
_BLOCK_AMPLITUDES = 2**15
#: Cap on the units of one simulated block: a unit's generator objects take ~0.8 kB.
_BLOCK_UNITS = 512


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


def _shots_per_word(counts: np.ndarray, method: str) -> np.ndarray:
    """A (U, 2**n) count array's (U, 1) shots; a row short for ``method`` fails."""
    if method not in ("ustat", "plugin"):
        raise ValueError(f"unknown method {method!r}; use 'ustat' or 'plugin'")
    nn = counts.sum(axis=-1, keepdims=True)
    need = 4 if method == "ustat" else 1
    short = np.flatnonzero(nn < need)
    if short.size:
        raise ValueError(
            f"unit {short[0]} has {nn[short[0], 0]} shots; {method} estimates "
            f"need at least {need} shots per word"
        )
    return nn


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
    counts = np.asarray(counts)
    nn = _shots_per_word(counts, method)
    if method == "plugin":
        return word_statistics(counts / nn, n)
    s2 = walsh_z_expectations(counts, n) ** 2
    pairs = nn * (nn - 1.0)
    e4 = s2 * s2 - 6.0 * s2 * nn + 8.0 * s2 + 3.0 * nn * nn - 6.0 * nn
    return subset_moments((s2 - nn) / pairs, e4 / (pairs * (nn - 2.0) * (nn - 3.0)), n)


def estimate(data: ExperimentData, method: str = "ustat") -> EstimateReport:
    """Combine per-word estimates, from ``word_estimates`` on row blocks of at
    most _BLOCK_AMPLITUDES counts, into point estimates with standard errors."""
    if not len(data.counts):
        raise ValueError("no records to estimate from")
    shots = _shots_per_word(data.counts, method)
    block = max(1, _BLOCK_AMPLITUDES >> data.n)  # rows reduce alone: no bit moves
    w_arr, p_arr = np.hstack([word_estimates(data.counts[k : k + block], data.n, method)
                              for k in range(0, len(shots), block)])
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
        shots=tuple(shots.ravel().tolist()),
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


def word_outcome_probs(
    state: StateVector,
    outer_ids: np.ndarray | tuple[int, ...],
    *,
    inner_ids: np.ndarray | tuple[int, ...] | None = None,
    noise: NoiseParams = NoiseParams(),
) -> np.ndarray:
    """Exact outcome distributions under the noise model: dephasing
    preparation, per-qubit unitary outer . phase(eps) . inner (plain outer
    Clifford when eps = 0), then readout bit flips.

    One word of n outer ids (and n inner ids when eps != 0) gives its (2**n,)
    distribution; a (U, n) block of words gives a (U, 2**n) array whose rows
    carry exactly the bits of one-word calls.  The ids are checked once per
    call.
    """
    outer = np.asarray(outer_ids)
    if outer.ndim not in (1, 2) or outer.shape[-1] != state.n:
        raise ValueError("word length must equal qubit count")
    inner = None
    if noise.epsilon != 0.0:
        if inner_ids is None or np.shape(inner_ids) != outer.shape:
            raise ValueError("a nonzero displacement needs an inner Clifford word")
        inner = np.asarray(inner_ids)
    for ids in (outer, inner):
        if ids is not None and (
            ids.dtype.kind not in "iu" or np.any((ids < 0) | (ids >= N_CLIFFORD))
        ):
            raise ValueError(f"Clifford ids must be integers in [0, {N_CLIFFORD})")
    mats = CLIFFORD_1Q[outer]
    if inner is not None:
        mats = (mats @ phase_gate(noise.epsilon)) @ CLIFFORD_1Q[inner]
    probs = np.zeros((*outer.shape[:-1], 2**state.n))
    for weight, term in prep_channel(state, noise.p).terms:
        probs += weight * np.abs(_apply_local(term.amplitudes, mats)) ** 2
    if noise.q != 1.0:
        probs = readout_channel(probs, noise.q)
    return probs


# numpy's SeedSequence hash: its constants, on uint32 words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

#: numpy's Lemire threshold for ``integers(0, N_CLIFFORD)``: a uint32 draw u
#: is rejected, and another drawn, when (u * N_CLIFFORD) mod 2**32 is below it.
_LEMIRE_REJECT = (2**32 - N_CLIFFORD) % N_CLIFFORD


def _hashmix(value, const, mult: int = _MULT_A):
    """One hash step on uint32 words (Python ints or arrays) with the hash
    constant ``const``; returns the hashed words and the advanced constant.
    An array of successive constants runs that many steps side by side, and
    ``mult=_MULT_B`` gives the output words of ``generate_state``."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ (value >> 16), const


def _mix(x, y):
    """Mix a hashed word y into the pool word x (Python ints or uint32 arrays)."""
    value = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return value ^ (value >> 16)


def _successive(const: int, mult: int, count: int) -> np.ndarray:
    """The uint32 hash constants of ``count`` successive steps from ``const``."""
    consts = [const]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _seed_int(seed) -> int:
    """``seed`` as a Python int, refused as numpy's ``SeedSequence`` refuses it."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, not {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, not {seed}")
    return int(seed)


def _seed_words(seeds, start: int, stop: int, n_units: int = 2**32) -> np.ndarray:
    """The (stop - start, 4) uint64 words of ``SeedSequence(entropy=seeds[r //
    n_units], spawn_key=(r % n_units,)).generate_state(4, np.uint64)`` for the
    rows r in [start, stop) of the seed-major (seed, unit) grid; one int seed
    stands for ``(seed,)``, so its row r is unit key r.

    The entropy is the seed's little-endian uint32 words ([0] for 0),
    zero-padded to the pool size because a spawn key is present, then the
    key word.  Everything before the key word depends on the seed alone and
    runs once per distinct seed on Python ints.  The key's mix-in into the 4
    pool words and the 8 output words are then one (B, 4) and one (B, 8)
    uint32 step over every row.
    """
    seeds = seeds if isinstance(seeds, (list, tuple)) else (seeds,)
    if n_units > 2**32 or stop > len(seeds) * n_units:
        raise ValueError("unit index beyond 2**32 - 1: a spawn key is one uint32 word")
    first = start // n_units
    pools, consts = [], []
    for seed in seeds[first : -(-stop // n_units)]:
        seed = _seed_int(seed)
        words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
        words += [0] * (_POOL_SIZE - len(words))
        const = _INIT_A
        pool = []
        for word in words[:_POOL_SIZE]:
            hashed, const = _hashmix(word, const)
            pool.append(hashed)
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    hashed, const = _hashmix(pool[src], const)
                    pool[dst] = _mix(pool[dst], hashed)
        for word in words[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                hashed, const = _hashmix(word, const)
                pool[dst] = _mix(pool[dst], hashed)
        pools.append(pool)
        consts.append(_successive(const, _MULT_A, _POOL_SIZE))
    rows = np.arange(start, stop, dtype=np.int64)
    which = rows // n_units - first
    keys = (rows % n_units).astype(np.uint32)[:, None]
    hashed, _ = _hashmix(keys, np.array(consts)[which])
    pool = _mix(np.array(pools, dtype=np.uint32)[which], hashed)
    out, _ = _hashmix(
        np.tile(pool, 2), _successive(_INIT_B, _MULT_B, 2 * _POOL_SIZE), _MULT_B
    )
    return out.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands ``PCG64`` the four seed words ``_seed_words`` computed for one
    unit, so that numpy's own set-seed gives the unit's generator."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError("holds exactly the four uint64 words of a PCG64 seed")
        return self.words


def _clifford_draws(
    seeds: np.ndarray, draws: int
) -> tuple[np.ndarray, list[np.random.Generator]]:
    """Per row of PCG64 seed words: the ids ``integers(0, N_CLIFFORD,
    size=draws)`` gives, as one (B, draws) int64 array, and the unit's
    Generator after them.

    Each unit reads ceil(draws/2) raw outputs; their low then high uint32
    halves are the ``next_uint32`` draws numpy's Lemire rule scales by
    N_CLIFFORD, for the whole block in one step.  A unit with a draw that
    rule rejects is redrawn by ``integers`` on a fresh generator.  Later
    multinomial draws read whole 64-bit outputs, never the buffered half.
    """
    bits = [np.random.PCG64(_SeedWords(words)) for words in seeds]
    raw = np.concatenate([bg.random_raw(-(-draws // 2)) for bg in bits])
    halves = np.stack([raw & _MASK32, raw >> 32], axis=-1).reshape(len(bits), -1)
    scaled = halves[:, :draws] * N_CLIFFORD
    drawn = (scaled >> 32).astype(np.int64)
    rngs = [np.random.Generator(bg) for bg in bits]
    for row in np.flatnonzero(np.any((scaled & _MASK32) < _LEMIRE_REJECT, axis=1)):
        rngs[row] = np.random.Generator(np.random.PCG64(_SeedWords(seeds[row])))
        drawn[row] = rngs[row].integers(0, N_CLIFFORD, size=draws)
    return drawn, rngs


def _simulate_blocks(
    state: StateVector, seeds, n_units: int, n_shots: int, noise=NoiseParams()
):
    """Yield (rows, ids, counts) for the seed-major (seed, unit) rows, row r
    being unit r % n_units of ``seeds[r // n_units]``, in blocks (slices
    ``rows``) of at most _BLOCK_UNITS and _BLOCK_AMPLITUDES / 2**n rows that
    may span seeds.  A block is one ``_clifford_draws`` call (the recorded
    word, then the hidden inner word when the displacement is nonzero), one
    ``word_outcome_probs`` and one ``sample_counts`` call, each unit drawing
    from its own generator.
    """
    n = state.n
    block = max(1, min(_BLOCK_UNITS, _BLOCK_AMPLITUDES >> n))
    draws = 2 * n if noise.epsilon != 0.0 else n
    total = len(seeds) * n_units
    for start in range(0, total, block):
        stop = min(start + block, total)
        drawn, rngs = _clifford_draws(_seed_words(seeds, start, stop, n_units), draws)
        inner = drawn[:, n:] if noise.epsilon != 0.0 else None
        probs = word_outcome_probs(state, drawn[:, :n], inner_ids=inner, noise=noise)
        yield slice(start, stop), drawn[:, :n], sample_counts(probs, n_shots, rngs)
        del rngs  # freed before the next block's generators are made


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

    Each measurement unit k draws from its own deterministic substream, the
    generator ``default_rng(SeedSequence(seed, spawn_key=(k,)))`` would give;
    the seed words of a whole block come from one vectorised run of numpy's
    hash (``_seed_words``).  This is the one-seed call of the block simulator
    ``_simulate_blocks``, which ``calibration.grid_search`` runs over many
    seeds at once.  Each substream sees the draws of a unit simulated alone,
    so the data do not depend on the blocking, and the noiseless
    configuration is bit-identical to NoiseParams(1, 1, 0).
    """
    if n_units < 1 or n_shots < 1:
        raise ValueError("need at least one unit and one shot")
    ids = np.empty((n_units, state.n), dtype=np.int64)
    counts = np.empty((n_units, 2**state.n), dtype=np.int64)
    for rows, *block in _simulate_blocks(state, (seed,), n_units, n_shots, noise):
        ids[rows], counts[rows] = block
        del block  # a block's counts go before the next block is simulated
    return ExperimentData(
        n=state.n, state_label=state_label, clifford_ids=ids, counts=counts, seed=seed
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

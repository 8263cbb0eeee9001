"""Fourier analysis over the hypercube: exact transforms and walk-based estimators.

Coefficients use the character convention chi_S(x) = prod_{i in S} x_i with
packed points, so chi_S(x) = (-1)^popcount(mask_S & bits_x) and the dense
transform is the Walsh-Hadamard transform: a few Hadamard-matrix products in
an exact float word for integer input, the butterfly for float input.

The squared-coefficient estimator works from the lag pairs of a plain labeled
walk, a :class:`~junta_walk.walk.LagSamples` record that
``RandomWalkOracle.lag_samples`` draws without building the walk.  One lag-t
sample is f(x) f(x') chi_S(x (+) x') for walk positions t apart; averaging the
lag-t and lag-(t+1) samples cancels the alternating-sign contribution of the
full set [n] and leaves expectation

    sum_U fhat(U)^2 * (1/2) [ (1-2d/n)^t + (1-2d/n)^(t+1) ],   d = |U xor S|,

which is within exp(-2t/n) of fhat(S)^2 once t >= (n/2) ln(1/bias).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .hypercube import (
    IndexSet,
    TruthTable,
    parity_sign_u64,
    popcount_u64,
    signed_sums,
)
from .walk import LagSamples, RefreshPairs, _check_positive

# Largest pool a bulk path bins onto (2^20 cells), for the sieve's estimation
# and the learner's ERM; a larger pool is handled set by set or support by support.
BULK_WHT_MAX_N = 20


def _butterfly(v: np.ndarray) -> np.ndarray:
    """Unnormalized transform along the last axis; ``v`` is consumed as scratch.

    Level h maps each pair (a, b) of entries h apart to (a + b, a - b),
    writing into a second buffer so no level allocates.  It serves float
    input, whose rounding it fixes level by level, and integer input past
    :func:`_exact_wht`'s float words, where int64 adds beat int64 matmul.
    """
    size = v.shape[-1]
    out = np.empty_like(v)
    h = 1
    while h < size:
        a = v.reshape(*v.shape[:-1], -1, 2, h)
        o = out.reshape(a.shape)
        np.add(a[..., 0, :], a[..., 1, :], out=o[..., 0, :])
        np.subtract(a[..., 0, :], a[..., 1, :], out=o[..., 1, :])
        v, out = out, v
        h *= 2
    return v


# H[i, j] = (-1)^popcount(i & j); its top-left 2^g corner does g levels
_HADAMARD = np.where(np.bitwise_count(np.arange(32)[:, None] & np.arange(32)) % 2, -1, 1)


def _gemm_wht(v: np.ndarray) -> np.ndarray:
    """Transform of float ``v`` along its last axis as BLAS products: the
    first (up to) five levels are one product with H, and each further group
    is one batched product on the middle axis of a (-1, 2^g, 2^done) view."""
    size, hadamard = v.shape[-1], _HADAMARD.astype(v.dtype)
    out, done = v, 0
    while 1 << done < size:
        g = min(5, size.bit_length() - 1 - done)
        h = hadamard[: 1 << g, : 1 << g]
        if done:
            out = np.matmul(h, out.reshape(-1, 1 << g, 1 << done))
        else:
            out = out.reshape(-1, 1 << g) @ h
        done += g
    return out.reshape(v.shape)


def _exact_wht(v: np.ndarray) -> np.ndarray:
    """Exact int64 transform of integer ``v`` along its last axis.

    With bound = size * max|v|, runs :func:`_gemm_wht` in float32 below 2^24,
    in float64 below 2^53 and the int64 butterfly past that.  Every partial
    sum of every product is a signed subset sum of the inputs, so it is at
    most the bound in magnitude and the word holds it exactly, whatever the
    summation order, blocking, FMA use or BLAS thread count.
    """
    bound = v.shape[-1] * max(int(v.max()), -int(v.min()))
    if bound >= 1 << 53:
        return _butterfly(v.astype(np.int64))
    word = np.float32 if bound < 1 << 24 else np.float64
    return _gemm_wht(v.astype(word)).astype(np.int64)


def wht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform out[S] = sum_x v[x] chi_S(x).

    int64 and exact for integer (or boolean) input, float64 otherwise.  The
    transform is its own inverse up to a factor 2^n; ``Spectrum.from_table``
    gives a table's normalized coefficients.
    """
    v = np.asarray(values).reshape(-1)
    if v.size == 0 or v.size & (v.size - 1):
        raise ValueError(f"array length {v.size} is not a power of two")
    if v.dtype.kind not in "biu":
        return _butterfly(v.astype(np.float64))
    return _exact_wht(v)


# Cells (supports x 2^k) gathered in one step of subcube_sums, 8 MiB of int64,
# so memory stays bounded however large C(p, k) 2^k is (C(16, 11) 2^11 is
# 8.9 M cells).
_SUBCUBE_CHUNK_CELLS = 1 << 20


def subcube_sums(
    table: np.ndarray, supports: Iterable[Sequence[int]], k: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Exact bucket sums of an integer table over the subcubes of many supports.

    The table holds 2^p integer cell values indexed by a p-bit word (a truth
    table, or the signed label sums of a sample binned onto p coordinates).
    A support is k distinct bit positions in increasing order; its bucket r
    sums the cells whose bits at the support spell r, bit j of r being the
    j-th position.  By the restriction/projection identity those sums are
    2^-k times the size-2^k transform of the table's transform restricted to
    the subsets of the support, so the table is transformed once and each
    support costs one exact size-2^k transform (batched into matrix
    products per chunk), never a pass over all cells.

    Yields ``(positions, sums)`` per chunk of supports, in the order given:
    ``positions`` is (S, k) and ``sums`` is (S, 2^k) int64.
    """
    coeffs = wht(table)
    supports = iter(supports)
    chunk = max(1, _SUBCUBE_CHUNK_CELLS >> k)
    while batch := list(islice(supports, chunk)):
        positions = np.array(batch, dtype=np.int64).reshape(len(batch), k)
        # subset masks of each support: entry t holds position j iff bit j of t
        subsets = np.zeros((len(batch), 1), dtype=np.int64)
        for j in range(k):
            subsets = np.hstack([subsets, subsets | (1 << positions[:, j : j + 1])])
        # exact: every bucket sum times 2^k is what the transform returns
        yield positions, _exact_wht(coeffs[subsets]) >> k


@dataclass(frozen=True)
class Spectrum:
    """Dense Fourier coefficients of an n-variable function, indexed by set mask."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.float64)
        if arr.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} coefficients, got {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def from_table(cls, f: TruthTable) -> "Spectrum":
        return cls(f.n, wht(f.values) / (1 << f.n))

    def coeff(self, S: IndexSet | int) -> float:
        mask = S.mask if isinstance(S, IndexSet) else int(S)
        return float(self.coeffs[mask])

    def sq_weight(self) -> float:
        """Total squared mass; equals 1 for +-1 valued functions (Parseval)."""
        return float(np.dot(self.coeffs, self.coeffs))

    def largest(self, count: int) -> list[tuple[IndexSet, float]]:
        order = np.lexsort((np.arange(self.coeffs.size), -np.abs(self.coeffs)))
        return [
            (IndexSet(self.n, int(m)), float(self.coeffs[m])) for m in order[:count]
        ]


def project_spectrum(spec: Spectrum, J: IndexSet) -> Spectrum:
    """Zero every coefficient whose set is not contained in J."""
    if J.n != spec.n:
        raise ValueError(f"index set over n={J.n}, spectrum over n={spec.n}")
    masks = np.arange(1 << spec.n, dtype=np.uint64)
    inside = (masks & np.uint64(~J.mask & ((1 << spec.n) - 1))) == 0
    return Spectrum(spec.n, np.where(inside, spec.coeffs, 0.0))


def fourier_weight(spec: Spectrum, J: IndexSet) -> float:
    """Squared coefficient mass carried by subsets of J."""
    return project_spectrum(spec, J).sq_weight()


def inner_product(f: "Spectrum | TruthTable", g: "Spectrum | TruthTable") -> float:
    """<f, g>: uniform-measure correlation, equal to the coefficient dot product.

    Both arguments must be the same kind (two tables or two spectra) over the
    same dimension; the two computations agree to float precision.
    """
    if isinstance(f, TruthTable) and isinstance(g, TruthTable):
        if f.n != g.n:
            raise ValueError(f"dimension mismatch: {f.n} != {g.n}")
        return float(
            np.dot(f.values.astype(np.float64), g.values.astype(np.float64))
            / (1 << f.n)
        )
    if isinstance(f, Spectrum) and isinstance(g, Spectrum):
        if f.n != g.n:
            raise ValueError(f"dimension mismatch: {f.n} != {g.n}")
        return float(np.dot(f.coeffs, g.coeffs))
    raise TypeError("inner_product wants two TruthTables or two Spectrums")


def subcube_projection_exact(s: Spectrum, R: IndexSet) -> float:
    """Squared mass of coefficients disjoint from R: sum over T with T & R = 0.

    This is the stationary value of E[f(x) f(y)] when y resamples exactly the
    coordinates in R, making it the exact oracle for refresh-pair statistics.
    """
    if R.n != s.n:
        raise ValueError(f"index set over n={R.n}, spectrum over n={s.n}")
    return fourier_weight(s, R.complement())


def spectrum_to_csv(spec: Spectrum, fh: TextIO) -> None:
    """Write ``mask,coords,coefficient`` rows, ordered by mask."""
    fh.write("mask,coords,coefficient\n")
    for mask in range(1 << spec.n):
        coords = "|".join(str(c) for c in IndexSet(spec.n, mask))
        fh.write(f"{mask},{coords},{float(spec.coeffs[mask])!r}\n")


# ---------------------------------------------------------------------------
# Walk-based estimation
# ---------------------------------------------------------------------------


def default_lag(n: int, theta: float) -> int:
    """Lag putting the estimator's systematic error below theta/8."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta={theta} outside (0, 1]")
    return max(1, math.ceil((n / 2) * math.log(8.0 / theta)))


def blocks_for(accuracy: float, delta: float) -> int:
    """Sample blocks keeping a mean of [-1, 1] terms within ``accuracy`` w.p. 1-delta."""
    if not 0.0 < accuracy <= 2.0:
        raise ValueError(f"accuracy={accuracy} outside (0, 2]")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta={delta} outside (0, 1)")
    return math.ceil((2.0 / accuracy**2) * math.log(2.0 / delta))


@dataclass(frozen=True)
class EstimatorParams:
    """Lag and block count for the squared-coefficient estimator."""

    lag: int
    pair_count: int

    def __post_init__(self) -> None:
        _check_positive(lag=self.lag, pair_count=self.pair_count)

    @property
    def stride(self) -> int:
        return self.lag + 1

    @property
    def required_walk_length(self) -> int:
        """Points consumed: block b reads positions b*stride, +lag, +lag+1."""
        return (self.pair_count - 1) * self.stride + self.lag + 2

    @classmethod
    def certified(cls, n: int, theta: float, delta: float) -> "EstimatorParams":
        """Lag for bias theta/8 and pair count for sampling error theta/8."""
        return cls(lag=default_lag(n, theta), pair_count=blocks_for(theta / 8.0, delta))


def estimate_sq_coeff(samples: LagSamples, S: IndexSet) -> float:
    """Estimate fhat(S)^2 from the lag pairs of a plain labeled walk."""
    if S.n != samples.n:
        raise ValueError(f"index set over n={S.n}, samples over n={samples.n}")
    mask = np.uint64(S.mask)
    chi_t = parity_sign_u64(samples.diff_t, mask)
    chi_t1 = parity_sign_u64(samples.diff_t1, mask)
    return float(np.mean(0.5 * (samples.prod_t * chi_t + samples.prod_t1 * chi_t1)))


def estimate_sq_coeff_bulk(samples: LagSamples, pool: IndexSet) -> np.ndarray:
    """Estimates of fhat(S)^2 for every S inside the pool at once.

    Entry r is for the set of pool coordinates picked by the bits of r, in
    the restriction-index order of ``JuntaHypothesis.table``.  chi_S of a
    lag-pair xor word depends only on its pool bits, so the +-1 label
    products of both lags are binned on the pool as signed integer counts and
    one exact transform of 2^|pool| cells gives every sum; each entry equals
    :func:`estimate_sq_coeff` bit for bit.  Requires |pool| <= BULK_WHT_MAX_N.
    """
    if pool.n != samples.n:
        raise ValueError(f"pool over n={pool.n}, samples over n={samples.n}")
    if len(pool) > BULK_WHT_MAX_N:
        raise ValueError(
            f"bulk estimation needs a pool of <= {BULK_WHT_MAX_N} coordinates, "
            f"got {len(pool)}"
        )
    diffs = np.concatenate((samples.diff_t, samples.diff_t1))
    counts = signed_sums(pool, diffs, np.concatenate((samples.prod_t, samples.prod_t1)))
    return 0.5 * wht(counts) / len(samples)


def expected_sq_estimate(
    spec: Spectrum, S: IndexSet, lag: int, lazy: bool = False
) -> float:
    """Closed-form expectation of the estimator under a known spectrum.

    A plain walk damps the set-U contribution by (1-2d/n)^t with d = |U xor S|;
    an updating walk damps by (1-d/n)^t.  The estimator averages lags t, t+1.
    """
    if S.n != spec.n:
        raise ValueError(f"index set over n={S.n}, spectrum over n={spec.n}")
    n = spec.n
    masks = np.arange(1 << n, dtype=np.uint64)
    d = popcount_u64(masks ^ np.uint64(S.mask)).astype(np.float64)
    base = 1.0 - (1.0 if lazy else 2.0) * d / n
    weight = 0.5 * base**lag * (1.0 + base)
    return float(np.dot(spec.coeffs**2, weight))


def estimator_bias_bound(n: int, lag: int) -> float:
    """Upper bound exp(-2 lag / n) on |E[estimate] - fhat(S)^2|."""
    return math.exp(-2.0 * lag / n)


# ---------------------------------------------------------------------------
# Bounded-influence screening from refresh pairs
# ---------------------------------------------------------------------------


# _BYTE_BITS[b, j] is bit j of the byte value b
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1


def _bit_counts(masks: np.ndarray, n: int) -> np.ndarray:
    """Entry i counts the masks with bit i set: one histogram per byte in
    use, times the bits of each byte value."""
    octets = np.ascontiguousarray(masks, dtype="<u8").view(np.uint8).reshape(-1, 8)
    hists = [np.bincount(octets[:, b], minlength=256) for b in range((n + 7) // 8)]
    return (np.stack(hists) @ _BYTE_BITS).reshape(-1)[:n]


def estimate_bounded_influence(pairs: RefreshPairs) -> np.ndarray:
    """Contrast of the label product over pairs that kept/refreshed each coordinate.

    Entry i-1 is E[f(x) f(y) | i kept] - E[f(x) f(y) | i refreshed].  Writing
    l(R) = E[f(x) f(y) | refreshed set R] = sum_{T cap R empty} fhat(T)^2, and
    with coordinates refreshed independently at density p, it has expectation
    exactly sum_{T owns i} fhat(T)^2 (1-p)^(|T|-1): a screened influence that
    is large for every member of a heavy low-degree set.  The density only
    sets callers' thresholds; it does not enter the estimate.

    The products are +-1, so each conditional mean is an exact integer sum,
    (pairs - 2 disagreeing pairs), divided once by its pair count; all n
    counts come from byte histograms of the masks.  A coordinate refreshed
    in none or all of the pairs has no contrast sample and reads +inf.
    """
    masks = pairs.refreshed_masks
    disagree = masks[pairs.label_x != pairs.label_y]
    hit, hit_dis = _bit_counts(masks, pairs.n), _bit_counts(disagree, pairs.n)
    kept, kept_dis = len(masks) - hit, len(disagree) - hit_dis
    with np.errstate(divide="ignore", invalid="ignore"):
        contrasts = (kept - 2 * kept_dis) / kept - (hit - 2 * hit_dis) / hit
    contrasts[(hit == 0) | (kept == 0)] = np.inf
    return contrasts


def expected_bounded_influence(spec: Spectrum, i: int, p: float) -> float:
    """Exact contrast sum_{T owns i} fhat(T)^2 (1-p)^(|T|-1) under
    independent per-coordinate refreshing at density p."""
    if not 1 <= i <= spec.n:
        raise ValueError(f"coordinate {i} outside 1..{spec.n}")
    masks = np.arange(1 << spec.n, dtype=np.uint64)
    owns = (masks >> np.uint64(i - 1)) & np.uint64(1) == 1
    sizes = popcount_u64(masks).astype(np.float64)
    weights = np.where(owns, (1.0 - p) ** np.maximum(sizes - 1.0, 0.0), 0.0)
    return float(np.dot(spec.coeffs**2, weights))

"""Fourier analysis over the hypercube: exact transforms and walk-based estimators.

Coefficients use the character convention chi_S(x) = prod_{i in S} x_i with
packed points, so chi_S(x) = (-1)^popcount(mask_S & bits_x) and the dense
transform is the Walsh-Hadamard transform of integer input: a few
Hadamard-matrix products in the narrowest float word that holds it exactly.

The squared-coefficient estimator works from the lag pairs of a plain labeled
walk (:class:`~junta_walk.walk.LagSamples`, read off a refresh-pair harvest).
One sample is f(x) f(y) chi_S(x (+) y) for points a Poisson(mu) number of
flips apart, so each coordinate flips Poisson(mu/n) times, independently, and
is odd with probability (1 - e^(-2 mu/n))/2.  A sample then has expectation

    sum_U fhat(U)^2 e^(-2 |U xor S| mu / n),

within e^(-2 mu/n) of fhat(S)^2; a Poisson count, unlike a fixed lag, leaves
no alternating-sign term on the full set [n].

The screen's contrasts come from the refresh pairs of the same walk
(:class:`~junta_walk.walk.ScreenTally`): the pairs are split by whether they
flipped each coordinate, and the difference of the two label-product means is
rescaled by 1/(1 + pi), pi being the probability that a pair leaves a
coordinate unflipped, so that it estimates an updating walk's contrast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .hypercube import (
    IndexSet, TruthTable, _check_dim, _check_integer, _check_real, parity_sign_u64, signed_sums
)
from .walk import LagSamples, ScreenTally

# Largest pool a bulk path bins onto (2^20 cells): the sieve refuses a larger
# pool with PoolOverflow, and the learner's ERM reads its sums off bit columns.
BULK_WHT_MAX_N = 20


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
    """Exact transform of integer ``v`` along its last axis.

    With bound = size * max|v|, runs :func:`_gemm_wht` in float32 below 2^24
    and in float64 below 2^53, and refuses a larger bound with ValueError.
    Every partial sum of every product is a signed subset sum of the inputs,
    so it is at most the bound in magnitude and the word holds it exactly,
    whatever the summation order, blocking, FMA use or BLAS thread count.
    """
    bound = v.shape[-1] * max(int(v.max()), -int(v.min()))
    if bound >= 1 << 53:
        raise ValueError(
            f"transform bound size * max|v| = {bound} reaches 2^53, "
            "past float64's exact integers"
        )
    word = np.float32 if bound < 1 << 24 else np.float64
    return _gemm_wht(v.astype(word))


def wht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform out[S] = sum_x v[x] chi_S(x).

    Integer (or boolean) input only, with size * max|v| below 2^53; the
    result is exact and int64.  Float input raises TypeError.  The transform
    is its own inverse up to a factor 2^n; ``Spectrum.from_table`` gives a
    table's normalized coefficients.
    """
    v = np.asarray(values).reshape(-1)
    if v.size == 0 or v.size & (v.size - 1):
        raise ValueError(f"array length {v.size} is not a power of two")
    if v.dtype.kind not in "biu":
        raise TypeError(f"wht takes integer or boolean input, got {v.dtype}")
    return _exact_wht(v).astype(np.int64, copy=False)


# Cells (supports x 2^k) gathered in one step of subcube_sums, 8 MiB of int64,
# so memory stays bounded however large C(p, k) 2^k is (C(16, 11) 2^11 is
# 8.9 M cells).
_SUBCUBE_CHUNK_CELLS = 1 << 20


def subcube_sums(
    coeffs: Callable[[np.ndarray], np.ndarray], supports: Iterable[Sequence[int]], k: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Exact bucket sums of an integer table over the subcubes of many supports.

    ``coeffs`` maps an int64 array of p-bit subset masks T to the table's
    transform sum_x v[x] chi_T(x): ``wht(table).__getitem__``, or a lookup of
    sums taken from a sample.  A support is k distinct bit positions in
    increasing order; its bucket r sums the cells whose bits at the support
    spell r, bit j of r being the j-th position.  By the restriction/
    projection identity those sums are 2^-k times the size-2^k transform of
    the support's subsets' coefficients: one exact transform per support
    (batched into matrix products per chunk), never a pass over all cells.

    Yields ``(positions, sums)`` per chunk of supports, in the order given:
    ``positions`` is (S, k) and ``sums`` is (S, 2^k) int64.
    """
    supports = iter(supports)
    chunk = max(1, _SUBCUBE_CHUNK_CELLS >> k)
    while batch := list(islice(supports, chunk)):
        positions = np.array(batch, dtype=np.int64).reshape(len(batch), k)
        # subset masks of each support: entry t holds position j iff bit j of t
        subsets = np.zeros((len(batch), 1), dtype=np.int64)
        for j in range(k):
            subsets = np.hstack([subsets, subsets | (1 << positions[:, j : j + 1])])
        # exact: every bucket sum times 2^k is what the transform returns
        yield positions, _exact_wht(coeffs(subsets)).astype(np.int64, copy=False) >> k


@dataclass(frozen=True)
class Spectrum:
    """Dense Fourier coefficients of an n-variable function, indexed by set mask."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=np.float64)  # always a copy
        if arr.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} coefficients, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def from_table(cls, f: TruthTable) -> "Spectrum":
        # a +-1 table's transform is bounded by 2^n <= 2^24, so it comes back
        # in a float word, and scaling its integers by 2^-n is exact there
        coeffs = _exact_wht(f.values)
        coeffs *= 2.0**-f.n
        return cls(f.n, coeffs)


def subcube_projection_exact(s: Spectrum, R: IndexSet) -> float:
    """Squared mass of coefficients disjoint from R: sum over T with T & R = 0.

    This is the stationary value of E[f(x) f(y)] when y resamples exactly the
    coordinates in R, making it the exact oracle for the refresh model's statistics.
    """
    if R.n != s.n:
        raise ValueError(f"index set over n={R.n}, spectrum over n={s.n}")
    masks = np.arange(1 << s.n, dtype=np.uint64)
    disjoint = np.where((masks & np.uint64(R.mask)) == 0, s.coeffs, 0.0)
    return float(np.dot(disjoint, disjoint))


# ---------------------------------------------------------------------------
# Walk-based estimation
# ---------------------------------------------------------------------------


def default_lag(n: int, theta: float) -> int:
    """Least mean flip count (lag) putting the estimator's systematic
    error below theta/8."""
    _check_dim(n)
    _check_real("theta", theta, "(0, 1]")
    return max(1, math.ceil((n / 2) * math.log(8.0 / theta)))


def blocks_for(accuracy: float, delta: float) -> int:
    """Sample blocks keeping a mean of [-1, 1] terms within ``accuracy`` w.p. 1-delta."""
    _check_real("accuracy", accuracy, "(0, 2]")
    _check_real("delta", delta, "(0, 1)")
    return math.ceil((2.0 / accuracy**2) * math.log(2.0 / delta))


def estimate_sq_coeff(samples: LagSamples, S: IndexSet) -> float:
    """Estimate fhat(S)^2 from the lag pairs of a plain labeled walk: the
    per-set reference that :func:`estimate_sq_coeff_bulk` matches."""
    if S.n != samples.n:
        raise ValueError(f"index set over n={S.n}, samples over n={samples.n}")
    return float(np.mean(samples.prod * parity_sign_u64(samples.diff, S.mask)))


def estimate_sq_coeff_bulk(samples: LagSamples, pool: IndexSet) -> np.ndarray:
    """Estimates of fhat(S)^2 for every S inside the pool at once.

    Entry r is for the set of pool coordinates picked by the bits of r, in
    the restriction-index order of ``JuntaHypothesis.table``.  chi_S of a
    lag-pair xor word depends only on its pool bits, so the +-1 label
    products are binned on the pool as exact int64 counts (``signed_sums``,
    whose temporaries do not grow with the sample count) and one exact
    transform of 2^|pool| cells gives every sum; each entry equals
    :func:`estimate_sq_coeff` bit for bit.  Requires |pool| <= BULK_WHT_MAX_N.
    """
    if pool.n != samples.n:
        raise ValueError(f"pool over n={pool.n}, samples over n={samples.n}")
    if len(pool) > BULK_WHT_MAX_N:
        raise ValueError(
            f"bulk estimation needs a pool of <= {BULK_WHT_MAX_N} coordinates, "
            f"got {len(pool)}"
        )
    return wht(signed_sums(pool, samples.diff, samples.prod)) / len(samples)


def expected_sq_estimate(spec: Spectrum, S: IndexSet, mean_flips: float) -> float:
    """Closed-form expectation of the estimator under a known spectrum for
    samples Poisson(``mean_flips``) flips apart: sum_U fhat(U)^2 e^(-2 d mean_flips / n),
    d = |U xor S|."""
    if S.n != spec.n:
        raise ValueError(f"index set over n={S.n}, spectrum over n={spec.n}")
    n = spec.n
    masks = np.arange(1 << n, dtype=np.uint64)
    d = np.bitwise_count(masks ^ np.uint64(S.mask)).astype(np.float64)
    return float(np.dot(spec.coeffs**2, np.exp(-2.0 * mean_flips * d / n)))


def estimator_bias_bound(n: int, mean_flips: float) -> float:
    """Upper bound e^(-2 mean_flips / n) on |E[estimate] - fhat(S)^2|."""
    return math.exp(-2.0 * mean_flips / n)


# ---------------------------------------------------------------------------
# Bounded-influence screening from refresh pairs
# ---------------------------------------------------------------------------


# _BYTE_BITS[b, j] is bit j of the byte value b
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1


def estimate_bounded_influence(tally: ScreenTally) -> tuple[np.ndarray, np.ndarray]:
    """Rescaled contrast of the label product over pairs that left each
    coordinate unflipped and pairs that flipped it, and its standard-error
    bound.

    With pi = ``tally.pi``, entry i-1 of the contrasts is (a - b) /
    (1 + pi), where a = E[f(x) f(y) | i unflipped] and b = E[f(x) f(y) | i
    flipped].  A harvested pair flips each coordinate an independent
    Poisson number of times, so chi_T(x) chi_T(y) for a T owning i has the
    factor 1 on i given i unflipped and E[(-1)^count | count >= 1] = -pi
    given i flipped, and the contrast has expectation exactly
    sum_{T owns i} fhat(T)^2 pi^(2(|T|-1)) =
    sum_{T owns i} fhat(T)^2 (1-p)^(|T|-1) at the refresh density p =
    1 - pi^2 (:func:`~junta_walk.walk.harvest_refresh_pairs` derives it): a
    screened influence that is large for every member of a heavy low-degree
    set.  The density only sets callers' thresholds.

    The products are +-1, so each conditional mean is an exact integer sum,
    (pairs - 2 disagreeing pairs), divided once by its pair count, and their
    difference is divided once by 1 + pi.  All n counts, split by
    disagreement, are read off the tally's per-byte histograms, which a
    harvest fills chunk by chunk as it draws its walk.  The same counts give
    sigma_i = sqrt(1/unflipped_i + 1/flipped_i) / (1 + pi), which bounds
    the contrast's standard deviation when the pairs are iid: each mean
    averages values in [-1, 1].  Harvested pairs share half-blocks with
    their neighbours and are not iid, so for them sigma_i is an estimate,
    not a bound.  A coordinate flipped in none or all of the pairs has no
    contrast sample and reads +inf in both arrays.
    """
    hists = tally.hists
    agree, dis_hists = hists[:, :256], hists[:, 256:]
    flipped = ((agree + dis_hists) @ _BYTE_BITS).reshape(-1)[: tally.n]
    flipped_dis = (dis_hists @ _BYTE_BITS).reshape(-1)[: tally.n]
    unflipped, unflipped_dis = len(tally) - flipped, int(dis_hists[0].sum()) - flipped_dis
    scale = 1.0 + tally.pi
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (unflipped - 2 * unflipped_dis) / unflipped
        b = (flipped - 2 * flipped_dis) / flipped
        contrasts = (a - b) / scale
        sigmas = np.sqrt(1.0 / unflipped + 1.0 / flipped) / scale
    empty = (flipped == 0) | (unflipped == 0)
    contrasts[empty] = np.inf
    sigmas[empty] = np.inf
    return contrasts, sigmas


def expected_bounded_influence(spec: Spectrum, i: int, p: float) -> float:
    """Exact contrast sum_{T owns i} fhat(T)^2 (1-p)^(|T|-1) under
    independent per-coordinate refreshing at density p."""
    _check_integer("coordinate i", i, 1, spec.n)
    _check_real("refresh density p", p, "[0, 1]")
    masks = np.arange(1 << spec.n, dtype=np.uint64)
    owns = (masks >> np.uint64(i - 1)) & np.uint64(1) == 1
    sizes = np.bitwise_count(masks).astype(np.float64)
    weights = np.where(owns, (1.0 - p) ** np.maximum(sizes - 1.0, 0.0), 0.0)
    return float(np.dot(spec.coeffs**2, weights))

"""Exact small-n ground truth: optimal junta distance, a structural certificate
for heavy coefficients, and the tightness fixtures around the AND function.

Everything here works on full truth tables with integer or rational
arithmetic; these oracles are what the sampling-based pipeline is audited
against in the test suite.  Exact opt scores the subcube label sums of f
with the learner's ``best_support``, the rule ERM applies to a sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .fourier import subcube_sums, wht
from .functions import and_table
from .hypercube import (
    IndexSet,
    JuntaHypothesis,
    TruthTable,
    _check_integer,
    _check_real,
    restriction_indices,  # noqa: F401 - the benchmark's tracer reads this name
)
from .learner import GAP_CONSTANT, best_support

MAX_OPT_N = 16
MAX_LEMMA_N = 12


@dataclass(frozen=True)
class OptResult:
    """Exact optimum over k-juntas: distance, a witness achieving it, and
    optionally the best distance per coordinate set."""

    opt: Fraction
    witness: JuntaHypothesis
    per_set: dict[int, Fraction] | None = None


def exact_opt(f: TruthTable, k: int, include_per_set: bool = False) -> OptResult:
    """Exhaustive optimum of the distance to f over all k-juntas, n <= 16.

    One exact transform of f yields the subcube label sums of every support
    (see ``subcube_sums``), so all C(n, k) supports are scored exactly by
    ``best_support`` without a pass over the cube per support.  Ties between
    coordinate sets resolve to the smallest set mask, the learner's rule.
    """
    if f.n > MAX_OPT_N:
        raise ValueError(f"n={f.n} exceeds the exact-opt cap {MAX_OPT_N}")
    _check_integer("k", k, 1, f.n)
    size = 1 << f.n
    counts: dict[int, int] | None = {} if include_per_set else None
    chunks = subcube_sums(f.values, combinations(range(f.n), k), k)
    witness, disagree = best_support(chunks, IndexSet.full(f.n), size, counts)
    per_set = None
    if counts is not None:
        per_set = {m: Fraction(d, size) for m, d in counts.items()}
    return OptResult(opt=Fraction(disagree, size), witness=witness, per_set=per_set)


# ---------------------------------------------------------------------------
# Heavy-coefficient certificate
# ---------------------------------------------------------------------------


def coefficient_bound(k: int, epsilon: float) -> float:
    """Magnitude floor (1 - 1/sqrt(2)) 2^(-(k-1)/2) eps for a witness coefficient."""
    return GAP_CONSTANT * 2.0 ** (-(k - 1) / 2.0) * epsilon


def relevant_coords(f: TruthTable) -> IndexSet:
    """Coordinates f genuinely depends on: the support union of its spectrum."""
    coeffs = wht(f.values)
    mask = 0
    for m in np.nonzero(coeffs)[0]:
        mask |= int(m)
    return IndexSet(f.n, mask)


@dataclass(frozen=True)
class LemmaWitness:
    """A certified near-optimal junta: every variable it uses sits inside some
    small set with a heavy coefficient of f."""

    g_prime: TruthTable
    fixed: tuple[tuple[int, int], ...]  # (coordinate, forced sign), in coord order
    witnesses: dict[int, tuple[IndexSet, Fraction]]
    inner_original: Fraction
    inner_restricted: Fraction
    bound: float

    def to_dict(self) -> dict:
        return {
            "fixed": [[c, v] for c, v in self.fixed],
            "witnesses": {
                str(i): {"S": sorted(S.coords()), "coeff": str(c)}
                for i, (S, c) in self.witnesses.items()
            },
            "inner_original": str(self.inner_original),
            "inner_restricted": str(self.inner_restricted),
            "bound": self.bound,
        }


def _restrict_table(g: TruthTable, fixed: dict[int, int]) -> TruthTable:
    """Force coordinates to signs: value at x is g(x with those bits overridden)."""
    idx = np.arange(1 << g.n, dtype=np.uint64)
    clear = np.uint64(0)
    setbits = np.uint64(0)
    for c, v in fixed.items():
        clear |= np.uint64(1) << np.uint64(c - 1)
        if v == -1:
            setbits |= np.uint64(1) << np.uint64(c - 1)
    forced = (idx & ~clear) | setbits
    return TruthTable(g.n, g.values[forced])


def _clears_floor(c: int, k: int, scale: Fraction) -> bool:
    """|c| >= (1 - 1/sqrt(2)) 2^(-(k-1)/2) * scale, decided exactly: squared,
    it is t^2 2^k >= 3 - 2 sqrt(2) with t = |c| / scale, so with
    q = 3 - t^2 2^k it holds iff q <= 0 or q^2 <= 8."""
    q = 3 - (abs(c) / scale) ** 2 * 2**k
    return q <= 0 or q * q <= 8


def verify_spectrum_lemma(
    f: TruthTable,
    g: TruthTable,
    epsilon: float,
    k: int | None = None,
) -> LemmaWitness | None:
    """Search for a restriction g' of g with <f,g'> >= <f,g> - epsilon whose
    every relevant variable belongs to a set S, |S| <= k, with
    |fhat(S)| >= (1 - 1/sqrt(2)) 2^(-(k-1)/2) epsilon.

    Candidates fix each relevant variable of g to free, +1 or -1 (at most 3^k
    sub-functions) and are scanned with the fewest variables fixed first, then
    by assignment encoding; the first certified candidate is returned, or None
    if the whole space fails.  Both tests are exact, the coefficient floor
    by :func:`_clears_floor`.
    """
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} != {g.n}")
    if f.n > MAX_LEMMA_N:
        raise ValueError(f"n={f.n} exceeds the verifier cap {MAX_LEMMA_N}")
    rel_g = sorted(relevant_coords(g).coords())
    if k is None:
        k = len(rel_g)
    if len(rel_g) > k:
        raise ValueError(f"g depends on {len(rel_g)} variables, more than k={k}")
    _check_real("epsilon", epsilon, "(0, 1]")

    size = 1 << f.n
    coeffs_f = wht(f.values)  # 2^n * fhat, exact
    masks = np.arange(size, dtype=np.uint64)
    small = np.bitwise_count(masks) <= k
    # the floor is monotone in |c|: find the smallest magnitude clearing it
    mags = np.abs(coeffs_f)
    scale = Fraction(epsilon) * size  # epsilon * 2^n, exact
    levels = np.unique(mags[small]).tolist()
    floor = next((c for c in levels if _clears_floor(c, max(k, 1), scale)), size + 1)
    heavy_masks = masks[small & (mags >= floor)]

    def witness_for(i: int) -> tuple[IndexSet, Fraction] | None:
        holding = heavy_masks[(heavy_masks >> np.uint64(i - 1)) & np.uint64(1) == 1]
        if holding.size == 0:
            return None
        vals = np.abs(coeffs_f[holding.astype(np.int64)])
        order = np.lexsort((holding, -vals))
        m = int(holding[order[0]])
        return IndexSet(f.n, m), Fraction(int(coeffs_f[m]), size)

    dot_g = int(np.dot(f.values.astype(np.int64), g.values))
    fv = f.values.astype(np.int64)
    for fix_count in range(len(rel_g) + 1):
        for combo in combinations(rel_g, fix_count):
            for signs in product((1, -1), repeat=fix_count):
                fixed = dict(zip(combo, signs))
                gp = _restrict_table(g, fixed)
                dot_gp = int(np.dot(fv, gp.values))
                if dot_g - dot_gp > epsilon * size:
                    continue
                certificate: dict[int, tuple[IndexSet, Fraction]] = {}
                ok = True
                for i in relevant_coords(gp):
                    w = witness_for(i)
                    if w is None:
                        ok = False
                        break
                    certificate[i] = w
                if ok:
                    return LemmaWitness(
                        g_prime=gp,
                        fixed=tuple(sorted(fixed.items())),
                        witnesses=certificate,
                        inner_original=Fraction(dot_g, size),
                        inner_restricted=Fraction(dot_gp, size),
                        bound=coefficient_bound(max(k, 1), epsilon),
                    )
    return None


# ---------------------------------------------------------------------------
# Tightness fixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixtureReport:
    """Integer-exact checks of the AND-function constructions for one k."""

    k: int
    facts: dict[str, bool]
    detail: dict[str, str]

    @property
    def all_pass(self) -> bool:
        return all(self.facts.values())

    def to_dict(self) -> dict:
        return {"k": self.k, "facts": self.facts, "detail": self.detail}


def counterexample_fixtures(k: int) -> FixtureReport:
    """Materialize the two AND_k constructions and verify their exact spectra.

    Construction one (n = k): every nonempty set's coefficient of AND_k has
    magnitude at most 2^(1-k), met with equality on all nonempty subsets of
    [k] -- so the coefficient floor cannot be raised.  Construction two
    (n = k+1, g = AND on coordinates 2..k+1): <f, g> = 1 - 2^(1-k) while every
    set containing coordinate k+1 has fhat(S) = 0 exactly.
    """
    _check_integer("k", k, 1, 10)
    facts: dict[str, bool] = {}
    detail: dict[str, str] = {}

    f1 = and_table(k, range(1, k + 1))
    w1 = wht(f1.values)  # 2^k * fhat
    nonempty = np.abs(w1[1:])
    facts["tight_coefficients"] = bool(
        np.all(nonempty <= 2) and np.all(nonempty == 2) and int(w1[0]) == (1 << k) - 2
    )
    detail["tight_coefficients"] = (
        f"max nonempty 2^k|fhat| = {int(nonempty.max())} (cap 2), "
        f"2^k fhat(empty) = {int(w1[0])}"
    )

    n2 = k + 1
    f2 = and_table(n2, range(1, k + 1))
    g2 = and_table(n2, range(2, k + 2))
    dot = int(np.dot(f2.values.astype(np.int64), g2.values))
    facts["shifted_inner_product"] = dot == (1 << n2) - 4
    detail["shifted_inner_product"] = f"2^n <f,g> = {dot}, expected {(1 << n2) - 4}"

    w2 = wht(f2.values)
    top = np.arange(1 << n2) >= (1 << k)  # sets containing coordinate k+1
    facts["vanishing_coefficients"] = bool(np.all(w2[top] == 0))
    detail["vanishing_coefficients"] = (
        f"max |2^n fhat| over sets containing {k + 1}: {int(np.abs(w2[top]).max())}"
    )
    return FixtureReport(k=k, facts=facts, detail=detail)

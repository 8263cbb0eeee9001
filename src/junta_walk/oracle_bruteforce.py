"""Exact small-n ground truth: optimal junta distance, a structural certificate
for heavy coefficients, and the tightness fixtures around the AND function.

Everything here works on full truth tables with integer or rational
arithmetic; these oracles are what the sampling-based pipeline is audited
against in the test suite.
"""

from __future__ import annotations

import json
import math
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
    popcount_u64,
    restriction_indices,  # noqa: F401 - kept importable from this module
)
from .learner import GAP_CONSTANT

MAX_OPT_N = 16
MAX_LEMMA_N = 12


@dataclass(frozen=True)
class OptResult:
    """Exact optimum over k-juntas: distance, a witness achieving it, and
    optionally the best distance per coordinate set."""

    opt: Fraction
    witness: JuntaHypothesis
    per_set: dict[int, Fraction] | None = None


def _majority(sums: np.ndarray) -> np.ndarray:
    """Majority label per bucket from its label sum; ties go to +1."""
    return np.where(sums >= 0, 1, -1).astype(np.int8)


def exact_opt_for(f: TruthTable, J: IndexSet) -> tuple[TruthTable, Fraction]:
    """Best J-junta for f: majority label on every subcube (ties to +1).

    Returns the 2^|J| majority table and its exact distance.  With bucket label
    sums s, the unavoidable disagreement count is (2^n - sum |s|) / 2.
    """
    if J.n != f.n:
        raise ValueError(f"index set over n={J.n}, table over n={f.n}")
    k = len(J)
    _, sums = next(subcube_sums([f.values], [[c - 1 for c in J]], k))
    sums = sums[0, 0]
    disagree = ((1 << f.n) - int(np.abs(sums).sum())) // 2
    return TruthTable(k, _majority(sums)), Fraction(disagree, 1 << f.n)


def exact_opt(f: TruthTable, k: int, include_per_set: bool = False) -> OptResult:
    """Exhaustive optimum of the distance to f over all k-juntas, n <= 16.

    One exact transform of f yields the subcube label sums of every support
    (see ``subcube_sums``), so all C(n, k) supports are scored exactly without
    a pass over the cube per support.  Ties between coordinate sets resolve to
    the smallest set mask, matching the learner's determinism rule.
    """
    if f.n > MAX_OPT_N:
        raise ValueError(f"n={f.n} exceeds the exact-opt cap {MAX_OPT_N}")
    if not 1 <= k <= f.n:
        raise ValueError(f"k={k} outside 1..{f.n}")
    size = 1 << f.n
    best: tuple[tuple[int, int], np.ndarray] | None = None
    per_set: dict[int, Fraction] | None = {} if include_per_set else None
    for positions, sums in subcube_sums([f.values], combinations(range(f.n), k), k):
        sums = sums[0]
        disagree = (size - np.abs(sums).sum(axis=1)) // 2
        masks = (1 << positions).sum(axis=1)
        if per_set is not None:
            per_set.update(
                (m, Fraction(d, size)) for m, d in zip(masks.tolist(), disagree.tolist())
            )
        i = np.lexsort((masks, disagree))[0]
        key = (int(disagree[i]), int(masks[i]))
        if best is None or key < best[0]:
            best = (key, sums[i])
    assert best is not None
    (disagree_best, mask), sums_best = best
    witness = JuntaHypothesis(IndexSet(f.n, mask), _majority(sums_best))
    return OptResult(opt=Fraction(disagree_best, size), witness=witness, per_set=per_set)


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "fixed": [[c, v] for c, v in self.fixed],
                "witnesses": {
                    str(i): {"S": sorted(S.coords()), "coeff": str(c)}
                    for i, (S, c) in self.witnesses.items()
                },
                "inner_original": str(self.inner_original),
                "inner_restricted": str(self.inner_restricted),
                "bound": self.bound,
            }
        )


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


def verify_spectrum_lemma(
    f: TruthTable,
    g: TruthTable,
    epsilon: float,
    k: int | None = None,
    slack: float = 1e-9,
) -> LemmaWitness | None:
    """Search for a restriction g' of g with <f,g'> >= <f,g> - epsilon whose
    every relevant variable belongs to a set S, |S| <= k, with
    |fhat(S)| >= (1 - 1/sqrt(2)) 2^(-(k-1)/2) epsilon.

    Candidates fix each relevant variable of g to free, +1 or -1 (at most 3^k
    sub-functions) and are scanned with the fewest variables fixed first, then
    by assignment encoding; the first certified candidate is returned, or None
    if the whole space fails.
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
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon={epsilon} outside (0, 1]")

    size = 1 << f.n
    coeffs_f = wht(f.values)  # 2^n * fhat, exact
    bound = coefficient_bound(max(k, 1), epsilon)
    masks = np.arange(size, dtype=np.uint64)
    small = popcount_u64(masks) <= k
    heavy = small & (np.abs(coeffs_f) >= bound * size - slack)
    heavy_masks = masks[heavy]

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
                if dot_gp < dot_g - epsilon * size - slack:
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
                        bound=bound,
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

    def to_json(self) -> str:
        return json.dumps({"k": self.k, "facts": self.facts, "detail": self.detail})


def counterexample_fixtures(k: int) -> FixtureReport:
    """Materialize the two AND_k constructions and verify their exact spectra.

    Construction one (n = k): every nonempty set's coefficient of AND_k has
    magnitude at most 2^(1-k), met with equality on all nonempty subsets of
    [k] -- so the coefficient floor cannot be raised.  Construction two
    (n = k+1, g = AND on coordinates 2..k+1): <f, g> = 1 - 2^(1-k) while every
    set containing coordinate k+1 has fhat(S) = 0 exactly.
    """
    if not 1 <= k <= 10:
        raise ValueError(f"k={k} outside 1..10")
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

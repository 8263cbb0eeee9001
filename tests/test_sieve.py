"""Two-phase heavy-set search: budgets, contracts, and failure modes."""

import hashlib
import json
import logging
import math
import re
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

import junta_walk.sieve as sieve_mod
from junta_walk.fourier import Spectrum, blocks_for, default_lag
from junta_walk.functions import and_table, constant_table, parity_table, random_junta
from junta_walk.hypercube import IndexSet
from junta_walk.learner import sieve_params_for
from junta_walk.sieve import (
    BudgetInfeasible,
    CertifyReport,
    PoolOverflow,
    SieveBudgets,
    SieveParams,
    SieveResult,
    bounded_sieve,
    certified_budgets,
    certify_result,
    practical_budgets,
)
from junta_walk.walk import (
    RandomWalkOracle,
    effective_refresh_density,
    gap_for_density,
    lag_pairs,
    lag_window,
)


def run_sieve(f, n, params, budgets, seed):
    oracle = RandomWalkOracle(f, n, seed=seed)
    return bounded_sieve(oracle, params, budgets=budgets)


# ---------------------------------------------------------------------------
# Parameters and budgets


def test_params_validation():
    with pytest.raises(ValueError):
        SieveParams(level=0, theta=0.1, delta=0.1)
    with pytest.raises(ValueError):
        SieveParams(level=2, theta=0.0, delta=0.1)
    with pytest.raises(ValueError):
        SieveParams(level=2, theta=0.1, delta=1.0)


@pytest.mark.parametrize("level", [2.5, 3.0, True, False, "3"])
def test_non_integer_level_is_refused_by_name(level):
    # a float or bool level would pass as a density of 0.4 or 0.5
    with pytest.raises(TypeError, match="level="):
        SieveParams(level, 0.1, 0.1)
    assert SieveParams(np.int32(3), 0.1, 0.1).density == 1 / 3


def test_default_density_is_clamped_inverse_level():
    assert SieveParams(level=1, theta=0.1, delta=0.1).density == 0.5
    assert SieveParams(level=2, theta=0.1, delta=0.1).density == 0.5
    assert SieveParams(level=4, theta=0.1, delta=0.1).density == 0.25


def test_result_cap():
    assert SieveParams(level=2, theta=0.4, delta=0.1).result_cap == 5
    assert SieveParams(level=2, theta=1.0, delta=0.1).result_cap == 2


def test_budget_field_validation():
    with pytest.raises(ValueError):
        SieveBudgets(screen_pairs=0, estimate_blocks=5, lag=3, gap_steps=2)
    with pytest.raises(ValueError, match="gap_steps=-1"):
        SieveBudgets(screen_pairs=1, estimate_blocks=5, lag=3, gap_steps=-1)
    # zero estimation blocks stop the search after its screen; fewer are refused
    with pytest.raises(ValueError, match="estimate_blocks=-1 must be >= 0"):
        SieveBudgets(screen_pairs=1, estimate_blocks=-1, lag=3, gap_steps=2)
    SieveBudgets(screen_pairs=1, estimate_blocks=0, lag=3, gap_steps=2)


@pytest.mark.parametrize("name", ["screen_pairs", "estimate_blocks", "lag", "gap_steps"])
@pytest.mark.parametrize("value", [10.5, 3.0, True, False, "3"])
def test_non_integer_budgets_are_refused_by_name(name, value):
    fields = {"screen_pairs": 10, "estimate_blocks": 0, "lag": 1, "gap_steps": 3, name: value}
    with pytest.raises(TypeError, match=f"budget {name}="):
        SieveBudgets(**fields)
    SieveBudgets(**{**fields, name: np.int32(3)})


def test_certified_budgets_small_case():
    params = SieveParams(level=1, theta=0.25, delta=0.25)
    b = certified_budgets(params, 4)
    assert b.screen_pairs > 1000  # Hoeffding at tau/2 is not cheap
    assert b.gap_steps >= 1


def test_certified_estimation_budget():
    # lag for bias theta/8, and lag samples for error theta/8 at a union bound
    # over every set of size <= level over [n], one third of delta: twice the
    # iid count, as adjacent samples share a half-window (a path dependency
    # graph)
    params = SieveParams(level=2, theta=0.1, delta=0.05)
    b = certified_budgets(params, 8)
    candidates = 1 + 8 + math.comb(8, 2)
    assert b.lag == default_lag(8, 0.1)
    assert b.estimate_blocks == 2 * blocks_for(0.1 / 8, 0.05 / (3 * candidates))
    # the pool is screened from the harvest the estimates read, so the union
    # bound covers [n] even where the pool cap is smaller: cap 20 < n = 30
    wide = SieveParams(level=1, theta=0.4, delta=0.1)
    assert sieve_mod._pool_cap(wide) == 20
    assert certified_budgets(wide, 30).estimate_blocks == 2 * blocks_for(0.05, 0.1 / (3 * 31))


@pytest.mark.parametrize(
    "level, theta, delta, n",
    [(2, 0.1, 0.05, 8), (1, 0.25, 0.25, 4), (2, 0.3, 0.1, 6), (3, 0.2, 0.1, 3)],
)
def test_certified_lag_walk_moves_by_at_most_a_half_window(level, theta, delta, n):
    # a lag sample spans the least even count w of half-blocks whose mean
    # flips, w gap / 4, reach the lag: past it by less than one half-window
    # pair (gap / 2), so the certified bias bound e^(-2 lag / n) still holds
    params = SieveParams(level=level, theta=theta, delta=delta)
    b = certified_budgets(params, n)
    mu = lag_window(b.lag, b.gap_steps) * b.gap_steps / 4
    assert b.lag <= mu < b.lag + b.gap_steps / 2
    assert math.exp(-2 * mu / n) <= math.exp(-2 * b.lag / n) <= theta / 8


def test_certified_screen_is_priced_per_parity_family():
    # the even pairs, and the odd pairs, each take the Hoeffding count at half
    # the screening share of delta, and the walk is pairs + 1 half-blocks of
    # gap/4 mean flips each
    params = SieveParams(level=2, theta=0.3, delta=0.1)
    n = 6
    b = certified_budgets(params, n)
    p_eff = effective_refresh_density(n, b.gap_steps)
    tau = params.theta * (1 - p_eff) / 2
    q = min(p_eff, 1 - p_eff)
    family = math.ceil(64 / (q * tau * tau) * math.log(24 * n / params.delta))
    assert b.screen_pairs == 2 * family
    # one harvest serves both phases: its length is the longer phase's
    lag_halves = lag_pairs(lag_window(b.lag, b.gap_steps), b.estimate_blocks) + 1
    assert lag_halves < b.screen_pairs + 1
    res = bounded_sieve(RandomWalkOracle(and_table(n, [2, 4]), n, seed=7), params)
    mean = (b.screen_pairs + 1) * b.gap_steps / 4
    assert abs(res.walk_steps - mean) <= 5 * math.sqrt(mean)


def test_screening_refresh_density_is_strictly_inside_the_unit_interval():
    # certified_budgets divides by min(p_eff, 1 - p_eff) with no zero guard
    for level in range(1, 64):
        density = SieveParams(level=level, theta=0.1, delta=0.1).density
        for n in range(1, 64):
            p_eff = effective_refresh_density(n, gap_for_density(n, density))
            assert 0.0 < p_eff < 1.0


def test_certified_budgets_can_refuse():
    params = SieveParams(level=3, theta=1e-3, delta=0.1)
    with pytest.raises(BudgetInfeasible):
        certified_budgets(params, 12)


def test_certified_budgets_price_only_the_phases_a_run_draws():
    # at n <= max(level, 2) the sieve pools every coordinate without drawing a
    # pair, so the screen it skips does not count against the ceiling
    params = SieveParams(level=3, theta=0.02, delta=0.1)
    b = certified_budgets(params, 3)
    assert math.ceil((b.screen_pairs + 1) * b.gap_steps / 4) > sieve_mod.BUDGET_CEILING
    f = parity_table(3, [1, 2])
    res = bounded_sieve(RandomWalkOracle(f, 3, seed=1), params)
    window = lag_window(b.lag, b.gap_steps)
    oracle = RandomWalkOracle(f, 3, seed=1)
    harvest = oracle.refresh_pairs(0, b.gap_steps, window, b.estimate_blocks)
    assert len(harvest) == lag_pairs(window, b.estimate_blocks)
    assert res.walk_steps == harvest.walk_steps
    assert res.masks() == [IndexSet.of(3, [1, 2]).mask]
    # where a screen runs and is the longer phase, it prices the walk
    with pytest.raises(
        BudgetInfeasible, match=r"half-blocks at gap 3, set by the screen of \d+ pairs; ceiling"
    ):
        certified_budgets(params, 5)
    # a run too long without its screen names no screen in the refusal
    with pytest.raises(BudgetInfeasible) as info:
        certified_budgets(sieve_params_for(2, 0.25, 0.2), 2)
    assert "pairs" not in str(info.value)
    assert re.search(r"at gap 2, set by the estimate of \d+ lag samples; ceiling", str(info.value))


def test_practical_budgets_log_nothing(caplog):
    # the entry points that choose practical sizes report them, not the library
    params = SieveParams(level=2, theta=0.123457, delta=0.1)
    with caplog.at_level(logging.DEBUG):
        b = practical_budgets(params, 8, 100, 50)
    assert caplog.records == []
    assert b == SieveBudgets(
        screen_pairs=100,
        estimate_blocks=50,
        lag=default_lag(8, params.theta),
        gap_steps=gap_for_density(8, params.density),
    )


# ---------------------------------------------------------------------------
# End-to-end searches on known functions


def test_finds_single_parity():
    n = 8
    f = parity_table(n, [2, 5])
    params = SieveParams(level=2, theta=0.5, delta=0.1)
    budgets = practical_budgets(params, n, screen_pairs=40_000, estimate_blocks=4_000)
    res = run_sieve(f, n, params, budgets, seed=5)
    assert res.masks() == [IndexSet.of(n, [2, 5]).mask]
    assert res.estimates[0] == pytest.approx(1.0)
    # phase one should keep exactly the two relevant coordinates
    assert res.pool.coords() == (2, 5)


def test_finds_all_heavy_sets_of_and2():
    n = 8
    f = and_table(n, [3, 7])
    params = SieveParams(level=2, theta=0.2, delta=0.1)
    budgets = practical_budgets(params, n, screen_pairs=40_000, estimate_blocks=6_000)
    res = run_sieve(f, n, params, budgets, seed=6)
    want = {0, 1 << 2, 1 << 6, (1 << 2) | (1 << 6)}  # all four sq coeffs are 1/4
    assert set(res.masks()) == want
    report = certify_result(res, Spectrum.from_table(f), 0.2, 2)
    assert report.passed and report.violations == ()
    assert bool(report)


def test_empty_set_is_an_eligible_candidate():
    n = 6
    f = constant_table(n, 1)
    params = SieveParams(level=1, theta=0.5, delta=0.1)
    budgets = practical_budgets(params, n, screen_pairs=5_000, estimate_blocks=2_000)
    res = run_sieve(f, n, params, budgets, seed=7)
    assert res.masks() == [0]
    assert len(res.pool) == 0  # nothing to screen in, yet the search still runs


def test_small_n_pools_everything():
    f = parity_table(2, [1])
    params = SieveParams(level=2, theta=0.5, delta=0.2)
    budgets = practical_budgets(params, 2, screen_pairs=100, estimate_blocks=2_000)
    res = run_sieve(f, 2, params, budgets, seed=8)
    assert res.pool.coords() == (1, 2)
    assert res.influences == (math.inf, math.inf)
    assert res.masks() == [0b01]


def test_deterministic_given_oracle_seed():
    n = 8
    rng = np.random.default_rng(14)
    f = random_junta(n, 3, rng).to_truth_table()
    params = SieveParams(level=3, theta=1 / 16, delta=0.1)
    budgets = practical_budgets(params, n, screen_pairs=30_000, estimate_blocks=3_000)
    a = run_sieve(f, n, params, budgets, seed=9)
    b = run_sieve(f, n, params, budgets, seed=9)
    assert a.masks() == b.masks()
    assert a.estimates == b.estimates
    assert a.walk_steps == b.walk_steps


def test_pooled_run_returns_the_exact_heavy_family():
    # a 3-junta's squared coefficients are multiples of 1/16, so theta = 3/64
    # keeps every candidate far from the keep threshold, and the screened run
    # returns exactly the sets of size <= 3 with fhat(S)^2 >= theta
    n = 8
    rng = np.random.default_rng(15)
    f = random_junta(n, 3, rng).to_truth_table()
    params = SieveParams(level=3, theta=3 / 64, delta=0.1)
    budgets = practical_budgets(params, n, screen_pairs=60_000, estimate_blocks=20_000)
    res = run_sieve(f, n, params, budgets, seed=10)
    sq = Spectrum.from_table(f).coeffs ** 2
    heavy = [m for m in range(1 << n) if m.bit_count() <= 3 and sq[m] >= 3 / 64]
    assert sorted(res.masks()) == heavy


def test_pool_stays_inside_relevant_coordinates():
    n = 10
    rng = np.random.default_rng(16)
    h = random_junta(n, 3, rng)
    f = h.to_truth_table()
    params = SieveParams(level=3, theta=1 / 16, delta=0.1)
    budgets = practical_budgets(params, n, screen_pairs=60_000, estimate_blocks=5_000)
    res = run_sieve(f, n, params, budgets, seed=11)
    assert set(res.pool.coords()) <= set(h.J.coords())


def test_pool_stays_inside_relevant_coordinates_across_seeds():
    # the z sigma floor keeps noise out of the pool by design, not by the seed:
    # the same run over oracle seeds 0-99 may pool an irrelevant coordinate
    # only rarely (screening at tau alone did so at 37 of these seeds)
    n = 10
    h = random_junta(n, 3, np.random.default_rng(16))
    f = h.to_truth_table()
    params = SieveParams(level=3, theta=1 / 16, delta=0.1)
    budgets = practical_budgets(params, n, screen_pairs=60_000, estimate_blocks=5_000)
    relevant = set(h.J.coords())
    strays = [
        seed
        for seed in range(100)
        if not set(run_sieve(f, n, params, budgets, seed).pool.coords()) <= relevant
    ]
    assert len(strays) <= 5, strays


def test_screen_pools_at_the_larger_of_tau_and_the_noise_floor(monkeypatch):
    n = 8
    params = SieveParams(level=2, theta=0.2, delta=0.1)
    budgets = practical_budgets(params, n, screen_pairs=50, estimate_blocks=0)
    p_eff = effective_refresh_density(n, budgets.gap_steps)
    tau = params.theta * (1 - p_eff) / 2
    z = NormalDist().inv_cdf(1 - params.delta / (2 * n))
    # pooled: clear of both floors, just above tau, just above z sigma, +inf;
    # left out: below z sigma > tau (twice), below tau with no noise
    above, below = 1.001, 0.999
    contrasts = np.array([1.0, tau * above, tau, 0.5, 0.5, 0.0, tau * below, math.inf])
    sigmas = np.array(
        [0.0, 0.0, tau / z / below, 0.5 / z * below, 0.5 / z / below, 0.0, 0.0, math.inf]
    )
    monkeypatch.setattr(sieve_mod, "estimate_bounded_influence", lambda pairs: (contrasts, sigmas))
    oracle = RandomWalkOracle(parity_table(n, [1]), n, seed=3)
    screened = bounded_sieve(oracle, params, budgets)
    assert screened.pool.coords() == (1, 2, 4, 8)
    assert screened.influences == tuple(contrasts.tolist())
    assert screened.walk_steps == oracle.steps_served > 0


def _recording_harvests(monkeypatch) -> list:
    harvests = []
    draw = RandomWalkOracle.refresh_pairs

    def record(self, *args):
        harvests.append(draw(self, *args))
        return harvests[-1]

    monkeypatch.setattr(RandomWalkOracle, "refresh_pairs", record)
    return harvests


def test_screen_only_run_matches_the_full_sieves_screen(monkeypatch):
    # the full run screens the first screen_pairs pairs of its one harvest:
    # a screen-only run served exactly those pairs pools the same coordinates,
    # keeps no set and counts the candidates phase two scores
    n = 10
    f = and_table(n, [2, 5, 7])
    params = SieveParams(level=2, theta=0.1, delta=0.1)
    budgets = practical_budgets(params, n, screen_pairs=40_000, estimate_blocks=8_000)
    harvests = _recording_harvests(monkeypatch)
    full = run_sieve(f, n, params, budgets, 12)
    (harvest,) = harvests
    assert len(harvest) > budgets.screen_pairs and full.walk_steps == harvest.walk_steps
    monkeypatch.setattr(RandomWalkOracle, "refresh_pairs", lambda self, *args: harvest)
    screen_only = replace(budgets, estimate_blocks=0)
    screened = run_sieve(f, n, params, screen_only, 12)
    assert (screened.sets, screened.estimates, screened.truncated) == ((), (), False)
    assert (screened.pool, screened.influences) == (full.pool, full.influences)
    assert screened.candidates == full.candidates
    # and a screen-only run draws just its screen's pairs, and no lag
    monkeypatch.undo()
    harvests = _recording_harvests(monkeypatch)
    screened = run_sieve(f, n, params, screen_only, 12)
    assert [(len(h), h.lags) for h in harvests] == [(budgets.screen_pairs, None)]
    assert screened.walk_steps == harvests[0].walk_steps


def test_estimating_run_draws_one_harvest_and_no_walk(monkeypatch):
    # the screen and the lag samples read one harvest of max(screen pairs,
    # lag pairs) pairs, and the run's steps are that harvest's flips
    n = 10
    f = and_table(n, [2, 5, 7])
    params = SieveParams(level=2, theta=0.1, delta=0.1)
    monkeypatch.setattr(RandomWalkOracle, "walk", _fail)
    for screen_pairs in (1_000, 400_000):
        budgets = practical_budgets(params, n, screen_pairs, estimate_blocks=4_000)
        harvests = _recording_harvests(monkeypatch)
        res = run_sieve(f, n, params, budgets, 13)
        lags = lag_pairs(lag_window(budgets.lag, budgets.gap_steps), 4_000)
        assert [len(h) for h in harvests] == [max(screen_pairs, lags)]
        assert res.walk_steps == harvests[0].walk_steps
        assert res.masks()


def test_budget_resolution_precedence():
    n = 6
    f = parity_table(n, [1])
    params = SieveParams(level=1, theta=0.5, delta=0.1)
    quick = practical_budgets(params, n, screen_pairs=500, estimate_blocks=200)
    res = bounded_sieve(RandomWalkOracle(f, n, seed=12), params, budgets=quick)
    assert res.budgets is quick
    res2 = bounded_sieve(RandomWalkOracle(f, n, seed=12), params)
    assert res2.budgets == certified_budgets(params, n)


def test_run_mode_follows_who_chose_the_budgets():
    # a run is certified exactly when the sieve derived its own budgets; the
    # budgets carry no mode a caller could set against them
    n = 6
    f = parity_table(n, [1])
    params = SieveParams(level=1, theta=0.5, delta=0.1)
    assert bounded_sieve(RandomWalkOracle(f, n, seed=12), params).mode == "certified"
    for budgets in (certified_budgets(params, n), practical_budgets(params, n, 500, 200)):
        res = bounded_sieve(RandomWalkOracle(f, n, seed=12), params, budgets)
        assert res.mode == "practical"
        assert res.to_dict()["mode"] == "practical"
    with pytest.raises(TypeError):
        SieveBudgets(screen_pairs=10, estimate_blocks=5, lag=2, gap_steps=3, mode="certified")


def _fail(*args):
    raise AssertionError("estimation path not expected here")


def test_pooled_run_above_n_cap_bins_onto_pool():
    # n = 21 is past BULK_WHT_MAX_N, but the screened pool holds 2 coordinates,
    # so estimation bins onto 2^2 cells
    n = 21
    assert n > sieve_mod.BULK_WHT_MAX_N
    f = parity_table(n, [4, 17])
    params = SieveParams(level=2, theta=0.5, delta=0.1)
    budgets = practical_budgets(params, n, screen_pairs=20_000, estimate_blocks=2_000)
    res = run_sieve(f, n, params, budgets, seed=31)
    assert res.pool.coords() == (4, 17)
    assert res.candidates == 4
    assert res.masks() == [IndexSet.of(n, [4, 17]).mask]
    assert res.estimates == (1.0,)  # chi_S samples of chi_S itself are all +1
    assert certify_result(res, Spectrum.from_table(f), 0.5, 2).passed


def test_estimating_run_refuses_a_pool_above_bulk_cap(monkeypatch):
    # one screening pair gives every coordinate a +inf contrast, so all 21
    # stay pooled (theta = 3/8 puts the pool cap at 22), past BULK_WHT_MAX_N:
    # a run that estimates refuses right after its screen, binning none of
    # the lag samples its harvest cut
    n = 21
    monkeypatch.setattr(sieve_mod, "estimate_sq_coeff_bulk", _fail)
    f = parity_table(n, [4, 17])
    params = SieveParams(level=2, theta=3 / 8, delta=0.1)
    assert sieve_mod._pool_cap(params) >= n > sieve_mod.BULK_WHT_MAX_N
    budgets = practical_budgets(params, n, screen_pairs=1, estimate_blocks=2_000)
    oracle = RandomWalkOracle(f, n, seed=31)
    with pytest.raises(PoolOverflow, match="BULK_WHT_MAX_N = 20"):
        bounded_sieve(oracle, params, budgets)
    window = lag_window(budgets.lag, budgets.gap_steps)
    harvest = RandomWalkOracle(f, n, seed=31).refresh_pairs(1, budgets.gap_steps, window, 2_000)
    assert oracle.steps_served == harvest.walk_steps > 0
    # a screen-only run keeps the same 21-coordinate pool and estimates nothing
    screen = RandomWalkOracle(f, n, seed=31).refresh_pairs(1, budgets.gap_steps)
    res = run_sieve(f, n, params, replace(budgets, estimate_blocks=0), seed=31)
    assert res.influences == (math.inf,) * n
    assert len(res.pool) == n
    assert res.candidates == 1 + n + math.comb(n, 2)
    assert (res.sets, res.walk_steps) == ((), screen.walk_steps)
    # at n <= level nothing is screened, and the whole cube is refused unwalked
    unscreened = SieveParams(level=n, theta=3 / 8, delta=0.1)
    oracle = RandomWalkOracle(f, n, seed=31)
    with pytest.raises(PoolOverflow, match="BULK_WHT_MAX_N"):
        bounded_sieve(oracle, unscreened, practical_budgets(unscreened, n, 1, 1))
    assert oracle.steps_served == 0


# ---------------------------------------------------------------------------
# Failure modes and JSON output


def test_pool_overflow_guard(monkeypatch):
    # if screening claims every coordinate is heavy, the Parseval cap trips
    monkeypatch.setattr(
        sieve_mod,
        "estimate_bounded_influence",
        lambda pairs: (np.ones(pairs.n), np.zeros(pairs.n)),
    )
    n = 12
    params = SieveParams(level=1, theta=0.9, delta=0.2)  # cap = ceil(4/0.45) = 9 < 12
    budgets = practical_budgets(params, n, screen_pairs=50, estimate_blocks=5)
    with pytest.raises(PoolOverflow):
        run_sieve(parity_table(n, [1]), n, params, budgets, seed=13)


def test_truncation_at_result_cap(caplog):
    # starved estimation budgets produce spurious keeps; the cap trims them.
    # One screening pair pools every coordinate (+inf contrasts).
    f = parity_table(6, [1])
    params = SieveParams(level=2, theta=0.4, delta=0.2)
    gap = gap_for_density(6, params.density)
    budgets = SieveBudgets(screen_pairs=1, estimate_blocks=2, lag=3, gap_steps=gap)
    with caplog.at_level(logging.WARNING, logger="junta_walk.sieve"):
        res = run_sieve(f, 6, params, budgets, seed=0)
    assert len(res.pool) == 6
    assert res.truncated
    assert len(res.sets) == params.result_cap == 5
    # the kept list is sorted by estimate, so the true parity survives the cut
    assert IndexSet.of(6, [1]).mask in res.masks()
    assert any("dropping the lowest" in r.message for r in caplog.records)


def test_result_to_json():
    f = and_table(5, [1, 2])
    params = SieveParams(level=2, theta=0.2, delta=0.1)
    budgets = practical_budgets(params, 5, screen_pairs=20_000, estimate_blocks=4_000)
    res = run_sieve(f, 5, params, budgets, seed=15)
    obj = json.loads(json.dumps(res.to_dict(), allow_nan=False))
    assert obj["n"] == 5
    assert [sorted(s.coords()) for s in res.sets] == obj["sets"]
    assert obj["mode"] == "practical"
    assert obj["influences"] == list(res.influences)


# ---------------------------------------------------------------------------
# Certification against exact spectra


def _fake_result(n, masks):
    sets = tuple(IndexSet(n, m) for m in masks)
    return SieveResult(
        n=n,
        sets=sets,
        estimates=tuple(0.0 for _ in sets),
        pool=IndexSet(n, 0),
        influences=(),
        candidates=len(sets),
        truncated=False,
        walk_steps=0,
        budgets=SieveBudgets(screen_pairs=1, estimate_blocks=1, lag=1, gap_steps=1),
        mode="practical",
    )


def test_certify_flags_missing_set():
    spec = Spectrum.from_table(parity_table(4, [1, 2]))
    report = certify_result(_fake_result(4, []), spec, theta=0.5, level=2)
    assert not report.passed
    assert any("missing" in v for v in report.violations)


def test_certify_flags_spurious_and_oversized_sets():
    spec = Spectrum.from_table(parity_table(4, [1, 2]))
    good = IndexSet.of(4, [1, 2]).mask
    report = certify_result(
        _fake_result(4, [good, 0b1000]), spec, theta=0.5, level=2
    )
    assert any("spurious" in v for v in report.violations)
    report = certify_result(
        _fake_result(4, [good, 0b1111]), spec, theta=0.5, level=2
    )
    assert any("oversized" in v for v in report.violations)


def test_certify_refuses_a_spectrum_of_another_dimension():
    # auditing a 6-variable result against a 4-variable spectrum is meaningless
    spec = Spectrum.from_table(parity_table(4, [1, 2]))
    with pytest.raises(ValueError, match="spectrum over n=4, sieve result over n=6"):
        certify_result(_fake_result(6, []), spec, theta=0.5, level=2)


def _full_scan_violations(result, truth, theta, level):
    """Reference audit: scans all 2^n coefficients for the missing sets."""
    failures = []
    returned = set(result.masks())
    masks = np.arange(1 << truth.n, dtype=np.uint64)
    sizes = np.bitwise_count(masks)
    sq = np.asarray(truth.coeffs) ** 2
    for mask in np.nonzero((sizes <= level) & (sq >= theta))[0]:
        if int(mask) not in returned:
            failures.append(
                f"missing set mask={int(mask)} with coeff^2={sq[mask]:.6f} >= theta"
            )
    for mask in returned:
        if sq[mask] < theta / 2.0:
            failures.append(
                f"spurious set mask={mask} with coeff^2={sq[mask]:.6f} < theta/2"
            )
        if int(sizes[mask]) > level:
            failures.append(f"oversized set mask={mask} (|S|={int(sizes[mask])})")
    cap = math.ceil(2.0 / theta)
    if len(result.sets) > cap:
        failures.append(f"returned {len(result.sets)} sets, cap {cap}")
    return tuple(failures)


@pytest.mark.parametrize("n", range(1, 11))
def test_low_masks_match_a_popcount_scan(n):
    for level in range(4):
        want = np.flatnonzero(np.bitwise_count(np.arange(1 << n)) <= level)
        got = sieve_mod._masks_up_to(n, level)
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize("n", range(1, 11))
def test_certify_matches_full_scan_reference(n):
    rng = np.random.default_rng(500 + n)
    for level in range(n + 2):
        for theta in (0.02, 0.1, 0.5, 1.0):
            spec = Spectrum(n, rng.normal(size=1 << n) * rng.uniform(0.05, 0.6))
            sq = np.asarray(spec.coeffs) ** 2
            # returned sets miss some heavy sets, add light ones and large ones
            picks = rng.permutation(1 << n)[: rng.integers(0, min(1 << n, 12) + 1)]
            heavy = np.flatnonzero(sq >= theta)
            keep = heavy[rng.random(heavy.size) < 0.7]
            masks = sorted(set(picks.tolist()) | set(keep.tolist()))
            result = _fake_result(n, masks)
            report = certify_result(result, spec, theta, level)
            expected = _full_scan_violations(result, spec, theta, level)
            assert report.violations == expected
            assert report.passed == (not expected)


def test_certify_rejects_negative_level_and_theta_outside_unit_interval():
    spec = Spectrum.from_table(parity_table(4, [1, 2]))
    with pytest.raises(ValueError, match="level=-1"):
        certify_result(_fake_result(4, []), spec, theta=0.5, level=-1)
    for level in (2.0, True):
        with pytest.raises(TypeError, match=f"level={level!r}"):
            certify_result(_fake_result(4, []), spec, theta=0.5, level=level)
    for theta in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match="outside"):
            certify_result(_fake_result(4, []), spec, theta=theta, level=2)


def test_certify_accepts_exact_answer():
    spec = Spectrum.from_table(and_table(4, [1, 2]))
    masks = [0, 0b01, 0b10, 0b11]
    report = certify_result(_fake_result(4, masks), spec, theta=0.2, level=2)
    assert report == CertifyReport(passed=True, violations=())


def test_certified_budget_runs_meet_contract():
    # a handful of certified-mode runs; the acceptance battery does this at scale
    n = 6
    f = and_table(n, [2, 4])
    params = SieveParams(level=2, theta=0.3, delta=0.1)
    spec = Spectrum.from_table(f)
    outputs = []
    for seed in range(5):
        res = bounded_sieve(RandomWalkOracle(f, n, seed=100 + seed), params)
        assert res.mode == "certified"
        assert certify_result(res, spec, 0.3, 2).passed
        outputs.append(json.dumps(res.to_dict()))
    # certified screening sizes put z sigma below tau, so tau alone decides
    # these pools; the digest pins the outputs the plain-walk harvest draws
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    assert digest == "e0d7f7aa88ad9736cb03c04fee8da772eacfaedf46e7db9bc7ba390e98ddc89c"

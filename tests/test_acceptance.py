"""Release gate: every guarantee this package advertises, one test each.

Each test pins a guarantee at its stated tolerance and wall-clock budget, so
``pytest -v tests/test_acceptance.py`` reads as a pass/fail checklist.  The
numeric prefixes only fix the display order.
"""

import time
from itertools import product

import numpy as np
from scipy import stats

from junta_walk.fourier import Spectrum, blocks_for, default_lag, estimate_sq_coeff
from junta_walk.functions import (
    and_table,
    flip_labels_iid,
    parity_table,
    random_junta,
    random_table,
)
from junta_walk.harness import (
    Corruption,
    InstanceSpec,
    default_learn_params,
    run_trial,
)
from junta_walk.hypercube import IndexSet, restriction_indices
from junta_walk.learner import best_junta
from junta_walk.oracle_bruteforce import (
    counterexample_fixtures,
    exact_opt,
    verify_spectrum_lemma,
)
from junta_walk.sieve import SieveParams, bounded_sieve, certify_result, practical_budgets
from junta_walk.walk import (
    RandomWalkOracle,
    gap_for_density,
    generate_walk,
    lag_window,
    sample_size_concentration,
)
from lag_reference import oracle_pairs


def elapsed_since(t0: float) -> float:
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1-2: the end-to-end learner on corrupted and clean 3-juntas


def test_gate_01_noisy_learning_meets_excess_budget():
    """n=12 3-juntas under 10% iid corruption: excess <= 0.25 in >= 24/30 trials."""
    t0 = time.perf_counter()
    spec = InstanceSpec(n=12, k=3, corruption=Corruption(kind="iid", rate=0.1))
    params = default_learn_params(12, 3, epsilon=0.25, delta=0.2)
    passed = sum(
        run_trial(spec, params, trial_seed=1000 + i, trial_id=i).passed
        for i in range(30)
    )
    assert passed >= 24
    assert elapsed_since(t0) <= 600.0


def test_gate_02_noiseless_learning_recovers_exactly():
    """Same setting without corruption: zero distance in >= 29/30 trials."""
    t0 = time.perf_counter()
    spec = InstanceSpec(n=12, k=3)
    params = default_learn_params(12, 3, epsilon=0.25, delta=0.2)
    exact = sum(
        run_trial(spec, params, trial_seed=2000 + i, trial_id=i).delta_hf == 0
        for i in range(30)
    )
    assert exact >= 29
    assert elapsed_since(t0) <= 120.0


# ---------------------------------------------------------------------------
# 3: the sieve's soundness / completeness / cardinality contract


CHI_SETS = [(1,), (5,), (2, 7), (1, 8), (3, 4, 6), (1, 2, 8), (2, 3, 5, 6), (1, 4, 7, 8)]
AND_CASES = [((3,), 0.5), ((2, 5), 0.2), ((1, 4, 7), 0.3), ((2, 3, 5, 8), 0.3)]


def battery_cases():
    """(table, theta, level) cases whose exact squared coefficients all sit
    at least theta/4 away from both decision boundaries theta and theta/2."""
    cases = []
    for coords in CHI_SETS:
        cases.append((parity_table(8, coords), 0.5, len(coords), 5))
    for coords, theta in AND_CASES:
        cases.append((and_table(8, coords), theta, len(coords), 10))
    jrng = np.random.default_rng(424242)
    for _ in range(20):
        junta = random_junta(8, 3, jrng)
        # a 3-junta's coefficients are multiples of 1/4, so squares live on
        # {0, 1/16, 1/4, 9/16, 1}; theta = 3/64 clears both boundaries
        cases.append((junta.to_truth_table(), 3 / 64, 3, 6))
    return cases


def test_gate_03_sieve_battery_certifies():
    """Audited sieve runs pass in >= 90% of 200 seeded runs at delta=0.05."""
    t0 = time.perf_counter()
    runs = passes = 0
    for case_index, (table, theta, level, reps) in enumerate(battery_cases()):
        truth = Spectrum.from_table(table)
        params = SieveParams(level=level, theta=theta, delta=0.05)
        budgets = practical_budgets(
            params, 8, screen_pairs=200_000, estimate_blocks=20_000
        )
        for rep in range(reps):
            oracle = RandomWalkOracle(table, 8, seed=9100 + 97 * case_index + rep)
            result = bounded_sieve(oracle, params, budgets)
            runs += 1
            passes += bool(certify_result(result, truth, theta, level))
    assert runs == 200
    assert passes >= 180
    assert elapsed_since(t0) <= 600.0


# ---------------------------------------------------------------------------
# 4: calibration of the squared-coefficient estimator


def test_gate_04_sq_coefficient_estimator_calibrated():
    """|estimate - truth| <= theta/4 in >= 99% of 300 runs at stock budgets."""
    t0 = time.perf_counter()
    theta = 1 / 16
    # lag for bias theta/8, blocks for sampling error theta/8 w.p. 0.95, read
    # off a harvest at the gap a level-3 sieve screens at
    lag, blocks = default_lag(8, theta), blocks_for(theta / 8, 0.05)
    gap = gap_for_density(8, SieveParams(level=3, theta=theta, delta=0.05).density)
    window = lag_window(lag, gap)
    rng = np.random.default_rng(606060)
    hits = 0
    for i in range(300):
        kind = i % 3
        if kind == 0:
            table = random_junta(8, 3, rng).to_truth_table()
        elif kind == 1:
            coords = rng.choice(np.arange(1, 9), size=3, replace=False)
            table = and_table(8, [int(c) for c in coords])
        else:
            size = int(rng.integers(1, 4))
            coords = rng.choice(np.arange(1, 9), size=size, replace=False)
            table = parity_table(8, [int(c) for c in coords])
        spec = Spectrum.from_table(table)
        sq = np.asarray(spec.coeffs) ** 2
        if i % 2 == 0:
            support = np.nonzero(sq > 1e-12)[0]
            mask = int(rng.choice(support))
        else:
            mask = int(rng.integers(0, 256))
        oracle = RandomWalkOracle(table, 8, seed=40_000 + i)
        samples = oracle.refresh_pairs(0, gap, window, blocks).lags
        est = estimate_sq_coeff(samples, IndexSet(8, mask))
        hits += abs(est - float(sq[mask])) <= theta / 4
    assert hits >= 297
    assert elapsed_since(t0) <= 120.0


# ---------------------------------------------------------------------------
# 5: the harvested refresh pairs' law given their refreshed set


def test_gate_05_harvested_pairs_uniform_given_the_refreshed_set():
    """The refresh pairs the pipeline screens: at n = 3 and the screening gap
    of a level-2 sieve, a harvested pair's x is uniform and y xor x is uniform on
    the cells its refreshed set R allows, given R.  The pairs are those of an
    oracle's harvest, read raw off the harvest kernel's chunks."""
    t0 = time.perf_counter()
    n = 3
    gap = gap_for_density(n, SieveParams(level=2, theta=0.1, delta=0.1).density)
    full = (1 << n) - 1
    pairs = oracle_pairs(parity_table(n, [1]), n, 53, 1_600_000, gap)
    # Pair i shares half-blocks with pairs i - 1 and i + 1.  Pairs 4m whose
    # pair 4m - 2 refreshed every coordinate start from a fresh uniform point,
    # so their (R, x, y xor x) cells are independent draws.
    picks = np.arange(4, len(pairs), 4)
    picks = picks[pairs.refreshed_masks[picks - 2] == full]
    assert len(picks) >= 90_000
    r = pairs.refreshed_masks[picks].astype(np.int64)
    x = pairs.x_bits[picks].astype(np.int64)
    d = (pairs.x_bits[picks] ^ pairs.y_bits[picks]).astype(np.int64)
    assert np.all(d & ~r == 0)
    statistic, dof = 0.0, 0
    for mask in range(full + 1):
        group = r == mask
        # d lies on R, so its bits inside R pick one of 2^|R| cells
        size = bin(mask).count("1")
        inside = np.zeros(len(d), dtype=np.int64)
        for j, i in enumerate(i for i in range(n) if mask >> i & 1):
            inside |= ((d >> i) & 1) << j
        cells = 1 << (n + size)
        counts = np.bincount(x[group] << size | inside[group], minlength=cells)
        assert len(counts) == cells
        expected = group.sum() / cells
        statistic += float(((counts - expected) ** 2).sum() / expected)
        dof += cells - 1
    assert stats.chi2.sf(statistic, dof) >= 0.01
    assert elapsed_since(t0) <= 60.0


# ---------------------------------------------------------------------------
# 6: walk-sample concentration at the planned walk length


def test_gate_06_walk_mean_concentrates_at_planned_length():
    """Empirical mean of a disagreement indicator within 0.1 of exact in
    >= 95 of 100 seeded walks of the planned length m."""
    t0 = time.perf_counter()
    plan = sample_size_concentration(epsilon=0.1, delta=0.1, n=16)
    assert plan.m == 121_401
    rng = np.random.default_rng(88)
    clean = random_junta(16, 2, rng).to_truth_table()
    corrupted = flip_labels_iid(clean, 0.1, rng)
    disagree = (clean.values != corrupted.values).astype(np.float64)
    exact = float(disagree.mean())
    within = 0
    for i in range(100):
        walk = generate_walk(clean, 16, plan.m, 6000 + i)
        within += abs(float(disagree[walk.points].mean()) - exact) <= 0.1
    assert within >= 95
    assert elapsed_since(t0) <= 180.0


# ---------------------------------------------------------------------------
# 7: restriction certificates for best-in-class juntas


def test_gate_07_restriction_certificates_found():
    """For 100 random functions paired with their exact best k-junta, a
    certified restriction with a heavy shared coefficient always exists."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    eps_cycle = (0.1, 0.25, 0.5)
    found = 0
    for i in range(100):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(1, 4))
        f = random_table(n, rng)
        g = exact_opt(f, k).witness.to_truth_table()
        witness = verify_spectrum_lemma(f, g, eps_cycle[i % 3], k=k)
        found += witness is not None
    assert found == 100
    assert elapsed_since(t0) <= 120.0


# ---------------------------------------------------------------------------
# 8: integer-exact spectra of the AND constructions


def test_gate_08_and_construction_fixtures_exact():
    t0 = time.perf_counter()
    for k in range(1, 7):
        report = counterexample_fixtures(k)
        assert report.all_pass, report.to_dict()
    assert elapsed_since(t0) <= 1.0


# ---------------------------------------------------------------------------
# 9: the subcube-majority ERM against literal enumeration


def test_gate_09_subcube_tally_matches_exhaustive_erm():
    """best_junta on a single support equals brute force over all 2^(2^k) tables on
    500 random samples, k <= 3."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(5150)
    for _ in range(500):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(3, n) + 1))
        coords = rng.choice(np.arange(1, n + 1), size=k, replace=False)
        J = IndexSet.of(n, (int(c) for c in coords))
        m = int(rng.integers(20, 200))
        points = rng.integers(0, 1 << n, size=m, dtype=np.uint64)
        labels = rng.choice(np.array([-1, 1], dtype=np.int8), size=m)

        hyp, err = best_junta(points, labels, J, len(J))

        idx = restriction_indices(J, points)
        tables = np.array(list(product((-1, 1), repeat=1 << k)), dtype=np.int8)
        costs = (tables[:, idx] != labels[None, :]).sum(axis=1)
        assert err == int(costs.min())
        assert int(np.sum(hyp.label_bits(points) != labels)) == err
    assert elapsed_since(t0) <= 60.0


# ---------------------------------------------------------------------------
# 10: runtime scaling smoke test


def test_gate_10_runtime_grows_at_most_cubically_in_n():
    """Median learner wall time over n in {8,12,16} at fixed k=2, eps=0.25
    fits a log-log slope <= 3."""
    medians = []
    for n in (8, 12, 16):
        spec = InstanceSpec(n=n, k=2, corruption=Corruption(kind="iid", rate=0.1))
        params = default_learn_params(n, 2, epsilon=0.25, delta=0.2)
        walls = sorted(
            run_trial(spec, params, trial_seed=7000 + 31 * n + i).wall_ms
            for i in range(5)
        )
        medians.append(walls[2])
    slope = float(np.polyfit(np.log([8.0, 12.0, 16.0]), np.log(medians), 1)[0])
    assert slope <= 3.0, f"medians {medians} give slope {slope:.2f}"

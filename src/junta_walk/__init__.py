"""Agnostic learning of k-juntas from labeled random walks on the hypercube."""

from .fourier import (
    Spectrum,
    estimate_bounded_influence,
    estimate_sq_coeff,
    estimate_sq_coeff_bulk,
    subcube_projection_exact,
    wht,
)
from .harness import (
    Corruption,
    ExperimentConfig,
    InstanceSpec,
    TrialReport,
    make_instance,
    run_suite,
    run_trial,
)
from .hypercube import (
    IndexSet,
    JuntaHypothesis,
    TruthTable,
    distance_exact,
)
from .learner import (
    LearnOutcome,
    LearnParams,
    learn_outcome,
    relevant_pool,
    theta_for,
)
from .oracle_bruteforce import (
    OptResult,
    counterexample_fixtures,
    exact_opt,
    verify_spectrum_lemma,
)
from .sieve import (
    BudgetInfeasible,
    CertifyReport,
    PoolOverflow,
    SieveBudgets,
    SieveParams,
    SieveResult,
    bounded_sieve,
    certify_result,
)
from .walk import (
    LabeledWalk,
    LagSamples,
    RandomWalkOracle,
    RefreshHarvest,
    SampleSizePlan,
    ScreenTally,
    generate_walk,
    harvest_refresh_pairs,
    sample_size_concentration,
    sample_size_erm,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetInfeasible",
    "CertifyReport",
    "Corruption",
    "ExperimentConfig",
    "IndexSet",
    "InstanceSpec",
    "JuntaHypothesis",
    "LabeledWalk",
    "LagSamples",
    "LearnOutcome",
    "LearnParams",
    "OptResult",
    "PoolOverflow",
    "RandomWalkOracle",
    "RefreshHarvest",
    "SampleSizePlan",
    "ScreenTally",
    "SieveBudgets",
    "SieveParams",
    "SieveResult",
    "Spectrum",
    "TrialReport",
    "TruthTable",
    "bounded_sieve",
    "certify_result",
    "counterexample_fixtures",
    "distance_exact",
    "estimate_bounded_influence",
    "estimate_sq_coeff",
    "estimate_sq_coeff_bulk",
    "exact_opt",
    "generate_walk",
    "harvest_refresh_pairs",
    "learn_outcome",
    "make_instance",
    "relevant_pool",
    "run_suite",
    "run_trial",
    "sample_size_concentration",
    "sample_size_erm",
    "subcube_projection_exact",
    "theta_for",
    "verify_spectrum_lemma",
    "wht",
]

"""Strategic learning from biased crowd reviews.

A platform rates a service whose quality density is one of two candidates,
based on unverifiable messages from reviewers who privately prefer the rating
high or low.  The package provides:

- ``distributions``: the candidate densities and every fact of their
  families, the log likelihood ratio, and the separation integrals behind
  the commitment mechanism;
- ``game``: posteriors, best-response rating rules, and exact payoffs of the
  one-shot messaging game;
- ``benchmarks``: majority voting and blind abandoning;
- ``equilibrium``: equilibrium enumeration, closed-form system losses,
  honesty thresholds, and the sequential/three-type side analyses;
- ``evolving``: the multi-period truthful commitment schedule, its loss, and
  incentive verification;
- ``montecarlo``: seeded, worker-count-independent simulation of everything;
- ``harness``: experiment configs, sweeps, and CSV/SVG artifacts (also the
  ``cheaptalk-lab`` command line).
"""

from .distributions import (DistributionPair, Family, StateDistribution,
                            alpha_beta, log_likelihood_ratio, normal_pair)
from .game import (ALL_PROFILES, Bias, GameConfig, InferenceRule,
                   PROFILE_LABELS, PROFILES_BY_LABEL, PureStrategy, SC1, SC2,
                   SC3, SC4, SC5, SC6, SC7, SC8, SC9, SC10, SC11, SC12, SC13,
                   SC14, SC15, SC16, ServiceType, StrategyProfile,
                   best_response_rule, expected_platform_cost,
                   expected_user_utility, min_expected_cost,
                   posterior_high)
from .benchmarks import (abandon_scheme, majority_vote_loss,
                         majority_vote_loss_biased, majority_vote_rule)
from .equilibrium import (BiasThresholds, DeviationWitness, PbeCertificate,
                          bayesian_system_loss, bias_thresholds,
                          enumerate_pbe, is_pbe, max_loss_reduction_one_user,
                          one_user_loss, p1_high, p1_low,
                          sequential_two_user_check, symmetric_bias_loss,
                          three_type_loss)
from .evolving import (CommitmentSchedule, ConstantSchedule,
                       crossover_threshold, equal_variance_normal_loss,
                       evolving_loss, solve_schedule, verify_ic)
from .montecarlo import (EvolvingReport, SimulationReport, simulate_evolving,
                         simulate_game)
from .errors import (CheapTalkError, DegenerateHorizon, DivergentIntegral,
                     DivisionOutsideSupport, OutOfRegime, QuadratureFailure,
                     SeparationOverflow, UndecidedEquilibrium)

__version__ = "0.1.0"

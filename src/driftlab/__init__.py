"""driftlab: simulate and classify state/time-dependent random walks.

The walk takes positive up-jumps at rate 1/2 + phi(x, t) and negative
down-jumps at rate 1/2 - phi(x, t), both with i.i.d. mean-1 marks.  The
package simulates such walks exactly, checks them against their
compensators, classifies their long-run behaviour (recurrent vs
transient) from the drift field or from a discretized birth-death
chain, and runs Monte Carlo recurrence/occupancy experiments.
"""

__version__ = "0.5.0"  # draw contract 5 (see simulator and seeding)

import os
import sys

# driftlab makes no BLAS call, yet OpenBLAS starts a worker thread when
# numpy loads, which spins for 60-90 ms of CPU and, when the other core is
# busy, adds 50-75 ms to the import (2 cores, numpy 2.4).  A value the
# caller set, or a numpy it already imported, is left as it is.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .classifier import (
    BDChain,
    Classification,
    DECISION_MARGIN,
    Verdict,
    bd_series_criterion,
    classify_bd_bilateral,
    classify_mv_critical,
    classify_theorem1,
    discretize_to_bd,
    ratio_family_chain,
    ratio_test,
)
from .experiments import (
    BalanceResidual,
    ExperimentReport,
    OccupancyEstimate,
    PathOutcome,
    RecurrenceExperiment,
    balance_residual,
    estimate_occupancy,
    experiment_csv,
    run_recurrence_experiment,
    solve_balance_window,
    wilson_interval,
)
from .fields import (
    Constant1,
    CriticalLamperti,
    DriftField,
    ExponentialMean1,
    GammaMean1,
    JumpLaw,
    MeanReverting,
    PowerLaw,
    RateField,
    Tabulated,
    UniformMean1,
    Zero,
)
from .seeding import path_seed
from .simulator import (
    CompensatorReport,
    MartingaleCheck,
    ResidualMean,
    Trajectory,
    WaldCheck,
    compensator_report,
    martingale_check,
    simulate_compound_poisson,
    simulate_walk,
    trajectory_csv,
    wald_second_moment_check,
)

__all__ = [
    "__version__",
    "BDChain",
    "BalanceResidual",
    "Classification",
    "CompensatorReport",
    "Constant1",
    "CriticalLamperti",
    "DECISION_MARGIN",
    "DriftField",
    "ExperimentReport",
    "ExponentialMean1",
    "GammaMean1",
    "JumpLaw",
    "MartingaleCheck",
    "MeanReverting",
    "OccupancyEstimate",
    "PathOutcome",
    "PowerLaw",
    "RateField",
    "RecurrenceExperiment",
    "ResidualMean",
    "Tabulated",
    "Trajectory",
    "UniformMean1",
    "Verdict",
    "WaldCheck",
    "Zero",
    "balance_residual",
    "bd_series_criterion",
    "classify_bd_bilateral",
    "classify_mv_critical",
    "classify_theorem1",
    "compensator_report",
    "discretize_to_bd",
    "estimate_occupancy",
    "experiment_csv",
    "martingale_check",
    "path_seed",
    "ratio_family_chain",
    "ratio_test",
    "run_recurrence_experiment",
    "simulate_compound_poisson",
    "simulate_walk",
    "solve_balance_window",
    "trajectory_csv",
    "wald_second_moment_check",
    "wilson_interval",
]

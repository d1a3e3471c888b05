"""repro — Supporting User-Defined Functions on Uncertain Data (VLDB 2013).

A from-scratch reproduction of Tran, Diao, Sutton & Liu's framework for
evaluating black-box user-defined functions on uncertain data with
(ε, δ) accuracy guarantees.  The package provides:

* an uncertain-data model (:mod:`repro.distributions`),
* a Gaussian-process regression substrate (:mod:`repro.gp`),
* bounding boxes for local inference (:mod:`repro.index`; training points
  are retrieved with a vectorised distance scan — the paper's R-tree is kept
  there as a reference structure),
* synthetic and astrophysics UDF libraries (:mod:`repro.udf`),
* the core contribution — Monte-Carlo baseline, GP emulation with error
  bounds, and the OLGAPRO online algorithm (:mod:`repro.core`),
* a probabilistic query-engine substrate (:mod:`repro.engine`), and
* workload generators and a benchmark harness (:mod:`repro.workloads`,
  :mod:`repro.bench`).

Quickstart::

    import numpy as np
    from repro import OLGAPRO, AccuracyRequirement, Gaussian, galage_udf

    udf = galage_udf()
    processor = OLGAPRO(udf, AccuracyRequirement(epsilon=0.1, delta=0.05),
                        random_state=0)
    result = processor.process(Gaussian(mu=0.5, sigma=0.02))
    print(result.distribution.mean(), result.error_bound.epsilon_total)
"""

from repro.config import PaperDefaults
from repro.core import (
    OLGAPRO,
    AccuracyRequirement,
    ErrorBudget,
    GPEmulator,
    HybridExecutor,
    MCResult,
    OnlineTupleResult,
    SelectionPredicate,
    discrepancy,
    ks_distance,
    lambda_discrepancy,
    monte_carlo_output,
    monte_carlo_with_filter,
    offline_gp_output,
    required_mc_samples,
)
from repro.distributions import (
    EmpiricalDistribution,
    Exponential,
    Gamma,
    Gaussian,
    IndependentJoint,
    MultivariateGaussian,
    PointMass,
    Uniform,
)
from repro.exceptions import ReproError
from repro.gp import GaussianProcess, Matern32, Matern52, SquaredExponential
from repro.udf import (
    UDF,
    Cosmology,
    angdist_udf,
    comove_vol_udf,
    galage_udf,
    reference_function,
    reference_suite,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "PaperDefaults",
    "ReproError",
    # core
    "OLGAPRO",
    "AccuracyRequirement",
    "ErrorBudget",
    "GPEmulator",
    "HybridExecutor",
    "MCResult",
    "OnlineTupleResult",
    "SelectionPredicate",
    "discrepancy",
    "ks_distance",
    "lambda_discrepancy",
    "monte_carlo_output",
    "monte_carlo_with_filter",
    "offline_gp_output",
    "required_mc_samples",
    # distributions
    "Gaussian",
    "Uniform",
    "Exponential",
    "Gamma",
    "MultivariateGaussian",
    "IndependentJoint",
    "PointMass",
    "EmpiricalDistribution",
    # GP substrate
    "GaussianProcess",
    "SquaredExponential",
    "Matern32",
    "Matern52",
    # UDFs
    "UDF",
    "Cosmology",
    "galage_udf",
    "comove_vol_udf",
    "angdist_udf",
    "reference_function",
    "reference_suite",
]

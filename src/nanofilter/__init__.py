"""Nonlinear Gaussian filtering with natural-gradient measurement updates.

The package provides:

* classical Gaussian filters (KF, EKF, IEKF, UKF, iterated posterior
  linearization) behind one :func:`~nanofilter.filters.filter_step` contract;
* a natural-gradient update (:mod:`nanofilter.nano`) with two
  positive-definiteness-preserving covariance mechanisms;
* sigma-point rules (cubature, unscented, Gauss-Hermite) and Gaussian
  expectation helpers (:mod:`nanofilter.quadrature`);
* three benchmark systems and their mismatch scenarios
  (:mod:`nanofilter.systems`, :mod:`nanofilter.scenarios`);
* a paired Monte Carlo harness with CSV reports and a CLI
  (:mod:`nanofilter.bench`, ``nanobench``).
"""

from .errors import (
    EstimationError,
    GimbalLock,
    LengthMismatch,
    MissingHessian,
    ModelNotLinear,
    NonFiniteFunctionValue,
    NonFiniteIterate,
    NonFiniteState,
    NotPositiveDefinite,
    PDFailure,
    SingularFactor,
    UnknownLevel,
    UnknownScenario,
)
from .linalg import (
    cholesky_factor,
    frobenius_norm,
    spd_inverse,
    spd_solve,
    symmetrize,
)
from .quadrature import (
    CollocationSet,
    SigmaPointRule,
    expected_matrix,
    generate_points,
    parse_rule,
    propagate_moments,
    propagate_with_cross,
)
from .models import (
    LinearParts,
    NoiseSpec,
    StateSpaceModel,
    Trajectory,
    beta_outlier_noise,
    gaussian_noise,
    laplace_noise,
    linear_model,
    mixture_outlier_noise,
    sample_noise,
    simulate_trajectory,
)
from .systems import attitude_model, duffing_model, fm_demodulator
from .scenarios import (
    MODEL_IDS,
    OUTLIER_GRID,
    SYSTEM_ERROR_GRID,
    ScenarioConfig,
    ScenarioSetup,
    scenario_models,
)
from .filters import (
    FILTER_IDS,
    GaussianBelief,
    UpdateDiagnostics,
    ekf_predict,
    ekf_update,
    filter_step,
    iekf_update,
    kf_step,
    kf_update,
    mm_predict,
    plf_update,
    ukf_update,
)
from .nano import (
    NANO_PRESETS,
    NanoConfig,
    NanoIterState,
    chol_cov_step,
    grad_loglik,
    hess_loglik,
    hess_loglik_gn,
    loglik,
    nano_update,
)
from .bench import (
    AblationTable,
    BenchmarkReport,
    FilterStats,
    SweepTable,
    TrialResult,
    ablate,
    emit_ablation,
    emit_report,
    emit_sweep,
    parse_trials_csv,
    rmse,
    run_filter,
    run_monte_carlo,
    run_trial,
    scenario_label,
    sweep_mismatch,
)

__version__ = "0.1.0"

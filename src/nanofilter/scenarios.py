"""Benchmark scenario catalogue.

A :class:`ScenarioConfig` names a benchmark model plus an optional mismatch:

* ``system`` mismatch perturbs one physical parameter of the *filter's* model
  by a relative offset (fm: bandwidth beta, attitude: step size dt, duffing:
  natural frequency); the simulated truth stays nominal.
* ``outlier`` mismatch contaminates the *true* measurement noise with the
  given outlier probability; the filter keeps its nominal Gaussian R.

Levels are restricted to the published grids so sweep tables stay comparable
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnknownLevel, UnknownScenario
from .models import (
    NoiseSpec,
    StateSpaceModel,
    beta_outlier_noise,
    gaussian_noise,
    laplace_noise,
    mixture_outlier_noise,
)
from .quadrature import parse_rule
from .systems import ATTITUDE_LAPLACE_SCALE, attitude_model, duffing_model, fm_demodulator

MODEL_IDS = ("fm", "attitude", "duffing")
MISMATCH_KINDS = ("none", "system", "outlier")

# Relative parameter offsets for "system" mismatch.
SYSTEM_ERROR_GRID = {
    "fm": (0.0, -0.01, 0.01, -0.05, 0.05, -0.1, 0.1),
    "attitude": (0.0, -0.1, 0.1, -0.2, 0.2, -0.3, 0.3),
    "duffing": (0.0, -0.1, 0.1, -0.2, 0.2, -0.3, 0.3),
}

# Outlier probabilities for "outlier" mismatch.
OUTLIER_GRID = {
    "fm": (0.0, 0.01, 0.04, 0.07, 0.1),
    "attitude": (0.0, 0.01, 0.05, 0.1, 0.15),
    "duffing": (0.0, 0.03, 0.05, 0.08, 0.1),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one Monte Carlo experiment."""

    model: str
    mismatch_kind: str = "none"
    mismatch_level: float = 0.0
    horizon: int = 200
    trials: int = 100
    seed: int = 0
    mm: str = "cubature"

    def __post_init__(self):
        if self.model not in MODEL_IDS:
            raise UnknownScenario(f"unknown model {self.model!r}; expected one of {MODEL_IDS}")
        if self.mismatch_kind not in MISMATCH_KINDS:
            raise UnknownScenario(
                f"unknown mismatch kind {self.mismatch_kind!r}; expected one of {MISMATCH_KINDS}"
            )
        _check_level(self.model, self.mismatch_kind, self.mismatch_level)
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        parse_rule(self.mm)


def mismatch_grid(model: str, kind: str) -> tuple[float, ...]:
    """The published levels of a ``system`` or ``outlier`` mismatch for one model."""
    return (SYSTEM_ERROR_GRID if kind == "system" else OUTLIER_GRID)[model]


def _check_level(model: str, kind: str, level: float) -> None:
    if kind == "none":
        if level != 0.0:
            raise UnknownLevel("mismatch level must be 0 when mismatch kind is 'none'")
        return
    grid = mismatch_grid(model, kind)
    if not any(np.isclose(level, lv, rtol=0.0, atol=1e-12) for lv in grid):
        raise UnknownLevel(
            f"level {level} not in the {kind} grid for {model!r}: {grid}"
        )


@dataclass(frozen=True)
class ScenarioSetup:
    """Instantiated scenario: what to simulate and what the filter believes."""

    truth: StateSpaceModel
    filter_view: StateSpaceModel
    process_noise: NoiseSpec
    measurement_noise: NoiseSpec
    init_mean: np.ndarray
    init_cov: np.ndarray


def scenario_models(cfg: ScenarioConfig) -> ScenarioSetup:
    """Build truth/filter models and true noise sources for one scenario."""
    offset = cfg.mismatch_level if cfg.mismatch_kind == "system" else 0.0
    outlier_prob = cfg.mismatch_level if cfg.mismatch_kind == "outlier" else 0.0

    if cfg.model == "fm":
        truth = fm_demodulator()
        filt = fm_demodulator(beta=100.0 * (1.0 + offset))
        process = gaussian_noise(truth.Q)
        if outlier_prob > 0.0:
            measurement = mixture_outlier_noise(outlier_prob, np.eye(2), 100.0 * np.eye(2))
        else:
            measurement = gaussian_noise(truth.R)
        init_mean, init_cov = np.zeros(2), np.eye(2)

    elif cfg.model == "attitude":
        truth = attitude_model()
        filt = attitude_model(dt=0.01 * (1.0 + offset))
        process = laplace_noise(np.full(3, ATTITUDE_LAPLACE_SCALE))
        if outlier_prob > 0.0:
            measurement = beta_outlier_noise(outlier_prob, 1.2, 1.5, 1e-4 * np.eye(6))
        else:
            measurement = gaussian_noise(truth.R)
        init_mean, init_cov = np.zeros(3), 1e-3 * np.eye(3)

    else:  # duffing
        truth = duffing_model()
        filt = duffing_model(natural_freq=1.0 * (1.0 + offset))
        process = gaussian_noise(truth.Q)
        if outlier_prob > 0.0:
            measurement = mixture_outlier_noise(
                outlier_prob, np.array([[1e-2]]), np.array([[1.0]])
            )
        else:
            measurement = gaussian_noise(truth.R)
        init_mean, init_cov = np.zeros(2), np.eye(2)

    return ScenarioSetup(
        truth=truth,
        filter_view=filt,
        process_noise=process,
        measurement_noise=measurement,
        init_mean=init_mean,
        init_cov=init_cov,
    )

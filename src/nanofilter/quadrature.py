"""Sigma-point rules and Gaussian expectations.

A :class:`SigmaPointRule` describes how to discretize a Gaussian N(mu, sigma)
into weighted points; :func:`generate_points` instantiates it for a concrete
moment pair, and the ``propagate_*`` helpers compute the moment-matching
integrals every sigma-point filter is built from.

Every rule is a unit rule ``U`` -- points for N(0, I) plus mean and
covariance weights -- built once per ``(rule, n)`` and cached.  For N(mu, P)
with square root ``S`` (``S S^T = P``, the Cholesky factor by default) the
points are the one affine map ``mu + U S^T``.  The cached grid and weight
arrays are shared by every set built from them and are read-only.

Supported rules (``e_i`` the unit vectors):

``cubature``
    Spherical-radial degree-3 rule, 2n points ``+/- sqrt(n) e_i``, uniform
    weights ``1/(2n)``.
``unscented``
    Unscented transform, 2n+1 points, with the fixed parameters alpha = 1,
    beta = 2, kappa = 3 - n: the origin and ``+/- sqrt(3) e_i``, mean weights
    ``(3 - n)/3`` at the centre and ``1/6`` elsewhere, and ``2`` added to the
    centre covariance weight.
``gauss-hermite``
    Tensor product of the p-point probabilists' Gauss-Hermite rule, ``p**n``
    points; exact for 1-D polynomials up to degree ``2p - 1``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteFunctionValue
from .linalg import all_finite, cholesky_factor, symmetrize, tridiagonal_eigh

GH_MIN_ORDER = 2
GH_MAX_ORDER = 10
# Hard cap on p**n tensor-product points, to fail loudly instead of thrashing.
GH_MAX_POINTS = 100_000

_RULE_KINDS = ("cubature", "unscented", "gauss-hermite")


@dataclass(frozen=True)
class SigmaPointRule:
    """Descriptor for a sigma-point rule; independent of dimension.

    ``order`` only matters for ``gauss-hermite``.
    """

    kind: str = "cubature"
    order: int = 3

    def __post_init__(self):
        if self.kind not in _RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}; expected one of {_RULE_KINDS}")
        if self.kind == "gauss-hermite" and not (GH_MIN_ORDER <= self.order <= GH_MAX_ORDER):
            raise ValueError(
                f"gauss-hermite order must be in [{GH_MIN_ORDER}, {GH_MAX_ORDER}], got {self.order}"
            )


def parse_rule(text: str) -> SigmaPointRule:
    """Parse a rule spelled as ``cubature``, ``unscented`` or ``gh:<p>``."""
    text = text.strip()
    if text == "cubature":
        return SigmaPointRule("cubature")
    if text == "unscented":
        return SigmaPointRule("unscented")
    if text.startswith("gh:"):
        try:
            order = int(text[3:])
        except ValueError as exc:
            raise ValueError(f"bad gauss-hermite order in {text!r}") from exc
        return SigmaPointRule("gauss-hermite", order=order)
    raise ValueError(f"unknown sigma-point rule {text!r}")


@dataclass(frozen=True)
class CollocationSet:
    """Weighted points representing one Gaussian.

    ``points`` is ``center + U @ spread.T`` for the rule's cached unit grid
    ``U``.  ``mean_weights`` are used for means / generic expectations,
    ``cov_weights`` for (co)variances; they differ only for the unscented
    rule's center point.  Both weight arrays are the rule's cached ones,
    shared between sets and read-only.
    """

    points: np.ndarray        # (N, n)
    mean_weights: np.ndarray  # (N,)
    cov_weights: np.ndarray   # (N,)
    center: np.ndarray        # (n,)
    spread: np.ndarray        # (n, n) square root of the covariance (Cholesky
    #                           factor unless the caller supplied another root)


def _hermite_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights of the probabilists' Gauss-Hermite rule (weight = N(0,1)).

    Golub-Welsch: eigen-decompose the symmetric tridiagonal Jacobi matrix with
    zero diagonal and off-diagonal sqrt(1..p-1); weights are the squared first
    eigenvector components (total mass 1).
    """
    off = np.sqrt(np.arange(1, order, dtype=float))
    nodes, vecs = tridiagonal_eigh(np.zeros(order), off)
    weights = vecs[0] ** 2
    return nodes, weights


@functools.lru_cache(maxsize=32)
def _unit_rule(rule: SigmaPointRule, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit grid ``(N, n)`` of ``rule`` for N(0, I), with its mean and covariance weights.

    Depends only on ``(rule, n)``, so each pair is built once per process; the
    three arrays are read-only.
    """
    if rule.kind == "cubature":
        axes = np.sqrt(n) * np.eye(n)
        grid = np.vstack([axes, -axes])
        wm = wc = np.full(2 * n, 1.0 / (2 * n))
    elif rule.kind == "unscented":
        # alpha = 1, kappa = 3 - n: lambda = 3 - n and n + lambda = 3 exactly
        axes = np.sqrt(3.0) * np.eye(n)
        grid = np.vstack([np.zeros((1, n)), axes, -axes])
        wm = np.full(2 * n + 1, 1.0 / 6.0)
        wm[0] = (3.0 - n) / 3.0
        wc = wm.copy()
        wc[0] += 2.0  # 1 - alpha^2 + beta with beta = 2
    else:
        if rule.order ** n > GH_MAX_POINTS:
            raise ValueError(
                f"gauss-hermite tensor product would need {rule.order}**{n} points "
                f"(cap {GH_MAX_POINTS})"
            )
        nodes, weights = _hermite_nodes(rule.order)
        grid = np.array(list(itertools.product(nodes, repeat=n)))
        wm = wc = np.prod(np.array(list(itertools.product(weights, repeat=n))), axis=1)
    for a in (grid, wm, wc):
        a.flags.writeable = False
    return grid, wm, wc


def generate_points(
    rule: SigmaPointRule,
    mean: np.ndarray,
    cov: np.ndarray,
    spread: np.ndarray | None = None,
) -> CollocationSet:
    """Instantiate ``rule`` for the Gaussian N(mean, cov).

    ``spread`` may supply a precomputed matrix square root of ``cov`` (any S
    with ``S @ S.T == cov``); by default the lower Cholesky factor is taken.
    """
    mean = np.asarray(mean, dtype=float)
    spread = cholesky_factor(cov) if spread is None else np.asarray(spread, dtype=float)
    grid, wm, wc = _unit_rule(rule, mean.shape[0])
    return CollocationSet(mean + grid @ spread.T, wm, wc, mean, spread)


def _apply(h: Callable[[np.ndarray], np.ndarray], points: np.ndarray) -> np.ndarray:
    """Evaluate ``h`` on the whole ``(N, n)`` point stack with one call.

    ``h`` must map ``(..., n)`` to ``(..., k)``; a result without one row per
    point means ``h`` only handles single points and raises ``ValueError``.
    """
    vals = np.asarray(h(points), dtype=float)
    if vals.ndim != 2 or vals.shape[0] != len(points):
        raise ValueError(
            f"function mapped {len(points)} stacked points to shape {vals.shape}; "
            "it must accept (..., n) stacks and return (..., k)"
        )
    if not all_finite(vals):
        raise NonFiniteFunctionValue("function returned NaN/Inf at a sigma point")
    return vals


def propagate_moments(
    cset: CollocationSet, h: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of ``h(x)`` for ``x ~`` the set's Gaussian."""
    vals = _apply(h, cset.points)
    mean = cset.mean_weights @ vals
    dev = vals - mean
    cov = symmetrize((dev * cset.cov_weights[:, None]).T @ dev)
    return mean, cov


def propagate_with_cross(
    cset: CollocationSet, h: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Like :func:`propagate_moments` plus the input-output cross-covariance.

    Returns ``(mean, cov, cross)`` with ``cross[i, j] = Cov(x_i, h(x)_j)``.
    """
    vals = _apply(h, cset.points)
    mean = cset.mean_weights @ vals
    dev = vals - mean
    xdev = cset.points - cset.center
    cov = symmetrize((dev * cset.cov_weights[:, None]).T @ dev)
    cross = (xdev * cset.cov_weights[:, None]).T @ dev
    return mean, cov, cross


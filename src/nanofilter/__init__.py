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

Import names from their modules; the package root exports only
``__version__``.
"""

__version__ = "0.1.0"

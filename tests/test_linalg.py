import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nanofilter
from nanofilter import linalg
from nanofilter.errors import EstimationError, NotPositiveDefinite, SingularFactor
from nanofilter.linalg import (
    cholesky_factor,
    identity,
    qr_upper,
    spd_inverse,
    spd_solve,
    symmetrize,
    tril_solve,
    tridiagonal_eigh,
)


def test_cholesky_factor_known_values():
    a = np.array([[4.0, 2.0], [2.0, 5.0]])
    expected = np.array([[2.0, 0.0], [1.0, 2.0]])
    np.testing.assert_allclose(cholesky_factor(a), expected, atol=1e-14)


@pytest.mark.parametrize("n", range(1, 7))
def test_cholesky_factor_roundtrip(n):
    rng = np.random.default_rng(7 + n)
    m = rng.standard_normal((n, n))
    a = m.T @ m + 1e-3 * np.eye(n)
    factor = cholesky_factor(a)
    assert np.allclose(np.tril(factor), factor)  # lower triangular
    np.testing.assert_allclose(factor @ factor.T, a, rtol=1e-12, atol=1e-12)


def test_cholesky_factor_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky_factor(np.diag([1.0, -1e-8]))


def test_cholesky_factor_accepts_ill_conditioned_pd():
    # positive definite but conditioned far beyond float precision
    a = np.diag([1.0, 1e-30])
    factor = cholesky_factor(a)
    np.testing.assert_allclose(factor @ factor.T, a)


@pytest.mark.parametrize(
    "bad, where",
    [
        pytest.param(bad, where, id=f"{name}{suffix}")
        for name, bad in (("nan", np.nan), ("inf", np.inf))
        for where, suffix in (((1, 1), ""), ((0, 1), "-upper"), ((1, 0), "-lower"))
    ],
)
def test_cholesky_factor_rejects_non_finite(bad, where):
    # dpotrf alone accepts a NaN below the diagonal with info 0.
    a = np.eye(2)
    a[where] = bad
    with pytest.raises(NotPositiveDefinite):
        cholesky_factor(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("n", range(1, 5))
def test_cholesky_factor_rejects_non_finite_at_every_entry(n, bad):
    # Each entry alone, and mirrored so that the matrix stays bitwise symmetric.
    for i in range(n):
        for j in range(n):
            for mirrored in (False, True):
                a = 2.0 * np.eye(n)
                a[i, j] = bad
                if mirrored:
                    a[j, i] = bad
                with pytest.raises(NotPositiveDefinite):
                    cholesky_factor(a)


def test_cholesky_factor_accepts_a_signed_zero_pair():
    # Equal in value to its transpose, not in bytes.
    a = np.array([[2.0, 0.0], [-0.0, 3.0]])
    np.testing.assert_array_equal(cholesky_factor(a), cholesky_factor(np.diag([2.0, 3.0])))


def test_cholesky_factor_rejects_asymmetric():
    with pytest.raises(ValueError):
        cholesky_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        cholesky_factor(np.ones((2, 3)))


def test_spd_solve_matches_dense_solve():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = rng.integers(1, 6)
        m = rng.standard_normal((n, n))
        a = m @ m.T + np.eye(n)
        b = rng.standard_normal((n, 3))
        np.testing.assert_allclose(spd_solve(a, b), np.linalg.solve(a, b), rtol=1e-10, atol=1e-12)


def test_spd_inverse_roundtrip():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4))
    a = m @ m.T + np.eye(4)
    inv = spd_inverse(a)
    np.testing.assert_allclose(inv, inv.T)  # symmetrized output
    np.testing.assert_allclose(a @ inv, np.eye(4), atol=1e-12)


def test_identity_is_cached_and_read_only():
    eye = identity(3)
    assert identity(3) is eye
    assert np.array_equal(eye, np.eye(3)) and not eye.flags.writeable
    # dpotrs and dtrtrs copy a read-only right-hand side.
    factor = cholesky_factor(np.array([[4.0, 2.0, 0.0], [2.0, 5.0, 1.0], [0.0, 1.0, 3.0]]))
    assert linalg.chol_solve(factor, eye).tobytes() == linalg.chol_solve(factor, np.eye(3)).tobytes()
    assert tril_solve(factor, eye, trans=True).tobytes() == tril_solve(factor, np.eye(3), trans=True).tobytes()
    assert np.array_equal(eye, np.eye(3))


def test_tridiagonal_eigh_diagonalizes():
    d, e = np.array([1.0, 2.0, 3.0]), np.array([0.5, -0.25])
    vals, vecs = tridiagonal_eigh(d, e)
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.all(np.diff(vals) > 0)
    np.testing.assert_allclose(t @ vecs, vecs * vals, atol=1e-14)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(3), atol=1e-14)


@pytest.mark.parametrize("n", range(1, 7))
def test_lapack_routines_are_scipys(n):
    from scipy.linalg import lapack

    # The fast path, loading scipy's _flapack from its file, is the one taken here.
    assert linalg._flapack.__name__ == "scipy.linalg._flapack"
    rng = np.random.default_rng(100 + n)
    m = rng.standard_normal((n, n))
    a = m @ m.T + np.eye(n)
    b = rng.standard_normal((n, 2))
    tall = rng.standard_normal((n + 2, n))

    def same(ours, theirs):
        assert len(ours) == len(theirs)
        for x, y in zip(ours, theirs):
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()

    same(linalg.dpotrf(a, lower=1, clean=1), lapack.dpotrf(a, lower=1, clean=1))
    factor = lapack.dpotrf(a, lower=1, clean=1)[0]
    same(linalg.dpotrs(factor, b, lower=1), lapack.dpotrs(factor, b, lower=1))
    for trans in (0, 1):
        same(linalg.dtrtrs(factor, b, lower=1, trans=trans), lapack.dtrtrs(factor, b, lower=1, trans=trans))
    same(linalg.dgeqrf(tall), lapack.dgeqrf(tall))


def test_symmetrize():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    np.testing.assert_allclose(symmetrize(a), np.array([[1.0, 1.0], [1.0, 3.0]]))


@pytest.mark.parametrize("trans", [False, True])
def test_tril_solve_matches_dense_solve(trans):
    rng = np.random.default_rng(5)
    factor = np.tril(rng.standard_normal((4, 4))) + 4.0 * np.eye(4)
    b = rng.standard_normal((4, 3))
    lhs = factor.T if trans else factor
    np.testing.assert_allclose(tril_solve(factor, b, trans=trans), np.linalg.solve(lhs, b), rtol=1e-12)


def test_tril_solve_rejects_singular_triangle():
    # A raw dtrtrs returns info > 0 and B unsolved; run_filter counts an
    # EstimationError as a divergence.
    factor = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(SingularFactor):
        tril_solve(factor, np.eye(2))
    assert issubclass(SingularFactor, EstimationError)


def test_qr_upper_is_the_r_factor():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 3))
    upper = qr_upper(a)
    assert np.array_equal(np.triu(upper), upper)
    np.testing.assert_allclose(upper.T @ upper, a.T @ a, rtol=1e-12, atol=1e-12)


# Factorizations and solves belong to linalg.py alone, with no exemption:
# quadrature's Gauss-Hermite nodes come from linalg.tridiagonal_eigh.
SCIPY_EXEMPT: set[str] = set()
NUMPY_FACTORIZATIONS = {"cholesky", "qr", "solve", "inv"}


def _factorizations_outside_linalg(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.startswith("scipy.linalg")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                path = f"{node.module}.{alias.name}"
                if path.startswith("scipy.linalg") and alias.name not in SCIPY_EXEMPT:
                    found.append(path)
                elif node.module == "numpy.linalg" and alias.name in NUMPY_FACTORIZATIONS:
                    found.append(path)
        elif isinstance(node, ast.Attribute) and node.attr in NUMPY_FACTORIZATIONS:
            if ast.unparse(node.value) in ("np.linalg", "numpy.linalg"):
                found.append(ast.unparse(node))
    return found


def test_factorization_finder_sees_each_form():
    source = (
        "import scipy.linalg\n"
        "from scipy.linalg import cho_solve, eigh_tridiagonal\n"
        "from scipy import linalg\n"
        "from numpy.linalg import inv, norm\n"
        "x = np.linalg.qr(a, mode='r')\n"
        "y = np.linalg.norm(a)\n"
    )
    assert _factorizations_outside_linalg(ast.parse(source)) == [
        "scipy.linalg", "scipy.linalg.cho_solve", "scipy.linalg.eigh_tridiagonal", "scipy.linalg",
        "numpy.linalg.inv", "np.linalg.qr",
    ]


def test_one_linalg_layer():
    package = Path(nanofilter.__file__).parent
    modules = sorted(p for p in package.rglob("*.py") if p.name != "linalg.py")
    assert modules
    found = {
        str(p.relative_to(package)): uses
        for p in modules
        if (uses := _factorizations_outside_linalg(ast.parse(p.read_text(), filename=str(p))))
    }
    assert found == {}


# One filter step of every nonlinear id under gh:3 on each benchmark model,
# in a fresh interpreter; prints which LAPACK module linalg took, which heavy
# modules got imported, and a digest of every posterior and error.
COLD_START = """
import hashlib, json, sys
import nanofilter.bench, nanofilter.cli, nanofilter.nano
from nanofilter import linalg
from nanofilter.errors import EstimationError
from nanofilter.filters import FILTER_IDS, GaussianBelief, filter_step
from nanofilter.quadrature import parse_rule
from nanofilter.scenarios import MODEL_IDS, ScenarioConfig, scenario_models

digest = hashlib.sha256()
for model in MODEL_IDS:
    cfg = ScenarioConfig(model=model, trials=1, horizon=3, seed=0)
    setup = scenario_models(cfg)
    traj = nanofilter.bench.make_trajectory(cfg, 0, setup)
    u = traj.inputs[0] if traj.inputs is not None else None
    for fid in FILTER_IDS[1:]:
        belief = GaussianBelief(setup.init_mean, setup.init_cov)
        try:
            post, diag = filter_step(fid, belief, u, traj.measurements[0], setup.filter_view,
                                     rule=parse_rule("gh:3"))
            digest.update(post.mean.tobytes() + post.cov.tobytes() + repr(diag.iterations).encode())
        except EstimationError as exc:
            digest.update(type(exc).__name__.encode())
print(json.dumps({
    "lapack": linalg._flapack.__name__,
    "imported": sorted(m for m in ("scipy.linalg", "numpy.f2py") if m in sys.modules),
    "digest": digest.hexdigest(),
}))
"""

# Makes the direct load of scipy's _flapack fail, as a missing or broken file would.
BREAK_DIRECT_LOAD = """
import importlib.abc  # registers the real loader class before it is replaced
import importlib.machinery

class _Refuse(importlib.machinery.ExtensionFileLoader):
    def create_module(self, spec):
        raise ImportError("direct load disabled")

importlib.machinery.ExtensionFileLoader = _Refuse
"""


def _cold_start(prelude: str = "") -> dict:
    env = dict(os.environ)
    src = str(Path(nanofilter.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", prelude + COLD_START],
        capture_output=True, text=True, timeout=120, env=env, check=True,
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def cold_start():
    return _cold_start()


def test_cold_start_skips_scipy_linalg(cold_start):
    assert cold_start["lapack"] == "scipy.linalg._flapack"
    assert cold_start["imported"] == []


def test_fallback_to_scipy_linalg_lapack_gives_the_same_steps(cold_start):
    fallback = _cold_start(BREAK_DIRECT_LOAD)
    assert fallback["lapack"] == "scipy.linalg.lapack"
    assert "scipy.linalg" in fallback["imported"]
    assert fallback["digest"] == cold_start["digest"]

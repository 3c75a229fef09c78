import ast
from pathlib import Path

import numpy as np
import pytest

import nanofilter
from nanofilter.errors import EstimationError, NotPositiveDefinite, SingularFactor
from nanofilter.linalg import cholesky_factor, qr_upper, spd_inverse, spd_solve, symmetrize, tril_solve


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


# Factorizations and solves belong to linalg.py alone.  quadrature's
# eigh_tridiagonal, which builds the cached Gauss-Hermite nodes once per
# order, is the one exemption.
SCIPY_EXEMPT = {"eigh_tridiagonal"}
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
        "scipy.linalg", "scipy.linalg.cho_solve", "scipy.linalg", "numpy.linalg.inv", "np.linalg.qr",
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

import numpy as np
import pytest

from conftest import UNIT, random_complex
from fredholm_bvp import (BoundaryOperator, CoefficientSet, LebesgueExponent, PointTerm,
                          ProblemSpec, cos_sqrt, matrix_exp, one_point_first_order, phi,
                          sinc_sqrt, two_point_damped, two_point_oscillatory)
from fredholm_bvp.cli import _oracle_from_problem


def test_exp_of_zero():
    result = matrix_exp(np.zeros((3, 3)))
    np.testing.assert_array_equal(result.value, np.eye(3))


def test_exp_diagonal():
    lam = np.array([0.3, -1.2 + 0.5j])
    result = matrix_exp(np.diag(lam), 0.7)
    np.testing.assert_allclose(result.value, np.diag(np.exp(lam * 0.7)), atol=1e-12)


def test_exp_nilpotent_is_exact_polynomial():
    # strictly upper triangular: the series terminates, I + As + A^2 s^2/2
    a = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
    s = 1.7
    expected = np.eye(3) + a * s + a @ a * s * s / 2.0
    result = matrix_exp(a, s)
    np.testing.assert_allclose(result.value, expected, atol=1e-12)


def test_exp_large_norm_uses_squaring():
    a = np.array([[3.0, 1.0], [0.0, 2.0]])
    result = matrix_exp(a, 4.0)
    from scipy.linalg import expm

    np.testing.assert_allclose(result.value, expm(a * 4.0), rtol=1e-10)
    assert result.truncation_bound < 1e-6 * np.abs(result.value).sum()


def test_exp_overflow_is_explicit():
    with pytest.raises((OverflowError, ValueError)):
        matrix_exp(np.array([[2000.0]]), 1.0)


def test_phi_at_zero_matrix():
    result = phi(np.zeros((2, 2)), 0.8)
    np.testing.assert_allclose(result.value, 0.8 * np.eye(2), atol=1e-15)


def test_phi_scalar_oracle():
    # oracle: (1 - exp(-1)) / 1
    result = phi(np.array([[1.0]]), 1.0)
    assert result.value[0, 0] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-14)


def test_phi_diagonal():
    lam = np.array([0.5, 2.0 - 1.0j])
    result = phi(np.diag(lam), 1.3)
    expected = np.diag((1.0 - np.exp(-lam * 1.3)) / lam)
    np.testing.assert_allclose(result.value, expected, atol=1e-12)


def test_trig_at_zero_matrix():
    np.testing.assert_array_equal(cos_sqrt(np.zeros((2, 2)), 1.0).value, np.eye(2))
    np.testing.assert_allclose(sinc_sqrt(np.zeros((2, 2)), 0.6).value, 0.6 * np.eye(2),
                               atol=1e-15)


def test_trig_scalar_oracle():
    omega, s = 2.0, 0.9
    assert cos_sqrt(np.array([[omega**2]]), s).value[0, 0] == pytest.approx(
        np.cos(omega * s), abs=1e-12)
    assert sinc_sqrt(np.array([[omega**2]]), s).value[0, 0] == pytest.approx(
        np.sin(omega * s) / omega, abs=1e-12)


def test_cos_sqrt_diagonal_at_pi():
    result = cos_sqrt(np.diag([1.0, 4.0]), np.pi)
    np.testing.assert_allclose(result.value, np.diag([-1.0, 1.0]), atol=1e-12)


def test_semigroup_property():
    rng = np.random.default_rng(30)
    a = random_complex(rng, 3, 3) * 0.5
    left = matrix_exp(a, 0.4).value @ matrix_exp(a, 0.9).value
    right = matrix_exp(a, 1.3).value
    assert np.abs(left - right).max() <= 1e-10


def test_exp_derivative_by_finite_differences():
    rng = np.random.default_rng(31)
    a = random_complex(rng, 2, 2) * 0.7
    s = 0.6
    errors = []
    for h in (1e-3, 5e-4):
        fd = (matrix_exp(-a, s + h).value - matrix_exp(-a, s - h).value) / (2 * h)
        errors.append(np.abs(fd + a @ matrix_exp(-a, s).value).max())
    assert errors[0] <= 1e-5
    assert 3.0 <= errors[0] / errors[1] <= 5.0  # O(h^2)


def test_pythagorean_identity_scalar():
    omega, s = 1.7, 0.8
    a = np.array([[omega**2]])
    c = cos_sqrt(a, s).value[0, 0]
    v = sinc_sqrt(a, s).value[0, 0]
    assert abs(c * c + omega**2 * v * v - 1.0) <= 1e-10


def test_series_agree_with_eigendecomposition():
    rng = np.random.default_rng(32)
    for _ in range(5):
        v = random_complex(rng, 3, 3)
        lam = random_complex(rng, 3)
        a = v @ np.diag(lam) @ np.linalg.inv(v)
        s = 0.8

        def via_eig(scalar_fn):
            return v @ np.diag(scalar_fn(lam)) @ np.linalg.inv(v)

        np.testing.assert_allclose(matrix_exp(a, s).value,
                                   via_eig(lambda z: np.exp(z * s)), atol=1e-8)
        np.testing.assert_allclose(phi(a, s).value,
                                   via_eig(lambda z: (1 - np.exp(-z * s)) / z), atol=1e-8)
        np.testing.assert_allclose(cos_sqrt(a, s).value,
                                   via_eig(lambda z: np.cos(np.sqrt(z) * s)), atol=1e-8)
        np.testing.assert_allclose(sinc_sqrt(a, s).value,
                                   via_eig(lambda z: np.sin(np.sqrt(z) * s) / np.sqrt(z)),
                                   atol=1e-8)


def test_truncation_bound_is_tracked():
    result = cos_sqrt(np.eye(2) * 2.0, 1.0)
    assert result.series_terms > 2
    assert 0.0 <= result.truncation_bound < 1e-12


def test_oracle_zero_sum_configuration():
    # order-0 matrices I and -I cancel regardless of everything else
    coeffs = CoefficientSet(1, 2, 1, (np.zeros((2, 2)),))
    boundary = BoundaryOperator(2, (PointTerm(0.0, 0, np.eye(2)), PointTerm(0.5, 0, -np.eye(2)),
                                    PointTerm(0.5, 1, np.ones((2, 2)))))
    problem = ProblemSpec(UNIT, coeffs, boundary, LebesgueExponent(2.0))
    name, oracle = _oracle_from_problem(problem)
    assert name == "multipoint-zero-coefficient"
    np.testing.assert_array_equal(oracle, np.zeros((2, 2)))


def test_oracle_power_sum_zero_matrix():
    rng = np.random.default_rng(33)
    alphas = [random_complex(rng, 2, 2) for _ in range(3)]
    oracle = one_point_first_order(np.zeros((2, 2)), alphas)
    np.testing.assert_allclose(oracle, alphas[0], atol=1e-15)


def test_oracle_one_point_second_order_blocks():
    rng = np.random.default_rng(34)
    m = 2
    a = random_complex(rng, m, m) * 0.5
    alphas = [random_complex(rng, m, m) for _ in range(3)]
    zeros = [np.zeros((m, m)) for _ in range(3)]
    oracle = two_point_damped(a, alphas, zeros, 1.0)
    np.testing.assert_allclose(oracle[:, :m], alphas[0], atol=1e-14)
    np.testing.assert_allclose(oracle[:, m:], alphas[1] + alphas[2] @ (-a), atol=1e-12)
    longer = two_point_damped(a, alphas, zeros, 2.0)
    np.testing.assert_allclose(oracle, longer, atol=1e-14)


@pytest.mark.parametrize("n_alphas, n_betas", [(3, 2), (2, 3)])
def test_two_point_oracles_reject_unequal_lengths(n_alphas, n_betas):
    rng = np.random.default_rng(35)
    a = random_complex(rng, 2, 2) * 0.5
    alphas = [random_complex(rng, 2, 2) for _ in range(n_alphas)]
    betas = [random_complex(rng, 2, 2) for _ in range(n_betas)]
    for oracle in (two_point_damped, two_point_oscillatory):
        with pytest.raises(ValueError, match="alphas and betas must have equal length"):
            oracle(a, alphas, betas, 1.0)

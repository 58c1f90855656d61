import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import UNIT, endpoint_blocks, expm_characteristic, matrix_polynomial, random_complex
from fredholm_bvp import (BoundaryOperator, CoefficientSet, ConstantFunction, IntegralTerm,
                          Interval, LebesgueExponent, PointTerm, ProblemSpec,
                          exact_characteristic_matrix, matrix_exp)
from fredholm_bvp.grid import P2


def ramp(a, s):
    """(1 - exp(-a s)) a^{-1}, continued through singular a."""
    return endpoint_blocks(np.zeros_like(a), a, s)[1]


def cos_sqrt(a, s):
    return endpoint_blocks(a, np.zeros_like(a), s)[0]


def sinc_sqrt(a, s):
    return endpoint_blocks(a, np.zeros_like(a), s)[1]


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


# The ramp and the trigonometric pair are the fundamental solutions of the
# damped (A_0 = 0) and oscillatory (A_1 = 0) second-order equations, read
# here off the exact characteristic matrix of B y = y(s).


def test_phi_at_zero_matrix():
    np.testing.assert_allclose(ramp(np.zeros((2, 2)), 0.8), 0.8 * np.eye(2), atol=1e-15)


def test_phi_scalar_oracle():
    # oracle: (1 - exp(-1)) / 1
    assert ramp(np.array([[1.0]]), 1.0)[0, 0] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-14)


def test_phi_diagonal():
    lam = np.array([0.5, 2.0 - 1.0j])
    expected = np.diag((1.0 - np.exp(-lam * 1.3)) / lam)
    np.testing.assert_allclose(ramp(np.diag(lam), 1.3), expected, atol=1e-12)


def test_trig_at_zero_matrix():
    np.testing.assert_array_equal(cos_sqrt(np.zeros((2, 2)), 1.0), np.eye(2))
    np.testing.assert_allclose(sinc_sqrt(np.zeros((2, 2)), 0.6), 0.6 * np.eye(2), atol=1e-15)


def test_trig_scalar_oracle():
    omega, s = 2.0, 0.9
    assert cos_sqrt(np.array([[omega**2]]), s)[0, 0] == pytest.approx(np.cos(omega * s), abs=1e-12)
    assert sinc_sqrt(np.array([[omega**2]]), s)[0, 0] == pytest.approx(
        np.sin(omega * s) / omega, abs=1e-12)


def test_cos_sqrt_diagonal_at_pi():
    np.testing.assert_allclose(cos_sqrt(np.diag([1.0, 4.0]), np.pi), np.diag([-1.0, 1.0]),
                               atol=1e-12)


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
    c = cos_sqrt(a, s)[0, 0]
    v = sinc_sqrt(a, s)[0, 0]
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
        np.testing.assert_allclose(ramp(a, s),
                                   via_eig(lambda z: (1 - np.exp(-z * s)) / z), atol=1e-8)
        np.testing.assert_allclose(cos_sqrt(a, s),
                                   via_eig(lambda z: np.cos(np.sqrt(z) * s)), atol=1e-8)
        np.testing.assert_allclose(sinc_sqrt(a, s),
                                   via_eig(lambda z: np.sin(np.sqrt(z) * s) / np.sqrt(z)),
                                   atol=1e-8)


def test_truncation_bound_is_tracked():
    result = matrix_exp(np.eye(2) * 0.2, 1.0)
    assert result.series_terms > 2
    assert 0.0 <= result.truncation_bound < 1e-12


def test_oracle_zero_sum_configuration():
    # order-0 matrices I and -I cancel regardless of everything else
    coeffs = CoefficientSet(1, 2, 1, (np.zeros((2, 2)),))
    boundary = BoundaryOperator(2, (PointTerm(0.0, 0, np.eye(2)), PointTerm(0.5, 0, -np.eye(2)),
                                    PointTerm(0.5, 1, np.ones((2, 2)))))
    problem = ProblemSpec(UNIT, coeffs, boundary, LebesgueExponent(2.0))
    np.testing.assert_array_equal(exact_characteristic_matrix(problem), np.zeros((2, 2)))


def test_oracle_power_sum_zero_matrix():
    rng = np.random.default_rng(33)
    alphas = [random_complex(rng, 2, 2) for _ in range(3)]
    coeffs = CoefficientSet(1, 2, 2, (np.zeros((2, 2)),))
    boundary = BoundaryOperator(2, tuple(PointTerm(0.0, k, alpha) for k, alpha in enumerate(alphas)))
    oracle = exact_characteristic_matrix(ProblemSpec(UNIT, coeffs, boundary, P2))
    np.testing.assert_allclose(oracle, alphas[0], atol=1e-15)


def test_oracle_one_point_second_order_blocks():
    rng = np.random.default_rng(34)
    m = 2
    a = random_complex(rng, m, m) * 0.5
    alphas = [random_complex(rng, m, m) for _ in range(3)]
    coeffs = CoefficientSet(2, m, 1, (np.zeros((m, m)), a))
    boundary = BoundaryOperator(m, tuple(PointTerm(0.0, k, alpha) for k, alpha in enumerate(alphas)))

    def oracle(length):
        return exact_characteristic_matrix(ProblemSpec(Interval(0.0, length), coeffs, boundary, P2))

    np.testing.assert_allclose(oracle(1.0)[:, :m], alphas[0], atol=1e-14)
    np.testing.assert_allclose(oracle(1.0)[:, m:], alphas[1] + alphas[2] @ (-a), atol=1e-12)
    np.testing.assert_allclose(oracle(1.0), oracle(2.0), atol=1e-14)


def test_oracle_kernel_is_the_difference_of_the_order_below():
    # int_a^b K y^(n+r) = K (y^(n+r-1)(b) - y^(n+r-1)(a)): a kernel term
    # equals the point terms K at b and -K at a of order n+r-1
    rng = np.random.default_rng(36)
    m, n = 2, 1
    coeffs = CoefficientSet(2, m, n, (random_complex(rng, m, m), random_complex(rng, m, m)))
    kernel = random_complex(rng, m, m)
    interval = Interval(-0.5, 0.7)
    with_kernel = BoundaryOperator(m, (), IntegralTerm(ConstantFunction(kernel)))
    as_points = BoundaryOperator(m, (PointTerm(interval.b, n + 1, kernel),
                                     PointTerm(interval.a, n + 1, -kernel)))
    np.testing.assert_allclose(
        exact_characteristic_matrix(ProblemSpec(interval, coeffs, with_kernel, P2)),
        exact_characteristic_matrix(ProblemSpec(interval, coeffs, as_points, P2)), atol=1e-13)


def test_oracle_rejects_a_varying_coefficient_or_kernel():
    boundary = BoundaryOperator(1, (PointTerm(0.0, 0, np.eye(1)),))
    varying = matrix_polynomial([[[0.0]], [[1.0]]])
    problem = ProblemSpec(UNIT, CoefficientSet(2, 1, 0, (np.eye(1), varying)), boundary, P2)
    with pytest.raises(ValueError, match="coefficient A_1 varies with t"):
        exact_characteristic_matrix(problem)
    kernel = BoundaryOperator(1, (), IntegralTerm(matrix_polynomial([[[0.0]], [[1.0]]])))
    problem = ProblemSpec(UNIT, CoefficientSet(1, 1, 0, (np.eye(1),)), kernel, P2)
    with pytest.raises(ValueError, match="integral kernel varies with t"):
        exact_characteristic_matrix(problem)


@settings(max_examples=120, deadline=None)
@given(r=st.integers(1, 3), m=st.integers(1, 2), n=st.integers(0, 2),
       with_kernel=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_exact_matrix_matches_expm_and_van_loan(r, m, n, with_kernel, seed):
    # any order, endpoints and four interior points, a != 0, kernel absent or constant
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(-1.0, 1.0))
    interval = Interval(a, a + float(rng.uniform(0.2, 2.0)))
    w, q = r * m, r * m + int(rng.integers(-1, 2))
    q = max(q, 1)
    coeffs = CoefficientSet(r, m, n, tuple(random_complex(rng, m, m) * (1.5 / (r * m))
                                           for _ in range(r)))
    points = [interval.a, interval.b] + list(rng.uniform(interval.a, interval.b, size=4))
    terms = tuple(PointTerm(float(t), int(rng.integers(0, n + r)), random_complex(rng, q, m))
                  for t in points)
    integral = IntegralTerm(ConstantFunction(random_complex(rng, q, m))) if with_kernel else None
    problem = ProblemSpec(interval, coeffs, BoundaryOperator(q, terms, integral), P2)
    exact = exact_characteristic_matrix(problem)
    reference = expm_characteristic(problem)
    assert exact.shape == (q, w)
    assert np.abs(exact - reference).max() <= 1e-12 * np.abs(reference).max()

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracflux.flux import LAWS, FluxKind, apparent_advection, face_fluxes
from fracflux.weights import FFT_MIN_N, build_table
from oracles import face_fluxes_direct, grunwald_coefficients, partial_g_sum, rl_faces_grunwald

FOURIER = FluxKind.FOURIER
RL = FluxKind.RIEMANN_LIOUVILLE
CAPUTO = FluxKind.CAPUTO
PARSIMONIOUS = FluxKind.PARSIMONIOUS


def _max_rel(a, b):
    gap = np.abs(a - b).max()
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
    return gap / scale


@st.composite
def field_and_table(draw, alpha_min=0.05):
    n = draw(st.integers(min_value=2, max_value=128))
    alpha = draw(st.floats(min_value=alpha_min, max_value=1.0))
    # keep magnitudes out of the gradual-underflow range, where products
    # with the weights would lose bits
    element = st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-100, max_value=10.0),
        st.floats(min_value=-10.0, max_value=-1e-100),
    )
    u = draw(arrays(np.float64, n + 1, elements=element))
    return u, build_table(alpha, 1.0 / n, n)


# ---------------------------------------------------------------- fourier


def test_fourier_constant_field_is_fluxless():
    q = face_fluxes(np.full(9, 3.7), FOURIER, build_table(0.5, 0.125, 8))
    assert np.all(q == 0.0)


def test_fourier_unit_slope():
    x = np.arange(9) * 0.125  # dyadic spacing keeps everything exact
    q = face_fluxes(x, FOURIER, build_table(0.5, 0.125, 8))
    assert np.array_equal(q, np.full(8, -1.0))


def test_fourier_hat_example():
    q = face_fluxes(np.array([0.0, 1.0, 0.0]), FOURIER, build_table(0.5, 0.5, 2))
    assert np.array_equal(q, [-2.0, 2.0])


def test_fourier_domain_errors():
    # build_table is the dx gate; its NaN and inf cases are in test_weights
    with pytest.raises(ValueError):
        face_fluxes(np.array([1.0]), FOURIER, build_table(0.5, 0.1, 3))
    for dx in (0.0, -0.5):
        with pytest.raises(ValueError):
            face_fluxes(np.arange(4.0), FOURIER, build_table(0.5, dx, 3))


# ---------------------------------------------------- riemann-liouville


def test_rl_constant_field_has_negative_flux():
    # nonzero on constants: q[i] = -a * dx**(-alpha) * (g_0 + .. + g_{i+1})
    a, n, dx = 2.5, 20, 0.01
    table = build_table(0.5, dx, n)
    u = np.full(n + 1, a)
    for q in (rl_faces_grunwald(u, table), face_fluxes(u, RL, table)):
        assert np.all(q < 0.0)
        expected = np.array(
            [-a * dx**-0.5 * partial_g_sum(table, i + 1) for i in range(n)]
        )
        np.testing.assert_allclose(q, expected, rtol=1e-12)


def test_rl_zero_field_is_fluxless():
    table = build_table(0.7, 0.02, 50)
    assert np.all(rl_faces_grunwald(np.zeros(51), table) == 0.0)
    assert np.all(face_fluxes(np.zeros(51), RL, table) == 0.0)


def test_size_mismatch_raises():
    table = build_table(0.5, 0.02, 50)
    u = np.zeros(20)
    with pytest.raises(ValueError):
        rl_faces_grunwald(u, table)
    for kind in FluxKind:
        with pytest.raises(ValueError):
            face_fluxes(u, kind, table)


def _summation_error_bound(u, table):
    """Per-face bound on |grunwald - weighted| from rounding alone.

    A float64 sum of k terms is off by at most gamma_k times the sum of
    the terms' magnitudes (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 4).  The bound adds that quantity for both routes;
    k = n + 4 covers the longest sum plus the scaling, the gradient and
    the rounding of the weights themselves.
    """
    n, dx = table.n, table.dx
    k = n + 4
    unit = np.finfo(np.float64).eps / 2
    gamma = k * unit / (1 - k * unit)
    g = grunwald_coefficients(table.alpha, n)
    grunwald = dx**-table.alpha * np.convolve(np.abs(g), np.abs(u))[1 : n + 1]
    gradient = np.abs(np.diff(u)) / dx
    weighted = np.convolve(table.w, gradient)[:n] + table.w[1:] * abs(u[0]) / dx
    return gamma * (grunwald + weighted)


def _constant_case(alpha, n, value):
    return np.full(n + 1, value), build_table(alpha, 1.0 / n, n)


# The two routes are algebraically identical but not equally conditioned:
# on constant fields with alpha near 1 the shifted-Grunwald sum cancels
# to a few ulps of its terms, so only an absolute, per-face agreement
# scaled by the terms' magnitudes is promised.
@settings(deadline=None)
@given(data=field_and_table())
@example(data=_constant_case(0.9999999999999999, 2, 3.0))
@example(data=_constant_case(0.9999999999999999, 2, 1e-100))
@example(data=_constant_case(0.99999, 2, 1e-100))
@example(data=_constant_case(0.9999999999999999, 15, 1.0))
def test_grunwald_and_weighted_forms_agree(data):
    u, table = data
    qa = rl_faces_grunwald(u, table)
    qb = face_fluxes(u, RL, table)
    assert np.all(np.abs(qa - qb) <= _summation_error_bound(u, table))


@settings(deadline=None)
@given(data=field_and_table())
def test_rl_decomposition_identity(data):
    # the weighted form is exactly the caputo flux plus the apparent advection
    u, table = data
    advective = apparent_advection(u[0], table)
    assert np.array_equal(face_fluxes(u, RL, table), face_fluxes(u, CAPUTO, table) + advective)
    expected_adv = -(table.w[1:] / table.dx) * u[0]
    np.testing.assert_allclose(advective, expected_adv, rtol=1e-13, atol=0.0)


def test_rl_advective_vanishes_with_zero_left_value():
    rng = np.random.default_rng(7)
    u = rng.normal(size=65)
    u[0] = 0.0
    table = build_table(0.4, 1.0 / 64, 64)
    assert np.all(apparent_advection(u[0], table) == 0.0)
    assert np.array_equal(face_fluxes(u, RL, table), face_fluxes(u, CAPUTO, table))


# ------------------------------------------------------------- caputo


def test_caputo_annihilates_constants_exactly():
    table = build_table(0.5, 0.01, 30)
    for c in (-3.5, 0.0, 1.0, 32.0):
        q = face_fluxes(np.full(31, c), CAPUTO, table)
        assert np.all(q == 0.0)


def test_caputo_shift_covariance():
    rng = np.random.default_rng(11)
    u = rng.normal(size=41)
    table = build_table(0.6, 0.025, 40)
    base = face_fluxes(u, CAPUTO, table)
    for c in (-2.0, 5.0, 1e3):
        shifted = face_fluxes(u + c, CAPUTO, table)
        assert _max_rel(shifted, base) <= 1e-12


def test_rl_shift_covariance_picks_up_advective_term():
    rng = np.random.default_rng(13)
    u = rng.normal(size=41)
    table = build_table(0.6, 0.025, 40)
    base = face_fluxes(u, RL, table)
    c = 5.0
    shifted = face_fluxes(u + c, RL, table)
    expected = base - (table.w[1:] / table.dx) * c
    np.testing.assert_allclose(shifted, expected, rtol=1e-11, atol=1e-13)


# ------------------------------------------------- parsimonious and limits


@settings(deadline=None)
@given(data=field_and_table())
def test_parsimonious_equals_caputo(data):
    u, table = data
    assert np.array_equal(face_fluxes(u, PARSIMONIOUS, table), face_fluxes(u, CAPUTO, table))


@settings(deadline=None)
@given(data=field_and_table())
def test_parsimonious_is_rl_of_the_shifted_field(data):
    # equal in exact arithmetic; u - u(0) rounds, so only to round-off
    u, table = data
    qp = face_fluxes(u, PARSIMONIOUS, table)
    qr = face_fluxes(u - u[0], RL, table)
    assert _max_rel(qp, qr) <= 1e-14


def test_parsimonious_equals_rl_when_left_value_is_zero():
    rng = np.random.default_rng(17)
    u = np.abs(rng.normal(size=33))  # keep away from -0.0
    u[0] = 0.0
    table = build_table(0.3, 1.0 / 32, 32)
    assert np.array_equal(face_fluxes(u, PARSIMONIOUS, table), face_fluxes(u, RL, table))


def test_parsimonious_constant_field_is_fluxless():
    table = build_table(0.5, 0.01, 12)
    assert np.all(face_fluxes(np.full(13, 4.2), PARSIMONIOUS, table) == 0.0)


def _law(kind):
    return lambda u, table: face_fluxes(u, kind, table)


@pytest.mark.parametrize(
    "form",
    [rl_faces_grunwald, _law(RL), _law(CAPUTO), _law(PARSIMONIOUS)],
    ids=["rl_faces_grunwald", "rl_faces_weighted", "caputo_faces", "parsimonious_faces"],
)
def test_all_laws_collapse_to_fourier_at_alpha_one(form):
    rng = np.random.default_rng(23)
    n, dx = 60, 1.0 / 60
    u = rng.normal(size=n + 1)
    table = build_table(1.0, dx, n)
    qf = face_fluxes(u, FOURIER, table)
    assert _max_rel(form(u, table), qf) <= 1e-14


# ----------------------------------------------------------- dispatcher


@settings(deadline=None)
@given(data=field_and_table(), scale=st.sampled_from([2.0, -4.0, 0.5]))
def test_linearity_under_dyadic_scaling(data, scale):
    # power-of-two scaling commutes exactly with every rounding
    u, table = data
    for kind in FluxKind:
        q1 = face_fluxes(scale * u, kind, table)
        q0 = face_fluxes(u, kind, table)
        assert np.array_equal(q1, scale * q0)


def test_linearity_general_scale():
    rng = np.random.default_rng(29)
    u = rng.normal(size=101)
    table = build_table(0.5, 0.01, 100)
    for kind in FluxKind:
        q1 = face_fluxes(1.7 * u, kind, table)
        q0 = face_fluxes(u, kind, table)
        assert _max_rel(q1, 1.7 * q0) <= 1e-14


def test_dispatcher_applies_kappa():
    u = np.array([0.5, 1.0, 0.0])
    table = build_table(0.5, 0.5, 2)
    for kind in FluxKind:
        plain = face_fluxes(u, kind, table)
        scaled = face_fluxes(u, kind, table, kappa=2.0)
        assert np.array_equal(scaled, 2.0 * plain)


def test_face_count_is_number_of_interior_faces():
    table = build_table(0.5, 0.2, 5)
    u = np.linspace(0.0, 1.0, 6)
    for kind in FluxKind:
        q = face_fluxes(u, kind, table)
        assert isinstance(q, np.ndarray)
        assert q.shape == (5,)


def test_flux_kind_from_name():
    assert FluxKind.from_name("rl") is FluxKind.RIEMANN_LIOUVILLE
    assert FluxKind.from_name("parsimonious") is FluxKind.PARSIMONIOUS
    with pytest.raises(ValueError, match="caputo"):
        FluxKind.from_name("heat")


@pytest.mark.parametrize("kind", ["rl", ["rl"]])
def test_face_fluxes_rejects_a_law_that_is_not_a_flux_kind(kind):
    table = build_table(0.5, 0.1, 10)
    with pytest.raises(ValueError, match=r"unknown flux law \[?'rl'.*FluxKind\.RIEMANN_LIOUVILLE"):
        face_fluxes(np.zeros(11), kind, table)


# ------------------------------------------------- dense and FFT routes


def _gamma(k):
    unit = np.finfo(np.float64).eps / 2
    return k * unit / (1 - k * unit)


def _direct_sum_error_bound(grad, table):
    """Per-face bound on the error of the memory sum summed in any order.

    Face i is off by at most gamma_{n+4} * (|W| * |grad|)[i] (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 4), whatever the
    order of the n products and sums.
    """
    n = table.n
    return _gamma(n + 4) * np.convolve(np.abs(table.w[:n]), np.abs(grad))[:n]


def _fft_error_bound(grad, table):
    """Per-face bound on |FFT product - direct sum| of the memory sum.

    The direct sum contributes :func:`_direct_sum_error_bound`.  The
    FFT product is bounded in norm (ibid., ch. 24): a length-L transform
    with twiddle factors accurate to mu has relative 2-norm error at most
    eps = log2(L) * eta / (1 - log2(L) * eta), eta = mu + gamma_4 * (sqrt(2) + mu).
    Through two forward transforms, the pointwise complex products (error
    sqrt(2) * gamma_2) and the inverse transform, whose 1/L is a power of
    two and exact, the error of every face is at most
    (2 * eps + sqrt(2) * gamma_2) * (||W||_2 ||grad||_1 + ||W||_1 ||grad||_2);
    3 * eps covers the second-order terms.  mu is taken as one unit of
    round-off.
    """
    unit = np.finfo(np.float64).eps / 2
    w = table.w[: table.n]
    size = 2 * (table.w_hat.size - 1)
    eta = unit + _gamma(4) * (np.sqrt(2.0) + unit)
    eps = np.log2(size) * eta / (1 - np.log2(size) * eta)
    norms = (np.linalg.norm(w) * np.abs(grad).sum()
             + np.abs(w).sum() * np.linalg.norm(grad))
    fft = (3 * eps + np.sqrt(2.0) * _gamma(2)) * norms
    return _direct_sum_error_bound(grad, table) + fft


def _offset_noisy_field(n, seed):
    rng = np.random.default_rng(seed)
    return 3.0 + rng.normal(size=n + 1)  # u(0) != 0, so rl's advection is live


@pytest.mark.parametrize("kappa", [1.0, 1.5])
@pytest.mark.parametrize(
    "n", [100, FFT_MIN_N - 1, FFT_MIN_N, FFT_MIN_N + 1, 511, 512, 513, 1000, 2047]
)
def test_fft_route_matches_direct_oracle(n, kappa):
    table = build_table(0.6, 1.0 / n, n)
    assert (table.w_hat is None) == (n < FFT_MIN_N)
    assert (table.toeplitz is None) != (table.w_hat is None)
    u = _offset_noisy_field(n, seed=n)
    unit = np.finfo(np.float64).eps / 2
    grad = (u[:-1] - u[1:]) / table.dx
    for kind, law in LAWS.items():
        got = face_fluxes(u, kind, table, kappa=kappa)
        want = face_fluxes_direct(u, kind, table, kappa=kappa)
        if law.local:
            assert np.array_equal(got, want), kind
            continue
        if table.w_hat is None:
            # the dense product and np.convolve each sum in their own order
            memory = 2 * kappa * _direct_sum_error_bound(grad, table)
        else:
            memory = kappa * _fft_error_bound(grad, table)
        # the advection sum and the kappa product each round once more
        bound = memory + 2 * unit * (np.abs(got) + np.abs(want))
        assert np.all(np.abs(got - want) <= bound), kind


@pytest.mark.parametrize("n", [100, FFT_MIN_N - 1, 512, 2047])
def test_fft_route_keeps_exact_zeros_and_the_rl_split(n):
    table = build_table(0.4, 1.0 / n, n)
    for c in (-3.5, 0.0, 32.0):
        for kind in (CAPUTO, PARSIMONIOUS):
            assert np.all(face_fluxes(np.full(n + 1, c), kind, table) == 0.0)
    u = _offset_noisy_field(n, seed=5)
    split = face_fluxes(u, CAPUTO, table) + apparent_advection(u[0], table)
    assert np.array_equal(face_fluxes(u, RL, table), split)

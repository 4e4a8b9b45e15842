import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracflux.flux import (
    LAWS,
    FluxKind,
    caputo_faces,
    face_fluxes,
    fourier_faces,
    parsimonious_faces,
    rl_faces_weighted,
)
from fracflux.weights import FFT_MIN_N, build_table
from oracles import face_fluxes_direct, partial_g_sum, rl_faces_grunwald


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
    q = fourier_faces(np.full(9, 3.7), dx=0.125).q
    assert np.all(q == 0.0)


def test_fourier_unit_slope():
    x = np.arange(9) * 0.125  # dyadic spacing keeps everything exact
    q = fourier_faces(x, dx=0.125).q
    assert np.array_equal(q, np.full(8, -1.0))


def test_fourier_hat_example():
    q = fourier_faces(np.array([0.0, 1.0, 0.0]), dx=0.5).q
    assert np.array_equal(q, [-2.0, 2.0])


def test_fourier_domain_errors():
    with pytest.raises(ValueError):
        fourier_faces(np.array([1.0]), dx=0.1)
    for dx in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(ValueError):
            fourier_faces(np.arange(4.0), dx=dx)


# ---------------------------------------------------- riemann-liouville


def test_rl_constant_field_has_negative_flux():
    # nonzero on constants: q[i] = -a * dx**(-alpha) * (g_0 + .. + g_{i+1})
    a, n, dx = 2.5, 20, 0.01
    table = build_table(0.5, dx, n)
    for form in (rl_faces_grunwald, rl_faces_weighted):
        q = form(np.full(n + 1, a), table).q
        assert np.all(q < 0.0)
        expected = np.array(
            [-a * dx**-0.5 * partial_g_sum(table, i + 1) for i in range(n)]
        )
        np.testing.assert_allclose(q, expected, rtol=1e-12)


def test_rl_zero_field_is_fluxless():
    table = build_table(0.7, 0.02, 50)
    assert np.all(rl_faces_grunwald(np.zeros(51), table).q == 0.0)
    assert np.all(rl_faces_weighted(np.zeros(51), table).q == 0.0)


def test_size_mismatch_raises():
    table = build_table(0.5, 0.02, 50)
    u = np.zeros(20)
    for form in (rl_faces_grunwald, rl_faces_weighted, caputo_faces, parsimonious_faces):
        with pytest.raises(ValueError):
            form(u, table)


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
    grunwald = dx**-table.alpha * np.convolve(np.abs(table.g), np.abs(u))[1 : n + 1]
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
    qa = rl_faces_grunwald(u, table).q
    qb = rl_faces_weighted(u, table).q
    assert np.all(np.abs(qa - qb) <= _summation_error_bound(u, table))


@settings(deadline=None)
@given(data=field_and_table())
def test_rl_decomposition_identity(data):
    # the weighted form is exactly its own two addends, and the diffusive
    # part is the caputo flux
    u, table = data
    rl = rl_faces_weighted(u, table)
    assert np.array_equal(rl.q, rl.diffusive + rl.advective)
    assert np.array_equal(rl.diffusive, caputo_faces(u, table).q)
    expected_adv = -(table.w[1:] / table.dx) * u[0]
    np.testing.assert_allclose(rl.advective, expected_adv, rtol=1e-13, atol=0.0)


def test_rl_advective_vanishes_with_zero_left_value():
    rng = np.random.default_rng(7)
    u = rng.normal(size=65)
    u[0] = 0.0
    table = build_table(0.4, 1.0 / 64, 64)
    rl = rl_faces_weighted(u, table)
    assert np.all(rl.advective == 0.0)
    assert np.array_equal(rl.q, caputo_faces(u, table).q)


# ------------------------------------------------------------- caputo


def test_caputo_annihilates_constants_exactly():
    table = build_table(0.5, 0.01, 30)
    for c in (-3.5, 0.0, 1.0, 32.0):
        q = caputo_faces(np.full(31, c), table).q
        assert np.all(q == 0.0)


def test_caputo_shift_covariance():
    rng = np.random.default_rng(11)
    u = rng.normal(size=41)
    table = build_table(0.6, 0.025, 40)
    base = caputo_faces(u, table).q
    for c in (-2.0, 5.0, 1e3):
        shifted = caputo_faces(u + c, table).q
        assert _max_rel(shifted, base) <= 1e-12


def test_rl_shift_covariance_picks_up_advective_term():
    rng = np.random.default_rng(13)
    u = rng.normal(size=41)
    table = build_table(0.6, 0.025, 40)
    base = rl_faces_weighted(u, table).q
    c = 5.0
    shifted = rl_faces_weighted(u + c, table).q
    expected = base - (table.w[1:] / table.dx) * c
    np.testing.assert_allclose(shifted, expected, rtol=1e-11, atol=1e-13)


# ------------------------------------------------- parsimonious and limits


@settings(deadline=None)
@given(data=field_and_table())
def test_parsimonious_equals_caputo(data):
    u, table = data
    qp = parsimonious_faces(u, table).q
    qc = caputo_faces(u, table).q
    assert _max_rel(qp, qc) <= 1e-14


@settings(deadline=None)
@given(data=field_and_table())
def test_parsimonious_is_rl_of_the_shifted_field(data):
    u, table = data
    qp = parsimonious_faces(u, table).q
    qr = rl_faces_weighted(u - u[0], table).q
    assert np.array_equal(qp, qr)


def test_parsimonious_equals_rl_when_left_value_is_zero():
    rng = np.random.default_rng(17)
    u = np.abs(rng.normal(size=33))  # keep away from -0.0
    u[0] = 0.0
    table = build_table(0.3, 1.0 / 32, 32)
    assert np.array_equal(parsimonious_faces(u, table).q, rl_faces_weighted(u, table).q)


def test_parsimonious_constant_field_is_fluxless():
    table = build_table(0.5, 0.01, 12)
    assert np.all(parsimonious_faces(np.full(13, 4.2), table).q == 0.0)


@pytest.mark.parametrize(
    "form", [rl_faces_grunwald, rl_faces_weighted, caputo_faces, parsimonious_faces]
)
def test_all_laws_collapse_to_fourier_at_alpha_one(form):
    rng = np.random.default_rng(23)
    n, dx = 60, 1.0 / 60
    u = rng.normal(size=n + 1)
    table = build_table(1.0, dx, n)
    qf = fourier_faces(u, dx).q
    assert _max_rel(form(u, table).q, qf) <= 1e-14


# ----------------------------------------------------------- dispatcher


@settings(deadline=None)
@given(data=field_and_table(), scale=st.sampled_from([2.0, -4.0, 0.5]))
def test_linearity_under_dyadic_scaling(data, scale):
    # power-of-two scaling commutes exactly with every rounding
    u, table = data
    for kind in FluxKind:
        q1 = face_fluxes(scale * u, kind, table).q
        q0 = face_fluxes(u, kind, table).q
        assert np.array_equal(q1, scale * q0)


def test_linearity_general_scale():
    rng = np.random.default_rng(29)
    u = rng.normal(size=101)
    table = build_table(0.5, 0.01, 100)
    for kind in FluxKind:
        q1 = face_fluxes(1.7 * u, kind, table).q
        q0 = face_fluxes(u, kind, table).q
        assert _max_rel(q1, 1.7 * q0) <= 1e-14


def test_dispatcher_applies_kappa():
    u = np.array([0.5, 1.0, 0.0])
    table = build_table(0.5, 0.5, 2)
    for kind in FluxKind:
        plain = face_fluxes(u, kind, table)
        scaled = face_fluxes(u, kind, table, kappa=2.0)
        assert np.array_equal(scaled.q, 2.0 * plain.q)
        for part in ("diffusive", "advective"):
            if getattr(plain, part) is None:
                assert getattr(scaled, part) is None
            else:
                assert np.array_equal(getattr(scaled, part), 2.0 * getattr(plain, part))


def test_face_count_is_number_of_interior_faces():
    table = build_table(0.5, 0.2, 5)
    u = np.linspace(0.0, 1.0, 6)
    for kind in FluxKind:
        assert face_fluxes(u, kind, table).q.size == 5


def test_flux_kind_from_name():
    assert FluxKind.from_name("rl") is FluxKind.RIEMANN_LIOUVILLE
    assert FluxKind.from_name("parsimonious") is FluxKind.PARSIMONIOUS
    with pytest.raises(ValueError, match="caputo"):
        FluxKind.from_name("heat")


# ------------------------------------------------------------ FFT route


def _fft_error_bound(grad, table):
    """Per-face bound on |FFT route - direct route| of the memory sum.

    The direct sum at face i is off by at most gamma_{n+4} * (|W| * |grad|)[i]
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4).  The
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
    n = table.n
    unit = np.finfo(np.float64).eps / 2

    def gamma(k):
        return k * unit / (1 - k * unit)

    w = table.w[:n]
    direct = gamma(n + 4) * np.convolve(np.abs(w), np.abs(grad))[:n]
    size = 2 * (table.w_hat.size - 1)
    eta = unit + gamma(4) * (np.sqrt(2.0) + unit)
    eps = np.log2(size) * eta / (1 - np.log2(size) * eta)
    norms = (np.linalg.norm(w) * np.abs(grad).sum()
             + np.abs(w).sum() * np.linalg.norm(grad))
    return direct + (3 * eps + np.sqrt(2.0) * gamma(2)) * norms


def _offset_noisy_field(n, seed):
    rng = np.random.default_rng(seed)
    return 3.0 + rng.normal(size=n + 1)  # u(0) != 0, so rl's advection is live


@pytest.mark.parametrize("kappa", [1.0, 1.5])
@pytest.mark.parametrize("n", [511, 512, 513, 1000, 2047])
def test_fft_route_matches_direct_oracle(n, kappa):
    table = build_table(0.6, 1.0 / n, n)
    assert (table.w_hat is None) == (n < FFT_MIN_N)
    u = _offset_noisy_field(n, seed=n)
    unit = np.finfo(np.float64).eps / 2
    for kind, law in LAWS.items():
        got = face_fluxes(u, kind, table, kappa=kappa).q
        want = face_fluxes_direct(u, kind, table, kappa=kappa).q
        if table.w_hat is None or law.local:
            assert np.array_equal(got, want), kind
            continue
        v = u - u[0] if law.shifted else u
        memory = kappa * _fft_error_bound((v[:-1] - v[1:]) / table.dx, table)
        # the advection sum and the kappa product each round once more
        bound = memory + 2 * unit * (np.abs(got) + np.abs(want))
        assert np.all(np.abs(got - want) <= bound), kind


@pytest.mark.parametrize("n", [512, 2047])
def test_fft_route_keeps_exact_zeros_and_the_rl_split(n):
    table = build_table(0.4, 1.0 / n, n)
    assert table.w_hat is not None
    for c in (-3.5, 0.0, 32.0):
        for form in (caputo_faces, parsimonious_faces):
            assert np.all(form(np.full(n + 1, c), table).q == 0.0)
    rl = rl_faces_weighted(_offset_noisy_field(n, seed=5), table)
    assert np.array_equal(rl.q, rl.diffusive + rl.advective)

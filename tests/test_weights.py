import math
import sys
import threading
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracflux.flux import FluxKind, face_fluxes
from fracflux.weights import FFT_MIN_N, TABLE_CACHE_SIZE, GrunwaldTable, build_table
from oracles import grunwald_coefficients, partial_g_sum


def test_first_coefficients_alpha_half():
    table = build_table(0.5, 0.01, 6)
    # all dyadic, so the recurrence is exact, and so are its partial sums
    g = grunwald_coefficients(0.5, 6)
    assert np.array_equal(g[:4], [1.0, -0.5, -0.125, -0.0625])
    for j, partial in enumerate([1.0, 0.5, 0.375, 0.3125]):
        assert partial_g_sum(table, j) == pytest.approx(partial, rel=1e-14)


def test_cumulative_weights_alpha_half():
    table = build_table(0.5, 0.01, 4)
    assert table.w[0] == pytest.approx(0.1, rel=1e-14)
    assert table.w[1] == pytest.approx(0.05, rel=1e-14)
    assert table.w[2] == pytest.approx(0.0375, rel=1e-14)


def test_alpha_one_degenerates_to_gradient_weights():
    table = build_table(1.0, 0.01, 8)
    g = grunwald_coefficients(1.0, 8)
    assert g[0] == 1.0
    assert g[1] == -1.0
    assert np.all(g[2:] == 0.0)
    assert table.w[0] == 1.0
    assert np.all(table.w[1:] == 0.0)


def test_table_shape_and_immutability():
    table = build_table(0.5, 0.02, 17)
    assert table.n == 17
    assert table.w.shape == (18,)
    with pytest.raises(ValueError):
        table.w[0] = 2.0


def test_weight_transform_from_fft_min_n_up():
    for n in (FFT_MIN_N, FFT_MIN_N + 1, 512, 513, 1000, 1025):
        table = build_table(0.5, 1.0 / n, n)
        size = 2 ** math.ceil(math.log2(2 * n - 1))
        # an rfft of length size keeps size // 2 + 1 bins
        assert table.w_hat.shape == (size // 2 + 1,)
        with pytest.raises(ValueError):
            table.w_hat[0] = 0.0


@pytest.mark.parametrize("n", [1, 2, 100, FFT_MIN_N - 1])
def test_no_weight_transform_below_fft_min_n(n):
    assert build_table(0.5, 1.0 / n, n).w_hat is None


def test_table_cache_is_bounded():
    maxsize = build_table.cache_info().maxsize
    assert maxsize == TABLE_CACHE_SIZE
    for k in range(maxsize + 8):
        build_table(0.5, 1.0 / 50, 50 + k)
    assert build_table.cache_info().currsize <= maxsize


@pytest.mark.parametrize("alpha", [0.0, -0.3, 1.0001, 2.0])
def test_alpha_domain_errors(alpha):
    with pytest.raises(ValueError):
        build_table(alpha, 0.01, 5)


@pytest.mark.parametrize(
    "dx,n", [(0.0, 5), (-0.01, 5), (np.nan, 5), (np.inf, 5), (0.01, 0), (0.01, -2)]
)
def test_dx_and_n_domain_errors(dx, n):
    with pytest.raises(ValueError):
        build_table(dx=dx, n=n, alpha=0.5)


def test_partial_sum_examples():
    table = build_table(0.5, 0.01, 10)
    assert partial_g_sum(table, 0) == 1.0
    assert partial_g_sum(table, 1) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(IndexError):
        partial_g_sum(table, 11)
    with pytest.raises(IndexError):
        partial_g_sum(table, -1)


def test_partial_sums_decay_to_zero():
    # brute-force check far out in the sequence: positive, monotone, -> 0
    table = build_table(0.5, 1.0, 100_000)
    samples = [1, 10, 100, 1_000, 10_000, 100_000]
    values = [partial_g_sum(table, j) for j in samples]
    assert all(v > 0.0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 2e-3
    # exact summation of the raw coefficients agrees with the cached sums
    g = grunwald_coefficients(0.5, 100_000)
    for j in samples:
        brute = math.fsum(g[: j + 1])
        assert partial_g_sum(table, j) == pytest.approx(brute, rel=1e-13)


@settings(deadline=None)
@given(
    alpha=st.floats(min_value=0.001, max_value=1.0),
    n=st.integers(min_value=1, max_value=400),
)
def test_weight_invariants(alpha, n):
    dx = 1.0 / n
    table = build_table(alpha, dx, n)
    g = grunwald_coefficients(alpha, n)
    assert g[0] == 1.0
    assert np.all(g[1:] <= 0.0)
    assert np.all(table.w >= 0.0)
    assert np.all(np.diff(table.w) <= 0.0)
    assert table.w[0] == pytest.approx(dx ** (1.0 - alpha), rel=1e-14)
    # the recurrence itself, rechecked in plain float64
    j = np.arange(1, n + 1)
    expected = (j - 1 - alpha) / j * g[:-1]
    np.testing.assert_allclose(g[1:], expected, rtol=5e-15, atol=0.0)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_recomputed_sums_match_to_1e13(alpha):
    # independent route: float64 recurrence plus exactly rounded summation
    n, dx = 10_000, 0.01
    table = build_table(alpha, dx, n)
    g64 = np.empty(n + 1)
    g64[0] = 1.0
    for j in range(1, n + 1):
        g64[j] = (j - 1 - alpha) / j * g64[j - 1]
    scale = dx ** (1.0 - alpha)
    for j in (0, 1, 2, 3, 10, 31, 100, 316, 1_000, 3_162, 10_000):
        recomputed = scale * math.fsum(g64[: j + 1])
        assert abs(recomputed - table.w[j]) <= 1e-13 * table.w[j]


def test_tables_are_cached():
    assert build_table(0.5, 0.01, 50) is build_table(0.5, 0.01, 50)


def test_a_table_hashes_and_compares_by_identity():
    # by identity, so a table can key what is built from it, and a table
    # rebuilt after the cache is cleared is another key
    table = build_table(0.5, 0.01, 100)
    assert hash(table) == hash(table)
    assert table == table
    build_table.cache_clear()
    rebuilt = build_table(0.5, 0.01, 100)
    assert rebuilt is not table
    assert rebuilt != table
    assert {table: "old", rebuilt: "new"}[table] == "old"
    for name, value in (("alpha", 0.25), ("dx", 0.02), ("w", rebuilt.w)):
        with pytest.raises(FrozenInstanceError):
            setattr(table, name, value)


def test_threads_calling_face_fluxes_on_a_new_table_get_the_same_bits():
    # eight threads that call the direct-sum face_fluxes on one new table
    # at once each get the bits of one call alone
    n = 300
    table = GrunwaldTable(0.4, 1.0 / n, build_table(0.4, 1.0 / n, n).w, None)
    alone = GrunwaldTable(table.alpha, table.dx, table.w, None)
    u = np.random.default_rng(7).normal(size=n + 1)
    want = face_fluxes(u, FluxKind.CAPUTO, alone).tobytes()
    seen, errors = [], []

    def worker():
        try:
            for _ in range(20):
                seen.append(face_fluxes(u, FluxKind.CAPUTO, table).tobytes())
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert seen == [want] * (8 * 20)

"""Unit tests for the Fourier machinery that backs the averaging stack."""
import numpy as np
import pytest

from oscavg import FourierSeries

TWO_PI = 2.0 * np.pi


def _grid(n):
    return np.arange(n) / n


def test_grid_round_trip_recovers_samples():
    """from_samples followed by grid() must reproduce the samples exactly."""
    rng = np.random.default_rng(7)
    samples = rng.standard_normal(24)
    back = FourierSeries.from_samples(samples).grid()
    err = np.max(np.abs(back - samples))
    assert err < 1e-13, f"grid round trip error {err:.2e}"


def test_eval_matches_grid_on_sample_points():
    rng = np.random.default_rng(8)
    samples = rng.standard_normal(16)
    series = FourierSeries.from_samples(samples)
    taus = _grid(16)
    vals = np.array([series.eval(t) for t in taus])
    err = np.max(np.abs(vals - samples))
    assert err < 1e-13, f"eval vs grid mismatch {err:.2e}"


def test_eval_is_periodic():
    samples = np.cos(TWO_PI * _grid(16)) + 0.25 * np.sin(2 * TWO_PI * _grid(16))
    series = FourierSeries.from_samples(samples)
    for tau in (0.13, 0.62, 0.97):
        a = series.eval(tau)
        b = series.eval(tau + 1.0)
        assert abs(a - b) < 1e-13, f"series not 1-periodic at tau={tau}: {a} vs {b}"


def test_mean_and_without_mean():
    taus = _grid(32)
    samples = 0.7 + np.cos(TWO_PI * taus)
    series = FourierSeries.from_samples(samples)
    assert abs(series.mean - 0.7) < 1e-14, f"mean {series.mean} != 0.7"
    centered = series.without_mean()
    assert abs(centered.mean) < 1e-14, f"without_mean left mean {centered.mean}"
    # the oscillating part must be untouched
    err = np.max(np.abs(centered.grid() - np.cos(TWO_PI * taus)))
    assert err < 1e-13, f"without_mean changed the oscillation by {err:.2e}"


def test_antiderivative_of_cosine_is_scaled_sine():
    taus = _grid(32)
    series = FourierSeries.from_samples(np.cos(TWO_PI * taus))
    anti = series.antiderivative()
    for tau in (0.0, 0.21, 0.5, 0.83):
        want = np.sin(TWO_PI * tau) / TWO_PI
        got = anti.eval(tau)
        assert abs(got - want) < 1e-13, f"antiderivative at tau={tau}: {got} vs {want}"


def test_derivative_of_sine_is_scaled_cosine():
    taus = _grid(32)
    series = FourierSeries.from_samples(np.sin(TWO_PI * taus))
    deriv = series.derivative()
    for tau in (0.1, 0.4, 0.77):
        want = TWO_PI * np.cos(TWO_PI * tau)
        got = deriv.eval(tau)
        assert abs(got - want) < 1e-12, f"derivative at tau={tau}: {got} vs {want}"


def test_derivative_then_antiderivative_round_trip():
    rng = np.random.default_rng(9)
    series = FourierSeries.from_samples(rng.standard_normal(24)).without_mean()
    scale = np.max(np.abs(series.grid()))
    back = series.antiderivative().derivative()
    err1 = np.max(np.abs(back.grid() - series.grid())) / scale
    back2 = series.derivative().antiderivative()
    err2 = np.max(np.abs(back2.grid() - series.grid())) / scale
    worst = max(err1, err2)
    assert worst < 1e-12, f"round-trip relative error {worst:.2e}"


def test_antiderivative_has_zero_mean():
    taus = _grid(32)
    series = FourierSeries.from_samples(np.sin(TWO_PI * taus) + np.cos(2 * TWO_PI * taus))
    anti = series.antiderivative()
    assert abs(anti.mean) < 1e-14, f"antiderivative mean {anti.mean} should vanish"


def test_antiderivative_rejects_nonzero_mean():
    series = FourierSeries.from_samples(np.full(8, 2.0))
    with pytest.raises(ValueError, match="nonzero mean"):
        series.antiderivative()


def test_from_samples_rejects_too_few_samples():
    with pytest.raises(ValueError, match="at least 2 samples"):
        FourierSeries.from_samples(np.array([1.0]))


def test_vector_valued_series_keeps_shape():
    rng = np.random.default_rng(11)
    samples = rng.standard_normal((16, 3, 2))
    series = FourierSeries.from_samples(samples)
    assert series.grid().shape == (16, 3, 2)
    out = series.eval(0.3)
    assert out.shape == (3, 2), f"eval shape {out.shape} != (3, 2)"
    err = np.max(np.abs(series.grid() - samples))
    assert err < 1e-13, f"vector round trip error {err:.2e}"


def test_vector_antiderivative_acts_componentwise():
    taus = _grid(32)
    samples = np.stack([np.cos(TWO_PI * taus), np.sin(2 * TWO_PI * taus)], axis=1)
    anti = FourierSeries.from_samples(samples).antiderivative()
    got = anti.eval(0.37)
    want = np.array([np.sin(TWO_PI * 0.37) / TWO_PI,
                     -np.cos(2 * TWO_PI * 0.37) / (2 * TWO_PI)])
    err = np.max(np.abs(got - want))
    assert err < 1e-13, f"componentwise antiderivative error {err:.2e}"


def test_eval_keeps_only_the_real_part_of_the_nyquist_bin():
    """On an even grid the samples hold only Re of the Nyquist coefficient, so
    eval between grid points must drop its imaginary part, as grid() does.
    cos(16 pi tau) on 16 samples is the Nyquist wave (-1)^n; its zero-mean
    antiderivative has a purely imaginary Nyquist coefficient and vanishes on
    the grid, leaving sin(2 pi tau) / (2 pi) from the cos(2 pi tau) part."""
    taus = _grid(16)
    anti = FourierSeries.from_samples(np.cos(8 * TWO_PI * taus)
                                      + np.cos(TWO_PI * taus)).antiderivative()
    got = anti.eval(1.0 / 32)
    want = np.sin(TWO_PI / 32) / TWO_PI
    assert abs(got - want) < 1e-14, f"eval at tau=1/32: {got} vs {want} (0.0310)"
    on_grid = anti.eval(taus)
    err = np.max(np.abs(on_grid - anti.grid()))
    assert err < 1e-14, f"eval vs grid() on the sample points: {err:.2e}"
    # the same for an array-valued series
    stacked = FourierSeries.from_samples(np.stack([np.cos(8 * TWO_PI * taus)] * 3, axis=1))
    err = np.max(np.abs(stacked.antiderivative().eval(np.array([1 / 32, 3 / 32]))))
    assert err < 1e-14, f"Nyquist antiderivative leaks {err:.2e} between grid points"

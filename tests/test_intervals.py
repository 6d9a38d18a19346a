import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from proxycal import (
    BiasModel,
    ConfidenceInterval,
    DomainRecord,
    TargetRecord,
    bootstrap_interval,
    diagnostics,
    fit_mom,
    normal_quantile,
    intervals,
    loo_table,
    plugin_interval,
    wald_interval,
)
from proxycal.core import diff_arrays
from proxycal.intervals import _bootstrap_samples, _ndtri

from reference import bootstrap_mixture_quantile, normal_quantile_reference

Z975 = 1.959963984540054


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_reference_value(self):
        assert normal_quantile(0.975) == pytest.approx(Z975, abs=1e-12)

    def test_symmetry(self):
        assert normal_quantile(0.025) == pytest.approx(-normal_quantile(0.975), abs=1e-12)

    def test_accuracy_against_bisection_oracle(self):
        for p in (0.001, 0.01, 0.1, 0.3, 0.5, 0.84135, 0.95, 0.999, 0.999999):
            assert abs(normal_quantile(p) - normal_quantile_reference(p)) <= 1e-9

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            normal_quantile(p)

    def test_quantiles_cached_across_loo(self, monkeypatch):
        history = [
            DomainRecord(f"d{i}", 0.4, 0.45 + 0.01 * (i % 7), 1e-4, 2e-4, 5e-5)
            for i in range(50)
        ]
        alphas = [0.01, 0.05, 0.2]
        calls = []

        def counted(y):
            calls.append(len(y))
            return _ndtri(y)

        monkeypatch.setattr(intervals, "_ndtri", counted)
        normal_quantile.cache_clear()
        cached = loo_table(history, alphas, "plugin")
        assert len(calls) <= 3
        monkeypatch.setattr(diagnostics, "normal_quantile", normal_quantile.__wrapped__)
        assert loo_table(history, alphas, "plugin") == cached
        assert len(calls) > 3


def neighbours(c, steps=8):
    """``c`` and its ``steps`` nearest doubles on either side."""
    out, lo, hi = [c], c, c
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


class TestNdtriPort:
    def test_equals_scipy_ndtri(self):
        special = pytest.importorskip("scipy.special")
        uniforms = np.random.default_rng(20260).random(300_000) + 2.0 ** -54
        lower_tail = np.logspace(-300, -1, 2_000)
        upper_tail = 1.0 - np.logspace(-16, -1, 2_000)
        # branch edges: exp(-2) on both sides and the tail switch at exp(-32)
        edges = [v for c in (math.exp(-2), 1 - math.exp(-2), math.exp(-32)) for v in neighbours(c)]
        # the bootstrap's shifted uniform can round to exactly 1
        exact = [0.0, 1.0, (1.0 - 2.0 ** -53) + 2.0 ** -54, 0.5]
        y = np.concatenate([uniforms, lower_tail, upper_tail, edges, exact])
        np.testing.assert_array_equal(_ndtri(y), special.ndtri(y))

    def test_endpoints_are_infinite(self):
        assert _ndtri(np.array([0.0, 1.0])).tolist() == [-math.inf, math.inf]


class TestWaldInterval:
    def test_zero_variance_point(self):
        iv = wald_interval(0.5, 0.0, 0.05)
        assert (iv.lower, iv.upper) == (0.5, 0.5)
        assert iv.level == pytest.approx(0.95)

    def test_derived_endpoints(self):
        iv = wald_interval(0.5, 0.0004, 0.05)
        assert iv.lower == pytest.approx(0.5 - Z975 * 0.02, abs=1e-12)
        assert iv.upper == pytest.approx(0.5 + Z975 * 0.02, abs=1e-12)
        assert iv.lower == pytest.approx(0.460801, abs=1e-6)
        assert iv.upper == pytest.approx(0.539199, abs=1e-6)

    def test_near_unit_quantile_level(self):
        # alpha chosen so the half-width is the z at p = 0.84135
        iv = wald_interval(0.0, 1.0, 0.3173)
        z = normal_quantile_reference(0.84135)
        assert iv.lower == pytest.approx(-z, abs=1e-9)
        assert iv.upper == pytest.approx(z, abs=1e-9)
        assert iv.upper == pytest.approx(1.0, abs=1e-4)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wald_interval(0.0, -1e-9, 0.05)
        with pytest.raises(ValueError):
            wald_interval(math.inf, 1.0, 0.05)
        with pytest.raises(ValueError):
            wald_interval(0.0, math.nan, 0.05)
        with pytest.raises(ValueError):
            wald_interval(0.0, 1.0, 1.0)


def model_of(rho, gamma2):
    return BiasModel(rho, gamma2, 2, (rho, rho), (0.0, 0.0))


class TestPluginInterval:
    def test_reduces_to_wald_exactly(self):
        target = TargetRecord("t", 0.5, 0.0004)
        iv = plugin_interval(target, model_of(0.0, 0.0), 0.05)
        ref = wald_interval(0.5, 0.0004, 0.05)
        assert (iv.lower, iv.upper, iv.level) == (ref.lower, ref.upper, ref.level)

    def test_derived_endpoints(self):
        target = TargetRecord("t", 0.5, 0.0004)
        iv = plugin_interval(target, model_of(0.02, 0.0005), 0.05)
        assert iv.lower == pytest.approx(0.48 - Z975 * 0.03, abs=1e-12)
        assert iv.upper == pytest.approx(0.48 + Z975 * 0.03, abs=1e-12)
        assert iv.lower == pytest.approx(0.421201, abs=1e-6)
        assert iv.upper == pytest.approx(0.538799, abs=1e-6)

    def test_pure_debias_zero_width(self):
        target = TargetRecord("t", 1.0, 0.0)
        iv = plugin_interval(target, model_of(0.5, 0.0), 0.05)
        assert (iv.lower, iv.upper) == (0.5, 0.5)

    def test_width_formula_and_monotonicity(self):
        target = TargetRecord("t", 0.3, 0.002)
        widths = []
        for gamma2 in (0.0, 0.001, 0.01, 0.1):
            iv = plugin_interval(target, model_of(0.1, gamma2), 0.05)
            expected = 2 * Z975 * math.sqrt(0.002 + gamma2)
            assert iv.width == pytest.approx(expected, rel=1e-12)
            widths.append(iv.width)
        assert widths == sorted(widths)
        # monotone in confidence level as well
        level_widths = [
            plugin_interval(target, model_of(0.1, 0.01), alpha).width
            for alpha in (0.2, 0.1, 0.05, 0.01)
        ]
        assert level_widths == sorted(level_widths)

    def test_translation_equivariance(self):
        model = model_of(0.07, 0.003)
        a = plugin_interval(TargetRecord("t", 0.4, 0.001), model, 0.1)
        c = 1.3125
        b = plugin_interval(TargetRecord("t", 0.4 + c, 0.001), model, 0.1)
        assert b.lower == pytest.approx(a.lower + c, rel=1e-12)
        assert b.upper == pytest.approx(a.upper + c, rel=1e-12)


def history_of(pairs):
    """Records with prescribed (d, diff_var) pairs."""
    return [
        DomainRecord(f"d{i}", 0.0, d, s2 / 2, s2 / 2, 0.0)
        for i, (d, s2) in enumerate(pairs)
    ]


class TestDomainBootstrap:
    def test_single_domain_matches_plugin(self):
        history = history_of([(0.1, 0.0)])
        target = TargetRecord("t", 0.5, 0.0004)
        iv = bootstrap_interval(target, fit_mom(history), 0.05, draws=100_000, seed=2)
        assert iv.lower == pytest.approx(0.4 - Z975 * 0.02, abs=0.003)
        assert iv.upper == pytest.approx(0.4 + Z975 * 0.02, abs=0.003)

    def test_identical_domains_match_plugin(self):
        history = history_of([(0.2, 0.01)] * 4)
        target = TargetRecord("t", 0.5, 0.0004)
        iv = bootstrap_interval(target, fit_mom(history), 0.05, draws=100_000, seed=5)
        # every resample refits to rho=0.2, gamma2=max(0, 0 - 0.01)=0
        half = Z975 * math.sqrt(0.0004)
        assert iv.lower == pytest.approx(0.3 - half, abs=0.003)
        assert iv.upper == pytest.approx(0.3 + half, abs=0.003)

    def test_three_domain_exhaustive_enumeration_oracle(self):
        ds = [0.0, 0.2, 0.4]
        history = history_of([(d, 0.0) for d in ds])
        target = TargetRecord("t", 1.0, 0.0)
        iv = bootstrap_interval(target, fit_mom(history), 0.10, draws=200_000, seed=11)
        qlo = bootstrap_mixture_quantile(ds, [0.0] * 3, 1.0, 0.0, 0.05)
        qhi = bootstrap_mixture_quantile(ds, [0.0] * 3, 1.0, 0.0, 0.95)
        assert qlo == pytest.approx(0.5462261276233591, abs=1e-9)
        assert qhi == pytest.approx(1.0537738723766406, abs=1e-9)
        assert iv.lower == pytest.approx(qlo, abs=0.004)
        assert iv.upper == pytest.approx(qhi, abs=0.004)

    def test_reproducible_bit_identical(self):
        history = history_of([(0.05, 0.001), (0.2, 0.002), (-0.1, 0.004)])
        target = TargetRecord("t", 0.7, 0.003)
        a = bootstrap_interval(target, fit_mom(history), 0.05, draws=9999, seed=42)
        b = bootstrap_interval(target, fit_mom(history), 0.05, draws=9999, seed=42)
        assert (a.lower, a.upper) == (b.lower, b.upper)
        c = bootstrap_interval(target, fit_mom(history), 0.05, draws=9999, seed=43)
        assert (a.lower, a.upper) != (c.lower, c.upper)

    def test_draw_blocks_are_order_independent(self):
        history = history_of([(0.05, 0.001), (0.2, 0.002), (-0.1, 0.004)])
        target = TargetRecord("t", 0.7, 0.003)
        d = np.array([0.05, 0.2, -0.1])
        dv = np.array([0.001, 0.002, 0.004])
        full = _bootstrap_samples(d, dv, target, 42, 0, 5000)
        pieces = np.concatenate(
            [
                _bootstrap_samples(d, dv, target, 42, 0, 137),
                _bootstrap_samples(d, dv, target, 42, 137, 2100),
                _bootstrap_samples(d, dv, target, 42, 2100, 5000),
            ]
        )
        assert np.array_equal(full, pieces)

    def test_chunks_bounded_by_bytes(self, monkeypatch):
        # 5,000 draws keep the one-call reference below about 200 MB
        k, draws = 1000, 5000
        rng = np.random.default_rng(8)
        history = history_of(zip(rng.normal(0.1, 0.2, k), rng.uniform(0.0, 0.01, k)))
        target = TargetRecord("t", 0.7, 0.003)
        chunks = []

        def recorded(d, dv, target, seed, start, stop):
            chunks.append((start, stop))
            return _bootstrap_samples(d, dv, target, seed, start, stop)

        monkeypatch.setattr(intervals, "_bootstrap_samples", recorded)
        got = bootstrap_interval(target, fit_mom(history), 0.1, draws=draws, seed=4)
        uniforms_per_draw = 4 * -(-(k + 1) // 4)
        assert len(chunks) > 1
        assert [a for a, _ in chunks[1:]] == [b for _, b in chunks[:-1]]
        assert (chunks[0][0], chunks[-1][1]) == (0, draws)
        assert all(8 * uniforms_per_draw * (b - a) <= intervals._BOOT_CHUNK_BYTES
                   for a, b in chunks)
        d, dv = diff_arrays(history)
        lower, upper = np.quantile(_bootstrap_samples(d, dv, target, 4, 0, draws), [0.05, 0.95])
        assert (got.lower, got.upper) == (lower, upper)

    @given(
        domains=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 0.01)),
                         min_size=1, max_size=30),
        draws=st.integers(2, 300),
        chunk_bytes=st.integers(1, 1 << 14),
    )
    @example(domains=[(0.1, 0.0), (0.3, 0.002)], draws=50, chunk_bytes=1)  # one draw a chunk
    def test_chunking_never_changes_the_interval(self, domains, draws, chunk_bytes):
        model = fit_mom(history_of(domains))
        target = TargetRecord("t", 0.6, 0.002)
        whole = bootstrap_interval(target, model, 0.1, draws=draws, seed=9)
        with mock.patch.object(intervals, "_BOOT_CHUNK_BYTES", chunk_bytes):
            chunked = bootstrap_interval(target, model, 0.1, draws=draws, seed=9)
        assert chunked == whole

    def test_translation_equivariance(self):
        history = history_of([(0.05, 0.001), (0.2, 0.002), (-0.1, 0.004)])
        a = bootstrap_interval(TargetRecord("t", 0.7, 0.003), fit_mom(history), 0.05,
                               draws=20000, seed=3)
        c = 0.5
        b = bootstrap_interval(TargetRecord("t", 0.7 + c, 0.003), fit_mom(history), 0.05,
                               draws=20000, seed=3)
        assert b.lower == pytest.approx(a.lower + c, rel=1e-12)
        assert b.upper == pytest.approx(a.upper + c, rel=1e-12)

    def test_input_validation(self):
        target = TargetRecord("t", 0.5, 0.01)
        with pytest.raises(ValueError):
            bootstrap_interval(target, fit_mom(history_of([(0.1, 0.0)])), 0.05, draws=1, seed=0)
        with pytest.raises(ValueError):
            bootstrap_interval(target, fit_mom(history_of([(0.1, 0.0)])), 1.5, draws=100, seed=0)


class TestConfidenceInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConfidenceInterval(1.0, 0.0, 0.95)
        with pytest.raises(ValueError):
            ConfidenceInterval(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ConfidenceInterval(math.nan, 1.0, 0.95)

    def test_width(self):
        assert ConfidenceInterval(0.25, 0.75, 0.9).width == pytest.approx(0.5)

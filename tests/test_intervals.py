import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
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
from proxycal.intervals import _bootstrap_draws, _BootWork, _ndtri, _quantiles

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


def stream_through(monkeypatch, edit):
    """Pass every read of the bootstrap's uniform stream through ``edit``, which
    may change the uniforms in place and returns them."""
    opened = intervals.substream

    class Stream:
        def __init__(self, seed, *path):
            self.rng = opened(seed, *path)

        def random(self, size, out):
            return edit(self.rng.random(size, out=out))

    monkeypatch.setattr(intervals, "substream", Stream)


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
        d = np.array([0.05, 0.2, -0.1])
        dv = np.array([0.001, 0.002, 0.004])
        full = _bootstrap_draws(d, dv, 0.7, 0.003, 5000, 42, _BootWork(3, 5000, 5000))
        # batches of one chunk, of several chunks, and cutting chunks short
        for chunk, batch in [(1, 1), (137, 1000), (2100, 300)]:
            pieces = _bootstrap_draws(d, dv, 0.7, 0.003, 5000, 42, _BootWork(3, chunk, batch))
            assert np.array_equal(full, pieces)

    @pytest.mark.parametrize("m", [1, 3, 5, 1000])
    def test_top_uniform_resamples_the_last_domain(self, monkeypatch, m):
        # the largest double below 1 times m still truncates to m - 1; the
        # normal's uniform stays as drawn, so the samples are finite
        rng = np.random.default_rng(m)
        d, dv = rng.normal(0.1, 0.2, m), rng.uniform(0.0, 0.01, m)
        draws, stride = 64, intervals._draw_stride(m)

        def top(u):
            u.reshape(-1, stride)[:, :m] = np.nextafter(1.0, 0.0)
            return u

        stream_through(monkeypatch, top)
        work = _BootWork(m, draws, draws)
        samples = _bootstrap_draws(d, dv, 0.7, 0.003, draws, 5, work)
        assert (work.idx == m - 1).all()
        last = _bootstrap_draws(np.full(m, d[-1]), np.full(m, dv[-1]), 0.7, 0.003, draws, 5,
                                _BootWork(m, draws, draws))
        assert np.isfinite(samples).all()
        assert samples.tobytes() == last.tobytes()

    @pytest.mark.parametrize("m", [1, 3, 1000])
    def test_top_normal_uniform_gives_finite_samples(self, monkeypatch, m):
        # the largest double below 1 plus the 2**-54 shift rounds to 1, whose
        # normal quantile is inf
        rng = np.random.default_rng(m)
        d, dv = rng.normal(0.1, 0.2, m), rng.uniform(0.0, 0.01, m)
        draws, stride = 64, intervals._draw_stride(m)

        def top(u):
            u.reshape(-1, stride)[:, m] = np.nextafter(1.0, 0.0)
            return u

        stream_through(monkeypatch, top)
        samples = _bootstrap_draws(d, dv, 0.7, 0.003, draws, 5, _BootWork(m, draws, draws))
        assert np.isfinite(samples).all()

    def test_chunks_bounded_by_bytes(self, monkeypatch):
        # 5,000 draws keep the one-call reference below about 200 MB
        k, draws = 1000, 5000
        rng = np.random.default_rng(8)
        history = history_of(zip(rng.normal(0.1, 0.2, k), rng.uniform(0.0, 0.01, k)))
        target = TargetRecord("t", 0.7, 0.003)
        uniforms_per_draw = 4 * -(-(k + 1) // 4)
        chunks = []

        def recorded(u):
            # the stream is read in order, so each read starts where the last ended
            start_draw = chunks[-1][1] if chunks else 0
            chunks.append((start_draw, start_draw + u.size // uniforms_per_draw))
            return u

        stream_through(monkeypatch, recorded)
        got = bootstrap_interval(target, fit_mom(history), 0.1, draws=draws, seed=4)
        assert len(chunks) > 1
        assert [a for a, _ in chunks[1:]] == [b for _, b in chunks[:-1]]
        assert (chunks[0][0], chunks[-1][1]) == (0, draws)
        assert all(8 * uniforms_per_draw * (b - a) <= intervals._BOOT_CHUNK_BYTES
                   for a, b in chunks)
        d, dv = diff_arrays(history)
        samples = _bootstrap_draws(d, dv, 0.7, 0.003, draws, 4, _BootWork(k, draws, draws))
        lower, upper = np.quantile(samples, [0.05, 0.95])
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

    @given(
        domains=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 0.01)),
                         min_size=1, max_size=30),
        calls=st.lists(st.tuples(st.integers(2, 300), st.integers(0, 2**64 - 1)),
                       min_size=2, max_size=4),
        chunk_bytes=st.integers(1, 1 << 14),
    )
    def test_reused_work_set_equals_fresh_buffers(self, domains, calls, chunk_bytes):
        d, dv = (np.array(column) for column in zip(*domains))
        m = len(d)
        with mock.patch.object(intervals, "_BOOT_CHUNK_BYTES", chunk_bytes):
            work = _BootWork.for_draws(m, max(draws for draws, _ in calls))
        # stale values that a missed write would leak: NaN, and an index one past the end
        work.u.fill(np.nan)
        work.dv.fill(np.nan)
        work.un.fill(np.nan)
        work.g.fill(np.nan)
        work.idx.fill(m)
        for i, (draws, seed) in enumerate(calls):
            # each call rotates the domains, as each held-out domain of a LOO pass differs
            d_i, dv_i = np.roll(d, i), np.roll(dv, i)
            reused = _bootstrap_draws(d_i, dv_i, 0.6, 0.002, draws, seed, work)
            fresh = _bootstrap_draws(d_i, dv_i, 0.6, 0.002, draws, seed, _BootWork(m, draws, draws))
            assert reused.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("m, chunk", [(1, 1), (24, 4000), (59, 2184)])
    def test_work_set_is_disjoint_views_of_one_block(self, m, chunk):
        batch = 2048
        work = intervals._BootWork(m, chunk, batch)
        views = (work.u, work.dv, work.idx, work.un, work.g)
        assert [(v.shape, v.dtype) for v in views] == [
            ((chunk * intervals._draw_stride(m),), np.float64),
            ((chunk, m), np.float64),
            ((chunk, m), np.intp),
            ((batch,), np.float64),
            ((batch,), np.float64),
        ]
        assert work.u.base is work.dv.base is work.idx.base is work.un.base is work.g.base
        assert work.u.base is not None
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(views, 2))

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


LEVELS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0]))


class TestQuantiles:
    """The bootstrap's quantiles are np.quantile's default linear rule, bit for bit."""

    @staticmethod
    def assert_numpy_equal(a, levels):
        a, levels = np.array(a, dtype=float), np.array(levels, dtype=float)
        expected = np.quantile(a, levels)
        got = _quantiles(a.copy(), levels)
        assert got.tobytes() == expected.tobytes()

    # ties, signed zeros and infinities among ordinary values
    @given(a=st.lists(st.one_of(st.floats(-1e6, 1e6),
                                st.sampled_from([-0.0, 0.0, 1.0, -math.inf, math.inf])),
                      min_size=2, max_size=300),
           levels=st.lists(LEVELS, min_size=1, max_size=6))
    def test_any_values(self, a, levels):
        with np.errstate(invalid="ignore"):  # inf - inf, as in numpy
            self.assert_numpy_equal(a, levels)

    @given(value=st.floats(-1e6, 1e6), n=st.integers(2, 300), levels=st.lists(LEVELS, min_size=1))
    def test_all_equal(self, value, n, levels):
        self.assert_numpy_equal([value] * n, levels)

    @given(a=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=300), data=st.data())
    def test_integer_virtual_indexes(self, a, data):
        # (n - 1) q an integer: no interpolation, or a neighbour weighted by 0
        ks = data.draw(st.lists(st.integers(0, len(a) - 1), min_size=1, max_size=4))
        levels = [k / (len(a) - 1) for k in ks]
        assume(all((len(a) - 1) * q == k for q, k in zip(levels, ks)))
        self.assert_numpy_equal(a, levels)

    @given(a=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=300),
           alphas=st.lists(st.floats(1e-6, 0.999), min_size=1, max_size=4))
    def test_loo_levels(self, a, alphas):
        # every lower level, then every upper one, as one held-out domain takes them
        self.assert_numpy_equal(a, [x / 2.0 for x in alphas] + [1.0 - x / 2.0 for x in alphas])

    @given(a=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300), data=st.data(),
           nan=st.sampled_from([math.nan, -math.nan]), levels=st.lists(LEVELS, min_size=1, max_size=6))
    def test_nan_entry(self, a, data, nan, levels):
        # either sign: the NaN itself is every quantile
        a.insert(data.draw(st.integers(0, len(a))), nan)
        self.assert_numpy_equal(a, levels)

    def test_partitions_in_place(self):
        a = np.array([3.0, 1.0, 2.0, 0.0])
        assert _quantiles(a, np.array([0.0, 1.0])).tolist() == [0.0, 3.0]
        assert (a[0], a[-1]) == (0.0, 3.0)


class TestBootstrapMemory:
    """Peak traced memory of a bootstrap, whatever the number of chunks."""

    @staticmethod
    def bound(draws):
        # the chunk buffers (uniforms, later the resampled differences; indices;
        # resampled variances) take at most three chunks; the replicates take 8
        # bytes a draw, allowed here three times over and held to once by
        # test_replicates_are_the_only_per_draw_memory; 256 KiB covers the small
        # arrays and Python objects
        return 3 * intervals._BOOT_CHUNK_BYTES + 3 * 8 * draws + (1 << 18)

    @staticmethod
    def peak(run):
        run()  # caches and lazy imports stay outside the trace
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("shrink", [1, 16])
    def test_bootstrap_interval(self, monkeypatch, shrink):
        monkeypatch.setattr(intervals, "_BOOT_CHUNK_BYTES", intervals._BOOT_CHUNK_BYTES // shrink)
        k, draws = 800, 20_000
        rng = np.random.default_rng(5)
        model = fit_mom(history_of(zip(rng.normal(0.1, 0.2, k), rng.uniform(0.0, 0.01, k))))
        target = TargetRecord("t", 0.7, 0.003)
        peak = self.peak(lambda: bootstrap_interval(target, model, 0.1, draws=draws, seed=2))
        assert peak < self.bound(draws)

    @pytest.mark.parametrize("shrink", [1, 16])
    def test_replicates_are_the_only_per_draw_memory(self, monkeypatch, shrink):
        # _quantiles partitions the replicates in place; a sorted copy would
        # take another 8 bytes a draw, 4 MB here
        monkeypatch.setattr(intervals, "_BOOT_CHUNK_BYTES", intervals._BOOT_CHUNK_BYTES // shrink)
        k, draws = 25, 500_000
        rng = np.random.default_rng(5)
        model = fit_mom(history_of(zip(rng.normal(0.1, 0.2, k), rng.uniform(0.0, 0.01, k))))
        target = TargetRecord("t", 0.7, 0.003)
        work = intervals._BootWork.for_draws(k, draws)
        block = work.u.nbytes + work.dv.nbytes + work.idx.nbytes
        peak = self.peak(lambda: bootstrap_interval(target, model, 0.1, draws=draws, seed=2))
        # 512 KiB covers a chunk's temporaries, the small arrays and Python objects
        assert peak < 8 * draws + block + (1 << 19)

    @pytest.mark.parametrize("shrink", [1, 16])
    def test_loo_table(self, monkeypatch, shrink):
        monkeypatch.setattr(intervals, "_BOOT_CHUNK_BYTES", intervals._BOOT_CHUNK_BYTES // shrink)
        k, draws = 60, 4000
        rng = np.random.default_rng(6)
        history = [DomainRecord(f"d{i}", t, t + rng.normal(0.02, 0.05), 1e-3, 1e-3, 0.0)
                   for i, t in enumerate(rng.uniform(0.2, 0.8, k))]
        peak = self.peak(lambda: loo_table(history, [0.05], "bootstrap", draws, 7))
        assert peak < self.bound(draws)


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

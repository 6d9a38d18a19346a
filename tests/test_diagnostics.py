import math

import numpy as np
import pytest

from proxycal import (
    ConfidenceInterval,
    DomainRecord,
    TargetRecord,
    bootstrap_interval,
    fit_mom,
    intervals_overlap,
    loo_overlap_rate,
    loo_table,
    normalized_width,
    overlap_curve,
    plugin_interval,
    wald_interval,
)
from proxycal._rng import derive_seed

Z975 = 1.959963984540054


def iv(lo, hi, level=0.95):
    return ConfidenceInterval(lo, hi, level)


class TestIntervalsOverlap:
    def test_disjoint(self):
        assert intervals_overlap(iv(0, 1), iv(2, 3)) is False

    def test_containment(self):
        assert intervals_overlap(iv(0, 1), iv(0.5, 0.7)) is True

    def test_boundary_touching_counts(self):
        assert intervals_overlap(iv(0, 1), iv(1, 2)) is True

    def test_symmetric_fuzz(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = sorted(rng.normal(size=2))
            b = sorted(rng.normal(size=2))
            x, y = iv(*a), iv(*b)
            assert intervals_overlap(x, y) == intervals_overlap(y, x)


def matched_history(k=4):
    """Identical primary/proxy estimates: every method must overlap."""
    return [
        DomainRecord(f"d{i}", 0.4 + 0.01 * i, 0.4 + 0.01 * i, 0.001, 0.001, 0.0)
        for i in range(k)
    ]


def biased_trio():
    """Two clean domains and one with a huge proxy offset, tiny variances."""
    thetas = [0.3, 0.5, 0.7]
    ds = [0.0, 0.0, 10.0]
    return [
        DomainRecord(f"d{i}", t, t + d, 1e-6, 1e-6, 0.0)
        for i, (t, d) in enumerate(zip(thetas, ds))
    ]


def loo_rates_by_enumeration(history, alpha, method):
    """Oracle: re-derive the LOO protocol with inline formulas."""
    hits = 0
    for k, record in enumerate(history):
        rest = [r for i, r in enumerate(history) if i != k]
        ds = [r.theta_star_hat - r.theta_hat for r in rest]
        s2s = [r.var_primary + r.var_proxy - 2 * r.cov_primary_proxy for r in rest]
        rho = sum(ds) / len(ds)
        gamma2 = max(0.0, sum((d - rho) ** 2 for d in ds) / len(ds) - sum(s2s) / len(s2s))
        if method == "unadjusted":
            center, var = record.theta_star_hat, record.var_proxy
        else:
            center, var = record.theta_star_hat - rho, record.var_proxy + gamma2
        half = Z975 * math.sqrt(var)
        p_half = Z975 * math.sqrt(record.var_primary)
        overlap = (
            center - half <= record.theta_hat + p_half
            and record.theta_hat - p_half <= center + half
        )
        hits += overlap
    return hits / len(history)


class TestLooOverlapRate:
    def test_matched_history_rate_one_every_method(self):
        history = matched_history()
        for method in ("unadjusted", "plugin", "bootstrap"):
            rate = loo_overlap_rate(history, 0.05, method, bootstrap_draws=2000, seed=1)
            assert rate == 1.0

    def test_biased_trio_pinned_by_enumeration(self):
        history = biased_trio()
        expected_unadj = loo_rates_by_enumeration(history, 0.05, "unadjusted")
        expected_plugin = loo_rates_by_enumeration(history, 0.05, "plugin")
        assert expected_unadj == pytest.approx(2 / 3)
        assert expected_plugin == pytest.approx(2 / 3)
        assert loo_overlap_rate(history, 0.05, "unadjusted") == pytest.approx(expected_unadj)
        assert loo_overlap_rate(history, 0.05, "plugin") == pytest.approx(expected_plugin)

    def test_plugin_at_least_unadjusted_on_biased_history(self):
        history = biased_trio()
        unadj = loo_overlap_rate(history, 0.05, "unadjusted")
        plug = loo_overlap_rate(history, 0.05, "plugin")
        assert plug >= unadj

    def test_rate_is_rational_with_domain_denominator(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            history = [
                DomainRecord(f"d{i}", rng.normal(), rng.normal(), 0.01, 0.02, 0.0)
                for i in range(k)
            ]
            rate = loo_overlap_rate(history, 0.05, "plugin")
            assert rate * k == pytest.approx(round(rate * k), abs=1e-12)

    def test_held_out_primary_never_enters_proxy_interval(self):
        from proxycal.diagnostics import _loo_interval_pairs

        history = biased_trio()
        poisoned = list(history)
        poisoned[1] = DomainRecord("d1", 1e9, history[1].theta_star_hat,
                                   history[1].var_primary, history[1].var_proxy,
                                   history[1].cov_primary_proxy)
        for method in ("unadjusted", "plugin", "bootstrap"):
            (base,) = _loo_interval_pairs(history, [0.05], method, 2000, 7)
            (poisn,) = _loo_interval_pairs(poisoned, [0.05], method, 2000, 7)
            # domain 1's own proxy interval is built without its primary estimate
            assert base[1][0] == poisn[1][0]
            # its primary comparison interval of course moves
            assert base[1][1] != poisn[1][1]

    def test_too_few_records_error(self):
        with pytest.raises(ValueError):
            loo_overlap_rate(matched_history(1), 0.05, "plugin")

    def test_unknown_method_error(self):
        with pytest.raises(ValueError):
            loo_overlap_rate(matched_history(), 0.05, "magic")

    def test_bootstrap_method_seeded_and_reproducible(self):
        history = biased_trio()
        a = loo_overlap_rate(history, 0.05, "bootstrap", bootstrap_draws=4000, seed=5)
        b = loo_overlap_rate(history, 0.05, "bootstrap", bootstrap_draws=4000, seed=5)
        assert a == b


class TestOverlapCurve:
    def test_singleton_grid(self):
        history = biased_trio()
        curve = overlap_curve(history, [0.05], "unadjusted")
        assert curve == [(0.05, loo_overlap_rate(history, 0.05, "unadjusted"))]

    def test_matched_history_flat_at_one(self):
        curve = overlap_curve(matched_history(), [0.01, 0.05, 0.2, 0.5], "plugin")
        assert all(rate == 1.0 for _, rate in curve)

    def test_nonincreasing_in_alpha(self):
        rng = np.random.default_rng(21)
        history = [
            DomainRecord(f"d{i}", 0.5, 0.5 + rng.normal(0.05, 0.03), 4e-4, 4e-4, 0.0)
            for i in range(8)
        ]
        for method in ("unadjusted", "plugin"):
            rates = [r for _, r in overlap_curve(history, [0.01, 0.05, 0.2, 0.5], method)]
            assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestNormalizedWidth:
    def test_equal_variances_unit_ratio(self):
        history = [
            DomainRecord(f"d{i}", 0.1 * i, 0.1 * i + 0.01, 0.002, 0.002, 0.0)
            for i in range(4)
        ]
        assert normalized_width(history, 0.05, "unadjusted") == pytest.approx(1.0, rel=1e-12)

    def test_quarter_variance_half_ratio(self):
        history = [
            DomainRecord(f"d{i}", 0.1 * i, 0.1 * i + 0.01, 0.004, 0.001, 0.0)
            for i in range(4)
        ]
        assert normalized_width(history, 0.05, "unadjusted") == pytest.approx(0.5, rel=1e-12)

    def test_plugin_at_least_unadjusted(self):
        rng = np.random.default_rng(13)
        history = [
            DomainRecord(f"d{i}", rng.normal(), rng.normal(), 0.01, 0.02, 0.005)
            for i in range(6)
        ]
        unadj = normalized_width(history, 0.05, "unadjusted")
        plug = normalized_width(history, 0.05, "plugin")
        assert plug >= unadj

    def test_zero_primary_width_errors(self):
        history = [
            DomainRecord(f"d{i}", 0.5, 0.6, 0.0, 0.001, 0.0) for i in range(3)
        ]
        with pytest.raises(ValueError):
            normalized_width(history, 0.05, "unadjusted")


def test_plugin_interval_contains_equally_centered_unadjusted():
    from proxycal import TargetRecord, fit_mom, plugin_interval, wald_interval

    rng = np.random.default_rng(19)
    history = [
        DomainRecord(f"d{i}", rng.normal(), rng.normal(), 0.01, 0.02, 0.005)
        for i in range(6)
    ]
    for k, record in enumerate(history):
        rest = history[:k] + history[k + 1 :]
        model = fit_mom(rest)
        held_out = TargetRecord(record.domain_id, record.theta_star_hat, record.var_proxy)
        plug = plugin_interval(held_out, model, 0.05)
        debiased = wald_interval(record.theta_star_hat - model.rho, record.var_proxy, 0.05)
        assert plug.lower <= debiased.lower and debiased.upper <= plug.upper
        assert plug.width >= debiased.width


def test_primary_interval_is_plain_wald():
    from proxycal.diagnostics import _loo_interval_pairs

    history = biased_trio()
    (pairs,) = _loo_interval_pairs(history, [0.05], "plugin", 1000, 0)
    for record, (_, primary) in zip(history, pairs):
        ref = wald_interval(record.theta_hat, record.var_primary, 0.05)
        assert (primary.lower, primary.upper) == (ref.lower, ref.upper)


def per_alpha_refit(history, alpha, method, draws, seed):
    """Reference: rebuild the remaining records and refit for every held-out domain."""
    pairs = []
    for k, rec in enumerate(history):
        rest = history[:k] + history[k + 1 :]
        held_out = TargetRecord(rec.domain_id, rec.theta_star_hat, rec.var_proxy)
        if method == "unadjusted":
            proxy = wald_interval(rec.theta_star_hat, rec.var_proxy, alpha)
        elif method == "plugin":
            proxy = plugin_interval(held_out, fit_mom(rest), alpha)
        else:
            proxy = bootstrap_interval(
                held_out, fit_mom(rest), alpha, draws=draws, seed=derive_seed(seed, k)
            )
        pairs.append((proxy, wald_interval(rec.theta_hat, rec.var_primary, alpha)))
    rate = sum(intervals_overlap(p, q) for p, q in pairs) / len(pairs)
    width = (sum(p.width for p, _ in pairs) / len(pairs)) / (
        sum(q.width for _, q in pairs) / len(pairs)
    )
    return rate, width


def outlier_history(k=9):
    rng = np.random.default_rng(17)
    return [
        DomainRecord(f"d{i}", 0.4, 0.4 + rng.normal(0.02, 0.01) + (0.5 if i == 3 else 0.0),
                     rng.uniform(1e-4, 4e-4), rng.uniform(1e-4, 4e-4), 0.0)
        for i in range(k)
    ]


class TestSinglePass:
    ALPHAS = [0.01, 0.05, 0.2, 0.5]

    @pytest.mark.parametrize("method", ["unadjusted", "plugin", "bootstrap"])
    @pytest.mark.parametrize("history", [outlier_history(), biased_trio()], ids=["outlier", "trio"])
    def test_equals_per_alpha_refits(self, history, method):
        table = loo_table(history, self.ALPHAS, method, bootstrap_draws=600, seed=11)
        for (alpha, rate, width), ref_alpha in zip(table, self.ALPHAS):
            assert alpha == ref_alpha
            assert (rate, width) == per_alpha_refit(history, alpha, method, 600, 11)
            assert rate == loo_overlap_rate(history, alpha, method, 600, 11)
            assert width == normalized_width(history, alpha, method, 600, 11)
        curve = overlap_curve(history, self.ALPHAS, method, 600, 11)
        assert curve == [(alpha, rate) for alpha, rate, _ in table]

    def test_bootstrap_drawn_once_per_held_out_domain(self, monkeypatch):
        import proxycal.intervals as intervals

        blocks = []
        original = intervals.uniform_block

        def counted(seed, path, start, count):
            blocks.append(seed)
            return original(seed, path, start, count)

        monkeypatch.setattr(intervals, "uniform_block", counted)
        history = outlier_history()
        loo_table(history, self.ALPHAS, "bootstrap", bootstrap_draws=500, seed=3)
        assert blocks == [derive_seed(3, k) for k in range(len(history))]

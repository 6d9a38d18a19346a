import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from proxycal import (
    DomainRecord,
    TargetRecord,
    bootstrap_interval,
    fit_mom,
    intervals,
    loo_table,
    normal_quantile,
    plugin_interval,
    wald_interval,
)
from proxycal._rng import derive_seed
from proxycal.diagnostics import _loo_endpoints

Z975 = 1.959963984540054


def loo_row(history, alpha, method, draws=4000, seed=0):
    """(overlap rate, normalized width) of ``loo_table`` at one alpha."""
    ((_, rate, width),) = loo_table(history, [alpha], method, draws, seed)
    return rate, width


def edge_history(side, nudge=0.0):
    """Point proxy intervals at each primary interval's upper (side 1) or lower (side -1) end.

    The edge is computed as the primary interval computes it; ``nudge`` moves
    it by that many ulps away from the interval.
    """
    z = normal_quantile(1.0 - 0.05 / 2.0)
    records = []
    for i, (theta, vp) in enumerate([(0.3, 1e-4), (0.5, 2.5e-3), (0.7, 0.01)]):
        edge = theta + side * z * math.sqrt(vp)
        for _ in range(int(nudge)):
            edge = math.nextafter(edge, side * math.inf)
        records.append(DomainRecord(f"d{i}", theta, edge, vp, 0.0, 0.0))
    return records


class TestIntervalsOverlap:
    """The closed-interval overlap test, seen through unadjusted held-out intervals."""

    def test_disjoint(self):
        for side in (1, -1):
            assert loo_row(edge_history(side, nudge=1), 0.05, "unadjusted")[0] == 0.0

    def test_containment(self):
        history = [DomainRecord(f"d{i}", 0.5, 0.5 + 0.01 * i, 0.01, 1e-6, 0.0) for i in range(4)]
        assert loo_row(history, 0.05, "unadjusted")[0] == 1.0

    def test_boundary_touching_counts(self):
        for side in (1, -1):
            history = edge_history(side)
            p_lo, p_hi, q_lo, q_hi = _loo_endpoints(history, [0.05], "unadjusted", 2, 0)
            assert (p_lo == p_hi).all() and (p_hi == (q_hi if side == 1 else q_lo)).all()
            assert loo_row(history, 0.05, "unadjusted")[0] == 1.0

    def test_symmetric_fuzz(self):
        # swapping the proxy and primary fields swaps the two unadjusted intervals
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            rows = [(rng.normal(), rng.normal(), *rng.uniform(1e-4, 0.5, 2)) for _ in range(k)]
            history = [DomainRecord(f"d{i}", t, s, vp, vx, 0.0) for i, (t, s, vp, vx) in enumerate(rows)]
            swapped = [DomainRecord(f"d{i}", s, t, vx, vp, 0.0) for i, (t, s, vp, vx) in enumerate(rows)]
            rate, width = loo_row(history, 0.05, "unadjusted")
            rate_swapped, width_swapped = loo_row(swapped, 0.05, "unadjusted")
            assert rate == rate_swapped
            assert width * width_swapped == pytest.approx(1.0, rel=1e-12)


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
            table = loo_table(history, [0.05], method, bootstrap_draws=2000, seed=1)
            assert [rate for _, rate, _ in table] == [1.0]

    def test_biased_trio_pinned_by_enumeration(self):
        history = biased_trio()
        expected_unadj = loo_rates_by_enumeration(history, 0.05, "unadjusted")
        expected_plugin = loo_rates_by_enumeration(history, 0.05, "plugin")
        assert expected_unadj == pytest.approx(2 / 3)
        assert expected_plugin == pytest.approx(2 / 3)
        assert loo_row(history, 0.05, "unadjusted")[0] == pytest.approx(expected_unadj)
        assert loo_row(history, 0.05, "plugin")[0] == pytest.approx(expected_plugin)

    def test_plugin_at_least_unadjusted_on_biased_history(self):
        history = biased_trio()
        assert loo_row(history, 0.05, "plugin")[0] >= loo_row(history, 0.05, "unadjusted")[0]

    def test_rate_is_rational_with_domain_denominator(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            history = [
                DomainRecord(f"d{i}", rng.normal(), rng.normal(), 0.01, 0.02, 0.0)
                for i in range(k)
            ]
            for _, rate, _ in loo_table(history, [0.01, 0.05, 0.5], "plugin"):
                assert rate * k == pytest.approx(round(rate * k), abs=1e-12)

    def test_held_out_primary_never_enters_proxy_interval(self):
        history = biased_trio()
        poisoned = list(history)
        poisoned[1] = DomainRecord("d1", 1e9, history[1].theta_star_hat,
                                   history[1].var_primary, history[1].var_proxy,
                                   history[1].cov_primary_proxy)
        for method in ("unadjusted", "plugin", "bootstrap"):
            base = _loo_endpoints(history, [0.05], method, 2000, 7)
            poisn = _loo_endpoints(poisoned, [0.05], method, 2000, 7)
            # domain 1's own proxy interval is built without its primary estimate
            assert [e[0, 1] for e in base[:2]] == [e[0, 1] for e in poisn[:2]]
            # its primary comparison interval of course moves
            assert [e[0, 1] for e in base[2:]] != [e[0, 1] for e in poisn[2:]]

    def test_too_few_records_error(self):
        with pytest.raises(ValueError):
            loo_table(matched_history(1), [0.05], "plugin")

    @pytest.mark.parametrize("method", ["plugin", "bootstrap"])
    def test_overflowing_difference_errors(self, method):
        # the difference is finite, but its squared deviation overflows, so every
        # other held-out variance is infinite; a difference that overflows is
        # rejected by its record (test_core). The bootstrap rejects its replicates
        # before it takes their quantiles, and warns of nothing.
        history = matched_history() + [DomainRecord("big", -1e200, 1e200, 0.001, 0.001, 0.0)]
        message = {"plugin": "held out domain 'd0': proxy interval endpoints must be finite",
                   "bootstrap": "bootstrap replicates must be finite"}[method]
        with pytest.raises(ValueError, match=message):
            loo_table(history, [0.05], method, bootstrap_draws=50)

    # held out, domain a's center 1.7e308 - rho or its variance 1.7e308 + gamma2
    # leaves the float range
    @pytest.mark.parametrize("a, others", [
        (("a", 1.7e308, 1.7e308, 1.0, 1.0, 0.0), (-8e307, -8e307)),
        (("a", 0.0, 0.0, 1.0, 1.7e308, 0.0), (8e153, -8e153)),
    ], ids=["center", "variance"])
    def test_overflowing_held_out_plugin_interval_errors(self, a, others):
        history = [DomainRecord(*a)] + [DomainRecord(f"d{i}", 0.0, d, 1.0, 1.0, 0.0)
                                        for i, d in enumerate(others)]
        with pytest.raises(
            ValueError, match="held out domain 'a': proxy interval endpoints must be finite"
        ):
            loo_table(history, [0.05], "plugin")

    def test_unknown_method_error(self):
        with pytest.raises(ValueError):
            loo_table(matched_history(), [0.05], "magic")

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_alpha_outside_unit_interval_error(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            loo_table(matched_history(), [0.05, alpha], "unadjusted")

    def test_bootstrap_method_seeded_and_reproducible(self):
        history = biased_trio()
        a = loo_table(history, [0.05], "bootstrap", bootstrap_draws=4000, seed=5)
        b = loo_table(history, [0.05], "bootstrap", bootstrap_draws=4000, seed=5)
        assert a == b
        assert loo_table(history, [0.05], "bootstrap", bootstrap_draws=4000, seed=6) != a


class TestOverlapCurve:
    def test_singleton_grid(self):
        history = outlier_history()
        for method in ("unadjusted", "plugin", "bootstrap"):
            grid = loo_table(history, [0.01, 0.05, 0.2], method, 300, 2)
            assert loo_table(history, [0.05], method, 300, 2) == [grid[1]]

    def test_matched_history_flat_at_one(self):
        table = loo_table(matched_history(), [0.01, 0.05, 0.2, 0.5], "plugin")
        assert all(rate == 1.0 for _, rate, _ in table)

    def test_nonincreasing_in_alpha(self):
        rng = np.random.default_rng(21)
        history = [
            DomainRecord(f"d{i}", 0.5, 0.5 + rng.normal(0.05, 0.03), 4e-4, 4e-4, 0.0)
            for i in range(8)
        ]
        for method in ("unadjusted", "plugin"):
            rates = [r for _, r, _ in loo_table(history, [0.01, 0.05, 0.2, 0.5], method)]
            assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestNormalizedWidth:
    def test_equal_variances_unit_ratio(self):
        history = [
            DomainRecord(f"d{i}", 0.1 * i, 0.1 * i + 0.01, 0.002, 0.002, 0.0)
            for i in range(4)
        ]
        assert loo_row(history, 0.05, "unadjusted")[1] == pytest.approx(1.0, rel=1e-12)

    def test_quarter_variance_half_ratio(self):
        history = [
            DomainRecord(f"d{i}", 0.1 * i, 0.1 * i + 0.01, 0.004, 0.001, 0.0)
            for i in range(4)
        ]
        assert loo_row(history, 0.05, "unadjusted")[1] == pytest.approx(0.5, rel=1e-12)

    def test_plugin_at_least_unadjusted(self):
        rng = np.random.default_rng(13)
        history = [
            DomainRecord(f"d{i}", rng.normal(), rng.normal(), 0.01, 0.02, 0.005)
            for i in range(6)
        ]
        assert loo_row(history, 0.05, "plugin")[1] >= loo_row(history, 0.05, "unadjusted")[1]

    def test_zero_primary_width_errors(self):
        history = [
            DomainRecord(f"d{i}", 0.5, 0.6, 0.0, 0.001, 0.0) for i in range(3)
        ]
        with pytest.raises(ValueError, match="zero mean width"):
            loo_table(history, [0.05], "unadjusted")

    def test_zero_primary_width_errors_before_any_bootstrap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the bootstrap was drawn")

        monkeypatch.setattr(intervals, "_bootstrap_draws", refuse)
        history = [DomainRecord(f"d{i}", 0.5, 0.6, 0.0, 0.001, 0.0) for i in range(3)]
        with pytest.raises(ValueError, match="zero mean width"):
            loo_table(history, [0.05], "bootstrap")

    def test_denormal_primary_variance_errors(self):
        # sqrt(5e-324) * z is far below half an ulp of 0.5: the interval is a point
        history = [DomainRecord(f"d{i}", 0.5, 0.6, 5e-324, 0.001, 0.0) for i in range(3)]
        with pytest.raises(ValueError, match="zero mean width"):
            loo_table(history, [0.05], "plugin")


# (theta_hat, difference, var_primary, var_proxy, correlation) per domain
DOMAIN = st.tuples(st.floats(0.0, 1.0), st.floats(-0.5, 0.5), st.floats(0.0, 0.05),
                   st.floats(0.0, 0.05), st.floats(-1.0, 1.0))


def table_or_error(history, method):
    try:
        return loo_table(history, [0.01, 0.05, 0.2], method)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("method", ["unadjusted", "plugin"])
@given(rows=st.lists(DOMAIN, min_size=2, max_size=30), data=st.data())
def test_loo_table_invariant_under_record_permutation(method, rows, data):
    history = [DomainRecord(f"d{i}", theta, theta + d, vp, vx, c * math.sqrt(vp * vx))
               for i, (theta, d, vp, vx, c) in enumerate(rows)]
    order = data.draw(st.permutations(range(len(history))))
    base = table_or_error(history, method)
    permuted = table_or_error([history[i] for i in order], method)
    if isinstance(base, str):
        assert permuted == base
        return
    assert [(a, r) for a, r, _ in permuted] == [(a, r) for a, r, _ in base]
    # the widths are summed in record order, so they agree only to rounding
    assert [w for _, _, w in permuted] == pytest.approx([w for _, _, w in base], rel=1e-12)


def test_plugin_interval_contains_equally_centered_unadjusted():
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
    history = biased_trio()
    _, _, lower, upper = _loo_endpoints(history, [0.05], "plugin", 1000, 0)
    for record, lo, hi in zip(history, lower[0], upper[0]):
        ref = wald_interval(record.theta_hat, record.var_primary, 0.05)
        assert (lo, hi) == (ref.lower, ref.upper)


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
    rate = sum(p.lower <= q.upper and q.lower <= p.upper for p, q in pairs) / len(pairs)
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

    def test_bootstrap_drawn_once_per_held_out_domain(self, monkeypatch):
        import proxycal.intervals as intervals

        streams = []
        original = intervals.substream

        def counted(seed, *path):
            streams.append(seed)
            return original(seed, *path)

        monkeypatch.setattr(intervals, "substream", counted)
        history = outlier_history()
        loo_table(history, self.ALPHAS, "bootstrap", bootstrap_draws=500, seed=3)
        assert streams == [derive_seed(3, k) for k in range(len(history))]

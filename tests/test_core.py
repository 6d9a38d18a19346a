import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from proxycal import (
    BiasModel,
    DomainRecord,
    InvalidRecordError,
    TargetRecord,
    WARN_GAMMA2_TRUNCATED,
    WARN_INSUFFICIENT_DOMAINS,
    debias,
    fit_mom,
)
from proxycal.core import diff_arrays

from reference import mom_reference


def rec(d, s2, domain_id="d", theta=0.5):
    """Record with prescribed difference d and difference variance s2."""
    return DomainRecord(domain_id, theta, theta + d, s2 / 2, s2 / 2, 0.0)


def one_diff(record):
    """``(d, diff_var)`` of one record, read from :func:`diff_arrays`."""
    d, dv = diff_arrays([record])
    return float(d[0]), float(dv[0])


class TestDiffStats:
    def test_perfectly_correlated_identical(self):
        r = DomainRecord("a", 0.5, 0.5, 0.01, 0.01, 0.01)
        assert one_diff(r) == (0.0, 0.0)

    def test_hand_arithmetic(self):
        r = DomainRecord("a", 0.5, 0.7, 0.01, 0.02, 0.005)
        d, dv = one_diff(r)
        assert d == pytest.approx(0.2, abs=1e-15)
        assert dv == pytest.approx(0.02, abs=1e-15)

    def test_zero_covariance(self):
        r = DomainRecord("a", 1.0, 1.0, 0.04, 0.09, 0.0)
        d, dv = one_diff(r)
        assert d == 0.0
        assert dv == pytest.approx(0.13, abs=1e-15)

    def test_rounding_negative_clipped(self):
        # cov at the Cauchy-Schwarz boundary: diff_var mathematically 0
        r = DomainRecord("a", 0.0, 0.1, 0.02, 0.02, 0.02)
        _, dv = one_diff(r)
        assert dv == 0.0

    @given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
                              st.floats(0.0, 1e3), st.floats(0.0, 1e3), st.floats(-1.0, 1.0)),
                    min_size=1, max_size=20))
    # -0.0 + -0.0 - 2 * 0.0 is -0.0, which max(0.0, x) turns into +0.0
    @example([(0.5, 0.6, -0.0, -0.0, 0.0)])
    def test_columns_equal_record_by_record_formula(self, rows):
        # cov scaled into the Cauchy-Schwarz bound, down to exact zeros
        records = [DomainRecord(f"d{k}", th, ts, vp, vx, c * math.sqrt(vp * vx) * (1 - 1e-9))
                   for k, (th, ts, vp, vx, c) in enumerate(rows)]
        d, dv = diff_arrays(records)
        for r, dk, dvk in zip(records, d.tolist(), dv.tolist()):
            assert dk == r.theta_star_hat - r.theta_hat
            expected = max(0.0, r.var_primary + r.var_proxy - 2.0 * r.cov_primary_proxy)
            assert (dvk, math.copysign(1.0, dvk)) == (expected, math.copysign(1.0, expected))


class TestRecordValidation:
    def test_negative_variance_rejected(self):
        with pytest.raises(InvalidRecordError):
            DomainRecord("a", 0.0, 0.0, -0.01, 0.01, 0.0)
        with pytest.raises(InvalidRecordError):
            TargetRecord("a", 0.0, -1e-9)

    def test_cauchy_schwarz_rejected(self):
        with pytest.raises(InvalidRecordError, match="exceeds"):
            DomainRecord("bad", 0.5, 0.7, 0.01, 0.02, 0.05)

    def test_cauchy_schwarz_boundary_allowed(self):
        DomainRecord("a", 0.5, 0.7, 0.01, 0.04, 0.02)

    def test_cauchy_schwarz_slack(self):
        # 1 part in 1e13 over the bound: absorbed as upstream rounding
        DomainRecord("a", 0.5, 0.7, 0.01, 0.04, 0.02 * (1 + 1e-14))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidRecordError):
            DomainRecord("a", math.nan, 0.0, 0.01, 0.01, 0.0)
        with pytest.raises(InvalidRecordError):
            DomainRecord("a", 0.0, math.inf, 0.01, 0.01, 0.0)
        with pytest.raises(InvalidRecordError):
            TargetRecord("a", math.nan, 0.01)

    def test_offending_domain_named(self):
        with pytest.raises(InvalidRecordError, match="bad-domain"):
            DomainRecord("bad-domain", 0.0, 0.0, 0.0, 0.0, 0.5)

    # the variances overflow in their sum, then the covariance too: inf - inf
    @pytest.mark.parametrize("cov, got", [(0.0025, "inf"), (1e308, "nan")])
    def test_overflowing_difference_variance_named(self, cov, got):
        with pytest.raises(InvalidRecordError, match=rf"^dom-7: var_primary \+ var_proxy - 2 \* "
                                                     rf"cov_primary_proxy must be finite, got {got}$"):
            DomainRecord("dom-7", 0.5, 0.6, 1e308, 1e308, cov)
        DomainRecord("dom-7", 0.5, 0.6, 8e307, 8e307, 0.0)

    @pytest.mark.parametrize("theta, got", [(1e308, "-inf"), (-1e308, "inf")])
    def test_overflowing_difference_named(self, theta, got):
        with pytest.raises(InvalidRecordError, match=rf"^dom-7: theta_star_hat - theta_hat "
                                                     rf"must be finite, got {got}$"):
            DomainRecord("dom-7", theta, -theta, 0.01, 0.01, 0.0)
        DomainRecord("dom-7", theta * 0.8, -theta * 0.8, 0.01, 0.01, 0.0)

    def test_context_normalized_to_tuple(self):
        r = DomainRecord("a", 0.0, 0.0, 0.01, 0.01, 0.0, context=[1, 2])
        assert r.context == (1.0, 2.0)

    @pytest.mark.parametrize("context, timestamp, field", [
        ((0.5, math.nan), None, r"context\[1\]"),
        ((-math.inf,), 1.0, r"context\[0\]"),
        ((0.5,), math.inf, "timestamp"),
        (None, math.nan, "timestamp"),
    ])
    def test_non_finite_context_or_timestamp_named(self, context, timestamp, field):
        with pytest.raises(InvalidRecordError, match=rf"^dom-7: {field} must be finite"):
            DomainRecord("dom-7", 0.5, 0.6, 0.01, 0.01, 0.0, context=context, timestamp=timestamp)
        with pytest.raises(InvalidRecordError, match=rf"^dom-7: {field} must be finite"):
            TargetRecord("dom-7", 0.6, 0.01, context=context, timestamp=timestamp)


class TestFitMom:
    def test_zero_spread_truncates(self):
        model = fit_mom([rec(0.1, 0.005, f"d{i}") for i in range(3)])
        assert model.rho == pytest.approx(0.1, abs=1e-15)
        assert model.gamma2 == 0.0
        assert WARN_GAMMA2_TRUNCATED in model.warnings

    def test_three_domain_derived(self):
        model = fit_mom([rec(d, 0.005, f"d{i}") for i, d in enumerate([0.1, 0.3, 0.2])])
        assert model.rho == pytest.approx(0.2, abs=1e-12)
        assert model.gamma2 == pytest.approx(0.02 / 3 - 0.005, rel=1e-12)
        assert model.warnings == ()

    def test_two_domain_hand(self):
        model = fit_mom([rec(0.0, 0.0, "a"), rec(0.2, 0.0, "b")])
        assert model.rho == pytest.approx(0.1, abs=1e-15)
        assert model.gamma2 == pytest.approx(0.01, rel=1e-12)

    def test_empty_history_errors(self):
        with pytest.raises(ValueError):
            fit_mom([])

    def test_single_record_flagged(self):
        model = fit_mom([rec(0.3, 0.02, "only")])
        assert model.rho == pytest.approx(0.3, abs=1e-15)
        assert model.gamma2 == 0.0
        assert WARN_INSUFFICIENT_DOMAINS in model.warnings
        assert model.n_domains == 1

    def test_retains_per_domain_stats(self):
        model = fit_mom([rec(0.1, 0.004, "a"), rec(0.4, 0.002, "b")])
        assert model.diffs == pytest.approx((0.1, 0.4))
        assert model.diff_vars == pytest.approx((0.004, 0.002))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        records = [rec(rng.normal(), rng.random() * 0.1, f"d{i}") for i in range(12)]
        base = fit_mom(records)
        for _ in range(10):
            perm = list(rng.permutation(len(records)))
            shuffled = fit_mom([records[i] for i in perm])
            assert shuffled.rho == pytest.approx(base.rho, rel=1e-12, abs=1e-14)
            assert shuffled.gamma2 == pytest.approx(base.gamma2, rel=1e-12, abs=1e-14)

    def test_translation_properties(self):
        rng = np.random.default_rng(9)
        records = [
            DomainRecord(f"d{i}", rng.normal(), rng.normal(), 0.02, 0.03, 0.01)
            for i in range(8)
        ]
        base = fit_mom(records)
        c = 2.75
        both = fit_mom(
            [
                DomainRecord(r.domain_id, r.theta_hat + c, r.theta_star_hat + c,
                             r.var_primary, r.var_proxy, r.cov_primary_proxy)
                for r in records
            ]
        )
        assert both.rho == pytest.approx(base.rho, abs=1e-12)
        assert both.gamma2 == pytest.approx(base.gamma2, rel=1e-10, abs=1e-14)
        proxy_only = fit_mom(
            [
                DomainRecord(r.domain_id, r.theta_hat, r.theta_star_hat + c,
                             r.var_primary, r.var_proxy, r.cov_primary_proxy)
                for r in records
            ]
        )
        assert proxy_only.rho == pytest.approx(base.rho + c, abs=1e-12)
        assert proxy_only.gamma2 == pytest.approx(base.gamma2, rel=1e-10, abs=1e-14)

    def test_zero_noise_gives_population_variance(self):
        ds = [0.05, -0.2, 0.4, 0.1]
        model = fit_mom([rec(d, 0.0, f"d{i}") for i, d in enumerate(ds)])
        mean = sum(ds) / len(ds)
        pop_var = sum((d - mean) ** 2 for d in ds) / len(ds)
        assert model.gamma2 == pytest.approx(pop_var, rel=1e-12)

    def test_gamma2_nonnegative_fuzz(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            m = int(rng.integers(1, 9))
            records = [
                rec(rng.normal(scale=0.5), float(rng.random()), f"d{i}")
                for i in range(m)
            ]
            assert fit_mom(records).gamma2 >= 0.0

    def test_matches_reference_on_random_histories(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            m = int(rng.integers(2, 20))
            ds = rng.normal(scale=1.0, size=m).tolist()
            dvs = (rng.random(m) * 0.05).tolist()
            model = fit_mom([rec(d, v, f"d{i}") for i, (d, v) in enumerate(zip(ds, dvs))])
            ref_rho, ref_g2 = mom_reference(ds, dvs)
            assert math.isclose(model.rho, ref_rho, rel_tol=1e-12, abs_tol=1e-15)
            assert math.isclose(model.gamma2, ref_g2, rel_tol=1e-12, abs_tol=1e-15)


class TestDebias:
    @pytest.mark.parametrize(
        "theta_star,rho,expected",
        [(0.5, 0.0, 0.5), (0.5, 0.2, 0.3), (-0.1, -0.1, 0.0)],
    )
    def test_examples(self, theta_star, rho, expected):
        target = TargetRecord("t", theta_star, 0.01)
        model = BiasModel(rho, 0.0, 1, (rho,), (0.0,))
        assert debias(target, model) == pytest.approx(expected, abs=1e-15)


class TestBiasModelValidation:
    def test_negative_gamma2_rejected(self):
        with pytest.raises(ValueError):
            BiasModel(0.0, -1e-9, 1, (0.0,), (0.0,))

    @pytest.mark.parametrize(
        "rho,gamma2", [(math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan), (0.0, math.inf)]
    )
    def test_non_finite_rejected(self, rho, gamma2):
        with pytest.raises(ValueError, match="must be finite"):
            BiasModel(rho, gamma2, 1, (0.0,), (0.0,))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BiasModel(0.0, 0.0, 2, (0.0,), (0.0, 0.0))


class TestMomentKernel:
    """The private kernel every fit shares: batches equal row-by-row calls exactly."""

    def arrays(self, k=37, seed=4):
        rng = np.random.default_rng(seed)
        d = rng.normal(0.02, 0.05, k)
        d[5] += 3.0  # one outlier domain
        return d, rng.uniform(1e-5, 4e-3, k)

    def assert_rows_equal(self, d_rows, dv_rows):
        from proxycal.core import _moments

        w = np.random.default_rng(3).uniform(size=d_rows.shape[-1])
        for weights in (None, w / w.sum()):
            rho, raw = _moments(d_rows, dv_rows, weights)
            rows = [_moments(dr, dvr, weights) for dr, dvr in zip(d_rows, dv_rows)]
            assert np.array_equal(rho, [r for r, _ in rows])
            assert np.array_equal(raw, [g for _, g in rows])

    def test_bootstrap_resample_rows(self):
        d, dv = self.arrays()
        idx = np.random.default_rng(9).integers(0, len(d), size=(200, len(d)))
        self.assert_rows_equal(d[idx], dv[idx])

    def test_leave_one_out_rows(self):
        d, dv = self.arrays()
        keep = ~np.eye(len(d), dtype=bool)
        self.assert_rows_equal(
            np.array([d[m] for m in keep]), np.array([dv[m] for m in keep])
        )

    def test_one_dimensional_arithmetic(self):
        from proxycal.core import _moments

        d, dv = self.arrays()
        rho, raw = _moments(d, dv)
        assert rho == d.mean()
        assert raw == ((d - float(d.mean())) ** 2).mean() - dv.mean()
        w = np.random.default_rng(2).uniform(size=len(d))
        w /= w.sum()
        rho_w, raw_w = _moments(d, dv, w)
        assert rho_w == w @ d
        assert raw_w == w @ (d - float(w @ d)) ** 2 - w @ dv

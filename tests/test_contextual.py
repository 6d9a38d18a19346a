import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from proxycal import (
    ContextWeights,
    DomainRecord,
    TargetRecord,
    contextual_interval,
    default_beta_grid,
    fit_mom,
    fit_weighted_mom,
    plugin_interval,
    similarity_weights,
    time_decay_weights,
)
from proxycal import contextual
from proxycal.contextual import _squared_distances, _weighted_loglik, best_beta, beta_profile
from proxycal.core import _bias_model, diff_arrays

from reference import (
    gaussian_weights_reference,
    weighted_loglik_reference,
    weighted_mom_reference,
)

Z975 = 1.959963984540054


def rec(d, s2, domain_id="d", context=None, timestamp=None, theta=0.5):
    return DomainRecord(domain_id, theta, theta + d, s2 / 2, s2 / 2, 0.0,
                        context=context, timestamp=timestamp)


class TestSimilarityWeights:
    def test_identical_contexts_uniform(self):
        w = similarity_weights([(1.0, 2.0)] * 5, (1.0, 2.0), beta=0.7)
        assert w.weights == pytest.approx((0.2,) * 5, abs=1e-15)

    def test_two_point_hand_arithmetic(self):
        w = similarity_weights([(0.0,), (1.0,)], (0.0,), beta=1.0)
        denom = 1.0 + math.exp(-0.5)
        assert w.weights[0] == pytest.approx(1.0 / denom, abs=1e-9)
        assert w.weights[1] == pytest.approx(math.exp(-0.5) / denom, abs=1e-9)
        assert w.weights[0] == pytest.approx(0.622459, abs=1e-6)
        assert w.weights[1] == pytest.approx(0.377541, abs=1e-6)

    def test_wide_bandwidth_limit_uniform(self):
        contexts = [(0.0, 0.3), (1.0, -0.2), (0.4, 0.9)]
        w = similarity_weights(contexts, (0.2, 0.2), beta=1e6)
        assert all(abs(x - 1 / 3) < 1e-9 for x in w.weights)

    def test_matches_reference(self):
        rng = np.random.default_rng(4)
        contexts = [tuple(rng.normal(size=3)) for _ in range(7)]
        target = tuple(rng.normal(size=3))
        w = similarity_weights(contexts, target, beta=0.8)
        ref = gaussian_weights_reference(contexts, target, 0.8)
        assert w.weights == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3, 8, 9, 17, 129])
    def test_squared_distances_equal_per_row_sums(self, p):
        # numpy sums a row of 8 or more entries pairwise; an einsum dot product
        # does not, and rounds differently from p = 3 on
        rng = np.random.default_rng(p)
        contexts = [tuple(rng.normal(size=p).tolist()) for _ in range(40)]
        target = tuple(rng.normal(size=p).tolist())
        tgt = np.asarray(target)
        expected = np.array([float(((np.asarray(c) - tgt) ** 2).sum()) for c in contexts])
        assert np.array_equal(_squared_distances(contexts, target), expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            similarity_weights([(0.0, 1.0), (0.0,)], (0.0, 1.0), beta=1.0)

    def test_target_outside_support(self):
        with pytest.raises(ValueError, match="support"):
            similarity_weights([(0.0,), (1.0,)], (1e6,), beta=0.01)

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            similarity_weights([(0.0,)], (0.0,), beta=0.0)


class TestTimeDecayWeights:
    def test_equal_timestamps_unchanged(self):
        base = similarity_weights([(0.0,), (1.0,)], (0.0,), beta=1.0)
        out = time_decay_weights(base, [5.0, 5.0], 5.0, h=2.0)
        assert out.weights == pytest.approx(base.weights, rel=1e-12)
        assert out.time_bandwidth == 2.0

    def test_hand_arithmetic(self):
        base = ContextWeights((0.5, 0.5), beta=1.0)
        out = time_decay_weights(base, [0.0, 10.0], 10.0, h=10.0)
        denom = math.exp(-0.5) + 1.0
        assert out.weights[0] == pytest.approx(math.exp(-0.5) / denom, abs=1e-9)
        assert out.weights[1] == pytest.approx(1.0 / denom, abs=1e-9)
        assert out.weights == pytest.approx((0.377541, 0.622459), abs=1e-6)

    def test_wide_bandwidth_unchanged(self):
        base = ContextWeights((0.3, 0.7), beta=1.0)
        out = time_decay_weights(base, [0.0, 50.0], 25.0, h=1e9)
        assert out.weights == pytest.approx(base.weights, abs=1e-9)

    def test_missing_or_mismatched_timestamps(self):
        base = ContextWeights((0.5, 0.5), beta=1.0)
        with pytest.raises(ValueError):
            time_decay_weights(base, [0.0], 0.0, h=1.0)
        with pytest.raises(ValueError):
            time_decay_weights(base, [0.0, None], 0.0, h=1.0)
        with pytest.raises(ValueError):
            time_decay_weights(base, [0.0, 1.0], 0.0, h=0.0)

    def test_renormalized_probability_vector(self):
        base = ContextWeights((0.2, 0.3, 0.5), beta=2.0)
        out = time_decay_weights(base, [0.0, 3.0, 9.0], 1.0, h=2.5)
        assert sum(out.weights) == pytest.approx(1.0, abs=1e-12)
        assert all(w >= 0 for w in out.weights)


class TestContextWeightsValidation:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ContextWeights((0.5, 0.4), beta=1.0)

    def test_nonnegative(self):
        with pytest.raises(ValueError):
            ContextWeights((1.5, -0.5), beta=1.0)


class TestFitWeightedMom:
    def test_uniform_weights_reduce_to_unweighted(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = int(rng.integers(2, 12))
            records = [rec(rng.normal(), float(rng.random() * 0.1), f"d{i}") for i in range(m)]
            uniform = ContextWeights((1.0 / m,) * m, beta=1.0)
            a = fit_mom(records)
            b = fit_weighted_mom(records, uniform)
            assert math.isclose(a.rho, b.rho, rel_tol=1e-12, abs_tol=1e-15)
            assert math.isclose(a.gamma2, b.gamma2, rel_tol=1e-12, abs_tol=1e-15)

    def test_point_mass(self):
        records = [rec(0.1, 0.05, "a"), rec(0.9, 0.02, "b")]
        model = fit_weighted_mom(records, ContextWeights((0.0, 1.0), beta=1.0))
        assert model.rho == pytest.approx(0.9, abs=1e-15)
        assert model.gamma2 == 0.0

    def test_hand_arithmetic(self):
        records = [rec(0.0, 0.0, "a"), rec(0.2, 0.0, "b")]
        model = fit_weighted_mom(records, ContextWeights((0.25, 0.75), beta=1.0))
        assert model.rho == pytest.approx(0.15, abs=1e-12)
        assert model.gamma2 == pytest.approx(0.0075, rel=1e-12)

    def test_matches_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = int(rng.integers(2, 10))
            ds = rng.normal(size=m).tolist()
            dvs = (rng.random(m) * 0.2).tolist()
            raw = rng.random(m)
            ws = (raw / raw.sum()).tolist()
            records = [rec(d, v, f"d{i}") for i, (d, v) in enumerate(zip(ds, dvs))]
            model = fit_weighted_mom(records, ContextWeights(tuple(ws), beta=1.0))
            ref_rho, ref_g2 = weighted_mom_reference(ds, dvs, ws)
            assert math.isclose(model.rho, ref_rho, rel_tol=1e-10, abs_tol=1e-14)
            assert math.isclose(model.gamma2, ref_g2, rel_tol=1e-10, abs_tol=1e-14)
            assert model.gamma2 >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_weighted_mom([rec(0.1, 0.0, "a")], ContextWeights((0.5, 0.5), beta=1.0))


def two_cluster_history():
    """Near cluster at context 0 with small differences, far cluster at 10
    with a shifted mean; tuning should lock onto the near cluster."""
    near = [(-0.1, 0.002), (0.0, -0.001), (0.1, 0.0015), (0.05, -0.002), (-0.05, 0.001)]
    far = [(9.9, 0.5), (10.0, 0.51), (10.1, 0.49), (10.05, 0.505), (9.95, 0.495)]
    records = []
    for i, (c, d) in enumerate(near):
        records.append(rec(d, 1e-4, f"near{i}", context=(c,)))
    for i, (c, d) in enumerate(far):
        records.append(rec(d, 1e-4, f"far{i}", context=(c,)))
    return records


class TestTuneBeta:
    def test_singleton_grid(self):
        history = two_cluster_history()
        beta, ll = best_beta(beta_profile(history, (0.0,), [3.3]))
        assert beta == 3.3
        assert math.isfinite(ll)

    def test_totality_on_unstructured_history(self):
        rng = np.random.default_rng(2)
        history = [
            rec(float(rng.normal(0.1, 0.05)), 1e-3, f"d{i}", context=(float(rng.normal()),))
            for i in range(8)
        ]
        grid = default_beta_grid()
        profile = beta_profile(history, (0.0,), grid)
        assert all(math.isfinite(ll) for _, ll in profile)
        beta, ll = best_beta(profile)
        assert beta in grid and math.isfinite(ll)

    def test_two_cluster_selects_near_cluster(self):
        history = two_cluster_history()
        grid = default_beta_grid()
        beta, ll = best_beta(beta_profile(history, (0.0,), grid))

        # dense-grid reference evaluation of the objective
        ds = [r.theta_star_hat - r.theta_hat for r in history]
        dvs = [r.var_primary + r.var_proxy - 2 * r.cov_primary_proxy for r in history]
        contexts = [r.context for r in history]
        ref = []
        for b in grid:
            ws = gaussian_weights_reference(contexts, (0.0,), b)
            ref.append(weighted_loglik_reference(ds, dvs, ws))
        best_ref = max(range(len(grid)), key=lambda i: (ref[i], -i))
        assert beta == grid[best_ref]
        assert ll == pytest.approx(ref[best_ref], rel=1e-9)

        weights = similarity_weights(contexts, (0.0,), beta)
        near_mass = sum(weights.weights[:5])
        assert near_mass > 0.9

    def test_flat_profile_breaks_ties_to_first(self):
        history = [rec(0.1 * i, 1e-3, f"d{i}", context=(0.5,)) for i in range(4)]
        grid = [0.1, 1.0, 10.0]
        beta, _ = best_beta(beta_profile(history, (0.5,), grid))
        # identical contexts: weights uniform at every beta, objective flat
        assert beta == grid[0]

    def test_degenerate_variance_scores_minus_inf_not_crash(self):
        # identical contexts force uniform weights, hence an exactly zero
        # fitted variance on equal differences with zero difference variance
        history = [rec(0.2, 0.0, "a", context=(0.0,)), rec(0.2, 0.0, "b", context=(0.0,))]
        profile = beta_profile(history, (0.0,), [0.5, 5.0])
        assert all(ll == -math.inf for _, ll in profile)
        beta, ll = best_beta(profile)
        assert beta == 0.5 and ll == -math.inf

    def test_underflowing_bandwidth_scored_not_raised(self):
        history = [rec(0.0, 1e-3, "a", context=(0.0,)), rec(0.3, 1e-3, "b", context=(1e4,))]
        profile = beta_profile(history, (5e3,), [1e-3, 1.0, 1e4])
        assert profile[0][1] == -math.inf
        assert math.isfinite(profile[2][1])

    @pytest.mark.parametrize("theta, message", [(1e308, "rho must be finite, got -inf"),
                                                (1e200, "gamma2 must be finite, got inf")])
    def test_overflowing_fit_raises(self, theta, message):
        history = [DomainRecord("a", theta, -theta, 0.0, 0.0, 0.0, context=(0.1,)),
                   rec(0.1, 0.0, "b", context=(0.2,)), rec(0.2, 0.02, "c", context=(0.3,))]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=message):
            beta_profile(history, (0.15,), [0.01, 1.0, 100.0])

    def test_requires_contexts(self):
        with pytest.raises(ValueError, match="context"):
            beta_profile([rec(0.1, 1e-3, "a"), rec(0.2, 1e-3, "b")], (0.0,), [1.0])

    def test_context_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="context dimension mismatch"):
            beta_profile(two_cluster_history(), (0.0, 1.0), default_beta_grid())

    def test_profile_equals_per_bandwidth_similarity_weights(self):
        rng = np.random.default_rng(5)
        history = [
            rec(float(rng.normal(0.1, 0.05)), 1e-3, f"d{i}",
                context=tuple(float(c) for c in rng.normal(size=2)))
            for i in range(30)
        ] + [rec(0.1, 1e-3, "at-target", context=(0.3, -0.2))]
        # degenerate bandwidths: nonpositive, nan, and 1e-200, whose square
        # underflows so the at-target weight is 0/0
        grid = [-1.0, math.nan, 1e-200, 1e-3, *default_beta_grid(9)]
        d, dv = diff_arrays(history)
        expected = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for beta in grid:
                try:
                    weights = similarity_weights([r.context for r in history], (0.3, -0.2), beta)
                except ValueError:
                    expected.append((beta, -math.inf))
                    continue
                w = np.asarray(weights.weights)
                model = _bias_model(d, dv, w)
                expected.append((beta, _weighted_loglik(d, dv, w, model.rho, model.gamma2)))
            profile = beta_profile(history, (0.3, -0.2), grid)
        assert [ll for _, ll in expected[:3]] == [-math.inf] * 3
        assert profile == expected

    def test_profile_builds_no_bias_model(self, monkeypatch):
        history = two_cluster_history()
        grid = default_beta_grid()
        expected = beta_profile(history, (0.0,), grid)

        def refuse(*args):
            raise AssertionError("beta_profile built a BiasModel")

        monkeypatch.setattr(contextual, "_bias_model", refuse)
        assert beta_profile(history, (0.0,), grid) == expected


class TestContextualInterval:
    def test_wide_bandwidth_equals_global_plugin(self):
        rng = np.random.default_rng(6)
        history = [
            rec(float(rng.normal(0.1, 0.02)), 1e-3, f"d{i}", context=(float(rng.normal()),))
            for i in range(6)
        ]
        target = TargetRecord("t", 0.8, 0.002, context=(0.3,))
        a = contextual_interval(target, history, 0.05, beta=1e8)
        b = plugin_interval(target, fit_mom(history), 0.05)
        assert a.lower == pytest.approx(b.lower, rel=1e-9)
        assert a.upper == pytest.approx(b.upper, rel=1e-9)

    def test_concentrated_weight_hand_arithmetic(self):
        history = [
            DomainRecord("near", 0.2, 0.5, 0.01, 0.01, 0.01, context=(0.0,)),
            DomainRecord("far", 0.0, 0.9, 0.01, 0.01, 0.01, context=(50.0,)),
        ]
        target = TargetRecord("t", 1.0, 0.01, context=(0.0,))
        iv = contextual_interval(target, history, 0.05, beta=0.5)
        assert iv.lower == pytest.approx(0.7 - Z975 * 0.1, abs=1e-9)
        assert iv.upper == pytest.approx(0.7 + Z975 * 0.1, abs=1e-9)
        assert iv.lower == pytest.approx(0.504004, abs=1e-6)
        assert iv.upper == pytest.approx(0.895996, abs=1e-6)

    def test_zero_gamma2_width(self):
        history = [rec(0.1, 0.05, "a", context=(0.0,)), rec(0.1, 0.05, "b", context=(0.1,))]
        target = TargetRecord("t", 0.5, 0.004, context=(0.05,))
        iv = contextual_interval(target, history, 0.05, beta=1.0)
        assert iv.width == pytest.approx(2 * Z975 * math.sqrt(0.004), rel=1e-12)

    def test_time_decay_path(self):
        history = [
            rec(0.0, 1e-4, "old", context=(0.0,), timestamp=0.0),
            rec(0.4, 1e-4, "new", context=(0.0,), timestamp=100.0),
        ]
        target = TargetRecord("t", 1.0, 1e-4, context=(0.0,), timestamp=100.0)
        iv = contextual_interval(target, history, 0.05, beta=1.0, h=1.0)
        # recency dominates: debiased center approaches 1.0 - 0.4
        assert (iv.lower + iv.upper) / 2 == pytest.approx(0.6, abs=1e-3)

    def test_missing_context_or_timestamp_errors(self):
        history = [rec(0.1, 1e-3, "a", context=(0.0,)), rec(0.2, 1e-3, "b", context=(1.0,))]
        with pytest.raises(ValueError, match="context"):
            contextual_interval(TargetRecord("t", 1.0, 0.01), history, 0.05, beta=1.0)
        with pytest.raises(ValueError, match="timestamp"):
            contextual_interval(
                TargetRecord("t", 1.0, 0.01, context=(0.0,)), history, 0.05, beta=1.0, h=1.0
            )


def test_loglik_translation_invariance():
    rng = np.random.default_rng(44)
    contexts = [(float(rng.normal()),) for _ in range(6)]
    ds = rng.normal(0.2, 0.1, size=6).tolist()
    dvs = (rng.random(6) * 0.01).tolist()
    ws = gaussian_weights_reference(contexts, (0.0,), 1.0)
    base = weighted_loglik_reference(ds, dvs, ws)
    shifted = weighted_loglik_reference([d + 3.0 for d in ds], dvs, ws)
    assert shifted == pytest.approx(base, rel=1e-9)


# (difference, var_primary, var_proxy, correlation, raw weight) per domain
WEIGHTED_DOMAIN = st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e6), st.floats(0.0, 1e6),
                            st.floats(-1.0, 1.0), st.floats(0.0, 1.0))


@given(st.lists(WEIGHTED_DOMAIN, min_size=1, max_size=30))
@example([(0.1, 1.0, 1.0, 0.0, 1.0), (0.1, 1.0, 1.0, 0.0, 0.0)])  # truncated, point mass
@example([(0.0, 0.0, 0.0, 0.0, 0.5), (1e6, 0.0, 0.0, 0.0, 0.5)])  # no sampling variance
def test_gamma2_nonnegative_and_finite(rows):
    # cov scaled into the Cauchy-Schwarz bound, down to exact zeros
    history = [DomainRecord(f"d{k}", 0.5, 0.5 + d, vp, vx, c * math.sqrt(vp * vx) * (1 - 1e-9))
               for k, (d, vp, vx, c, _) in enumerate(rows)]
    raw = np.array([row[-1] for row in rows])
    assume(raw.sum() > 0.0)
    weights = ContextWeights(tuple(raw / raw.sum()), beta=1.0)
    for model in (fit_mom(history), fit_weighted_mom(history, weights)):
        assert math.isfinite(model.gamma2) and model.gamma2 >= 0.0

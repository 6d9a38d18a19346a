import dataclasses
import functools
import hashlib
import inspect
import math
import os
import sys
import threading
import tracemalloc
from itertools import count, islice

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from proxycal import (
    DomainRecord,
    ESTIMATORS,
    SimConfig,
    cov_components,
    exact_prevalence,
    run_experiment,
    sample_unit_ball,
)
from proxycal import core, intervals, simulation
from proxycal.core import _record_columns
from proxycal.simulation import (
    DomainData,
    _domain_table,
    _expit,
    _ndtr,
    _outcome_table,
    _proxy_table,
    _replicate_domains,
)
from proxycal._rng import substream

from reference import (
    count_reference,
    density_ratio,
    domain_reference,
    enumerated_prevalence,
    enumerated_prevalence_sd,
    mc_prevalence,
    outcome_reference,
    proxy_reference,
    transport_reference,
)

CFG = SimConfig(n_domains=5, n_per_domain=100, seed=0)


def oracle_domain(cfg, mu, delta, rng):
    """:func:`domain_reference` of one domain of ``cfg``, drawn from ``rng``."""
    x, y, proxy = domain_reference(rng, cfg.n_per_domain, mu, delta,
                                   cfg.lambda1, cfg.phi1, cfg.lambda2, cfg.phi2)
    return DomainData(covariates=x, primary=y, proxy=proxy, mean=np.asarray(mu, dtype=float))


def replicate(cfg, rep):
    """The K domains of one replicate, drawn by the oracle one after another from its
    stream, each with arrays of its own."""
    rng = substream(cfg.seed, rep, simulation._PATH_GEN)
    means, deltas = simulation._domain_means(cfg, rng)
    return [oracle_domain(cfg, mu, delta, rng) for mu, delta in zip(means, deltas)]


def label_domain(cfg, mu, delta, rng):
    """One domain through a slot of its own, as a replicate draws and labels it."""
    slot = simulation._Slot(cfg)
    simulation._draw(slot, rng)
    return simulation._label(cfg, slot, np.asarray(mu, dtype=float), delta)


def copy_stream(rng):
    """A generator at the same point of the same stream as ``rng``."""
    copy = np.random.Generator(type(rng.bit_generator)())
    copy.bit_generator.state = rng.bit_generator.state
    return copy


def assert_domains_equal(got, want):
    for name in ("covariates", "primary", "proxy", "mean"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def pair_transport(means, sources):
    """``(delta, var)`` whose row j transports source j to every mean in ``means``."""
    pairs = [simulation._transport_block(src, means) for src in sources]
    return np.array([d for d, _ in pairs]), np.array([v for _, v in pairs])


class TestSampleUnitBall:
    def test_inside_ball_always(self):
        rng = substream(1, 0)
        for _ in range(2000):
            assert np.linalg.norm(sample_unit_ball(4, rng)) <= 1.0

    def test_centered(self):
        rng = substream(2, 0)
        draws = np.array([sample_unit_ball(4, rng) for _ in range(100_000)])
        assert np.all(np.abs(draws.mean(axis=0)) < 0.02)

    def test_radius_distribution(self):
        # P(||mu|| <= r) = r^p for the uniform ball
        rng = substream(3, 0)
        norms = np.array([np.linalg.norm(sample_unit_ball(4, rng)) for _ in range(100_000)])
        assert np.mean(norms <= 0.5) == pytest.approx(0.5 ** 4, abs=0.01)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            sample_unit_ball(0, substream(0, 0))


class TestThresholdCount:
    """Hand counts of ``_count`` and of the count oracle, centered at p/2."""

    @staticmethod
    def centered(rows, delta):
        x = np.array(rows, dtype=float)
        counts = simulation._count(x, delta, np.empty(len(x), dtype=np.uint8))
        assert counts.tolist() == [count_reference(row, delta) for row in rows]
        return (counts - x.shape[1] / 2.0).tolist()

    def test_all_above(self):
        assert self.centered([(1.0, 1.0, 1.0, 1.0)], 0.0) == [2.0]

    def test_symmetric(self):
        assert self.centered([(-1.0, -1.0, 1.0, 1.0)], 0.0) == [0.0]

    def test_hand_count(self):
        assert self.centered([(0.1, 0.2, 0.3, 0.4)], 0.25) == [0.0]

    def test_batched(self):
        assert self.centered([[1.0] * 4, [-1.0] * 4], 0.0) == [2.0, -2.0]


def outcome_at(x, delta, cfg):
    """The outcome table's entry at the count of the point ``x``, which the oracle equals."""
    count = count_reference(x, delta)
    value = _outcome_table(cfg)[count]
    assert value == outcome_reference(count, cfg.dim_p, cfg.lambda1, cfg.phi1)
    return value


def proxy_at(x, cfg):
    """The proxy table's entry at the count of the point ``x``, which the oracle equals."""
    count = count_reference(x, 0.0)
    value = _proxy_table(cfg)[count]
    assert value == proxy_reference(count, cfg.dim_p, cfg.lambda2, cfg.phi2)
    return value


class TestOutcomeProb:
    @pytest.mark.parametrize(
        "x,expected",
        [
            ((0.1, 0.1, -0.1, -0.1), 0.119203),  # T = 0
            ((1.0, 1.0, 1.0, 1.0), 0.268941),    # T = 2
            ((-1.0,) * 4, 0.047426),             # T = -2
        ],
    )
    def test_hand_logistic(self, x, expected):
        assert outcome_at(x, 0.0, CFG) == pytest.approx(expected, abs=1e-6)

    def test_strictly_interior(self):
        table = _outcome_table(CFG)
        assert np.all((table > 0) & (table < 1))


class TestProxyScore:
    def test_arctan_zero(self):
        # lambda2*T + phi2 = 0 at T = -4 for the default parameters
        cfg = SimConfig(n_domains=2, n_per_domain=10, dim_p=8,
                        mu_target=(0.0,) * 8)
        assert proxy_at((-1.0,) * 8, cfg) == pytest.approx(0.5, abs=1e-12)

    def test_arctan_one(self):
        assert proxy_at((-1.0,) * 4, CFG) == pytest.approx(0.75, abs=1e-12)

    def test_hand_value(self):
        assert proxy_at((0.1, 0.1, -0.1, -0.1), CFG) == pytest.approx(0.852416, abs=1e-6)

    def test_interior(self):
        table = _proxy_table(CFG)
        assert np.all((table > 0) & (table < 1))


def port_configs(p):
    """Configs over p coordinates; lambda1 = 800 sends the logistic into overflow."""
    for lam in (0.0, 0.5, 3.0, 800.0):
        yield SimConfig(n_domains=2, n_per_domain=10, dim_p=p, lambda1=lam, phi1=2.0,
                        lambda2=lam, phi2=-1.5, mu_target=(0.0,) * p)


class TestSpecialPorts:
    """The lookup tables and scalar kernels against the formulas they replace."""

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_outcome_table_equals_expit(self, p):
        special = pytest.importorskip("scipy.special")
        t = np.arange(p + 1) - p / 2.0
        for cfg in port_configs(p):
            expected = special.expit(cfg.lambda1 * t - cfg.phi1)
            np.testing.assert_array_equal(_outcome_table(cfg), expected)

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_proxy_table_equals_arctan(self, p):
        for cfg in port_configs(p):
            expected = [proxy_reference(c, p, cfg.lambda2, cfg.phi2) for c in range(p + 1)]
            assert _proxy_table(cfg).tolist() == expected

    def test_expit_equals_scipy(self):
        special = pytest.importorskip("scipy.special")
        v = np.linspace(-800.0, 800.0, 20_001)
        assert [_expit(a) for a in v.tolist()] == special.expit(v).tolist()
        assert _expit(-800.0) == 0.0

    def test_ndtr_equals_scipy_at_used_means(self):
        special = pytest.importorskip("scipy.special")
        for mu in (0.0, 0.25, -0.25, 0.5, -0.5, 10.0):
            assert _ndtr(mu) == special.ndtr(mu)

    def test_ndtr_close_to_scipy(self):
        special = pytest.importorskip("scipy.special")
        a = np.linspace(-10.0, 10.0, 4_001)
        np.testing.assert_allclose([_ndtr(v) for v in a.tolist()], special.ndtr(a),
                                   rtol=1e-14, atol=0.0)


class TestDensityRatio:
    def test_identical_means_unit(self):
        rng = substream(6, 0)
        x = rng.standard_normal((50, 4))
        mu = np.array([0.3, -0.2, 0.1, 0.0])
        assert np.allclose([density_ratio(row, mu, mu) for row in x], 1.0)

    def test_hand_value(self):
        x = np.zeros(4)
        mu_t = np.array([1.0, 0.0, 0.0, 0.0])
        assert density_ratio(x, np.zeros(4), mu_t) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_at_target_mode(self):
        mu_s = np.array([0.4, 0.4, 0.0, 0.0])
        mu_t = np.array([-0.3, 0.2, 0.1, 0.0])
        val = density_ratio(mu_t, mu_s, mu_t)
        assert val == pytest.approx(math.exp(0.5 * np.sum((mu_t - mu_s) ** 2)), rel=1e-12)
        assert val >= 1.0


TRANSPORT_CASES = [(2, 30, 0.0, 1), (4, 60, 1.0, 2), (5, 40, 10.0, 3), (7, 25, 0.5, 4)]


class TestWeightedTransport:
    @pytest.mark.parametrize("n_domains, n_per_domain, kappa, seed", TRANSPORT_CASES)
    def test_every_pair_matches_brute_force(self, n_domains, n_per_domain, kappa, seed):
        cfg = SimConfig(n_domains=n_domains, n_per_domain=n_per_domain, kappa=kappa, seed=seed)
        domains = replicate(cfg, 0)
        delta, var = pair_transport(np.stack([dom.mean for dom in domains]), domains[:-1])
        assert delta.shape == var.shape == (n_domains - 1, n_domains)
        for j, src in enumerate(domains[:-1]):
            xs, resids = src.covariates.tolist(), (src.primary - src.proxy).tolist()
            for t, dom in enumerate(domains):
                ref = transport_reference(xs, resids, src.mean.tolist(), dom.mean.tolist())
                assert (delta[j, t], var[j, t]) == pytest.approx(ref, rel=1e-10)

    # one row per block, 7, 8 and 13 rows (no n here is a multiple of 7), and
    # more rows than n; n = 27 = 2 * 13 + 1 leaves a one-row last block
    @pytest.mark.parametrize("rows", [1, 7, 8, 13, None])
    @pytest.mark.parametrize("n_domains, n_per_domain, kappa, seed",
                             TRANSPORT_CASES + [(3, 50, 2.0, 5), (3, 27, 1.5, 6)])
    def test_every_block_size_matches_brute_force(
        self, monkeypatch, rows, n_domains, n_per_domain, kappa, seed
    ):
        rows = rows or n_per_domain + 1
        monkeypatch.setattr(simulation, "_TRANSPORT_BLOCK_BYTES", 8 * n_domains * rows)
        self.test_every_pair_matches_brute_force(n_domains, n_per_domain, kappa, seed)

    def test_multi_block_bytes_pinned(self):
        # three 1 MiB blocks per source, the last one partial; the golden
        # simulate pins all fit in a single block
        cfg = SimConfig(n_domains=25, n_per_domain=12_000, kappa=1.0, seed=0)
        rows = simulation._TRANSPORT_BLOCK_BYTES // (8 * cfg.n_domains)
        assert 2 * rows < cfg.n_per_domain < 3 * rows
        # the sources stream through a replicate's two slots, drawn one ahead
        with _replicate_domains(cfg, 0) as (means, domains):
            delta, var = pair_transport(means, islice(domains, cfg.n_domains - 1))
        digest = hashlib.sha256(delta.tobytes() + var.tobytes()).hexdigest()
        assert digest == "4f8d85911c995c5fedf1aa46520501907b35f3b69394534b669aa01c24f667fb"

    @staticmethod
    def transport_peak() -> int:
        """tracemalloc's peak over one ``_transport_block`` call at n = 100,000, K = 25."""
        rng = np.random.default_rng(6)
        n, k = 100_000, 25
        src = DomainData(covariates=rng.standard_normal((n, 4)),
                         primary=(rng.random(n) < 0.3).astype(np.int8),
                         proxy=rng.random(n), mean=np.zeros(4))
        mu_targets = 0.5 * rng.standard_normal((k, 4))
        tracemalloc.start()
        try:
            simulation._transport_block(src, mu_targets)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_bounded_at_large_n(self):
        # one n x K float64 array alone would take 19 MiB
        assert self.transport_peak() < 8 * 2**20

    # the default block and 1/16 of it: sixteen times as many blocks
    @pytest.mark.parametrize("fraction", [1, 16])
    def test_memory_is_one_block_buffer(self, monkeypatch, fraction):
        block = simulation._TRANSPORT_BLOCK_BYTES // fraction
        monkeypatch.setattr(simulation, "_TRANSPORT_BLOCK_BYTES", block)
        # one block of log ratios plus (3, rows) residual powers is 1.12 blocks at
        # K = 25; numpy adds one fixed 8 * bufsize-byte buffer for a broadcast operand
        assert self.transport_peak() < 1.5 * block + 8 * np.getbufsize()


class TestGenDomain:
    """One domain as a replicate draws and labels it, against the oracle."""

    def test_primary_mean_near_truth(self):
        cfg = SimConfig(n_domains=2, n_per_domain=50_000, mu_target=(0.0,) * 4, seed=1)
        dom = label_domain(cfg, np.zeros(4), 0.0, substream(7, 0))
        truth = enumerated_prevalence((0.0,) * 4)
        se = math.sqrt(truth * (1 - truth) / cfg.n_per_domain)
        assert dom.primary.mean() == pytest.approx(truth, abs=3 * se)
        assert truth == pytest.approx(0.129045, abs=1e-6)

    def test_proxy_in_open_interval(self):
        dom = label_domain(CFG, np.zeros(4), 0.0, substream(8, 0))
        assert np.all((dom.proxy > 0) & (dom.proxy < 1))
        assert set(np.unique(dom.primary)) <= {0, 1}

    def test_covariate_mean_close(self):
        cfg = SimConfig(n_domains=2, n_per_domain=20_000, seed=1)
        mu = np.array([0.5, -0.5, 0.25, 0.0])
        dom = label_domain(cfg, mu, 0.0, substream(9, 0))
        bound = 3.0 / math.sqrt(cfg.n_per_domain)
        assert np.all(np.abs(dom.covariates.mean(axis=0) - mu) < bound)

    # kappa = 0 draws every threshold as zero; at kappa = 1 only the target's is
    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    def test_labels_and_proxies_equal_separate_counts(self, monkeypatch, kappa):
        cfg = SimConfig(n_domains=6, n_per_domain=500, kappa=kappa, seed=11)
        rng = substream(cfg.seed, 0, simulation._PATH_GEN)
        means, deltas = simulation._domain_means(cfg, rng)
        calls = []
        counted = simulation._count

        def counting(x, delta, out):
            calls.append(delta)
            return counted(x, delta, out)

        monkeypatch.setattr(simulation, "_count", counting)
        # -0.0 thresholds like 0.0, so it counts once too
        for mu, delta in [*zip(means, deltas), (means[0], -0.0)]:
            expected = oracle_domain(cfg, mu, delta, copy_stream(rng))
            calls.clear()
            assert_domains_equal(label_domain(cfg, mu, delta, rng), expected)
            assert len(calls) == (1 if delta == 0.0 else 2)
        assert (np.array(deltas) == 0.0).sum() == (cfg.n_domains if kappa == 0.0 else 1)


class TestDrawAhead:
    CFG = SimConfig(n_domains=5, n_per_domain=2_000, replicates=4, seed=14,
                    estimators=("ppi_weighted",), adjustments=("plugin",))

    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    def test_domains_equal_sequential_draws(self, kappa):
        cfg = SimConfig(n_domains=6, n_per_domain=400, kappa=kappa, seed=12)
        for rep in range(2):
            expected = replicate(cfg, rep)
            with _replicate_domains(cfg, rep) as (means, domains):
                # each domain is compared before the next is requested
                for dom, ref in zip(domains, expected, strict=True):
                    assert_domains_equal(dom, ref)
            assert means.tobytes() == np.stack([ref.mean for ref in expected]).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_thread_outlives_a_replicate(self, monkeypatch, workers):
        cfg = dataclasses.replace(self.CFG, workers=workers)
        before = threading.active_count()
        run_experiment(cfg)
        assert threading.active_count() == before

        boom = RuntimeError("third transport")
        calls = count(1)
        transport = simulation._transport_block

        def failing(src, mu_targets):
            if next(calls) == 3:
                raise boom
            return transport(src, mu_targets)

        # the third call fails while the helper draws the next domain
        monkeypatch.setattr(simulation, "_transport_block", failing)
        with pytest.raises(RuntimeError) as info:
            run_experiment(cfg)
        assert info.value is boom
        assert threading.active_count() == before

    def test_stress_more_workers_than_cores_with_short_switch_interval(self):
        # a draw that overwrote a slot still in use would change the results
        cfg = SimConfig(n_domains=6, n_per_domain=400, kappa=1.0, replicates=12,
                        bootstrap_draws=200, seed=16)
        expected = run_experiment(cfg)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: results.append(
                run_experiment(dataclasses.replace(cfg, workers=2 * (os.cpu_count() or 1) + 1))
            ))
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert results == [expected]

    def test_public_functions_run_on_the_calling_thread(self, monkeypatch):
        # the benchmark's tracer keeps one span stack and assumes one thread
        modules = (simulation, intervals, core)
        names = {module.__name__ for module in modules}
        threads = {}

        def recorded(key, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                threads.setdefault(key, set()).add(threading.get_ident())
                return fn(*args, **kwargs)
            return wrapper

        # every binding of a public function, in each module that imports it
        for module in modules:
            for name, fn in list(vars(module).items()):
                if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ in names:
                    monkeypatch.setattr(module, name, recorded(f"{fn.__module__}.{name}", fn))
        monkeypatch.setattr(simulation, "_draw", recorded("_draw", simulation._draw))
        cfg = SimConfig(n_domains=5, n_per_domain=300, kappa=1.0, replicates=2,
                        bootstrap_draws=200, seed=15)
        simulation.run_experiment(cfg)
        caller = threading.get_ident()
        helpers = threads.pop("_draw")
        assert caller not in helpers
        assert {key: {caller} for key in threads} == threads
        assert {"proxycal.simulation.run_experiment", "proxycal.simulation.cov_components",
                "proxycal.intervals.bootstrap_interval", "proxycal.intervals.plugin_interval",
                "proxycal.intervals.wald_interval"} <= set(threads)


class TestCovComponents:
    def test_constant_series_zero(self):
        dom = DomainData(np.zeros((4, 4)), np.ones(4, dtype=np.int8),
                         np.full(4, 0.5), np.zeros(4))
        assert np.allclose(cov_components(dom), 0.0)

    def test_hand_two_point(self):
        dom = DomainData(np.zeros((2, 4)), np.array([0, 1], dtype=np.int8),
                         np.array([0.2, 0.8]), np.zeros(4))
        cov = cov_components(dom)
        assert cov == pytest.approx(np.array([[0.25, 0.15], [0.15, 0.09]]), rel=1e-12)

    def test_psd_fuzz(self):
        rng = substream(10, 0)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            dom = DomainData(
                np.zeros((n, 4)),
                (rng.random(n) < 0.3).astype(np.int8),
                rng.random(n) * 0.98 + 0.01,
                np.zeros(4),
            )
            cov = cov_components(dom)
            assert cov[0, 1] == cov[1, 0]
            assert cov[0, 1] ** 2 <= cov[0, 0] * cov[1, 1] + 1e-12

    def test_requires_two_units(self):
        dom = DomainData(np.zeros((1, 4)), np.ones(1, dtype=np.int8),
                         np.full(1, 0.5), np.zeros(4))
        with pytest.raises(ValueError):
            cov_components(dom)


def make_domain(y, ystar, mean, n_p=4):
    y = np.asarray(y, dtype=np.int8)
    ystar = np.asarray(ystar, dtype=float)
    return DomainData(np.zeros((len(y), n_p)), y, ystar, np.asarray(mean, dtype=float))


def domain_table(domains, estimators):
    """:func:`_domain_table` of a list of domains, their means stacked."""
    return _domain_table(np.stack([dom.mean for dom in domains]), domains, estimators)


def target_estimates(domains):
    """(estimate, variance) of every estimator, with the last domain as target."""
    _, _, table = domain_table(domains, ESTIMATORS)
    return {name: (float(est[-1]), float(var[-1])) for name, (est, var, _) in table.items()}


def history_columns(domains, estimator):
    """``(5, K - 1)`` rows of the labeled domains' ``theta_hat``,
    ``theta_star_hat``, ``var_primary``, ``var_proxy`` and ``cov_primary_proxy``."""
    theta_hat, var_primary, table = domain_table(domains, (estimator,))
    theta_star, var_proxy, cov = table[estimator]
    return np.stack([theta_hat, theta_star, var_primary, var_proxy, cov])[:, :-1]


class TestEstimateAll:
    def test_zero_residuals_collapse_to_proxy(self):
        rng = substream(11, 0)
        doms = []
        for k in range(3):
            y = (rng.random(50) < 0.5).astype(np.int8)
            doms.append(make_domain(y, y.astype(float), rng.standard_normal(4)))
        est = target_estimates(doms)
        assert est["ppi"][0] == pytest.approx(est["proxy_only"][0], abs=1e-12)
        assert est["ppi_weighted"][0] == pytest.approx(est["proxy_only"][0], abs=1e-12)

    def test_equal_weights_make_weighted_match_plain(self):
        rng = substream(12, 0)
        mu = np.array([0.2, -0.1, 0.0, 0.4])
        doms = []
        for k in range(3):
            x = rng.standard_normal((80, 4)) + mu
            y = (rng.random(80) < 0.3).astype(np.int8)
            doms.append(DomainData(x, y, rng.random(80), mu.copy()))
        est = target_estimates(doms)
        assert est["ppi_weighted"][0] == pytest.approx(est["ppi"][0], rel=1e-12)

    def test_two_point_hand_arithmetic(self):
        source = make_domain([1, 0], [0.8, 0.2], np.zeros(4))
        target = make_domain([0, 1], [0.5, 0.5], np.zeros(4))
        est = target_estimates([source, target])
        # residuals (0.2, -0.2): rectifier 0, S_DD = 0.08, var term 0.08/2
        assert est["ppi"][0] == pytest.approx(0.5, abs=1e-15)
        assert est["ppi"][1] == pytest.approx(0.0 + 0.04, rel=1e-12)
        assert est["proxy_only"] == (0.5, 0.0)

    def test_requires_two_domains(self):
        with pytest.raises(ValueError):
            target_estimates([make_domain([0, 1], [0.5, 0.5], np.zeros(4))])

    def test_variances_nonnegative_fuzz(self):
        for rep in range(5):
            cfg = SimConfig(n_domains=4, n_per_domain=150, kappa=1.5, seed=40 + rep)
            est = target_estimates(replicate(cfg, 0))
            assert all(var >= 0.0 for _, var in est.values())


class TestBuildHistory:
    def test_shapes_and_validity(self):
        cfg = SimConfig(n_domains=6, n_per_domain=120, kappa=0.8, seed=3)
        domains = replicate(cfg, 0)
        for estimator in ("primary_only", "proxy_only", "ppi", "ppi_weighted"):
            columns = history_columns(domains, estimator)
            assert columns.shape == (5, cfg.n_domains - 1)
            # record construction re-validates the covariance constraints
            for k, row in enumerate(columns.T.tolist()):
                DomainRecord(f"d{k}", *row)

    def test_primary_only_history_is_degenerate_self_proxy(self):
        cfg = SimConfig(n_domains=4, n_per_domain=60, seed=4)
        domains = replicate(cfg, 0)
        theta, theta_star, var_primary, var_proxy, cov = history_columns(domains, "primary_only")
        assert np.array_equal(theta_star, theta)
        assert (var_primary + var_proxy - 2 * cov == 0.0).all()

    def test_proxy_methods_never_read_target_primary(self):
        cfg = SimConfig(n_domains=4, n_per_domain=60, seed=5)
        domains = replicate(cfg, 0)
        poisoned = [DomainData(d.covariates, d.primary.copy(), d.proxy, d.mean)
                    for d in domains]
        poisoned[-1].primary = 1 - poisoned[-1].primary
        base = target_estimates(domains)
        pois = target_estimates(poisoned)
        for name in ("proxy_only", "ppi", "ppi_weighted"):
            assert base[name] == pois[name]
        assert base["primary_only"] != pois["primary_only"]
        for estimator in ("proxy_only", "ppi", "ppi_weighted"):
            a = history_columns(domains, estimator)
            b = history_columns(poisoned, estimator)
            assert np.array_equal(a, b)

    def test_rectifier_excludes_own_domain(self):
        # poisoning domain k's labels must not move its own record's proxy side
        cfg = SimConfig(n_domains=4, n_per_domain=60, seed=6)
        domains = replicate(cfg, 0)
        poisoned = [DomainData(d.covariates, d.primary.copy(), d.proxy, d.mean)
                    for d in domains]
        poisoned[0].primary = 1 - poisoned[0].primary
        for estimator in ("ppi", "ppi_weighted"):
            a = history_columns(domains, estimator)[1, 0]
            b = history_columns(poisoned, estimator)[1, 0]
            rect_a = a - domains[0].proxy.mean()
            rect_b = b - domains[0].proxy.mean()
            assert rect_a == pytest.approx(rect_b, abs=1e-15)


def sequential_history(domains, estimator):
    """Records built one by one, each rectifier summed source after source."""
    labeled = domains[:-1]
    m = len(labeled)
    resid = [dom.primary - dom.proxy for dom in labeled]
    pair_delta, pair_var = pair_transport(np.stack([dom.mean for dom in domains]), labeled)
    records = []
    for k, dom in enumerate(labeled):
        cov = cov_components(dom)
        ybar, ysbar = float(dom.primary.mean()), float(dom.proxy.mean())
        if estimator == "primary_only":
            records.append(DomainRecord(f"d{k}", ybar, ybar, cov[0, 0], cov[0, 0], cov[0, 0]))
            continue
        rect = extra = 0.0
        if estimator != "proxy_only":
            for j in range(m):
                if j == k:
                    continue
                if estimator == "ppi":
                    rect += float(resid[j].mean())
                    extra += float(resid[j].var(ddof=1)) / len(resid[j])
                else:
                    rect += pair_delta[j, k]
                    extra += pair_var[j, k]
            rect /= m - 1
            extra /= (m - 1) ** 2
        records.append(
            DomainRecord(f"d{k}", ybar, ysbar + rect, cov[0, 0], cov[1, 1] + extra, cov[0, 1])
        )
    return records


class TestDomainTable:
    def test_cov_components_once_per_domain_per_replicate(self, monkeypatch):
        calls = []
        original = simulation.cov_components

        def counting(domain):
            calls.append(domain)
            return original(domain)

        monkeypatch.setattr(simulation, "cov_components", counting)
        cfg = SimConfig(n_domains=5, n_per_domain=100, replicates=3, bootstrap_draws=200, seed=7)
        run_experiment(cfg)
        assert len(calls) == cfg.replicates * cfg.n_domains

    def test_record_is_estimate_with_domain_as_target(self):
        cfg = SimConfig(n_domains=6, n_per_domain=150, kappa=1.0, seed=8)
        domains = replicate(cfg, 0)
        labeled = domains[:-1]
        for estimator in ("primary_only", "proxy_only", "ppi", "ppi_weighted"):
            _, theta_star, _, var_proxy, _ = history_columns(domains, estimator)
            for k in range(len(labeled)):
                swapped = labeled[:k] + labeled[k + 1:] + [labeled[k]]
                value, variance = target_estimates(swapped)[estimator]
                if estimator == "ppi_weighted":
                    assert theta_star[k] == pytest.approx(value, rel=1e-12)
                    assert var_proxy[k] == pytest.approx(variance, rel=1e-12)
                else:
                    assert (theta_star[k], var_proxy[k]) == (value, variance)

    def test_streamed_replicate_equals_listed_domains(self):
        # every domain drawn ahead into one of two slots and reduced before a
        # later draw overwrites it
        cfg = SimConfig(n_domains=7, n_per_domain=90, kappa=1.0, seed=10)
        with _replicate_domains(cfg, 0) as (means, domains):
            theta_hat, var_primary, table = _domain_table(means, domains, ESTIMATORS)
        ref_theta_hat, ref_var_primary, ref_table = domain_table(replicate(cfg, 0), ESTIMATORS)
        assert theta_hat.tobytes() == ref_theta_hat.tobytes()
        assert var_primary.tobytes() == ref_var_primary.tobytes()
        for name in ESTIMATORS:
            for got, ref in zip(table[name], ref_table[name]):
                assert got.tobytes() == ref.tobytes()

    def test_rejects_domain_count_unlike_means(self):
        domains = replicate(CFG, 0)
        means = np.stack([dom.mean for dom in domains])
        for short, long in [(means, domains[:-1]), (means[:-1], domains)]:
            with pytest.raises(ValueError):
                _domain_table(short, long, ESTIMATORS)

    @staticmethod
    def replicate_peak(n_domains: int) -> int:
        """tracemalloc's peak over one ``ppi_weighted`` x plug-in replicate at n = 20,000."""
        cfg = SimConfig(n_domains=n_domains, n_per_domain=20_000, replicates=1, seed=0,
                        estimators=("ppi_weighted",), adjustments=("plugin",))
        tracemalloc.start()
        try:
            run_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_is_one_domain_whatever_the_domain_count(self):
        # all 40 domains' covariates alone would take 24 MiB
        peaks = [self.replicate_peak(k) for k in (10, 40)]
        assert abs(peaks[1] - peaks[0]) < 2**19
        # one domain's covariates, int8 labels and proxies, plus one transport
        # call as bounded in TestWeightedTransport, plus the slot that the
        # next domain is drawn into: covariates, uniforms, counts and labels
        n, p = 20_000, 4
        domain = n * (8 * p + 1 + 8)
        slot = n * (8 * p + 8 + 1 + 1)
        assert max(peaks) < (domain + slot + 1.5 * simulation._TRANSPORT_BLOCK_BYTES
                             + 8 * np.getbufsize())

    def test_records_equal_sequential_sums_at_ten_domains(self):
        # nine sources: numpy's pairwise 1-D sum would round differently here
        cfg = SimConfig(n_domains=10, n_per_domain=200, kappa=1.0, seed=9)
        for rep in range(3):
            domains = replicate(cfg, rep)
            for estimator in ("primary_only", "proxy_only", "ppi", "ppi_weighted"):
                assert np.array_equal(
                    history_columns(domains, estimator),
                    _record_columns(sequential_history(domains, estimator)),
                )


class TestTruth:
    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=10))
    @example([0.0, 0.0, 0.0, 0.0])
    @example([0.5, -0.5, 0.5, -0.5])
    @example([0.2, 0.1, -0.3, 0.9])
    def test_exact_prevalence_matches_reference_enumeration(self, mu):
        cfg = SimConfig(n_domains=2, n_per_domain=10, dim_p=len(mu), mu_target=mu, seed=0)
        assert exact_prevalence(cfg) == pytest.approx(enumerated_prevalence(mu), rel=1e-12)

    def test_mc_truth_converges_to_enumeration(self):
        samples = 200_000
        approx = mc_prevalence((0.0,) * 4, samples, substream(13, 0))
        exact = enumerated_prevalence((0.0,) * 4)
        se = enumerated_prevalence_sd((0.0,) * 4) / math.sqrt(samples)
        assert approx == pytest.approx(exact, abs=4 * se)

    def test_saturating_mean_limit(self):
        # all coordinates far above threshold: count saturates at T = p/2.
        # Phi(10) rounds to 1, so the count law is a point mass at p; at
        # p = 40 an enumeration would visit 2^40 patterns.
        for p in (4, 40):
            cfg = SimConfig(n_domains=2, n_per_domain=10, dim_p=p, mu_target=(10.0,) * p, seed=0)
            assert exact_prevalence(cfg) == _expit(cfg.lambda1 * p / 2 - cfg.phi1)


class TestRunExperiment:
    def test_result_shape(self):
        cfg = SimConfig(n_domains=5, n_per_domain=100, replicates=10, seed=2)
        cells = run_experiment(cfg)
        assert len(cells) == 4 * 3
        keys = {(c.estimator, c.adjustment) for c in cells}
        assert len(keys) == 12
        for c in cells:
            assert 0.0 <= c.coverage <= 1.0
            assert c.mean_length >= 0.0
            assert c.replicates == 10

    def test_bit_reproducible_across_runs_and_workers(self):
        base = SimConfig(n_domains=5, n_per_domain=100, replicates=6, seed=9)
        a = run_experiment(base)
        b = run_experiment(base)
        c = run_experiment(SimConfig(n_domains=5, n_per_domain=100, replicates=6, seed=9,
                                     workers=3))
        assert a == b == c

    def test_estimator_subset_matches_full_run(self):
        full = run_experiment(SimConfig(n_domains=5, n_per_domain=100, replicates=5, seed=12))
        sub = run_experiment(SimConfig(n_domains=5, n_per_domain=100, replicates=5, seed=12,
                                       estimators=("proxy_only",), adjustments=("bootstrap",)))
        wanted = next(c for c in full if (c.estimator, c.adjustment) == ("proxy_only", "bootstrap"))
        assert sub == [wanted]

    def test_primary_only_wald_sanity_coverage(self):
        cfg = SimConfig(n_domains=5, n_per_domain=5000, replicates=500, seed=100,
                        estimators=("primary_only",), adjustments=("none",))
        cell = run_experiment(cfg)[0]
        assert cell.coverage == pytest.approx(0.95, abs=0.03)


class TestSimConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_domains=1, n_per_domain=10),
            dict(n_domains=5, n_per_domain=0),
            dict(n_domains=5, n_per_domain=10, kappa=-1.0),
            dict(n_domains=5, n_per_domain=10, alpha=1.0),
            dict(n_domains=5, n_per_domain=10, mu_target=(0.0,)),
            dict(n_domains=5, n_per_domain=10, estimators=("nope",)),
            dict(n_domains=5, n_per_domain=10, adjustments=("nope",)),
            dict(n_domains=5, n_per_domain=10, workers=0),
            dict(n_domains=5, n_per_domain=10, replicates=0),
            dict(n_domains=5, n_per_domain=1),
            dict(n_domains=5, n_per_domain=10, bootstrap_draws=1),
            dict(n_domains=5, n_per_domain=10, kappa=math.nan),
            dict(n_domains=5, n_per_domain=10, kappa=math.inf),
            dict(n_domains=5, n_per_domain=10, lambda1=math.inf),
            dict(n_domains=5, n_per_domain=10, phi1=math.nan),
            dict(n_domains=5, n_per_domain=10, lambda2=-math.inf),
            dict(n_domains=5, n_per_domain=10, phi2=math.nan),
            dict(n_domains=5, n_per_domain=10, alpha=math.nan),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

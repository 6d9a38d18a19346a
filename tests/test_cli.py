import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import proxycal
from proxycal import (
    BiasModel,
    DomainRecord,
    SimConfig,
    TargetRecord,
    bootstrap_interval,
    fit_mom,
    loo_table,
)
from proxycal.cli import build_parser, main
from proxycal.dataio import (
    SchemaError,
    file_digest,
    load_history,
    load_model,
    load_sim_configs,
    load_target,
    manifest_path,
    write_model,
)

HISTORY_HEADER = "domain_id,theta_hat,theta_star_hat,var_primary,var_proxy,cov_primary_proxy"

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def history_csv(tmp_path, rows, header=HISTORY_HEADER, name="history.csv"):
    return write(tmp_path / name, header + "\n" + "\n".join(rows) + "\n")


THREE_ROWS = [
    "a,0.5,0.6,0.005,0.005,0.0025",
    "b,0.5,0.8,0.005,0.005,0.0025",
    "c,0.5,0.7,0.005,0.005,0.0025",
]


HISTORY_COMMANDS = ["fit", "loo", "adjust", "tune-context"]


def history_argv(tmp_path, command, rows):
    """``(history path, argv)`` running ``command`` on ``rows`` into ``out.txt``.

    ``adjust`` reads the history through ``--history``; for ``tune-context``
    each row gets a ``context_x`` column holding its index.
    """
    out = str(tmp_path / "out.txt")
    if command == "tune-context":
        rows = [f"{row},{i}" for i, row in enumerate(rows)]
        hist = history_csv(tmp_path, rows, header=HISTORY_HEADER + ",context_x")
        return hist, [command, str(hist), "--target-context", "0.5", "--out", out]
    hist = history_csv(tmp_path, rows)
    if command == "adjust":
        target = target_csv(tmp_path)
        return hist, [command, "--history", str(hist), "--target", str(target), "--out", out]
    return hist, [command, str(hist), "--out", out]


class TestHistoryLoading:
    def test_roundtrip_with_context_and_timestamp(self, tmp_path):
        path = history_csv(
            tmp_path,
            ["a,0.1,0.2,0.01,0.02,0.003,1.5,-2.0,100", "b,0.3,0.4,0.01,0.02,0.003,0.5,0.0,200"],
            header=HISTORY_HEADER + ",context_x,context_y,timestamp",
        )
        records = load_history(path)
        assert records[0].context == (1.5, -2.0)
        assert records[0].timestamp == 100.0
        assert records[1].domain_id == "b"

    def test_missing_column_named(self, tmp_path):
        path = write(tmp_path / "h.csv", "domain_id,theta_hat\na,0.5\n")
        with pytest.raises(SchemaError, match="theta_star_hat"):
            load_history(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = history_csv(tmp_path, ["a,0.5,0.6,0.01,0.01,0.0,7"],
                           header=HISTORY_HEADER + ",mystery")
        with pytest.raises(SchemaError, match="mystery"):
            load_history(path)

    def test_duplicate_domain_id(self, tmp_path):
        path = history_csv(tmp_path, ["a,0.5,0.6,0.01,0.01,0.0", "a,0.5,0.7,0.01,0.01,0.0"])
        with pytest.raises(SchemaError, match="duplicate"):
            load_history(path)

    def test_bad_number_located(self, tmp_path):
        path = history_csv(tmp_path, ["a,0.5,oops,0.01,0.01,0.0"])
        with pytest.raises(SchemaError, match=r"row 2.*theta_star_hat"):
            load_history(path)

    def test_covariance_violation_names_domain(self, tmp_path):
        path = history_csv(tmp_path, ["weird,0.5,0.6,0.0001,0.0001,0.9"])
        with pytest.raises(SchemaError, match="weird"):
            load_history(path)

    @pytest.mark.parametrize("column, value", [("context_x", "nan"), ("timestamp", "inf"),
                                               ("theta_hat", "-inf")])
    def test_non_finite_value_located(self, tmp_path, column, value):
        header = HISTORY_HEADER + ",context_x,timestamp"
        fields = dict(zip(header.split(","), "a,0.5,0.6,0.01,0.01,0.0,1.5,100".split(",")))
        fields[column] = value
        path = history_csv(tmp_path, ["b,0.5,0.6,0.01,0.01,0.0,0.5,90", ",".join(fields.values())],
                           header=header)
        with pytest.raises(SchemaError, match=rf"h.*\.csv: row 3, column '{column}'.*not finite"):
            load_history(path)
        assert main(["fit", str(path), "--out", str(tmp_path / "m.txt")]) == 2

    @pytest.mark.parametrize("row, fields", [("b,0.5,0.7,0.01,0.01", 5),
                                             ("b,0.5,0.7,0.01,0.01,0.0,9", 7)])
    def test_ragged_row_exit_2(self, tmp_path, capsys, row, fields):
        path = history_csv(tmp_path, [THREE_ROWS[0], row, THREE_ROWS[2]])
        assert main(["fit", str(path), "--out", str(tmp_path / "m.txt")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: row 3: {fields} field(s), but the header has 6" in err

    def test_repeated_header_name_exit_2(self, tmp_path, capsys):
        # a second theta_hat column would otherwise win: rho -0.125, not 0.125
        path = history_csv(tmp_path, ["a,0.5,0.6,0.01,0.01,0.0,0.8", "b,0.5,0.65,0.01,0.01,0.0,0.7"],
                           header=HISTORY_HEADER + ",theta_hat")
        assert main(["fit", str(path), "--out", str(tmp_path / "m.txt")]) == 2
        assert "repeated column name(s) in header: theta_hat" in capsys.readouterr().err

    def test_rows_named_by_file_line_after_blank_lines(self, tmp_path):
        path = write(tmp_path / "h.csv", f"{HISTORY_HEADER}\n{THREE_ROWS[0]}\n\n"
                     "b,0.5,oops,0.01,0.01,0.0\n")
        with pytest.raises(SchemaError, match=r"h\.csv: row 4, column 'theta_star_hat'"):
            load_history(path)
        path = write(tmp_path / "h.csv", f"{HISTORY_HEADER}\n\n{THREE_ROWS[0]}\n\n{THREE_ROWS[0]}\n")
        with pytest.raises(SchemaError, match="duplicate domain_id 'a' at row 5"):
            load_history(path)

    def test_empty_file_and_no_rows(self, tmp_path):
        with pytest.raises(SchemaError):
            load_history(write(tmp_path / "e.csv", ""))
        with pytest.raises(SchemaError):
            load_history(write(tmp_path / "h.csv", HISTORY_HEADER + "\n"))

    def test_byte_order_mark_skipped(self, tmp_path):
        plain = history_csv(tmp_path, THREE_ROWS)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_history(marked) == load_history(plain)

    # (theta_hat, theta_star_hat, var_primary, var_proxy, correlation, side values) per domain
    ROW = st.tuples(FINITE, FINITE, st.floats(0.0, 1e6), st.floats(0.0, 1e6),
                    st.floats(-1.0, 1.0), st.lists(FINITE, min_size=4, max_size=4))

    @settings(max_examples=100)
    @given(ids=st.lists(st.text("abz_-09\u00e9", min_size=1, max_size=6),
                        min_size=1, max_size=20, unique=True),
           rows=st.lists(ROW, min_size=20, max_size=20), n_context=st.integers(0, 3),
           timed=st.booleans())
    def test_written_history_reloads_equal(self, tmp_path_factory, ids, rows, n_context, timed):
        # cov scaled into the Cauchy-Schwarz bound, down to exact zeros
        records = [DomainRecord(i, th, ts, vp, vx, c * math.sqrt(vp * vx) * (1 - 1e-9),
                                context=tuple(side[:n_context]) or None,
                                timestamp=side[-1] if timed else None)
                   for i, (th, ts, vp, vx, c, side) in zip(ids, rows)]
        header = HISTORY_HEADER + "".join(f",context_{j}" for j in range(n_context))
        header += ",timestamp" if timed else ""
        lines = [header]
        for r in records:
            values = [r.theta_hat, r.theta_star_hat, r.var_primary, r.var_proxy,
                      r.cov_primary_proxy, *(r.context or ()), *([r.timestamp] if timed else [])]
            lines.append(",".join([r.domain_id, *map(repr, values)]))
        path = tmp_path_factory.getbasetemp() / "roundtrip-history.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert load_history(path) == records


class TestInputEncoding:
    def test_utf8_history_fits_under_ascii_locale(self, tmp_path):
        hist = tmp_path / "history.csv"
        hist.write_text(HISTORY_HEADER + "\nd\u00e9,0.5,0.6,0.005,0.005,0.0025\n"
                        + "\n".join(THREE_ROWS) + "\n", encoding="utf-8")
        src = str(Path(proxycal.__file__).resolve().parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "proxycal.cli", "fit", str(hist),
                              "--out", str(tmp_path / "m.txt")],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        assert load_model(tmp_path / "m.txt").n_domains == 4

    @pytest.mark.parametrize("role", ["history", "target", "model", "config"])
    def test_undecodable_file_exit_2_names_it(self, tmp_path, capsys, role):
        hist = history_csv(tmp_path, THREE_ROWS)
        model = tmp_path / "model.txt"
        write_model(model, fit_mom(load_history(hist)))
        paths = {"history": hist, "target": target_csv(tmp_path), "model": model,
                 "config": write(tmp_path / "cfg.txt", SMOKE_CONFIG)}
        bad = paths[role]
        # a Latin-1 e-acute in the last line
        bad.write_bytes(bad.read_bytes() + b"# caf\xe9\n")
        argv = {
            "history": ["fit", str(hist)],
            "target": ["adjust", "--history", str(hist), "--target", str(paths["target"])],
            "model": ["adjust", "--model", str(model), "--target", str(paths["target"])],
            "config": ["simulate", str(paths["config"])],
        }[role]
        assert main(argv + ["--out", str(tmp_path / "out.txt")]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9" in err


class TestTargetLoading:
    def test_single_row(self, tmp_path):
        path = write(tmp_path / "t.csv",
                     "domain_id,theta_star_hat,var_proxy\ntarget,0.5,0.0004\n")
        target = load_target(path)
        assert target.theta_star_hat == 0.5

    @pytest.mark.parametrize("context, timestamp", [("nan", "1.0"), ("0.1", "-inf")])
    def test_non_finite_context_or_timestamp_located(self, tmp_path, capsys, context, timestamp):
        path = write(tmp_path / "t.csv", "domain_id,theta_star_hat,var_proxy,context_x,timestamp\n"
                     f"t,0.5,0.0004,{context},{timestamp}\n")
        column = "context_x" if context == "nan" else "timestamp"
        with pytest.raises(SchemaError, match=rf"t\.csv: row 2, column '{column}'.*not finite"):
            load_target(path)
        model = tmp_path / "model.txt"
        write_model(model, fit_mom([DomainRecord("d", 0.5, 0.6, 0.01, 0.01, 0.0)]))
        assert main(["adjust", "--model", str(model), "--target", str(path),
                     "--out", str(tmp_path / "i.txt")]) == 2
        assert column in capsys.readouterr().err

    @pytest.mark.parametrize("row, fields", [("target,0.5", 2), ("target,0.5,0.0004,1", 4)])
    def test_ragged_row_exit_2(self, tmp_path, capsys, row, fields):
        path = write(tmp_path / "t.csv", f"domain_id,theta_star_hat,var_proxy\n{row}\n")
        model = tmp_path / "model.txt"
        write_model(model, fit_mom([DomainRecord("d", 0.5, 0.6, 0.01, 0.01, 0.0)]))
        assert main(["adjust", "--model", str(model), "--target", str(path),
                     "--out", str(tmp_path / "i.txt")]) == 2
        assert f"{path}: row 2: {fields} field(s), but the header has 3" in capsys.readouterr().err

    def test_multiple_rows_rejected(self, tmp_path):
        path = write(tmp_path / "t.csv",
                     "domain_id,theta_star_hat,var_proxy\nt1,0.5,0.0004\nt2,0.6,0.0004\n")
        with pytest.raises(SchemaError, match="exactly 1"):
            load_target(path)


class TestModelFile:
    def test_roundtrip_exact(self, tmp_path):
        records = [DomainRecord(f"d{i}", 0.5, 0.5 + d, 0.005, 0.005, 0.0025)
                   for i, d in enumerate([0.1, 0.3, 0.2])]
        model = fit_mom(records)
        path = tmp_path / "model.txt"
        write_model(path, model)
        loaded = load_model(path)
        assert loaded == model

    def test_rejects_foreign_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_model(write(tmp_path / "m.txt", "something = else\n"))

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "model.txt"
        write_model(path, BiasModel(0.02, 0.0005, 3, (0.02,) * 3, (0.0,) * 3))
        path.write_text(path.read_text() + "rho = 0.5\n")
        with pytest.raises(SchemaError, match=r"model\.txt: line 8: duplicate key 'rho'"):
            load_model(path)
        code = main(["adjust", "--model", str(path), "--target", str(target_csv(tmp_path)),
                     "--out", str(tmp_path / "i.txt")])
        assert code == 2
        assert "duplicate key 'rho'" in capsys.readouterr().err

    def test_unknown_keys_exit_2_listed_sorted(self, tmp_path, capsys):
        hist = history_csv(tmp_path, THREE_ROWS)
        path = tmp_path / "model.txt"
        assert main(["fit", str(hist), "--out", str(path)]) == 0
        path.write_text(path.read_text() + "gama2 = 5\nextra key here = 1\n")
        code = main(["adjust", "--model", str(path), "--target", str(target_csv(tmp_path)),
                     "--out", str(tmp_path / "i.txt")])
        assert code == 2
        assert (f"{path}: unknown model key(s): extra key here, gama2"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("line", ["rho = nan", "gamma2 = nan", "gamma2 = inf",
                                      "diffs = nan,inf", "diff_vars = -1.0,nan",
                                      "diff_vars = 0.0,-1.0,0.0"])
    def test_non_finite_model_number_names_file(self, tmp_path, capsys, line):
        path = tmp_path / "model.txt"
        write_model(path, BiasModel(0.02, 0.0005, 3, (0.02,) * 3, (0.0,) * 3))
        key = line.split(" = ")[0]
        text = "\n".join(line if ln.startswith(key + " = ") else ln
                         for ln in path.read_text().splitlines())
        path.write_text(text + "\n")
        code = main(["adjust", "--model", str(path), "--target", str(target_csv(tmp_path)),
                     "--out", str(tmp_path / "i.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"{key} must be finite" in err


    # (theta_hat, difference, var_primary, var_proxy, correlation) per domain
    DOMAIN = st.tuples(st.floats(0.0, 1.0), st.floats(-0.5, 0.5), st.floats(0.0, 0.05),
                       st.floats(0.0, 0.05), st.floats(-1.0, 1.0))

    @settings(max_examples=100)
    @given(rows=st.lists(DOMAIN, min_size=1, max_size=40))
    @example(rows=[(0.5, 0.1, 0.01, 0.01, 0.0)])  # single domain
    @example(rows=[(0.5, 0.1, 0.05, 0.05, 0.0), (0.5, 0.11, 0.05, 0.05, 0.0)])  # truncated
    def test_written_model_reloads_as_its_fit(self, tmp_path_factory, rows):
        history = [DomainRecord(f"d{i}", theta, theta + d, vp, vx, c * math.sqrt(vp * vx))
                   for i, (theta, d, vp, vx, c) in enumerate(rows)]
        model = fit_mom(history)
        path = tmp_path_factory.getbasetemp() / "roundtrip-model.txt"
        write_model(path, model)
        loaded = load_model(path)
        assert loaded == model
        target = TargetRecord("t", 0.5, 0.001)
        assert (bootstrap_interval(target, loaded, 0.1, draws=50, seed=3)
                == bootstrap_interval(target, model, 0.1, draws=50, seed=3))


class TestSimConfigFile:
    def test_grid_expansion_deterministic_order(self, tmp_path):
        path = write(tmp_path / "cfg.txt", "\n".join([
            "n_domains = 5,10",
            "n_per_domain = 100",
            "kappa = 0.0,1.0",
            "replicates = 3",
            "seed = 7",
        ]) + "\n")
        cells = load_sim_configs(path)
        assert [(c.kappa, c.n_domains) for c in cells] == [
            (0.0, 5), (0.0, 10), (1.0, 5), (1.0, 10)
        ]
        assert all(c.seed == 7 for c in cells)

    def test_unknown_keys_listed(self, tmp_path):
        path = write(tmp_path / "cfg.txt", "n_domains = 5\nn_per_domain = 10\nfrob = 1\nzork = 2\n")
        with pytest.raises(SchemaError, match="frob, zork"):
            load_sim_configs(path)

    def test_estimator_subset_and_mu(self, tmp_path):
        path = write(tmp_path / "cfg.txt", "\n".join([
            "n_domains = 4",
            "n_per_domain = 50",
            "mu_target = 0.0,0.0,0.0,0.0",
            "estimators = proxy_only,ppi",
            "adjustments = none",
        ]) + "\n")
        (cfg,) = load_sim_configs(path)
        assert cfg.estimators == ("proxy_only", "ppi")
        assert cfg.mu_target == (0.0,) * 4

    def test_missing_required_key(self, tmp_path):
        path = write(tmp_path / "cfg.txt", "n_domains = 5\n")
        with pytest.raises(SchemaError, match="n_per_domain"):
            load_sim_configs(path)

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        path = write(tmp_path / "cfg.txt", "n_domains = 5\n# comment\nn_per_domain = 10\n"
                     "n_domains = 6\n")
        with pytest.raises(SchemaError, match=r"cfg\.txt: line 4: duplicate key 'n_domains'"):
            load_sim_configs(path)
        assert main(["simulate", str(path), "--out", str(tmp_path / "r.csv")]) == 2
        assert "duplicate key 'n_domains'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line,message",
        [
            ("kappa = nan", "kappa must be finite"),
            ("lambda1 = inf", "lambda1 must be finite"),
            ("n_per_domain = 1", "n_per_domain must be >= 2"),
            ("bootstrap_draws = 1", "bootstrap_draws must be >= 2"),
            # 1 - alpha/2 rounds to 1, whose normal quantile is inf
            ("alpha = 1e-17", "alpha must lie in (2**-53, 1), got 1e-17"),
        ],
    )
    def test_invalid_value_names_file(self, tmp_path, capsys, line, message):
        body = {"n_domains": "3", "n_per_domain": "10", "replicates": "1"}
        key, value = line.split(" = ")
        body[key] = value
        path = write(tmp_path / "cfg.txt", "".join(f"{k} = {v}\n" for k, v in body.items()))
        assert main(["simulate", str(path), "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err
        assert not (tmp_path / "r.csv").exists()

    # A valid non-default value for every SimConfig field: the text written to
    # the config and the value load_sim_configs must return for it.
    NON_DEFAULT = {
        "n_domains": ("3", 3),
        "n_per_domain": ("7", 7),
        "kappa": ("0.5", 0.5),
        "dim_p": ("2", 2),
        "lambda1": ("0.25", 0.25),
        "phi1": ("3.0", 3.0),
        "lambda2": ("0.75", 0.75),
        "phi2": ("1.5", 1.5),
        "mu_target": ("0.25,-0.25", (0.25, -0.25)),
        "replicates": ("4", 4),
        "alpha": ("0.1", 0.1),
        "seed": ("11", 11),
        "bootstrap_draws": ("50", 50),
        "estimators": ("ppi, proxy_only", ("ppi", "proxy_only")),
        "adjustments": ("plugin", ("plugin",)),
        "workers": ("2", 2),
    }

    @pytest.mark.parametrize("field", dataclasses.fields(SimConfig), ids=lambda f: f.name)
    def test_every_field_is_a_config_key(self, tmp_path, field):
        text, value = self.NON_DEFAULT[field.name]
        assert value != field.default
        body = "".join(f"{k} = {t}\n" for k, (t, _) in self.NON_DEFAULT.items())
        (cfg,) = load_sim_configs(write(tmp_path / "cfg.txt", body))
        assert getattr(cfg, field.name) == value

    def test_unparseable_value_named(self, tmp_path):
        for line in ("kappa = 0.0,x", "mu_target = 0.5,,0.5,0.5", "replicates = 2.5"):
            path = write(tmp_path / "cfg.txt", f"n_domains = 5\nn_per_domain = 10\n{line}\n")
            key = line.split(" = ")[0]
            with pytest.raises(SchemaError, match=f"cannot parse {key} value"):
                load_sim_configs(path)


class TestCliFit:
    def test_three_row_fit(self, tmp_path, capsys):
        hist = history_csv(tmp_path, THREE_ROWS)
        out = tmp_path / "model.txt"
        assert main(["fit", str(hist), "--out", str(out)]) == 0
        model = load_model(out)
        assert model.rho == pytest.approx(0.2, abs=1e-12)
        assert model.gamma2 == pytest.approx(0.02 / 3 - 0.005, rel=1e-12)
        assert manifest_path(out).exists()

    def test_single_row_warns(self, tmp_path, capsys):
        hist = history_csv(tmp_path, [THREE_ROWS[0]])
        out = tmp_path / "model.txt"
        assert main(["fit", str(hist), "--out", str(out)]) == 0
        model = load_model(out)
        assert model.gamma2 == 0.0
        assert "insufficient_domains" in ",".join(model.warnings)
        assert "insufficient" in capsys.readouterr().err

    def test_negative_zero_variances_write_positive_zero(self, tmp_path):
        # -0.0 + -0.0 - 2 * 0.0 is -0.0; the clip at zero must not keep its sign
        hist = history_csv(tmp_path, ["a,0.5,0.6,-0.0,-0.0,0.0", THREE_ROWS[1]])
        out = tmp_path / "model.txt"
        assert main(["fit", str(hist), "--out", str(out)]) == 0
        assert "diff_vars = 0.0,0.005\n" in out.read_text()

    def test_missing_column_exit_2(self, tmp_path, capsys):
        bad = write(tmp_path / "h.csv", "domain_id,theta_hat\na,0.5\n")
        assert main(["fit", str(bad), "--out", str(tmp_path / "m.txt")]) == 2
        assert "theta_star_hat" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["fit", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.txt")]) == 2

    def test_directory_exit_2(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path), "--out", str(tmp_path / "m.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"Is a directory: '{tmp_path}'" in err

    # a difference beyond the float range, -inf, is the row's (1e308); finite
    # differences whose squares overflow (1e200) are the whole fit's
    @pytest.mark.parametrize("big, messages", [
        ("1e308", dict.fromkeys(HISTORY_COMMANDS, "{hist}: row 3: b: theta_star_hat - theta_hat "
                                                  "must be finite, got -inf")),
        ("1e200", {"fit": "{hist}: gamma2 must be finite, got inf",
                   "adjust": "{hist}: gamma2 must be finite, got inf",
                   "tune-context": "{hist}: gamma2 must be finite, got nan"}),
    ], ids=["1e308", "1e200"])
    @pytest.mark.parametrize("command", HISTORY_COMMANDS)
    def test_out_of_range_history_prints_one_error_line(
        self, tmp_path, capsys, command, big, messages
    ):
        rows = [THREE_ROWS[0], f"b,{big},-{big},0.005,0.005,0.0025", THREE_ROWS[2]]
        hist, argv = history_argv(tmp_path, command, rows)
        assert main(argv) == 2
        message = messages.get(command, "{hist}: held-out proxy interval endpoints must be finite")
        assert capsys.readouterr().err == f"error: {message.format(hist=hist)}\n"
        assert not (tmp_path / "out.txt").exists()
        assert not manifest_path(tmp_path / "out.txt").exists()

    # finite rows whose squared deviations overflow: the fit fails, and the file is named
    @pytest.mark.parametrize("command", ["fit", "adjust", "tune-context"])
    def test_overflowing_fit_names_file(self, tmp_path, capsys, command):
        rows = [f"{name},0.5,{big},0.005,0.005,0.0025"
                for name, big in zip("abc", ["1e200", "-1e200", "3e200"])]
        hist, argv = history_argv(tmp_path, command, rows)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {hist}: gamma2 must be finite, got ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out.txt").exists()
        assert not manifest_path(tmp_path / "out.txt").exists()

    # the variances overflow in their sum (inf), then the covariance too: inf - inf (nan)
    @pytest.mark.parametrize("cov, got", [("0.0025", "inf"), ("1e308", "nan")])
    @pytest.mark.parametrize("command", HISTORY_COMMANDS)
    def test_overflowing_difference_variance_names_file_and_row(
        self, tmp_path, capsys, command, cov, got
    ):
        rows = [THREE_ROWS[0], f"b,0.5,0.8,1e308,1e308,{cov}", THREE_ROWS[2]]
        hist, argv = history_argv(tmp_path, command, rows)
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {hist}: row 3: b: var_primary + var_proxy - 2 * cov_primary_proxy "
            f"must be finite, got {got}\n"
        )
        assert not (tmp_path / "out.txt").exists()
        assert not manifest_path(tmp_path / "out.txt").exists()

    def test_internal_fault_exit_1(self, tmp_path, capsys, monkeypatch):
        import proxycal.cli

        def broken(history):
            raise RuntimeError("boom")

        monkeypatch.setattr(proxycal.cli, "fit_mom", broken)
        hist = history_csv(tmp_path, THREE_ROWS)
        assert main(["fit", str(hist), "--out", str(tmp_path / "m.txt")]) == 1
        assert "internal error: boom" in capsys.readouterr().err


def target_csv(tmp_path, theta=0.5, var=0.0004):
    return write(tmp_path / "target.csv",
                 f"domain_id,theta_star_hat,var_proxy\ntarget,{theta},{var}\n")


def parse_kv(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


class TestCliAdjust:
    def test_plugin_from_model_file(self, tmp_path):
        # diffs -0.01, 0.02, 0.05 with variance 1e-4 each fit rho = 0.02, gamma2 = 0.0005
        records = [DomainRecord(f"d{i}", 0.0, d, 1e-4, 0.0, 0.0)
                   for i, d in enumerate((-0.01, 0.02, 0.05))]
        model_path = tmp_path / "model.txt"
        write_model(model_path, fit_mom(records))
        out = tmp_path / "interval.txt"
        code = main([
            "adjust", "--model", str(model_path), "--target", str(target_csv(tmp_path)),
            "--alpha", "0.05", "--method", "plugin", "--out", str(out),
        ])
        assert code == 0
        vals = parse_kv(out)
        assert float(vals["point"]) == pytest.approx(0.48, abs=1e-12)
        assert float(vals["lower"]) == pytest.approx(0.421201, abs=1e-6)
        assert float(vals["upper"]) == pytest.approx(0.538799, abs=1e-6)
        assert float(vals["level"]) == 0.95

    def test_zero_model_reduces_to_wald(self, tmp_path):
        from proxycal import BiasModel, wald_interval

        model_path = tmp_path / "model.txt"
        write_model(model_path, BiasModel(0.0, 0.0, 2, (0.0, 0.0), (0.0, 0.0)))
        out = tmp_path / "interval.txt"
        main(["adjust", "--model", str(model_path), "--target", str(target_csv(tmp_path)),
              "--method", "plugin", "--out", str(out)])
        vals = parse_kv(out)
        ref = wald_interval(0.5, 0.0004, 0.05)
        assert float(vals["lower"]) == ref.lower
        assert float(vals["upper"]) == ref.upper

    @pytest.mark.parametrize("k", [25, 800])
    def test_bootstrap_from_model_file_equals_history(self, tmp_path, k):
        hist = history_csv(tmp_path, random_rows(k, seed=k))
        model = tmp_path / "model.txt"
        assert main(["fit", str(hist), "--out", str(model)]) == 0
        outs = []
        for flag, source in (("--history", hist), ("--model", model)):
            out = tmp_path / f"interval{flag}.txt"
            code = main(["adjust", flag, str(source), "--target", str(target_csv(tmp_path)),
                         "--method", "bootstrap", "--draws", "2000", "--seed", "7",
                         "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("line", ["rho = 0.25", "gamma2 = 0.0", "n_domains = 4",
                                      "warnings = gamma2_truncated"])
    def test_model_file_disagreeing_with_its_diffs_exit_2(self, tmp_path, capsys, line):
        model = tmp_path / "model.txt"
        assert main(["fit", str(history_csv(tmp_path, THREE_ROWS)), "--out", str(model)]) == 0
        key = line.split(" = ")[0]
        model.write_text("\n".join(line if ln.startswith(key + " = ") else ln
                                   for ln in model.read_text().splitlines()) + "\n")
        out = tmp_path / "interval.txt"
        code = main(["adjust", "--model", str(model), "--target", str(target_csv(tmp_path)),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(model) in err and f"stored {key} = " in err
        assert not out.exists() and not manifest_path(out).exists()

    @pytest.mark.parametrize("sources", [["--history", "--model"], []])
    def test_not_exactly_one_source_exit_2(self, tmp_path, capsys, sources):
        hist = history_csv(tmp_path, THREE_ROWS)
        model = tmp_path / "model.txt"
        assert main(["fit", str(hist), "--out", str(model)]) == 0
        paths = {"--history": hist, "--model": model}
        out = tmp_path / "interval.txt"
        argv = ["adjust", "--target", str(target_csv(tmp_path)), "--out", str(out)]
        assert main(argv + [a for f in sources for a in (f, str(paths[f]))]) == 2
        err = capsys.readouterr().err
        assert "--history" in err and "--model" in err
        assert not out.exists() and not manifest_path(out).exists()

    def test_bootstrap_seeded_byte_identical(self, tmp_path):
        hist = history_csv(tmp_path, THREE_ROWS)
        target = target_csv(tmp_path)
        outs = []
        for name in ("i1.txt", "i2.txt"):
            out = tmp_path / name
            code = main(["adjust", "--history", str(hist), "--target", str(target),
                         "--method", "bootstrap", "--draws", "5000", "--seed", "31",
                         "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestCliLoo:
    def test_matched_history_rate_one(self, tmp_path):
        rows = [f"d{i},0.5,0.5,0.001,0.001,0.0" for i in range(4)]
        hist = history_csv(tmp_path, rows)
        out = tmp_path / "loo.csv"
        assert main(["loo", str(hist), "--alpha", "0.05,0.2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,method,overlap_rate,normalized_width"
        # two methods x two alphas
        assert len(lines) == 5
        assert all(line.split(",")[2] == "1.0" for line in lines[1:])

    def test_matches_library_rates(self, tmp_path):
        rows = [
            "d0,0.3,0.3,1e-06,1e-06,0.0",
            "d1,0.5,0.5,1e-06,1e-06,0.0",
            "d2,0.7,10.7,1e-06,1e-06,0.0",
        ]
        hist = history_csv(tmp_path, rows)
        out = tmp_path / "loo.csv"
        main(["loo", str(hist), "--alpha", "0.05", "--method", "unadjusted,plugin",
              "--out", str(out)])
        records = load_history(hist)
        by_method = {}
        for line in out.read_text().splitlines()[1:]:
            alpha, method, rate, width = line.split(",")
            by_method[method] = (float(rate), float(width))
        for method in ("unadjusted", "plugin"):
            assert [(0.05, *by_method[method])] == loo_table(records, [0.05], method)

    def test_too_few_rows_exit_2(self, tmp_path, capsys):
        hist = history_csv(tmp_path, [THREE_ROWS[0]])
        assert main(["loo", str(hist), "--out", str(tmp_path / "loo.csv")]) == 2
        assert f"{hist}: loo needs at least 2 history rows, found 1" in capsys.readouterr().err

    def test_one_held_out_pass_per_method(self, tmp_path, monkeypatch):
        import proxycal.diagnostics as diagnostics

        passes = []
        original = diagnostics._loo_endpoints

        def counted(history, alphas, method, *args):
            passes.append((method, tuple(alphas)))
            return original(history, alphas, method, *args)

        monkeypatch.setattr(diagnostics, "_loo_endpoints", counted)
        hist = history_csv(tmp_path, THREE_ROWS)
        out = tmp_path / "loo.csv"
        assert main(["loo", str(hist), "--alpha", "0.01,0.05,0.2", "--method",
                     "unadjusted,plugin,bootstrap", "--draws", "200", "--out", str(out)]) == 0
        assert passes == [(m, (0.01, 0.05, 0.2)) for m in ("unadjusted", "plugin", "bootstrap")]
        assert len(out.read_text().splitlines()) == 1 + 3 * 3

    @pytest.mark.parametrize("var_primary", ["0", "5e-324"])
    def test_zero_primary_width_exit_2_names_file_and_column(self, tmp_path, capsys, var_primary):
        # a denormal variance next to theta_hat = 0.5 also gives a point interval
        rows = [f"d{i},0.5,0.6,{var_primary},0.005,0.0" for i in range(3)]
        hist = history_csv(tmp_path, rows)
        out = tmp_path / "loo.csv"
        assert main(["loo", str(hist), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{hist}: " in err and "var_primary" in err and "zero mean width" in err
        assert not out.exists() and not manifest_path(out).exists()


SMOKE_CONFIG = "\n".join([
    "n_domains = 5",
    "n_per_domain = 100",
    "kappa = 0.0",
    "replicates = 10",
    "seed = 99",
    "bootstrap_draws = 500",
]) + "\n"


class TestCliSimulate:
    def test_smoke_shape_and_manifest(self, tmp_path):
        cfg = write(tmp_path / "cfg.txt", SMOKE_CONFIG)
        out = tmp_path / "results.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("kappa,")
        assert len(lines) == 1 + 4 * 3
        manifest = json.loads(manifest_path(out).read_text())
        assert manifest["command"] == "simulate"
        assert manifest["inputs"]["config"].startswith("sha256:")

    def test_byte_identical_reruns_and_workers(self, tmp_path):
        cfg1 = write(tmp_path / "c1.txt", SMOKE_CONFIG)
        cfg2 = write(tmp_path / "c2.txt", SMOKE_CONFIG + "workers = 3\n")
        blobs = []
        for name, cfg in (("r1.csv", cfg1), ("r2.csv", cfg1), ("r3.csv", cfg2)):
            out = tmp_path / name
            assert main(["simulate", str(cfg), "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_weighted_byte_identical_across_transport_blocks(self, tmp_path):
        from proxycal import simulation

        k, n = 25, 12_000
        assert n > 2 * (simulation._TRANSPORT_BLOCK_BYTES // (8 * k))
        text = (f"n_domains = {k}\nn_per_domain = {n}\nreplicates = 2\nseed = 4\n"
                "estimators = ppi_weighted\nadjustments = none,plugin\n")
        cfg1 = write(tmp_path / "c1.txt", text)
        cfg2 = write(tmp_path / "c2.txt", text + "workers = 2\n")
        blobs = []
        for name, cfg in (("r1.csv", cfg1), ("r2.csv", cfg1), ("r3.csv", cfg2)):
            out = tmp_path / name
            assert main(["simulate", str(cfg), "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_directory_exit_2(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path), "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"Is a directory: '{tmp_path}'" in err

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.txt", SMOKE_CONFIG + "volume = 11\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        assert "volume" in capsys.readouterr().err

    def test_mc_truth_samples_is_unknown_key(self, tmp_path, capsys):
        # the truth is exact, so no Monte Carlo sample count is configurable
        cfg = write(tmp_path / "cfg.txt", SMOKE_CONFIG + "mc_truth_samples = 1000\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: unknown config key(s): mc_truth_samples" in err
        assert not (tmp_path / "r.csv").exists()


class TestCliTuneContext:
    def make_history(self, tmp_path):
        rows = []
        near = [(-0.1, 0.0), (0.0, 0.01), (0.1, -0.01), (0.05, 0.005), (-0.05, -0.005)]
        far = [(9.9, 0.5), (10.0, 0.51), (10.1, 0.49), (10.05, 0.5), (9.95, 0.5)]
        for i, (c, d) in enumerate(near + far):
            rows.append(f"d{i},0.5,{0.5 + d},5e-05,5e-05,0.0,{c}")
        return history_csv(tmp_path, rows, header=HISTORY_HEADER + ",context_c")

    def test_singleton_grid(self, tmp_path):
        hist = self.make_history(tmp_path)
        out = tmp_path / "tune.txt"
        assert main(["tune-context", str(hist), "--target-context", "0.0",
                     "--beta-grid", "2.5", "--out", str(out)]) == 0
        vals = parse_kv(out)
        assert float(vals["beta_star"]) == 2.5

    def test_two_cluster_fixture(self, tmp_path):
        from proxycal import similarity_weights

        hist = self.make_history(tmp_path)
        out = tmp_path / "tune.txt"
        assert main(["tune-context", str(hist), "--target-context", "0.0",
                     "--out", str(out)]) == 0
        vals = parse_kv(out)
        beta_star = float(vals["beta_star"])
        records = load_history(hist)
        weights = similarity_weights([r.context for r in records], (0.0,), beta_star)
        assert sum(weights.weights[:5]) > 0.9
        assert len(vals["grid_logliks"].split(",")) == 41

    def test_profile_computed_once(self, tmp_path, monkeypatch):
        import proxycal.cli
        import proxycal.contextual

        calls = []
        original = proxycal.contextual.beta_profile

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(proxycal.cli, "beta_profile", counted)
        monkeypatch.setattr(proxycal.contextual, "beta_profile", counted)
        hist = self.make_history(tmp_path)
        out = tmp_path / "tune.txt"
        assert main(["tune-context", str(hist), "--target-context", "0.0",
                     "--out", str(out)]) == 0
        assert len(calls) == 1
        vals = parse_kv(out)
        logliks = [float(x) for x in vals["grid_logliks"].split(",")]
        assert float(vals["loglik_star"]) == max(logliks)

    @pytest.mark.parametrize("grid", ["-1,0,1", "0", "2.5,-0.5", "nan"])
    def test_nonpositive_beta_grid_exit_2(self, tmp_path, capsys, grid):
        hist = self.make_history(tmp_path)
        out = tmp_path / "tune.txt"
        assert main(["tune-context", str(hist), "--target-context", "0.0",
                     f"--beta-grid={grid}", "--out", str(out)]) == 2
        assert "--beta-grid" in capsys.readouterr().err
        assert not out.exists() and not manifest_path(out).exists()

    def test_missing_context_exit_2(self, tmp_path, capsys):
        hist = history_csv(tmp_path, THREE_ROWS)
        assert main(["tune-context", str(hist), "--target-context", "0.0",
                     "--out", str(tmp_path / "t.txt")]) == 2
        assert "context" in capsys.readouterr().err

    def test_single_row_names_file(self, tmp_path, capsys):
        hist = history_csv(tmp_path, ["a,0.5,0.6,0.005,0.005,0.0025,0.0"],
                           header=HISTORY_HEADER + ",context_c")
        assert main(["tune-context", str(hist), "--target-context", "0.0",
                     "--out", str(tmp_path / "t.txt")]) == 2
        err = capsys.readouterr().err
        assert f"{hist}: tune-context needs at least 2 history rows, found 1" in err

    # a target context whose distance overflows, one where every weight
    # underflows, and a bandwidth whose square underflows to zero
    @pytest.mark.parametrize("flags, beta, reason", [
        (["--target-context", "1e200"], "0.01", "all similarities underflowed"),
        (["--target-context", "1000", "--beta-grid", "0.01"], "0.01",
         "all similarities underflowed"),
        (["--target-context", "1.0", "--beta-grid", "1e-200"], "1e-200",
         "weights must be finite and nonnegative"),
    ], ids=["overflow", "underflow", "zero-bandwidth"])
    def test_no_usable_bandwidth_names_file_and_flags(self, tmp_path, capsys, flags, beta, reason):
        hist, argv = history_argv(tmp_path, "tune-context", THREE_ROWS)
        argv[argv.index("--target-context") : argv.index("--target-context") + 2] = flags
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.count("\n") == 1
        assert err.startswith(
            f"error: {hist}: every --beta-grid bandwidth scores -inf at --target-context "
            f"{flags[1]!r}, and the first, {beta}, has no usable weights: {reason}"
        )
        assert not (tmp_path / "out.txt").exists()
        assert not manifest_path(tmp_path / "out.txt").exists()

    def test_target_context_length_names_flag_and_file(self, tmp_path, capsys):
        rows = [row + ",0.0,1.0" for row in THREE_ROWS]
        hist = history_csv(tmp_path, rows, header=HISTORY_HEADER + ",context_x,context_y")
        assert main(["tune-context", str(hist), "--target-context", "0.1,0.2,0.3",
                     "--out", str(tmp_path / "t.txt")]) == 2
        err = capsys.readouterr().err
        assert (f"--target-context '0.1,0.2,0.3' has 3 value(s), "
                f"but {hist} has 2 context_* column(s)") in err


def random_rows(k, seed):
    """``k`` valid history rows drawn from a seeded stream."""
    rng = random.Random(seed)
    rows = []
    for i in range(k):
        theta = rng.uniform(0.2, 0.8)
        var_p, var_x = rng.uniform(1e-5, 1e-3), rng.uniform(1e-5, 1e-3)
        values = (theta, theta + rng.gauss(0.03, 0.05), var_p, var_x, 0.3 * min(var_p, var_x))
        rows.append(",".join([f"d{i}", *(repr(v) for v in values)]))
    return rows


def context_history(tmp_path):
    rows = [f"{row},{i},{-i}" for i, row in enumerate(THREE_ROWS)]
    return history_csv(tmp_path, rows, header=HISTORY_HEADER + ",context_a,context_b")


class TestFlagValues:
    @pytest.mark.parametrize("command, flag, value", [
        ("tune-context", "--target-context", "nan,0"),
        ("tune-context", "--target-context", "inf,0"),
        ("tune-context", "--beta-grid", "1,inf"),
        ("loo", "--alpha", "nan"),
    ])
    def test_non_finite_flag_value_exit_2(self, tmp_path, capsys, command, flag, value):
        hist = context_history(tmp_path)
        out = tmp_path / "out.txt"
        argv = [command, str(hist), f"{flag}={value}", "--out", str(out)]
        if flag == "--beta-grid":
            argv += ["--target-context", "0,0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert flag in err and repr(value) in err and "finite" in err
        assert not out.exists() and not manifest_path(out).exists()

    @pytest.mark.parametrize("argv, flag, shown", [
        ("loo {history} --alpha 1.5", "--alpha", "'1.5'"),
        ("loo {history} --alpha 0.05,0", "--alpha", "'0.05,0'"),
        ("adjust --history {history} --target {target} --alpha 0", "--alpha", "0.0"),
        ("adjust --history {history} --target {target} --alpha nan", "--alpha", "nan"),
        # 1 - alpha/2 rounds to 1, whose normal quantile is inf
        ("adjust --history {history} --target {target} --alpha 1e-17", "--alpha", "1e-17"),
        ("adjust --history {history} --target {target} --method bootstrap --alpha 1e-17",
         "--alpha", "1e-17"),
        ("loo {history} --alpha 0.05,1e-17", "--alpha", "'0.05,1e-17'"),
        ("adjust --history {history} --target {target} --method bootstrap --draws 1",
         "--draws", "1"),
        ("loo {history} --method bootstrap --draws 1", "--draws", "1"),
    ])
    def test_out_of_range_flag_value_exit_2(self, tmp_path, capsys, argv, flag, shown):
        out = tmp_path / "out.txt"
        paths = {"history": context_history(tmp_path), "target": target_csv(tmp_path)}
        assert main(argv.format(**paths).split() + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{flag} " in err and f"got {shown}" in err
        assert not out.exists() and not manifest_path(out).exists()

    @pytest.mark.parametrize("argv, flag", [
        ("loo {history} --alpha=", "--alpha"),
        ("loo {history} --method=", "--method"),
        ("tune-context {history} --target-context 0,0 --beta-grid=", "--beta-grid"),
        ("tune-context {history} --target-context=", "--target-context"),
    ])
    def test_empty_flag_list_exit_2(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out.txt"
        argv = argv.format(history=context_history(tmp_path)).split()
        assert main(argv + ["--out", str(out)]) == 2
        assert f"{flag} needs at least one value" in capsys.readouterr().err
        assert not out.exists() and not manifest_path(out).exists()

    def test_draws_unchecked_without_bootstrap(self, tmp_path):
        out = tmp_path / "out.txt"
        argv = ["loo", str(context_history(tmp_path)), "--method", "plugin", "--draws", "1"]
        assert main(argv + ["--out", str(out)]) == 0
        assert out.exists()


class TestManifests:
    # argv of each command (with {history}, {target}, {model}, {config} and
    # {out} to fill in), the input files given by role and the output role
    COMMANDS = {
        "fit": ("fit {history} --out {out}", ("history",), "model"),
        "adjust-model": ("adjust --model {model} --target {target} --out {out}",
                         ("model", "target"), "interval"),
        "adjust-bootstrap": ("adjust --history {history} --target {target} --method bootstrap "
                             "--draws 100 --seed 3 --out {out}", ("history", "target"), "interval"),
        "loo": ("loo {history} --alpha 0.05,0.2 --out {out}", ("history",), "table"),
        "simulate": ("simulate {config} --out {out}", ("config",), "results"),
        "tune-context": ("tune-context {history} --target-context 0.5,-0.5 --out {out}",
                         ("history",), "tuning"),
    }

    @pytest.mark.parametrize("name", COMMANDS)
    def test_manifest_records_arguments_and_files(self, tmp_path, name):
        template, given, role = self.COMMANDS[name]
        paths = {
            "history": context_history(tmp_path),
            "target": target_csv(tmp_path),
            "model": tmp_path / "model.txt",
            "config": write(tmp_path / "cfg.txt", "n_domains = 3\nn_per_domain = 50\n"
                            "replicates = 1\nbootstrap_draws = 50\nestimators = proxy_only\n"),
            "out": tmp_path / "out.txt",
        }
        write_model(paths["model"], fit_mom(load_history(paths["history"])))
        argv = template.format(**paths).split()
        assert main(argv) == 0

        manifest = json.loads(manifest_path(paths["out"]).read_text())
        parsed = vars(build_parser().parse_args(argv))
        assert manifest["command"] == parsed.pop("command")
        del parsed["func"]
        assert manifest["params"] == parsed
        assert manifest["inputs"] == {r: file_digest(paths[r]) for r in given}
        assert manifest["outputs"] == {role: file_digest(paths["out"])}

    def test_rerun_byte_identical_manifest(self, tmp_path):
        hist = history_csv(tmp_path, THREE_ROWS)
        out = tmp_path / "model.txt"
        main(["fit", str(hist), "--out", str(out)])
        first = manifest_path(out).read_bytes()
        main(["fit", str(hist), "--out", str(out)])
        assert manifest_path(out).read_bytes() == first
        manifest = json.loads(first)
        assert set(manifest) == {"command", "version", "params", "inputs", "outputs"}

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import arrowlab
import oracles
from arrowlab import arrow, cli, collisions, experiments
from arrowlab.cli import (
    ConfigError,
    UsageError,
    build_parser,
    main,
    parse_config_text,
    run,
    serialize_csv,
    validate_config,
)
from arrowlab.core import RandomSource, mutual_informations, random_density_operator


# at --beta 200, exp(-beta W) overflows in the work average and 0 * inf gives
# NaN rows; tier-1 turns every other RuntimeWarning into an error
JARZYNSKI_OVERFLOW = "overflow encountered in exp|invalid value encountered in multiply"


def rows_of_csv(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("#")]


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def patch_search_sums(monkeypatch, sums) -> None:
    """Make the search report ``sums(report)`` as its achieved sums, moving
    ds_s with them so the report stays consistent."""
    search = experiments.arrow.search_entropy_decreasing_unitaries

    def patched(*args):
        result = search(*args)
        total = sums(result.report)
        report = dataclasses.replace(result.report, ds_s=total - result.report.ds_r, sum=total)
        return dataclasses.replace(result, report=report)

    monkeypatch.setattr(experiments.arrow, "search_entropy_decreasing_unitaries", patched)


class TestValidateConfig:
    def test_empty_text_gives_documented_defaults(self):
        config = validate_config("balance")
        assert config["trials"] == 100
        assert config["dims"] == (2, 2)
        assert config["seed"] == 0
        assert config["format"] == "csv"
        assert config["out"] == "-"

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="wibble"):
            validate_config("balance", "wibble = 3\n")

    def test_epsilon_out_of_range_names_key(self):
        with pytest.raises(ConfigError, match="epsilon"):
            validate_config("near-product", overrides={"epsilon": "1.5"})

    def test_beta_nonpositive_names_key(self):
        with pytest.raises(ConfigError, match="beta"):
            validate_config("crooks", overrides={"beta": "0"})

    def test_dims_above_cap_names_key(self):
        with pytest.raises(ConfigError, match="dims"):
            validate_config("balance", overrides={"dims": "17x2"})

    def test_flag_overrides_file(self):
        config = validate_config("balance", "trials = 7\n", {"trials": "9"})
        assert config["trials"] == 9

    def test_config_text_parsing(self):
        raw = parse_config_text("a = 1\n# comment\n\nb = x y  # trailing\n")
        assert raw == {"a": "1", "b": "x y"}

    def test_malformed_line_raises_usage_error(self):
        with pytest.raises(UsageError, match="key = value"):
            parse_config_text("not-an-assignment\n")

    def test_sweep_grid_size_echo(self):
        config = validate_config("sweep", overrides={"g-values": "0,1,2", "eps-values": "0,0.5,1", "t-values": "1,2,3"})
        assert len(config["g-values"]) * len(config["eps-values"]) * len(config["t-values"]) == 27

    def test_every_experiment_has_runnable_defaults(self):
        for name in experiments.EXPERIMENTS:
            config = validate_config(name)
            assert config.experiment == name


class TestRun:
    def test_near_product_record_contains_analytic_sum(self):
        code, record = run(validate_config("near-product", overrides={"epsilon": "0.1"}))
        assert code == 0
        row = dict(zip(record.columns, record.rows[0]))
        assert row["sum"] == pytest.approx(-0.0719475133, abs=1e-9)

    def test_balance_rows_respect_identity(self):
        code, record = run(validate_config("balance", overrides={"trials": "20", "seed": "1"}))
        assert code == 0
        cols = record.columns
        for row in record.rows:
            d = dict(zip(cols, row))
            assert d["sum"] >= -1e-9
            assert d["balance_deviation"] <= 1e-9

    def test_rows_are_deterministic_functions_of_config(self):
        config = validate_config("crooks", overrides={"trials": "5", "seed": "7"})
        _, first = run(config)
        _, second = run(config)
        assert first.rows == second.rows


# a valid configuration whose run raises in the library: at beta = 5 some
# protocol's forward pair has a backward probability below the floor
FAILING_RUN = ["crooks", "--beta", "5", "--trials", "50"]


def main_outcome(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of cli.main, --help's SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserPerSubcommand:
    @pytest.mark.parametrize("name", list(experiments.EXPERIMENTS))
    def test_one_subparser_prints_and_fails_like_the_full_parser(self, name, capsys, monkeypatch):
        argvs = ([name, "--help"], [name, "--no-such-flag", "1"], [name, "--seed"], [name, "--trials", "1", "extra"])
        lazy = [main_outcome(capsys, argv) for argv in argvs]
        full = build_parser
        monkeypatch.setattr(cli, "build_parser", lambda experiment=None: full())
        assert lazy == [main_outcome(capsys, argv) for argv in argvs]
        assert lazy[0][0] == 0 and f"usage: arrowlab {name}" in lazy[0][1]
        assert lazy[1] == (1, "", "arrowlab: error: unrecognized arguments: --no-such-flag 1\n")

    def test_main_builds_only_the_subparser_it_dispatches_to(self, capsys, monkeypatch):
        built = []
        full = build_parser
        monkeypatch.setattr(cli, "build_parser", lambda experiment=None: built.append(experiment) or full(experiment))
        for argv in (["decorrelate"], ["--help"], [], ["frobnicate"], ["--seed", "1", "balance"]):
            main_outcome(capsys, argv)
        assert built == ["decorrelate", None, None, None, None]

    def test_each_parser_is_built_once_and_survives_a_usage_error(self, capsys):
        assert build_parser("balance") is build_parser("balance")
        assert build_parser() is build_parser()
        first = main_outcome(capsys, ["balance", "--trials", "2"])
        assert main_outcome(capsys, ["balance", "--no-such-flag", "1"])[0] == 1
        second = main_outcome(capsys, ["balance", "--trials", "2"])
        assert [line for line in first[1].splitlines() if "duration" not in line] == [
            line for line in second[1].splitlines() if "duration" not in line
        ]

    def test_top_level_help_and_subcommand_errors_keep_their_text(self, capsys):
        code, out, _ = main_outcome(capsys, ["--help"])
        assert code == 0 and out.startswith("usage: arrowlab [-h] experiment ...")
        assert all(name in out for name in experiments.EXPERIMENTS)
        assert main_outcome(capsys, []) == (1, "", "arrowlab: error: an experiment subcommand is required\n")
        code, _, err = main_outcome(capsys, ["frobnicate"])
        choices = ", ".join(f"'{name}'" for name in experiments.EXPERIMENTS)
        assert (code, err) == (1, f"arrowlab: error: argument experiment: invalid choice: 'frobnicate' (choose from {choices})\n")


class TestMainExitCodes:
    def test_usage_error_is_exit_1(self, capsys):
        assert main(["near-product", "--epsilon", "1.5"]) == 1
        assert "epsilon" in capsys.readouterr().err

    def test_unknown_subcommand_is_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_subcommand_is_exit_1(self, capsys):
        assert main([]) == 1

    def test_success_is_exit_0(self, capsys):
        code, out = run_cli(capsys, "decorrelate")
        assert code == 0
        assert "ds_s" in out

    def test_unreadable_config_is_exit_1(self, capsys):
        assert main(["balance", "--config", "/nonexistent/path.cfg"]) == 1

    def test_invariant_failure_is_exit_2(self, capsys, monkeypatch):
        # the physics never fails its own invariants, so inject one to
        # exercise the exit-code path
        injected = experiments.Invariant("injected", 0.0, lambda columns, extra, config: [1.0])
        balance = dataclasses.replace(experiments.EXPERIMENTS["balance"], invariants=(injected,))
        monkeypatch.setitem(experiments.EXPERIMENTS, "balance", balance)
        assert main(["balance", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert "row 0: injected = 1.0 is not <= 0.0" in captured.err
        assert "# invariant.injected.passed=false" in captured.out

    @pytest.mark.parametrize("demo", ["random", "near-product", "classical"])
    def test_sum_below_minus_initial_information_is_exit_2(self, capsys, monkeypatch, demo):
        # dS_S + dS_R >= -I_0 holds for every input; inject a sum just past it
        patch_search_sums(monkeypatch, lambda report: -report.mi_initial - 1e-6)
        assert main(["search", "--trials", "2", "--demo", demo]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 2
        assert all(
            line.startswith(f"arrowlab: invariant failure: row {k}: decrease_beyond_mi_initial = ")
            for k, line in enumerate(err.splitlines())
        )

    def test_sum_above_the_analytic_optimum_is_exit_2(self, capsys, monkeypatch):
        # the near-product demo's sums must reach -I(eps) within FEASIBLE_MARGIN
        code, out = run_cli(capsys, "search", "--trials", "3", "--demo", "near-product")
        assert code == 0 and "# invariant.achieved_sum_above_bound.passed=true" in out
        bound = -experiments.near_product_mutual_information(0.1)
        patch_search_sums(monkeypatch, lambda report: np.full_like(report.sum, bound + 1e-5))
        code = main(["search", "--trials", "3", "--demo", "near-product"])
        out, err = capsys.readouterr()
        assert code == 2
        assert "# invariant.achieved_sum_above_bound.passed=false" in out
        assert "# invariant.decrease_beyond_mi_initial.passed=true" in out
        assert err.count("\n") == 3
        for k, line in enumerate(err.splitlines()):
            prefix = f"arrowlab: invariant failure: row {k}: achieved_sum_above_bound = "
            assert line.startswith(prefix) and line.endswith(" is not <= 1e-06")
            assert float(line[len(prefix) :].split()[0]) == pytest.approx(1e-5, abs=1e-12)

    @pytest.mark.parametrize("message", ["", "Unable to allocate 7.45 GiB for an array"])
    def test_memory_error_is_one_line_exit_1(self, capsys, monkeypatch, tmp_path, message):
        def exhausted(values):
            raise MemoryError(message)

        search = dataclasses.replace(experiments.EXPERIMENTS["search"], run=exhausted)
        monkeypatch.setitem(experiments.EXPERIMENTS, "search", search)
        path = tmp_path / "out.csv"
        assert main(["search", "--restarts", "1000000000", "--trials", "1", "--out", str(path)]) == 1
        expected = f"arrowlab: error: out of memory: {message}\n" if message else "arrowlab: error: out of memory\n"
        assert capsys.readouterr() == ("", expected)
        assert not path.exists()

    def test_library_value_error_is_one_line_exit_1(self, capsys):
        assert main(FAILING_RUN) == 1
        err = capsys.readouterr().err
        assert err.startswith("arrowlab: error:")
        assert "vanishing backward probability" in err
        assert err.count("\n") == 1

    def test_missing_output_directory_fails_before_computing(self, capsys, monkeypatch, tmp_path):
        def unreachable(values):
            raise AssertionError("experiment ran before the output was opened")

        balance = dataclasses.replace(experiments.EXPERIMENTS["balance"], run=unreachable)
        monkeypatch.setitem(experiments.EXPERIMENTS, "balance", balance)
        assert main(["balance", "--out", str(tmp_path / "missing" / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("arrowlab: error:")
        assert err.count("\n") == 1

    def test_failed_run_leaves_existing_output_as_it_was(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"precious\n")
        assert main([*FAILING_RUN, "--out", str(path)]) == 1
        assert path.read_bytes() == b"precious\n"

    def test_failed_run_creates_no_output(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        assert main([*FAILING_RUN, "--out", str(path)]) == 1
        assert not path.exists()

    def test_successful_run_replaces_a_longer_output(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("x" * 100_000)
        assert main(["near-product", "--out", str(path)]) == 0
        assert main(["near-product"]) == 0
        assert rows_of_csv(path.read_text()) == rows_of_csv(capsys.readouterr().out)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("experiment", ["decorrelate", "balance"])
    def test_full_device_is_one_line_exit_1(self, capsys, experiment):
        # decorrelate fits the write buffer and fails at close; balance fails at write
        assert main([experiment, "--out", "/dev/full"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("arrowlab: error: cannot write output:")
        assert err.count("\n") == 1

    def test_import_loads_no_scipy(self):
        # nor hypothesis, which only the tests use, nor concurrent.futures:
        # trial chunks run on plain threads, and its import costs about 5 ms
        src = os.path.dirname(os.path.dirname(arrowlab.__file__))
        probe = "import sys, arrowlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'hypothesis', 'concurrent')))"
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
        assert result.stdout.strip() == "[]"

    def test_non_finite_rows_are_invariant_failures(self, capsys):
        with pytest.warns(RuntimeWarning, match=JARZYNSKI_OVERFLOW):
            code, out = run_cli(capsys, "jarzynski", "--beta", "200", "--trials", "3")
        cells = [float(cell) for line in rows_of_csv(out)[1:] for cell in line.split(",")]
        assert code == (0 if all(math.isfinite(c) for c in cells) else 2)

    @pytest.mark.parametrize("beta", ["50", "800"])
    def test_damping_at_large_beta_has_finite_rows(self, capsys, beta):
        code, out = run_cli(capsys, "damping", "--beta", beta)
        heats = [float(line.split(",")[-1]) for line in rows_of_csv(out)[1:]]
        assert code == 0
        assert len(heats) == 13
        assert all(math.isfinite(h) and h >= 0.0 for h in heats)

    def test_unreachable_min_mi_is_one_line_exit_1(self, capsys):
        # two-qubit mutual information never exceeds ln 4 < 1.5: the domain
        # rejects the floor before any state is drawn
        assert main(["search", "--trials", "1", "--min-mi", "1.5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("arrowlab: error:")
        assert "min-mi" in err
        assert "must be in [5e-324, 1.3862943611198904]" in err
        assert err.count("\n") == 1

    def test_min_mi_above_every_draw_names_the_largest_drawn(self, capsys, monkeypatch):
        # full-rank random states rarely reach a mutual information of 1.3
        monkeypatch.setattr(experiments, "MAX_REJECTED_DRAWS", 50)
        root = RandomSource(0)
        draws = [random_density_operator(4, 4, root.child(10**6 + k)) for k in range(50)]
        drawn = mutual_informations(np.stack([d.matrix for d in draws]), np.stack([d.spectrum for d in draws]), arrow.TWO_QUBITS)
        assert main(["search", "--trials", "1", "--min-mi", "1.3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "arrowlab: error: no random state with mutual information above min-mi 1.3 in 50 draws; "
            f"the draws are full-rank random two-qubit states, and the largest mutual information drawn was {float(drawn.max())!r}\n"
        )

    def test_overflowing_gap_is_one_line_exit_1_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--gap-s", "1e308"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("arrowlab: error:")
        assert "overflows" in err
        assert err.count("\n") == 1


# small arguments for every registered experiment
SMALL_ARGS = {
    "balance": ["--trials", "2"],
    "near-product": [],
    "decorrelate": [],
    "search": ["--trials", "1", "--demo", "near-product"],
    "schrodinger": ["--trials", "2"],
    "sweep": ["--g-values", "0,1", "--eps-values", "0,0.5", "--t-values", "1"],
    "collide": ["--collisions", "3"],
    "crooks": ["--trials", "2"],
    "jarzynski": ["--trials", "2"],
    "heatflow": ["--trials", "2"],
    "damping": ["--trials", "1"],
}


def csv_metadata(text: str) -> dict[str, str]:
    return dict(line[2:].split("=", 1) for line in text.splitlines() if line.startswith("# "))


class TestRegistry:
    @pytest.mark.parametrize("name", list(experiments.EXPERIMENTS))
    def test_record_matches_output(self, capsys, name):
        experiment = experiments.EXPERIMENTS[name]
        code, nats = run_cli(capsys, name, *SMALL_ARGS[name])
        assert code == 0
        assert rows_of_csv(nats)[0].split(",") == list(experiment.columns)
        meta = csv_metadata(nats)
        assert experiment.invariants
        for invariant in experiment.invariants:
            assert meta[f"invariant.{invariant.name}.tol"] == repr(invariant.tol)
            assert meta[f"invariant.{invariant.name}.passed"] == "true"
            assert f"invariant.{invariant.name}.worst" in meta
        code, payload = run_cli(capsys, name, *SMALL_ARGS[name], "--format", "json")
        assert code == 0
        recorded = json.loads(payload)["metadata"]["invariants"]
        assert sorted(recorded) == sorted(invariant.name for invariant in experiment.invariants)
        assert all(sorted(summary) == ["passed", "tol", "worst"] for summary in recorded.values())

        code, bits = run_cli(capsys, name, *SMALL_ARGS[name], "--units", "bits")
        assert code == 0
        for row_n, row_b in zip(rows_of_csv(nats)[1:], rows_of_csv(bits)[1:], strict=True):
            for power, cell_n, cell_b in zip(experiment.columns.values(), row_n.split(","), row_b.split(",")):
                if power:
                    assert float(cell_b) == float(cell_n) / math.log(2.0) ** power
                else:
                    assert cell_b == cell_n

    def test_nan_value_is_worst_and_fails(self, capsys):
        with pytest.warns(RuntimeWarning, match=JARZYNSKI_OVERFLOW):
            code, out = run_cli(capsys, "jarzynski", "--beta", "200", "--trials", "3")
        meta = csv_metadata(out)
        assert code == 2
        assert meta["invariant.relative_deviation.worst"] == "nan"
        assert meta["invariant.relative_deviation.passed"] == "false"
        assert int(meta["invariant_failures"]) >= 1


class TestSerialization:
    def test_csv_layout(self, capsys):
        code, out = run_cli(capsys, "balance", "--trials", "3", "--seed", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# experiment=balance"
        header_index = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_index].split(",")[0] == "trial"
        assert len(lines) - header_index - 1 == 3  # one row per trial

    def test_json_mirrors_csv_rows(self, capsys):
        code, out = run_cli(capsys, "balance", "--trials", "3", "--seed", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["metadata"]["experiment"] == "balance"
        assert payload["metadata"]["config"]["trials"] == 3
        assert payload["metadata"]["rng_algorithm"] == "numpy-PCG64"
        assert len(payload["rows"]) == 3

    def test_repeated_runs_have_byte_identical_rows(self, capsys, tmp_path):
        for cmd in (
            ["crooks", "--seed", "7", "--trials", "4"],
            ["balance", "--trials", "5", "--seed", "3"],
            ["collide", "--collisions", "4", "--seed", "5"],
            ["heatflow", "--trials", "4", "--seed", "9"],
        ):
            a = tmp_path / "a.csv"
            b = tmp_path / "b.csv"
            assert main([*cmd, "--out", str(a)]) == 0
            assert main([*cmd, "--out", str(b)]) == 0
            assert rows_of_csv(a.read_text()) == rows_of_csv(b.read_text())
            assert len(rows_of_csv(a.read_text())) > 1

    def test_output_file_writing(self, tmp_path):
        path = tmp_path / "out.json"
        assert main(["near-product", "--epsilon", "0.3", "--format", "json", "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["metadata"]["config"]["epsilon"] == 0.3

    def test_config_file_round_trip(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = 4\ndims = 3x3\nseed = 6\n")
        code, out = run_cli(capsys, "balance", "--config", str(cfg))
        assert code == 0
        assert "# config.dims=3x3" in out
        assert len(rows_of_csv(out)) == 5  # header + 4 rows

    def test_dims_flag_controls_layout(self, capsys):
        code, out = run_cli(capsys, "schrodinger", "--trials", "2", "--dims", "2x3")
        assert code == 0
        assert "# config.dims=2x3" in out

    def test_bits_display_conversion(self):
        import math

        nats_code, nats = run(validate_config("near-product", overrides={"epsilon": "0.1"}))
        bits_code, bits = run(validate_config("near-product", overrides={"epsilon": "0.1", "units": "bits"}))
        assert nats_code == bits_code == 0
        row_n = dict(zip(nats.columns, nats.rows[0]))
        row_b = dict(zip(bits.columns, bits.rows[0]))
        assert row_b["sum"] == pytest.approx(row_n["sum"] / math.log(2), abs=1e-15)
        assert row_b["epsilon"] == row_n["epsilon"]  # not an entropy column

    def test_bits_conversion_squares_the_arrow_product(self):
        import math

        _, nats = run(validate_config("schrodinger", overrides={"trials": "3", "seed": "2"}))
        _, bits = run(validate_config("schrodinger", overrides={"trials": "3", "seed": "2", "units": "bits"}))
        for row_n, row_b in zip(nats.rows, bits.rows):
            d_n = dict(zip(nats.columns, row_n))
            d_b = dict(zip(bits.columns, row_b))
            assert d_b["schrodinger_product"] == pytest.approx(d_n["schrodinger_product"] / math.log(2) ** 2, abs=1e-15)


def small_config(name: str, units: str):
    args = SMALL_ARGS[name]
    overrides = {key.removeprefix("--"): value for key, value in zip(args[::2], args[1::2])}
    return validate_config(name, overrides={**overrides, "units": units})


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite token {token}")

    return json.loads(text, parse_constant=reject)


class TestColumnSerialization:
    @pytest.mark.parametrize("units", ["nats", "bits"])
    @pytest.mark.parametrize("name", list(experiments.EXPERIMENTS))
    def test_csv_equals_the_per_cell_writer(self, name, units):
        config = small_config(name, units)
        experiment = experiments.EXPERIMENTS[name]
        columns, _ = experiment.run(config.values)
        rows = oracles.rows(name, columns)
        if units == "bits":
            rows = oracles.rows_in_bits(experiment.columns, rows)
        code, record = run(config)
        assert code == 0
        assert record.rows == rows
        assert {type(cell) for row in record.rows for cell in row} <= {int, float, str, bool}
        assert serialize_csv(record) == oracles.csv_per_cell(record, rows)

    def test_str_cells_are_quoted_as_the_csv_writer_quotes_them(self, monkeypatch):
        damping = experiments.EXPERIMENTS["damping"]
        kinds = iter(["plain", 'with "quotes"', "with, comma", "with\nnewline", "", "with\rreturn"])

        def renamed(values):
            columns, extra = damping.run(values)
            return {**columns, "kind": np.array([next(kinds, kind) for kind in columns["kind"].tolist()])}, extra

        monkeypatch.setitem(experiments.EXPERIMENTS, "damping", dataclasses.replace(damping, run=renamed))
        code, record = run(validate_config("damping", overrides={"trials": "3"}))
        assert code == 0
        rows = record.rows
        assert [kind for _, kind, _ in rows] == ["plain", 'with "quotes"', "with, comma", "with\nnewline", "", "with\rreturn"]
        assert serialize_csv(record) == oracles.csv_per_cell(record, rows)
        assert '\n1,"with ""quotes""",' in serialize_csv(record)

    def test_json_writes_non_finite_floats_as_the_csv_text(self, capsys):
        argv = ["jarzynski", "--beta", "200", "--trials", "1"]
        with pytest.warns(RuntimeWarning, match=JARZYNSKI_OVERFLOW):
            csv_code, csv_out = run_cli(capsys, *argv)
            json_code, json_out = run_cli(capsys, *argv, "--format", "json")
        assert csv_code == json_code == 2
        payload = strict_json(json_out)
        cells = [[cell if isinstance(cell, str) else repr(cell) for cell in row] for row in payload["rows"]]
        assert cells == [line.split(",") for line in rows_of_csv(csv_out)[1:]]
        assert "nan" in cells[0]
        worst = payload["metadata"]["invariants"]["relative_deviation"]["worst"]
        assert worst == csv_metadata(csv_out)["invariant.relative_deviation.worst"] == "nan"

    def test_json_writes_non_finite_extra_values_as_text(self, capsys, monkeypatch):
        decorrelate = experiments.EXPERIMENTS["decorrelate"]

        def with_extra(values):
            columns, extra = decorrelate.run(values)
            return columns, {**extra, "rate": math.inf, "distances": [-math.inf, 0.5, math.nan]}

        monkeypatch.setitem(experiments.EXPERIMENTS, "decorrelate", dataclasses.replace(decorrelate, run=with_extra))
        code, out = run_cli(capsys, "decorrelate", "--format", "json")
        assert code == 0
        assert strict_json(out)["metadata"]["extra"] == {"rate": "inf", "distances": ["-inf", 0.5, "nan"]}


class TestSearchCommand:
    def test_probe_outcome_is_metadata_not_a_column(self, capsys):
        code, out = run_cli(capsys, "search", "--trials", "2")
        assert code == 0
        assert "# extra.probes_run=6" in out
        assert "# extra.probes_converged=" in out
        assert "# extra.probe_steps=" in out
        assert rows_of_csv(out)[0] == "trial,mi_initial,achieved_sum,improved,best_restart"

    def test_epsilon_bound_clears_the_product_check(self):
        # the analytic mutual information at the bound passes the search's
        # product check, so the bound cannot drift below the crossing
        lo, hi = experiments.SEARCH_EPSILON
        assert hi == 1.0
        assert experiments.near_product_mutual_information(lo) > arrow.NON_PRODUCT_TOL

    def test_epsilon_at_its_bound_runs(self, capsys):
        lo = experiments.SEARCH_EPSILON[0]
        code, out, err = main_outcome(capsys, ["search", "--demo", "near-product", "--epsilon", repr(lo), "--trials", "1"])
        assert (code, err) == (0, "")
        assert len(rows_of_csv(out)) == 2

    @pytest.mark.parametrize("epsilon", ["0", "1e-6", repr(math.nextafter(experiments.SEARCH_EPSILON[0], 0.0))])
    def test_epsilon_below_its_bound_is_one_configuration_line(self, capsys, epsilon):
        code, out, err = main_outcome(capsys, ["search", "--demo", "near-product", "--epsilon", epsilon, "--trials", "1"])
        assert (code, out) == (1, "")
        assert err.startswith("arrowlab: error: invalid value for 'epsilon': ")
        assert err.count("\n") == 1


class TestCollideCommand:
    def test_joint_mode_reports_reversal(self, capsys):
        code, out = run_cli(capsys, "collide", "--collisions", "4")
        assert code == 0
        assert "# extra.recovered_trace_distance=" in out
        assert "# extra.shuffled_trace_distance=" in out
        assert "# extra.fitted_rate=" in out

    def test_joint_mode_records_renyi2_conservation(self, capsys):
        code, out = run_cli(capsys, "collide", "--collisions", "4")
        meta = csv_metadata(out)
        assert code == 0
        assert {"extra.joint_renyi2_initial", "extra.joint_renyi2_final"} <= set(meta)
        assert float(meta["invariant.joint_renyi2_deviation.worst"]) <= 1e-12
        assert meta["invariant.joint_renyi2_deviation.tol"] == repr(experiments.RENYI2_TOL)
        assert meta["invariant.joint_renyi2_deviation.passed"] == "true"
        assert "joint_entropy" not in out

    def test_perturbed_joint_state_fails_renyi2_conservation(self, capsys, monkeypatch):
        run_joint = collisions.run_collisions_joint

        def perturbed(*args):
            record, joint = run_joint(*args)
            joint = joint.copy()
            # still Hermitian with unit trace, but no longer unitarily related
            # to the product input
            joint[0, 1] += 1e-3
            joint[1, 0] += 1e-3
            return record, joint

        monkeypatch.setattr(collisions, "run_collisions_joint", perturbed)
        assert main(["collide", "--collisions", "4", "--init", "random"]) == 2
        captured = capsys.readouterr()
        meta = csv_metadata(captured.out)
        assert meta["invariant.joint_renyi2_deviation.passed"] == "false"
        assert "joint state: joint_renyi2_deviation = " in captured.err

    def test_joint_trajectory_is_checked_against_the_recursion(self, capsys, monkeypatch):
        argv = ["collide", "--theta", "0.3", "--init", "random", "--collisions", "4"]
        assert main(argv) == 0
        meta = csv_metadata(capsys.readouterr().out)
        assert float(meta["extra.trajectory_deviation"]) <= 1e-15
        assert meta["invariant.trajectory_deviation.tol"] == repr(experiments.TRAJECTORY_TOL)
        partial_traces = collisions.partial_traces

        def newest_ancilla(m, dim_s, dim_r, keep):
            # once the rest holds more than one qubit, the last qubit's state
            # stands in for the system's
            if dim_r > 2:
                return partial_traces(m, dim_s * dim_r // 2, 2, "R")
            return partial_traces(m, dim_s, dim_r, keep)

        monkeypatch.setattr(collisions, "partial_traces", newest_ancilla)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert csv_metadata(captured.out)["invariant.trajectory_deviation.passed"] == "false"
        assert "trajectory: trajectory_deviation = " in captured.err

    def test_reversal_is_checked_against_the_initial_state(self, capsys, monkeypatch):
        argv = ["collide", "--collisions", "4"]
        assert main(argv) == 0
        meta = csv_metadata(capsys.readouterr().out)
        assert float(meta["invariant.reversal_distance.worst"]) <= 1e-15
        reverse = collisions.reverse_collisions

        def perturbed(joint_final, gate, order=None):
            # still a valid state, 1e-6 of the way to the maximally mixed one
            recovered = reverse(joint_final, gate, order=order)
            return (1.0 - 1e-6) * recovered + 1e-6 * np.eye(2) / 2.0

        monkeypatch.setattr(collisions, "reverse_collisions", perturbed)
        assert main(argv) == 2
        captured = capsys.readouterr()
        meta = csv_metadata(captured.out)
        assert meta["invariant.reversal_distance.passed"] == "false"
        assert float(meta["invariant.reversal_distance.worst"]) == pytest.approx(5e-7, rel=1e-6)
        assert captured.err.splitlines() == [
            f"arrowlab: invariant failure: reversal: reversal_distance = {meta['invariant.reversal_distance.worst']} is not <= 1e-09"
        ]

    def test_reduced_mode_skips_reversal(self, capsys):
        code, out = run_cli(capsys, "collide", "--collisions", "4", "--mode", "reduced")
        assert code == 0
        assert "recovered_trace_distance" not in out

    def test_collisions_cap_is_validated(self, capsys):
        assert main(["collide", "--collisions", "12"]) == 1
        assert "collisions" in capsys.readouterr().err

    def test_single_collision_skips_rate_fit(self, capsys):
        code, out = run_cli(capsys, "collide", "--collisions", "1")
        assert code == 0
        assert "fitted_rate" not in out
        assert "recovered_trace_distance" in out


def numeric_cells(out: str) -> list[float]:
    """Every cell of the rows that parses as a number; text cells such as
    an alignment are left out."""
    cells = []
    for line in rows_of_csv(out)[1:]:
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                pass
    return cells


class TestExtremeValidParameters:
    @pytest.mark.parametrize("dims", ["16x16", "2x16", "16x2"])
    @pytest.mark.parametrize("experiment", ["balance", "schrodinger"])
    def test_largest_dims_give_finite_rows_and_pass_every_invariant(self, capsys, experiment, dims):
        code, out = run_cli(capsys, experiment, "--dims", dims, "--trials", "2")
        assert code == 0
        assert len(rows_of_csv(out)) == 3
        cells = numeric_cells(out)
        assert cells and all(math.isfinite(c) for c in cells)
        passed = {k: v for k, v in csv_metadata(out).items() if k.startswith("invariant.") and k.endswith(".passed")}
        assert passed and set(passed.values()) == {"true"}

    @pytest.mark.parametrize("experiment", ["crooks", "jarzynski"])
    def test_smallest_beta_gives_finite_rows(self, capsys, experiment):
        # ln Z / beta alone overflows at beta = 5e-324
        code, out, err = main_outcome(capsys, [experiment, "--beta", "5e-324", "--trials", "2"])
        assert (code, err) == (0, "")
        cells = numeric_cells(out)
        assert len(rows_of_csv(out)) == 3
        assert cells and all(math.isfinite(c) for c in cells)

    @pytest.mark.parametrize("epsilon", ["0", "1"])
    def test_near_product_at_the_ends_of_epsilon_gives_finite_rows(self, capsys, epsilon):
        code, out = run_cli(capsys, "near-product", "--epsilon", epsilon)
        assert code == 0
        cells = numeric_cells(out)
        assert len(rows_of_csv(out)) == 2
        assert cells and all(math.isfinite(c) for c in cells)

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (["damping", "--beta", "5e-324"], 13),
            (["damping", "--beta", "800"], 13),
            (["near-product", "--epsilon", "0"], 1),
            (["near-product", "--epsilon", "1"], 1),
            (["sweep", "--eps-values", "0,1", "--g-values", "0,1e3"], 16),
            (["collide", "--mode", "reduced", "--collisions", "1"], 2),
            (["collide", "--mode", "reduced", "--collisions", "11", "--init", "random", "--theta", "0.3"], 12),
        ],
        ids=["damping-beta-min", "damping-beta-800", "near-product-eps-0", "near-product-eps-1", "sweep-eps-0-1-g-1e3",
             "collide-reduced-1", "collide-reduced-11-random"],
    )
    def test_stacked_paths_at_their_edges_give_finite_rows_and_pass_every_invariant(self, capsys, argv, rows):
        code, out, err = main_outcome(capsys, argv)
        assert (code, err) == (0, "")
        assert len(rows_of_csv(out)) == rows + 1
        cells = numeric_cells(out)
        assert cells and all(math.isfinite(c) for c in cells)
        passed = {k: v for k, v in csv_metadata(out).items() if k.startswith("invariant.") and k.endswith(".passed")}
        assert passed and set(passed.values()) == {"true"}


def stdout_at_threads(threads: int, *argv: str, cores: set[int] | None = None) -> str:
    """Stdout of the CLI in a fresh process at a BLAS thread count, on the
    given cores (all usable ones by default)."""
    src = os.path.dirname(os.path.dirname(arrowlab.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    pinned = None if cores is None else lambda: os.sched_setaffinity(0, cores)
    return subprocess.run(
        [sys.executable, "-m", "arrowlab.cli", *argv], capture_output=True, text=True, env=env, check=True, preexec_fn=pinned
    ).stdout


USABLE_CORES = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def output_at_threads(threads: int, *argv: str) -> str:
    """Stdout of the CLI at a BLAS thread count, without its
    '# duration_seconds' line and the '# env.' lines that record the count."""
    lines = stdout_at_threads(threads, *argv).splitlines(True)
    return "".join(line for line in lines if not line.startswith(("# duration_seconds", "# env.")))


class TestBlasThreadCount:
    def test_collide_output_is_the_same_at_one_and_two_threads(self):
        # the joint state's Renyi-2 entropy is summed without BLAS
        argv = ("collide", "--collisions", "10")
        assert output_at_threads(1, *argv) == output_at_threads(2, *argv)

    def test_balance_rows_at_16x16_agree_at_one_and_two_threads(self):
        # QR and eigvalsh of a 256 x 256 matrix round differently with the thread count
        argv = ("balance", "--dims", "16x16", "--trials", "2")
        one, two = (numeric_cells(output_at_threads(n, *argv)) for n in (1, 2))
        assert len(one) == len(two) > 0
        assert max(abs(a - b) for a, b in zip(one, two)) <= 1e-12

    @pytest.mark.skipif(len(USABLE_CORES) < 2, reason="needs two usable cores")
    def test_balance_rows_at_16x16_with_a_helper_are_those_on_one_core(self):
        # with BLAS at one thread, two cores give one helper thread and two
        # trials per chunk, one core none and one trial per chunk; the rows
        # of --trials 3 are the first three of --trials 5
        argv = ("balance", "--dims", "16x16", "--trials")
        two = set(USABLE_CORES[:2])
        one = rows_of_csv(stdout_at_threads(1, *argv, "5", cores={USABLE_CORES[0]}))
        assert len(one) == 6
        assert rows_of_csv(stdout_at_threads(1, *argv, "5", cores=two)) == one
        assert rows_of_csv(stdout_at_threads(1, *argv, "3", cores=two)) == one[:4]


class TestNumericsEnv:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        cli.numerics_env.cache_clear()
        yield
        cli.numerics_env.cache_clear()

    def test_csv_and_json_record_the_numerics_and_thread_counts(self):
        import numpy as np

        meta = csv_metadata(stdout_at_threads(1, "balance", "--trials", "2"))
        assert meta["env.numpy"] == np.__version__
        assert (meta["env.OPENBLAS_NUM_THREADS"], meta["env.OMP_NUM_THREADS"]) == ("1", "1")
        assert [k for k in meta if k.startswith("env.")] == [f"env.{k}" for k in cli.numerics_env()]
        env = json.loads(stdout_at_threads(2, "crooks", "--trials", "2", "--format", "json"))["metadata"]["env"]
        assert env == {**cli.numerics_env(), "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}

    def test_computed_once_per_process(self, monkeypatch):
        import numpy as np

        calls = []
        show_config = np.show_config
        monkeypatch.setattr(np, "show_config", lambda **kwargs: calls.append(kwargs) or show_config(**kwargs))
        first = cli.numerics_env()
        assert cli.numerics_env() is first
        assert calls == [{"mode": "dicts"}]
        config = np.show_config(mode="dicts")["Build Dependencies"]
        assert first["blas"] == f"{config['blas']['name']} {config['blas']['version']}"

    def test_numpy_without_a_show_config_mode(self, monkeypatch):
        # numpy 1.24's show_config takes no argument and prints
        import numpy as np

        def legacy_show_config():
            raise AssertionError("printed the configuration")

        monkeypatch.setattr(np, "show_config", legacy_show_config)
        monkeypatch.setattr(np.__config__, "blas_opt_info", {"libraries": ["openblas", "openblas"]}, raising=False)
        monkeypatch.delattr(np.__config__, "lapack_opt_info", raising=False)
        env = cli.numerics_env()
        assert (env["numpy"], env["blas"], env["lapack"]) == (np.__version__, "openblas", None)

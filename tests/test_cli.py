import argparse
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tritrace
from tritrace import __version__, cli
from tritrace.circuits import enumerate_types, trace_power_direct, trace_power_expansion
from tritrace.cli import (
    COMMANDS,
    DEFAULT_SEED,
    RunConfig,
    build_config,
    main,
    matrix_from_csv,
    matrix_to_csv_rows,
    run,
    spec_from_mapping,
)
from tritrace.ensembles import EnsembleSpec, EntryLaw, sample_matrix
from tritrace.errors import ConfigError


def run_cli(*args):
    return main(list(args))


def _cli_bytes():
    """The ``scripts/cli_bytes.py`` module."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "cli_bytes.py"
    spec = importlib.util.spec_from_file_location("cli_bytes", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTypesCommand:
    def test_k4_row_counts(self, capsys):
        assert run_cli("types", "--k", "4") == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines()[2:] if line.strip()]
        assert len(rows) == 6
        assert [int(r[-1]) for r in rows] == [1, 4, 4, 4, 2, 4]

    def test_jsonl_output(self, tmp_path, capsys):
        path = tmp_path / "types.jsonl"
        assert run_cli("types", "--k", "3", "--output", str(path)) == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["count"] for r in records] == [1, 3, 3]
        assert all(r["k"] == 3 for r in records)


class TestTraceCommand:
    def test_two_routes_agree(self, capsys):
        assert run_cli("trace", "--ensemble", "anderson", "--n", "64",
                       "--k", "6", "--seed", "7") == 0
        out = capsys.readouterr().out
        assert "expansion:" in out and "direct:" in out

    def test_input_file_roundtrip(self, tmp_path, capsys):
        spec = EnsembleSpec("birth_death_q")
        matrix = sample_matrix(spec, 12, 5)
        path = tmp_path / "matrix.csv"
        rows = ["sub,diag,sup"] + [",".join(r) for r in matrix_to_csv_rows(matrix)]
        path.write_text("\n".join(rows) + "\n")
        parsed = matrix_from_csv(str(path))
        assert np.allclose(parsed.diag, matrix.diag)
        assert np.allclose(parsed.sub, matrix.sub)
        assert run_cli("trace", "--input", str(path), "--k", "4") == 0

    def test_input_file_json_holds_both_routes(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("sub,diag,sup\n,0.5,1.5\n-2,1,0.25\n3,-0.75,1\n0.5,2,\n")
        out = tmp_path / "t.json"
        assert run_cli("trace", "--input", str(path), "--k", "4", "--output", str(out)) == 0
        results = json.loads(out.read_text())["results"]
        matrix = matrix_from_csv(str(path))
        expansion = trace_power_expansion(matrix, 4, enumerate_types(4))
        direct = trace_power_direct(matrix, 4)
        assert results == {"k": 4, "n": 4, "expansion": expansion, "direct": direct,
                           "difference": abs(expansion - direct),
                           "relative_difference": abs(expansion - direct) / (1.0 + abs(direct))}

    def test_overflowing_sum_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("sub,diag,sup\n,1e308,1\n1,1e308,\n")
        assert run_cli("trace", "--input", str(path), "--k", "1") == 1
        assert capsys.readouterr().err.startswith("error:")


class TestConfigHandling:
    @pytest.mark.parametrize("model, fields", [
        ("anderson", {"d_law": EntryLaw("bernoulli", (0.3, -1, 2))}),
        ("beta_hermite", {"beta": 2}),
        ("hatano_nelson", {"a_law": EntryLaw("uniform", (0.2, 0.9)),
                           "b_law": EntryLaw("constant", (3,))}),
        ("birth_death_kernel", {"kernel_variant": "conductance",
                                "kernel_law": EntryLaw("uniform", (1, 2))}),
        ("birth_death_q", {"symmetric": True, "a_law": EntryLaw("constant", (1,))}),
        ("generic_iid", {"symmetric": False, "a_law": EntryLaw("gaussian", (0, 1)),
                         "d_law": EntryLaw("rademacher"), "b_law": EntryLaw("uniform", (-1, 1))}),
    ], ids=lambda value: value if isinstance(value, str) else None)
    def test_spec_from_values_describes_as_from_text(self, model, fields):
        # the library's spec and the CLI's, from the same values as text
        text = {"model": model, **{key: str(value) for key, value in fields.items()}}
        from_values = json.dumps(EnsembleSpec(model, **fields).describe(), sort_keys=True)
        assert from_values == json.dumps(spec_from_mapping(text).describe(), sort_keys=True)

    def test_empty_config_file_fails(self, tmp_path, capsys):
        cfg = tmp_path / "empty.ini"
        cfg.write_text("")
        assert run_cli("clt", "--config", str(cfg)) == 1
        assert "empty" in capsys.readouterr().err

    def test_malformed_config_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\nthis line has no equals sign\n")
        assert run_cli("clt", "--config", str(cfg)) == 1
        assert "line" in capsys.readouterr().err.lower()

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[run]\nmaster_seed = 1\n\n[ensemble]\nmodel = anderson\n"
            "d_law = rademacher\n\n[trace]\nk = 2\nn = 16\n")
        args = main.__globals__["_build_parser"]().parse_args(
            ["trace", "--config", str(cfg), "--seed", "42"])
        config = build_config(args)
        assert config.master_seed == 42
        assert config.get("k") == 2
        assert config.ensemble.model == "anderson"

    def test_seed_defaults_to_fixed_constant(self):
        args = main.__globals__["_build_parser"]().parse_args(["types", "--k", "3"])
        assert build_config(args).master_seed == DEFAULT_SEED == 0x5EED

    def test_missing_required_keys(self, capsys):
        assert run_cli("clt", "--ensemble", "anderson") == 1
        assert "missing" in capsys.readouterr().err

    def test_workers_env_fallback(self, monkeypatch):
        parser = main.__globals__["_build_parser"]()
        monkeypatch.setenv("TRITRACE_WORKERS", "3")
        assert build_config(parser.parse_args(["types", "--k", "3"])).workers == 3
        monkeypatch.setenv("TRITRACE_WORKERS", "auto")
        workers = build_config(parser.parse_args(["types", "--k", "3"])).workers
        assert workers == len(os.sched_getaffinity(0))
        # explicit flag wins over the environment
        args = parser.parse_args(["types", "--k", "3", "--workers", "2"])
        assert build_config(args).workers == 2
        monkeypatch.setenv("TRITRACE_WORKERS", "0")
        with pytest.raises(Exception):
            build_config(parser.parse_args(["types", "--k", "3"]))

    def test_auto_workers_count_the_usable_cpus(self, monkeypatch):
        # a cpuset or taskset can leave the process fewer CPUs than the host has
        parser = main.__globals__["_build_parser"]()
        args = parser.parse_args(["types", "--k", "3", "--workers", "auto"])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert build_config(args).workers == 3
        # platforms without affinity masks fall back to the CPU count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert build_config(args).workers == 8

    def test_workers_above_one_need_fork(self, monkeypatch):
        # without os.fork there are no workers, and asking for them is an error
        parser = main.__globals__["_build_parser"]()
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for workers in ("2", "auto"):
            args = parser.parse_args(["types", "--k", "3", "--workers", workers])
            with pytest.raises(ConfigError, match="workers = 2 needs os.fork"):
                build_config(args)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        for workers in ("1", "auto"):
            args = parser.parse_args(["types", "--k", "3", "--workers", workers])
            assert build_config(args).workers == 1

    @pytest.mark.parametrize("argv, unread", [
        (["--ensemble", "anderson", "--a-law", "uniform(0,1)"], "a_law"),
        (["--ensemble", "anderson", "--beta", "3"], "beta"),
        (["--ensemble", "hatano_nelson", "--symmetric", "true"], "symmetric"),
        (["--ensemble", "beta_hermite", "--beta", "2", "--d-law", "rademacher"], "d_law"),
        (["--ensemble", "birth_death_q", "--kernel-variant", "v"], "kernel_variant"),
        (["--ensemble", "birth_death_kernel", "--kernel-law", "uniform(0,1)",
          "--a-law", "uniform(0,1)"], "a_law"),
        (["--ensemble", "generic_iid", "--a-law", "uniform(0,1)", "--d-law", "rademacher",
          "--b-law", "rademacher", "--symmetric", "true"], "b_law"),
        (["--ensemble", "birth_death_q", "--b-law", "uniform(1,2)", "--symmetric", "yes"],
         "b_law"),
    ])
    def test_ensemble_key_the_model_does_not_read_is_an_error(self, capsys, argv, unread):
        assert run_cli("dump-sample", *argv, "--n", "3") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ensemble model") and err.endswith(f"read {unread}\n"), err

    def test_restating_a_fixed_symmetry_writes_the_same_bytes(self, capsys):
        # hatano_nelson is never symmetric: --symmetric false reads nothing
        argv = ["dump-sample", "--ensemble", "hatano_nelson", "--n", "5"]
        assert run_cli(*argv) == 0
        plain = capsys.readouterr().out
        assert run_cli(*argv, "--symmetric", "false") == 0
        assert capsys.readouterr().out == plain

    def test_unread_ensemble_key_in_a_config_file_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[ensemble]\nmodel = anderson\nkernel_variant = v\n")
        assert run_cli("dump-sample", "--config", str(cfg), "--n", "3") == 1
        assert capsys.readouterr().err == (
            "error: ensemble model anderson does not read kernel_variant\n")

    @pytest.mark.parametrize("command", ["clt", "cov"])
    def test_closed_form_target_rejects_replicas(self, tmp_path, capsys, command):
        # the beta-Hermite target is a formula; a recorded replica count would
        # claim a Monte Carlo size that shaped nothing
        out = tmp_path / "c.json"
        assert run_cli(command, "--ensemble", "beta_hermite", "--beta", "2", "--k-list", "1,2",
                       "--n", "50", "--trials", "200", "--replicas", "9", "--seed", "1",
                       "--output", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {command} does not read replicas for a beta_hermite ensemble\n")
        assert not out.exists()

    def test_unknown_model_exits_1(self, capsys):
        assert run_cli("dump-sample", "--ensemble", "nonsense", "--n", "3") == 1
        assert capsys.readouterr().err == "error: unknown model 'nonsense'\n"

    def test_run_rejects_an_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown command 'nonsense'"):
            run(RunConfig(command="nonsense", ensemble=None, workers=1, settings={}))

    def test_ensemble_keys_without_a_model_are_an_error(self, capsys):
        assert run_cli("types", "--k", "3", "--beta", "2") == 1
        assert capsys.readouterr().err == "error: ensemble model missing\n"

    @pytest.mark.parametrize("route", ["flag", "command-section", "run-section"])
    def test_setting_the_command_does_not_read_is_an_error(self, tmp_path, capsys, route):
        # dump-sample reads neither; recorded, they would pose as run settings
        argv = ["dump-sample", "--ensemble", "anderson", "--n", "3"]
        if route == "flag":
            argv += ["--nu", "0.5", "--replicas", "9"]
        else:
            cfg = tmp_path / "run.ini"
            section = "dump_sample" if route == "command-section" else "run"
            cfg.write_text(f"[{section}]\nnu = 0.5\nreplicas = 9\n")
            argv += ["--config", str(cfg)]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == "error: dump-sample does not read nu, replicas\n"

    @pytest.mark.parametrize("argv, unread", [
        (["types", "--k", "3", "--ensemble", "anderson"], "ensemble"),
        (["cramer", "--law", "rademacher", "--n", "5"], "n"),
        (["trace", "--k", "2", "--ensemble", "anderson", "--n", "8", "--trials", "5"], "trials"),
        (["simulate", "--ensemble", "anderson", "--k-list", "1", "--n", "8", "--trials", "5",
          "--replicas", "9"], "replicas"),
        (["clt", "--ensemble", "anderson", "--k-list", "1", "--n", "8", "--trials", "5",
          "--tolerance", "0.1"], "tolerance"),
        (["mdp", "--ensemble", "anderson", "--k", "1", "--nu", "0.5", "--n", "8",
          "--trials", "5", "--alpha", "0"], "alpha"),
        # only k is run, so a k_list beside it would be recorded for nothing
        (["types", "--k", "3", "--k-list", "1,3"], "k_list"),
        (["trace", "--k", "2", "--ensemble", "anderson", "--n", "8", "--k-list", "2"],
         "k_list"),
        (["mdp", "--ensemble", "anderson", "--k", "1", "--k-list", "1,3", "--nu", "0.5",
          "--n", "8", "--trials", "5"], "k_list"),
    ], ids=["types", "cramer", "trace", "simulate", "clt", "mdp", "types-k_list",
            "trace-k_list", "mdp-k_list"])
    def test_each_command_rejects_what_it_does_not_read(self, capsys, argv, unread):
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == f"error: {argv[0]} does not read {unread}\n"

    @pytest.mark.parametrize("argv, config_text, message", [
        (["mdp", "--n", "64", "--n-list", "128"], None, "mdp: n and n_list exclude each other"),
        (["mdp"], "[run]\nn = 64\n\n[mdp]\nn_list = 128\n",
         "mdp: n and n_list exclude each other"),
        (["trace", "--ensemble", "anderson", "--n", "10"], None,
         "trace: input excludes an ensemble and n"),
        (["trace", "--ensemble", "anderson"], None, "trace: input excludes an ensemble and n"),
        (["trace", "--n", "10"], None, "trace: input excludes an ensemble and n"),
    ], ids=["mdp-flags", "mdp-file", "trace-ensemble-and-n", "trace-ensemble", "trace-n"])
    def test_settings_that_exclude_each_other_are_an_error(self, tmp_path, capsys, argv,
                                                           config_text, message):
        # the run read one of them (n_list, the file's matrix), yet the
        # provenance block recorded them all
        matrix = tmp_path / "m.csv"
        matrix.write_text("sub,diag,sup\n,1,2\n3,4,\n")
        runs = {"mdp": ["--ensemble", "anderson", "--k", "1", "--nu", "0.5", "--trials", "1100"],
                "trace": ["--input", str(matrix), "--k", "2"]}[argv[0]]
        if config_text is not None:
            cfg = tmp_path / "run.ini"
            cfg.write_text(config_text)
            runs += ["--config", str(cfg)]
        out = tmp_path / "out"
        assert run_cli(*argv, *runs, "--output", str(out)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, bad", [
        (["mdp", "--tolerance", "nan"], "'nan'"),
        (["mdp", "--delta-list=nan"], "'nan'"),
        (["cov", "--tolerance", "-0.5"], "malformed value for tolerance: '-0.5'"),
        (["mdp", "--delta-list=-0.5,0.5"], "thresholds must be >= 0"),
        (["mdp", "--delta-list", ","], "delta_list, when given, must be non-empty"),
    ], ids=["tolerance-nan", "delta-nan", "tolerance-negative", "delta-negative", "delta-empty"])
    def test_malformed_gate_setting_is_an_error(self, tmp_path, capsys, argv, bad):
        # each once ran: a NaN tolerance turned the gate off, a NaN threshold
        # predicted a NaN rate, a negative one read as a failed gate (exit 2),
        # and an empty list compared no threshold and passed (exit 0)
        runs = {"cov": ["--k-list", "1,2"], "mdp": ["--k", "1", "--nu", "0.5"]}[argv[0]]
        out = tmp_path / "out"
        assert run_cli(*argv, *runs, "--ensemble", "anderson", "--n", "8", "--trials", "1100",
                       "--output", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and bad in err, err
        assert not out.exists()

    def test_command_table_names_every_command_and_only_settings(self):
        # a handler's parameters after config are the settings it reads
        table, reads = main.__globals__["_COMMANDS"], main.__globals__["_reads"]
        settings = main.__globals__["_SETTINGS"]
        assert set(table) == set(COMMANDS)
        read = {p.name for command in table for p in reads(command)}
        assert read <= set(settings) | {"ensemble"}
        run_keys = {key for key, s in settings.items() if s.section == "run"}
        assert run_keys - main.__globals__["_COMMON_KEYS"] <= read

    @pytest.mark.parametrize("argv", [["types", "--k", "3"], ["cramer", "--law", "rademacher"]])
    def test_every_command_takes_output_seed_and_workers(self, tmp_path, argv):
        out = tmp_path / "out"
        assert run_cli(*argv, "--seed", "3", "--workers", "2", "--output", str(out)) == 0
        assert out.exists()

    @pytest.mark.parametrize("extra, config_text, bad", [
        (["--n", "8", "--k-list", "1,x"], None, "1,x"),
        (["--k-list", "1"], "[run]\nn = abc\n", "abc"),
        (["--n", "8", "--k-list", "1", "--workers", "two"], None, "two"),
        (["--n", "8", "--k-list", "1", "--d-law", "uniform(a,b)"], None, "uniform(a,b)"),
        # a non-finite scaling exponent once wrote NaN traces and exited 0
        (["--n", "8", "--k-list", "1", "--alpha", "nan"], None, "nan"),
        (["--k-list", "1"], "[run]\nn = 8\nepsilon = inf\n", "inf"),
    ], ids=["k-list", "config-n", "workers", "d-law", "alpha-nan", "config-epsilon-inf"])
    def test_malformed_number_is_a_typed_error(self, tmp_path, capsys, extra, config_text, bad):
        argv = ["simulate", "--ensemble", "anderson", "--trials", "3", *extra]
        if config_text is not None:
            cfg = tmp_path / "run.ini"
            cfg.write_text(config_text)
            argv += ["--config", str(cfg)]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(bad) in err

    def test_non_finite_law_parameter_is_named(self, capsys):
        # this law once reached dk_iid, which warned, and failed as a matrix error
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("mdp", "--ensemble", "anderson", "--d-law", "bernoulli(0.5,inf,1)",
                           "--n", "10", "--trials", "30", "--k", "1", "--nu", "0.5") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bernoulli law parameter must be finite, got inf"), err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("argv, message", [
        (["types", "--k", "0"], "k=0 outside [1, 16]"),
        (["trace", "--k", "0", "--ensemble", "anderson", "--n", "10"],
         "k=0 outside [1, 16]"),
        (["mdp", "--ensemble", "anderson", "--k", "0", "--n", "10", "--nu", "0.5",
          "--trials", "30"], "k=0 outside [1, 16]"),
        (["mdp", "--ensemble", "anderson", "--k", "1", "--n", "0", "--nu", "0.5",
          "--trials", "30"], "n must be >= 2, got 0"),
        (["types"], "types: missing required keys ['k']"),
        (["mdp", "--ensemble", "anderson", "--k", "1", "--nu", "0.5", "--trials", "30"],
         "mdp: missing n or n_list"),
        (["trace", "--k", "2"], "trace: need --input or an ensemble and n"),
        (["cramer"], "cramer: missing required keys ['law']"),
        (["clt", "--ensemble", "anderson", "--n", "8"],
         "clt: missing required keys ['k_list', 'trials']"),
    ], ids=["types-k0", "trace-k0", "mdp-k0", "mdp-n0", "types-no-k", "mdp-no-n",
            "trace-no-matrix", "cramer-no-law", "clt-missing"])
    def test_zero_is_validated_and_absence_reported(self, capsys, argv, message):
        # a given 0 reaches validation instead of reading as missing
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, err

    @pytest.mark.parametrize("argv, message", [
        (["dump-sample", "--ensemble", "birth_death_q", "--symmetric", "maybe", "--n", "3"],
         "malformed value for symmetric: 'maybe'"),
        (["trace", "--k", "2", "--input", "one-column"], "matrix row 2 malformed: ['3']"),
        (["trace", "--k", "2", "--input", "ragged"],
         "matrix CSV has inconsistent column lengths"),
        (["trace", "--k", "2", "--input", "first-row-sub"],
         "matrix row 1 malformed: ['7', '1', '2']"),
        (["trace", "--k", "2", "--input", "fourth-cell"],
         "matrix row 1 malformed: ['', '1', '2', '9']"),
        (["cramer", "--law", "gaussian(0,1)"], "cramer: entry law must have compact support"),
        # a given empty law reaches the law parser instead of reading as missing
        (["cramer", "--law", ""], "unparseable law: ''"),
    ], ids=["symmetric-maybe", "csv-one-column", "csv-ragged", "csv-first-row-sub",
            "csv-fourth-cell", "cramer-unbounded", "cramer-empty-law"])
    def test_malformed_input_is_named(self, tmp_path, capsys, argv, message):
        # in "ragged" the second row has no sup, so sup is one short of sub;
        # the first row has no sub entry, and no row has a fourth cell
        files = {"one-column": "sub,diag,sup\n,1,2\n3\n",
                 "ragged": "sub,diag,sup\n,1,2\n3,4,\n5,6,\n",
                 "first-row-sub": "sub,diag,sup\n7,1,2\n3,4,\n",
                 "fourth-cell": "sub,diag,sup\n,1,2,9\n3,4,\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["trace-input", "config"])
    @pytest.mark.parametrize("content", [None, b"\xff\xfe,1,2\n"], ids=["missing", "not-utf8"])
    def test_unreadable_input_file_is_a_typed_error(self, tmp_path, capsys, command, content):
        path = tmp_path / "in.csv"
        if content is not None:
            path.write_bytes(content)
        argv = (["trace", "--input", str(path), "--k", "2"] if command == "trace-input"
                else ["clt", "--config", str(path)])
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read"), err

    @pytest.mark.parametrize("points", ["-1", "0"])
    def test_cramer_rejects_fewer_than_one_point(self, capsys, points):
        assert run_cli("cramer", "--law", "rademacher", "--points", points) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cramer: points must be >= 1, got {points}"), err

    @pytest.mark.parametrize("flag, key, section", [
        ("--n", "n", "run"), ("--seed", "master_seed", "run"), ("--nu", "nu", "types"),
        ("--points", "points", "types"), ("--beta", "beta", "ensemble"),
    ])
    @pytest.mark.parametrize("route", ["flag", "file"])
    def test_malformed_value_exits_1(self, tmp_path, capsys, flag, key, section, route):
        # a flag's text goes through the same parser as a file's
        argv = ["types", "--k", "3"] + (["--ensemble", "beta_hermite"] if key == "beta" else [])
        if route == "flag":
            argv += [flag, "abc"]
        else:
            cfg = tmp_path / "run.ini"
            cfg.write_text(f"[{section}]\n{key} = abc\n")
            argv += ["--config", str(cfg)]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == f"error: malformed value for {key}: 'abc'\n"

    @pytest.mark.parametrize("config_text, name", [
        ("[clt]\nreplica = 5000\n", "'replica'"),
        ("[run]\nseed = 3\n", "'seed'"),
        ("[run]\nformat = json\n", "'format'"),
        ("[ensemble]\nmodel = generic_iid\ncoupling = d_from_f\n", "'coupling'"),
        ("[clt]\nd_law = rademacher\n", "'d_law'"),
        ("[ensemble]\nk_list = 1\n", "'k_list'"),
        ("[ensembel]\nmodel = anderson\n", "[ensembel]"),
        ("[DEFAULT]\nn = 8\n\n[ensemble]\nmodel = anderson\n", "[DEFAULT]"),
    ])
    def test_unknown_config_key_is_an_error(self, tmp_path, capsys, config_text, name):
        cfg = tmp_path / "run.ini"
        cfg.write_text(config_text)
        assert run_cli("clt", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config") and name in err, err

    @pytest.mark.parametrize("flag", ["--replicates", "--format", "--coupling"])
    def test_unknown_flag_exits_1(self, capsys, flag):
        # 2 means a statistical threshold was exceeded, never a usage error
        with pytest.raises(SystemExit) as exc:
            run_cli("clt", "--ensemble", "anderson", flag, "csv")
        assert exc.value.code == 1
        assert f"unrecognized arguments: {flag} csv" in capsys.readouterr().err

    def test_file_and_flags_write_the_same_bytes(self, tmp_path):
        cfg = tmp_path / "clt.ini"
        by_file, by_flags = tmp_path / "file.json", tmp_path / "flags.json"
        cfg.write_text(
            f"[run]\nmaster_seed = 5\noutput = {by_file}\n\n"
            "[ensemble]\nmodel = anderson\nd_law = gaussian(0,1)\n\n"
            "[clt]\nk_list = 1,3\nn = 128\ntrials = 512\nreplicas = 5000\nalpha = 0\n")
        code = run_cli("clt", "--config", str(cfg))
        assert run_cli("clt", "--ensemble", "anderson", "--d-law", "gaussian(0,1)",
                       "--k-list", "1,3", "--n", "128", "--trials", "512", "--replicas", "5000",
                       "--alpha", "0", "--seed", "5", "--output", str(by_flags)) == code

        def body(path):
            return [line for line in path.read_text().splitlines() if "output_path" not in line]
        assert body(by_file) == body(by_flags)

    def test_too_wide_law_for_the_tilt_range_is_an_error(self, capsys):
        # its log-MGF at t_max once died in math.log with a traceback
        assert run_cli("cramer", "--law", "uniform(-1e307,1e307)", "--points", "3") == 1
        assert capsys.readouterr().err.startswith("error: support")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_shared_flags_act_as_if_declared_per_command(self, command):
        # The flags are declared once and shared by every command.  Rebuild the
        # command with each flag declared on it directly, as a reference.
        parser = main.__globals__["_build_parser"]()
        shared = parser._subparsers._group_actions[0].choices[command]
        ref = argparse.ArgumentParser(prog="tritrace", description=parser.description)
        ref_cmd = ref.add_subparsers(dest="command", required=True).add_parser(command)
        argv = [command]
        for action in shared._actions:
            if action.dest == "help":
                continue
            ref_cmd.add_argument(*action.option_strings, dest=action.dest, type=action.type,
                                 choices=action.choices, help=action.help)
            value = {int: "3", float: "0.5"}.get(action.type, "x")
            argv += [action.option_strings[0], action.choices[0] if action.choices else value]
        assert len(argv) == 1 + 2 * 29
        assert shared.format_help() == ref_cmd.format_help()
        assert vars(parser.parse_args(argv)) == vars(ref.parse_args(argv))
        assert vars(parser.parse_args([command])) == vars(ref.parse_args([command]))


class TestOutputs:
    def test_dump_sample_layout(self, tmp_path):
        path = tmp_path / "m.csv"
        assert run_cli("dump-sample", "--ensemble", "beta_hermite", "--beta", "2",
                       "--n", "6", "--seed", "9", "--output", str(path)) == 0
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "sub,diag,sup"
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == 6
        assert body[0][0] == ""      # no sub-diagonal entry in the first row
        assert body[-1][2] == ""     # no super-diagonal entry in the last row

    def test_csv_floats_roundtrip_17_digits(self, tmp_path):
        path = tmp_path / "m.csv"
        run_cli("dump-sample", "--ensemble", "beta_hermite", "--beta", "2",
                "--n", "6", "--seed", "9", "--output", str(path))
        matrix = sample_matrix(EnsembleSpec("beta_hermite", beta=2.0), 6, 9)
        parsed = matrix_from_csv(str(path))
        assert np.array_equal(parsed.diag, matrix.diag)
        assert np.array_equal(parsed.sub, matrix.sub)

    def test_output_embeds_config_and_version(self, tmp_path):
        path = tmp_path / "clt.json"
        assert run_cli("clt", "--ensemble", "anderson", "--d-law", "gaussian(0,1)",
                       "--k-list", "1", "--n", "128", "--trials", "512",
                       "--seed", "5", "--replicas", "5000",
                       "--output", str(path)) == 0
        payload = json.loads(path.read_text())
        assert payload["artifact"]["version"] == __version__
        assert payload["config"]["ensemble.model"] == "anderson"
        assert payload["config"]["trials"] == 512
        assert "workers" not in payload["config"]
        assert "output_format" not in payload["config"]
        assert "ensemble.coupling" not in payload["config"]
        assert "report" in payload["results"]

    def test_simulate_csv_rows(self, tmp_path):
        path = tmp_path / "sim.csv"
        assert run_cli("simulate", "--ensemble", "anderson", "--k-list", "1,2",
                       "--n", "64", "--trials", "8", "--seed", "3", "--alpha", "0",
                       "--epsilon", "0", "--output", str(path)) == 0
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "trial,k1,k2"
        assert len(lines) == 9

    def test_cramer_csv(self, tmp_path):
        path = tmp_path / "rate.csv"
        assert run_cli("cramer", "--law", "rademacher", "--x-min", "-0.5",
                       "--x-max", "0.5", "--points", "11", "--output", str(path)) == 0
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "x,rate"
        mid = lines[1 + 5].split(",")
        assert float(mid[0]) == 0.0
        assert abs(float(mid[1])) < 1e-9


    def test_cramer_warns_where_the_supremum_hits_t_max(self, capsys):
        # on [0, 1] the rate at x near 1 needs tilts far beyond |t| = 1
        assert run_cli("cramer", "--law", "uniform(0,1)", "--x-min", "0.9", "--x-max", "0.99",
                       "--points", "3", "--t-max", "1") == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in lines] == ["warning"] * 3
        assert all("supremum hit |t|=1 while the objective still climbs outward" in line
                   for line in lines)

    def test_cramer_warns_at_both_tilt_edges(self, capsys):
        # x=-1 presses against -t_max and x=2 against +t_max, the ends of the support
        assert run_cli("cramer", "--law", "uniform(-1,2)", "--x-min", "-2", "--x-max", "3",
                       "--points", "11", "--t-max", "20") == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"warning: x={x}: supremum hit |t|=20 while the objective still "
                         "climbs outward; rate is a lower bound" for x in (-1, 2)]


class TestStatisticalExitCodes:
    def test_clt_degenerate_target_is_an_error(self, capsys):
        # Rademacher disorder makes the squared-power trace surely constant
        assert run_cli("clt", "--ensemble", "anderson", "--d-law", "rademacher",
                       "--k-list", "2", "--n", "64", "--trials", "256",
                       "--replicas", "2000", "--seed", "1") == 1
        assert "variance" in capsys.readouterr().err

    def test_clt_too_few_trials_fails_before_any_draw(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("drew before checking the trial count")

        monkeypatch.setattr(cli, "mc_traces", never)
        monkeypatch.setattr(cli, "covariance_target", never)
        assert run_cli("clt", "--ensemble", "hatano_nelson", "--k-list", "1,8", "--n", "4000",
                       "--trials", "99", "--seed", "1") == 1
        assert capsys.readouterr().err == (
            "error: distributional statistics need at least 100 trials\n")

    def test_clt_ks_threshold_exceeded_exits_2(self, tmp_path, capsys):
        # a deliberately wrong scaling shrinks the samples far below the
        # window-estimated target variance, so the KS check must trip
        path = tmp_path / "bad.json"
        code = run_cli("clt", "--ensemble", "anderson", "--d-law", "gaussian(0,1)",
                       "--k-list", "1", "--n", "256", "--trials", "512",
                       "--alpha", "0.5", "--epsilon", "0", "--replicas", "5000",
                       "--seed", "2", "--output", str(path))
        assert code == 2
        assert "KS distance" in capsys.readouterr().err

    def test_cov_deviation_exits_2(self, tmp_path, capsys):
        # the same wrong scaling shrinks the empirical covariance far below
        # the target, beyond every entry's allowance
        path = tmp_path / "cov.json"
        code = run_cli("cov", "--ensemble", "anderson", "--d-law", "gaussian(0,1)",
                       "--k-list", "1,2", "--n", "128", "--trials", "512",
                       "--alpha", "0.5", "--epsilon", "0", "--replicas", "2000",
                       "--seed", "2", "--output", str(path))
        assert code == 2
        assert "covariance deviates beyond tolerance" in capsys.readouterr().err
        results = json.loads(path.read_text())["results"]
        assert results["tolerance"] == 0.10
        assert results["within_tolerance"] is False

    def test_mdp_rate_deviation_exits_2(self, tmp_path, capsys):
        # a zero tolerance fails every unflagged estimate that misses its prediction
        # and names the tolerance it used, unrounded (0.004 once read as 0%)
        path = tmp_path / "mdp.csv"
        for tolerance, shown in (("0", "0.0"), ("0.004", "0.004")):
            code = run_cli("mdp", "--ensemble", "anderson", "--k", "1", "--nu", "0.5",
                           "--n-list", "100", "--trials", "4096", "--tolerance", tolerance,
                           "--seed", "3", "--output", str(path))
            assert code == 2
            assert capsys.readouterr().err == (
                f"1 rate estimates deviate beyond relative tolerance {shown}\n")

    def test_clt_keeps_a_lone_alpha(self, tmp_path):
        # epsilon alone falls back to the model default (0 for Anderson)
        path = tmp_path / "clt.json"
        code = run_cli("clt", "--ensemble", "anderson", "--d-law", "gaussian(0,1)",
                       "--k-list", "1,2", "--n", "128", "--trials", "256", "--alpha", "0.25",
                       "--replicas", "2000", "--seed", "4", "--output", str(path))
        assert code in (0, 2)
        payload = json.loads(path.read_text())
        assert payload["config"]["alpha"] == 0.25
        assert payload["results"]["report"]["scaling_exponents"] == [0.25 * k + 0.5
                                                                     for k in (1, 2)]

    def test_mdp_csv_and_exit(self, tmp_path):
        path = tmp_path / "mdp.csv"
        code = run_cli("mdp", "--ensemble", "anderson", "--k", "1", "--nu", "0.5",
                       "--n-list", "100", "--delta-list", "0.0", "--trials", "512",
                       "--seed", "3", "--output", str(path))
        assert code == 0
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("n,nu,delta,tail_prob")

    def test_cov_small_run(self, tmp_path, capsys):
        path = tmp_path / "cov.json"
        code = run_cli("cov", "--ensemble", "beta_hermite", "--beta", "2",
                       "--k-list", "1,2", "--n", "512", "--trials", "2048",
                       "--seed", "11", "--output", str(path))
        assert code in (0, 2)
        payload = json.loads(path.read_text())
        assert payload["results"]["target"]["source"] == "beta_hermite_formula"


class TestDeterminism:
    def test_worker_count_never_changes_bytes(self, tmp_path):
        path = tmp_path / "out.json"
        base = ["clt", "--ensemble", "anderson", "--d-law", "gaussian(0,1)",
                "--k-list", "1,3", "--n", "128", "--trials", "1100",
                "--seed", "11", "--replicas", "5000", "--output", str(path)]
        assert run_cli(*base, "--workers", "1") == 0
        first = path.read_bytes()
        assert run_cli(*base, "--workers", "2") == 0
        assert path.read_bytes() == first

    def test_listed_ensembles_describe_as_pinned(self):
        # the provenance of each `dump-*` spec, as before the model table;
        # building a spec draws nothing, so no generator version enters
        described = {name: build_config(main.__globals__["_build_parser"]().parse_args(argv))
                     .ensemble.describe()
                     for name, argv in _cli_bytes().COMMANDS.items() if name.startswith("dump-")}
        laws = {"a_law": "uniform(0.5,1.5)", "b_law": "uniform(0.5,1.5)"}
        assert described == {
            "dump-anderson": {"model": "anderson", "symmetric": True, "bounded": True,
                              "d_law": "rademacher"},
            "dump-beta": {"model": "beta_hermite", "symmetric": True, "bounded": False,
                          "beta": 2.0},
            "dump-hatano": {"model": "hatano_nelson", "symmetric": False, "bounded": True,
                            **laws, "d_law": "uniform(-1.0,1.0)"},
            "dump-bdq": {"model": "birth_death_q", "symmetric": False, "bounded": True,
                         **laws},
            "dump-bdq-symmetric": {"model": "birth_death_q", "symmetric": True,
                                   "bounded": True, "a_law": "uniform(0.5,1.5)"},
            "dump-kernel-v": {"model": "birth_death_kernel", "symmetric": False,
                              "bounded": True, "kernel_law": "uniform(0.0,1.0)",
                              "kernel_variant": "v"},
            "dump-kernel-conductance": {"model": "birth_death_kernel", "symmetric": False,
                                        "bounded": True, "kernel_law": "uniform(0.5,1.5)",
                                        "kernel_variant": "conductance"},
            "dump-generic-rademacher": {"model": "generic_iid", "symmetric": False,
                                        "bounded": True, "a_law": "rademacher",
                                        "d_law": "rademacher", "b_law": "rademacher"},
        }

    def test_draw_free_commands_match_the_byte_listing(self):
        # `types` and `cramer` use no random draws, so their bytes depend on no
        # generator version; the listing's other lines are checked by running
        # scripts/cli_bytes.py --check
        cli_bytes = _cli_bytes()
        names = [n for n in cli_bytes.COMMANDS if n.startswith(("types-", "cramer-"))]
        assert len(names) == 8
        src = Path(tritrace.__file__).resolve().parents[1]
        assert cli_bytes.check(names, src) == []


def test_cli_import_does_not_load_scipy():
    # scipy is only needed for the KS distance and configparser only with
    # --config; each is imported there.  Nothing imports a process pool.
    src = str(Path(tritrace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    lazy = ("concurrent.futures.process", "multiprocessing", "configparser")
    code = ("import sys, tritrace.cli; "
            f"loaded = sorted(m for m in sys.modules if 'scipy' in m or m in {lazy!r}); "
            "assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_worker_run_loads_no_process_pool(tmp_path):
    # workers are forked children that write to pipes: no multiprocessing
    src = str(Path(tritrace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["simulate", "--ensemble", "anderson", "--k-list", "1,2", "--n", "16",
            "--trials", "2100", "--workers", "2", "--output", str(tmp_path / "out.csv")]
    code = ("import sys; from tritrace.cli import main; "
            f"assert main({argv!r}) == 0; "
            "loaded = sorted(m for m in sys.modules "
            "if m.startswith(('multiprocessing', 'concurrent'))); "
            "assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

"""End-to-end tests of the command-line front end."""

import argparse
import csv
import json
import os
from fractions import Fraction

import numpy as np
import pytest

from brlab.bessel import AccuracyWarning
from brlab import cli
from brlab.cli import _build_parser, main
from brlab.decomposition import (
    GAMMA_MAX_LEVEL,
    DyadicPiece,
    gamma_decay_check,
    make_bump,
    t_j_apply,
)
from brlab.grid import ExponentPair, Grid, field_from_csv
from brlab.norms import corollary_experiment, decay_fit


def run_cli(argv, root):
    """Invoke main() with --outdir root; return (exit code, new run dir)."""
    before = set(os.listdir(root))
    rc = main(list(argv) + ["--outdir", str(root)])
    created = [p for p in sorted(os.listdir(root)) if p not in before]
    assert len(created) <= 1
    run_dir = os.path.join(str(root), created[0]) if created else None
    return rc, run_dir


def read_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return json.loads(err[0])


def load_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def read_manifest(run_dir):
    with open(os.path.join(run_dir, "manifest.json")) as handle:
        return json.load(handle)


def subparsers():
    """The parser's subcommands, by name."""
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def flag_text(value):
    """A manifest value as flag text; a float as its exact rational, which
    every numeric flag parses back to the same bits."""
    return str(Fraction(value)) if isinstance(value, float) else str(value)


#: the benchmark's one-shot CLI entries, and a default piece-norm decay fit
RERUN_ENTRIES = {
    "evaluate_1d": ["evaluate", "--alpha", "2"],
    "evaluate_2d": ["evaluate", "--n", "2", "--N", "64", "--L", "8", "--alpha", "2",
                    "--paths", "oracle,radial,kernel,separable"],
    "decay_gamma": ["decay", "--mode", "gamma", "--alpha", "2"],
    "decay_tj": ["decay", "--mode", "tj", "--alpha", "2"],
    "kernel_sweep": ["kernel", "--check", "sweep"],
    "kernel_dilation": ["kernel", "--check", "dilation", "--R", "2"],
    "norms_lemma1": ["norms", "--experiment", "lemma1", "--p", "1"],
    "norms_corollary": ["norms", "--experiment", "corollary", "--alpha", "3/2"],
    "regions_export": ["regions"],
    "regions_query": ["regions", "--p1", "1", "--p2", "2"],
    "bessel_check": ["bessel-check"],
}


def _number_flag_cases():
    """(argv, key) feeding every flag of every command but --outdir a value
    none of them can use; each is refused as it is parsed, whichever mode
    reads it."""
    cases = []
    for command, sub in subparsers().items():
        for action in sub._actions:
            if not isinstance(action, argparse._StoreAction) or action.dest == "outdir":
                continue
            for value in ("1e400", "nan", "-inf", "1/0"):
                argv = [command, f"{action.option_strings[0]}={value}"]
                cases.append(pytest.param(argv, action.dest, id=f"{command}-{action.dest}-{value}"))
    return cases


class TestValidation:
    def test_missing_alpha_names_key(self, tmp_path, capsys):
        rc, _ = run_cli(["evaluate", "--n", "1", "--N", "64"], tmp_path)
        assert rc == 2
        record = read_error(capsys)
        assert record["error"] == "validation"
        assert record["key"] == "alpha"

    @pytest.mark.parametrize(
        "argv",
        [
            # used to exit 0 with an oracle-vs-kernel error of 1.39
            ["evaluate", "--alpha", "2", "--N", "64", "--L", "40", "--paths", "oracle,kernel"],
            ["decay", "--mode", "tj", "--alpha", "2", "--N", "64", "--L", "60", "--seed", "1"],
            ["norms", "--experiment", "corollary", "--alpha", "2", "--N", "64", "--L", "40",
             "--seed", "1"],
        ],
        ids=["evaluate", "decay-tj", "corollary"],
    )
    def test_lattice_short_of_the_unit_ball_names_L(self, argv, tmp_path, capsys):
        rc, _ = run_cli(argv, tmp_path)
        assert rc == 2
        record = read_error(capsys)
        assert (record["error"], record["key"]) == ("validation", "L")
        assert "N/(2L)" in record["message"]
        assert os.listdir(tmp_path) == []

    def test_lattice_reaching_the_unit_sphere_runs(self, tmp_path):
        argv = ["evaluate", "--alpha", "2", "--N", "64", "--L", "32", "--paths", "oracle"]
        assert run_cli(argv, tmp_path)[0] == 0

    def test_short_j_range_rejected(self, tmp_path, capsys):
        rc, _ = run_cli(
            ["decay", "--mode", "tj", "--alpha", "2", "--j-range", "0:0",
             "--seed", "1"],
            tmp_path,
        )
        assert rc == 2
        assert read_error(capsys)["key"] == "j_range"

    @pytest.mark.parametrize(
        "flags",
        [
            ["decay", "--mode", "tj", "--alpha", "2", "--j-range=-1:4", "--seed", "1"],
            ["decay", "--mode", "gamma", "--alpha", "2", "--j-range=-1:4"],
            ["kernel", "--check", "envelope", "--j-range=-3:2"],
        ],
        ids=["tj", "gamma", "envelope"],
    )
    def test_negative_level_rejected(self, flags, tmp_path, capsys):
        # levels start at 0; these used to be refused under key "config"
        rc, _ = run_cli(flags, tmp_path)
        assert rc == 2
        assert read_error(capsys)["key"] == "j_range"

    def test_missing_seed_for_randomized_run(self, tmp_path, capsys):
        rc, _ = run_cli(
            ["decay", "--mode", "tj", "--alpha", "2", "--j-range", "0:4"],
            tmp_path,
        )
        assert rc == 2
        assert read_error(capsys)["key"] == "seed"

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--alpha", "2", "--N", "32"],
            ["decay", "--alpha", "2", "--j-range", "0:3"],
            ["regions", "--p1", "1", "--p2", "2"],
            ["kernel", "--check", "sweep", "--points", "2"],
            ["norms", "--p", "1"],
            ["bessel-check", "--points", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_names_seed(self, argv, tmp_path, capsys):
        # evaluate used to run into a "-seed-1" directory; decay and norms
        # were refused by numpy under key "config"
        rc, _ = run_cli(argv + ["--seed", "-1"], tmp_path)
        assert rc == 2
        record = read_error(capsys)
        assert (record["key"], record["message"]) == (
            "seed", "argument --seed: must be at least 0, got -1"
        )
        assert os.listdir(tmp_path) == []

    def test_exponent_domain_error(self, tmp_path, capsys):
        rc, _ = run_cli(["regions", "--n", "2", "--p1", "1/2"], tmp_path)
        assert rc == 2
        record = read_error(capsys)
        assert record["key"] == "p1"
        assert "1/2" in record["message"]

    def test_float_exponent_rejected(self, tmp_path, capsys):
        rc, _ = run_cli(["regions", "--p1", "1.5", "--p2", "2"], tmp_path)
        assert rc == 2
        assert read_error(capsys)["key"] == "p1"

    def test_unknown_path_rejected(self, tmp_path, capsys):
        rc, _ = run_cli(
            ["evaluate", "--alpha", "2", "--paths", "oracle,warp"], tmp_path
        )
        assert rc == 2
        assert read_error(capsys)["key"] == "paths"

    def test_empty_sweep_rejected(self, tmp_path, capsys):
        rc, _ = run_cli(["kernel", "--check", "sweep", "--points", "0"], tmp_path)
        assert rc == 2
        assert read_error(capsys)["key"] == "points"

    def test_dilation_needs_R(self, tmp_path, capsys):
        rc, _ = run_cli(["kernel", "--check", "dilation"], tmp_path)
        assert rc == 2
        assert read_error(capsys)["key"] == "R"

    def test_unknown_flag_is_validation_error(self, tmp_path, capsys):
        rc = main(["regions", "--warp", "9", "--outdir", str(tmp_path)])
        assert rc == 2
        assert read_error(capsys)["key"] == "argv"

    def test_missing_command(self, capsys):
        rc = main([])
        assert rc == 2
        assert read_error(capsys)["key"] == "command"

    def test_kernel_path_order_above_validated_range_rejected(self, tmp_path, capsys):
        rc, _ = run_cli(
            ["evaluate", "--alpha", "9", "--paths", "oracle,kernel", "--N", "32"], tmp_path
        )
        assert rc == 2
        assert read_error(capsys)["key"] == "alpha"

    def test_budget_error_exit_code(self, tmp_path, capsys):
        rc, _ = run_cli(
            ["evaluate", "--alpha", "2", "--N", "64", "--budget", "10"], tmp_path
        )
        assert rc == 3
        assert read_error(capsys)["error"] == "budget"
        assert os.listdir(tmp_path) == []  # no field file was written before the refusal

    def test_budget_error_exit_code_radial(self, tmp_path, capsys):
        rc, _ = run_cli(
            ["evaluate", "--alpha", "2", "--N", "64", "--budget", "10",
             "--paths", "radial"],
            tmp_path,
        )
        assert rc == 3
        assert read_error(capsys)["error"] == "budget"

    @pytest.mark.parametrize(
        "flags,key",
        [
            (["evaluate", "--paths", "separable", "--K", "0"], "K"),
            (["evaluate", "--paths", "radial", "--nodes", "0"], "nodes"),
            (["kernel", "--check", "envelope", "--M", "0"], "M"),
            # a negative budget used to exit 3, as if a run had gone over it
            (["evaluate", "--budget", "-5"], "budget"),
            (["decay", "--budget", "-5"], "budget"),
        ],
        ids=["K", "nodes", "M", "evaluate-budget", "decay-budget"],
    )
    def test_refused_before_any_output(self, flags, key, tmp_path, capsys):
        argv = flags + (["--alpha", "2", "--N", "64"] if flags[0] == "evaluate" else [])
        rc, _ = run_cli(argv, tmp_path)
        assert rc == 2
        record = read_error(capsys)
        assert record["error"] == "validation"
        assert record["key"] == key
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "flags,key",
        [
            (["--check", "sweep", "--rho-max", "inf"], "rho_max"),
            (["--check", "sweep", "--rho-max", "nan"], "rho_max"),
            (["--check", "sweep", "--rho-max", "1e308"], "rho_max"),
            (["--check", "sweep", "--rho-max", "1e200"], "rho_max"),
            (["--check", "dilation", "--R", "inf"], "R"),
            (["--check", "dilation", "--R", "nan"], "R"),
            (["--check", "dilation", "--R=-inf"], "R"),
            (["--check", "dilation", "--R", "1e200"], "R"),
            (["--check", "dilation", "--R", "1e100", "--n", "2"], "R"),
            (["--check", "dilation", "--R", "0"], "R"),
            (["--check", "envelope", "--M", "inf"], "M"),
            (["--check", "envelope", "--M", "200"], "M"),
            (["--check", "envelope", "--alpha", "100", "--j-range", "0:5", "--M", "400"], "M"),
            (["--check", "envelope", "--j-range", "0:500"], "j_range"),
            (["--check", "envelope", "--alpha", "400"], "j_range"),
            (["--alpha", "nan"], "alpha"),
            (["--alpha", "inf"], "alpha"),
        ],
    )
    def test_kernel_refuses_unusable_numbers(self, flags, key, tmp_path, capsys):
        # each used to crash with OverflowError or ZeroDivisionError, or to
        # refuse under key "config"; an envelope scale 2^(-j (alpha + 1))
        # that underflows names j_range, and M only once every scale is positive
        rc, _ = run_cli(["kernel", *flags], tmp_path)
        assert rc == 2
        record = read_error(capsys)
        assert (record["error"], record["key"]) == ("validation", key)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "flags,key",
        [
            (["evaluate", "--alpha", "2", "--L", "inf"], "L"),
            (["decay", "--mode", "gamma", "--alpha", "2", "--delta", "nan"], "delta"),
            (["norms", "--p", "1", "--widths", "1/2,inf", "--seed", "1"], "widths"),
            (["bessel-check", "--r-max", "inf"], "r_max"),
        ],
        ids=["L", "delta", "widths", "r_max"],
    )
    def test_every_number_flag_refuses_non_finite(self, flags, key, tmp_path, capsys):
        rc, _ = run_cli(flags, tmp_path)
        assert rc == 2
        assert read_error(capsys)["key"] == key

    @pytest.mark.parametrize("argv,key", _number_flag_cases())
    def test_unusable_number_names_its_flag(self, argv, key, tmp_path, capsys):
        rc, _ = run_cli(argv, tmp_path)
        assert rc == 2
        assert read_error(capsys)["key"] == key
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["decay", "--alpha", "2", "--seed", "1", "--p1"], "p1"),
            (["decay", "--alpha", "2", "--seed", "1", "--p2"], "p2"),
            (["regions", "--p2", "1", "--p1"], "p1"),
            (["regions", "--p1", "1", "--p2"], "p2"),
            (["norms", "--experiment", "lemma1", "--seed", "1", "--p"], "p"),
            (["bessel-check", "--orders"], "orders"),
        ],
        ids=["decay-p1", "decay-p2", "regions-p1", "regions-p2", "norms-p", "orders"],
    )
    @pytest.mark.parametrize("value", ["1/0", "3/00"])
    def test_zero_denominator_names_its_flag(self, argv, key, value, tmp_path, capsys):
        # each used to crash with ZeroDivisionError (exit 1)
        rc, _ = run_cli([*argv, value], tmp_path)
        assert rc == 2
        assert read_error(capsys)["key"] == key
        assert os.listdir(tmp_path) == []

    def test_parser_names_a_missing_required_flag(self):
        parser = cli._Parser(prog="brlab")
        parser.add_argument("--p-one", dest="p1", required=True)
        with pytest.raises(cli.CliError) as caught:
            parser.parse_args([])
        assert caught.value.key == "p1"

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["decay", "--mode", "gamma", "--alpha", "2", "--delta", "3"], "delta"),
            (["decay", "--mode", "gamma", "--alpha", "2", "--k-max", "3000"], "k_max"),
            (["norms", "--experiment", "lemma1", "--p", "1", "--b", "100", "--seed", "1"], "b"),
            (["norms", "--experiment", "lemma1", "--p", "1", "--widths", "9", "--seed", "1"],
             "widths"),
            (["norms", "--experiment", "lemma1", "--p", "1", "--widths", "0", "--seed", "1"],
             "widths"),
            # the annulus [8.04, 8.05] holds no lattice frequency at L = 8
            (["norms", "--experiment", "lemma1", "--p", "1", "--b", "8.05", "--widths", "0.01",
              "--seed", "1"], "widths"),
            (["norms", "--experiment", "corollary", "--alpha", "0", "--seed", "1"], "alpha"),
            (["evaluate", "--alpha", "2", "--N", "12"], "N"),
            # past the separable path's coefficient table: its levels, then its wavenumbers
            (["evaluate", "--alpha", "2", "--paths", "separable", "--j", "9"], "j"),
            (["evaluate", "--alpha", "2", "--paths", "separable", "--K", "4096"], "K"),
        ],
        ids=["delta", "k_max", "b", "widths-above-b", "widths-zero", "widths-empty-annulus",
             "alpha", "N", "separable-j", "separable-K"],
    )
    def test_library_refusal_names_the_flag_it_prints(self, argv, key, tmp_path, capsys):
        rc, _ = run_cli(argv, tmp_path)
        assert rc == 2
        record = read_error(capsys)
        assert record["key"] == key
        assert f"got {key}=" in record["message"]
        assert os.listdir(tmp_path) == []

    def test_io_error_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        rc = main(
            ["bessel-check", "--points", "2", "--outdir", str(blocker / "sub")]
        )
        assert rc == 4
        assert read_error(capsys)["error"] == "io"


class TestRunLayout:
    def test_run_dir_name_and_manifest(self, tmp_path):
        rc, run_dir = run_cli(
            ["bessel-check", "--points", "4", "--seed", "9"], tmp_path
        )
        assert rc == 0
        name = os.path.basename(run_dir)
        assert name.startswith("bessel-check-")
        assert name.endswith("-seed9")
        with open(os.path.join(run_dir, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert manifest["command"] == "bessel-check"
        assert manifest["config"]["points"] == 4
        assert manifest["runtime_seconds"] >= 0
        assert manifest["outputs"] == ["bessel.csv"]
        assert "version" in manifest

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--N", "64", "--alpha", "2", "--paths", "oracle"],
            ["decay", "--mode", "gamma", "--alpha", "2", "--j-range", "0:4", "--k-max", "16"],
            ["regions", "--p1", "2", "--p2", "2"],
            ["kernel", "--check", "sweep", "--points", "4", "--rho-max", "10"],
            ["norms", "--experiment", "lemma1", "--p", "2", "--widths", "1,2"],
            ["bessel-check", "--points", "4"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_manifest_records_the_given_seed(self, tmp_path, argv):
        rc, run_dir = run_cli(argv + ["--seed", "7"], tmp_path)
        assert rc == 0
        assert run_dir.endswith("-seed7")
        with open(os.path.join(run_dir, "manifest.json")) as handle:
            assert json.load(handle)["config"]["seed"] == 7

    @pytest.mark.parametrize("argv", RERUN_ENTRIES.values(), ids=RERUN_ENTRIES.keys())
    def test_manifest_config_reruns_the_same_outputs(self, tmp_path, argv):
        rc, run_dir = run_cli(argv + ["--seed", "9001"], tmp_path)
        assert rc == 0
        config = read_manifest(run_dir)["config"]
        # every flag as parsed, including those the mode does not read
        sub = subparsers()[argv[0]]
        options = {a.dest: a.option_strings[0] for a in sub._actions if a.dest != "help"}
        assert set(config) == set(options) - {"outdir"}
        rerun = [argv[0]]
        for key, value in config.items():
            if value is None:
                continue
            if key == "j_range":
                value = f"{value[0]}:{value[-1]}"
            elif isinstance(value, list):
                value = ",".join(flag_text(v) for v in value)
            rerun += [options[key], flag_text(value)]
        rc, again = run_cli(rerun, tmp_path)
        assert rc == 0
        assert read_manifest(again)["config"] == config
        names = sorted(os.listdir(run_dir))
        assert sorted(os.listdir(again)) == names
        for name in names:
            if name != "manifest.json":
                with open(os.path.join(run_dir, name), "rb") as a, \
                        open(os.path.join(again, name), "rb") as b:
                    assert a.read() == b.read(), name

    def test_output_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BRLAB_OUTPUT_ROOT", str(tmp_path))
        rc = main(["regions", "--n", "2", "--p1", "2", "--p2", "2"])
        assert rc == 0
        created = os.listdir(tmp_path)
        assert len(created) == 1
        assert created[0].startswith("regions-")


class TestEvaluate:
    def test_oracle_vs_radial_agreement(self, tmp_path, capsys):
        rc, run_dir = run_cli(
            ["evaluate", "--n", "1", "--N", "64", "--alpha", "2",
             "--paths", "oracle,radial"],
            tmp_path,
        )
        assert rc == 0
        rows = load_rows(os.path.join(run_dir, "agreement.csv"))
        assert rows[0] == ["path_a", "path_b", "rel_l2_error"]
        assert len(rows) == 2
        assert rows[1][:2] == ["oracle", "radial"]
        assert float(rows[1][2]) < 1e-3
        assert os.path.exists(os.path.join(run_dir, "field_oracle.csv"))
        assert os.path.exists(os.path.join(run_dir, "field_radial.csv"))

    def test_single_path_no_agreement_rows(self, tmp_path):
        rc, run_dir = run_cli(
            ["evaluate", "--n", "1", "--N", "64", "--alpha", "2",
             "--paths", "oracle"],
            tmp_path,
        )
        assert rc == 0
        rows = load_rows(os.path.join(run_dir, "agreement.csv"))
        assert len(rows) == 1
        fields = [f for f in os.listdir(run_dir) if f.startswith("field_")]
        assert fields == ["field_oracle.csv"]

    def test_separable_path_compared_to_direct(self, tmp_path):
        rc, run_dir = run_cli(
            ["evaluate", "--n", "1", "--N", "64", "--alpha", "2",
             "--paths", "separable", "--K", "128", "--j", "2"],
            tmp_path,
        )
        assert rc == 0
        rows = load_rows(os.path.join(run_dir, "agreement.csv"))
        assert rows[1][:2] == ["separable", "tj_direct"]
        assert float(rows[1][2]) < 1e-2

    def test_byte_identical_outputs(self, tmp_path):
        argv = ["evaluate", "--n", "1", "--N", "64", "--alpha", "2",
                "--paths", "oracle,radial", "--seed", "4"]
        _, first = run_cli(argv, tmp_path)
        _, second = run_cli(argv, tmp_path)
        for name in ("agreement.csv", "field_oracle.csv", "field_radial.csv"):
            a = open(os.path.join(first, name), "rb").read()
            b = open(os.path.join(second, name), "rb").read()
            assert a == b


class TestDecay:
    def test_gamma_mode(self, tmp_path, capsys):
        rc, run_dir = run_cli(
            ["decay", "--mode", "gamma", "--alpha", "2", "--delta", "0.5",
             "--j-range", "0:4", "--k-max", "16"],
            tmp_path,
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "constant" in out and "flagged False" in out
        rows = load_rows(os.path.join(run_dir, "gamma.csv"))
        assert rows[0] == ["j", "k", "sup_gamma", "normalized"]
        assert len(rows) == 1 + 5 * 17
        assert rows[1][:2] == ["0", "0"] and rows[-1][:2] == ["4", "16"]
        report = gamma_decay_check(2.0, 0.5, range(5), range(17))
        assert [float(r[2]) for r in rows[1:]] == report.sup_table.ravel().tolist()
        assert [float(r[3]) for r in rows[1:]] == report.normalized.ravel().tolist()

    def test_gamma_levels_past_the_certified_range_rejected(self, tmp_path, capsys):
        argv = ["decay", "--mode", "gamma", "--alpha", "2", "--j-range", f"0:{GAMMA_MAX_LEVEL + 1}"]
        rc, _ = run_cli(argv, tmp_path)
        assert rc == 2
        assert read_error(capsys)["key"] == "j_range"
        assert os.listdir(tmp_path) == []

    def test_tj_mode(self, tmp_path, capsys):
        rc, run_dir = run_cli(
            ["decay", "--mode", "tj", "--alpha", "2", "--N", "64", "--L", "8",
             "--j-range", "0:4", "--trials", "1", "--seed", "3"],
            tmp_path,
        )
        assert rc == 0
        assert "epsilon" in capsys.readouterr().out
        rows = load_rows(os.path.join(run_dir, "decay.csv"))
        assert rows[0] == ["j", "estimate", "witness_f", "witness_g"]
        assert len(rows) == 6
        bump = make_bump()

        def family(j):
            piece = DyadicPiece(j, 2.0)
            return lambda u, v: t_j_apply(u, v, piece, bump)

        fit = decay_fit(family, ExponentPair(1, 1), Grid(1, 64, 8.0), range(5), 1, 3)
        assert [float(r[1]) for r in rows[1:]] == list(fit.norms)
        assert [r[2:] for r in rows[1:]] == [
            [est.witness_id_f, est.witness_id_g] for est in fit.estimates
        ]


class TestRegions:
    def test_query_prints_label_and_threshold(self, tmp_path, capsys):
        rc, run_dir = run_cli(
            ["regions", "--n", "2", "--p1", "4/3", "--p2", "2"], tmp_path
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "I_a, threshold 1/4*n = 1/2" in out
        rows = load_rows(os.path.join(run_dir, "query.csv"))
        assert rows[1][2] == "I_a"

    def test_export_writes_map_files(self, tmp_path):
        rc, run_dir = run_cli(
            ["regions", "--n", "2", "--resolution", "16"], tmp_path
        )
        assert rc == 0
        assert os.path.exists(os.path.join(run_dir, "map.csv"))
        assert os.path.exists(os.path.join(run_dir, "map.svg"))

    def test_export_deterministic(self, tmp_path):
        argv = ["regions", "--n", "2", "--resolution", "16"]
        _, first = run_cli(argv, tmp_path)
        _, second = run_cli(argv, tmp_path)
        for name in ("map.csv", "map.svg"):
            a = open(os.path.join(first, name), "rb").read()
            b = open(os.path.join(second, name), "rb").read()
            assert a == b

    def test_small_resolution_rejected(self, tmp_path, capsys):
        rc, _ = run_cli(["regions", "--resolution", "8"], tmp_path)
        assert rc == 2
        assert read_error(capsys)["key"] == "resolution"


class TestKernel:
    def test_sweep_report(self, tmp_path, capsys):
        rc, run_dir = run_cli(
            ["kernel", "--check", "sweep", "--n", "1", "--alpha", "2",
             "--points", "8", "--rho-max", "20"],
            tmp_path,
        )
        assert rc == 0
        rows = load_rows(os.path.join(run_dir, "kernel.csv"))
        assert rows[0] == ["rho", "closed_form", "quadrature", "abs_diff"]
        assert len(rows) == 9
        assert max(float(r[3]) for r in rows[1:]) < 1e-6

    def test_sweep_order_above_validated_range_rejected(self, tmp_path, capsys):
        # the closed form needs J_{n+alpha}, order 10 here
        rc, _ = run_cli(
            ["kernel", "--check", "sweep", "--n", "1", "--alpha", "9"], tmp_path
        )
        assert rc == 2
        record = read_error(capsys)
        assert record["error"] == "validation"
        assert record["key"] == "alpha"
        assert os.listdir(tmp_path) == []  # the refused run leaves no directory

    def test_refused_run_removes_the_outdir_it_made(self, tmp_path, capsys):
        outdir = tmp_path / "made" / "here"
        rc = main(
            ["kernel", "--check", "sweep", "--n", "1", "--alpha", "9", "--outdir", str(outdir)]
        )
        assert rc == 2
        assert read_error(capsys)["key"] == "alpha"
        assert os.listdir(tmp_path) == []  # tmp_path existed before the run, so it stays

    def test_envelope_dimension_above_validated_range_rejected(self, tmp_path, capsys):
        # the piece kernels need J_{n-1}, order 9 at n = 10
        rc, _ = run_cli(["kernel", "--check", "envelope", "--n", "10"], tmp_path)
        assert rc == 2
        assert read_error(capsys)["key"] == "n"
        assert os.listdir(tmp_path) == []

    def test_envelope_at_largest_validated_dimension(self, tmp_path):
        rc, run_dir = run_cli(
            ["kernel", "--check", "envelope", "--n", "9", "--j-range", "0:1"], tmp_path
        )
        assert rc == 0
        assert len(load_rows(os.path.join(run_dir, "envelope.csv"))) == 3

    def test_dilation_residuals(self, tmp_path):
        rc, run_dir = run_cli(
            ["kernel", "--check", "dilation", "--R", "2", "--n", "1",
             "--alpha", "2", "--points", "5", "--rho-max", "10"],
            tmp_path,
        )
        assert rc == 0
        rows = load_rows(os.path.join(run_dir, "dilation.csv"))
        assert all(float(r[1]) < 1e-6 for r in rows[1:])

    @pytest.mark.parametrize(
        "flags,key",
        [
            (["--check", "sweep", "--rho-max", "1e6"], "rho_max"),
            (["--check", "dilation", "--R", "1000"], "R"),
        ],
        ids=["sweep", "dilation"],
    )
    def test_refuses_samples_past_the_node_cap(self, flags, key, tmp_path, capsys):
        rc, _ = run_cli(["kernel", *flags, "--points", "2"], tmp_path)
        assert rc == 2
        assert read_error(capsys)["key"] == key
        assert os.listdir(tmp_path) == []

    def test_sweep_past_the_oscillation_budget_runs_and_warns(self, tmp_path):
        with pytest.warns(AccuracyWarning, match="oscillation budget"):
            rc, run_dir = run_cli(
                ["kernel", "--check", "sweep", "--rho-max", "60", "--points", "2"], tmp_path
            )
        assert rc == 0
        assert len(load_rows(os.path.join(run_dir, "kernel.csv"))) == 3

    def test_envelope_report(self, tmp_path, capsys):
        rc, run_dir = run_cli(
            ["kernel", "--check", "envelope", "--alpha", "2", "--M", "2"],
            tmp_path,
        )
        assert rc == 0
        assert "flagged False" in capsys.readouterr().out
        rows = load_rows(os.path.join(run_dir, "envelope.csv"))
        assert rows[0] == ["j", "constant"]
        assert len(rows) == 8


class TestNorms:
    def test_lemma1_experiment(self, tmp_path, capsys):
        rc, run_dir = run_cli(
            ["norms", "--experiment", "lemma1", "--p", "2", "--widths", "1,2",
             "--seed", "5"],
            tmp_path,
        )
        assert rc == 0
        assert "fitted exponent" in capsys.readouterr().out
        rows = load_rows(os.path.join(run_dir, "scaling.csv"))
        assert rows[0] == ["w", "estimate", "witness"]
        assert len(rows) == 3

    def test_corollary_experiment(self, tmp_path):
        rc, run_dir = run_cli(
            ["norms", "--experiment", "corollary", "--alpha", "1.5",
             "--N", "64", "--trials", "1", "--seed", "5"],
            tmp_path,
        )
        assert rc == 0
        with open(os.path.join(run_dir, "estimate.json")) as handle:
            payload = json.load(handle)
        assert payload["value"] > 0
        assert os.path.exists(os.path.join(run_dir, "estimate.witness_f.csv"))
        est = corollary_experiment(1.5, Grid(1, 64, 8.0), 1, 5)
        assert payload["value"] == est.value
        assert payload["grid"] == {"n": 1, "N": 64, "L": 8.0}
        # the witnesses it names reload to the estimate's own fields
        for name, witness in ((payload["witness_f"], est.witness_f),
                              (payload["witness_g"], est.witness_g)):
            back = field_from_csv(os.path.join(run_dir, name), 8.0)
            assert np.array_equal(back.values, witness.values)

    def test_corollary_on_a_box_of_side_four(self, tmp_path, capsys):
        # L/4 = 1: the finite catalog drops its unit ball instead of refusing
        rc, run_dir = run_cli(
            ["norms", "--experiment", "corollary", "--alpha", "2", "--n", "2",
             "--N", "16", "--L", "4", "--seed", "1"],
            tmp_path,
        )
        assert rc == 0, capsys.readouterr().err
        with open(os.path.join(run_dir, "estimate.json")) as handle:
            assert json.load(handle)["value"] > 0

    def test_unknown_experiment(self, tmp_path, capsys):
        rc, _ = run_cli(
            ["norms", "--experiment", "warp", "--seed", "1"], tmp_path
        )
        assert rc == 2
        assert read_error(capsys)["key"] == "experiment"


class TestBesselCheck:
    def test_dual_route_table(self, tmp_path):
        rc, run_dir = run_cli(["bessel-check", "--points", "10"], tmp_path)
        assert rc == 0
        rows = load_rows(os.path.join(run_dir, "bessel.csv"))
        assert rows[0] == ["order", "r", "series_route", "quadrature_route", "abs_diff"]
        assert len(rows) == 1 + 6 * 10
        assert max(float(r[4]) for r in rows[1:]) < 1e-9

    def test_bad_order_rejected(self, tmp_path, capsys):
        rc, _ = run_cli(["bessel-check", "--orders", "0.25"], tmp_path)
        assert rc == 2
        assert read_error(capsys)["key"] == "orders"

    def test_infinite_order_rejected(self, tmp_path, capsys):
        rc, _ = run_cli(["bessel-check", "--orders", "inf"], tmp_path)
        assert rc == 2
        assert read_error(capsys)["key"] == "orders"

    def test_order_above_validated_range_rejected(self, tmp_path, capsys):
        rc, _ = run_cli(["bessel-check", "--orders", "10"], tmp_path)
        assert rc == 2
        record = read_error(capsys)
        assert record["error"] == "validation"
        assert record["key"] == "orders"

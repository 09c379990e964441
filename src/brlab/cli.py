"""Command-line front end for the experiment suite.

Every run gets its own output directory (command + UTC timestamp + seed)
under --outdir, the BRLAB_OUTPUT_ROOT environment variable, or the current
directory, and always writes a manifest.json with the fully resolved
configuration, tool version, and wall-clock runtime.  CSV outputs are
byte-deterministic for a fixed configuration and seed.  All failures print
a single-line JSON error record to stderr and exit nonzero: 2 validation,
3 budget, 4 I/O; a run that fails before writing anything removes every
directory it created.

argparse is the one place a flag is read: every given flag is converted and
checked as it is parsed, whichever mode reads it, and its refusal is keyed
by that flag.  A refusal raised inside the library is keyed by the first
parsed flag its message prints as ``got <name>=``, else by ``config``; the
key ``argv`` is left for unknown flags and commands.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .bessel import MAX_VALIDATED_ORDER, bessel_j, bessel_j_oracle
from .decomposition import (
    DyadicPiece,
    br_apply_separable,
    gamma_decay_check,
    make_bump,
    t_j_apply,
)
from .grid import ExponentPair, Grid, field_to_csv, lp_norm, make_test_field, write_rows
from .kernel import (
    MAX_CYCLES,
    NODE_CAP,
    KernelPoint,
    check_closed_form,
    dilation_check,
    envelope_fit,
    kernel_quadrature,
    kernel_radial,
)
from .norms import corollary_experiment, decay_fit, lemma1_scaling_experiment
from .operators import (
    DEFAULT_BUDGET,
    BudgetError,
    MultiplierSpec,
    br_apply_kernel,
    br_apply_oracle,
    br_apply_radial,
)
from .regions import MAP_HEADER, region_grid_export, smoothness_index

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_IO = 4

OUTPUT_ROOT_ENV = "BRLAB_OUTPUT_ROOT"

_RATIONAL_RE = re.compile(r"^\d+(/\d+)?$")
_GOT_NAME_RE = re.compile(r"\bgot (\w+)=")
#: the flag an argparse refusal names
_FLAG_RE = re.compile(r"^argument (-[\w-]+):|required: (-[\w-]+)")


class CliError(Exception):
    """Validation failure carrying the offending configuration key."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


class _Parser(argparse.ArgumentParser):
    # argparse must not print usage and exit; errors become JSON records
    # keyed by the flag they name
    def error(self, message):
        match = _FLAG_RE.search(message)
        action = match and self._option_string_actions.get(match.group(1) or match.group(2))
        raise CliError(action.dest if action else "argv", message)


def _emit_error(kind: str, key: str, message: str) -> None:
    record = {"error": kind, "key": key, "message": message}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def _fraction(text: str) -> Fraction | float:
    """An exact 'a/b' string as a Fraction, or 'inf' as math.inf."""
    cleaned = text.strip().lower()
    if cleaned in ("inf", "infinity", "oo"):
        return math.inf
    if _RATIONAL_RE.match(cleaned):
        try:
            return Fraction(cleaned)
        except ZeroDivisionError:
            pass
    raise argparse.ArgumentTypeError(
        f"must be a rational 'a/b' with b > 0, or 'inf', got {text!r}"
        " (floats are rejected)"
    )


def _exponent(text: str) -> Fraction | float:
    """Lebesgue exponent flag: a rational in [1, inf]."""
    value = _fraction(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must lie in [1, inf], got {text!r}")
    return value


def _orders(text: str) -> list[float]:
    """Comma-separated Bessel orders, each a rational at most the validated maximum."""
    orders = [_fraction(token) for token in text.split(",") if token.strip()]
    if not orders:
        raise argparse.ArgumentTypeError("must name at least one Bessel order")
    for order in orders:
        if order > MAX_VALIDATED_ORDER:
            raise argparse.ArgumentTypeError(
                f"Bessel order {order} > {MAX_VALIDATED_ORDER:g}, the validated maximum"
            )
    return [float(order) for order in orders]


def _number(text: str) -> float:
    """Non-exponent numeric flag: rational string or finite decimal."""
    try:
        value = float(Fraction(text.strip()))
    except OverflowError:
        value = math.inf
    except (ValueError, ZeroDivisionError):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be numeric, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive(text: str) -> float:
    value = _number(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _numbers(text: str) -> list[float]:
    values = [_number(token) for token in text.split(",") if token.strip()]
    if not values:
        raise argparse.ArgumentTypeError("must name at least one number")
    return values


def _at_least(low: int):
    """Integer flag with a lower bound."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return convert


def _int_range(text: str) -> list[int]:
    """Inclusive range of levels written as 'lo:hi', with 0 <= lo <= hi."""
    parts = text.split(":")
    try:
        if len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"must look like 'lo:hi', got {text!r}") from None
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"must satisfy 0 <= lo <= hi, got {text!r}")
    return list(range(lo, hi + 1))


def _paths(text: str) -> list[str]:
    known = ("oracle", "radial", "kernel", "separable")
    paths = [p.strip() for p in text.split(",") if p.strip()]
    if not paths:
        raise argparse.ArgumentTypeError("must name at least one evaluation path")
    for name in paths:
        if name not in known:
            raise argparse.ArgumentTypeError(f"unknown path {name!r}; choose from {known}")
    return paths


def _required(args, key: str, why: str):
    """The parsed value of a flag the chosen mode cannot run without."""
    value = getattr(args, key)
    if value is None:
        raise CliError(key, f"{key} is required {why}")
    return value


def _classify_value_error(err: ValueError, flags) -> CliError:
    """Key of a library refusal: its first ``got <name>=`` that names one of
    ``flags``, else ``config``."""
    message = str(err)
    key = next((name for name in _GOT_NAME_RE.findall(message) if name in flags), "config")
    return CliError(key, message)


def _make_run_dir(args) -> tuple[str, list[str]]:
    """Create the run directory; return it and every directory made, leaf first."""
    root = args.outdir or os.environ.get(OUTPUT_ROOT_ENV) or "."
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    path = os.path.join(root, f"{args.command}-{stamp}-seed{args.run_seed}")
    made = []
    head = path
    while head and not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(path)
    return path, made


def _write_json(path, body: dict) -> None:
    with open(path, "w") as handle:
        json.dump(body, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _rel_l2(a, b) -> float:
    scale = max(lp_norm(a, 2), lp_norm(b, 2))
    if scale == 0:
        return 0.0
    return lp_norm(a - b, 2) / scale


def _grid_from_args(args, ball: bool = False) -> Grid:
    """The flags' grid; ``ball`` refuses one whose lattice misses the unit ball."""
    grid = Grid(args.n, args.N, args.L)
    if ball and grid.L > grid.N / 2:
        raise CliError(
            "L",
            f"L={grid.L:g}: the frequency lattice ends at N/(2L) = {grid.N / (2 * grid.L):g} < 1,"
            f" inside the multiplier's unit ball; use L <= N/2 = {grid.N // 2}",
        )
    return grid


def _cmd_evaluate(args, run_dir: str) -> dict:
    alpha = _required(args, "alpha", "to evaluate the means")
    grid = _grid_from_args(args, ball=True)
    paths = args.paths
    # refuse before any output is written
    if "kernel" in paths:
        check_closed_form(alpha, args.n)
    seed = args.run_seed
    spec = MultiplierSpec(alpha=alpha)
    bump = make_bump()
    f = make_test_field("gaussian", {"width": 1.0}, grid, seed=seed)
    g = make_test_field(
        "gaussian", {"width": 1.5, "center": (grid.L * 0.6,) * grid.n}, grid, seed=seed
    )

    outputs = {}
    for name in paths:
        if name == "oracle":
            outputs[name] = br_apply_oracle(f, g, spec, budget=args.budget)
        elif name == "radial":
            outputs[name] = br_apply_radial(f, g, spec, args.nodes, args.budget)
        elif name == "kernel":
            outputs[name] = br_apply_kernel(f, g, spec, budget=args.budget)
        else:
            piece = DyadicPiece(args.j, alpha)
            outputs["separable"] = br_apply_separable(f, g, piece, args.K, bump)
            outputs["tj_direct"] = t_j_apply(f, g, piece, bump, budget=args.budget)
    field_to_csv(f, os.path.join(run_dir, "input_f.csv"))
    field_to_csv(g, os.path.join(run_dir, "input_g.csv"))
    for name, out in outputs.items():
        field_to_csv(out, os.path.join(run_dir, f"field_{name}.csv"))

    # agreement pairs: full-multiplier paths against each other, and the
    # separable piece path against its direct counterpart
    full = [n for n in ("oracle", "radial", "kernel") if n in outputs]
    pairs = [(full[i], full[k]) for i in range(len(full)) for k in range(i + 1, len(full))]
    if "separable" in outputs:
        pairs.append(("separable", "tj_direct"))
    rows = []
    for a, b in pairs:
        err = _rel_l2(outputs[a], outputs[b])
        rows.append([a, b, err])
        print(f"agreement {a} vs {b}: relative l2 error {err:.6e}")
    header = ["path_a", "path_b", "rel_l2_error"]
    write_rows(os.path.join(run_dir, "agreement.csv"), header, rows)
    if not pairs:
        print("single path requested; no agreement rows")
    return {
        "n": grid.n,
        "N": grid.N,
        "L": grid.L,
        "alpha": alpha,
        "paths": paths,
        "nodes": args.nodes,
        "K": args.K,
        "j": args.j,
        "budget": args.budget,
        "seed": seed,
    }


def _cmd_decay(args, run_dir: str) -> dict:
    alpha = _required(args, "alpha", "for the decay experiments")
    bump = make_bump()
    j_range = args.j_range
    if args.mode == "gamma":
        report = gamma_decay_check(alpha, args.delta, j_range, range(args.k_max + 1), bump)
        sup, normalized = report.sup_table.tolist(), report.normalized.tolist()
        rows = (
            [j, k, sup[i][c], normalized[i][c]]
            for i, j in enumerate(report.levels)
            for c, k in enumerate(report.k_values)
        )
        header = ["j", "k", "sup_gamma", "normalized"]
        write_rows(os.path.join(run_dir, "gamma.csv"), header, rows)
        print(
            f"gamma decay: constant {report.constant:.6g},"
            f" per-level growth ratio {report.growth_ratio:.4f},"
            f" flagged {report.flagged}"
        )
        return {
            "mode": "gamma",
            "alpha": alpha,
            "delta": args.delta,
            "j_range": j_range,
            "k_max": args.k_max,
            "seed": args.run_seed,
        }
    if len(j_range) < 4:
        raise CliError("j_range", "decay fit needs at least 4 levels in j_range")
    seed = _required(args, "seed", "for randomized experiments")
    grid = _grid_from_args(args, ball=True)
    exponents = ExponentPair(args.p1, args.p2)
    budget = args.budget

    def op_family(j: int):
        piece = DyadicPiece(int(j), alpha)
        return lambda u, v: t_j_apply(u, v, piece, bump, budget=budget)

    fit = decay_fit(op_family, exponents, grid, j_range, args.trials, seed)
    rows = (
        [j, est.value, est.witness_id_f, est.witness_id_g]
        for j, est in zip(fit.js, fit.estimates)
    )
    header = ["j", "estimate", "witness_f", "witness_g"]
    write_rows(os.path.join(run_dir, "decay.csv"), header, rows)
    print(
        f"decay fit: epsilon {fit.epsilon:.4f}, residual {fit.residual:.4f},"
        f" degenerate {fit.degenerate}"
    )
    return {
        "mode": "tj",
        "n": grid.n,
        "N": grid.N,
        "L": grid.L,
        "alpha": alpha,
        "p1": str(exponents.p1),
        "p2": str(exponents.p2),
        "j_range": j_range,
        "trials": args.trials,
        "budget": budget,
        "seed": seed,
    }


def _cmd_regions(args, run_dir: str) -> dict:
    n = args.n
    config = {"n": n, "seed": args.run_seed}
    if args.p1 is not None or args.p2 is not None:
        why = "for a single-point query"
        pair = ExponentPair(_required(args, "p1", why), _required(args, "p2", why))
        result = smoothness_index(pair, n)
        print(f"{result.region}, threshold {result.chosen_form} = {result.threshold}")
        write_rows(os.path.join(run_dir, "query.csv"), MAP_HEADER, [result.map_row()])
        config.update({"mode": "query", "p1": str(pair.p1), "p2": str(pair.p2)})
        return config
    csv_path = os.path.join(run_dir, "map.csv")
    svg_path = os.path.join(run_dir, "map.svg")
    region_grid_export(n, args.resolution, csv_path, svg_path)
    print(f"region map written: {csv_path} and {svg_path}")
    config.update({"mode": "export", "resolution": args.resolution})
    return config


def _kernel_points(rhos, n: int) -> list[KernelPoint]:
    points = []
    for rho in rhos:
        coord = (float(rho) / math.sqrt(2.0),) + (0.0,) * (n - 1)
        points.append(KernelPoint(coord, coord))
    return points


def _refuse_past_node_cap(cycles: float, key: str) -> None:
    """Refuse a sample whose quadrature would want more than NODE_CAP nodes."""
    if cycles > MAX_CYCLES:
        raise CliError(
            key,
            f"{key}: the largest sample needs {cycles:g} oscillation cycles (radius * rho),"
            f" more than the {MAX_CYCLES:.0f} that {NODE_CAP} quadrature nodes resolve",
        )


def _cmd_kernel(args, run_dir: str) -> dict:
    n = args.n
    # the piece kernels need J_{n-1}, the closed form J_{n+alpha} with alpha >= 0
    order = n - 1 if args.check == "envelope" else n
    if order > MAX_VALIDATED_ORDER:
        raise CliError(
            "n",
            f"the {args.check} check in dimension n={n} needs Bessel order at least"
            f" {order}, above {MAX_VALIDATED_ORDER:g}, the validated maximum",
        )
    alpha = args.alpha
    config = {"check": args.check, "n": n, "alpha": alpha, "seed": args.run_seed}
    if args.check in ("sweep", "dilation"):
        points, rho_max = args.points, args.rho_max
        rhos = [rho_max * (i + 1) / points for i in range(points)]
        top = _kernel_points(rhos[-1:], n)[0].rho
        if not math.isfinite(top):
            raise CliError("rho_max", f"rho_max={rho_max:g} overflows the sample radii")
        config.update({"points": points, "rho_max": rho_max})
        check_closed_form(alpha, n)
    if args.check == "sweep":
        _refuse_past_node_cap(top, "rho_max")
        closed = kernel_radial(np.asarray(rhos), alpha, n)
        quads = [kernel_quadrature(pt, alpha, n) for pt in _kernel_points(rhos, n)]
        rows = [[rho, c, q, abs(float(c) - q)] for rho, c, q in zip(rhos, closed, quads)]
        header = ["rho", "closed_form", "quadrature", "abs_diff"]
        write_rows(os.path.join(run_dir, "kernel.csv"), header, rows)
        worst = max(row[3] for row in rows)
        print(f"kernel sweep: max closed-vs-quadrature discrepancy {worst:.6e}")
        return config
    if args.check == "dilation":
        R = _required(args, "R", "for the dilation check")
        if not 2 * n * math.log(R * max(rhos[-1], 1.0)) < math.log(sys.float_info.max):
            raise CliError("R", f"R={R:g} overflows the dilated kernel")
        _refuse_past_node_cap(R * top, "R")
        rows = [[pt.rho, dilation_check(pt, alpha, n, R)] for pt in _kernel_points(rhos, n)]
        write_rows(os.path.join(run_dir, "dilation.csv"), ["rho", "residual"], rows)
        print(f"dilation check R={R:g}: max residual {max(row[1] for row in rows):.6e}")
        config.update({"R": R})
        return config
    j_range, M = args.j_range, args.M
    radii = [0.0, 0.7, 2.1, 3.5, 7.0, 14.0, 28.0]
    points = [
        KernelPoint((a,) + (0.0,) * (n - 1), (b,) + (0.0,) * (n - 1))
        for a in radii
        for b in radii
    ]
    pieces = [DyadicPiece(j, alpha) for j in j_range]
    top = pieces[-1].j
    if not (2.0 ** -float(top)) ** (alpha + 1.0) > 0:
        raise CliError(
            "j_range",
            f"level j={top} underflows the envelope scale 2^(-j (alpha + 1)) at alpha={alpha:g}",
        )
    try:
        report = envelope_fit(pieces, n, M, points, make_bump())
    except ValueError as err:  # every scale is positive, so a smaller M lifts the envelope
        raise CliError("M", str(err)) from None
    rows = zip(report.levels, report.constants)
    write_rows(os.path.join(run_dir, "envelope.csv"), ["j", "constant"], rows)
    print(
        f"envelope fit M={M:g}: log10 slope {report.slope:.4f},"
        f" flagged {report.flagged}"
    )
    config.update({"M": M, "j_range": j_range})
    return config


def _cmd_norms(args, run_dir: str) -> dict:
    seed = _required(args, "seed", "for randomized experiments")
    grid = _grid_from_args(args, ball=args.experiment == "corollary")
    if args.experiment == "lemma1":
        p = _required(args, "p", "for the scaling experiment")
        report = lemma1_scaling_experiment(p, args.b, args.widths, grid, seed)
        rows = zip(report.widths, report.estimates, report.witness_ids)
        write_rows(os.path.join(run_dir, "scaling.csv"), ["w", "estimate", "witness"], rows)
        fitted = (
            "none" if report.fitted_exponent is None else f"{report.fitted_exponent:.4f}"
        )
        print(
            f"scaling experiment p={p}: fitted exponent {fitted},"
            f" target {report.target_exponent:.4f}"
        )
        return {
            "experiment": "lemma1",
            "p": str(p),
            "b": args.b,
            "widths": args.widths,
            "n": grid.n,
            "N": grid.N,
            "L": grid.L,
            "seed": seed,
        }
    alpha = _required(args, "alpha", "for the corollary experiment")
    estimate = corollary_experiment(alpha, grid, args.trials, seed)
    # the witnesses are saved beside the estimate, so its ratio can be recomputed
    witness_f, witness_g = "estimate.witness_f.csv", "estimate.witness_g.csv"
    field_to_csv(estimate.witness_f, os.path.join(run_dir, witness_f))
    field_to_csv(estimate.witness_g, os.path.join(run_dir, witness_g))
    _write_json(
        os.path.join(run_dir, "estimate.json"),
        {
            "value": estimate.value,
            "exponents": str(estimate.exponents),
            "trials": estimate.trials,
            "seed": estimate.seed,
            "witness_id_f": estimate.witness_id_f,
            "witness_id_g": estimate.witness_id_g,
            "witness_f": witness_f,
            "witness_g": witness_g,
            "grid": {"n": grid.n, "N": grid.N, "L": grid.L},
        },
    )
    print(f"corollary estimate: lower bound {estimate.value:.6g}")
    return {
        "experiment": "corollary",
        "alpha": alpha,
        "trials": args.trials,
        "n": grid.n,
        "N": grid.N,
        "L": grid.L,
        "seed": seed,
    }


def _cmd_bessel_check(args, run_dir: str) -> dict:
    r_min, r_max = args.r_min, args.r_max
    if not 0 < r_min < r_max:
        raise CliError("r_min", f"need 0 < r_min < r_max, got [{r_min}, {r_max}]")
    radii = np.geomspace(r_min, r_max, args.points)
    rows = []
    for k in args.orders:
        series = bessel_j(k, radii)
        oracle = bessel_j_oracle(k, radii)
        for r, a, b in zip(radii, np.atleast_1d(series), np.atleast_1d(oracle)):
            rows.append([k, r, a, b, abs(float(a) - float(b))])
    header = ["order", "r", "series_route", "quadrature_route", "abs_diff"]
    write_rows(os.path.join(run_dir, "bessel.csv"), header, rows)
    print(f"bessel dual-route check: max |difference| {max(row[4] for row in rows):.3e}")
    return {
        "orders": args.orders,
        "points": args.points,
        "r_min": r_min,
        "r_max": r_max,
        "seed": args.run_seed,
    }


def _build_parser() -> _Parser:
    # argparse applies ``type`` to string defaults, so converted flags keep them
    parser = _Parser(prog="brlab", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    count = _at_least(1)

    def common(p):
        p.add_argument("--outdir", default=None)
        p.add_argument("--seed", type=_at_least(0), default=None)

    p = sub.add_parser("evaluate", help="run bilinear paths and compare them")
    common(p)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--N", type=int, default=256)
    p.add_argument("--L", type=_number, default="16")
    p.add_argument("--alpha", type=_number, default=None)
    p.add_argument("--paths", type=_paths, default="oracle,radial")
    p.add_argument("--nodes", type=count, default=None)
    p.add_argument("--K", type=count, default=256)
    p.add_argument("--j", type=int, default=2)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("decay", help="piece-norm decay or coefficient decay")
    common(p)
    p.add_argument("--mode", choices=("tj", "gamma"), default="tj")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--N", type=int, default=256)
    p.add_argument("--L", type=_number, default="32")
    p.add_argument("--alpha", type=_number, default=None)
    p.add_argument("--delta", type=_number, default="0.5")
    p.add_argument("--p1", type=_exponent, default="1")
    p.add_argument("--p2", type=_exponent, default="1")
    p.add_argument("--j-range", dest="j_range", type=_int_range, default="0:8")
    p.add_argument("--k-max", dest="k_max", type=_at_least(0), default=64)
    p.add_argument("--trials", type=int, default=2)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("regions", help="region map export or single query")
    common(p)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--p1", type=_exponent, default=None)
    p.add_argument("--p2", type=_exponent, default=None)

    p = sub.add_parser("kernel", help="kernel sweeps and identities")
    common(p)
    p.add_argument("--check", choices=("sweep", "dilation", "envelope"), default="sweep")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--alpha", type=_number, default="2")
    p.add_argument("--rho-max", dest="rho_max", type=_positive, default="50")
    p.add_argument("--points", type=count, default=20)
    p.add_argument("--R", type=_positive, default=None)
    p.add_argument("--M", type=_positive, default="2")
    p.add_argument("--j-range", dest="j_range", type=_int_range, default="0:6")

    p = sub.add_parser("norms", help="norm lower-bound experiments")
    common(p)
    p.add_argument("--experiment", choices=("lemma1", "corollary"), default="lemma1")
    p.add_argument("--p", type=_exponent, default=None)
    p.add_argument("--b", type=_number, default="8")
    p.add_argument("--widths", type=_numbers, default="1/2,1,2,4")
    p.add_argument("--alpha", type=_number, default=None)
    p.add_argument("--trials", type=int, default=2)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--N", type=int, default=256)
    p.add_argument("--L", type=_number, default="8")

    p = sub.add_parser("bessel-check", help="dual-route Bessel comparison")
    common(p)
    p.add_argument("--orders", type=_orders, default="0,1/2,1,3/2,2,5/2")
    p.add_argument("--points", type=count, default=40)
    p.add_argument("--r-min", dest="r_min", type=_number, default="0.01")
    p.add_argument("--r-max", dest="r_max", type=_number, default="200")

    return parser


_HANDLERS = {
    "evaluate": _cmd_evaluate,
    "decay": _cmd_decay,
    "regions": _cmd_regions,
    "kernel": _cmd_kernel,
    "norms": _cmd_norms,
    "bessel-check": _cmd_bessel_check,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise CliError("command", "a subcommand is required")
        args.run_seed = 0 if args.seed is None else args.seed
        started = time.perf_counter()
        try:
            run_dir, made = _make_run_dir(args)
        except OSError as err:
            _emit_error("io", "outdir", str(err))
            return EXIT_IO
        try:
            config = _HANDLERS[args.command](args, run_dir)
        except Exception:
            # a refused run removes the directories it made while they are empty
            for path in made:
                try:
                    os.rmdir(path)
                except OSError:
                    break
            raise
        runtime = time.perf_counter() - started
        outputs = sorted(name for name in os.listdir(run_dir) if name != "manifest.json")
        manifest = {
            "command": args.command,
            "version": __version__,
            "config": config,
            "outputs": outputs,
            "runtime_seconds": runtime,
        }
        _write_json(os.path.join(run_dir, "manifest.json"), manifest)
        print(f"run directory: {run_dir}")
        return EXIT_OK
    except CliError as err:
        _emit_error("validation", err.key, str(err))
        return EXIT_VALIDATION
    except BudgetError as err:
        _emit_error("budget", "budget", str(err))
        return EXIT_BUDGET
    except ValueError as err:
        cli_err = _classify_value_error(err, vars(args))
        _emit_error("validation", cli_err.key, str(cli_err))
        return EXIT_VALIDATION
    except OSError as err:
        _emit_error("io", getattr(err, "filename", None) or "path", str(err))
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

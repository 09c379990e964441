"""The benchmark's three workloads: seeded inputs, one timed pass, checks.

Each workload builds its inputs from the seed in ``__init__`` (that is the
set-up the ``setup_s`` metric times), runs one closed-loop pass per
:meth:`run_pass` call, and checks every pass afterwards, outside the timed
region, into a :class:`Ledger`.  Library calls go through module attributes
(``norms.decay_fit``, not a local copy) so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from brlab import bessel, cli, decomposition, grid, kernel, norms, operators
from reference import literal_pair_sum, sum_error


class Ledger:
    """Operations attempted and failed, worst error over tolerance, accuracy numbers."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.err_over_tol = 0.0
        self.accuracy: dict[str, float] = {}

    def op(self, name: str, problems: list[str]) -> None:
        """One operation; it failed if any problem was found."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")

    def within(self, problems: list[str], what: str, value: float, tol: float, strict=True) -> None:
        """Check value < tol (or <= tol), tracking the worst value / tol."""
        ratio = value / tol if math.isfinite(value) else math.inf
        self.err_over_tol = max(self.err_over_tol, ratio)
        if not (ratio < 1.0 if strict else ratio <= 1.0):
            problems.append(f"{what} {value:.3e} misses tolerance {tol:g}")

    def record(self, name: str, value: float) -> None:
        """Accuracy number: the largest value seen over all passes."""
        self.accuracy[name] = max(self.accuracy.get(name, -math.inf), float(value))


@contextlib.contextmanager
def accuracy_warnings():
    """Collect the messages of AccuracyWarnings raised inside the block."""
    found: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield found
    found.extend(str(w.message) for w in caught if issubclass(w.category, bessel.AccuracyWarning))


#: accuracy numbers reported by the traced run, with their units
ACCURACY = {
    "kernel.closed_vs_quad_max": "abs",
    "kernel.dilation_max": "rel",
    "kernel.envelope_slope_n1": "log10/level",
    "kernel.envelope_slope_n2": "log10/level",
    "operators.radial_vs_oracle": "rel",
    "operators.kernel_vs_oracle": "rel",
    "decomposition.separable_vs_tj": "rel",
    "bessel.dual_route_max": "abs",
    "bessel.kernel_orders_dual_route_max": "abs",
}


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v))) for v in values)


# --------------------------------------------------------------------------
# decay_tj_1d


@dataclass
class DecayPass:
    fit: object
    applies: int
    samples: list
    warned: list


class DecayTj1d:
    """``brlab decay --mode tj`` at its defaults, through the library.

    1-D, N=256, L=32, alpha=2, (p1, p2) = (1, 1), levels 0..8, 2 trials;
    the seed goes to the witness search as ``--seed`` does.
    """

    name = "decay_tj_1d"
    ALPHA = 2.0
    LEVELS = range(0, 9)
    TRIALS = 2
    #: every SAMPLE_STRIDE-th apply (seeded offset) is re-checked literally
    SAMPLE_STRIDE = 541
    MOVES = (
        "operators.pair_apply.calls",
        "operators.pair_apply.s",
        "operators.pair_apply.ms_per_call",
        "operators.pair_apply.ns_per_inball_pair",
        "decomposition.weight.calls",
        "decomposition.weight.s",
        "decomposition.bump.calls",
        "decomposition.bump.s",
        "grid.dft.calls",
        "grid.dft.s",
        "grid.lp_norm.calls",
        "grid.lp_norm.s",
        "grid.field.allocs",
        "grid.field.bytes",
        "norms.ratio.calls",
        "norms.ratio.ms_per_call",
        "norms.search.self_s",
        "norms.catalog.s",
    )

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.grid = grid.Grid(1, 256, 32.0)
        self.exponents = grid.ExponentPair(1, 1)
        self.bump = decomposition.make_bump()
        self.sample_offset = int(np.random.default_rng(seed).integers(self.SAMPLE_STRIDE))

    def inputs_digest(self) -> str:
        """Digest of the seeded inputs: both operand slots' witness catalogs."""
        h = hashlib.sha256(str(self.seed).encode())
        for slot_seed in (self.seed, self.seed + 1):
            for item_id, f in norms.witness_catalog(self.grid, False, slot_seed):
                h.update(item_id.encode() + f.values.tobytes())
        return h.hexdigest()

    def _piece_op(self, piece):
        return lambda u, v: decomposition.t_j_apply(
            u, v, piece, self.bump, budget=operators.DEFAULT_BUDGET
        )

    def run_pass(self, index: int, span) -> DecayPass:
        applies, samples = [0], []

        def family(j):
            piece = decomposition.DyadicPiece(int(j), self.ALPHA)
            apply = self._piece_op(piece)

            def op(u, v):
                out = apply(u, v)
                if applies[0] % self.SAMPLE_STRIDE == self.sample_offset:
                    samples.append((piece, u, v, out))
                applies[0] += 1
                return out

            return op

        with accuracy_warnings() as warned:
            fit = norms.decay_fit(
                family, self.exponents, self.grid, self.LEVELS, self.TRIALS, self.seed
            )
        return DecayPass(fit, applies[0], samples, warned)

    def _literal_error(self, piece, f, g, out) -> float:
        def weight(r_xi, r_eta):
            return decomposition.phi_j_alpha(r_xi, r_eta, piece, self.bump)

        expected, scale = literal_pair_sum(f.values, g.values, self.grid.L, weight)
        return sum_error(out.values, expected, scale)

    def check(self, passes: list[DecayPass], ledger: Ledger) -> None:
        first = passes[0].fit
        for k, p in enumerate(passes):
            fit = p.fit
            for j, est in zip(fit.js, fit.estimates):
                problems = []
                piece = decomposition.DyadicPiece(j, self.ALPHA)
                op = self._piece_op(piece)
                if not (math.isfinite(est.value) and est.value > 0):
                    problems.append(f"estimate {est.value!r} is not a positive number")
                recomputed = norms.recompute_ratio(op, est)
                if recomputed != est.value:
                    problems.append(f"recomputed ratio {recomputed!r} != estimate {est.value!r}")
                out = op(est.witness_f, est.witness_g)
                if not _finite(out.values):
                    problems.append("witness apply is not finite")
                else:
                    error = self._literal_error(piece, est.witness_f, est.witness_g, out)
                    ledger.within(problems, "witness apply vs literal sum", error, 1e-12)
                ledger.op(f"pass{k} level {j}", problems)
            for piece, f, g, out in p.samples:
                problems = []
                error = self._literal_error(piece, f, g, out) if _finite(out.values) else math.inf
                ledger.within(problems, "sampled apply vs literal sum", error, 1e-12)
                ledger.op(f"pass{k} sampled apply (j={piece.j})", problems)
            problems = [f"AccuracyWarning: {m}" for m in p.warned]
            if fit.degenerate:
                problems.append("degenerate fit")
            epsilon_ratio = 0.3 / fit.epsilon if fit.epsilon > 0 else math.inf
            ledger.within(problems, "0.3 / fitted epsilon", epsilon_ratio, 1.0)
            if (fit.norms, p.applies) != (first.norms, passes[0].applies) or [
                (e.witness_id_f, e.witness_id_g) for e in fit.estimates
            ] != [(e.witness_id_f, e.witness_id_g) for e in first.estimates]:
                problems.append("pass differs from the first pass of the same seed")
            ledger.op(f"pass{k} fit", problems)


# --------------------------------------------------------------------------
# kernel_identity


@dataclass
class KernelPass:
    rows: list = field(default_factory=list)
    bessel: list = field(default_factory=list)
    envelopes: dict = field(default_factory=dict)
    warned: list = field(default_factory=list)


class KernelIdentity:
    """Closed-form kernel against its quadrature, the dilation identity,
    the dual-route Bessel values the closed form uses, and the piece-kernel
    envelope fits.

    rho covers [2.5, 50], the acceptance-02 range inside OSCILLATION_BUDGET:
    both ends, plus antithetic pairs u, 1 - u drawn from the seed in each of
    two equal strata.  The largest rho sets the biggest quadrature rule and
    so the peak memory, and pairing u with 1 - u keeps a pass's cost, which
    grows like rho^2, nearly the same for every seed: seeds change the
    inputs without changing the load.
    """

    name = "kernel_identity"
    DIMS = (1, 2)
    ALPHAS = (1.0, 2.0, 5.0)
    RADII = (0.5, 1.0, 2.0, 4.0)
    RHO_RANGE = (2.5, 50.0)
    STRATA = 2
    ENVELOPE_ALPHA = 2.0
    ENVELOPE_M = 2.0
    ENVELOPE_LEVELS = range(0, 7)
    ENVELOPE_RADII = (0.0, 0.7, 2.1, 3.5, 7.0, 14.0, 28.0)
    MOVES = (
        "decomposition.bump.calls",
        "decomposition.bump.s",
        "kernel.quadrature.calls",
        "kernel.quadrature.s",
        "kernel.kj.calls",
        "kernel.kj.s",
        "kernel.closed_form.s",
        "kernel.gauss_rule.calls",
        "kernel.gauss_rule.s",
        "kernel.gauss_rule.nodes",
        "bessel.j.calls",
        "bessel.j.s",
        "bessel.j.points",
        "bessel.sphere_ft.calls",
        "bessel.sphere_ft.s",
        "bessel.oracle.s",
    )

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng(seed)
        lo, hi = self.RHO_RANGE
        width = (hi - lo) / self.STRATA
        u = rng.random(self.STRATA)
        drawn = [lo + width * (i + x) for i in range(self.STRATA) for x in (u[i], 1.0 - u[i])]
        self.rhos = np.sort([lo, hi, *drawn])
        self.points = {
            n: [
                kernel.KernelPoint(c, c)
                for c in ((rho / math.sqrt(2.0),) + (0.0,) * (n - 1) for rho in self.rhos)
            ]
            for n in self.DIMS
        }
        pad = {n: (0.0,) * (n - 1) for n in self.DIMS}
        self.envelope_points = {
            n: [
                kernel.KernelPoint((a,) + pad[n], (b,) + pad[n])
                for a in self.ENVELOPE_RADII
                for b in self.ENVELOPE_RADII
            ]
            for n in self.DIMS
        }
        self.pieces = [decomposition.DyadicPiece(j, self.ENVELOPE_ALPHA) for j in self.ENVELOPE_LEVELS]
        self.bump = decomposition.make_bump()

    def inputs_digest(self) -> str:
        return hashlib.sha256(self.rhos.tobytes()).hexdigest()

    def run_pass(self, index: int, span) -> KernelPass:
        result = KernelPass()
        with accuracy_warnings() as warned:
            for n in self.DIMS:
                for alpha in self.ALPHAS:
                    closed = kernel.kernel_radial(self.rhos, alpha, n)
                    for rho, value, pt in zip(self.rhos, closed, self.points[n]):
                        quad = kernel.kernel_quadrature(pt, alpha, n)
                        residuals = [kernel.dilation_check(pt, alpha, n, R) for R in self.RADII]
                        result.rows.append((n, alpha, float(rho), float(value), quad, residuals))
                    # the Bessel values behind the closed form, inside the oracle's budget
                    z = 2.0 * math.pi * self.rhos
                    z = z[z <= bessel.ORACLE_BUDGET]
                    series = bessel.bessel_j(n + alpha, z)
                    oracle = bessel.bessel_j_oracle(n + alpha, z)
                    result.bessel.append((n, alpha, series, oracle))
            for n in self.DIMS:
                result.envelopes[n] = kernel.envelope_fit(
                    self.pieces, n, self.ENVELOPE_M, self.envelope_points[n], self.bump
                )
        result.warned = warned
        return result

    def check(self, passes: list[KernelPass], ledger: Ledger) -> None:
        for k, p in enumerate(passes):
            for n, alpha, rho, closed, quad, residuals in p.rows:
                problems = []
                if not _finite(closed, quad, residuals):
                    problems.append("non-finite kernel value")
                diff = abs(quad - closed)
                ledger.within(problems, "closed vs quadrature", diff, 1e-6)
                ledger.within(problems, "dilation residual", max(residuals), 1e-6)
                ledger.record("kernel.closed_vs_quad_max", diff)
                ledger.record("kernel.dilation_max", max(residuals))
                ledger.op(f"pass{k} kernel n={n} alpha={alpha:g} rho={rho:.4f}", problems)
            for n, alpha, series, oracle in p.bessel:
                # reported, not gated: acceptance test 01 states 1e-9 for orders
                # up to 5/2 only, and at orders 6 and 7 the two routes part by
                # up to ~2e-5 near the oracle's budget (ROADMAP, Bessel item)
                diff = float(np.max(np.abs(series - oracle))) if series.size else 0.0
                ledger.record("bessel.kernel_orders_dual_route_max", diff)
                ledger.op(f"pass{k} bessel order {n + alpha:g}", [] if _finite(diff) else ["non-finite"])
            for n, report in p.envelopes.items():
                problems = [] if _finite(report.constants, report.slope) else ["non-finite envelope"]
                if n == 1:
                    # acceptance test 10; the n = 2 slope has no stated tolerance
                    ledger.within(problems, "envelope slope", max(report.slope, 0.0), 0.1, strict=False)
                ledger.record(f"kernel.envelope_slope_n{n}", report.slope)
                ledger.op(f"pass{k} envelope n={n}", problems)
            ledger.op(f"pass{k} warnings", [f"AccuracyWarning: {m}" for m in p.warned])


# --------------------------------------------------------------------------
# cli_oneshot

#: (entry, argv) for one pass; --seed and --outdir are appended per pass
CLI_ENTRIES = (
    ("evaluate_1d", ["evaluate", "--alpha", "2"]),
    (
        "evaluate_2d",
        ["evaluate", "--n", "2", "--N", "64", "--L", "8", "--alpha", "2",
         "--paths", "oracle,radial,kernel,separable"],
    ),
    ("decay_gamma", ["decay", "--mode", "gamma", "--alpha", "2"]),
    ("kernel_sweep", ["kernel", "--check", "sweep"]),
    ("kernel_dilation", ["kernel", "--check", "dilation", "--R", "2"]),
    ("norms_lemma1", ["norms", "--experiment", "lemma1", "--p", "1"]),
    ("norms_corollary", ["norms", "--experiment", "corollary", "--alpha", "3/2"]),
    ("regions_export", ["regions"]),
    ("regions_query", ["regions", "--p1", "1", "--p2", "2"]),
    ("bessel_check", ["bessel-check"]),
)

#: acceptance test 09: exact thresholds at n = 2, keyed by (1/p1, 1/p2)
EXACT_THRESHOLDS = {
    ("1", "1"): Fraction(3, 2),
    ("1", "1/2"): Fraction(1),
    ("1/2", "1/2"): Fraction(0),
    ("1", "0"): Fraction(1),
}


@dataclass
class CliEntryRun:
    code: int
    run_dir: Path | None
    warned: list
    stderr: str


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _form_value(form: str, n: int) -> Fraction:
    """Evaluate an exact threshold form 'c_n*n + c_0' at n."""
    if "*n" in form:
        head, tail = form.split("*n", 1)
        tail = tail.replace(" ", "")
        return Fraction(head) * n + (Fraction(tail) if tail else 0)
    return Fraction(form)


def _log2_slope(x, y) -> float:
    return float(np.polyfit(np.asarray(x, float), np.log2(np.asarray(y, float)), 1)[0])


class CliOneshot:
    """One pass of ``brlab.cli.main`` over every other CLI experiment."""

    name = "cli_oneshot"
    MOVES = (
        "operators.radial.calls",
        "operators.radial.s",
        "operators.kernel_path.s",
        "operators.band.calls",
        "operators.band.s",
        "decomposition.separable.s",
        "decomposition.gamma.s",
        "grid.fft.calls",
        "grid.fft.s",
        "grid.csv.s",
        "grid.csv.bytes",
        "bessel.oracle.s",
        "regions.index.calls",
        "regions.index.s",
        "regions.export.s",
        *(f"cli.{entry}.s" for entry, _ in CLI_ENTRIES),
        "cli.io.s",
        "cli.io.bytes",
        "cli.self_s",
    )

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.argv = {entry: argv + ["--seed", str(seed)] for entry, argv in CLI_ENTRIES}

    def inputs_digest(self) -> str:
        return hashlib.sha256(json.dumps(self.argv, sort_keys=True).encode()).hexdigest()

    def run_pass(self, index: int, span) -> dict:
        runs = {}
        for entry, argv in self.argv.items():
            outdir = self.scratch / f"pass{index}" / entry
            outdir.mkdir(parents=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with accuracy_warnings() as warned, span(f"cli.{entry}"):
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv + ["--outdir", str(outdir)])
            made = sorted(outdir.iterdir())
            runs[entry] = CliEntryRun(code, made[0] if len(made) == 1 else None, warned, stderr.getvalue())
        return runs

    def traced_counters(self, result: dict) -> dict:
        """Counters the tracer cannot see: bytes a traced pass wrote."""
        total = sum(
            path.stat().st_size
            for run in result.values()
            if run.run_dir is not None
            for path in run.run_dir.iterdir()
        )
        return {"cli.io.bytes": total}

    @staticmethod
    def _csv_digest(run_dir: Path) -> dict:
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(run_dir.glob("*.csv"))
        }

    def check(self, passes: list[dict], ledger: Ledger) -> None:
        first_digest = {}
        for k, runs in enumerate(passes):
            for entry, run in runs.items():
                problems = [f"AccuracyWarning: {m}" for m in run.warned]
                if run.code != 0 or run.run_dir is None:
                    problems.append(f"exit code {run.code}: {run.stderr.strip()}")
                else:
                    try:
                        getattr(self, f"_check_{entry}")(run.run_dir, ledger, problems)
                    except (OSError, ValueError, KeyError, ZeroDivisionError) as err:
                        problems.append(f"unreadable output: {err!r}")
                    digest = self._csv_digest(run.run_dir)
                    if first_digest.setdefault(entry, digest) != digest:
                        problems.append("CSV bytes differ from the first pass of the same seed")
                ledger.op(f"pass{k} {entry}", problems)

    def _check_agreement(self, run_dir: Path, ledger: Ledger, problems: list) -> None:
        for row in _rows(run_dir / "agreement.csv"):
            pair = {row["path_a"], row["path_b"]}
            err = float(row["rel_l2_error"])
            if pair == {"oracle", "radial"}:
                ledger.within(problems, "radial vs oracle", err, 1e-3)
                ledger.record("operators.radial_vs_oracle", err)
            elif "kernel" in pair:
                ledger.within(problems, f"{'-'.join(sorted(pair))}", err, 5e-2)
                if "oracle" in pair:
                    ledger.record("operators.kernel_vs_oracle", err)
            elif pair == {"separable", "tj_direct"}:
                ledger.within(problems, "separable vs t_j", err, 1e-4)
                ledger.record("decomposition.separable_vs_tj", err)
        for path in run_dir.glob("*field_*.csv"):
            values = [float(row["re"]) + float(row["im"]) for row in _rows(path)]
            if not _finite(values):
                problems.append(f"non-finite values in {path.name}")

    _check_evaluate_1d = _check_agreement
    _check_evaluate_2d = _check_agreement

    def _check_decay_gamma(self, run_dir: Path, ledger: Ledger, problems: list) -> None:
        per_level: dict[int, float] = {}
        for row in _rows(run_dir / "gamma.csv"):
            value = float(row["normalized"])
            if not (math.isfinite(value) and math.isfinite(float(row["sup_gamma"]))):
                problems.append("non-finite gamma coefficient")
            per_level[int(row["j"])] = max(per_level.get(int(row["j"]), 0.0), value)
        # acceptance test 06: log2 growth of the per-level maxima
        slope = _log2_slope(list(per_level), list(per_level.values()))
        ledger.within(problems, "gamma log2 slope", max(slope, 0.0), 0.1, strict=False)

    def _check_kernel_sweep(self, run_dir: Path, ledger: Ledger, problems: list) -> None:
        worst = max(float(row["abs_diff"]) for row in _rows(run_dir / "kernel.csv"))
        ledger.within(problems, "closed vs quadrature", worst, 1e-6)
        ledger.record("kernel.closed_vs_quad_max", worst)

    def _check_kernel_dilation(self, run_dir: Path, ledger: Ledger, problems: list) -> None:
        worst = max(float(row["residual"]) for row in _rows(run_dir / "dilation.csv"))
        ledger.within(problems, "dilation residual", worst, 1e-6)
        ledger.record("kernel.dilation_max", worst)

    def _check_norms_lemma1(self, run_dir: Path, ledger: Ledger, problems: list) -> None:
        rows = _rows(run_dir / "scaling.csv")
        estimates = [float(row["estimate"]) for row in rows]
        if not all(math.isfinite(v) and v > 0 for v in estimates):
            problems.append("scaling estimates must be positive numbers")
            return
        # acceptance test 07: slope against w b^(n-1) (n = 1) near 1/p - 1/2
        slope = _log2_slope(np.log2([float(row["w"]) for row in rows]), estimates)
        ledger.within(problems, "scaling exponent error", abs(slope - 0.5), 0.15)

    def _check_norms_corollary(self, run_dir: Path, ledger: Ledger, problems: list) -> None:
        body = json.loads((run_dir / "estimate.json").read_text())
        if not (math.isfinite(body["value"]) and body["value"] > 0):
            problems.append(f"estimate {body['value']!r} is not a positive number")
        for key in ("witness_f", "witness_g"):
            values = [float(row["re"]) + float(row["im"]) for row in _rows(run_dir / body[key])]
            if not _finite(values):
                problems.append(f"non-finite values in {body[key]}")

    def _check_thresholds(self, rows, problems: list) -> None:
        for row in rows:
            key = (row["inv_p1"], row["inv_p2"])
            if key in EXACT_THRESHOLDS:
                expected = EXACT_THRESHOLDS[key]
                if _form_value(row["threshold_form"], 2) != expected or float(
                    row["threshold"]
                ) != float(expected):
                    problems.append(f"threshold at {key} is {row['threshold_form']}, expected {expected}")

    def _check_regions_export(self, run_dir: Path, ledger: Ledger, problems: list) -> None:
        rows = _rows(run_dir / "map.csv")
        found = {(row["inv_p1"], row["inv_p2"]) for row in rows}
        problems.extend(f"map has no row at {key}" for key in EXACT_THRESHOLDS if key not in found)
        self._check_thresholds(rows, problems)

    def _check_regions_query(self, run_dir: Path, ledger: Ledger, problems: list) -> None:
        rows = _rows(run_dir / "query.csv")
        if [(row["inv_p1"], row["inv_p2"]) for row in rows] != [("1", "1/2")]:
            problems.append("query.csv must hold the single row (1, 1/2)")
        self._check_thresholds(rows, problems)

    def _check_bessel_check(self, run_dir: Path, ledger: Ledger, problems: list) -> None:
        worst = max(float(row["abs_diff"]) for row in _rows(run_dir / "bessel.csv"))
        ledger.within(problems, "bessel dual route", worst, 1e-9)
        ledger.record("bessel.dual_route_max", worst)


WORKLOADS = {w.name: w for w in (DecayTj1d, KernelIdentity, CliOneshot)}

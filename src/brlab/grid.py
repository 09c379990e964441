"""Sampled fields on a periodic box, DFT contract, and mixed-norm utilities.

The continuum convention approximated throughout is
f-hat(xi) = integral f(x) exp(-2 pi i x.xi) dx on the box [0, L)^n, sampled
at x_k = (L/N) k and on the frequency lattice {m/L}.  All scalings below are
chosen so discrete norms and transforms converge to their continuum values
as N grows with L fixed.  Every CSV file the package writes goes through
:func:`write_rows`, which fixes the text format of its numbers.
"""

from __future__ import annotations

import csv
import math
from itertools import chain, starmap
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L)^n.

    Parameters
    ----------
    n : int
        Spatial dimension, 1 or 2.
    N : int
        Samples per axis; a power of two, at least 8.
    L : float
        Physical side length of the box.
    """

    n: int
    N: int
    L: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got n={self.n}")
        if self.N < 8 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 8, got N={self.N}")
        if not self.L > 0:
            raise ValueError(f"box side must be positive, got L={self.L}")
        object.__setattr__(self, "L", float(self.L))

    @property
    def spacing(self) -> float:
        """Sample spacing L/N."""
        return self.L / self.N

    @property
    def cell_volume(self) -> float:
        """Riemann-sum measure weight (L/N)^n."""
        return (self.L / self.N) ** self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    def axis_coords(self) -> np.ndarray:
        """Sample coordinates (L/N)k along one axis, k = 0..N-1."""
        return (self.L / self.N) * np.arange(self.N)

    def axis_freqs(self) -> np.ndarray:
        """Frequency lattice m/L along one axis, in FFT storage order."""
        return np.fft.fftfreq(self.N, d=self.L / self.N)

    def coord_arrays(self) -> tuple[np.ndarray, ...]:
        """Full coordinate arrays of shape ``self.shape``, one per axis."""
        return np.meshgrid(*([self.axis_coords()] * self.n), indexing="ij")

    def freq_arrays(self) -> tuple[np.ndarray, ...]:
        """Frequency-lattice coordinate arrays in FFT storage order."""
        return np.meshgrid(*([self.axis_freqs()] * self.n), indexing="ij")

    def freq_radii(self) -> np.ndarray:
        """|xi| over the frequency lattice, shape ``self.shape``."""
        freqs = self.freq_arrays()
        return np.sqrt(sum(f**2 for f in freqs))

    def wrapped_delta(self, center) -> tuple[np.ndarray, ...]:
        """Signed displacement x - center per axis, wrapped to [-L/2, L/2)."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape != (self.n,):
            raise ValueError(
                f"center must have {self.n} component(s), got shape {center.shape}"
            )
        coords = self.coord_arrays()
        return tuple(
            (coords[a] - center[a] + self.L / 2.0) % self.L - self.L / 2.0
            for a in range(self.n)
        )


@dataclass(frozen=True)
class SampledField:
    """Complex samples on a :class:`Grid`; values are immutable once built.

    The spectrum slot is filled by :func:`dft_forward` on first use; it
    takes no part in equality or repr, and every new field starts empty.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)
    _spectrum: "SampledField | None" = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must all be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __add__(self, other: "SampledField") -> "SampledField":
        self._check_compatible(other)
        return SampledField(self.grid, self.values + other.values)

    def __sub__(self, other: "SampledField") -> "SampledField":
        self._check_compatible(other)
        return SampledField(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "SampledField":
        return SampledField(self.grid, self.values * complex(scalar))

    __rmul__ = __mul__

    def _check_compatible(self, other: "SampledField") -> None:
        if not isinstance(other, SampledField):
            raise TypeError("can only combine SampledField with SampledField")
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")


def _parse_inverse(p, which: str) -> Fraction:
    """Reciprocal 1/p as an exact Fraction, with infinity mapping to 0."""
    if p is None:
        raise ValueError(f"exponent {which} must be given")
    if isinstance(p, str):
        text = p.strip().lower()
        if text in ("inf", "infinity", "oo"):
            return Fraction(0)
        p = Fraction(text)
    if isinstance(p, float):
        if math.isinf(p):
            return Fraction(0)
        p = Fraction(p).limit_denominator(1_000_000)
    if isinstance(p, int):
        p = Fraction(p)
    if not isinstance(p, Fraction):
        raise TypeError(f"exponent {which} has unsupported type {type(p).__name__}")
    if p < 1:
        raise ValueError(f"exponent {which} must lie in [1, infinity], got {p}")
    return 1 / p


@dataclass(frozen=True)
class ExponentPair:
    """Lebesgue exponent pair (p1, p2) with the derived target exponent.

    Reciprocals are stored as exact :class:`fractions.Fraction` values
    (0 encodes infinity), so 1/p = 1/p1 + 1/p2 holds exactly.  Inputs may
    be integers, Fractions, floats (including ``math.inf``), or strings
    such as ``"4/3"`` and ``"inf"``.
    """

    inv1: Fraction
    inv2: Fraction

    def __init__(self, p1, p2):
        object.__setattr__(self, "inv1", _parse_inverse(p1, "p1"))
        object.__setattr__(self, "inv2", _parse_inverse(p2, "p2"))

    @property
    def inv_p(self) -> Fraction:
        return self.inv1 + self.inv2

    @property
    def p1(self):
        return _exponent_of(self.inv1)

    @property
    def p2(self):
        return _exponent_of(self.inv2)

    @property
    def p(self):
        return _exponent_of(self.inv_p)

    def __str__(self) -> str:
        def fmt(inv):
            return "inf" if inv == 0 else str(1 / inv)

        return f"({fmt(self.inv1)}, {fmt(self.inv2)}) -> {fmt(self.inv_p)}"


def _exponent_of(inv: Fraction):
    """The exponent p with reciprocal ``inv``, infinity for 0."""
    return math.inf if inv == 0 else 1 / inv


def _as_pair(exponents) -> ExponentPair:
    """An ExponentPair as given, or one built from a (p1, p2) sequence."""
    if isinstance(exponents, ExponentPair):
        return exponents
    return ExponentPair(*exponents)


def dft_forward(f: SampledField) -> SampledField:
    """Discrete approximation of the continuous Fourier transform.

    Returns samples of f-hat on the frequency lattice, in FFT storage
    order, scaled by the Riemann-sum weight (L/N)^n.  The first call on a
    field transforms it and keeps the result on the field; later calls
    return that same spectrum, which is safe because a field's values are
    a read-only copy.  Each transformed field so holds one spectrum, as
    large as itself, for as long as it lives.
    """
    if f._spectrum is None:
        spectrum = SampledField(f.grid, np.fft.fftn(f.values) * f.grid.cell_volume)
        object.__setattr__(f, "_spectrum", spectrum)
    return f._spectrum


def dft_inverse(F: SampledField) -> SampledField:
    """Exact inverse of :func:`dft_forward` under the same convention."""
    scale = (F.grid.N / F.grid.L) ** F.grid.n
    return SampledField(F.grid, np.fft.ifftn(F.values) * scale)


def lp_norm(f: SampledField, p) -> float:
    """Mixed-measure L^p (quasi-)norm ((L/N)^n sum |f|^p)^(1/p).

    Parameters
    ----------
    f : SampledField
    p : positive rational or ``math.inf``
        Values in (0, 1) give the usual quasi-norm; infinity gives the
        max modulus.

    Raises
    ------
    ValueError
        If p <= 0.
    """
    if isinstance(p, str):
        p = math.inf if p.strip().lower() in ("inf", "infinity", "oo") else Fraction(p)
    if isinstance(p, float) and math.isinf(p) and p > 0:
        return float(np.max(np.abs(f.values)))
    p = float(p)
    if not p > 0:
        raise ValueError(f"norm exponent must be positive, got p={p}")
    mags = np.abs(f.values)
    return float((f.grid.cell_volume * np.sum(mags**p)) ** (1.0 / p))


def _require(condition: bool, kind: str, name: str, message: str) -> None:
    if not condition:
        raise ValueError(f"make_test_field({kind}): parameter '{name}' {message}")


def make_test_field(kind: str, params: dict, grid: Grid, seed: int = 0) -> SampledField:
    """Deterministic witness fields for norm experiments.

    Parameters
    ----------
    kind : {"gaussian", "ball_indicator", "band_limited_random"}
    params : dict
        gaussian: ``width`` (> 0), optional ``center``.
        ball_indicator: ``radius`` (0 < radius < L/4), optional ``center``.
        band_limited_random: ``band`` = (a, b) with the annulus
        a <= |xi| <= b meeting the frequency lattice.
    grid : Grid
    seed : int
        Only band_limited_random draws randomness; identical inputs give
        bit-identical fields.

    Returns
    -------
    SampledField

    Raises
    ------
    ValueError
        Invalid parameters, with the offending parameter named.
    """
    params = dict(params)
    center = params.pop("center", (grid.L / 2.0,) * grid.n)
    center_arr = np.atleast_1d(np.asarray(center, dtype=float))
    _require(
        center_arr.shape == (grid.n,),
        kind,
        "center",
        f"must have {grid.n} component(s), got {center!r}",
    )
    _require(
        bool(np.all((center_arr >= 0) & (center_arr < grid.L))),
        kind,
        "center",
        f"must lie inside the box [0, {grid.L}), got {center!r}",
    )

    if kind == "gaussian":
        width = params.pop("width", None)
        _require(width is not None, kind, "width", "is required")
        _require(width > 0, kind, "width", f"must be positive, got {width}")
        _leftover(kind, params)
        delta = grid.wrapped_delta(center_arr)
        dist_sq = sum(d**2 for d in delta)
        return SampledField(grid, np.exp(-math.pi * dist_sq / width**2))

    if kind == "ball_indicator":
        radius = params.pop("radius", None)
        _require(radius is not None, kind, "radius", "is required")
        _require(
            0 < radius < grid.L / 4.0,
            kind,
            "radius",
            f"must lie in (0, L/4) = (0, {grid.L / 4.0}), got {radius}",
        )
        _leftover(kind, params)
        delta = grid.wrapped_delta(center_arr)
        dist_sq = sum(d**2 for d in delta)
        return SampledField(grid, (dist_sq <= radius**2).astype(np.complex128))

    if kind == "band_limited_random":
        band = params.pop("band", None)
        _require(band is not None, kind, "band", "is required")
        a, b = float(band[0]), float(band[1])
        lattice_max = (grid.N / 2.0) / grid.L * math.sqrt(grid.n)
        _require(0 <= a <= b, kind, "band", f"must satisfy 0 <= a <= b, got {band!r}")
        _require(
            b <= lattice_max,
            kind,
            "band",
            f"must fit the frequency lattice (upper edge <= {lattice_max:g}), got {band!r}",
        )
        _leftover(kind, params)
        radii = grid.freq_radii()
        mask = (radii >= a - 1e-12) & (radii <= b + 1e-12)
        _require(
            bool(np.any(mask)),
            kind,
            "band",
            f"contains no frequency-lattice points, got {band!r}",
        )
        rng = np.random.default_rng(seed)
        coeffs = np.zeros(grid.shape, dtype=np.complex128)
        count = int(np.sum(mask))
        coeffs[mask] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        field_out = dft_inverse(SampledField(grid, coeffs))
        scale = lp_norm(field_out, 2)
        return field_out * (1.0 / scale)

    raise ValueError(
        f"make_test_field: parameter 'kind' must be one of gaussian, ball_indicator,"
        f" band_limited_random; got {kind!r}"
    )


def _leftover(kind: str, params: dict) -> None:
    if params:
        name = sorted(params)[0]
        raise ValueError(f"make_test_field({kind}): parameter '{name}' is not recognized")


def modulate(f: SampledField, freq) -> SampledField:
    """Multiply by the character exp(2 pi i x . freq), shifting the spectrum."""
    freq = np.atleast_1d(np.asarray(freq, dtype=float))
    if freq.shape != (f.grid.n,):
        raise ValueError(f"freq must have {f.grid.n} component(s)")
    coords = f.grid.coord_arrays()
    phase = sum(coords[a] * freq[a] for a in range(f.grid.n))
    return SampledField(f.grid, f.values * np.exp(2j * math.pi * phase))


#: exact types a row template writes as csv.writer does (a float by its repr)
_TEMPLATE_TYPES = frozenset({float, int, str})
#: characters that make csv.writer quote a value
_QUOTE_IF = frozenset(',"\r\n')


def _csv_text(value) -> str:
    """One value as csv.writer writes it, a numpy scalar as its Python one."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None:
        return ""
    text = repr(value) if isinstance(value, float) else str(value)
    if _QUOTE_IF.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _csv_line(row) -> str:
    """One row as csv.writer writes it, value by value; a lone empty value is quoted."""
    return (",".join(map(_csv_text, row)) or ('""' if row else "")) + "\r\n"


def write_rows(path, header, rows) -> None:
    """Write a CSV file: the header, then each row, in csv.writer's text.

    That text is: a float by its repr, the shortest text that reads back
    bitwise equal; None as nothing; any other value by str; a numpy scalar
    as its Python scalar first (so a float32 is written as the float64 it
    widens to).  A value holding a comma, quote or line break is quoted,
    with its quotes doubled, as is a row of one empty value; lines end in
    CRLF.  A file whose rows have one width and hold only floats, ints and
    strs that need no quotes is formatted by one template, one
    ``str.format`` call per row; any other goes value by value.
    """
    rows = [tuple(row) for row in rows]
    widths = set(map(len, rows))
    kinds = set(map(type, chain.from_iterable(rows)))
    texts = {v for v in chain.from_iterable(rows) if type(v) is str} if str in kinds else set()
    if (
        len(widths) == 1
        and kinds <= _TEMPLATE_TYPES
        and all(map(_QUOTE_IF.isdisjoint, texts))
        and not (widths == {1} and "" in texts)
    ):
        body = "".join(starmap((",".join(["{}"] * widths.pop()) + "\r\n").format, rows))
    else:
        body = "".join(map(_csv_line, rows))
    with open(path, "w", newline="") as handle:
        handle.write(_csv_line(header) + body)


def field_to_csv(f: SampledField, path) -> None:
    """Write one row per sample: index tuple, real part, imaginary part.

    Rows come in C order; the index tuples are plain ints.
    """
    header = [f"i{a}" for a in range(f.grid.n)] + ["re", "im"]
    indices = np.indices(f.grid.shape).reshape(f.grid.n, -1).tolist()
    real = f.values.real.ravel().tolist()
    imag = f.values.imag.ravel().tolist()
    write_rows(path, header, zip(*indices, real, imag))


def field_from_csv(path, L: float) -> SampledField:
    """Rebuild a field written by :func:`field_to_csv`.

    The box side L is not stored in the rows and must be supplied.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        n = len(header) - 2
        rows = list(reader)
    if n not in (1, 2):
        raise ValueError(f"CSV header implies unsupported dimension n={n}")
    indices = np.array([[int(c) for c in row[:n]] for row in rows], dtype=int)
    N = int(indices.max()) + 1
    grid = Grid(n, N, L)
    values = np.zeros(grid.shape, dtype=np.complex128)
    for row, idx in zip(rows, indices):
        values[tuple(idx)] = float(row[n]) + 1j * float(row[n + 1])
    return SampledField(grid, values)

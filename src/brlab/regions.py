"""Exact-rational smoothness-index thresholds over the exponent square.

Every threshold is an affine form c_n * n + c_0 with exact Fraction
coefficients, evaluated and compared in rational arithmetic only.  The
module classifies exponent pairs into the map's regions, collects every
statement applicable to a pair, and exports the resulting partition as CSV
and as an SVG diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .grid import ExponentPair, _as_pair, write_rows

#: region and statement labels, in fixed statement order
REGION_I_A = "I_a"
REGION_I_B = "I_b"
REGION_II_A = "II_a"
REGION_II_B = "II_b"
BANACH_FALLBACK = "Banach_fallback"
DYADIC_SQUARE = "dyadic_square"
ONE_INFINITY = "one_infinity"
BASIC = "Basic"

_HALF = Fraction(1, 2)
_ONE = Fraction(1)

#: columns of a region-map row, in the map export and in a single query
MAP_HEADER = ("inv_p1", "inv_p2", "region", "threshold", "threshold_form")


@dataclass(frozen=True)
class ThresholdForm:
    """Affine threshold c_n * n + c_0 with exact rational coefficients."""

    c_n: Fraction
    c_0: Fraction

    def value(self, n: int) -> Fraction:
        return self.c_n * n + self.c_0

    def __str__(self) -> str:
        if self.c_0 == 0:
            return f"{self.c_n}*n"
        if self.c_n == 0:
            return f"{self.c_0}"
        sign = "+" if self.c_0 > 0 else "-"
        return f"{self.c_n}*n {sign} {abs(self.c_0)}"


def _regions(inv1, inv2, half, one) -> list[tuple]:
    """Region statements whose hypotheses hold, as (label, c_n, c_0).

    In the order I_a, I_b, II_a, II_b.  Works over any exact ordered
    numbers with ``half`` and ``one`` (1/2 and 1) on the reciprocals'
    scale, and gives the coefficients on that scale.
    """
    invp = inv1 + inv2
    zero = one - one
    held = []
    if half <= inv1 <= one and inv2 <= half and invp > one:
        held.append((REGION_I_A, inv1 - half, zero))
    if half <= inv2 <= one and inv1 <= half and invp > one:
        held.append((REGION_I_B, inv2 - half, zero))
    if inv1 >= inv2 >= half:
        held.append((REGION_II_A, invp - one, half - inv2))
    if inv2 >= inv1 >= half:
        held.append((REGION_II_B, invp - one, half - inv1))
    return held


def _label(regions) -> str:
    return regions[0][0] if regions else BANACH_FALLBACK


def _sources(regions, inv1, inv2, half, one, n: int) -> list[tuple]:
    """Every applicable statement as (label, c_n, c_0), in statement order."""
    zero = one - one
    sources = list(regions) if n >= 2 else []
    if inv1 >= half and inv2 >= half:
        sources.append((DYADIC_SQUARE, inv1 + inv2 - one, zero))
    if {inv1, inv2} == {zero, one}:
        sources.append((ONE_INFINITY, half, zero))
    sources.append((BASIC, one, -half))
    return sources


def _chosen(sources, n: int) -> int:
    """Index of the statement of smallest value at n, the earliest on ties."""
    return min(range(len(sources)), key=lambda i: sources[i][1] * n + sources[i][2])


def _dimension(n) -> int:
    if int(n) != n or n < 1:
        raise ValueError(f"dimension must be an integer >= 1, got n={n}")
    return int(n)


def classify(exponents) -> str:
    """Region label of an exponent pair, with first-listed-region ties.

    Checks the hypotheses in the fixed order I_a, I_b, II_a, II_b, so
    boundary equalities land in the earliest region whose hypothesis holds;
    pairs outside all four (necessarily with target exponent p >= 1) fall
    to the Banach fallback label.
    """
    ep = _as_pair(exponents)
    return _label(_regions(ep.inv1, ep.inv2, _HALF, _ONE))


@dataclass(frozen=True)
class IndexResult:
    """All applicable smoothness thresholds at one exponent pair.

    ``sources`` lists (statement label, affine form) in statement order;
    ``chosen_source``/``chosen_form`` are the entry whose value at this n
    is smallest (earliest entry on ties), and ``threshold`` is that exact
    rational value.
    """

    exponents: ExponentPair
    n: int
    region: str
    sources: tuple[tuple[str, ThresholdForm], ...]
    chosen_source: str
    chosen_form: ThresholdForm
    threshold: Fraction

    def map_row(self) -> list:
        """This result as one row under :data:`MAP_HEADER`."""
        ep = self.exponents
        return [ep.inv1, ep.inv2, self.region, float(self.threshold), self.chosen_form]


def smoothness_index(exponents, n: int) -> IndexResult:
    """Minimal applicable smoothness threshold at an exponent pair.

    The two-region statements require n >= 2 and drop out of the source
    list below that; the dyadic-square statement, the (1, inf) statement,
    and the basic n - 1/2 bound apply from n = 1 up.
    """
    n = _dimension(n)
    ep = _as_pair(exponents)
    regions = _regions(ep.inv1, ep.inv2, _HALF, _ONE)
    raw = _sources(regions, ep.inv1, ep.inv2, _HALF, _ONE, n)
    sources = tuple((label, ThresholdForm(c_n, c_0)) for label, c_n, c_0 in raw)
    chosen_source, chosen_form = sources[_chosen(raw, n)]
    return IndexResult(
        exponents=ep,
        n=n,
        region=_label(regions),
        sources=sources,
        chosen_source=chosen_source,
        chosen_form=chosen_form,
        threshold=chosen_form.value(n),
    )


_REGION_COLORS = {
    REGION_I_A: "#4c78a8",
    REGION_I_B: "#72b7b2",
    REGION_II_A: "#e45756",
    REGION_II_B: "#f58518",
    BANACH_FALLBACK: "#b8b8b8",
}


def region_grid_export(n: int, resolution: int, csv_path, svg_path) -> None:
    """Write the region map as CSV rows and an 800 x 800 SVG diagram.

    The CSV covers the uniform (resolution + 1)^2 node grid of the
    (1/p1, 1/p2) square with exact-rational coordinates and thresholds;
    the SVG colors resolution^2 cells by the region of their center and
    draws the four boundary segments (the two half lines, the anti-diagonal
    where the target exponent crosses 1, and the main diagonal).

    Both run the hypotheses of :func:`classify` and :func:`smoothness_index`
    on integer numerators over D = 2 * resolution: node (i, k) is
    (2i, 2k), a cell center is (2i + 1, 2k + 1), and 1/2 and 1 are
    resolution and D.  Fractions are built only for the values written to
    a row, so every row equals ``smoothness_index(...).map_row()``.
    """
    if resolution < 16:
        raise ValueError(f"resolution must be at least 16, got resolution={resolution}")
    n = _dimension(n)
    D = 2 * resolution
    coords = [Fraction(i, resolution) for i in range(resolution + 1)]
    rows = []
    for i in range(resolution + 1):
        for k in range(resolution + 1):
            regions = _regions(2 * i, 2 * k, resolution, D)
            sources = _sources(regions, 2 * i, 2 * k, resolution, D, n)
            _, c_n, c_0 = sources[_chosen(sources, n)]
            form = ThresholdForm(Fraction(c_n, D), Fraction(c_0, D))
            rows.append([coords[i], coords[k], _label(regions), (c_n * n + c_0) / D, form])
    write_rows(csv_path, MAP_HEADER, rows)
    with open(svg_path, "w") as handle:
        handle.write(_region_svg(n, resolution))


def _region_svg(n: int, resolution: int) -> str:
    size = 800
    left, top, plot = 70.0, 40.0, 660.0
    cell = plot / resolution

    def x_at(inv1: float) -> float:
        return left + plot * inv1

    def y_at(inv2: float) -> float:
        return top + plot * (1.0 - inv2)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}"'
        f' viewBox="0 0 {size} {size}">',
        "<!-- region map -->",
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    D = 2 * resolution
    for i in range(resolution):
        for k in range(resolution):
            label = _label(_regions(2 * i + 1, 2 * k + 1, resolution, D))
            parts.append(
                f'<rect x="{x_at(i / resolution):.2f}"'
                f' y="{y_at((k + 1) / resolution):.2f}"'
                f' width="{cell:.2f}" height="{cell:.2f}"'
                f' fill="{_REGION_COLORS[label]}"/>'
            )
    boundaries = [
        (x_at(0.5), y_at(0.0), x_at(0.5), y_at(1.0)),
        (x_at(0.0), y_at(0.5), x_at(1.0), y_at(0.5)),
        (x_at(0.0), y_at(1.0), x_at(1.0), y_at(0.0)),
        (x_at(0.0), y_at(0.0), x_at(1.0), y_at(1.0)),
    ]
    for x1, y1, x2, y2 in boundaries:
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}"'
            ' stroke="#222222" stroke-width="2"/>'
        )
    parts.append(
        f'<text x="{x_at(0.5):.2f}" y="{size - 10}" text-anchor="middle"'
        ' font-family="sans-serif" font-size="18">1/p1</text>'
    )
    parts.append(
        f'<text x="18" y="{y_at(0.5):.2f}" text-anchor="middle"'
        ' font-family="sans-serif" font-size="18"'
        f' transform="rotate(-90 18 {y_at(0.5):.2f})">1/p2</text>'
    )
    legend_x, legend_y = left + plot - 190.0, top + 10.0
    parts.append('<g id="legend">')
    parts.append(
        f'<rect x="{legend_x - 10:.2f}" y="{legend_y - 6:.2f}" width="200"'
        f' height="{18 * len(_REGION_COLORS) + 12}" fill="#ffffff"'
        ' stroke="#222222" stroke-width="1"/>'
    )
    for row, (label, color) in enumerate(_REGION_COLORS.items()):
        y = legend_y + 18 * row
        parts.append(
            f'<rect x="{legend_x:.2f}" y="{y:.2f}" width="12" height="12"'
            f' fill="{color}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 18:.2f}" y="{y + 11:.2f}"'
            f' font-family="sans-serif" font-size="13">{label} (n={n})</text>'
        )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

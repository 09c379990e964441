"""Tests for exact region classification and smoothness thresholds."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from brlab.grid import ExponentPair, write_rows
from brlab.regions import (
    _REGION_COLORS,
    BANACH_FALLBACK,
    BASIC,
    DYADIC_SQUARE,
    MAP_HEADER,
    ONE_INFINITY,
    REGION_I_A,
    REGION_I_B,
    REGION_II_A,
    REGION_II_B,
    IndexResult,
    ThresholdForm,
    classify,
    region_grid_export,
    smoothness_index,
)

HALF = Fraction(1, 2)


def random_inverse(rng) -> Fraction:
    """Random rational in [0, 1] with a modest denominator."""
    den = int(rng.integers(1, 13))
    num = int(rng.integers(0, den + 1))
    return Fraction(num, den)


def pair_from_inverses(inv1: Fraction, inv2: Fraction) -> ExponentPair:
    def exponent(inv):
        return math.inf if inv == 0 else 1 / inv

    return ExponentPair(exponent(inv1), exponent(inv2))


class TestThresholdForm:
    def test_value_is_exact(self):
        form = ThresholdForm(Fraction(1, 3), Fraction(-1, 2))
        assert form.value(3) == Fraction(1, 2)
        assert isinstance(form.value(3), Fraction)

    def test_string_drops_zero_constant(self):
        assert str(ThresholdForm(HALF, Fraction(0))) == "1/2*n"

    def test_string_constant_only(self):
        assert str(ThresholdForm(Fraction(0), Fraction(3, 4))) == "3/4"

    def test_string_negative_constant(self):
        assert str(ThresholdForm(Fraction(1), -HALF)) == "1*n - 1/2"

    def test_string_positive_constant(self):
        assert str(ThresholdForm(Fraction(1, 4), HALF)) == "1/4*n + 1/2"


class TestClassify:
    def test_examples(self):
        assert classify(ExponentPair("4/3", 2)) == REGION_I_A
        assert classify(ExponentPair(2, "4/3")) == REGION_I_B
        assert classify(ExponentPair("4/3", "4/3")) == REGION_II_A
        assert classify(ExponentPair(2, 2)) == REGION_II_A

    def test_one_one_is_region_two(self):
        assert classify(ExponentPair(1, 1)) == REGION_II_A

    def test_one_two_boundary_goes_to_first_region(self):
        # hypotheses of I_a and II_a both hold; I_a is listed first
        assert classify(ExponentPair(1, 2)) == REGION_I_A

    def test_one_infinity_is_fallback(self):
        # target exponent is exactly 1, so the sub-Banach hypothesis fails
        assert classify(ExponentPair(1, math.inf)) == BANACH_FALLBACK
        assert classify(ExponentPair(math.inf, 1)) == BANACH_FALLBACK

    def test_banach_interior(self):
        assert classify(ExponentPair(2, 4)) == BANACH_FALLBACK
        assert classify(ExponentPair(3, 4)) == BANACH_FALLBACK

    def test_mixed_sub_banach(self):
        assert classify(ExponentPair("3/2", 2)) == REGION_I_A
        assert classify(ExponentPair(2, "3/2")) == REGION_I_B

    def test_accepts_raw_tuple(self):
        assert classify(("4/3", "2")) == REGION_I_A

    def test_rejects_exponent_below_one(self):
        with pytest.raises(ValueError, match="p1"):
            classify(ExponentPair("1/2", 2))


class TestSmoothnessIndex:
    def test_one_one(self):
        result = smoothness_index(ExponentPair(1, 1), 2)
        assert result.threshold == Fraction(3, 2)
        assert result.chosen_form.c_n == 1
        assert result.chosen_form.c_0 == -HALF

    def test_one_one_region_and_basic_agree(self):
        result = smoothness_index(ExponentPair(1, 1), 3)
        values = {label: form.value(3) for label, form in result.sources}
        assert values[REGION_II_A] == values[BASIC] == Fraction(5, 2)

    def test_one_two_region_one_equals_region_two(self):
        result = smoothness_index(ExponentPair(1, 2), 2)
        assert result.threshold == 1
        values = dict(result.sources)
        assert values[REGION_I_A].value(2) == values[REGION_II_A].value(2) == 1

    def test_two_two_vanishes(self):
        result = smoothness_index(ExponentPair(2, 2), 2)
        assert result.threshold == 0
        assert result.chosen_source == REGION_II_A

    def test_one_infinity_uses_corollary(self):
        result = smoothness_index(ExponentPair(1, math.inf), 2)
        assert result.threshold == 1
        assert result.chosen_source == ONE_INFINITY
        assert result.region == BANACH_FALLBACK

    def test_sources_in_statement_order(self):
        result = smoothness_index(ExponentPair(1, 1), 2)
        labels = [label for label, _ in result.sources]
        assert labels == [REGION_II_A, REGION_II_B, DYADIC_SQUARE, BASIC]

    def test_chosen_is_minimum(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            pair = pair_from_inverses(random_inverse(rng), random_inverse(rng))
            for n in (1, 2, 5):
                result = smoothness_index(pair, n)
                assert all(
                    result.threshold <= form.value(n)
                    for _, form in result.sources
                )

    def test_symmetry_in_exponents(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            inv1, inv2 = random_inverse(rng), random_inverse(rng)
            lhs = smoothness_index(pair_from_inverses(inv1, inv2), 2)
            rhs = smoothness_index(pair_from_inverses(inv2, inv1), 2)
            assert lhs.threshold == rhs.threshold

    def test_diagonal_region_two_forms_coincide(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            inv = random_inverse(rng)
            if inv < HALF:
                inv = 1 - inv
            result = smoothness_index(pair_from_inverses(inv, inv), 2)
            forms = dict(result.sources)
            assert forms[REGION_II_A] == forms[REGION_II_B]

    def test_diagonal_region_two_closed_form(self):
        # on the diagonal inside region II the chosen threshold equals
        # 2*n*(1/p1) - n - 1/p1 + 1/2
        for inv in (HALF, Fraction(5, 8), Fraction(3, 4), Fraction(1)):
            for n in (2, 3, 7):
                result = smoothness_index(pair_from_inverses(inv, inv), n)
                assert result.threshold == 2 * n * inv - n - inv + HALF

    def test_dimension_one_drops_region_sources(self):
        result = smoothness_index(ExponentPair("4/3", 2), 1)
        labels = [label for label, _ in result.sources]
        assert REGION_I_A not in labels
        assert result.chosen_source == DYADIC_SQUARE
        assert result.threshold == Fraction(1, 4)

    def test_dimension_one_banach_has_only_basic(self):
        result = smoothness_index(ExponentPair(3, 4), 1)
        assert [label for label, _ in result.sources] == [BASIC]
        assert result.threshold == HALF

    def test_invalid_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            smoothness_index(ExponentPair(2, 2), 0)
        with pytest.raises(ValueError, match="dimension"):
            smoothness_index(ExponentPair(2, 2), -3)

    def test_threshold_is_fraction(self):
        result = smoothness_index(ExponentPair("4/3", 2), 2)
        assert isinstance(result.threshold, Fraction)
        assert isinstance(result, IndexResult)

    def test_region_one_a_value(self):
        # 1/p1 - 1/2 = 1/4, so the region I threshold is n/4
        result = smoothness_index(ExponentPair("4/3", 2), 2)
        values = dict(result.sources)
        assert values[REGION_I_A].value(2) == HALF
        assert result.threshold == HALF


class TestGridExport:
    def test_csv_rows_and_values(self, tmp_path):
        csv_path = tmp_path / "map.csv"
        svg_path = tmp_path / "map.svg"
        region_grid_export(2, 16, csv_path, svg_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "inv_p1,inv_p2,region,threshold,threshold_form"
        assert len(lines) == 1 + 17 * 17
        rows = {tuple(line.split(",")[:2]): line.split(",") for line in lines[1:]}
        corner = rows[("1", "1")]
        assert corner[2] == REGION_II_A
        assert corner[4] == "1*n - 1/2"
        assert float(corner[3]) == 1.5
        center = rows[("1/2", "1/2")]
        assert center[2] == REGION_II_A
        assert float(center[3]) == 0.0

    def test_csv_deterministic(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        region_grid_export(2, 16, first, tmp_path / "a.svg")
        region_grid_export(2, 16, second, tmp_path / "b.svg")
        assert first.read_bytes() == second.read_bytes()

    def test_svg_structure(self, tmp_path):
        svg_path = tmp_path / "map.svg"
        region_grid_export(2, 16, tmp_path / "map.csv", svg_path)
        text = svg_path.read_text()
        assert text.count("<line ") == 4
        assert 'width="800" height="800"' in text
        assert '<g id="legend">' in text
        for label in (REGION_I_A, REGION_I_B, REGION_II_A, REGION_II_B,
                      BANACH_FALLBACK):
            assert label in text

    def test_resolution_validated(self, tmp_path):
        with pytest.raises(ValueError, match="resolution"):
            region_grid_export(2, 8, tmp_path / "x.csv", tmp_path / "x.svg")

    def test_diagonal_rows_match_closed_form(self, tmp_path):
        csv_path = tmp_path / "map.csv"
        region_grid_export(3, 16, csv_path, tmp_path / "map.svg")
        for line in csv_path.read_text().splitlines()[1:]:
            inv1, inv2, region, threshold, _ = line.split(",")
            if inv1 == inv2 and region == REGION_II_A:
                inv = Fraction(inv1)
                want = 2 * 3 * inv - 3 - inv + HALF
                assert float(threshold) == float(want)


class TestIntegerMapMatchesFractionApi:
    """The export's integer numerators give the rows and colors of the Fraction API."""

    @pytest.mark.parametrize("resolution", [16, 17, 64])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_and_cells(self, tmp_path, n, resolution):
        csv_path, svg_path = tmp_path / "map.csv", tmp_path / "map.svg"
        region_grid_export(n, resolution, csv_path, svg_path)
        want_rows = [
            smoothness_index(
                pair_from_inverses(Fraction(i, resolution), Fraction(k, resolution)), n
            ).map_row()
            for i in range(resolution + 1)
            for k in range(resolution + 1)
        ]
        want_path = tmp_path / "want.csv"
        write_rows(want_path, MAP_HEADER, want_rows)
        assert csv_path.read_text() == want_path.read_text()

        cell = f"{660.0 / resolution:.2f}"
        fills = re.findall(
            rf'<rect x="[^"]+" y="[^"]+" width="{cell}" height="{cell}" fill="([^"]+)"/>',
            svg_path.read_text(),
        )
        want_fills = [
            _REGION_COLORS[
                classify(
                    pair_from_inverses(
                        Fraction(2 * i + 1, 2 * resolution), Fraction(2 * k + 1, 2 * resolution)
                    )
                )
            ]
            for i in range(resolution)
            for k in range(resolution)
        ]
        assert fills == want_fills

    def test_export_validates_dimension(self, tmp_path):
        with pytest.raises(ValueError, match="dimension"):
            region_grid_export(0, 16, tmp_path / "x.csv", tmp_path / "x.svg")

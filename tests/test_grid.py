"""Tests for grids, fields, transforms, norms, and witness generation."""

import csv
import dataclasses
import inspect
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from brlab.grid import (
    ExponentPair,
    Grid,
    SampledField,
    dft_forward,
    dft_inverse,
    field_from_csv,
    field_to_csv,
    lp_norm,
    make_test_field,
    modulate,
    write_rows,
)
from helpers import random_field, rel_l2, slow_dft_forward


class TestGrid:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Grid(3, 64, 8.0)
        with pytest.raises(ValueError):
            Grid(1, 100, 8.0)
        with pytest.raises(ValueError):
            Grid(1, 4, 8.0)
        with pytest.raises(ValueError):
            Grid(1, 64, 0.0)

    def test_basic_geometry(self):
        grid = Grid(2, 64, 8.0)
        assert grid.spacing == 0.125
        assert grid.cell_volume == 0.125**2
        assert grid.shape == (64, 64)
        assert grid.axis_coords()[1] == 0.125
        assert grid.axis_freqs()[1] == 1.0 / 8.0

    def test_wrapped_delta_shortest_path(self):
        grid = Grid(1, 16, 16.0)
        (delta,) = grid.wrapped_delta([1.0])
        # the point x=15 is distance -2 from center 1 across the seam
        assert delta[15] == -2.0
        assert delta[1] == 0.0


class TestSampledField:
    def test_immutable_values(self):
        f = random_field(Grid(1, 16, 4.0), seed=0)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_rejects_nonfinite(self):
        grid = Grid(1, 16, 4.0)
        bad = np.zeros(16)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            SampledField(grid, bad)

    def test_arithmetic(self):
        grid = Grid(1, 16, 4.0)
        f = random_field(grid, seed=1)
        g = random_field(grid, seed=2)
        assert_allclose((f + g).values, f.values + g.values)
        assert_allclose((f - g).values, f.values - g.values)
        assert_allclose((2.5 * f).values, 2.5 * f.values)

    def test_grid_mismatch_rejected(self):
        f = random_field(Grid(1, 16, 4.0), seed=1)
        g = random_field(Grid(1, 16, 8.0), seed=1)
        with pytest.raises(ValueError):
            _ = f + g


class TestSpectrumMemo:
    def test_transform_once_and_bitwise_fresh(self):
        for grid in [Grid(1, 64, 16.0), Grid(2, 16, 4.0)]:
            f = random_field(grid, seed=8)
            F = dft_forward(f)
            assert dft_forward(f) is F
            fresh = np.fft.fftn(f.values) * grid.cell_volume
            assert F.values.tobytes() == fresh.tobytes()

    def test_slot_not_in_equality_or_repr(self):
        grid = Grid(1, 16, 4.0)
        f = random_field(grid, seed=9)
        g = SampledField(grid, f.values)
        before = repr(f)
        dft_forward(f)
        assert repr(f) == before == repr(g)
        assert "spectrum" not in before
        compared = [slot.name for slot in dataclasses.fields(SampledField) if slot.compare]
        assert compared == ["grid", "values"]

    def test_new_fields_start_without_spectrum(self):
        grid = Grid(1, 16, 4.0)
        f = random_field(grid, seed=10)
        dft_forward(f)
        derived = [f + f, f * 2.0, 2.0 * f, modulate(f, [0.5]), SampledField(grid, f.values)]
        for g in derived:
            assert g._spectrum is None
            assert dft_forward(g) is not dft_forward(f)


class TestExponentPair:
    def test_exact_rational_reciprocal_sum(self):
        pair = ExponentPair(Fraction(4, 3), 4)
        assert pair.inv_p == Fraction(1)
        assert pair.p == Fraction(1)

    def test_string_and_infinity_forms(self):
        pair = ExponentPair("4/3", "inf")
        assert pair.inv1 == Fraction(3, 4)
        assert pair.inv2 == Fraction(0)
        assert pair.p2 == math.inf
        assert pair.p == Fraction(4, 3)

    def test_float_inputs_snap_to_rationals(self):
        pair = ExponentPair(2.0, math.inf)
        assert pair.inv1 == Fraction(1, 2)
        assert pair.inv2 == Fraction(0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ExponentPair(Fraction(1, 2), 2)


class TestDftContract:
    def test_delta_transforms_to_constant(self):
        grid = Grid(1, 32, 8.0)
        values = np.zeros(32, dtype=np.complex128)
        values[0] = (grid.N / grid.L) ** grid.n
        F = dft_forward(SampledField(grid, values))
        assert_allclose(F.values, np.ones(32), atol=1e-12)

    def test_constant_inverts_to_delta(self):
        grid = Grid(2, 16, 4.0)
        F = SampledField(grid, np.ones((16, 16)))
        f = dft_inverse(F)
        expected = np.zeros((16, 16))
        expected[0, 0] = (grid.N / grid.L) ** grid.n
        assert_allclose(f.values, expected, atol=1e-10)

    def test_round_trip_identity(self):
        for grid in [Grid(1, 64, 16.0), Grid(2, 16, 4.0)]:
            f = random_field(grid, seed=5)
            back = dft_inverse(dft_forward(f))
            assert rel_l2(back.values, f.values) < 1e-12

    def test_linearity_of_inverse(self):
        grid = Grid(1, 32, 8.0)
        F = random_field(grid, seed=6)
        G = random_field(grid, seed=7)
        lhs = dft_inverse(2.0 * F + (-3.5) * G)
        rhs = 2.0 * dft_inverse(F) + (-3.5) * dft_inverse(G)
        assert rel_l2(lhs.values, rhs.values) < 1e-12

    def test_matches_direct_riemann_sum(self):
        # FFT route against the slow quadratic-cost reference
        for grid in [Grid(1, 16, 4.0), Grid(2, 8, 2.0)]:
            f = random_field(grid, seed=8)
            assert rel_l2(dft_forward(f).values, slow_dft_forward(f)) < 1e-12

    def test_self_dual_gaussian(self):
        # e^{-pi |x|^2} transforms to e^{-pi |xi|^2}
        grid = Grid(1, 256, 16.0)
        f = make_test_field("gaussian", {"width": 1.0, "center": [8.0]}, grid)
        F = dft_forward(f)
        xi = grid.axis_freqs()
        # centering at L/2 contributes the phase e^{-2 pi i xi L/2}
        expected = np.exp(-math.pi * xi**2) * np.exp(-2j * math.pi * xi * 8.0)
        assert np.max(np.abs(F.values - expected)) < 1e-8

    def test_parseval(self):
        for grid in [Grid(1, 64, 16.0), Grid(2, 16, 4.0)]:
            f = random_field(grid, seed=9)
            F = dft_forward(f)
            space = grid.cell_volume * np.sum(np.abs(f.values) ** 2)
            freq = (1.0 / grid.L) ** grid.n * np.sum(np.abs(F.values) ** 2)
            assert abs(space - freq) / space < 1e-10


class TestLpNorm:
    def test_indicator_measure_relation(self):
        grid = Grid(1, 64, 16.0)
        f = make_test_field("ball_indicator", {"radius": 2.0}, grid)
        volume = lp_norm(f, 1)
        for p in [1, 2, 4]:
            assert_allclose(lp_norm(f, p), volume ** (1.0 / p), rtol=1e-12)

    def test_infinity_norm_is_max_modulus(self):
        f = random_field(Grid(1, 32, 8.0), seed=10)
        assert lp_norm(f, math.inf) == np.max(np.abs(f.values))
        assert lp_norm(f, "inf") == np.max(np.abs(f.values))

    def test_scaling_homogeneity(self):
        f = random_field(Grid(1, 32, 8.0), seed=11)
        rng = np.random.default_rng(12)
        for p in [0.5, 1, 2, math.inf]:
            c = complex(rng.standard_normal(), rng.standard_normal())
            assert_allclose(lp_norm(c * f, p), abs(c) * lp_norm(f, p), rtol=1e-12)

    def test_monotone_in_modulus(self):
        grid = Grid(1, 32, 8.0)
        f = random_field(grid, seed=13)
        g = SampledField(grid, np.abs(f.values) + 0.5)
        for p in [0.5, 1, 2, math.inf]:
            assert lp_norm(f, p) <= lp_norm(g, p)

    def test_quasi_triangle_for_small_p(self):
        grid = Grid(1, 32, 8.0)
        rng_pairs = [(14, 15), (16, 17), (18, 19)]
        for p in [0.5, 0.75]:
            for sa, sb in rng_pairs:
                f, g = random_field(grid, sa), random_field(grid, sb)
                lhs = lp_norm(f + g, p) ** p
                rhs = lp_norm(f, p) ** p + lp_norm(g, p) ** p
                assert lhs <= rhs * (1 + 1e-12)

    def test_rejects_nonpositive_exponent(self):
        f = random_field(Grid(1, 32, 8.0), seed=20)
        with pytest.raises(ValueError):
            lp_norm(f, 0)
        with pytest.raises(ValueError):
            lp_norm(f, -1)

    def test_fraction_exponent_accepted(self):
        f = random_field(Grid(1, 32, 8.0), seed=21)
        assert_allclose(lp_norm(f, Fraction(4, 3)), lp_norm(f, 4.0 / 3.0), rtol=1e-12)


class TestMakeTestField:
    def test_gaussian_l2_matches_closed_form(self):
        # ||e^{-pi |x|^2 / w^2}||_2^2 = (w/sqrt(2))^n
        for grid, w in [(Grid(1, 256, 16.0), 1.0), (Grid(2, 64, 8.0), 0.7)]:
            f = make_test_field("gaussian", {"width": w}, grid)
            expected = (w / math.sqrt(2.0)) ** (grid.n / 2.0)
            assert abs(lp_norm(f, 2) - expected) < 1e-6

    def test_ball_indicator_volume(self):
        grid = Grid(2, 64, 8.0)
        rho = 1.0
        f = make_test_field("ball_indicator", {"radius": rho}, grid)
        volume = lp_norm(f, 1)
        # one-cell surface correction: perimeter x spacing
        slack = 2 * math.pi * rho * grid.spacing
        assert abs(volume - math.pi * rho**2) <= slack

    def test_band_limited_support_is_exact(self):
        grid = Grid(1, 64, 16.0)
        f = make_test_field("band_limited_random", {"band": (0.5, 1.0)}, grid, seed=3)
        F = dft_forward(f)
        radii = grid.freq_radii()
        outside = (radii < 0.5 - 1e-12) | (radii > 1.0 + 1e-12)
        assert np.max(np.abs(F.values[outside])) < 1e-12
        assert np.max(np.abs(F.values[~outside])) > 0

    def test_band_limited_reproducible(self):
        grid = Grid(1, 64, 16.0)
        a = make_test_field("band_limited_random", {"band": (0.5, 1.0)}, grid, seed=4)
        b = make_test_field("band_limited_random", {"band": (0.5, 1.0)}, grid, seed=4)
        assert np.array_equal(a.values, b.values)
        c = make_test_field("band_limited_random", {"band": (0.5, 1.0)}, grid, seed=5)
        assert not np.array_equal(a.values, c.values)

    def test_errors_name_the_offending_parameter(self):
        grid = Grid(1, 64, 16.0)
        with pytest.raises(ValueError, match="'width'"):
            make_test_field("gaussian", {"width": -1.0}, grid)
        with pytest.raises(ValueError, match="'radius'"):
            make_test_field("ball_indicator", {"radius": 10.0}, grid)
        with pytest.raises(ValueError, match="'band'"):
            make_test_field("band_limited_random", {"band": (3.0, 1.0)}, grid)
        with pytest.raises(ValueError, match="'band'"):
            # annulus between lattice shells holds no points
            make_test_field("band_limited_random", {"band": (0.51, 0.55)}, grid)
        with pytest.raises(ValueError, match="'center'"):
            make_test_field("gaussian", {"width": 1.0, "center": [20.0]}, grid)
        with pytest.raises(ValueError, match="'kind'"):
            make_test_field("sinc", {}, grid)

    def test_modulate_shifts_spectrum(self):
        grid = Grid(1, 64, 16.0)
        f = make_test_field("gaussian", {"width": 1.0}, grid)
        shifted = modulate(f, [1.0])
        F = dft_forward(f).values
        G = dft_forward(shifted).values
        # shift by 1.0 = 16 lattice steps of 1/16
        assert rel_l2(G, np.roll(F, 16)) < 1e-12


# values of every kind csv.writer meets: text it must quote, None, bools,
# each numpy scalar kind, signed zeros, infinities, nan, subnormals,
# Fractions and big ints
ADVERSARIAL = [
    "", "plain", "a,b", 'say "hi"', "cr\rcr", "lf\nlf", "\r\n", " padded ", '"',
    None, True, False, np.bool_(True),
    0.0, -0.0, 5e-324, -2.5e-310, 1e308, math.inf, -math.inf, math.nan, 0.1 + 0.2,
    np.float16(0.1), np.float32(-0.0), np.float64(-math.inf), np.float64(math.nan),
    np.longdouble(0.1),
    np.int8(-128), np.uint8(255), np.int16(-3), np.uint16(7), np.int32(-2**31),
    np.uint32(2**32 - 1), np.int64(-2**63), np.uint64(2**64 - 1),
    np.complex64(1 - 2j), np.complex128(complex(0.1, -0.0)), np.str_("x,y"),
    np.bytes_(b"raw"), np.datetime64("2020-01-02"), np.datetime64("NaT"),
    np.timedelta64(3, "s"),
    Fraction(-4, 3), Fraction(0), 10**40, -(10**30),
]


class TestFieldIO:
    def test_csv_round_trip(self, tmp_path):
        for grid in [Grid(1, 16, 4.0), Grid(2, 8, 2.0)]:
            f = random_field(grid, seed=30)
            path = tmp_path / f"field{grid.n}.csv"
            field_to_csv(f, path)
            back = field_from_csv(path, grid.L)
            assert back.grid == grid
            assert np.array_equal(back.values, f.values)

    @pytest.mark.parametrize("grid", [Grid(1, 16, 4.0), Grid(2, 8, 2.0)])
    def test_field_csv_is_the_generic_writer_output(self, tmp_path, grid):
        # field_to_csv hands plain Python scalars to the writer; its bytes are
        # those of write_rows on the numpy values, row by row in C order
        specials = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1.7976931348623157e308, 0.1 + 0.2]
        values = random_field(grid, seed=31).values.ravel().copy()
        values[: len(specials)] = np.array(specials) + 1j * np.array(specials[::-1])
        f = SampledField(grid, values.reshape(grid.shape))
        field_to_csv(f, tmp_path / "field.csv")
        header = [f"i{a}" for a in range(grid.n)] + ["re", "im"]
        rows = [[*idx, f.values[idx].real, f.values[idx].imag] for idx in np.ndindex(grid.shape)]
        write_rows(tmp_path / "generic.csv", header, rows)
        assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "generic.csv").read_bytes()

    def test_write_rows_format(self, tmp_path):
        # a float32 is written as the float64 it widens to, not its own
        # shortest text "0.1"
        floats = [
            1e16, np.float64(1e-5), -0.0, np.float64(5e-324), 0.1 + 0.2, np.float32(0.1)
        ]
        row = [*floats, 7, np.int64(-3), Fraction(4, 3), "I_a"]
        path = tmp_path / "rows.csv"
        write_rows(path, ["a", "b", "c", "d", "e", "f", "n", "m", "q", "s"], [row])
        with open(path, newline="") as handle:
            text = handle.read()
        assert text == (
            "a,b,c,d,e,f,n,m,q,s\r\n"
            "1e+16,1e-05,-0.0,5e-324,0.30000000000000004,0.10000000149011612,7,-3,4/3,I_a\r\n"
        )
        with open(path, newline="") as handle:
            cells = list(csv.reader(handle))[1]
        for cell, value in zip(cells, floats):
            assert float(cell).hex() == float(value).hex()

    def test_csv_writer_only_in_write_rows(self):
        # the output-file format is decided in one place: no module uses a
        # csv writer, and only write_rows and its row helper end CSV lines
        import brlab.grid

        package = Path(brlab.grid.__file__).parent
        sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
        assert [name for name, text in sources.items() if "csv.writer(" in text] == []
        assert [name for name, text in sources.items() if "csv.DictWriter(" in text] == []
        crlf = {name: text.count('"\\r\\n"') for name, text in sources.items()}
        owners = inspect.getsource(write_rows) + inspect.getsource(brlab.grid._csv_line)
        assert owners.count('"\\r\\n"') == 2
        assert {name: c for name, c in crlf.items() if c} == {"grid.py": 2}

    @staticmethod
    def csv_writer_bytes(path, header, rows):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(
                [v.item() if isinstance(v, np.generic) else v for v in row] for row in rows
            )
        return path.read_bytes()

    @pytest.mark.parametrize(
        "rows",
        [
            [[v] for v in ADVERSARIAL],
            [ADVERSARIAL, ADVERSARIAL[::-1]],
            [ADVERSARIAL[i : i + 3] for i in range(0, len(ADVERSARIAL), 3)],
            [[], [None], [""], ["", ""], [None, None]],
            # one width of floats, ints and strs: the row template, kept or refused
            [[0.5, -1, "I_a"], [-0.0, 10**40, "1/2*n - 1/2"], [math.nan, 0, ""]],
            [[0.5, -1, "I_a"], [math.inf, 2, "a,b"]],
            [[0.5, 7, 'q"'], [1.0, 8, "x"]],
            [[1.5, 2, "cr\r"]],
            [[1.5, 2, "lf\n"]],
            [[1.5], [""], [2]],
            [[1.5], [2]],
            [[], []],
        ],
        ids=["lone", "wide", "threes", "empty", "template", "comma", "quote", "cr", "lf",
             "lone-empty", "lone-number", "no-values"],
    )
    def test_write_rows_is_csv_writer_text(self, tmp_path, rows):
        header = ["a", "", "b,c", None]
        write_rows(tmp_path / "got.csv", header, rows)
        want = self.csv_writer_bytes(tmp_path / "want.csv", header, rows)
        assert (tmp_path / "got.csv").read_bytes() == want

    def test_write_rows_takes_generators(self, tmp_path):
        rows = [[1, 2.5, "x"], (3, -0.0, "y,z")]
        write_rows(tmp_path / "got.csv", iter(["a", "b", "c"]), (iter(row) for row in rows))
        want = self.csv_writer_bytes(tmp_path / "want.csv", ["a", "b", "c"], rows)
        assert (tmp_path / "got.csv").read_bytes() == want

"""CSV round-trips, malformed-file rejection, and SVG rendering."""

import re
import sys
import warnings

import numpy as np
import pytest

from gapdyn import (
    BadNumber,
    Degenerate,
    InvariantViolation,
    MissingHeader,
    NonUniformSpacing,
    OscillatorParams,
    ScenarioConfig,
    OscState,
    analytic_trajectory,
    estimate_ar2,
    integrate_euler,
    read_series_csv,
    write_svg,
    write_trajectory_csv,
)

PARAMS = OscillatorParams(gamma=0.5, alpha=4.0)


def _default_trajectory():
    cfg = ScenarioConfig()
    eps = np.zeros(cfg.n_steps)
    return integrate_euler(cfg.params(), cfg.initial_state(), eps, cfg.grid())


class TestCsvRoundTrip:
    def test_values_reload_bit_identical(self, tmp_path):
        traj = _default_trajectory()
        path = tmp_path / "run.csv"
        write_trajectory_csv(path, traj)
        series = read_series_csv(path)
        assert series.dt == 0.1
        assert np.array_equal(series.values, traj.y)

    def test_header_and_row_count(self, tmp_path):
        traj = _default_trajectory()
        path = tmp_path / "run.csv"
        write_trajectory_csv(path, traj)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,y,ydot,eps"
        assert len(lines) == 1 + traj.grid.n_steps

    def test_write_is_byte_deterministic(self, tmp_path):
        traj = analytic_trajectory(PARAMS, OscState(1.0, 0.0), ScenarioConfig().grid())
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_trajectory_csv(a, traj)
        write_trajectory_csv(b, traj)
        assert a.read_bytes() == b.read_bytes()

    def test_two_rows_parse_but_cannot_be_fit(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("t,y\n0.0,1.0\n0.1,0.9\n")
        series = read_series_csv(path)
        assert series.values.size == 2
        with pytest.raises(Degenerate):
            estimate_ar2(series)


class TestCsvRejection:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MissingHeader):
            read_series_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,gap\n0.0,1.0\n0.1,0.9\n")
        with pytest.raises(MissingHeader):
            read_series_csv(path)

    def test_swapped_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,t\n0.0,1.0\n0.1,0.9\n")
        with pytest.raises(MissingHeader):
            read_series_csv(path)

    def test_header_match_is_case_insensitive(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text(" T , Y \n0.0,1.0\n0.1,0.9\n")
        assert read_series_csv(path).dt == 0.1

    def test_extra_columns_are_ignored(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("t,y,ydot,eps\n0.0,1.0,0.0,0.0\n0.1,0.9,-1.0,0.0\n")
        series = read_series_csv(path)
        assert list(series.values) == [1.0, 0.9]

    def test_single_data_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("t,y\n0.0,1.0\n")
        with pytest.raises(InvariantViolation):
            read_series_csv(path)

    def test_nonuniform_spacing_reports_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("t,y\n0.0,1.0\n0.1,0.9\n0.25,0.8\n")
        with pytest.raises(NonUniformSpacing) as excinfo:
            read_series_csv(path)
        assert "row 4" in str(excinfo.value)

    def test_decreasing_time(self, tmp_path):
        path = tmp_path / "backwards.csv"
        path.write_text("t,y\n0.1,1.0\n0.0,0.9\n")
        with pytest.raises(NonUniformSpacing):
            read_series_csv(path)

    def test_unparseable_cell_reports_row(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("t,y\n0.0,1.0\n0.1,fast\n")
        with pytest.raises(BadNumber) as excinfo:
            read_series_csv(path)
        assert "row 3" in str(excinfo.value)

    def test_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t,y\n0.0,1.0\n0.1,nan\n")
        with pytest.raises(BadNumber):
            read_series_csv(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("t,y\n0.0,1.0\n\n0.1,0.9\n\n0.2,0.8\n")
        series = read_series_csv(path)
        assert series.values.size == 3


class TestSvg:
    def _three_regimes(self):
        grid = ScenarioConfig().grid()
        t = grid.times()
        curves = []
        for label, gamma in [
            ("Under-damped", 0.5),
            ("Critically-damped", 2.0),
            ("Over-damped", 4.0),
        ]:
            traj = analytic_trajectory(
                OscillatorParams(gamma=gamma, alpha=1.0), OscState(1.0, 0.0), grid
            )
            curves.append((label, traj.y))
        return t, curves

    def test_three_series_three_polylines(self, tmp_path):
        t, curves = self._three_regimes()
        path = tmp_path / "fig.svg"
        write_svg(path, t, curves, title="Gap trajectories")
        text = path.read_text()
        assert text.count("<polyline") == 3
        for label, _ in curves:
            assert label in text
        assert "Gap trajectories" in text

    def test_byte_determinism(self, tmp_path):
        t, curves = self._three_regimes()
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        write_svg(a, t, curves)
        write_svg(b, t, curves)
        assert a.read_bytes() == b.read_bytes()

    def test_flat_series_still_renders(self, tmp_path):
        path = tmp_path / "flat.svg"
        write_svg(path, [0.0, 1.0, 2.0], [("steady", [1.0, 1.0, 1.0])])
        assert path.read_text().count("<polyline") == 1

    @pytest.mark.parametrize("axis, values", [
        ("value", [-1.0893719596742687e308, 1.774337954730523e308, 0.0]),
        ("value", [-sys.float_info.max, sys.float_info.max, 0.0]),
        ("value", [1.7e308, 1.7976931348623157e308, 1.79e308]),
        ("value", [1e20, 1e20, 1e20]),
        ("value", [-sys.float_info.max] * 3),
        ("time", [1e300] * 3),
        ("time", [-1e308, 0.0, 1e308]),
        ("time", [-sys.float_info.max, 0.0, sys.float_info.max]),
        ("time", [1e20, 1e20, 1e20]),
    ], ids=["span-past-max", "full-range", "top-pad-past-max", "flat-1e20", "flat-min",
            "time-flat-1e300", "time-span-past-max", "time-full-range", "time-flat-1e20"])
    def test_extreme_ranges_stay_finite(self, tmp_path, axis, values):
        # A span or padded end past the largest float, or a flat line whose
        # +-0.5 band rounds away, used to give nan coordinates and labels
        # (or, on the time axis, a ZeroDivisionError).
        path = tmp_path / "extreme.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if axis == "value":
                write_svg(path, [0.0, 1.0, 2.0], [("y", values)])
            else:
                write_svg(path, values, [("y", [0.0, 1.0, 2.0])])
        text = path.read_text()
        assert "nan" not in text and "inf" not in text
        points = re.search(r'<polyline points="([^"]*)"', text).group(1).split()
        if axis == "value":
            cs = [float(p.split(",")[1]) for p in points]
            assert all(20.0 <= c <= 455.0 for c in cs)
        else:
            cs = [float(p.split(",")[0]) for p in points]
            assert all(60.0 <= c <= 780.0 for c in cs)
        if values[0] == values[1]:
            assert cs[0] == cs[1] == cs[2]
        elif axis == "value":
            assert cs[0] > cs[2] > cs[1]  # a larger value is drawn higher up
        else:
            assert cs[0] < cs[1] < cs[2]  # a later time is drawn further right
        anchor = "end" if axis == "value" else "middle"
        labels = re.findall(f'text-anchor="{anchor}" fill="#444444">([^<]*)<', text)
        assert [float(v) for v in labels] == sorted(float(v) for v in labels)

    def test_non_finite_values_rejected(self, tmp_path):
        with pytest.raises(InvariantViolation):
            write_svg(tmp_path / "x.svg", [0.0, 1.0], [("bad", [1.0, float("nan")])])

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(InvariantViolation):
            write_svg(tmp_path / "x.svg", [0.0, 1.0, 2.0], [("short", [1.0, 2.0])])

    def test_empty_series_list_rejected(self, tmp_path):
        with pytest.raises(InvariantViolation):
            write_svg(tmp_path / "x.svg", [0.0, 1.0], [])

    def test_single_time_point_rejected(self, tmp_path):
        with pytest.raises(InvariantViolation):
            write_svg(tmp_path / "x.svg", [0.0], [("dot", [1.0])])

    def test_label_markup_is_escaped(self, tmp_path):
        path = tmp_path / "esc.svg"
        write_svg(path, [0.0, 1.0], [("a<b&c", [0.0, 1.0])])
        text = path.read_text()
        assert "a&lt;b&amp;c" in text
        assert "a<b" not in text

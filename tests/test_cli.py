import csv
import dataclasses
import io
import json
import math
import os
import sys

import numpy as np
import pytest

from ksblowup import bounds, cli

from conftest import analytic_families, analytic_report, dilated_polygaussian

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "benchmarks"))
import workloads  # noqa: E402

EIGHT_PI = 8.0 * math.pi
LOG125 = math.log(1.25)


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def disk_spec(tmp_path, height=16.0, radius=1.0):
    return write_spec(tmp_path, "disk.json", {
        "family": "disk", "height": height, "radius": radius,
        "center": [0.0, 0.0]})


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, body


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def test_bound_disk_csv(tmp_path, capsys):
    code = cli.main(["bound", disk_spec(tmp_path)])
    assert code == 0
    header, body = parse_csv(capsys.readouterr().out)
    assert header == list(cli.REPORT_COLUMNS)
    values = {row[0]: row for row in body}
    assert set(values) == {"lower", "tc", "virial", "tc1", "tc2", "tc3",
                           "tc3_jung", "tc4", "f_method"}
    assert float(values["tc"][2]) == pytest.approx(0.538546167984, rel=1e-9)
    assert float(values["lower"][2]) == pytest.approx(
        math.exp(-1.0) / (4.0 * LOG125), rel=1e-6)
    assert float(values["tc2"][2]) == pytest.approx(1.0 / (4.0 * LOG125),
                                                    rel=1e-5)
    assert all(row[4] == "computed" for row in body)


def _near_critical_gaussian_rows(tmp_path, e):
    """(exit code, {name: row}) of ``bound --format json`` on the gaussian
    of mass 8 pi (1 + 10^-e)."""
    spec = write_spec(tmp_path, "gauss.json", {
        "family": "gaussian", "mass": EIGHT_PI * (1.0 + 10.0 ** -e),
        "sigma": 1.0})
    out = tmp_path / "report.json"
    code = cli.main(["bound", spec, "--format", "json", "--out", str(out)])
    return code, {r["name"]: r for r in json.loads(out.read_text())["rows"]}


def test_bound_near_critical_f_method_is_inapplicable(tmp_path):
    # a^theta rounds to 1 at the theta scan's first point; the report is
    # written whatever its ordering, which near 8 pi may fail (exit 3)
    code, rows = _near_critical_gaussian_rows(tmp_path, 12.0)
    assert code in (0, 3)
    assert rows["f_method"]["status"] == "inapplicable"
    assert rows["f_method"]["detail"]


def test_bound_near_critical_f_method_is_computed(tmp_path):
    code, rows = _near_critical_gaussian_rows(tmp_path, 8.0)
    assert code == 0
    assert rows["f_method"]["status"] == "computed"
    assert rows["f_method"]["value"] >= rows["tc2"]["value"]


def test_bound_json_round_trip(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["bound", disk_spec(tmp_path), "--format", "json",
                     "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["ordering_ok"] is True
    # decimal renderings survive a parse/render cycle bit-for-bit
    for row in payload["rows"]:
        rendered = cli.format_value(row["value"])
        assert cli.format_value(float(rendered)) == rendered


def test_bound_deterministic_except_timing(tmp_path, capsys):
    spec = disk_spec(tmp_path)
    outputs = []
    for _ in range(2):
        assert cli.main(["bound", spec]) == 0
        _, body = parse_csv(capsys.readouterr().out)
        outputs.append([row[:5] for row in body])  # drop the seconds column
    assert outputs[0] == outputs[1]


def test_bound_subcritical_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, "critical.json", {
        "family": "gaussian", "mass": EIGHT_PI, "sigma": 1.0})
    assert cli.main(["bound", spec]) == 2
    err = capsys.readouterr().err
    assert "supercritical" in err


def test_bound_bad_family_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, "bad.json", {"family": "torus"})
    assert cli.main(["bound", spec]) == 1
    assert "family" in capsys.readouterr().err


def test_bound_non_string_family_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, "bad.json", {"family": ["disk"]})
    assert cli.main(["bound", spec]) == 1
    assert "field: family" in capsys.readouterr().err


def test_bound_missing_field_diagnostic(tmp_path, capsys):
    spec = write_spec(tmp_path, "missing.json", {"family": "disk",
                                                 "height": 16.0})
    assert cli.main(["bound", spec]) == 1
    assert "radius" in capsys.readouterr().err


def test_bound_filter_and_tolerance_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.TOL_ENV_VAR, "1e-5")
    code = cli.main(["bound", disk_spec(tmp_path), "--bounds", "tc,tc4"])
    assert code == 0
    _, body = parse_csv(capsys.readouterr().out)
    assert [row[0] for row in body] == ["tc", "tc4"]
    monkeypatch.setenv(cli.TOL_ENV_VAR, "not-a-number")
    assert cli.main(["bound", disk_spec(tmp_path)]) == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bound_rejects_bad_tolerance_flag(tmp_path, capsys, tol):
    # a NaN or infinite tolerance would silently switch the ordering
    # check off
    assert cli.main(["bound", disk_spec(tmp_path), "--tol", tol]) == 1
    assert "field: tol" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bound_rejects_bad_tolerance_env(tmp_path, capsys, monkeypatch, tol):
    monkeypatch.setenv(cli.TOL_ENV_VAR, tol)
    assert cli.main(["bound", disk_spec(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert cli.TOL_ENV_VAR in err and "field: tol" in err


def test_bound_ordering_violation_exit_code(tmp_path, capsys, monkeypatch):
    from ksblowup import bounds

    def violated(report):
        report.violations = ("tc4=0.1 below tc=0.5",)
        report.ordering_ok = False

    monkeypatch.setattr(bounds, "_check_ordering", violated)
    assert cli.main(["bound", disk_spec(tmp_path)]) == 3
    captured = capsys.readouterr()
    # the report is still written in full; the violation goes to stderr
    _, body = parse_csv(captured.out)
    assert {row[0] for row in body} >= {"tc", "tc4"}
    assert "tc4=0.1 below tc=0.5" in captured.err


def test_bound_dilated_polygaussian_exits_0(tmp_path, capsys):
    # PolyGaussian pool entry 0 dilated by 10^6: its Lp norms at the large
    # q of the lower bound's scan are computed in logs, so lower is finite
    spec = dilated_polygaussian(workloads.radial_entry("polygaussian", 0)[0],
                                1e6)
    assert cli.main(["bound", write_spec(tmp_path, "pg.json", spec)]) == 0
    _, body = parse_csv(capsys.readouterr().out)
    lower = next(row for row in body if row[0] == "lower")
    assert math.isfinite(float(lower[2])), lower


@pytest.mark.parametrize("text", [
    '{"family": "disk", "height": NaN, "radius": 1.0}',
    '{"family": "gaussian", "mass": Infinity, "sigma": 1.0}',
    '{"family": "annulus", "height": 5.0, "r_inner": 1.0, '
    '"r_outer": 2.0, "center": [0.0, -Infinity]}',
    '{"family": "radial_profile", "radii": [0.0, NaN], '
    '"values": [30.0, 0.0]}',
], ids=["nan_height", "inf_mass", "inf_center", "nan_knot"])
def test_bound_refuses_non_finite_spec(tmp_path, capsys, text):
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert cli.main(["bound", str(path)]) == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ('{"family": "disk", "height": NaN, "radius": 1}',
     "height must be finite [field: height]"),
    ('{"family": "gaussian", "mass": Infinity, "sigma": 1}',
     "mass must be finite [field: mass]"),
], ids=["disk_height", "gaussian_mass"])
def test_bound_non_finite_spec_names_its_field(tmp_path, capsys, text,
                                               message):
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert cli.main(["bound", str(path)]) == 1
    assert message in capsys.readouterr().err


def test_bound_refuses_non_finite_grid_cell(tmp_path, capsys):
    vals = np.full((4, 4), 5.0)
    vals[2, 1] = np.nan
    np.save(tmp_path / "g.npy", vals)
    spec = write_spec(tmp_path, "grid.json", {
        "family": "grid",
        "grid": {"path": "g.npy", "rows": 4, "cols": 4, "cell_size": 1.0}})
    assert cli.main(["bound", spec]) == 1
    err = capsys.readouterr().err
    assert "must be finite" in err
    assert "[field: grid.path]" in err


@pytest.mark.parametrize("name", ["g.npy", "g.csv"])
def test_loaded_grid_holds_the_loaded_array(tmp_path, monkeypatch, name):
    # the loader marks the array it read read-only, so the grid holds it
    # without a second copy
    vals = np.zeros((4, 4))
    vals[1:3, 1:3] = 10.0
    if name.endswith(".npy"):
        np.save(tmp_path / name, vals)
    else:
        np.savetxt(tmp_path / name, vals, delimiter=",")
    loaded = []
    for fn in ("load", "loadtxt"):
        def record(*args, _original=getattr(np, fn), **kwargs):
            loaded.append(_original(*args, **kwargs))
            return loaded[-1]
        monkeypatch.setattr(np, fn, record)
    spec = write_spec(tmp_path, "grid.json", {
        "family": "grid",
        "grid": {"path": name, "rows": 4, "cols": 4, "cell_size": 0.5}})
    grid = cli.load_datum(spec)
    assert len(loaded) == 1
    assert np.shares_memory(grid.values, loaded[0])
    assert not grid.values.flags.writeable
    assert np.array_equal(grid.values, vals)


def test_bound_refuses_fractional_power(tmp_path, capsys):
    # the power is read as a number and checked by the family, not
    # truncated to an integer on the way in
    spec = write_spec(tmp_path, "poly.json", {
        "family": "polygaussian", "height": 16.0, "power": 1.5, "rate": 1.0})
    assert cli.main(["bound", spec]) == 1
    assert "power must be a non-negative integer" in capsys.readouterr().err


def test_spec_fields_are_the_dataclass_fields():
    from ksblowup import datum as dt

    for d in (dt.Gaussian(50.0, 1.5, (0.5, -1.0)),
              dt.DiskIndicator(16.0, 1.0),
              dt.Annulus(5.0, 1.0, 2.0, (2.0, 0.0)),
              dt.PolyGaussian(16.0, 2, 1.0),
              dt.DiffGaussians(32.0, 1.0, 2.0),
              dt.RadialProfile((0.0, 0.5, 1.5), (30.0, 20.0, 0.0))):
        spec = {"family": d.family, **dataclasses.asdict(d)}
        if "total_mass" in spec:
            spec["mass"] = spec.pop("total_mass")
        # through JSON, so tuples arrive as lists and integers as ints
        assert cli.datum_from_dict(json.loads(json.dumps(spec))) == d


def test_bound_grid_spec(tmp_path, capsys):
    n, window = 64, 1.25
    h = 2.0 * window / n
    xs = -window + h * (np.arange(n) + 0.5)
    X, Y = np.meshgrid(xs, xs)
    vals = np.where(np.hypot(X, Y) <= 1.0, 16.0, 0.0)
    np.savetxt(tmp_path / "grid.csv", vals, delimiter=",")
    spec = write_spec(tmp_path, "grid.json", {
        "family": "grid",
        "grid": {"path": "grid.csv", "rows": n, "cols": n,
                 "cell_size": h, "origin": [float(xs[0]), float(xs[0])]}})
    assert cli.main(["bound", spec, "--bounds", "tc,tc3"]) == 0
    _, body = parse_csv(capsys.readouterr().out)
    values = {row[0]: float(row[2]) for row in body if row[4] == "computed"}
    assert values["tc"] == pytest.approx(0.5385, rel=2e-2)


def test_bound_one_cell_grid(tmp_path, capsys):
    # all the mass in one cell: tc2's infimum over radii is 0, and
    # the row says so instead of the command crashing.  tc fails too, and
    # the rows that read the cell as a point at its center, tc1 (8e-63)
    # and tc3, tc3_jung and tc4 (0), fall below lower: the check names them
    vals = np.zeros((5, 5))
    vals[2, 2] = 4000.0
    np.savetxt(tmp_path / "g.csv", vals, delimiter=",")
    spec = write_spec(tmp_path, "grid.json", {
        "family": "grid",
        "grid": {"path": "g.csv", "rows": 5, "cols": 5, "cell_size": 0.1}})
    assert cli.main(["bound", spec]) == 3
    out, err = capsys.readouterr()
    _, body = parse_csv(out)
    assert {row[0]: row[4] for row in body}["tc2"] == "inapplicable"
    assert err.splitlines() == [
        f"ordering violation: lower=0.00171748733 above {name}"
        for name in ("tc1=8.06632884e-63", "tc3=0", "tc3_jung=0", "tc4=0")]


def test_bound_grid_shape_mismatch(tmp_path, capsys):
    np.savetxt(tmp_path / "g.csv", np.ones((4, 4)), delimiter=",")
    spec = write_spec(tmp_path, "grid.json", {
        "family": "grid",
        "grid": {"path": "g.csv", "rows": 5, "cols": 4, "cell_size": 1.0}})
    assert cli.main(["bound", spec]) == 1
    assert "shape" in capsys.readouterr().err


@pytest.mark.parametrize("name, text", [
    ("g.csv", "1,2\n3,x\n"),
    ("g.csv", "1,2\n3\n"),
    ("g.npy", ""),
    ("g.npy", None),
], ids=["non_numeric_csv", "ragged_csv", "empty_npy", "object_npy"])
@pytest.mark.parametrize("command", [
    ["bound"], ["sweep", "--param", "sigma", "--from", "1", "--to", "2",
                "--steps", "2"]], ids=["bound", "sweep"])
def test_unreadable_grid_array_names_grid_path(tmp_path, capsys, command,
                                               name, text):
    if text is None:
        # an object array, which np.load refuses without pickle
        np.save(tmp_path / name, np.array([1.0, "x", None], dtype=object),
                allow_pickle=True)
    else:
        (tmp_path / name).write_text(text)
    spec = write_spec(tmp_path, "grid.json", {
        "family": "grid",
        "grid": {"path": name, "rows": 2, "cols": 2, "cell_size": 1.0}})
    assert cli.main([command[0], spec, *command[1:]]) == 1
    err = capsys.readouterr().err
    assert "cannot read grid array" in err
    assert err.rstrip().endswith("[field: grid.path]")


def test_point_of_the_wrong_length_names_its_field(tmp_path, capsys):
    spec = write_spec(tmp_path, "annulus.json", {
        "family": "annulus", "height": 5.0, "r_inner": 1.0, "r_outer": 2.0,
        "center": [1.0, 2.0, 3.0]})
    assert cli.main(["bound", spec]) == 1
    assert "center must be a point in the plane [field: center]" \
        in capsys.readouterr().err
    np.savetxt(tmp_path / "g.csv", np.ones((2, 2)), delimiter=",")
    spec = write_spec(tmp_path, "grid.json", {
        "family": "grid",
        "grid": {"path": "g.csv", "rows": 2, "cols": 2, "cell_size": 1.0,
                 "origin": [0.0]}})
    assert cli.main(["bound", spec]) == 1
    assert "origin must be a point in the plane [field: grid.origin]" \
        in capsys.readouterr().err


@pytest.mark.parametrize("cells, grid, message", [
    ([[1.0, -1.0], [1.0, 1.0]], {},
     "values must be non-negative [field: grid.path]"),
    ([[1.0, 1.0], [1.0, 1.0]], {"cell_size": 0.0},
     "cell_size must be positive [field: grid.cell_size]"),
    ([[1.0, 1.0], [1.0, 1.0]], {"cell_size": -1.0},
     "cell_size must be positive [field: grid.cell_size]"),
    ([[1.0, 1.0], [1.0, 1.0]], {"origin": 5}, "[field: grid.origin]"),
    ([[1.0, 1.0], [1.0, 1.0]], {"origin": "ab"}, "[field: grid.origin]"),
    ([[1.0, 1.0], [1.0, 1.0]], {"origin": [0.0, "x"]},
     "[field: grid.origin]"),
    ([[0.0, 0.0], [0.0, 0.0]], {}, "grid is identically zero"),
], ids=["negative_cell", "zero_cell_size", "negative_cell_size",
        "origin_number", "origin_string", "origin_not_numbers", "zero_grid"])
def test_bad_grid_spec_names_its_field(tmp_path, capsys, cells, grid,
                                       message):
    np.savetxt(tmp_path / "g.csv", np.array(cells), delimiter=",")
    spec = write_spec(tmp_path, "grid.json", {"family": "grid", "grid": {
        "path": "g.csv", "rows": 2, "cols": 2, "cell_size": 1.0, **grid}})
    assert cli.main(["bound", spec]) == 1
    assert capsys.readouterr().err.rstrip().endswith(message)


@pytest.mark.parametrize("spec, message", [
    ({"family": "disk", "height": -1.0, "radius": 1.0},
     "height must be positive [field: height]"),
    ({"family": "disk", "height": 1.0, "radius": 0.0},
     "radius must be positive [field: radius]"),
    ({"family": "gaussian", "mass": 0.0, "sigma": 1.0},
     "mass must be positive [field: mass]"),
    ({"family": "annulus", "height": 1.0, "r_inner": 2.0, "r_outer": 2.0},
     "r_inner must be below r_outer [field: r_inner]"),
    ({"family": "polygaussian", "height": 1.0, "power": 1.5, "rate": 1.0},
     "power must be a non-negative integer [field: power]"),
    ({"family": "diffgaussians", "height": 1.0, "rate_slow": 2.0,
      "rate_fast": 1.0}, "rate_slow must be below rate_fast [field: rate_slow]"),
    ({"family": "radial_profile", "radii": [0.5, 1.0], "values": [1.0, 0.0]},
     "radii must start at 0 [field: radii]"),
    ({"family": "radial_profile", "radii": [0.0, 1.0], "values": [1.0, -1.0]},
     "values must be non-negative [field: values]"),
], ids=["disk_height", "disk_radius", "gaussian_mass", "annulus_radii",
        "polygaussian_power", "diffgaussians_rates", "profile_first_knot",
        "profile_values"])
def test_radial_spec_outside_its_domain_names_its_field(tmp_path, capsys,
                                                        spec, message):
    assert cli.main(["bound", write_spec(tmp_path, "spec.json", spec)]) == 1
    assert capsys.readouterr().err.rstrip().endswith(message)


@pytest.mark.parametrize("spec, param, message", [
    ({"family": "disk", "height": 16.0, "radius": 1.0}, "sigma",
     "sigma=-1.0: height must be positive [field: param]"),
    ({"family": "gaussian", "mass": 60.0, "sigma": 1.0}, "mass",
     "mass=-1.0: mass must be positive [field: param]"),
], ids=["disk_height", "gaussian_mass"])
def test_sweep_value_outside_the_domain_names_the_param(tmp_path, capsys,
                                                        spec, param, message):
    path = write_spec(tmp_path, "spec.json", spec)
    assert cli.main(["sweep", path, "--param", param, "--from", "-1",
                     "--to", "60", "--steps", "2"]) == 1
    assert capsys.readouterr().err.rstrip().endswith(message)


@pytest.mark.parametrize("text, message", [
    ('{"family": "disk",', "spec file is not valid JSON"),
    (None, "cannot read spec file"),
], ids=["not_json", "missing"])
def test_unreadable_spec_exit_code(tmp_path, capsys, text, message):
    path = tmp_path / "spec.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["bound", str(path)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_gaussian_mass_monotone(tmp_path, capsys):
    spec = write_spec(tmp_path, "gauss.json", {
        "family": "gaussian", "mass": 50.27, "sigma": 1.0})
    code = cli.main(["sweep", spec, "--param", "mass",
                     "--from", str(9.0 * math.pi), "--to", str(100.0 * math.pi),
                     "--steps", "20", "--log", "--bounds", "tc,tc4"])
    assert code == 0
    header, body = parse_csv(capsys.readouterr().out)
    assert header == ["mass", "tc", "tc4"]
    assert len(body) == 20
    tc_col = [float(row[1]) for row in body]
    assert all(b < a for a, b in zip(tc_col, tc_col[1:]))


def test_sweep_disk_near_critical_ratio(tmp_path, capsys):
    # sweeping the height toward criticality: tc approaches 2 pi R^2/(M-8pi)
    code = cli.main(["sweep", disk_spec(tmp_path), "--param", "sigma",
                     "--from", "8.8", "--to", "8.008", "--steps", "4",
                     "--bounds", "tc"])
    assert code == 0
    header, body = parse_csv(capsys.readouterr().out)
    assert header == ["sigma", "mass", "tc"]
    ratios = []
    for row in body:
        mass, tc = float(row[1]), float(row[2])
        ratios.append(tc / (2.0 * math.pi / (mass - EIGHT_PI)))
    assert abs(ratios[-1] - 1.0) <= 0.02
    assert abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0)


def test_sweep_ordering_violation_exit_code(tmp_path, capsys, monkeypatch):
    from ksblowup import bounds

    steps = []

    def violated_at_even_steps(report):
        steps.append(report.mass)
        if len(steps) % 2 == 0:
            report.violations = (f"tc4=0.1 below tc=0.{len(steps)}",)
            report.ordering_ok = False

    monkeypatch.setattr(bounds, "_check_ordering", violated_at_even_steps)
    code = cli.main(["sweep", disk_spec(tmp_path), "--param", "sigma",
                     "--from", "16", "--to", "20", "--steps", "5",
                     "--bounds", "tc,tc4"])
    assert code == 3
    captured = capsys.readouterr()
    # every step is still written; the violations follow on stderr
    _, body = parse_csv(captured.out)
    assert len(body) == 5
    assert captured.err.splitlines() == ["step 2: tc4=0.1 below tc=0.2",
                                         "step 4: tc4=0.1 below tc=0.4"]


def test_sweep_subcritical_step_exit_code(tmp_path, capsys):
    # the disk mass pi * height drops below 8 pi at the last step
    assert cli.main(["sweep", disk_spec(tmp_path), "--param", "sigma",
                     "--from", "12", "--to", "6", "--steps", "3",
                     "--bounds", "tc"]) == 2
    assert "supercritical" in capsys.readouterr().err


def test_sweep_zero_steps_usage_error(tmp_path, capsys):
    assert cli.main(["sweep", disk_spec(tmp_path), "--param", "sigma",
                     "--from", "1", "--to", "2", "--steps", "0"]) == 1
    assert "step" in capsys.readouterr().err


@pytest.mark.parametrize("start, stop", [("0", "2"), ("1", "-2")])
def test_log_sweep_refuses_non_positive_endpoints(tmp_path, capsys, start,
                                                  stop):
    assert cli.main(["sweep", disk_spec(tmp_path), "--param", "sigma",
                     "--from", start, "--to", stop, "--steps", "2",
                     "--log"]) == 1
    assert "log sweep needs positive endpoints" in capsys.readouterr().err


def test_sweep_refuses_unknown_bound_names(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", disk_spec(tmp_path), "--param", "sigma",
                     "--from", "12", "--to", "16", "--steps", "2",
                     "--bounds", "tc,tcX", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "unknown bound names: ['tcX']" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["bound", "sweep"])
@pytest.mark.parametrize("selection", ["", " , ", ",,"])
def test_empty_bound_selection_fails_by_name(tmp_path, capsys, monkeypatch,
                                             command, selection):
    # a selection that names no row is refused before any report runs
    from ksblowup import bounds

    def refuse(*args, **kwargs):
        raise AssertionError("a report ran")

    monkeypatch.setattr(bounds, "full_report", refuse)
    out = tmp_path / "out.csv"
    argv = [command, disk_spec(tmp_path), "--bounds", selection,
            "--out", str(out)]
    if command == "sweep":
        argv += ["--param", "sigma", "--from", "12", "--to", "16",
                 "--steps", "2"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == \
        f"error: --bounds {selection!r} names no row [field: bounds]\n"
    assert captured.out == "" and not out.exists()


def test_repeated_bound_names_select_each_row_once(tmp_path, capsys):
    # the first place of a repeated name keeps its column
    assert cli.main(["sweep", disk_spec(tmp_path), "--param", "sigma",
                     "--from", "12", "--to", "16", "--steps", "2",
                     "--bounds", "tc4,tc,tc4, tc"]) == 0
    header, body = parse_csv(capsys.readouterr().out)
    assert header == ["sigma", "mass", "tc4", "tc"]
    assert all(len(row) == 4 for row in body)
    assert cli.main(["bound", disk_spec(tmp_path), "--bounds", "tc,tc"]) == 0
    _, body = parse_csv(capsys.readouterr().out)
    assert [row[0] for row in body] == ["tc"]


def test_unknown_bound_names_name_their_field(tmp_path, capsys):
    assert cli.main(["bound", disk_spec(tmp_path), "--bounds", "tc,tcX"]) == 1
    assert capsys.readouterr().err == \
        "error: unknown bound names: ['tcX'] [field: bounds]\n"


def test_sweep_param_family_mismatch(tmp_path, capsys):
    assert cli.main(["sweep", disk_spec(tmp_path), "--param", "mass",
                     "--from", "30", "--to", "60", "--steps", "2"]) == 1
    assert "does not apply" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_constants_suite(capsys):
    assert cli.main(["verify", "--suite", "constants"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_families_suite(capsys):
    assert cli.main(["verify", "--suite", "families"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 6 and "FAIL" not in out


def test_verify_ordering_suite(monkeypatch, capsys):
    # the suite's 15 reports are the session's cached ones, which
    # acceptance criterion 8 and the golden rows read too
    cases = {d: (name, mass)
             for mass in (9.0 * math.pi, 16.0 * math.pi, 100.0 * math.pi)
             for name, d in analytic_families(mass).items()}

    def cached(density, tolerance=1e-6):
        assert tolerance == 1e-6
        return analytic_report(*cases[density])

    monkeypatch.setattr(bounds, "full_report", cached)
    assert cli.main(["verify", "--suite", "ordering"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS ordering") == 15 and "FAIL" not in out

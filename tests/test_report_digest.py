"""`report_digest.read_digest` and `compare` on hand-written digests.

Every change that moves report values is checked by comparing its digest
with its parent's, so the reader and the comparison are tested here on a
few lines of each kind: report rows, the winner and center lines, a
grid's center forms in the old and the new form, and a sweep table.
"""

import math

import pytest

import report_digest

BEFORE = """\
# ordering-0 gaussian(mass=50.2655, sigma=1) ordering_ok=True
('lower', 'lower', 1.5, 'computed', '', ('finite Lp norm',))
('tc', 'upper', 2.0, 'computed', '', ())
('tc2', 'upper', nan, 'inapplicable', 'why', ())
# grid_dense-0 grid(8x8, mass=60) ordering_ok=True
('tc', 'upper', 3.0, 'computed', '', ())
('tc2', 'upper', np.float64(5.0), 'computed', '', ())
  tc1 winner: (1.5, 0.25)
  tc center: (0.0, 0.0)
  tc2 center: (0.25, -0.5)
  tc2 forms at barycenter: (6.5, 6.0)
  tc4 beta=3: 7.0
# sweep-disk-0 exit=0
sigma,mass,tc,tc2
16,50.2654825,0.125,0.25
18,56.5486678,0.1,
step 2: a line of stderr
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _compare(tmp_path, capsys, after):
    code = report_digest.compare(_write(tmp_path, "before.txt", BEFORE),
                                 _write(tmp_path, "after.txt", after))
    return code, capsys.readouterr().out


def test_read_digest_reads_every_kind_of_line(tmp_path):
    values, flags = report_digest.read_digest(
        _write(tmp_path, "d.txt", BEFORE))
    assert values[("ordering-0", "tc", 0)] == (2.0, "computed")
    tc2 = values[("ordering-0", "tc2", 0)]
    assert math.isnan(tc2[0]) and tc2[1] == "inapplicable"
    assert values[("grid_dense-0", "tc2", 0)] == (5.0, "computed")
    # an older digest's two center forms read as the smaller
    assert values[("grid_dense-0", "tc2_at", 0)] == (6.0, "computed")
    assert values[("grid_dense-0", "tc4_beta3", 0)] == (7.0, "computed")
    assert values[("sweep-disk-0", "tc", 2)] == (0.1, "computed")
    blank = values[("sweep-disk-0", "tc2", 2)]
    assert math.isnan(blank[0]) and blank[1] == "blank"
    assert ("sweep-disk-0", "tc", 3) not in values  # stderr is skipped
    assert flags == {
        "ordering-0": "ordering_ok=True",
        "grid_dense-0": "ordering_ok=True",
        "grid_dense-0 tc1 winner": "(1.5, 0.25)",
        "grid_dense-0 tc center": "(0.0, 0.0)",
        "grid_dense-0 tc2 center": "(0.25, -0.5)",
        "sweep-disk-0": "exit=0"}


def test_identical_digests_compare_clean(tmp_path, capsys):
    code, out = _compare(tmp_path, capsys, BEFORE)
    assert code == 0
    assert "0 status, ordering or exit-code changes" in out


def test_moved_values_are_counted_not_flagged(tmp_path, capsys):
    # the new barycenter line against the old forms line, a report row
    # and a sweep cell moved: counted per row name, exit 0
    after = BEFORE.replace("  tc2 forms at barycenter: (6.5, 6.0)",
                           "  tc2 at barycenter: 5.7") \
        .replace("np.float64(5.0)", "4.0") \
        .replace("16,50.2654825,0.125,0.25", "16,50.2654825,0.125,0.3")
    code, out = _compare(tmp_path, capsys, after)
    assert code == 0
    # a row name's computed values compared, moved, and the largest
    # relative moves up and down
    rows = {line.split()[0]: line.split()[1:]
            for line in out.splitlines()[1:] if not line[0].isdigit()}
    assert rows["tc2"] == ["2", "2", "0.2", "-0.2"]
    assert rows["tc2_at"] == ["1", "1", "0", "-0.05"]
    assert rows["tc"] == ["4", "0", "0", "0"]


@pytest.mark.parametrize("old, new, change", [
    ("('tc', 'upper', 2.0, 'computed', '', ())\n", "",
     "ordering-0 tc: only in before"),
    ("  tc2 center: (0.25, -0.5)", "  tc2 center: (0.25, -0.25)",
     "grid_dense-0 tc2 center: (0.25, -0.5) -> (0.25, -0.25) (moved 0.25)"),
    ("  tc1 winner: (1.5, 0.25)", "  tc1 winner: (2.0, 0.25)",
     "grid_dense-0 tc1 winner: (1.5, 0.25) -> (2.0, 0.25)"),
    ("18,56.5486678,0.1,\n", "18,56.5486678,0.1,0.2\n",
     "sweep-disk-0 tc2 step 2: status blank -> computed"),
    ("# sweep-disk-0 exit=0", "# sweep-disk-0 exit=3",
     "sweep-disk-0: exit=0 -> exit=3"),
    ("'tc2', 'upper', nan, 'inapplicable'", "'tc2', 'upper', 9.0, 'computed'",
     "ordering-0 tc2: status inapplicable -> computed"),
    ("gaussian(mass=50.2655, sigma=1) ordering_ok=True",
     "gaussian(mass=50.2655, sigma=1) ordering_ok=False",
     "ordering-0: ordering_ok=True -> ordering_ok=False"),
], ids=["missing-row", "center", "tc1-winner", "sweep-cell", "sweep-exit",
        "status", "ordering"])
def test_flagged_changes_exit_1(tmp_path, capsys, old, new, change):
    assert old in BEFORE
    code, out = _compare(tmp_path, capsys, BEFORE.replace(old, new))
    assert code == 1
    assert "1 status, ordering or exit-code changes" in out
    assert f"  {change}\n" in out

"""Golden outputs: each case of tests/golden/regen.py is rerun and its
files compared with the ones kept in tests/golden/<case>/.

Integers, strings, config.txt and every manifest field must match exactly.
A float must agree within 1e-12 of the largest magnitude in its CSV
column, which forgives last-bit changes.  Two columns are compared within
an absolute 1e-12 instead: `div_residual`, which is all round-off (about
1e-17, so its own largest value is round-off too), and energy-growth's
z, a dimensionless statistic formed by cancellation.  Scaling every noise
draw by 1 + 1e-14 moves the first by up to 0.7 of its column and the
second by 1.5e-12, which the relative rule would reject.  Each case
prints whether the match was bitwise and its largest difference relative
to its column (absolute in those two).
"""

import json
import math
import shutil

import pytest

from golden.regen import CASES, HERE, run_case

REL_TOL = 1e-12
# (file, column) compared within an absolute REL_TOL
ABSOLUTE = {("diagnostics.csv", "div_residual"), ("energy_summary.csv", "z")}


def _column_kind(cells) -> type:
    for kind in (int, float):
        try:
            for cell in cells:
                kind(cell)
        except ValueError:
            continue
        return kind
    return str


def _compare_csv(golden: str, new: str, name: str, problems: list) -> float:
    """The largest difference of a float of `new` from `golden`, relative
    to the largest magnitude of its column (absolute in the ABSOLUTE
    columns); what does not match goes to `problems`."""
    rows = [line.split(",") for line in golden.splitlines()]
    other = [line.split(",") for line in new.splitlines()]
    if len(other) != len(rows) or other[0] != rows[0] \
            or any(len(a) != len(b) for a, b in zip(rows, other)):
        problems.append(f"{name}: header or shape differs")
        return math.inf
    worst = 0.0
    for j, head in enumerate(rows[0]):
        want = [r[j] for r in rows[1:]]
        got = [r[j] for r in other[1:]]
        kind = _column_kind(want)
        if kind is not float:
            if got != want:
                problems.append(f"{name}: column {head} differs")
            continue
        scale = 1.0 if (name, head) in ABSOLUTE else max(
            (abs(float(v)) for v in want if math.isfinite(float(v))), default=0.0)
        for i, (a, b) in enumerate(zip(want, got)):
            a = float(a)
            try:
                b = float(b)
            except ValueError:
                b = math.nan
            if not math.isfinite(a) or scale == 0.0:
                ok = a == b or (math.isnan(a) and math.isnan(b))
                diff = 0.0 if ok else math.inf
            else:
                diff = abs(a - b) / scale
                ok = diff <= REL_TOL
            worst = max(worst, diff)
            if not ok:
                problems.append(f"{name}: row {i + 1} column {head}: {b!r}, expected {a!r}")
    return worst


def compare(golden_dir, run_dir):
    """(bitwise, largest relative float difference, problems) of the files
    of `run_dir` against those of `golden_dir`."""
    names = sorted(p.name for p in golden_dir.iterdir())
    got_names = sorted(p.name for p in run_dir.iterdir())
    problems = [] if got_names == names else [f"files {got_names}, expected {names}"]
    bitwise, worst = True, 0.0
    for name in names:
        if not (run_dir / name).exists():
            bitwise = False
            continue
        want = (golden_dir / name).read_text(encoding="utf-8")
        got = (run_dir / name).read_text(encoding="utf-8")
        bitwise &= got == want
        if name.endswith(".csv"):
            worst = max(worst, _compare_csv(want, got, name, problems))
        elif name == "manifest.json":
            if json.loads(got) != json.loads(want):
                problems.append("manifest.json differs")
        elif got != want:
            problems.append(f"{name} differs")
    return bitwise, worst, problems


@pytest.mark.parametrize("case", list(CASES))
def test_golden_outputs(case, tmp_path):
    run_case(CASES[case], tmp_path)
    bitwise, worst, problems = compare(HERE / case, tmp_path)
    print(f"golden {case}: bitwise {bitwise}, largest difference {worst:.3g} of its column")
    assert not problems, problems


def test_golden_comparison_rejects_a_perturbed_value(tmp_path):
    # negative control: one value of a golden file moved by 1e-9 relative,
    # the largest of its column, fails the comparison with a fresh run
    golden = tmp_path / "golden"
    shutil.copytree(HERE / "energy-growth", golden)
    run_case(CASES["energy-growth"], tmp_path / "run")
    assert compare(golden, tmp_path / "run")[2] == []
    lines = (golden / "energy.csv").read_text(encoding="utf-8").splitlines()
    i = max(range(1, len(lines)), key=lambda i: float(lines[i].split(",")[1]))
    traj, energy = lines[i].split(",")
    lines[i] = f"{traj},{float(energy) * (1 + 1e-9):.17g}"
    (golden / "energy.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    bitwise, worst, problems = compare(golden, tmp_path / "run")
    assert not bitwise and worst > REL_TOL
    assert problems == [f"energy.csv: row {i} column terminal_energy: "
                        f"{float(energy)!r}, expected {float(lines[i].split(',')[1])!r}"]


def test_golden_comparison_rejects_a_moved_div_residual(tmp_path):
    # negative control of the absolute rule: one div_residual moved by 1e-11
    golden = tmp_path / "golden"
    shutil.copytree(HERE / "simulate-euler", golden)
    run_case(CASES["simulate-euler"], tmp_path / "run")
    lines = (golden / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
    *head, residual = lines[1].split(",")
    lines[1] = ",".join([*head, f"{float(residual) + 1e-11:.17g}"])
    (golden / "diagnostics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    bitwise, worst, problems = compare(golden, tmp_path / "run")
    assert not bitwise and worst > REL_TOL
    assert len(problems) == 1 and "row 1 column div_residual" in problems[0]

"""The output-diff tool's shift figure: each data column over its largest |value|."""

import importlib.util
import json
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "diff_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("diff_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


diff_outputs = _tool()


def _csv(meta, rows):
    lines = [f"# {k} = {v!r}" for k, v in meta.items()] + ["x,y"]
    return "\n".join(lines + [",".join(repr(v) for v in row) for row in rows]).encode()


def _shift(name, a, b):
    text = diff_outputs._largest_shift(name, a, b)
    return float(text.removeprefix(" (largest relative shift ").removesuffix(")"))


def test_a_near_zero_entry_is_measured_against_its_column():
    # 1e-300 -> 2e-300 is a relative shift of 0.5 of the entry, 1e-300 of the column
    a = _csv({"k": 2.0}, [(1.0, 4.0), (1e-300, 3.0)])
    b = _csv({"k": 2.0}, [(1.0, 4.0), (2e-300, 3.0)])
    assert _shift("out.csv", a, b) == 1e-300
    # a metadata value stands alone: 2 -> 2.5 is 0.5 / 2.5
    c = _csv({"k": 2.5}, [(1.0, 4.0), (2e-300, 3.0)])
    assert _shift("out.csv", a, c) == 0.2
    # a shift to a value that is not finite reads nan
    d = _csv({"k": 2.0}, [(1.0, math.inf), (1e-300, 3.0)])
    assert math.isnan(_shift("out.csv", a, d))
    # files of different shapes get no figure
    assert diff_outputs._largest_shift("out.csv", a, a + b"\n1.0,2.0") == ""


def test_json_reports_of_one_structure_get_a_figure_over_their_numeric_leaves():
    a = {"sup": [1e-12, 3.0], "nx": 33, "floor": False, "name": "x", "fit": {"order": 4.0}}
    b = {"sup": [2e-12, 3.0], "nx": 33, "floor": False, "name": "x", "fit": {"order": 3.96}}
    # each leaf stands alone: the 1e-12 -> 2e-12 shift is 0.5 of the leaf
    assert _shift("r.json", json.dumps(a).encode(), json.dumps(b).encode()) == 0.5
    b["sup"] = [1e-12, 3.0, 4.0]
    assert diff_outputs._largest_shift("r.json", json.dumps(a).encode(),
                                       json.dumps(b).encode()) == ""


def test_added_and_removed_metadata_keep_the_column_figure():
    # a key added and one removed, the columns in another order: matched by name
    a = _csv({"k": 2.0, "old": 1.0}, [(1.0, 4.0), (2.0, 3.0)])
    b = "\n".join(["# k = 2.0", "# new_1 = none", "# new_2 = 0.5", "y,x", "4.0,1.0",
                   "3.0,2.000000000002"]).encode()
    text = diff_outputs._largest_shift("out.csv", a, b)
    assert text == " (largest relative shift 1e-12; added new_1, new_2; removed old)"
    assert diff_outputs._largest_shift("out.csv", b, a) == \
        " (largest relative shift 1e-12; added old; removed new_1, new_2)"
    # a column only one version has is listed too; a different row count gets no figure
    c = _csv({"k": 2.0, "old": 1.0}, [(1.0,), (2.0,)]).replace(b"x,y", b"x")
    assert diff_outputs._largest_shift("out.csv", a, c) == \
        " (largest relative shift 0; removed y)"
    assert diff_outputs._largest_shift("out.csv", a, b + b"\n1.0,2.0") == ""


def test_a_value_that_is_not_a_number_on_one_side_is_listed_as_changed():
    def csv(*lines):
        return "\n".join(lines).encode()

    # none -> 0.01 has no shift to measure, so its key is named
    a = csv("# k = 2.0", "# gap = none", "# tag = x", "x,y", "1.0,4.0", "2.0,3.0")
    b = csv("# k = 2.0", "# gap = 0.01", "# tag = x", "x,y", "1.0,4.0", "2.0,3.0")
    assert diff_outputs._largest_shift("out.csv", a, b) == \
        " (largest relative shift 0; changed gap)"
    # beside a numeric shift, an added key and a column that changed to text
    c = csv("# k = 2.5", "# gap = none", "# tag = y", "# new = 1.0", "x,y", "none,4.0",
            "2.0,3.0")
    assert diff_outputs._largest_shift("out.csv", b, c) == \
        " (largest relative shift 0.2; added new; changed gap, tag, x)"
    # text that does not change reads as before
    assert diff_outputs._largest_shift("out.csv", a, a) == " (largest relative shift 0)"


def test_a_value_that_is_nan_in_both_versions_is_unchanged():
    # a nan on both sides is no shift, so the real largest shift is quoted
    a = {"sup": [1.0, 2.0], "fitted_order": math.nan}
    b = {"sup": [1.0, 2.5], "fitted_order": math.nan}
    assert _shift("r.json", json.dumps(a).encode(), json.dumps(b).encode()) == 0.2
    c = _csv({"k": math.nan}, [(1.0, math.nan), (4.0, 3.0)])
    d = _csv({"k": math.nan}, [(1.0, math.nan), (5.0, 3.0)])
    assert _shift("out.csv", c, d) == 0.2
    # a shift to or from nan still reads nan
    e = _csv({"k": math.nan}, [(1.0, 2.0), (5.0, 3.0)])
    assert math.isnan(_shift("out.csv", c, e))


def test_record_and_against_two_calls(tmp_path, capsys):
    calls = [("heteroclinic", "--tol", "1e-6"), ("localize", "--nx", "41", "--frames", "3")]
    record = tmp_path / "OUTPUTS.json"
    assert diff_outputs.main(["--record", str(record), str(TOOL.parents[1])], calls) == 0
    old = json.loads(record.read_text())
    assert set(old["environment"]) == {"python", "numpy", "scipy", "cpu_features"}
    assert [(c["argv"], c["exit"]) for c in old["calls"]] == [(list(c), 0) for c in calls]
    orbit, local = (c["files"] for c in old["calls"])
    assert set(orbit["heteroclinic.csv"]["pinned"]) == {"kappa1"}
    assert local["localize_diagnostics.csv"]["rows"] == 2
    assert set(local["localize_diagnostics.csv"]["pinned"]) == {"halfwidth"}
    assert set(local["localize_residual.json"]["pinned"]) == {"fitted_order"}
    assert all(len(f["sha256"]) == 64 for f in local.values())
    capsys.readouterr()
    assert diff_outputs.main(["--against", str(record), str(TOOL.parents[1])], calls) == 0
    assert capsys.readouterr().out == "2 calls, 7 files: all identical\n"

    # a moved file names its rows and pinned scalars, a moved exit code both codes
    new = json.loads(record.read_text())
    diag = new["calls"][1]["files"]["localize_diagnostics.csv"]
    diag.update(sha256="0" * 64, rows=3, pinned={"halfwidth": "1.5"})
    new["calls"][0]["exit"] = 3
    differ, count, moved = diff_outputs._compare(old, new)
    halfwidth = old["calls"][1]["files"]["localize_diagnostics.csv"]["pinned"]["halfwidth"]
    assert differ == ["heteroclinic --tol 1e-6: exit 0 vs 3",
                      "localize --nx 41 --frames 3: localize_diagnostics.csv "
                      f"(rows 2 vs 3; halfwidth {halfwidth} vs 1.5)"]
    assert (count, moved) == (7, [])
    # in another environment the differences are listed, and --against passes
    new["environment"]["numpy"] = "0.0"
    assert diff_outputs._compare(old, new)[2] == [f"numpy {old['environment']['numpy']} vs 0.0"]
    new["environment"] = old["environment"]
    record.write_text(json.dumps(new))
    assert diff_outputs.main(["--against", str(record), str(TOOL.parents[1])], calls) == 1
    new["environment"] = {**old["environment"], "scipy": "0.0"}
    record.write_text(json.dumps(new))
    assert diff_outputs.main(["--against", str(record), str(TOOL.parents[1])], calls) == 0
    out = capsys.readouterr().out
    assert "2 differ" in out and "another environment" in out and "scipy" in out

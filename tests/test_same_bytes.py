import importlib.util
import json
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "same_bytes.py")


def _tool():
    spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory, files):
    for name, text in files.items():
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_compare_lists_each_differing_csv_with_the_size_of_its_change(tmp_path):
    # the last column moves by at most 3e-13 where the parent's largest
    # finite magnitude is 4, so the size is 7.5e-14; equal infinities and the
    # other columns do not count, a CSV whose row count moved says so, and
    # a manifest that differs is named with the fields that differ
    same_bytes = _tool()
    manifest = json.dumps({"iterations": 3, "converged": False})
    parent = {"coefficients.csv": "index,coeff\n0,1.5\n1,-4\n2,inf\n",
              "trace.csv": "iteration,objective\n1,2\n2,1\n",
              "r.csv": "lon_deg,lat_deg,value\n0,0,1\n",
              "lambda_00/manifest.json": manifest}
    change = dict(parent, **{"coefficients.csv": "index,coeff\n9,1.5000000000003\n1,-4\n2,inf\n",
                             "trace.csv": "iteration,objective\n1,2\n"})
    _write(tmp_path / "parent", parent)
    _write(tmp_path / "change", change)
    _write(tmp_path / "same", parent)
    assert same_bytes.compare(tmp_path / "parent", tmp_path / "same") == []
    assert same_bytes.compare(tmp_path / "parent", tmp_path / "change") == [
        "coefficients.csv (7.5e-14 of the largest)", "trace.csv (2 -> 1 rows)"]
    _write(tmp_path / "change", {"lambda_00/manifest.json": json.dumps(
        {"iterations": 4, "converged": False})})
    assert same_bytes.compare(tmp_path / "parent", tmp_path / "change") == [
        "coefficients.csv (7.5e-14 of the largest)",
        os.path.join("lambda_00", "manifest.json") + " (iterations)",
        "trace.csv (2 -> 1 rows)"]

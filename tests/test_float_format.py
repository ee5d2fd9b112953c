"""Only `pipeline.py` spells the CSV float format: every other module
writes its tables through `pipeline.write_table`, whose ``FLOAT_FMT`` keeps
them lossless."""

import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sphsplines"


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "pipeline.py"}),
                         ids=lambda p: p.name)
def test_float_format_is_spelled_once(path):
    assert "%.17g" not in path.read_text()

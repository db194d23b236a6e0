"""`statdiv eval` reproduces committed reports byte for byte.

Each `<name>_report.json` in `golden/` is the report of `statdiv eval
--config golden/<name>_config.json`. The configs are small and well
separated, so every number in the reports is exact on any BLAS core. A
change that keeps the numbers keeps these files; a change meant to alter
them regenerates them and says why in CHANGES.md.
"""

from pathlib import Path

import pytest

from statdiv.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["nn", "kfda_grid"])
def test_eval_report_is_byte_identical_to_golden(tmp_path, capsys, name):
    assert main(["eval", "--config", str(GOLDEN / f"{name}_config.json"), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").read_bytes() == (GOLDEN / f"{name}_report.json").read_bytes()

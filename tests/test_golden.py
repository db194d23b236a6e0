"""`statdiv eval` reproduces committed reports byte for byte.

Each `<name>_report.json` in `golden/` is the report of `statdiv eval
--config golden/<name>_config.json`. The configs are small and well
separated, so every number in the reports is exact on any BLAS core. The
`kfda_gda` and `kfda_cdl` configs run the two geometric baselines; their
per-set summaries discard the class means that separate the synthetic
classes, so their accuracies sit near chance, but each probe's nearest
gallery set leads the next by a relative margin of 7e-4 or more. A
change that keeps the numbers keeps these files; a change meant to alter
them regenerates them and says why in CHANGES.md.
"""

from pathlib import Path

import pytest

from statdiv.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["nn", "kfda_grid", "kfda_gda", "kfda_cdl"])
def test_eval_report_is_byte_identical_to_golden(tmp_path, capsys, name):
    assert main(["eval", "--config", str(GOLDEN / f"{name}_config.json"), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").read_bytes() == (GOLDEN / f"{name}_report.json").read_bytes()

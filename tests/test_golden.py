"""`statdiv eval` reproduces committed reports byte for byte.

Each `<name>_report.json` in `golden/` is the report of `statdiv eval
--config golden/<name>_config.json`. The configs are small and well
separated, so every number in the reports is exact on any BLAS core. The
`kfda_gda` and `kfda_cdl` configs run the two geometric baselines; their
per-set summaries discard the class means that separate the synthetic
classes, so their accuracies sit near chance, but each probe's nearest
gallery set leads the next by a relative margin of 7e-4 or more. The
`kfda_hl` config pins the Hellinger-Laplace map at a fixed sigma, and the
`kfda_j` config pins the Jeffrey map under the sigma search on harder data,
where the search chooses 0.001 in one repetition and 0.005 in two: a later
sigma wins only on a strictly higher gallery leave-one-out score, so ties
keep the smaller one. Their nearest latent neighbours of another class are
3e-2 (relative) or more further away than the nearest. The
`nn_dr` run also pins each repetition's CG trace, `<name>_trace_rep*.csv`,
to a relative 1e-10: its 17-digit costs move in the last digits from one
BLAS core to another (by at most 2.2e-13 across the cores CI runs), while
the report is the same on each. A change that keeps the numbers keeps
these files; a change meant to alter them regenerates them and says why
in CHANGES.md.
"""

from pathlib import Path

import numpy as np
import pytest

from statdiv.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["nn", "kfda_grid", "kfda_hl", "kfda_j", "kfda_gda", "kfda_cdl", "nn_dr"])
def test_eval_report_is_byte_identical_to_golden(tmp_path, capsys, name):
    assert main(["eval", "--config", str(GOLDEN / f"{name}_config.json"), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").read_bytes() == (GOLDEN / f"{name}_report.json").read_bytes()
    traces = sorted(p.name for p in tmp_path.glob("trace_rep*.csv"))
    assert traces == sorted(p.name[len(name) + 1:] for p in GOLDEN.glob(f"{name}_trace_rep*.csv"))
    for trace in traces:
        actual = (tmp_path / trace).read_text(encoding="utf-8").splitlines()
        expected = (GOLDEN / f"{name}_{trace}").read_text(encoding="utf-8").splitlines()
        assert actual[0] == expected[0]  # the header
        np.testing.assert_allclose(np.loadtxt(actual[1:], delimiter=","), np.loadtxt(expected[1:], delimiter=","),
                                   rtol=1e-10, atol=0.0)

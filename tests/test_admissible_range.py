"""A clean run at any admissible (gamma, s) the config accepts passes, with no warning.

The lattice is gamma in {-2.5, -2, -1.5, -1, -0.5, -0.2} by
s in {1/4, 1/2, 3/4, 0.9}, kept to its admissible pairs (gamma + 2s > -1).
Each experiment joins the module once its clean runs pass at every pair.
"""

import json
import warnings

import pytest

from kgl.cli import main

GAMMAS = (-2.5, -2.0, -1.5, -1.0, -0.5, -0.2)
SS = (0.25, 0.5, 0.75, 0.9)
ADMISSIBLE = [(gamma, s) for gamma in GAMMAS for s in SS if gamma + 2 * s > -1]  # 18 pairs


@pytest.mark.parametrize("gamma,s", ADMISSIBLE)
@pytest.mark.parametrize("experiment", ["sharpness", "norms"])
def test_clean_run_passes_without_a_warning(tmp_path, experiment, gamma, s):
    argv = [experiment, "--gamma", str(gamma), "--s", str(s), "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    with open(tmp_path / experiment / f"report_{experiment}.json") as fh:
        report = json.load(fh)
    assert report["config"]["params"]["gamma"] == gamma and report["config"]["params"]["s"] == s
    assert code == 0, [name for name, ok in report["checks"].items() if not ok]

"""Solver traces on small lasso instances, pinned against stored summaries.

FW, AFW and PFW run under four step rules, EFW under the exact one.
Each run is summarised as its termination cause, its record count, the
step kinds run-length encoded by their first letter ("F3A1D1..." for
three FW steps, an away step and a drop), and f at every 100th record
plus the last.
Regenerate the stored summaries (only when a change is meant to alter the
trajectories) with

    PYTHONPATH=src python tests/test_golden_traces.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from fwkit.objectives import build_instance
from fwkit.solvers import SolverConfig, solve
from fwkit.stepsizes import Armijo, BacktrackingL, ExactLine, LipschitzDep

GOLDEN = Path(__file__).with_name("golden_traces.json")
SEEDS = (3, 4, 5)
VARIANTS = ("FW", "AFW", "PFW")
RULES = ("exact", "armijo", "backtracking", "lipschitz")
F_EVERY = 100


def _rule(name, inst):
    return {"exact": ExactLine, "armijo": Armijo,
            "backtracking": lambda: BacktrackingL(L0=inst.L),
            "lipschitz": lambda: LipschitzDep(inst.L)}[name]()


def _run(seed, variant, rule):
    inst = build_instance("lasso", m=40, n=120, tau=1.0, seed=seed)
    config = SolverConfig(variant=variant, stepsize=_rule(rule, inst), max_iter=3000,
                          gap_tol=1e-9, seed=seed)
    return solve(inst, config)


def summarize(report):
    runs = []
    for rec in report.records:
        if runs and runs[-1][0] == rec.kind[0]:
            runs[-1][1] += 1
        else:
            runs.append([rec.kind[0], 1])
    kinds = "".join("%s%d" % (kind, count) for kind, count in runs)
    last = len(report.records) - 1
    f = [[i, report.records[i].f] for i in range(0, last, F_EVERY)]
    f.append([last, report.records[last].f])
    return {"termination": report.termination, "records": len(report.records),
            "kinds": kinds, "f": f}


def _cases():
    # EFW's correction sets the weights itself, so it runs under one rule
    return ([(s, v, r) for s in SEEDS for v in VARIANTS for r in RULES]
            + [(s, "EFW", "exact") for s in SEEDS])


def _key(seed, variant, rule):
    return "%d/%s/%s" % (seed, variant, rule)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed,variant,rule", _cases())
def test_trace_matches_golden(golden, seed, variant, rule):
    want = golden[_key(seed, variant, rule)]
    got = summarize(_run(seed, variant, rule))
    assert got["termination"] == want["termination"]
    assert got["records"] == want["records"]
    assert got["kinds"] == want["kinds"]
    assert [i for i, _ in got["f"]] == [i for i, _ in want["f"]]
    f_got = np.array([v for _, v in got["f"]])
    f_want = np.array([v for _, v in want["f"]])
    # relative to the starting value: f* is 0 on these instances (m < n), and
    # f near 0 carries rounding of order eps * f_0, not eps * f
    assert np.all(np.abs(f_got - f_want) <= 1e-12 * abs(f_want[0]))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    table = {_key(*case): summarize(_run(*case)) for case in _cases()}
    lines = ["%s: %s" % (json.dumps(key), json.dumps(table[key])) for key in sorted(table)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")

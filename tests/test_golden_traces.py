"""Solver traces pinned against stored summaries.

On small lasso instances FW, AFW and PFW run under four step rules, EFW
under the exact one.  On the n = 12 problems of the benchmark's small
workload, the solver each of them is timed with runs: FW + diminishing on
an interior quadratic, BCFW on a 4-block product, AFW + exact on a graph-cut
base polytope, and PFW and FDFW + exact on a boundary quadratic.
Each run is summarised as its termination cause, its record count, the
step kinds run-length encoded by their first letter ("F3A1D1..." for
three FW steps, an away step and a drop), and f at every 100th record
plus the last.
Store the summaries of cases that have none yet, leaving every stored line
as it is, with

    PYTHONPATH=src python tests/test_golden_traces.py --add

and regenerate them all (only when a change is meant to alter the
trajectories) with ``--write``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from fwkit.objectives import build_instance
from fwkit.solvers import SolverConfig, solve
from fwkit.stepsizes import Armijo, BacktrackingL, Diminishing, ExactLine, LipschitzDep

GOLDEN = Path(__file__).with_name("golden_traces.json")
SEEDS = (3, 4, 5)
VARIANTS = ("FW", "AFW", "PFW")
RULES = ("exact", "armijo", "backtracking", "lipschitz")
# family: (variant, rule, gap_tol) for each run on it
FAMILY_RUNS = {"interior_quadratic": [("FW", "diminishing", 1e-4)],
               "product": [("BCFW", "diminishing", 1e-3)],
               "graph_cut": [("AFW", "exact", 1e-6)],
               "boundary_quadratic": [("PFW", "exact", 1e-10), ("FDFW", "exact", 1e-10)]}
F_EVERY = 100


def _rule(name, inst):
    return {"exact": ExactLine, "armijo": Armijo, "diminishing": Diminishing,
            "backtracking": lambda: BacktrackingL(L0=inst.L),
            "lipschitz": lambda: LipschitzDep(inst.L)}[name]()


def _graph_cut(n, seed):
    """A ring through every node plus each other pair with probability 0.2."""
    rng = np.random.default_rng(seed)
    edges = [(u, (u + 1) % n, float(rng.uniform(0.5, 2.0))) for u in range(n)]
    edges += [(u, v, float(rng.uniform(0.5, 2.0))) for u in range(n)
              for v in range(u + 2, n) if (u, v) != (0, n - 1) and rng.random() < 0.2]
    return build_instance("base_polytope_norm", oracle="graph_cut", n=n, edges=edges)


def _instance(family, seed):
    if family == "lasso":
        return build_instance("lasso", m=40, n=120, tau=1.0, seed=seed)
    if family == "product":
        return build_instance("product", b=4, n=12)
    if family == "graph_cut":
        return _graph_cut(12, seed)
    return build_instance(family, n=12, seed=seed)


def _run(family, seed, variant, rule, gap_tol=1e-9):
    inst = _instance(family, seed)
    config = SolverConfig(variant=variant, stepsize=_rule(rule, inst), max_iter=3000,
                          gap_tol=gap_tol, seed=seed)
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


def _family_cases():
    return [(family, s, v, r, tol) for family, runs in FAMILY_RUNS.items()
            for v, r, tol in runs for s in SEEDS]


def _keyed_runs():
    """(key, run arguments) of every pinned run."""
    return ([("%d/%s/%s" % case, ("lasso",) + case) for case in _cases()]
            + [("%s/%d/%s/%s" % case[:4], case) for case in _family_cases()])


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _check(want, report):
    got = summarize(report)
    assert got["termination"] == want["termination"]
    assert got["records"] == want["records"]
    assert got["kinds"] == want["kinds"]
    assert [i for i, _ in got["f"]] == [i for i, _ in want["f"]]
    f_got = np.array([v for _, v in got["f"]])
    f_want = np.array([v for _, v in want["f"]])
    # relative to the starting value: f* is 0 on the lasso instances (m < n),
    # and f near 0 carries rounding of order eps * f_0, not eps * f
    assert np.all(np.abs(f_got - f_want) <= 1e-12 * abs(f_want[0]))


@pytest.mark.parametrize("seed,variant,rule", _cases())
def test_trace_matches_golden(golden, seed, variant, rule):
    _check(golden["%d/%s/%s" % (seed, variant, rule)], _run("lasso", seed, variant, rule))


@pytest.mark.parametrize("family,seed,variant,rule,gap_tol", _family_cases())
def test_small_problem_trace_matches_golden(golden, family, seed, variant, rule, gap_tol):
    _check(golden["%s/%d/%s/%s" % (family, seed, variant, rule)],
           _run(family, seed, variant, rule, gap_tol))


def _stored_lines():
    """Each stored key's line, verbatim (without its separating comma)."""
    if not GOLDEN.exists():
        return {}
    lines = GOLDEN.read_text().splitlines()[1:-1]
    return {json.loads("{%s}" % line.rstrip(","))
            .popitem()[0]: line.rstrip(",") for line in lines}


if __name__ == "__main__":
    if sys.argv[1:] not in (["--write"], ["--add"]):
        sys.exit(__doc__)
    stored = _stored_lines() if sys.argv[1] == "--add" else {}
    for key, args in _keyed_runs():
        if key not in stored:
            stored[key] = "%s: %s" % (json.dumps(key), json.dumps(summarize(_run(*args))))
    GOLDEN.write_text("{\n" + ",\n".join(stored[key] for key in sorted(stored)) + "\n}\n")

"""The parent-versus-change identity check (``tools/identity.py``) on a tiny solve matrix.

The command runs its fixed matrix in two trees; here the same summaries and
comparison run in-process on a few solves of this tree, once as they are
and once with a planted change.
"""

import importlib.util
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fwkit import solvers
from fwkit.objectives import build_instance
from fwkit.solvers import SolverConfig, solve
from fwkit.stepsizes import ExactLine, LipschitzDep

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"
_spec = importlib.util.spec_from_file_location("identity", _TOOL)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def _summaries(plant=None):
    """Summaries of seven solves (one refused); ``plant`` may alter each report first."""
    simplex = build_instance("simplex_distance", n=6)
    interior = build_instance("interior_quadratic", n=8, seed=2)
    points = np.random.default_rng(1).standard_normal((10, 3)) + 1.0
    jobs = [(simplex, SolverConfig(variant="FW", stepsize=LipschitzDep(simplex.L), gap_tol=1e-6)),
            (interior, SolverConfig(variant="EFW", stepsize=ExactLine(), gap_tol=1e-10)),
            (interior, SolverConfig(variant="PFW", stepsize=ExactLine(), gap_tol=1e-10)),
            (build_instance("min_norm_point", points=points),
             SolverConfig(variant="WolfeMNP", gap_tol=1e-12)),
            (build_instance("lasso", m=5, n=8, seed=2), SolverConfig(variant="FDFW")),
            (build_instance("boundary_quadratic", n=8, seed=3),
             SolverConfig(variant="FDFW", stepsize=ExactLine(), gap_tol=1e-10)),
            (build_instance("product", b=3, n=5), SolverConfig(variant="BCFW", gap_tol=5e-2))]
    out = {}
    for i, (inst, config) in enumerate(jobs):
        report = error = None
        try:
            report = solve(inst, config)
        except Exception as exc:
            error = exc
        if report is not None and plant is not None:
            plant(config.variant, report)
        out[("tiny", 0, i, "job%d" % i, config.variant)] = identity.summarise(inst, report, error)
    return out


def test_the_tree_against_itself_shows_no_difference(capsys):
    assert identity.compare(_summaries(), _summaries()) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["%-9s 0 of %d solves differ" % (v, n)
                     for v, n in (("BCFW", 1), ("EFW", 1), ("FDFW", 2), ("FW", 1), ("PFW", 1),
                                  ("WolfeMNP", 1))]


def test_a_planted_one_ulp_change_in_a_record_is_caught(capsys):
    def plant(variant, report):
        if variant == "EFW":
            rec = report.records[2]
            rec.f = float(np.nextafter(rec.f, np.inf))

    parent, change = _summaries(), _summaries(plant)
    assert identity.compare(parent, change) == 1
    out = capsys.readouterr().out
    assert "tiny seed 0 job 1 job1: f (record 2), 1 field(s) differ" in out
    assert "EFW       1 of 1 solves differ" in out
    # naming the field to skip lets the rest compare equal
    assert identity.compare(parent, change, skip={"f"}) == 0


def test_differing_solves_report_termination_changes_and_the_largest_final_f_move(capsys):
    def plant(variant, report):
        if variant == "EFW":  # the last f one ulp up
            rec = report.records[-1]
            rec.f = float(np.nextafter(rec.f, np.inf))
        elif variant == "PFW":
            report.termination = "MaxIter"

    parent, change = _summaries(), _summaries(plant)
    assert identity.compare(parent, change) == 2
    lines = capsys.readouterr().out.splitlines()
    efw = next(parent[k] for k in parent if k[4] == "EFW")
    f = np.asarray(efw["f"], dtype=np.uint64).view(np.float64)
    move = (np.nextafter(f[-1], np.inf) - f[-1]) / abs(f[0])
    assert lines[-2:] == ["termination changed in 1 of 2 differing solves",
                          "largest |f_final change| / |f_0| among them: %.3g" % move]


@pytest.mark.parametrize("field", ["x_final", "meta.corral", "support", "termination",
                                   "active_set"])
def test_every_kind_of_field_is_compared(field):
    def plant(variant, report):
        if variant != "WolfeMNP":
            return
        if field == "x_final":
            report.meta["x_final"] = report.meta["x_final"].copy()
            report.meta["x_final"][0] = np.nextafter(report.meta["x_final"][0], np.inf)
        elif field == "meta.corral":
            report.meta["corral"] = report.meta["corral"][::-1]
        elif field == "support":
            report.records[0].support = frozenset({99})
        elif field == "active_set":  # one weight one ulp up, with the records and x alone
            weights = report.active_set.weights
            weights[0] = np.nextafter(weights[0], np.inf)
        else:
            report.termination = "MaxIter"

    parent, change = _summaries(), _summaries(plant)
    key = next(k for k in parent if k[4] == "WolfeMNP")
    assert [name for name, _ in identity.differences(parent[key], change[key])] == [field]
    assert identity.differences(parent[key], change[key], skip={field.split(".")[0]}) == []


def test_a_support_held_in_a_private_slot_compares_by_value():
    @dataclass(slots=True)
    class Record:  # keeps its support as a list, and gives it as a frozenset
        k: int
        f: float
        _held: list

        @property
        def support(self):
            return frozenset(self._held)

    inst = build_instance("simplex_distance", n=4)

    def summary(*supports):
        report = SimpleNamespace(records=[Record(k, 1.0, list(s)) for k, s in enumerate(supports)],
                                 termination="GapTol", good_steps=0, meta={}, active_set=None)
        return identity.summarise(inst, report)

    assert identity.record_attributes(Record(0, 1.0, [])) == ["f", "k", "support"]
    assert identity.differences(summary({1}, {1, 2}), summary({1}, {2, 1})) == []
    assert [name for name, _ in identity.differences(summary({1}, {1, 2}),
                                                     summary({1}, {2}))] == ["support"]


def test_constants_and_refusals_come_first():
    a = identity.summarise(build_instance("simplex_distance", n=4), error=ValueError())
    b = dict(a, D=(1.5).hex(), error="InputError", termination="GapTol")
    assert [name for name, _ in identity.differences(a, b)] == ["error", "D", "termination"]


def test_the_fixed_matrix_holds_the_regions_the_benchmark_never_runs(capsys):
    jobs = identity.fixed_jobs()
    assert [(name.split("/")[0], config.variant, start is not None)
            for name, _, config, start in jobs] == (
        [("box", "FDFW", False)] * 2
        + [(region, variant, False) for region in ("box", "linf", "hull", "product")
           for variant in ("AFW", "PFW")]
        + [("interior", "EFW", True), ("matcomp", "FW", False), ("max_clique", "AFW", False),
           ("box64", "AFW", False)])
    # the 64 x 64 least squares is the one fixed job that tracks A x and the gradient
    name, inst, config, start = jobs[-1]
    assert inst.objective.a.size == solvers._TRACK_GRADIENT_MIN
    assert "affine_resyncs" in solve(inst, config).meta
    assert all(job[1].objective.a.size < solvers._TRACK_GRADIENT_MIN for job in jobs[2:6])
    # FDFW on a box, whose minimal-face operations the box declares
    name, inst, config, start = jobs[0]
    summary = identity._summary(inst, config, start)
    assert summary["error"] is None and summary["termination"] == "GapTol"
    key = ("fixed", 0, 0, name, config.variant)
    assert identity.compare({key: summary}, {key: identity._summary(inst, config, start)}) == 0
    assert capsys.readouterr().out == "FDFW      0 of 1 solves differ\n"

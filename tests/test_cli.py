import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwkit import cli
from fwkit import diagnostics as dg
from fwkit import objectives as ob
from fwkit.errors import InputError


def write_config(path, **overrides):
    cfg = {
        "problem": {"family": "simplex_distance", "seed": 0, "params": {"n": 12}},
        "solver": {"variant": "FW", "stepsize": "lipschitz", "max_iter": 500,
                   "gap_tol": 1e-9, "seed": 0, "record_every": 1},
        "checks": ["sublinear_bound"],
        "output": {"prefix": str(path.parent / "out" / path.stem), "format": "csv"},
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    path.write_text(json.dumps(cfg))
    return cfg


def read_trace(prefix):
    with open(prefix + ".trace.csv") as fh:
        return list(csv.DictReader(fh))


def test_run_exit_zero_and_trace_layout(tmp_path):
    cfg_path = tmp_path / "a.json"
    cfg = write_config(cfg_path)
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    prefix = cfg["output"]["prefix"]
    rows = read_trace(prefix)
    header = list(rows[0].keys())
    assert header == ["k", "step_kind", "alpha", "f", "h", "gap",
                      "support_size", "elapsed_ns"]
    ks = [int(r["k"]) for r in rows]
    assert ks == sorted(ks) and len(set(ks)) == len(ks)
    report = json.loads(Path(prefix + ".report.json").read_text())
    assert report["checks"][0]["pass"] is True
    assert report["termination"] in ("GapTol", "MaxIter")
    # 17-significant-digit floats round-trip exactly
    for row in rows:
        assert float(row["f"]) == float(row["f"])


def test_run_schema_violation_exits_two(tmp_path):
    cfg_path = tmp_path / "bad.json"
    write_config(cfg_path, solver={"variant": "NOPE"})
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    cfg_path2 = tmp_path / "bad2.json"
    cfg_path2.write_text("{not json")
    assert cli.main(["run", "--config", str(cfg_path2)]) == 2
    cfg_path3 = tmp_path / "bad3.json"
    write_config(cfg_path3, checks=["made_up_check"])
    assert cli.main(["run", "--config", str(cfg_path3)]) == 2


def test_run_incompatible_solver_family_exits_two(tmp_path):
    cfg_path = tmp_path / "fdfw_nuclear.json"
    write_config(cfg_path,
                 problem={"family": "matcomp", "seed": 0,
                          "params": {"m": 6, "n": 6, "rank": 1, "density": 0.5}},
                 solver={"variant": "FDFW"})
    assert cli.main(["run", "--config", str(cfg_path)]) == 2


def test_run_max_iter_one_terminates_maxiter(tmp_path):
    cfg_path = tmp_path / "one.json"
    cfg = write_config(cfg_path, solver={"max_iter": 1, "gap_tol": 1e-300},
                       checks=[])
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    rows = read_trace(cfg["output"]["prefix"])
    assert len(rows) >= 1
    report = json.loads(Path(cfg["output"]["prefix"] + ".report.json").read_text())
    assert report["termination"] == "MaxIter"


def test_run_inapplicable_check_exits_two(tmp_path):
    cfg_path = tmp_path / "fail.json"
    write_config(cfg_path,
                 problem={"family": "ball_quadratic", "seed": 0,
                          "params": {"n": 4, "eps": 1.0, "c": 0.0}},
                 solver={"variant": "FW", "stepsize": "exact", "max_iter": 50,
                         "gap_tol": 1e-9},
                 checks=["lower_bound"])
    assert cli.main(["run", "--config", str(cfg_path)]) == 2


def test_run_failing_check_exits_three(tmp_path, monkeypatch):
    from fwkit.diagnostics import CheckResult

    cfg_path = tmp_path / "f3.json"
    write_config(cfg_path)

    def failing(report):
        return CheckResult("sublinear_bound", False, -1.0, 1)

    monkeypatch.setitem(cli.dg.CHECKS, "sublinear_bound",
                        cli.dg.CHECKS["sublinear_bound"]._replace(function=failing))
    assert cli.main(["run", "--config", str(cfg_path)]) == 3


def test_run_json_trace_format(tmp_path):
    cfg_path = tmp_path / "j.json"
    cfg = write_config(cfg_path, output={"prefix": str(tmp_path / "out" / "j"),
                                         "format": "json"})
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    rows = json.loads(Path(cfg["output"]["prefix"] + ".trace.json").read_text())
    assert rows[0]["k"] == 0


def test_compare_identical_configs_identical_rows(tmp_path):
    paths = []
    for name in ("c1.json", "c2.json"):
        p = tmp_path / name
        write_config(p, solver={"variant": "AFW", "stepsize": "exact"},
                     checks=[])
        paths.append(str(p))
    out = tmp_path / "table.csv"
    assert cli.main(["compare", "--configs", *paths, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1] == lines[2]


def test_compare_mismatched_problems_exit_two(tmp_path):
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    write_config(p1)
    write_config(p2, problem={"family": "simplex_distance", "seed": 0,
                              "params": {"n": 13}})
    out = tmp_path / "t.csv"
    assert cli.main(["compare", "--configs", str(p1), str(p2), "--out", str(out)]) == 2


def test_compare_failed_run_marks_row_and_exits_three(tmp_path, monkeypatch):
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    write_config(p1, solver={"variant": "FW", "stepsize": "lipschitz"}, checks=[])
    write_config(p2, solver={"variant": "AFW", "stepsize": "exact"}, checks=[])
    from fwkit.solvers import solve as real_solve

    def flaky(instance, config, inexact=None, initial_active=None):
        report = real_solve(instance, config, inexact=inexact,
                            initial_active=initial_active)
        if config.variant == "AFW":
            report.termination = "NumericalError"
        return report

    monkeypatch.setattr(cli, "solve", flaky)
    out = tmp_path / "t.csv"
    assert cli.main(["compare", "--configs", str(p1), str(p2), "--out", str(out)]) == 3
    lines = out.read_text().strip().splitlines()
    assert lines[1].endswith("ok")
    assert lines[2].endswith("failed")


def test_compare_measures_wolfe_mnp_rows_against_the_instances_f_star(tmp_path, monkeypatch):
    # WolfeMNP records the min_norm_point instance's f = 1/2 ||x||^2, so its
    # row is measured against the same f* as AFW's: both read final_h ~ 0
    # (when the instance's f was ||x||^2 the row once read -2.25)
    problem = {"family": "min_norm_point", "seed": 0,
               "params": {"points": [[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]]}}
    paths = []
    for variant, step in (("WolfeMNP", "diminishing"), ("AFW", "exact")):
        p = tmp_path / ("%s.json" % variant)
        write_config(p, problem=problem, solver={"variant": variant, "stepsize": step},
                     checks=[])
        paths.append(str(p))
    references = []
    real_reference = cli.reference_f_star

    def counted(instance, **kwargs):
        references.append(instance.family)
        return real_reference(instance, **kwargs)

    monkeypatch.setattr(cli, "reference_f_star", counted)
    out = tmp_path / "t.csv"
    assert cli.main(["compare", "--configs", *paths, "--out", str(out)]) == 0
    assert references == ["min_norm_point"]  # one f* reference, read by both rows
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["solver"] for r in rows] == ["WolfeMNP", "AFW"]
    assert [r["status"] for r in rows] == ["ok", "ok"]
    for row in rows:
        assert abs(float(row["final_h"])) <= 1e-9


def test_compare_mistyped_solver_field_exits_two_like_run(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p, solver={"max_iter": None}, checks=[])
    out = tmp_path / "t.csv"
    assert cli.main(["run", "--config", str(p)]) == 2
    assert cli.main(["compare", "--configs", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("config error") == 2
    assert not out.exists()


def test_compare_respects_thread_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FWKIT_THREADS", "2")
    paths = []
    for name in ("c1.json", "c2.json"):
        p = tmp_path / name
        write_config(p, checks=[])
        paths.append(str(p))
    out = tmp_path / "t.csv"
    assert cli.main(["compare", "--configs", *paths, "--out", str(out)]) == 0


@pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5"])
def test_compare_refuses_a_thread_count_that_is_not_a_whole_number_from_one(
        tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setenv("FWKIT_THREADS", threads)
    started = []
    monkeypatch.setattr(cli.concurrent.futures, "ThreadPoolExecutor",
                        lambda *a, **k: started.append("pool"))
    monkeypatch.setattr(cli, "solve", lambda *a, **k: started.append("solve"))
    p = tmp_path / "c.json"
    write_config(p, checks=[])
    out = tmp_path / "t.csv"
    assert cli.main(["compare", "--configs", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: FWKIT_THREADS must be a whole number >= 1, got %r"
                          % threads)
    assert "Traceback" not in err and not out.exists() and started == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_compare_takes_one_f_star_reference_for_all_its_configs(tmp_path, monkeypatch,
                                                                threads):
    # lasso has no known f*: the table's rows all read one reference run's bound
    monkeypatch.setenv("FWKIT_THREADS", threads)
    problem = {"family": "lasso", "seed": 3, "params": {"m": 20, "n": 50}}
    paths = []
    for variant, step in (("FW", "diminishing"), ("AFW", "exact"), ("PFW", "armijo")):
        p = tmp_path / ("%s.json" % variant)
        write_config(p, problem=problem, checks=[],
                     solver={"variant": variant, "stepsize": step, "max_iter": 300})
        paths.append(str(p))
    references = []
    real_reference = cli.reference_f_star

    def counted(instance, **kwargs):
        references.append(instance.family)
        return real_reference(instance, **kwargs)

    monkeypatch.setattr(cli, "reference_f_star", counted)
    table = tmp_path / "table.csv"
    assert cli.main(["compare", "--configs", *paths, "--out", str(table)]) == 0
    assert references == ["lasso"]
    lines = table.read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["FW", "AFW", "PFW"]
    for path, line in zip(paths, lines[1:]):
        one = tmp_path / "one.csv"
        assert cli.main(["compare", "--configs", path, "--out", str(one)]) == 0
        assert one.read_text().splitlines() == [lines[0], line]
    assert len(references) == 4


def test_compare_refuses_configs_whose_data_files_differ(tmp_path):
    # the same problem block beside other data: the shared instance would misstate a row
    for name, seed in (("a", "7"), ("b", "8")):
        assert cli.main(["gen", "--family", "lasso", "--param", "m=6", "--param", "n=9",
                         "--seed", seed, "--out", str(tmp_path / name / "lasso")]) == 0
    shared = (tmp_path / "a" / "lasso.config.json").read_text()
    (tmp_path / "b" / "lasso.config.json").write_text(shared)
    paths = [str(tmp_path / name / "lasso.config.json") for name in ("a", "b")]
    out = tmp_path / "t.csv"
    assert cli.main(["compare", "--configs", *paths, "--out", str(out)]) == 2
    assert not out.exists()
    assert cli.main(["compare", "--configs", paths[0], paths[0], "--out", str(out)]) == 0


@pytest.mark.parametrize("checks", [{"lower_bound": 1}, "lower_bound", None, 5])
def test_cli_refuses_checks_that_are_not_a_list_of_names(tmp_path, monkeypatch, capsys,
                                                         checks):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a refused config")

    monkeypatch.setattr(cli, "solve", no_solve)
    cfg_path = tmp_path / "c.json"
    cfg = write_config(cfg_path)
    cfg_path.write_text(json.dumps({**cfg, "checks": checks}))  # a dict would merge
    out = tmp_path / "t.csv"
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert cli.main(["compare", "--configs", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("checks must be a JSON list of check names") == 2
    assert not os.path.exists(cfg["output"]["prefix"] + ".trace.csv")
    assert not out.exists()


def test_gen_byte_identical_and_runnable(tmp_path):
    a = tmp_path / "g1" / "lasso"
    b = tmp_path / "g2" / "lasso"
    args = ["--family", "lasso", "--param", "m=10", "--param", "n=20",
            "--param", "tau=1.0", "--seed", "7"]
    assert cli.main(["gen", *args, "--out", str(a)]) == 0
    assert cli.main(["gen", *args, "--out", str(b)]) == 0
    for suffix in (".design.npy", ".response.npy", ".config.json"):
        assert (a.parent / (a.name + suffix)).read_bytes() == \
               (b.parent / (b.name + suffix)).read_bytes()
    cwd = os.getcwd()
    try:
        os.chdir(a.parent)
        assert cli.main(["run", "--config", "lasso.config.json"]) == 0
    finally:
        os.chdir(cwd)
    rows = read_trace(str(a.parent / "lasso.run"))
    ks = [int(r["k"]) for r in rows]
    assert ks[0] == 0 and ks == sorted(ks)


@pytest.mark.parametrize("family,params,files", [
    ("matcomp", ["m=7", "n=5", "rank=2"], {"observations"}),
    ("svm_dual", ["count=9", "dim=3"], {"points", "labels"})])
def test_gen_data_files_read_back_into_the_same_instance(tmp_path, family, params, files):
    argv = ["gen", "--family", family, "--seed", "4", "--out", str(tmp_path / family)]
    for param in params:
        argv += ["--param", param]
    assert cli.main(argv) == 0
    path = str(tmp_path / (family + ".config.json"))
    cfg = json.loads(Path(path).read_text())
    assert set(cfg["problem"]["data"]) == files
    obj = cli._prepare(path)[4].objective
    if family == "matcomp":
        ref = ob.build_instance("matcomp", seed=4, m=7, n=5, rank=2).objective
        for attr in ("rows", "cols", "values"):
            assert np.array_equal(getattr(obj, attr), getattr(ref, attr))
    else:
        labels = np.load(tmp_path / "svm_dual.labels.npy")
        assert labels.shape == (9,) and set(labels.tolist()) <= {-1.0, 1.0}
        pts = np.load(tmp_path / "svm_dual.points.npy")
        assert np.array_equal(obj.a, (pts * labels[:, None]).T)
    assert cli.main(["run", "--config", path]) == 0
    report = json.loads((tmp_path / (family + ".run.report.json")).read_text())
    assert report["family"] == family


def test_gen_max_clique_from_params(tmp_path):
    prefix = tmp_path / "clique"
    assert cli.main(["gen", "--family", "max_clique", "--param", "n=6",
                     "--param", "p=0.6", "--seed", "3", "--out", str(prefix)]) == 0
    edges = (tmp_path / "clique.edges.txt").read_text().strip().splitlines()
    assert all(len(line.split()) == 2 for line in edges)
    cwd = os.getcwd()
    try:
        os.chdir(tmp_path)
        assert cli.main(["run", "--config", "clique.config.json"]) == 0
    finally:
        os.chdir(cwd)


def test_gen_invalid_family_exits_two(tmp_path):
    assert cli.main(["gen", "--family", "wat", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("family,params,key", [
    ("simplex_distance", ["n=5", "nn=3"], "nn"),
    ("meb_dual", ["count=5", "cnt=3"], "cnt"),
    ("max_clique", ["n=5", "q=0.2"], "q"),
    ("max_clique", ["n=4", "edges_file=graph.txt", "p=0.2"], "p"),  # p draws no edges here
    ("lasso", ["m=4", "n=6", "edges_file=graph.txt"], "edges"),
    ("svm_dual", ["count=5", "cnt=3"], "cnt")])
def test_gen_refuses_a_parameter_that_neither_it_nor_the_family_reads(tmp_path, monkeypatch,
                                                                      capsys, family, params,
                                                                      key):
    # a refused gen writes no file: it once saved the points, labels, design,
    # response or edge list before the family refused the parameter
    (tmp_path / "graph.txt").write_text("1 2\n2 3\n")
    monkeypatch.chdir(tmp_path)
    argv = ["gen", "--family", family, "--out", "g"]
    for param in params:
        argv += ["--param", param]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "takes no parameter %r" % key in err and "Traceback" not in err
    assert [path.name for path in tmp_path.iterdir()] == ["graph.txt"]


@pytest.mark.parametrize("family,param", [("simplex_distance", "n=0"),
                                         ("interior_quadratic", "n=1")])
def test_gen_refuses_a_size_the_family_cannot_build(tmp_path, monkeypatch, capsys, family,
                                                    param):
    # these once raised ZeroDivisionError: a traceback and exit 1
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen", "--family", family, "--param", param, "--out", "g"]) == 2
    err = capsys.readouterr().err
    assert "config error: %s's n must be in" % family in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("line", ["0 3", "1 4"])
def test_gen_and_run_refuse_a_max_clique_edge_outside_its_nodes(tmp_path, monkeypatch, capsys,
                                                                line):
    # node 0 of a 1-based file once wrapped to node n - 1, and node n + 1 raised IndexError
    (tmp_path / "g.txt").write_text("1 2\n%s\n" % line)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen", "--family", "max_clique", "--param", "n=3",
                     "--param", "edges_file=g.txt", "--out", "clique"]) == 2
    err = capsys.readouterr().err
    assert "edge endpoint out of range" in err and "Traceback" not in err
    assert [path.name for path in tmp_path.iterdir()] == ["g.txt"]
    write_config(tmp_path / "c.json", problem={"family": "max_clique", "seed": 0,
                                               "params": {"n": 3}, "data": {"edges": "g.txt"}},
                 checks=[])
    assert cli.main(["run", "--config", "c.json"]) == 2
    assert "edge endpoint out of range" in capsys.readouterr().err


def test_run_inexact_oracle_with_rate_check(tmp_path):
    cfg_path = tmp_path / "inexact.json"
    write_config(cfg_path,
                 problem={"family": "simplex_distance", "seed": 0,
                          "params": {"n": 15}},
                 solver={"variant": "FW", "stepsize": "diminishing",
                         "max_iter": 800, "gap_tol": 1e-300,
                         "inexact": {"mode": "decaying", "delta": 1.0, "seed": 0}},
                 checks=["inexact_rate"])
    assert cli.main(["run", "--config", str(cfg_path)]) == 0


def test_run_inexact_rate_on_the_default_decaying_schedule(tmp_path):
    # an inexact block without "mode" runs the decaying schedule, whose rate
    # the check claims: the config was once refused with exit 2
    cfg_path = tmp_path / "inexact.json"
    cfg = write_config(cfg_path,
                       problem={"family": "simplex_distance", "seed": 0, "params": {"n": 15}},
                       solver={"variant": "FW", "stepsize": "diminishing",
                               "max_iter": 800, "gap_tol": 1e-300,
                               "inexact": {"delta": 1.0, "seed": 0}},
                       checks=["inexact_rate"])
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    report = json.loads(Path(cfg["output"]["prefix"] + ".report.json").read_text())
    assert [(c["check"], c["pass"]) for c in report["checks"]] == [("inexact_rate", True)]


# a config block that violates each value a check's hypothesis may require
_VIOLATING = {
    "family": lambda value: {"problem": {"family": "interior_quadratic" if value == "simplex_distance"
                                         else "simplex_distance", "seed": 0, "params": {"n": 5}}},
    "stepsize": lambda value: {"solver": {"stepsize": "exact" if value != "exact" else "armijo"}},
    "inexact_mode": lambda value: {"solver": {"inexact": {
        "mode": "constant" if value != "constant" else "decaying", "delta": 0.1}}},
}
_HYPOTHESES = [name for name, check in dg.CHECKS.items() if check.hypothesis is not None]


@pytest.mark.parametrize("name", _HYPOTHESES)
def test_cli_refuses_a_config_against_a_check_hypothesis(tmp_path, name):
    key, value, _ = dg.CHECKS[name].hypothesis
    cfg_path = tmp_path / "c.json"
    cfg = write_config(cfg_path, checks=[name], **_VIOLATING[key](value))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    out = tmp_path / "t.csv"
    assert cli.main(["compare", "--configs", str(cfg_path), "--out", str(out)]) == 2
    assert not os.path.exists(cfg["output"]["prefix"] + ".trace.csv")
    assert not os.path.exists(cfg["output"]["prefix"] + ".report.json")
    assert not out.exists()


@pytest.mark.parametrize("name", _HYPOTHESES)
def test_a_check_refuses_a_report_against_its_hypothesis(tmp_path, name):
    key, value, wording = dg.CHECKS[name].hypothesis
    cfg_path = tmp_path / "c.json"
    write_config(cfg_path, checks=[])
    _, _, _, _, instance, config, _ = cli._prepare(str(cfg_path))
    report = cli.solve(instance, config)
    report.meta.update(inexact_mode="decaying", inexact_delta=0.0, inexact_kappa=1.0)
    report.meta[key] = "not " + value
    with pytest.raises(InputError, match=wording):
        dg.CHECKS[name].function(report)
    report.meta[key] = value  # the hypothesis met, the check runs
    assert dg.CHECKS[name].function(report).check == name


def test_run_submodular_builtin_with_edge_file(tmp_path):
    edge_file = tmp_path / "graph.txt"
    edge_file.write_text("1 2 2.0\n2 3 1.0\n3 4 3.0\n1 4 1.0\n")
    cfg_path = tmp_path / "cut.json"
    write_config(cfg_path,
                 problem={"family": "base_polytope_norm", "seed": 0,
                          "params": {"n": 4, "oracle": "graph_cut"},
                          "data": {"edges": "graph.txt"}},
                 solver={"variant": "AFW", "stepsize": "exact",
                         "max_iter": 400, "gap_tol": 1e-9},
                 checks=[])
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    report = json.loads((tmp_path / "out" / "cut.report.json").read_text())
    assert report["termination"] == "GapTol"


def test_run_refuses_a_parameter_the_family_does_not_take(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg = write_config(cfg_path, problem={"family": "simplex_distance", "seed": 0,
                                          "params": {"n": 12, "tua": 1.0}})
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: simplex_distance takes no parameter 'tua'" in err
    assert "Traceback" not in err and not os.path.exists(cfg["output"]["prefix"] + ".trace.csv")


def _lasso_data(tmp_path):
    rng = np.random.default_rng(3)
    np.save(tmp_path / "a.npy", rng.standard_normal((6, 9)))
    np.save(tmp_path / "b.npy", rng.standard_normal(6))
    return {"design": "a.npy", "response": "b.npy"}


@pytest.mark.parametrize("extra, message", [
    ({"desing": "a.npy"}, "unknown data field 'desing'"),
    ({"points": "a.npy"}, "lasso takes no parameter 'points'"),
])
def test_run_refuses_a_data_file_it_cannot_give_the_family(tmp_path, capsys, extra, message):
    data = _lasso_data(tmp_path)
    cfg_path = tmp_path / "c.json"
    write_config(cfg_path, problem={"family": "lasso", "seed": 0, "params": {}, "data": data})
    assert cli.main(["run", "--config", str(cfg_path)]) == 0  # the design sets n = 9
    write_config(cfg_path, problem={"family": "lasso", "seed": 0, "params": {},
                                    "data": {**data, **extra}})
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_run_exits_two_on_a_data_path_that_is_a_directory(tmp_path, capsys):
    (tmp_path / "d.npy").mkdir()
    cfg_path = tmp_path / "c.json"
    write_config(cfg_path, problem={"family": "lasso", "seed": 0, "params": {},
                                    "data": {**_lasso_data(tmp_path), "design": "d.npy"}})
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: [Errno 21] Is a directory" in err and "Traceback" not in err


@pytest.mark.parametrize("family, params, key, text", [
    ("matcomp", {"m": 3, "n": 3}, "observations", "1 1 0.5\n1 2 x\n"),
    ("max_clique", {"n": 3}, "edges", "1 2\n1.5 3\n"),
    ("matcomp", {"m": 3, "n": 3}, "observations", "1 1 0.5\n1 2 3 4\n"),
    ("max_clique", {"n": 3}, "edges", "1 2\n1 2 3 4\n"),
])
def test_run_exits_two_on_a_malformed_data_line_naming_it(tmp_path, capsys, family, params,
                                                         key, text):
    (tmp_path / "d.txt").write_text(text)
    cfg_path = tmp_path / "c.json"
    write_config(cfg_path, problem={"family": family, "seed": 0, "params": params,
                                    "data": {key: "d.txt"}})
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "d.txt, line 2 %r is not" % text.splitlines()[1] in err and "Traceback" not in err


def test_gen_copies_a_base_polytope_edges_file_beside_its_config(tmp_path, monkeypatch):
    (tmp_path / "graph.txt").write_text("1 2 2.0\n2 3 0.1\n3 4\n1 4 1.5\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen", "--family", "base_polytope_norm", "--param", "n=4",
                     "--param", "oracle=graph_cut", "--param", "edges_file=graph.txt",
                     "--out", "sub/cut"]) == 0
    cfg = json.loads((tmp_path / "sub" / "cut.config.json").read_text())
    assert cfg["problem"]["params"] == {"n": 4, "oracle": "graph_cut"}
    assert ob.load_edge_list(tmp_path / "sub" / "cut.edges.txt") == \
        ob.load_edge_list(tmp_path / "graph.txt")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert cli.main(["run", "--config", "../sub/cut.config.json"]) == 0
    assert (tmp_path / "sub" / "cut.run.report.json").exists()


def test_gen_min_norm_point_runs_wolfe(tmp_path):
    prefix = tmp_path / "mnp"
    assert cli.main(["gen", "--family", "min_norm_point", "--param", "count=12",
                     "--param", "dim=3", "--seed", "2", "--out", str(prefix)]) == 0
    cfg = json.loads((tmp_path / "mnp.config.json").read_text())
    assert cfg["solver"]["variant"] == "WolfeMNP"
    cwd = os.getcwd()
    try:
        os.chdir(tmp_path)
        assert cli.main(["run", "--config", "mnp.config.json"]) == 0
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("variant", ["WolfeMNP", "EFW"])
def test_run_refuses_a_solver_field_it_does_not_know(tmp_path, capsys, variant):
    # efw_inner_tol is no field: each variant's corral tolerance is its capability's
    cfg_path = tmp_path / "w.json"
    cfg = write_config(cfg_path,
                       problem={"family": "min_norm_point", "seed": 0,
                                "params": {"points": [[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]]}},
                       solver={"variant": variant, "efw_inner_tol": 1e-6}, checks=[])
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert "unknown solver field 'efw_inner_tol'" in capsys.readouterr().err
    assert not os.path.exists(cfg["output"]["prefix"] + ".trace.csv")


@pytest.mark.parametrize("block,key,value", [
    ("output", "fromat", "json"), ("config", "chekcs", ["lower_bound"]),
    ("problem", "sead", 3), ("inexact", "delat", 0.5)])
def test_run_refuses_an_unknown_key_in_every_block(tmp_path, capsys, block, key, value):
    # a misspelled delta would otherwise run the inexact schedule with delta 0
    cfg_path = tmp_path / "typo.json"
    cfg = write_config(cfg_path, solver={"inexact": {"mode": "decaying", "delta": 1.0}},
                       checks=[])
    {"config": cfg, "problem": cfg["problem"], "output": cfg["output"],
     "inexact": cfg["solver"]["inexact"]}[block][key] = value
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert "unknown %s field %r" % (block, key) in capsys.readouterr().err
    assert not os.path.exists(cfg["output"]["prefix"] + ".trace.csv")


@pytest.mark.parametrize("variant", ["EFW", "WolfeMNP"])
def test_run_refuses_per_step_guarantees_where_no_rule_sizes_the_steps(tmp_path, capsys,
                                                                        variant):
    # EFW and Wolfe's method report no stepsize, so the check's hypothesis
    # fails on the planned meta: refused before the solve (this config once
    # solved in full, then exited 3 with no trace)
    cfg_path = tmp_path / "e.json"
    cfg = write_config(cfg_path,
                       problem={"family": "min_norm_point", "seed": 0,
                                "params": {"points": [[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]]}},
                       solver={"variant": variant, "stepsize": "lipschitz"},
                       checks=["per_step_guarantees"])
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert "not to stepsize None" in capsys.readouterr().err
    assert not os.path.exists(cfg["output"]["prefix"] + ".trace.csv")
    assert not os.path.exists(cfg["output"]["prefix"] + ".report.json")


def test_run_writes_its_prefix_relative_to_the_config_file(tmp_path, monkeypatch):
    # like the data paths: `fwkit run --config cli/prod1.config.json` writes cli/prod1.run.*
    (tmp_path / "cli").mkdir()
    write_config(tmp_path / "cli" / "c.json", output={"prefix": "out/c.run"})
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--config", os.path.join("cli", "c.json")]) == 0
    assert sorted(os.listdir(tmp_path / "cli" / "out")) == ["c.run.report.json",
                                                            "c.run.trace.csv"]
    assert sorted(os.listdir(tmp_path)) == ["cli"]


def test_wolfe_mnp_rejects_other_families(tmp_path):
    cfg_path = tmp_path / "w.json"
    write_config(cfg_path, solver={"variant": "WolfeMNP"}, checks=[])
    assert cli.main(["run", "--config", str(cfg_path)]) == 2


def test_gen_product_is_bcfw_compatible(tmp_path):
    prefix = tmp_path / "prod"
    assert cli.main(["gen", "--family", "product", "--param", "b=3",
                     "--param", "n=4", "--seed", "1", "--out", str(prefix)]) == 0
    cfg = json.loads((tmp_path / "prod.config.json").read_text())
    assert cfg["solver"]["variant"] == "BCFW"
    cwd = os.getcwd()
    try:
        os.chdir(tmp_path)
        assert cli.main(["run", "--config", "prod.config.json"]) == 0
    finally:
        os.chdir(cwd)
    # the generated config reaches its gap_tol (BCFW + diminishing ended
    # MaxIter at gap 1.4e-2 on b=3, n=5, seed 1)
    report = json.loads((tmp_path / "prod.run.report.json").read_text())
    assert cfg["solver"]["stepsize"] == "exact"
    assert report["termination"] == "GapTol"


def test_run_refuses_an_f_star_reference_that_cannot_run(tmp_path):
    # matcomp has no known f*, and reference_f_star's AFW run needs a
    # polytopal region: refused before the solve, so nothing is written
    cfg_path = tmp_path / "mc.json"
    cfg = write_config(cfg_path,
                       problem={"family": "matcomp", "seed": 0,
                                "params": {"m": 5, "n": 4, "rank": 1, "density": 0.5}},
                       solver={"variant": "FW", "stepsize": "exact", "max_iter": 20})
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert not os.path.exists(cfg["output"]["prefix"] + ".trace.csv")
    cfg["checks"] = ["nonconvex_min_gap"]  # reads no f*
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(cfg_path)]) in (0, 3)
    assert os.path.exists(cfg["output"]["prefix"] + ".trace.csv")


@pytest.mark.parametrize("check", ["sublinear_bound", "min_gap_rate"])
def test_wolfe_mnp_runs_checks_on_f_star_or_l(tmp_path, check):
    # WolfeMNP records the instance's f, whose L and D the report carries:
    # checks that read f* or L run on its trace (they were once refused, and
    # before that ended in an uncaught KeyError)
    cfg_path = tmp_path / "w.json"
    cfg = write_config(cfg_path,
                       problem={"family": "min_norm_point", "seed": 0,
                                "params": {"points": [[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]]}},
                       solver={"variant": "WolfeMNP", "stepsize": "diminishing"},
                       checks=[check])
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    report = json.loads(Path(cfg["output"]["prefix"] + ".report.json").read_text())
    assert report["termination"] == "GapTol"
    assert [(c["check"], c["pass"]) for c in report["checks"]] == [(check, True)]


_MATRIX_PARAMS = {
    "lasso": {"m": 6, "n": 10},
    "meb_dual": {"points": [[0.0, 1.0], [1.0, 0.5], [-1.0, 0.2], [0.3, -1.0]]},
    "svm_dual": {"points": [[0.0, 1.0], [1.0, 0.5], [-1.0, 0.2], [0.3, -1.0]],
                 "labels": [1.0, -1.0, 1.0, -1.0]},
    "max_clique": {"n": 5, "edges": [[0, 1], [1, 2], [0, 2], [3, 4]]},
    "matcomp": {"m": 4, "n": 3, "rank": 1, "density": 0.6},
    "simplex_distance": {"n": 5},
    "interior_quadratic": {"n": 5},
    "boundary_quadratic": {"n": 5},
    "ball_quadratic": {"n": 3},
    "product": {"b": 2, "n": 3},
    "base_polytope_norm": {"n": 4},
    "min_norm_point": {"points": [[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]]},
}


def test_run_exits_two_exactly_where_the_capability_table_refuses(tmp_path):
    from fwkit.errors import CapabilityError
    from fwkit.objectives import FAMILIES
    from fwkit.solvers import CAPABILITIES, check_capability

    assert set(_MATRIX_PARAMS) == set(FAMILIES)
    for family, params in _MATRIX_PARAMS.items():
        for variant in CAPABILITIES:
            for inexact in (False, True):
                sol = {"variant": variant, "stepsize": "exact", "max_iter": 5,
                       "gap_tol": 1e-9}
                if inexact:
                    sol["inexact"] = {"mode": "constant", "delta": 0.1}
                name = "%s-%s-%d" % (family, variant, inexact)
                cfg_path = tmp_path / (name + ".json")
                cfg = write_config(cfg_path, problem={"family": family, "seed": 0,
                                                      "params": params},
                                   solver=sol, checks=[])
                code = cli.main(["run", "--config", str(cfg_path)])
                instance = cli._build_problem(cfg["problem"], dict(params), {})
                try:
                    check_capability(instance, variant, inexact=inexact)
                    refused = False
                except CapabilityError:
                    refused = True
                try:
                    cli.solve(instance, cli._solver_config(cfg["solver"], instance),
                              inexact=cli._maybe_inexact(cfg["solver"], instance))
                    raised = False
                except CapabilityError:
                    raised = True
                assert (code == 2) == refused == raised, name


def _accepted_pairs():
    from fwkit.errors import CapabilityError
    from fwkit.solvers import CAPABILITIES, check_capability

    pairs = []
    for family, params in sorted(_MATRIX_PARAMS.items()):
        instance = cli._build_problem({"family": family}, dict(params), {})
        for variant in CAPABILITIES:
            try:
                check_capability(instance, variant)
            except CapabilityError:
                continue
            pairs.append((family, variant))
    return pairs


@pytest.mark.parametrize("family,variant", _accepted_pairs())
@settings(max_examples=4, deadline=None)
@given(rule=st.sampled_from(["diminishing", "exact", "lipschitz", "armijo"]),
       inexact=st.sampled_from([None, "constant", "decaying"]), seed=st.integers(0, 3))
def test_planned_meta_is_the_reports_meta_on_every_planned_key(family, variant, rule, inexact,
                                                                seed):
    from fwkit.solvers import CAPABILITIES, planned_meta

    sol = {"variant": variant, "stepsize": rule, "max_iter": 4, "gap_tol": 1e-9, "seed": seed}
    if inexact is not None and CAPABILITIES[variant].inexact:
        sol["inexact"] = {"mode": inexact, "delta": 0.5}
    instance = cli._build_problem({"family": family}, dict(_MATRIX_PARAMS[family]), {})
    config, oracle = cli._solver_config(sol, instance), cli._maybe_inexact(sol, instance)
    planned = planned_meta(instance, config, oracle)
    meta = cli.solve(instance, config, inexact=oracle).meta
    assert {"family", "variant", "stepsize", "L", "D"} <= set(planned)
    assert ("inexact_mode" in planned) == ("inexact" in sol)
    for key, value in planned.items():
        np.testing.assert_equal(meta[key], value, err_msg=key)


@pytest.mark.parametrize("family,params,missing", [
    ("meb_dual", {}, "points"),
    ("min_norm_point", {}, "points"),
    ("svm_dual", {}, "points"),
    ("svm_dual", {"points": [[0.0, 1.0], [1.0, 0.0]]}, "labels"),
])
def test_run_names_a_missing_points_or_labels_parameter(tmp_path, capsys, family, params,
                                                          missing):
    cfg_path = tmp_path / "c.json"
    write_config(cfg_path, problem={"family": family, "seed": 0, "params": params},
                 checks=[])
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: %s needs the parameter %r" % (family, missing) in err


def test_run_still_reads_points_and_labels_given_inline(tmp_path):
    cfg_path = tmp_path / "svm.json"
    params = {"points": [[1.0, 0.5], [-0.5, 1.0], [0.2, -1.0]], "labels": [1, -1, 1]}
    write_config(cfg_path, problem={"family": "svm_dual", "seed": 0, "params": params},
                 checks=[])
    assert cli.main(["run", "--config", str(cfg_path)]) == 0

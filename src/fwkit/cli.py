"""Configuration-driven benchmark runner.

Subcommands:
  run      --config <path>                 solve one problem, export trace + report
  compare  --configs <paths...> --out <p>  run several solvers on one problem
  gen      --family <name> [--param k=v]   write instance data + ready config

Configs are single JSON documents; see the README for the schema.  Exit
codes: 0 all requested checks passed, 2 config/schema error, 3 numerical
or check failure (partial outputs are still written).  The environment
variable FWKIT_THREADS caps compare's parallelism (default 1).
"""

import argparse
import concurrent.futures
import dataclasses
import inspect
import itertools
import json
import os
import sys

import numpy as np

from . import diagnostics as dg
from . import objectives as ob
from . import regions as rg
from .errors import CapabilityError, FwkitError, InputError
from .solvers import REFERENCE_VARIANT, SolverConfig, check_capability, planned_meta, \
    reference_f_star, solve
from .stepsizes import rule_from_name

# the solver block's numeric fields, SolverConfig's int and float ones (absent: its default)
_SOLVER_FIELDS = {f.name: f.type for f in dataclasses.fields(SolverConfig)
                  if f.type in (int, float)}
# each data key's file suffix (gen writes the file beside its config), reader and writer;
# the file is read as the family parameter of that name
_DATA = {"design": (".design.npy", np.load, np.save),
         "response": (".response.npy", np.load, np.save),
         "points": (".points.npy", np.load, np.save), "labels": (".labels.npy", np.load, np.save),
         "edges": (".edges.txt", ob.EDGES.load, ob.EDGES.save),
         "observations": (".obs.txt", ob.OBSERVATIONS.load, ob.OBSERVATIONS.save)}
# the keys each block takes; any other is refused by name
_KEYS = {"config": ("problem", "solver", "checks", "output"),
         "problem": ("family", "seed", "params", "data"), "output": ("prefix", "format"),
         "solver": ("variant", "stepsize", "inexact", *_SOLVER_FIELDS),
         "inexact": tuple(inspect.signature(rg.InexactSchedule).parameters), "data": tuple(_DATA)}
# the columns of a trace and of compare's table, in order
_TRACE_COLUMNS = ("k", "step_kind", "alpha", "f", "h", "gap", "support_size", "elapsed_ns")
_COMPARE_COLUMNS = ("solver", "iters_to_tol", "final_h", "fitted_q", "good_fraction", "status")


class ConfigError(Exception):
    pass


# what refuses a config, or a file it names, before any solve: exit 2
_CONFIG_ERRORS = (ConfigError, InputError, CapabilityError, KeyError, TypeError, ValueError,
                  OSError)


def _fail(msg):
    raise ConfigError(msg)


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        _fail("cannot read config: %s" % exc)
    except json.JSONDecodeError as exc:
        _fail("config is not valid JSON: %s" % exc)
    if not isinstance(cfg, dict):
        _fail("config must be a JSON object")
    return cfg


def _validate(cfg, base_dir="."):
    for key in ("problem", "solver", "output"):
        if key not in cfg:
            _fail("config lacks the %r block" % key)
    prob, sol = cfg["problem"], cfg["solver"]
    inexact = isinstance(sol, dict) and sol.get("inexact") or {}
    data = isinstance(prob, dict) and prob.get("data") or {}
    for name, block in (("config", cfg), ("problem", prob), ("solver", sol),
                        ("output", cfg["output"]), ("inexact", inexact), ("data", data)):
        if not isinstance(block, dict):
            _fail("the %s block must be a JSON object" % name)
        for key in block:
            if key not in _KEYS[name]:
                _fail("unknown %s field %r" % (name, key))
    checks = cfg.get("checks", [])
    if not isinstance(checks, list) or not all(isinstance(check, str) for check in checks):
        _fail("checks must be a JSON list of check names")
    for check in checks:
        if check not in dg.CHECKS:
            _fail("unknown check %r" % check)
    out = cfg["output"]
    if "prefix" not in out:
        _fail("output block needs a prefix")
    out["prefix"] = os.path.join(base_dir, out["prefix"])
    if out.get("format", "csv") not in ("csv", "json"):
        _fail("output format must be csv or json")
    params = dict(prob.get("params", {}))
    for key, rel in data.items():
        path = os.path.join(base_dir, rel)
        if not os.path.exists(path):
            _fail("referenced data file %r does not exist" % rel)
        data[key] = os.path.realpath(path)  # so compare can tell one file from another
    return prob, sol, checks, out, params, data


def _prepare(path, needs_f_star=False, shared=None):
    """A config file's validated blocks, instance, solver config and inexact oracle.

    The family, variant and stepsize are refused where they are declared
    (``build_instance``, ``check_capability``, ``rule_from_name``).  A
    check whose hypothesis the run's ``planned_meta`` does not meet, or an
    f* reference for the checks that cannot run on the instance, is
    refused here, before any solve.  ``shared`` is another config's
    ``_prepare``, whose instance this one runs on: its problem block, with
    the data files resolved, must be this one's.
    """
    cfg = _load_config(path)
    prob, sol, checks, out, params, data = _validate(cfg, os.path.dirname(path) or ".")
    if shared is None:
        instance = _build_problem(prob, params, data)
    elif prob != shared[0]:
        _fail("compare needs a shared problem block (data files resolved), and %s has another"
              % path)
    else:
        instance = shared[4]
    check_capability(instance, sol.get("variant"), inexact=bool(sol.get("inexact")))
    config, inexact = _solver_config(sol, instance), _maybe_inexact(sol, instance)
    meta = planned_meta(instance, config, inexact)
    for check in checks:
        dg.require(check, meta)
    if instance.f_star is None and (needs_f_star or _reads_f_star(checks)):
        try:
            check_capability(instance, REFERENCE_VARIANT)
        except CapabilityError as exc:
            _fail("f* is unknown for family %s and its reference run cannot start: %s"
                  % (instance.family, exc))
    return prob, sol, checks, out, instance, config, inexact


def _reads_f_star(checks):
    return any(dg.CHECKS[check].reads_f_star for check in checks)


def _build_problem(prob, params, data):
    """The problem block's instance, each of ``data``'s files read as the parameter it names.

    Inline parameters go to ``build_instance`` as they are: it converts
    them, and names a missing one or one the family does not take.
    """
    kwargs = {**params, **{key: _DATA[key][1](path) for key, path in data.items()}}
    return ob.build_instance(prob.get("family"), seed=int(prob.get("seed", 0)), **kwargs)


def _solver_config(sol, instance):
    step_name = sol.get("stepsize", "diminishing")
    L = instance.L if instance.L > 0 else None
    rule = rule_from_name(step_name, L=L)
    return SolverConfig(variant=sol["variant"], stepsize=rule,
                        **{k: cast(sol[k]) for k, cast in _SOLVER_FIELDS.items() if k in sol})


def _maybe_inexact(sol, instance):
    block = sol.get("inexact")
    if not block:
        return None
    # the block's keys are the schedule's parameters, some with the CLI's own defaults
    schedule = rg.InexactSchedule(**{"mode": "decaying", "delta": 0.0,
                                     "kappa_upper": instance.curvature_upper, **block})
    return rg.make_inexact_lmo(instance.region, schedule)


def _f_star(instance):
    """The instance's f*, else the certified bound of one long ``reference_f_star`` run."""
    if instance.f_star is not None:
        return instance.f_star
    return reference_f_star(instance, gap_tol=1e-12, max_iter=200000)[0]


def _fmt(x):
    return "%.17g" % x


def _write_csv(path, columns, rows):
    """``rows``, dicts keyed by ``columns``, as CSV lines of their values under a header."""
    with open(path, "w") as fh:
        for line in [columns] + [[row[key] for key in columns] for row in rows]:
            fh.write(",".join(map(str, line)) + "\n")


def _write_trace(report, prefix, fmt):
    f_star = report.meta.get("f_star")
    rows = [dict(zip(_TRACE_COLUMNS, (r.k, r.kind, _fmt(r.alpha), _fmt(r.f),
                                      "" if f_star is None else _fmt(r.f - f_star),
                                      _fmt(r.gap), r.support_size, r.elapsed_ns)))
            for r in report.records]
    if fmt == "csv":
        _write_csv(prefix + ".trace.csv", _TRACE_COLUMNS, rows)
    else:
        with open(prefix + ".trace.json", "w") as fh:
            json.dump(rows, fh, indent=1, sort_keys=True)


def _write_report(report, check_results, prefix):
    payload = {
        "termination": report.termination,
        "good_steps": report.good_steps,
        "iterations": report.records[-1].k,
        "final_f": report.records[-1].f,
        "final_gap": report.records[-1].gap,
        "family": report.meta.get("family"),
        "variant": report.meta.get("variant"),
        "checks": [c.as_json() for c in check_results],
    }
    with open(prefix + ".report.json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def cmd_run(args):
    try:
        prob, sol, checks, out, instance, config, inexact = _prepare(args.config)
    except _CONFIG_ERRORS as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    prefix = out["prefix"]
    os.makedirs(os.path.dirname(prefix) or ".", exist_ok=True)
    try:
        report = solve(instance, config, inexact=inexact)
        if _reads_f_star(checks):
            report.meta["f_star"] = _f_star(instance)
        results = [dg.CHECKS[name].function(report) for name in checks]
    except FwkitError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 3
    _write_trace(report, prefix, out.get("format", "csv"))
    _write_report(report, results, prefix)
    return 0 if report.termination != "NumericalError" and all(c.ok for c in results) else 3


def _compare_one(prepared, f_star):
    prob, sol, checks, out, instance, config, inexact = prepared
    report = solve(instance, config, inexact=inexact)
    report.meta["f_star"] = f_star
    final_h = report.records[-1].f - f_star
    q = float("nan")
    try:
        q = dg.fit_geometric_rate(report, good_only=True).q
    except (InputError, FwkitError):
        pass
    reached = next((r.k for r in report.records if r.gap <= config.gap_tol), "")
    total = max(1, len([r for r in report.records if r.kind != "stop"]))
    frac = report.good_steps / total
    status = "failed" if report.termination == "NumericalError" else "ok"
    return dict(zip(_COMPARE_COLUMNS, (sol["variant"], reached, _fmt(final_h), _fmt(q),
                                       _fmt(frac), status)))


def cmd_compare(args):
    threads = max(1, int(os.environ.get("FWKIT_THREADS", "1")))
    try:
        # each config is refused as run refuses it; all run on the first one's instance
        first = _prepare(args.configs[0], needs_f_star=True)
        runs = [first] + [_prepare(path, True, first) for path in args.configs[1:]]
        f_star = _f_star(first[4])
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_compare_one, runs, itertools.repeat(f_star)))
    except _CONFIG_ERRORS as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except FwkitError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 3
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    _write_csv(args.out, _COMPARE_COLUMNS, rows)
    return 3 if any(row["status"] == "failed" for row in rows) else 0


def _parse_params(pairs):
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            _fail("--param expects key=value, got %r" % pair)
        key, val = pair.split("=", 1)
        try:
            params[key] = json.loads(val)
        except json.JSONDecodeError:
            params[key] = val
    return params


def cmd_gen(args):
    try:
        params = _parse_params(args.param)
        family = args.family
        seed = int(args.seed)
        prefix = args.out
        rng = np.random.default_rng(seed)
        # an edge list is copied beside the config, which then runs from any directory
        edges = ob.load_edge_list(params.pop("edges_file")) if "edges_file" in params else None
        values = {}  # each data key's value, written beside the config once the problem builds
        if family == "lasso":
            instance = ob.build_instance(family, seed=seed, **params)
            values = {"design": instance.objective.a, "response": instance.objective.b}
        elif family == "max_clique":
            params["n"] = n = int(params.get("n", 8))
            if edges is None:
                p = float(params.pop("p", 0.5))
                edges = [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < p]
        elif family == "matcomp":
            instance = ob.build_instance(family, seed=seed, **params)
            obj = instance.objective
            values = {"observations": list(zip(obj.rows, obj.cols, obj.values))}
            params = {"m": obj.m, "n": obj.n, "delta": instance.meta["delta"]}
        elif family in ("meb_dual", "svm_dual", "min_norm_point"):
            count = int(params.pop("count", 20))
            dim = int(params.pop("dim", 3))
            values = {"points": rng.standard_normal((count, dim))}
            if family == "svm_dual":
                values["labels"] = rng.choice([-1.0, 1.0], size=count)
        if edges is not None:
            values["edges"] = edges
        # what gen read itself is gone from params: the rest is built as run builds it, so
        # a parameter the family does not take is refused before any file is written
        prob = {"family": family, "seed": seed, "params": params}
        ob.build_instance(family, seed=seed, **params, **values)
        os.makedirs(os.path.dirname(prefix) or ".", exist_ok=True)
        base = os.path.basename(prefix)
        data = {}
        for key, value in values.items():
            suffix, _, write = _DATA[key]
            write(prefix + suffix, value)
            data[key] = base + suffix
        # BCFW + diminishing stalls short of gap_tol 1e-6 within 1000 passes
        variant, stepsize = {"product": ("BCFW", "exact"),
                             "min_norm_point": ("WolfeMNP", "diminishing")}.get(
                                 family, ("FW", "diminishing"))
        defaults = SolverConfig(gap_tol=1e-6)
        config = {"problem": {**prob, "data": data} if data else prob,
                  "solver": {"variant": variant, "stepsize": stepsize,
                             **{key: getattr(defaults, key) for key in _SOLVER_FIELDS}},
                  "checks": [],
                  "output": {"prefix": base + ".run", "format": "csv"}}
        with open(prefix + ".config.json", "w") as fh:
            json.dump(config, fh, indent=1, sort_keys=True)
    except _CONFIG_ERRORS as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="fwkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one configured solve")
    p_run.add_argument("--config", required=True)
    p_cmp = sub.add_parser("compare", help="run several configs on one problem")
    p_cmp.add_argument("--configs", nargs="+", required=True)
    p_cmp.add_argument("--out", required=True)
    p_gen = sub.add_parser("gen", help="generate instance data plus a config")
    p_gen.add_argument("--family", required=True)
    p_gen.add_argument("--param", action="append", default=[])
    p_gen.add_argument("--seed", default=0)
    p_gen.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "compare":
        return cmd_compare(args)
    return cmd_gen(args)


if __name__ == "__main__":
    sys.exit(main())

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
import json
import os
import sys

import numpy as np

from . import diagnostics as dg
from . import objectives as ob
from . import regions as rg
from .errors import CapabilityError, FwkitError, InputError
from .solvers import CAPABILITIES, SolverConfig, check_capability, reference_f_star, solve
from .stepsizes import RULES, rule_from_name

_FAMILIES = ("lasso", "meb_dual", "svm_dual", "max_clique", "matcomp",
             "simplex_distance", "interior_quadratic", "boundary_quadratic",
             "ball_quadratic", "product", "base_polytope_norm",
             "min_norm_point")
_CHECKS = ("sublinear_bound", "lower_bound", "inexact_rate",
           "strongly_convex_domain", "min_gap_rate", "nonconvex_min_gap",
           "per_step_guarantees")
# checks that read f* (reference_f_star supplies it where the family has none)
_NEEDS_F_STAR = ("sublinear_bound", "lower_bound", "inexact_rate",
                 "strongly_convex_domain", "per_step_guarantees")


class ConfigError(Exception):
    pass


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
    prob = cfg["problem"]
    if prob.get("family") not in _FAMILIES:
        _fail("unknown problem family %r" % prob.get("family"))
    sol = cfg["solver"]
    if sol.get("variant") not in CAPABILITIES:
        _fail("unknown solver variant %r" % sol.get("variant"))
    step = sol.get("stepsize", "diminishing")
    if not isinstance(step, str) or step not in RULES:
        _fail("unknown stepsize %r" % step)
    for check in cfg.get("checks", []):
        if check not in _CHECKS:
            _fail("unknown check %r" % check)
    check_needs = {
        "lower_bound": ("simplex_distance",),
        "strongly_convex_domain": ("ball_quadratic",),
    }
    for check in cfg.get("checks", []):
        allowed = check_needs.get(check)
        if allowed and prob.get("family") not in allowed:
            _fail("check %s does not apply to family %s" % (check, prob.get("family")))
        if check == "inexact_rate" and sol.get("inexact", {}).get("mode") != "decaying":
            _fail("check inexact_rate needs a decaying inexact oracle")
        if check == "per_step_guarantees" and sol.get("stepsize") != "lipschitz":
            _fail("check per_step_guarantees needs the lipschitz stepsize")
    out = cfg["output"]
    if "prefix" not in out:
        _fail("output block needs a prefix")
    if out.get("format", "csv") not in ("csv", "json"):
        _fail("output format must be csv or json")
    params = dict(prob.get("params", {}))
    data = prob.get("data", {})
    for key, rel in data.items():
        path = os.path.join(base_dir, rel)
        if not os.path.exists(path):
            _fail("referenced data file %r does not exist" % rel)
        data[key] = path
    return prob, sol, cfg.get("checks", []), out, params, data


def _prepare(path, needs_f_star=False):
    """A config file's validated blocks, instance, solver config and inexact oracle.

    A variant, or an f* reference for the checks, that cannot run on the
    instance is refused here, before any solve.
    """
    cfg = _load_config(path)
    prob, sol, checks, out, params, data = _validate(cfg, os.path.dirname(path) or ".")
    instance = _build_problem(prob, params, data)
    check_capability(instance, sol["variant"], inexact=bool(sol.get("inexact")))
    if instance.f_star is None and (needs_f_star or any(c in _NEEDS_F_STAR for c in checks)):
        try:
            check_capability(instance, "AFW")  # the solver of reference_f_star
        except CapabilityError as exc:
            _fail("f* is unknown for family %s and its reference run cannot start: %s"
                  % (instance.family, exc))
    return prob, sol, checks, out, instance, _solver_config(sol, instance), \
        _maybe_inexact(sol, instance)


def _build_problem(prob, params, data):
    family = prob["family"]
    seed = int(prob.get("seed", 0))
    kwargs = dict(params)
    if family == "lasso" and "design" in data:
        kwargs["design"] = np.load(data["design"])
        kwargs["response"] = np.load(data["response"])
    if family == "max_clique":
        if "edges" in data:
            kwargs["edges"] = ob.load_edge_list(data["edges"], weighted=False)
        elif "edges" in kwargs:
            kwargs["edges"] = [tuple(e) for e in kwargs["edges"]]
    if family == "matcomp" and "observations" in data:
        kwargs["observations"] = ob.load_observations(data["observations"])
    if family == "base_polytope_norm" and "edges" in data:
        kwargs["edges"] = ob.load_edge_list(data["edges"])
    if family in ("meb_dual", "svm_dual", "min_norm_point"):
        # a missing array is left to build_instance, which names it
        for key in ("points", "labels") if family == "svm_dual" else ("points",):
            if key in data:
                kwargs[key] = np.load(data[key])
            elif key in kwargs:
                kwargs[key] = np.asarray(kwargs[key], dtype=float)
    return ob.build_instance(family, seed=seed, **kwargs)


def _solver_config(sol, instance):
    step_name = sol.get("stepsize", "diminishing")
    L = instance.L if instance.L > 0 else None
    rule = rule_from_name(step_name, L=L)
    return SolverConfig(
        variant=sol["variant"], stepsize=rule,
        max_iter=int(sol.get("max_iter", 1000)),
        gap_tol=float(sol.get("gap_tol", 1e-8)),
        seed=int(sol.get("seed", 0)),
        efw_inner_tol=float(sol.get("efw_inner_tol", 1e-10)),
        record_every=int(sol.get("record_every", 1)))


def _maybe_inexact(sol, instance):
    block = sol.get("inexact")
    if not block:
        return None
    schedule = rg.InexactSchedule(
        mode=block.get("mode", "decaying"), delta=float(block.get("delta", 0.0)),
        kappa_upper=block.get("kappa_upper", instance.curvature_upper),
        seed=int(block.get("seed", 0)))
    return rg.make_inexact_lmo(instance.region, schedule)


def _ensure_f_star(instance, report, needed):
    if not needed or report.meta.get("f_star") is not None:
        return report
    bound, _ = reference_f_star(instance, gap_tol=1e-12, max_iter=200000)
    report.meta["f_star"] = bound
    return report


def _fmt(x):
    return "%.17g" % x


def _write_trace(report, prefix, fmt):
    rows = []
    f_star = report.meta.get("f_star")
    for r in report.records:
        h = "" if f_star is None else _fmt(r.f - f_star)
        rows.append({"k": r.k, "step_kind": r.kind, "alpha": _fmt(r.alpha),
                     "f": _fmt(r.f), "h": h, "gap": _fmt(r.gap),
                     "support_size": r.support_size, "elapsed_ns": r.elapsed_ns})
    if fmt == "csv":
        path = prefix + ".trace.csv"
        with open(path, "w") as fh:
            fh.write("k,step_kind,alpha,f,h,gap,support_size,elapsed_ns\n")
            for row in rows:
                fh.write("%(k)d,%(step_kind)s,%(alpha)s,%(f)s,%(h)s,%(gap)s,"
                         "%(support_size)d,%(elapsed_ns)d\n" % row)
    else:
        path = prefix + ".trace.json"
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=1, sort_keys=True)
    return path


def _run_checks(report, checks):
    results = []
    for name in checks:
        if name == "sublinear_bound":
            results.append(dg.verify_sublinear_bound(report))
        elif name == "lower_bound":
            n = len(report.meta["x_final"])
            results.append(dg.lower_bound_check(report, n))
        elif name == "inexact_rate":
            results.append(dg.inexact_rate_check(report))
        elif name == "strongly_convex_domain":
            results.append(dg.strongly_convex_domain_check(report))
        elif name == "min_gap_rate":
            results.append(dg.min_gap_rate_check(report))
        elif name == "nonconvex_min_gap":
            results.append(dg.nonconvex_min_gap_check(report))
        elif name == "per_step_guarantees":
            results.append(dg.per_step_guarantees(report))
    return results


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
    path = prefix + ".report.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return path


def cmd_run(args):
    try:
        prob, sol, checks, out, instance, config, inexact = _prepare(args.config)
    except (ConfigError, InputError, CapabilityError, KeyError, TypeError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    prefix = out["prefix"]
    os.makedirs(os.path.dirname(prefix) or ".", exist_ok=True)
    try:
        report = solve(instance, config, inexact=inexact)
        report = _ensure_f_star(instance, report, any(c in _NEEDS_F_STAR for c in checks))
        results = _run_checks(report, checks)
    except FwkitError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 3
    _write_trace(report, prefix, out.get("format", "csv"))
    _write_report(report, results, prefix)
    if report.termination == "NumericalError":
        return 3
    if all(c.ok for c in results):
        return 0
    return 3


def _compare_one(path):
    prob, sol, checks, out, instance, config, inexact = _prepare(path, needs_f_star=True)
    report = solve(instance, config, inexact=inexact)
    report = _ensure_f_star(instance, report, True)
    final_h = report.records[-1].f - report.meta["f_star"]
    q = float("nan")
    try:
        q = dg.fit_geometric_rate(report, good_only=True).q
    except (InputError, FwkitError):
        pass
    reached = next((r.k for r in report.records if r.gap <= config.gap_tol), "")
    total = max(1, len([r for r in report.records if r.kind != "stop"]))
    frac = report.good_steps / total
    return {"solver": sol["variant"], "iters_to_tol": reached,
            "final_h": final_h, "fitted_q": q, "good_fraction": frac,
            "failed": report.termination == "NumericalError",
            "problem": json.dumps(prob, sort_keys=True)}


def cmd_compare(args):
    rows = []
    problems = []
    threads = max(1, int(os.environ.get("FWKIT_THREADS", "1")))
    try:
        for path in args.configs:
            cfg = _load_config(path)
            problems.append(json.dumps(cfg.get("problem"), sort_keys=True))
        if len(set(problems)) > 1:
            print("config error: compare needs a shared problem block", file=sys.stderr)
            return 2
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_compare_one, args.configs))
    except (ConfigError, InputError, CapabilityError, KeyError, TypeError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except FwkitError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 3
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write("solver,iters_to_tol,final_h,fitted_q,good_fraction,status\n")
        for row in rows:
            fh.write("%s,%s,%s,%s,%s,%s\n" % (
                row["solver"], row["iters_to_tol"], _fmt(row["final_h"]),
                _fmt(row["fitted_q"]), _fmt(row["good_fraction"]),
                "failed" if row["failed"] else "ok"))
    if any(row["failed"] for row in rows):
        return 3
    return 0


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
        if family not in _FAMILIES:
            _fail("unknown problem family %r" % family)
        seed = int(args.seed)
        prefix = args.out
        os.makedirs(os.path.dirname(prefix) or ".", exist_ok=True)
        rng = np.random.default_rng(seed)
        prob = {"family": family, "seed": seed, "params": dict(params)}
        data = {}
        base = os.path.basename(prefix)
        if family == "lasso":
            instance = ob.build_instance(family, seed=seed, **params)
            np.save(prefix + ".design.npy", instance.objective.a)
            np.save(prefix + ".response.npy", instance.objective.b)
            data = {"design": base + ".design.npy", "response": base + ".response.npy"}
        elif family == "max_clique":
            n = int(params.get("n", 8))
            p = float(params.get("p", 0.5))
            if "edges_file" in params:
                edges = ob.load_edge_list(params.pop("edges_file"), weighted=False)
            else:
                edges = [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < p]
            with open(prefix + ".edges.txt", "w") as fh:
                for u, v, _ in edges:
                    fh.write("%d %d\n" % (u + 1, v + 1))
            data = {"edges": base + ".edges.txt"}
            prob["params"] = {"n": n}
        elif family == "matcomp":
            instance = ob.build_instance(family, seed=seed, **params)
            obj = instance.objective
            with open(prefix + ".obs.txt", "w") as fh:
                for i, j, v in zip(obj.rows, obj.cols, obj.values):
                    fh.write("%d %d %s\n" % (i + 1, j + 1, _fmt(v)))
            data = {"observations": base + ".obs.txt"}
            prob["params"] = {"m": obj.m, "n": obj.n,
                              "delta": instance.meta["delta"]}
        elif family in ("meb_dual", "svm_dual", "min_norm_point"):
            count = int(params.get("count", 20))
            dim = int(params.get("dim", 3))
            pts = rng.standard_normal((count, dim))
            np.save(prefix + ".points.npy", pts)
            data = {"points": base + ".points.npy"}
            if family == "svm_dual":
                labels = rng.choice([-1.0, 1.0], size=count)
                np.save(prefix + ".labels.npy", labels)
                data["labels"] = base + ".labels.npy"
            prob["params"] = {}
        variant = {"product": "BCFW", "min_norm_point": "WolfeMNP"}.get(family, "FW")
        solver_block = {"variant": variant,
                        "stepsize": "diminishing", "max_iter": 1000,
                        "gap_tol": 1e-6, "seed": 0, "record_every": 1}
        config = {"problem": {**prob, "data": data} if data else prob,
                  "solver": solver_block,
                  "checks": [],
                  "output": {"prefix": base + ".run", "format": "csv"}}
        with open(prefix + ".config.json", "w") as fh:
            json.dump(config, fh, indent=1, sort_keys=True)
    except (ConfigError, InputError, KeyError, ValueError) as exc:
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

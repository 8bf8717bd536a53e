"""Command line driver: run scenarios, verify the acceptance suite, densities.

Exit codes: 0 success, 1 verification failures, 2 configuration errors,
3 numerical failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .errors import ConfigError, FbmcfError


def _cmd_run(args):
    from .scenario import run_scenario
    from concurrent.futures import ProcessPoolExecutor

    configs = args.config
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if args.jobs > 1 and len(configs) > 1:
        # the pool starts all its workers at the first submit, so ask for
        # no more than there are configs
        with ProcessPoolExecutor(
                max_workers=min(args.jobs, len(configs))) as pool:
            futures = [pool.submit(run_scenario, c, args.out, args.seed)
                       for c in configs]
            for cfg, fut in zip(configs, futures):
                print(f"{cfg}: artifacts in {fut.result()}")
    else:
        for cfg in configs:
            art = run_scenario(cfg, args.out, args.seed)
            print(f"{cfg}: artifacts in {art}")
    return 0


def _cmd_verify(args):
    from .acceptance import run_all
    from .scenario import env_seed

    seed = env_seed(args.seed)
    lines = []

    def printer(line):
        print(line)
        lines.append(line)

    start = time.perf_counter()
    try:
        rows, seconds = run_all(filter=args.filter, seed=seed, printer=printer)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    total = time.perf_counter() - start
    n_fail = sum(not r.passed for r in rows)
    print(f"{len(rows) - n_fail}/{len(rows)} criteria passed")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "verify_results.csv")
        with open(path, "w") as f:
            f.write("id,description,measured,bound,passed,detail\n")
            for r in rows:
                f.write('%s,"%s",%.17g,%.17g,%d,"%s"\n' % (
                    r.id, r.description, r.measured, r.bound,
                    int(r.passed), r.detail.replace('"', "'")))
        print(f"wrote {path}")
        # wall-clock seconds: they differ from run to run, so nothing
        # compares or hashes this file
        path = os.path.join(args.out, "verify_timings.json")
        with open(path, "w") as f:
            json.dump({"seconds": seconds, "total_seconds": total}, f,
                      indent=1)
            f.write("\n")
        print(f"wrote {path}")
    return 1 if n_fail else 0


def _cmd_density(args):
    from .density import monotonicity_report
    from .flow import FlowHistory
    from .kernels import KernelParams
    from .scenario import DENSITY_RADII, barrier_from_config

    try:
        x, y, t = (float(v) for v in args.center.split(","))
    except ValueError:
        raise ConfigError("--center expects x,y,t") from None
    if not all(math.isfinite(v) for v in (x, y, t)):
        raise ConfigError(f"--center must be finite, got {args.center!r}")
    if not 0 < args.kappa < math.inf:
        raise ConfigError(f"--kappa must be positive and finite, got "
                          f"{args.kappa}")
    try:
        radii = [float(r) for r in args.radii.split(",")] if args.radii \
            else DENSITY_RADII
    except ValueError:
        raise ConfigError("--radii expects comma separated numbers, got "
                          f"{args.radii!r}") from None
    if not all(0 < r < math.inf for r in radii):
        raise ConfigError(f"--radii must be positive and finite, got {radii}")
    history = FlowHistory.from_jsonl(args.history)
    barrier = barrier_from_config(history.config.get("barrier"))
    if barrier is None:
        raise ConfigError("history carries no barrier; reflected densities "
                          "need one")
    history.barrier = barrier
    params = KernelParams.for_barrier(barrier, kappa=args.kappa)
    rep = monotonicity_report(history, barrier, (x, y, t), params, radii)
    print(json.dumps(rep.to_dict(), sort_keys=True, indent=1))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        rep.write_csv(os.path.join(args.out, "density_profile.csv"))
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="fbmcf",
        description="Free-boundary curve-shortening laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run scenario configs")
    pr.add_argument("config", nargs="+", help="scenario JSON path(s)")
    pr.add_argument("--out", default=None, help="artifact directory root")
    pr.add_argument("--jobs", type=int, default=1,
                    help="scenario-level parallelism")
    pr.add_argument("--seed", type=int, default=None)
    pr.set_defaults(func=_cmd_run)

    pv = sub.add_parser("verify", help="run the acceptance suite")
    pv.add_argument("--filter", default=None,
                    help="run only the criterion with this id")
    pv.add_argument("--out", default=None, help="write verify_results.csv here")
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=_cmd_verify)

    pd = sub.add_parser("density", help="densities of a stored history")
    pd.add_argument("history", help="history.jsonl path")
    pd.add_argument("--center", required=True, help="x,y,t")
    pd.add_argument("--kappa", type=float, required=True)
    pd.add_argument("--radii", default=None, help="comma separated radii")
    pd.add_argument("--out", default=None)
    pd.set_defaults(func=_cmd_density)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FbmcfError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

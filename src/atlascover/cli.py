"""Command line surface: construction, verification, chains, scaling runs.

Exit codes: 0 success, 1 a verification reported failure, 2 usage or domain
errors.  Output files are bit-reproducible for fixed flags and seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from . import __version__
from .annulus import cover_annulus
from .core import AtlasError, EtaParams, MonomialLevelSet, PolydiscComplement, PuncturedPlane, cpoint
from .jsonio import (
    SCHEMA_VERSION,
    read_achart_atlas,
    read_covering,
    write_achart_atlas,
    write_covering,
)
from .levelset import cover_monomial_level_set
from .polydisc import cover_punctured_polydisc, eta_from_delta
from .real_acharts import DEVIATION_BOUND, MonomialData, cover_monomial_graph, verify_achart_batch
from .verify import (
    AnnulusRegion,
    LevelGraphRegion,
    PolydiscRegion,
    certify_doubling,
    chain_between,
    check_coverage,
    scaling_experiment,
)


def _floats(text: str) -> list:
    return [float(v) for v in text.split(",") if v != ""]


def _ints(text: str) -> list:
    return [int(v) for v in text.split(",") if v != ""]


def _complex_arg(text: str) -> complex:
    re, im = (_floats(text) + [0.0])[:2]
    return complex(re, im)


def _point_arg(text: str):
    vals = _floats(text)
    if not vals or len(vals) % 2:
        raise ValueError("points are flat re,im pairs: re1,im1[,re2,im2,...]")
    return cpoint(complex(vals[i], vals[i + 1]) for i in range(0, len(vals), 2))


NUMBER_LISTS = ("--from", "--to", "--c", "--mu")


def _join_number_lists(argv: list) -> list:
    """``--to -0.5,0`` as ``--to=-0.5,0``: argparse reads a value with a leading
    minus as an option unless it is one plain number."""
    out = []
    for arg in argv:
        if out and out[-1] in NUMBER_LISTS and arg.startswith("-"):
            try:
                _floats(arg)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={arg}"
                continue
        out.append(arg)
    return out


@functools.cache                # built on the first `main` call, then shared
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="atlas",
        description="Doubling coverings with poly-logarithmic chart counts.")
    ap.add_argument("--version", action="version", version=f"atlas {__version__} "
                    f"(writes covering schema {SCHEMA_VERSION}, reads 1 and 2)")
    sub = ap.add_subparsers(dest="command", required=True)

    cover = sub.add_parser("cover", help="build a covering")
    csub = cover.add_subparsers(dest="what", required=True)

    p = csub.add_parser("annulus", help="Whitney disks for D_1 minus D_delta")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--out", required=True)

    p = csub.add_parser("polydisc", help="punctured polydisc Q_n^eta")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--out")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--active-axes", type=_ints, default=None,
                   help="punctured axes (default: all)")

    p = csub.add_parser("levelset", help="monomial level hypersurface {x^alpha = c}")
    p.add_argument("--alpha", type=_ints, required=True)
    p.add_argument("--c", type=_complex_arg, required=True, metavar="RE,IM")
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--out", required=True)

    p = csub.add_parser("graph", help="real a-charts for the graph of a*x^mu")
    p.add_argument("--mu", type=_floats, required=True)
    p.add_argument("--coeff", type=float, default=1.0)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", required=True)

    for p in csub.choices.values():
        p.add_argument("--materialize", action="store_true",
                       help="write every chart (schema 1), not the recipe")

    p = sub.add_parser("eta", help="inner radius from a tube width")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--c-lower", type=float, required=True)
    p.add_argument("--c-unit", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha0", type=int, required=True)

    ver = sub.add_parser("verify", help="certify a covering or atlas file")
    vsub = ver.add_subparsers(dest="what", required=True)

    p = vsub.add_parser("coverage", help="sampled coverage of the target region")
    p.add_argument("--covering", required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)

    p = vsub.add_parser("doubling", help="per-chart avoidance certificates")
    p.add_argument("--covering", required=True)

    p = vsub.add_parser("achart", help="extension scans for a real chart atlas")
    p.add_argument("--charts", required=True)
    p.add_argument("--grid", type=int, default=24)

    p = sub.add_parser("chain", help="shortest witnessed chart chain between points")
    p.add_argument("--covering", required=True)
    p.add_argument("--from", dest="src", type=_point_arg, required=True,
                   metavar="RE,IM[,...]")
    p.add_argument("--to", dest="dst", type=_point_arg, required=True,
                   metavar="RE,IM[,...]")
    p.add_argument("--seed", type=int, default=0,
                   help="kept for compatibility; chains are exact and do not use it")

    p = sub.add_parser("scaling", help="chart counts across a parameter grid")
    p.add_argument("--experiment", required=True,
                   choices=["annulus", "polydisc", "levelset", "graph"])
    p.add_argument("--grid", type=_floats, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--zeta", type=float, default=2.0)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--alpha", type=_ints, default=[2, 1])
    p.add_argument("--mu", type=_floats, default=[1.0])
    p.add_argument("--coeff", type=float, default=1.0)
    return ap


# ambient kind: the region `verify coverage` samples for a covering of that ambient
_REGIONS = {
    PuncturedPlane.kind: lambda cov: AnnulusRegion(delta=float(cov.meta["delta"])),
    PolydiscComplement.kind: lambda cov: PolydiscRegion(
        eta=float(cov.meta["eta"]), n=cov.ambient.n, active_axes=frozenset(cov.ambient.active_axes)),
    MonomialLevelSet.kind: lambda cov: LevelGraphRegion(alpha=cov.ambient.alpha, c=cov.ambient.c),
}


def _run(args) -> int:
    if args.command == "cover":
        if args.what == "graph":
            data = MonomialData(coefficient=args.coeff, exponents=tuple(args.mu))
            charts = cover_monomial_graph(data, args.eps)
            write_achart_atlas(charts, data, args.eps, args.out, args.materialize)
            print(f"count={len(charts)} -> {args.out}")
            return 0
        if args.what == "annulus":
            cov = cover_annulus(args.delta, args.zeta)
        elif args.what == "levelset":
            cov = cover_monomial_level_set(tuple(args.alpha), args.c, args.gamma)
        else:
            cov, plan = cover_punctured_polydisc(args.dim, args.eta, args.gamma,
                                                 args.active_axes or None)
            print(json.dumps(plan.to_dict(), separators=(",", ":")))
            if not args.out or args.count_only:
                return 0
        write_covering(cov, args.out, args.materialize)
        print(f"kappa={cov.kappa} -> {args.out}")
        return 0

    if args.command == "eta":
        params = EtaParams(c_lower=args.c_lower, C_unit=args.c_unit,
                           d=args.d, alpha0=args.alpha0)
        print(repr(eta_from_delta(args.delta, params)))
        return 0

    if args.command == "verify":
        if args.what == "coverage":
            cov = read_covering(args.covering)
            report = check_coverage(cov, _REGIONS[cov.ambient.kind](cov),
                                    n_samples=args.samples, seed=args.seed)
            print(f"coverage {report.samples_covered}/{report.samples_total} "
                  f"rate={report.rate:.6f} pass={report.passed}")
            return 0 if report.passed else 1
        if args.what == "doubling":
            cov = read_covering(args.covering)
            report = certify_doubling(cov)
            print(f"doubling {report.n_passed}/{report.n_charts} "
                  f"pass={report.passed}")
            return 0 if report.passed else 1
        if args.what == "achart":
            charts, data, eps = read_achart_atlas(args.charts)
            worst = float(verify_achart_batch(charts, grid=args.grid).max(initial=0.0))
            ok = worst <= DEVIATION_BOUND
            print(f"acharts {len(charts)} max_deviation={worst:.12g} pass={ok}")
            return 0 if ok else 1

    if args.command == "chain":
        cov = read_covering(args.covering)
        chain = chain_between(cov, args.src, args.dst, seed=args.seed)
        print(f"length={chain.length} charts={list(chain.chart_indices)}")
        return 0

    if args.command == "scaling":
        fixed = {"zeta": args.zeta, "n": args.dim, "gamma": args.gamma,
                 "alpha": tuple(args.alpha), "mu": tuple(args.mu),
                 "coeff": args.coeff}
        rows = scaling_experiment(args.experiment, args.grid, fixed)
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["param", "kappa", "paper_bound", "ratio", "log_inv_param"])
            for r in rows:
                w.writerow([repr(r.param), r.kappa, repr(r.paper_bound),
                            repr(r.ratio), repr(r.log_inv_param)])
        print(f"{len(rows)} rows -> {args.out}")
        return 0

    raise AssertionError("unhandled command")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_number_lists(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except (AtlasError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:                  # numpy raises a private subclass
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

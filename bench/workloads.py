"""The three benchmark workloads: their inputs, flows, checks and oracle.

A flow is a list of steps.  Each step is one operation: a call into the
public API of atlascover, timed by the worker, followed by an untimed check
of its result.  Steps call through module attributes (``verify.chain_between``
rather than a name imported here), so the tracer's patches see them.

Inputs are fixed; the seed drives only the coverage sample points, the
chain witness seeds and the real points of the graph-membership step.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from atlascover import (annulus, cli, core, jsonio, levelset, polydisc,
                        real_acharts, suspension, verify)

MAX_FLOWS = 32
TOL = 1e-10


@dataclass
class Step:
    """One timed operation and the check of its result.

    ``kind`` names the end-to-end metric the step feeds (cover, locate,
    certify, chain, reference).  ``check`` returns ``(work, None)`` on success
    or ``(work, reason)`` on failure; ``work`` is the number of points or
    charts the step processed.
    """

    name: str
    kind: str
    run: Callable
    check: Callable
    repeat: int = 1


@dataclass
class Workload:
    name: str
    params: dict
    kappas: dict = field(default_factory=dict)     # covering -> chart count
    hashes: dict = field(default_factory=dict)     # step -> sha256 of its file

    def flow(self, index: int, seed: int) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed first calls, so the timed flows do not pay them."""

    def oracle(self, seed: int) -> dict | None:
        return None

    def reference_steps(self, traced: bool) -> list:
        """Untimed steps run after a flow whose results the checks compare
        against."""
        return []


def flow_seeds(seed: int) -> list:
    """Per-flow seeds drawn from the run seed."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=MAX_FLOWS)]


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# independent checks
# ---------------------------------------------------------------------------

def _check_chain(charts, chain, p, q) -> str | None:
    """Endpoints in the end charts; every witness in both adjacent images."""
    idx = chain.chart_indices
    if not idx or len(chain.witnesses) != len(idx) - 1:
        return f"malformed chain {idx}"
    if not core.chart_contains(charts[idx[0]], p, 1.0, tol=TOL):
        return "start point not in the first chart"
    if not core.chart_contains(charts[idx[-1]], q, 1.0, tol=TOL):
        return "end point not in the last chart"
    for a, b, w in zip(idx, idx[1:], chain.witnesses):
        if not (core.chart_contains(charts[a], w, 1.0, tol=TOL)
                and core.chart_contains(charts[b], w, 1.0, tol=TOL)):
            return f"witness of edge ({a}, {b}) not in both charts"
    return None


def _check_disk_chain(charts, idx, p, q) -> str | None:
    """Same check for a chain of disks given by indices only (CLI output).

    Two disks meet iff |b1 - b2| <= r1 + r2; the point of the center segment
    at distance r1 |b2 - b1| / (r1 + r2) from b1 then lies in both.
    """
    if not idx:
        return "empty chain"
    if not core.chart_contains(charts[idx[0]], p, 1.0, tol=TOL):
        return "start point not in the first chart"
    if not core.chart_contains(charts[idx[-1]], q, 1.0, tol=TOL):
        return "end point not in the last chart"
    for a, b in zip(idx, idx[1:]):
        ca, cb = charts[a], charts[b]
        ra, rb = abs(ca.d[0]), abs(cb.d[0])
        w = (ca.b[0] + (cb.b[0] - ca.b[0]) * ra / (ra + rb),)
        if not (core.chart_contains(ca, w, 1.0, tol=TOL)
                and core.chart_contains(cb, w, 1.0, tol=TOL)):
            return f"charts {a} and {b} do not meet"
    return None


def _coverage_check(report) -> tuple:
    if report.samples_covered != report.samples_total:
        return report.samples_total, (
            f"coverage {report.samples_covered}/{report.samples_total}")
    return report.samples_total, None


def _kappa_check(cov, expected) -> tuple:
    if cov.kappa != expected:
        return 0, f"kappa {cov.kappa} != plan {expected}"
    return 0, None


# ---------------------------------------------------------------------------
# lazy-large: library calls on in-memory lazy coverings
# ---------------------------------------------------------------------------

class LazyLarge(Workload):
    # the builds take under a millisecond and their first call after the
    # heavy steps of a flow runs up to twice as slow as the next ones, so
    # each build is timed as the median of several calls
    BUILD_REPEAT = 9
    ANNULUS = (1e-2, 2.0)
    CHAIN_ANNULUS = ((0.01,), (-0.01,))
    CHAIN_POLY = ((0.1, 0.9), (0.1, 0.9j))

    def __init__(self):
        super().__init__("lazy-large", {
            "polydisc_a": {"n": 2, "eta": 1e-3, "gamma": 2.0, "samples": 200_000},
            "polydisc_b": {"n": 3, "eta": 0.3, "gamma": 2.0, "samples": 200_000},
            "levelset": {"alpha": [2, 1, 1], "c": 0.5, "gamma": 2.0,
                         "samples": 2_000},
            "certify": "polydisc_a",
            "chain_annulus": {"delta": 1e-2, "zeta": 2.0,
                              "from": [0.01], "to": [-0.01]},
            "chain_polydisc": {"n": 2, "eta": 0.75, "gamma": 2.0,
                               "active_axes": [2], "from": "0.1,0.9",
                               "to": "0.1,0.9i"},
        })
        self.chain_annulus = annulus.cover_annulus(*self.ANNULUS)
        self.chain_poly, _ = polydisc.cover_punctured_polydisc(
            2, 0.75, 2.0, active_axes={2})
        self.kappas = {"chain_annulus": self.chain_annulus.kappa,
                       "chain_polydisc": self.chain_poly.kappa}
        self.built = {}

    def warm_up(self) -> None:
        # a library user builds in a long-lived process; the first builds
        # pay one-off costs that are not the construction's
        polydisc.cover_punctured_polydisc(2, 1e-3, 2.0)
        polydisc.cover_punctured_polydisc(3, 0.3, 2.0)
        levelset.cover_monomial_level_set((2, 1, 1), 0.5, 2.0)

    def _cover_polydisc(self, key, n, eta):
        def run():
            self.built[key] = polydisc.cover_punctured_polydisc(n, eta, 2.0)
            return self.built[key]

        def check(result):
            cov, plan = result
            self.kappas[key] = cov.kappa
            return _kappa_check(cov, plan.kappa_final)
        return Step(f"cover {key}", "cover", run, check, self.BUILD_REPEAT)

    def _cover_levelset(self):
        def run():
            self.built["levelset"] = levelset.cover_monomial_level_set(
                (2, 1, 1), 0.5, 2.0)
            return self.built["levelset"]

        def check(cov):
            self.kappas["levelset"] = cov.kappa
            plan = polydisc.polydisc_plan(2, cov.meta["eta"], 2.0)
            return _kappa_check(cov, 2 * plan.kappa_final)
        return Step("cover levelset", "cover", run, check, self.BUILD_REPEAT)

    def flow(self, index: int, seed: int) -> list:
        region = {
            "polydisc_a": verify.PolydiscRegion(eta=1e-3, n=2),
            "polydisc_b": verify.PolydiscRegion(eta=0.3, n=3),
            "levelset": verify.LevelGraphRegion(alpha=(2, 1, 1), c=0.5),
        }

        def coverage(key, samples):
            def run():
                cov = self.built[key]
                cov = cov[0] if isinstance(cov, tuple) else cov
                return verify.check_coverage(cov, region[key], samples, seed)
            return Step(f"coverage {key}", "locate", run, _coverage_check)

        def certify():
            cov = self.built["polydisc_a"][0]
            return verify.certify_doubling(cov)

        def certify_check(report):
            kappa = self.kappas["polydisc_a"]
            if not report.passed or report.n_charts != kappa:
                return report.n_charts, (
                    f"doubling passed={report.passed} on "
                    f"{report.n_charts}/{kappa} charts")
            return report.n_charts, None

        def chain(cov, p, q):
            def run():
                return verify.chain_between(cov, p, q, seed=seed)

            def check(ch):
                return 0, _check_chain(cov.charts, ch, p, q)
            return run, check

        a_run, a_check = chain(self.chain_annulus, *self.CHAIN_ANNULUS)
        p_run, p_check = chain(self.chain_poly, *self.CHAIN_POLY)
        return [
            self._cover_polydisc("polydisc_a", 2, 1e-3),
            self._cover_polydisc("polydisc_b", 3, 0.3),
            self._cover_levelset(),
            coverage("polydisc_a", 200_000),
            coverage("polydisc_b", 200_000),
            coverage("levelset", 2_000),
            Step("certify polydisc_a", "certify", certify, certify_check),
            Step("chain annulus", "chain", a_run, a_check),
            Step("chain polydisc", "chain", p_run, p_check),
        ]


# ---------------------------------------------------------------------------
# CLI flows (file-flows and acharts)
# ---------------------------------------------------------------------------

def run_cli(argv: list) -> tuple:
    """``atlascover.cli.main`` in process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


def _parse(pattern: str, text: str):
    m = re.search(pattern, text)
    return m.groups() if m else None


class CliWorkload(Workload):
    """Shared pieces of the two workloads that drive ``atlas`` commands."""

    def __init__(self, name, params, tmpdir):
        super().__init__(name, params)
        self.tmpdir = tmpdir

    def path(self, stem: str) -> str:
        return os.path.join(self.tmpdir, stem + ".json")

    def hash_check(self, step_name: str, path: str) -> str | None:
        """Files written by the same step must be identical across flows."""
        digest = sha256_file(path)
        first = self.hashes.setdefault(step_name, digest)
        if digest != first:
            return f"{os.path.basename(path)} hash {digest[:12]} != {first[:12]}"
        return None


class FileFlows(CliWorkload):
    COVERINGS = {
        "annulus": {"argv": ["annulus", "--delta", "0.01", "--zeta", "2"],
                    "samples": 20_000},
        "levelset": {"argv": ["levelset", "--alpha", "2,1", "--c", "0.04,0",
                              "--gamma", "2"],
                     "samples": 200},
        "polydisc": {"argv": ["polydisc", "--dim", "2", "--eta", "0.75",
                              "--gamma", "2"],
                     "samples": 2_000},
    }
    CHAIN = ((0.5 + 0j,), (0.5j,))

    def __init__(self, tmpdir):
        super().__init__("file-flows", {
            "coverings": {k: {"cover_argv": v["argv"], "samples": v["samples"]}
                          for k, v in self.COVERINGS.items()},
            "chain": {"covering": "annulus", "from": "0.5,0", "to": "0,0.5"},
        }, tmpdir)
        self.expected = {
            "annulus": polydisc.polydisc_plan(1, 0.01, 2.0).kappa_final,
            "levelset": 2 * polydisc.polydisc_plan(
                1, polydisc.level_lower_bound(0.04, 1.0, 1), 2.0).kappa_final,
            "polydisc": polydisc.polydisc_plan(2, 0.75, 2.0).kappa_final,
        }
        self._reloaded = {}

    def _reload(self, key: str):
        """The covering as the CLI sees it, cached per file digest."""
        path = self.path(key)
        digest = sha256_file(path)
        if digest not in self._reloaded:
            self._reloaded[digest] = jsonio.read_covering(path)
        return self._reloaded[digest]

    def flow(self, index: int, seed: int) -> list:
        steps = []
        for key, spec in self.COVERINGS.items():
            path = self.path(key)
            steps += [self._cover(key, spec["argv"], path),
                      self._coverage(key, path, spec["samples"], seed),
                      self._doubling(key, path)]
            if key == "annulus":
                steps.append(self._chain(path, seed))
        return steps

    def _cover(self, key, argv, path):
        name = f"cover {key}"

        def check(res):
            rc, text = res
            got = _parse(r"kappa=(\d+) ->", text)
            if rc != 0 or got is None:
                return 0, f"exit {rc}: {text.strip()[-200:]}"
            kappa = int(got[0])
            self.kappas[key] = kappa
            if kappa != self.expected[key]:
                return 0, f"kappa {kappa} != plan {self.expected[key]}"
            return 0, self.hash_check(name, path)
        return Step(name, "cover",
                    lambda: run_cli(["cover", *argv, "--out", path]), check)

    def _coverage(self, key, path, samples, seed):
        def check(res):
            rc, text = res
            got = _parse(r"coverage (\d+)/(\d+)", text)
            if got is None:
                return 0, f"exit {rc}: {text.strip()[-200:]}"
            covered, total = map(int, got)
            if rc != 0 or covered != total or total == 0:
                return total, f"exit {rc}: coverage {covered}/{total}"
            return total, None
        argv = ["verify", "coverage", "--covering", path,
                "--samples", str(samples), "--seed", str(seed)]
        return Step(f"coverage {key}", "locate", lambda: run_cli(argv), check)

    def _doubling(self, key, path):
        def check(res):
            rc, text = res
            got = _parse(r"doubling (\d+)/(\d+) pass=(\w+)", text)
            if got is None:
                return 0, f"exit {rc}: {text.strip()[-200:]}"
            ok, total = int(got[0]), int(got[1])
            if rc != 0 or got[2] != "True" or ok != total \
                    or total != self.expected[key]:
                return total, f"exit {rc}: doubling {ok}/{total} pass={got[2]}"
            return total, None
        argv = ["verify", "doubling", "--covering", path]
        return Step(f"certify {key}", "certify", lambda: run_cli(argv), check)

    def _chain(self, path, seed):
        p, q = self.CHAIN

        def check(res):
            rc, text = res
            got = _parse(r"charts=\[([\d, ]*)\]", text)
            if rc != 0 or got is None:
                return 0, f"exit {rc}: {text.strip()[-200:]}"
            idx = [int(v) for v in got[0].split(",") if v.strip()]
            return 0, _check_disk_chain(self._reload("annulus").charts, idx, p, q)
        argv = ["chain", "--covering", path, "--from=0.5,0", "--to=0,0.5",
                "--seed", str(seed)]
        return Step("chain annulus", "chain", lambda: run_cli(argv), check)

    # -- oracle ---------------------------------------------------------------

    def oracle(self, seed: int) -> dict:
        """Blocked O(kappa) membership scan against the structured answers.

        For each covering, a subsample of the coverage points of the first
        flow plus as many moved copies are located three ways: by the oracle
        scan over ``chart_arrays``, by the in-memory lazy covering and by the
        covering read back from its file.  The copies put the last coordinate
        on a random radius around the inner or the outer rim of the region
        (level sets: off the surface), so that many lie outside the union.
        Any disagreement is a mismatch.
        """
        builds = {      # covering, region, inner radius of the last axis
            "annulus": (annulus.cover_annulus(0.01, 2.0),
                        verify.AnnulusRegion(delta=0.01), 0.01),
            "levelset": (levelset.cover_monomial_level_set((2, 1), 0.04, 2.0),
                         verify.LevelGraphRegion(alpha=(2, 1), c=0.04), None),
            "polydisc": (polydisc.cover_punctured_polydisc(2, 0.75, 2.0)[0],
                         verify.PolydiscRegion(eta=0.75, n=2), 0.75),
        }
        rng = np.random.default_rng(seed)
        report = {"points": 0, "inside": 0, "mismatches": 0, "per_covering": {}}
        for key, (cov, region, inner) in builds.items():
            path = self.path(f"oracle-{key}")
            jsonio.write_covering(cov, path)
            reloaded = jsonio.read_covering(path)
            os.remove(path)
            pts = verify.region_samples(region, self.COVERINGS[key]["samples"],
                                        flow_seeds(seed)[0])
            pts = pts[np.linspace(0, len(pts) - 1, min(64, len(pts))).astype(int)]
            out = pts.copy()
            if inner is None:
                out[:, 0] *= 1.01
            else:
                rim = np.where(rng.random(len(out)) < 0.5, inner, 1.0)
                radius = rim * (0.5 + rng.random(len(out)))
                out[:, -1] *= radius / np.abs(out[:, -1])
            pts = np.concatenate([pts, out])
            truth = _oracle_scan(cov, pts)
            mism = int((suspension.covers_points(cov.charts, pts, 1.0) != truth).sum()
                       + (suspension.covers_points(reloaded.charts, pts, 1.0)
                          != truth).sum())
            report["per_covering"][key] = {"points": len(pts),
                                           "inside": int(truth.sum()),
                                           "mismatches": mism}
            report["points"] += len(pts)
            report["inside"] += int(truth.sum())
            report["mismatches"] += mism
        return report


def _oracle_scan(cov, pts: np.ndarray, block: int = 1024) -> np.ndarray:
    """Unit-scale membership by scanning every chart.

    Affine charts: sum_i |(p_i - b_i) / d_i|^2 <= 1 + tol.  Level-set charts:
    over a base chart containing xbar, the alpha_1 branches are exactly the
    alpha_1 roots of g^alpha_1 = c / xbar^alphabar, so (x1, xbar) is covered
    iff x1 is such a root and some base chart contains xbar.
    """
    root_ok = np.ones(len(pts), dtype=bool)
    if isinstance(cov.ambient, core.MonomialLevelSet):
        alpha = np.asarray(cov.ambient.alpha, dtype=float)
        c = cov.ambient.c
        residual = np.abs(np.prod(pts ** alpha, axis=1) - c)
        root_ok = residual <= 1e-8 * abs(c)
        pts = pts[:, 1:]
        b, d = suspension.chart_arrays(cov.charts.base_cov.charts)
    else:
        b, d = suspension.chart_arrays(cov.charts)
    inside = np.zeros(len(pts), dtype=bool)
    for lo in range(0, b.shape[0], block):
        z = (pts[:, None, :] - b[None, lo:lo + block]) / d[None, lo:lo + block]
        inside |= ((z.real ** 2 + z.imag ** 2).sum(axis=2) <= 1.0 + TOL).any(axis=1)
    return inside & root_ok


class ACharts(CliWorkload):
    ATLASES = {
        "m2": ["--mu", "0.5,-0.25", "--eps", "0.01"],
        "m1": ["--mu", "1", "--eps", "1e-6"],
    }
    GRID = 16
    MEMBERSHIP_POINTS = 5_000

    def __init__(self, tmpdir, seed):
        super().__init__("acharts", {
            "atlases": {k: {"cover_argv": ["graph", *v],
                            "verify_argv": ["--grid", str(self.GRID)]}
                        for k, v in self.ATLASES.items()},
            "membership": {"atlas": "m2", "points": self.MEMBERSHIP_POINTS,
                           "domain": "log-uniform in (eps, 1)^2 with x^mu < 1"},
        }, tmpdir)
        data = real_acharts.MonomialData(coefficient=1.0, exponents=(0.5, -0.25))
        self.membership_charts = real_acharts.cover_monomial_graph(data, 0.01)
        self.points = [self._domain_points(data, 0.01, s) for s in flow_seeds(seed)]
        self._batch = {}

    def _domain_points(self, data, eps, seed):
        """Seeded points of {x in (eps, 1)^m : a x^mu < 1}, log-uniform."""
        rng = np.random.default_rng(seed)
        pts = np.zeros((0, data.m))
        while len(pts) < self.MEMBERSHIP_POINTS:
            x = eps ** rng.random((self.MEMBERSHIP_POINTS, data.m))
            pts = np.concatenate([pts, x[data.value(x) < 1.0]])
        return pts[:self.MEMBERSHIP_POINTS]

    def reference_steps(self, traced: bool) -> list:
        """``verify_achart_batch`` on each atlas file, the reference for the
        per-chart CLI path; rerun only in traced flows or for a new file."""
        steps = []
        for key in self.ATLASES:
            path = self.path(key)
            digest = sha256_file(path) if os.path.exists(path) else None
            if digest is None or (digest in self._batch and not traced):
                continue

            def run(path=path):
                charts, _, _ = jsonio.read_achart_atlas(path)
                return real_acharts.verify_achart_batch(charts, grid=self.GRID)

            def check(devs, digest=digest):
                self._batch[digest] = devs
                if not devs.max() <= 1.0:
                    return len(devs), f"batch deviation {devs.max()} exceeds 1"
                return len(devs), None
            steps.append(Step(f"batch {key}", "reference", run, check))
        return steps

    def flow(self, index: int, seed: int) -> list:
        steps = []
        for key, argv in self.ATLASES.items():
            path = self.path(key)
            steps += [self._cover(key, argv, path), self._verify(key, path)]
        xs = self.points[index % MAX_FLOWS]

        def membership_check(member):
            if not member.all():
                return len(member), f"{int((~member).sum())} points outside the atlas"
            return len(member), None
        steps.append(Step("membership m2", "locate",
                          lambda: real_acharts.graph_membership(
                              self.membership_charts, xs),
                          membership_check))
        return steps

    def _cover(self, key, argv, path):
        name = f"cover {key}"

        def check(res):
            rc, text = res
            got = _parse(r"count=(\d+) ->", text)
            if rc != 0 or got is None:
                return 0, f"exit {rc}: {text.strip()[-200:]}"
            self.kappas[key] = int(got[0])
            return 0, self.hash_check(name, path)
        return Step(name, "cover",
                    lambda: run_cli(["cover", "graph", *argv, "--out", path]),
                    check)

    def _verify(self, key, path):
        argv = ["verify", "achart", "--charts", path, "--grid", str(self.GRID)]

        def check(res):
            rc, text = res
            got = _parse(r"acharts (\d+) max_deviation=(\S+) pass=(\w+)", text)
            if got is None:
                return 0, f"exit {rc}: {text.strip()[-200:]}"
            n, worst = int(got[0]), float(got[1])
            devs = self._batch.get(sha256_file(path))
            if devs is None:
                return n, "no batch reference for this atlas"
            if rc != 0 or got[2] != "True" or n != len(devs):
                return n, f"exit {rc}: acharts {n}/{len(devs)} pass={got[2]}"
            if worst > 1.0:
                return n, f"deviation {worst} exceeds 1"
            if not math.isclose(worst, float(devs.max()), rel_tol=1e-9):
                return n, f"per-chart max {worst} != batch max {devs.max()}"
            return n, None
        return Step(f"certify {key}", "certify", lambda: run_cli(argv), check)


def make(name: str, tmpdir: str, seed: int) -> Workload:
    if name == "lazy-large":
        return LazyLarge()
    if name == "file-flows":
        return FileFlows(tmpdir)
    if name == "acharts":
        return ACharts(tmpdir, seed)
    raise ValueError(f"unknown workload {name!r}")

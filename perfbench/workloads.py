"""The four seeded workloads: their operations, warm-ups and output checks.

A workload is built from a seed into one round: a fixed list of operations
with their inputs. A run repeats whole rounds, in a freshly shuffled order
each time, so every run attempts the same mix and the operation kinds are
interleaved through it. The first time an operation runs, its output is
checked against the oracles in `oracles.py` or against properties the
method must have; later runs of the same operation must reproduce that
output exactly.

Each workload fixes the percentile it reports as `op_tail_ms` and the
fewest operations a run may hold, so that the percentile always leaves at
least ten operations beyond it. The mixes are laid out so that the median
and that percentile each fall well inside one class of operations whose
members cost the same; README.md lists the classes.

Nothing here imports mpmath or scipy at module level: a setup probe imports
this module, and its time should be shotdp's import plus input building.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time

import oracles
from probe import own_peak_rss_kb


class CheckFailed(Exception):
    """An output disagrees with its oracle or breaks a required property."""


class OpFailed(Exception):
    """An operation did not complete (exception or nonzero exit code)."""


class Op:
    __slots__ = ("kind", "items", "run", "check", "digest")

    def __init__(self, kind, items, run, check, digest=None):
        self.kind = kind
        self.items = items
        self.run = run
        self.check = check
        self.digest = digest or _text_digest


def _text_digest(text):
    return hashlib.blake2b(text.encode() if isinstance(text, str) else text, digest_size=16).digest()


def loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# ---------------------------------------------------------------- checks

def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def expect_close(what, got, want, rtol, atol=0.0):
    if not (abs(got - want) <= atol + rtol * max(abs(got), abs(want))):
        raise CheckFailed(f"{what}: got {got!r}, oracle {want!r} (rtol {rtol}, atol {atol})")


def expect_all_close(what, got, want, rtol, atol=0.0):
    import numpy as np

    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: {got.shape[0]} values, oracle has {want.shape[0]}")
    bad = ~(np.abs(got - want) <= atol + rtol * np.maximum(np.abs(got), np.abs(want)))
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckFailed(f"{what}[{i}]: got {got[i]!r}, oracle {want[i]!r} (rtol {rtol}, atol {atol})")


# Values printed with 10 significant digits carry a relative rounding of at
# most 5e-10; 2e-9 leaves room for the last bit of the formula itself.
PRINTED = 2e-9
# Tail budgets driven by delta go through shotdp's bisection for c, which
# stops at a relative delta error of 1e-10.
VIA_BISECTION = 1e-7
# Exact-oracle deltas near n = 1e6: shotdp sums n + 1 pmf terms whose total
# drifts from 1 by about 5e-10 there, so compare absolutely at 1e-8.
DELTA_ATOL = 1e-8


def parse_csv(text: str):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def columns(header, rows):
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def floats(values):
    return [float(v) for v in values]


def expected_pure_flags(mu, eps):
    flags = ["RegimeNegativeTerm"] if mu > 0.5 else []
    if not math.isfinite(eps) or eps < 0.0:
        flags.append("Divergent")
    return ";".join(flags)


def expected_tail_flags(delta, u, mu, eps):
    flags = ["DeltaExceedsOne"] if delta > 1.0 else []
    if oracles.tail_pole(u, mu) <= 0.0:
        flags.append("RegimeInvalid")
    if not math.isfinite(eps) or eps < 0.0:
        flags.append("Divergent")
    return ";".join(flags)


def check_flags(what, got, want, pole_gap=None):
    # Within a hair of the pole the flag depends on the last bit of 1 - mu - u.
    if pole_gap is not None and abs(pole_gap) < 1e-12:
        return
    expect(got == want, f"{what}: flags {got!r}, expected {want!r}")


def check_counts_match_law(what, counts, probs, trials):
    """Monte Carlo counts within 7 standard errors (plus 3 counts) of the exact law."""
    import numpy as np

    counts = np.asarray(counts, dtype=float)
    mean = trials * np.asarray(probs, dtype=float)
    allowed = 7.0 * np.sqrt(mean * (1.0 - np.asarray(probs))) + 3.0
    bad = np.abs(counts - mean) > allowed
    if bad.any():
        k = int(np.argmax(bad))
        raise CheckFailed(f"{what}: count {counts[k]:.0f} at k={k}, exact law expects {mean[k]:.2f} +- {allowed[k]:.2f}")
    expect(int(counts.sum()) == trials, f"{what}: counts sum to {counts.sum()}, not {trials} trials")


def check_audit_payload(what, payload, d):
    """Checks on the JSON of one `shotdp audit` run (CLI or run_audit)."""
    config, derived = payload["config"], payload["derived"]
    n, trials = config["n"], config["trials"]
    # The default state has outcome mean 0.15; its neighbour at distance d,
    # mixed toward the maximally mixed state, has 0.15 + d. The printed means
    # carry only 10 digits, too few for n log(mu0/mu1) when mu0 - mu1 is small.
    mu1, mu0 = 0.15, 0.15 + d
    expect_close(f"{what} mu0", derived["mu0"], mu0, PRINTED)
    expect_close(f"{what} mu1", derived["mu1"], mu1, PRINTED)
    expect_close(f"{what} trace distance", derived["trace_distance"], d, PRINTED)
    dominance, carlo = payload["dominance"], payload["monte_carlo"]
    expect_close(f"{what} exact_epsilon", dominance["exact_epsilon"], oracles.exact_epsilon(mu0, mu1, n), PRINTED)
    theorem = oracles.eps_noiseless(d, config["projector_rank"], n, mu1)
    expect_close(f"{what} theorem_epsilon", dominance["theorem_epsilon"], theorem, PRINTED)
    expect_close(f"{what} exact_delta_at_eps", dominance["exact_delta_at_eps"],
                 oracles.hockey_stick_delta(mu0, mu1, n, max(dominance["theorem_epsilon"], 0.0)), PRINTED, DELTA_ATOL)
    law0, law1 = oracles.binomial_pmf(mu0, n), oracles.binomial_pmf(mu1, n)
    expect_all_close(f"{what} exact_p0", carlo["details"]["exact_p0"], law0, PRINTED, 1e-300)
    expect_all_close(f"{what} exact_p1", carlo["details"]["exact_p1"], law1, PRINTED, 1e-300)
    import numpy as np

    counts0 = np.rint(np.asarray(carlo["details"]["empirical_p0"]) * trials)
    counts1 = np.rint(np.asarray(carlo["details"]["empirical_p1"]) * trials)
    check_counts_match_law(f"{what} empirical_p0", counts0, law0, trials)
    check_counts_match_law(f"{what} empirical_p1", counts1, law1, trials)
    expect(payload["single_shot_check"]["passed"] is True, f"{what}: single-shot privacy check failed")


# ---------------------------------------------------------------- environment

class Env:
    """What every workload needs: the package's modules and a scratch directory."""

    def __init__(self, root: str, workdir: str):
        import importlib

        self.root = root
        self.workdir = workdir
        self.budget = importlib.import_module("shotdp.budget")
        self.audit = importlib.import_module("shotdp.audit")
        self.shots = importlib.import_module("shotdp.shots")
        self.states = importlib.import_module("shotdp.states")
        self.cli = importlib.import_module("shotdp.cli")
        self.tracer = None
        os.makedirs(workdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


def child_env(root: str) -> dict:
    """Environment for every process the benchmark starts: shotdp from this
    checkout; the thread pinning run.py put in os.environ is inherited."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class Workload:
    name = ""
    tail_pct = 75
    min_ops = 40

    def __init__(self, env: Env, seed: int):
        self.env = env
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: list[Op] = []
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return own_peak_rss_kb()

    def close(self) -> None:
        """Stop any process the workload started."""


# ---------------------------------------------------------------- sweep-table

FIGURE_ROWS = {"fig3": 96, "fig4a": 91, "fig4b": 96, "fig5a": 40, "fig5b": 96}
FIG = {"d": 0.1, "r": 1, "mu": 0.15}


def check_figure(which: str, text: str) -> None:
    import numpy as np

    header, rows = parse_csv(text)
    expect(len(rows) == FIGURE_ROWS[which], f"{which}: {len(rows)} rows, grid has {FIGURE_ROWS[which]}")
    col = columns(header, rows)
    d, r, mu = FIG["d"], FIG["r"], FIG["mu"]
    if which in ("fig3", "fig4b", "fig5b"):
        n = np.array(floats(col["n"]))
        expect(list(n) == list(range(5, 101)), f"{which}: n column is not 5..100")
    if which == "fig3":
        want = oracles.eps_noiseless(d, r, n, mu)
    elif which == "fig4a":
        p = np.array(floats(col["p"]))
        expect_all_close("fig4a p", p, [i / 100.0 for i in range(5, 96)], PRINTED)
        want = oracles.eps_depolarizing(d, r, 10, mu, p, 2)
    elif which == "fig4b":
        want = oracles.eps_depolarizing(d, r, n, mu, 0.5, 2)
    elif which == "fig5a":
        delta = floats(col["delta"])
        expect_all_close("fig5a delta", delta, np.logspace(-4, -1, 40), PRINTED)
        c = [oracles.c_from_delta(x, mu, 10) for x in delta]
        expect_all_close("fig5a c", floats(col["c"]), c, PRINTED)
        want = [oracles.eps_delta_noiseless(d, r, 10, mu, ci) for ci in c]
        for i, ci in enumerate(c):
            check_flags(f"fig5a row {i}", col["warnings"][i], expected_tail_flags(delta[i], 10 * d * r, mu, want[i]))
    else:
        c = [oracles.c_from_delta(0.01, mu, int(k)) for k in n]
        want = [oracles.eps_delta_noiseless(d, r, int(k), mu, ci) for k, ci in zip(n, c)]
        for i, k in enumerate(n):
            u = k * d * r
            check_flags(f"fig5b row {i}", col["warnings"][i], expected_tail_flags(0.01, u, mu, want[i]),
                        oracles.tail_pole(u, mu))
    rtol = VIA_BISECTION if which.startswith("fig5") else PRINTED
    expect_all_close(f"{which} epsilon", floats(col["epsilon"]), want, rtol)


def sweep_records(text: str, fmt: str, axis: str):
    """(axis values, epsilon, delta, warnings) from a sweep's CSV or JSON."""
    if fmt == "csv":
        header, rows = parse_csv(text)
        expect(header == [axis, "epsilon", "delta", "warnings"], f"sweep header {header}")
        col = columns(header, rows)
        return floats(col[axis]), floats(col["epsilon"]), floats(col["delta"]), col["warnings"]
    records = json.loads(text)
    return ([rec[axis] for rec in records], [rec["epsilon"] for rec in records],
            [rec["delta"] for rec in records], [";".join(rec["warnings"]) for rec in records])


class SweepSpec:
    """One sweep: the fixed parameters, the axis and its grid, the output format."""

    def __init__(self, params, axis, start, step, count, fmt):
        self.params = params
        self.axis = axis
        self.start, self.step, self.count = start, step, count
        self.fmt = fmt

    @property
    def grid(self):
        return (self.start, self.start + (self.count - 1) * self.step, self.step)

    def values(self):
        return [self.start + i * self.step for i in range(self.count)]

    def check(self, text: str) -> None:
        import numpy as np

        axis_values, eps, delta, flags = sweep_records(text, self.fmt, self.axis)
        expect(len(eps) == self.count, f"{self.axis}-sweep: {len(eps)} rows, grid has {self.count}")
        grid = np.array(self.values())
        expect_all_close(f"{self.axis}-sweep axis", axis_values, grid, PRINTED)
        prm = dict(self.params)
        regime = prm.pop("regime", "noiseless")
        get = lambda key: grid if self.axis == key else prm.get(key)  # noqa: E731
        d, r, n, mu, p, dim = get("d"), get("r"), get("n"), get("mu"), get("p"), get("D")
        if self.axis == "delta":
            cs = np.array([oracles.c_from_delta(x, mu, n) for x in grid])
            expect_all_close("delta-sweep delta", delta, grid, PRINTED)
            if regime == "noiseless":
                want, u = oracles.eps_delta_noiseless(d, r, n, mu, cs), n * d * r
            else:
                want, u = oracles.eps_delta_depolarizing(d, r, n, mu, p, dim, cs), n * oracles.depolarizing_scale(p, d, r, dim)
            expected = [expected_tail_flags(x, u, mu, e) for x, e in zip(grid, want)]
            rtol = VIA_BISECTION
        else:
            want = oracles.eps_noiseless(d, r, n, mu) if regime == "noiseless" else oracles.eps_depolarizing(d, r, n, mu, p, dim)
            want = np.broadcast_to(want, grid.shape)
            expect(not any(delta), f"{self.axis}-sweep: pure budget with nonzero delta")
            expected = [expected_pure_flags(mu, e) for e in want]
            rtol = PRINTED
        expect_all_close(f"{self.axis}-sweep epsilon", eps, want, rtol)
        expect(list(flags) == expected, f"{self.axis}-sweep: flags differ from the oracle's regime")


class SweepTable(Workload):
    """In-process run_sweep / run_figures calls; items are budget points written.

    One round (20 operations), cheapest class first:
        5  run_figures, one per figure                      ~1-3 ms
        2  p-axis sweeps, 1000 points, depolarizing         ~15 ms
        6  delta-axis sweeps, 1000 points, CSV              ~40 ms   <- median
        5  n-axis sweeps, 1e4 points, CSV                   ~140 ms  <- p75
        1  n-axis sweep, 1e4 points, JSON                   ~190 ms
        1  n-axis sweep, 1e5 points, CSV                    ~1.4 s
    """

    name = "sweep-table"
    tail_pct = 75
    min_ops = 40

    def _base(self, regime):
        rng = self.rng
        params = {"r": 1, "mu": rng.uniform(0.05, 0.45)}
        if regime == "noiseless":
            params["d"] = loguniform(rng, 1e-5, 1e-3)
        else:
            params.update(d=loguniform(rng, 1e-6, 1e-4), p=rng.uniform(0.2, 0.9), D=rng.choice((2, 4)),
                          regime="depolarizing")
        return params

    def build(self):
        rng = self.rng
        for which in FIGURE_ROWS:
            self.ops.append(self._figure_op(which))
        for fmt in ("csv", "json"):
            params = self._base("depolarizing")
            params.pop("p")
            params["n"] = rng.randint(10, 100)
            start = rng.uniform(1e-4, 9e-4)
            self.ops.append(self._sweep_op("sweep.p", SweepSpec(params, "p", start, (0.999 - start) / 999, 1000, fmt)))
        for regime in ("noiseless",) * 3 + ("depolarizing",) * 3:
            params = self._base(regime)
            params["n"] = rng.randint(10, 100)
            lo = loguniform(rng, 1e-6, 1e-5)
            self.ops.append(self._sweep_op("sweep.delta", SweepSpec(params, "delta", lo, lo, 1000, "csv")))
        for regime, count, fmt in (("noiseless", 10**4, "csv"),) * 3 + (("depolarizing", 10**4, "csv"),) * 2 + (
                ("noiseless", 10**4, "json"), ("noiseless", 10**5, "csv")):
            kind = f"sweep.n{count:.0e}.{fmt}".replace("+0", "")
            self.ops.append(self._sweep_op(kind, SweepSpec(self._base(regime), "n", rng.randint(1, 1000), 1, count, fmt)))

    def _figure_op(self, which):
        env = self.env
        out = env.path(f"{which}.csv")
        return Op("figures", FIGURE_ROWS[which], lambda: env.cli.run_figures(which, out),
                  lambda text: check_figure(which, text))

    def _sweep_op(self, kind, spec: SweepSpec):
        env = self.env
        params = {**spec.params, "axis": spec.axis}

        def run():
            return env.cli.run_sweep(env.cli.RunConfig("sweep", params=params, grid=spec.grid, format=spec.fmt))

        return Op(kind, spec.count, run, spec.check)

    def warmup(self):
        cli = self.env.cli
        for which in FIGURE_ROWS:
            cli.run_figures(which, self.env.path(f"{which}.csv"))
        for axis, grid, extra in (("n", (1, 10, 1), {}), ("delta", (1e-4, 1e-3, 1e-4), {"n": 10}),
                                  ("p", (0.1, 0.9, 0.1), {"n": 10, "D": 2, "regime": "depolarizing"})):
            for fmt in ("csv", "json"):
                cli.run_sweep(cli.RunConfig("sweep", params={"d": 1e-4, "r": 1, "mu": 0.15, "axis": axis, **extra},
                                            grid=grid, format=fmt))


# ---------------------------------------------------------------- audit-scale

class AuditScale(Workload):
    """In-process exact oracles, Monte Carlo and run_audit; items are outcomes (n + 1).

    One round (20 operations), cheapest class first:
        3  pair audits at n = 10                            ~0.4 ms
        3  pair audits at n = 1e3                           ~0.9 ms
        7  pair audits at n = 1e4                           ~5 ms    <- median
        1  pair audit at n = 1e5                            ~56 ms
        4  run_audit at n = 5000 (about 375 KB of JSON)     ~145 ms  <- p80
        1  monte_carlo_audit, n = 1e3, 1e6 trials           ~200 ms
        1  pair audit at n = 1e6                            ~600 ms
    A pair audit is exact_epsilon, hockey_stick_delta and dominance_audit on
    one seeded (mu0, mu1) with mu0 - mu1 <= d. The n = 1e6 audit covers most
    of the items; single ones vary by +-20 % from call to call, so the tail
    is taken from run_audit, whose cost is steadier.
    """

    name = "audit-scale"
    tail_pct = 80
    min_ops = 50

    def _pair(self, n):
        # d shrinks like 1/sqrt(n) past n = 1e4, which keeps the theorem
        # epsilon, and the exact epsilon of the n = 1e3 Monte Carlo pair,
        # below 700. From there on hockey_stick_delta counts all of P0 where
        # P1 underflows to 0.0 (see FOUND in CHANGES.md).
        rng = self.rng
        mu1 = rng.uniform(0.05, 0.45)
        scale = min(1.0, math.sqrt(1e4 / n))
        d = loguniform(rng, 1e-3 * scale, 0.03 * scale)
        return d, mu1 + d * rng.uniform(0.2, 1.0), mu1

    def build(self):
        rng = self.rng
        for n, copies in ((10, 3), (10**3, 3), (10**4, 7), (10**5, 1), (10**6, 1)):
            for _ in range(copies):
                d, mu0, mu1 = self._pair(n)
                self.ops.append(self._pair_op(n, d, mu0, mu1, rng.uniform(0.0, 3.0)))
        for _ in range(4):
            self.ops.append(self._run_audit_op(5000, loguniform(rng, 0.002, 0.01), rng.randrange(2**32)))
        d, mu0, mu1 = self._pair(1000)
        self.ops.append(self._monte_carlo_op(mu0, mu1, 1000, 10**6, rng.randrange(2**32)))

    def _pair_op(self, n, d, mu0, mu1, eps):
        audit = self.env.audit

        def run():
            return (audit.exact_epsilon(mu0, mu1, n), audit.hockey_stick_delta(mu0, mu1, n, eps),
                    audit.dominance_audit(d, 1, n, mu0, mu1))

        def check(out):
            exact, delta, report = out
            what = f"pair audit n={n} mu0={mu0!r} mu1={mu1!r}"
            expect_close(f"{what} exact_epsilon", exact, oracles.exact_epsilon(mu0, mu1, n), 1e-9)
            expect_close(f"{what} hockey_stick_delta(eps={eps!r})", delta,
                         oracles.hockey_stick_delta(mu0, mu1, n, eps), 1e-6, DELTA_ATOL)
            tv = audit.hockey_stick_delta(mu0, mu1, n, 0.0)
            expect_close(f"{what} delta at eps=0 vs total variation", tv, oracles.hockey_stick_delta(mu0, mu1, n, 0.0),
                         1e-6, DELTA_ATOL)
            expect(delta <= tv + 1e-12, f"{what}: delta({eps}) = {delta} exceeds delta(0) = {tv}")
            theorem = oracles.eps_noiseless(d, 1, n, mu1)
            expect_close(f"{what} theorem_epsilon", report.theorem_epsilon, theorem, 1e-12)
            expect(report.exact_epsilon == exact, f"{what}: dominance_audit's exact_epsilon differs")
            expect_close(f"{what} exact_delta_at_eps", report.exact_delta_at_eps,
                         oracles.hockey_stick_delta(mu0, mu1, n, max(theorem, 0.0)), 1e-6, DELTA_ATOL)
            for side in ("lower", "upper"):
                x = report.details[f"x_{side}"]
                llr = oracles.surrogate_llr(x, mu0, mu1, n)
                got = report.details[f"llr_{side}"]
                expect_close(f"{what} llr_{side}", got, llr, 1e-9, 1e-9 * n)
                if abs(llr - theorem) > 1e-9 * max(1.0, abs(theorem)):
                    expect(report.dominated[f"endpoint_{side}"] == (llr <= theorem),
                           f"{what}: endpoint_{side} verdict disagrees with the oracle")
            expect(report.details["window_exact_epsilon"] <= exact * (1 + 1e-12),
                   f"{what}: windowed leakage exceeds the exact epsilon")

        def digest(out):
            return repr(out)

        return Op(f"audit.n{n:.0e}".replace("+0", ""), n + 1, run, check, digest)

    def _monte_carlo_op(self, mu0, mu1, n, trials, seed):
        audit = self.env.audit

        def check(report):
            import numpy as np

            what = f"monte_carlo_audit n={n} mu0={mu0!r} mu1={mu1!r} seed={seed}"
            expect_close(f"{what} exact_epsilon", report.exact_epsilon, oracles.exact_epsilon(mu0, mu1, n), 1e-9)
            expect_close(f"{what} exact_delta_at_eps", report.exact_delta_at_eps,
                         oracles.hockey_stick_delta(mu0, mu1, n, report.exact_epsilon), 1e-6, DELTA_ATOL)
            law0, law1 = oracles.binomial_pmf(mu0, n), oracles.binomial_pmf(mu1, n)
            expect_all_close(f"{what} exact_p0", report.details["exact_p0"], law0, 1e-9, 1e-300)
            expect_all_close(f"{what} exact_p1", report.details["exact_p1"], law1, 1e-9, 1e-300)
            counts0 = np.rint(np.asarray(report.details["empirical_p0"]) * trials)
            counts1 = np.rint(np.asarray(report.details["empirical_p1"]) * trials)
            check_counts_match_law(f"{what} empirical_p0", counts0, law0, trials)
            check_counts_match_law(f"{what} empirical_p1", counts1, law1, trials)
            unseen = tuple(int(k) for k in np.flatnonzero((counts0 == 0) | (counts1 == 0)))
            expect(report.excluded_outcomes == unseen, f"{what}: excluded outcomes are not the unseen counts")

        return Op("monte_carlo", n + 1, lambda: audit.monte_carlo_audit(mu0, mu1, n, trials, seed), check, repr)

    def _run_audit_op(self, n, d, seed):
        cli = self.env.cli
        cfg = cli.RunConfig("audit", params={"n": n, "d": d}, seed=seed)

        def run():
            text, code = cli.run_audit(cfg)
            if code != 0:
                raise OpFailed(f"run_audit n={n} d={d!r} returned exit code {code}")
            return text

        return Op("run_audit", n + 1, run, lambda text: check_audit_payload(f"run_audit n={n} d={d!r}", json.loads(text), d))

    def warmup(self):
        audit, cli = self.env.audit, self.env.cli
        audit.exact_epsilon(0.16, 0.15, 10)
        audit.hockey_stick_delta(0.16, 0.15, 10, 0.5)
        audit.dominance_audit(0.01, 1, 10, 0.16, 0.15)
        audit.monte_carlo_audit(0.16, 0.15, 10, 1000, 1)
        cli.run_audit(cli.RunConfig("audit", params={"n": 10, "d": 0.01, "trials": 1000}, seed=1))


# ---------------------------------------------------------------- scalar-api

class ScalarApi(Workload):
    """Batches of independent scalar library calls; items are calls completed.

    Every batch has the same 60 calls, each on its own seeded inputs:
        8  BudgetInputs + epsilon_noiseless
        8  BudgetInputs + epsilon_depolarizing
        4+4  BudgetInputs + epsilon_delta_noiseless, driven by c / by delta
        4+4  BudgetInputs + epsilon_delta_depolarizing, driven by c / by delta
        8  delta_from_c, 8 c_from_delta (half in each convention)
        4  shots_for_budget (half noiseless, half depolarizing), answers in [2^10, 2^11)
        8  exact_epsilon at n <= 100
    One round is 16 batches. All batches cost the same, so the median and
    p90 both come from the one class. A batch's p99 measures the host's
    millisecond-scale jitter more than the library; it moved by 16 % between
    runs, so the tail is taken at p90.
    """

    name = "scalar-api"
    tail_pct = 90
    min_ops = 100
    BATCHES = 16

    def _point(self, noisy):
        rng = self.rng
        point = {"d": loguniform(rng, 1e-5, 1e-2), "r": 1, "n": rng.randint(1, 1000), "mu": rng.uniform(0.05, 0.45)}
        if noisy:
            point.update(p=rng.uniform(0.2, 0.9), D=rng.choice((2, 4)))
        return point

    def _c_for(self, point):
        # Up to 8 sigma, so delta stays far above the double range: past about
        # 38 sigma erfc underflows to a delta of 0.0 that no flag reports.
        return oracles.sigma(point["mu"], point["n"]) * self.rng.uniform(0.2, 8.0)

    def _delta_for(self, point, convention="paper"):
        sup = oracles.SQRT_2PI * oracles.sigma(point["mu"], point["n"]) if convention == "paper" else 1.0
        return loguniform(self.rng, 1e-12, 0.5 * sup)

    def build(self):
        for _ in range(self.BATCHES):
            self.ops.append(self._batch())

    def _batch(self):
        rng, budget = self.rng, self.env.budget
        pure = [("epsilon_noiseless", self._point(False)) for _ in range(8)]
        pure += [("epsilon_depolarizing", self._point(True)) for _ in range(8)]
        tail = []
        for fname, noisy in (("epsilon_delta_noiseless", False), ("epsilon_delta_depolarizing", True)):
            for by in ("c", "c", "c", "c", "delta", "delta", "delta", "delta"):
                point = self._point(noisy)
                point[by] = self._c_for(point) if by == "c" else self._delta_for(point)
                tail.append((fname, point))
        conversions = []
        for convention in ("paper", "normalized") * 4:
            point = self._point(False)
            conversions.append(("delta_from_c", self._c_for(point), point["mu"], point["n"], convention))
        for convention in ("paper", "normalized") * 4:
            point = self._point(False)
            conversions.append(("c_from_delta", self._delta_for(point, convention), point["mu"], point["n"], convention))
        shots = []
        for regime in ("noiseless", "depolarizing") * 2:
            point = self._point(regime == "depolarizing")
            answer = rng.randint(2**10, 2**11 - 1)
            if regime == "noiseless":
                target = oracles.eps_noiseless(point["d"], 1, answer, point["mu"])
            else:
                target = oracles.eps_depolarizing(point["d"], 1, answer, point["mu"], point["p"], point["D"])
            shots.append((float(target), point, regime))
        exact = []
        for _ in range(8):
            mu1 = rng.uniform(0.05, 0.45)
            exact.append((mu1 + rng.uniform(0.001, 0.05), mu1, rng.randint(1, 100)))

        def run():
            B = budget.BudgetInputs
            out = [getattr(budget, fname)(B(**point)) for fname, point in pure]
            out += [getattr(budget, fname)(B(**point)) for fname, point in tail]
            out += [getattr(budget, fname)(x, mu, n, convention) for fname, x, mu, n, convention in conversions]
            out += [budget.shots_for_budget(target, B(**point), regime) for target, point, regime in shots]
            audit = self.env.audit
            out += [audit.exact_epsilon(mu0, mu1, n) for mu0, mu1, n in exact]
            return out

        def check(out):
            self._check_batch(out, pure, tail, conversions, shots, exact)

        def digest(out):
            return tuple((r.epsilon, r.delta, r.warnings, r.inputs.c) if hasattr(r, "epsilon") else r for r in out)

        return Op("batch", len(pure) + len(tail) + len(conversions) + len(shots) + len(exact), run, check, digest)

    def _check_batch(self, out, pure, tail, conversions, shots, exact):
        import mpmath

        budget = self.env.budget
        it = iter(out)
        for fname, pt in pure:
            report = next(it)
            if fname == "epsilon_noiseless":
                want = oracles.eps_noiseless(pt["d"], pt["r"], pt["n"], pt["mu"])
            else:
                want = oracles.eps_depolarizing(pt["d"], pt["r"], pt["n"], pt["mu"], pt["p"], pt["D"])
            expect_close(f"{fname}{pt}", report.epsilon, want, 1e-12)
            expect(report.delta == 0.0, f"{fname}{pt}: pure budget with delta {report.delta}")
            check_flags(f"{fname}{pt}", ";".join(report.warnings), expected_pure_flags(pt["mu"], want))
        for fname, pt in tail:
            report = next(it)
            d, r, n, mu = pt["d"], pt["r"], pt["n"], pt["mu"]
            if "c" in pt:
                c = pt["c"]
                delta = float(mpmath.sqrt(2 * mpmath.pi) * mpmath.sqrt(mu * (1 - mpmath.mpf(mu)) / n)
                              * mpmath.erfc(c / (mpmath.sqrt(2) * mpmath.sqrt(mu * (1 - mpmath.mpf(mu)) / n))))
                expect_close(f"{fname}{pt} delta", report.delta, delta, 1e-12, 1e-300)
                rtol = 1e-10
            else:
                c = oracles.c_from_delta_mp(pt["delta"], mu, n)
                expect(report.delta == pt["delta"], f"{fname}{pt}: delta not echoed")
                expect_close(f"{fname}{pt} c", report.inputs.c, c, 1e-8)
                expect_close(f"{fname}{pt} delta_from_c(c)", budget.delta_from_c(report.inputs.c, mu, n), pt["delta"], 1e-9)
                rtol = VIA_BISECTION
            if fname == "epsilon_delta_noiseless":
                want, u = oracles.eps_delta_noiseless(d, r, n, mu, c), n * d * r
            else:
                a = oracles.depolarizing_scale(pt["p"], d, r, pt["D"])
                want, u = oracles.eps_delta_depolarizing(d, r, n, mu, pt["p"], pt["D"], c), n * a
            expect_close(f"{fname}{pt} epsilon", report.epsilon, want, rtol, 1e-12)
            check_flags(f"{fname}{pt}", ";".join(report.warnings), expected_tail_flags(report.delta, u, mu, want),
                        oracles.tail_pole(u, mu))
        for fname, x, mu, n, convention in conversions:
            got = next(it)
            if fname == "delta_from_c":
                s = mpmath.sqrt(mu * (1 - mpmath.mpf(mu)) / n)
                scale = mpmath.sqrt(2 * mpmath.pi) * s if convention == "paper" else 1
                expect_close(f"delta_from_c({x}, {mu}, {n}, {convention})", got,
                             float(scale * mpmath.erfc(x / (mpmath.sqrt(2) * s))), 1e-12, 1e-300)
            else:
                expect_close(f"c_from_delta({x}, {mu}, {n}, {convention})", got,
                             oracles.c_from_delta_mp(x, mu, n, convention), 1e-8)
                expect_close(f"delta_from_c(c_from_delta({x}))", budget.delta_from_c(got, mu, n, convention), x, 1e-9)
        for target, pt, regime in shots:
            got = next(it)
            if regime == "noiseless":
                at = lambda m: oracles.eps_noiseless(pt["d"], 1, m, pt["mu"])  # noqa: E731
            else:
                at = lambda m: oracles.eps_depolarizing(pt["d"], 1, m, pt["mu"], pt["p"], pt["D"])  # noqa: E731
            expect(isinstance(got, int) and got >= 1, f"shots_for_budget {regime}: {got!r} is not a shot count")
            expect(at(got) <= target * (1 + 1e-12) and at(got + 1) > target * (1 - 1e-12),
                   f"shots_for_budget({target}, {pt}, {regime}) = {got} is not the largest n within the target")
        for mu0, mu1, n in exact:
            expect_close(f"exact_epsilon({mu0}, {mu1}, {n})", next(it), oracles.exact_epsilon(mu0, mu1, n), 1e-12)

    def warmup(self):
        self.ops[0].run()


# ---------------------------------------------------------------- cli-cold

class CliCold(Workload):
    """Each operation is one fresh `python -m shotdp.cli` process; items are commands.

    One round (12 commands): compute x4 (pure, depolarizing, tail by c, tail
    by delta; JSON and CSV), sweep x2 (100 points on n, CSV; 100 points on
    delta, JSON), figures x5, audit at n = 10. Every command pays the
    interpreter start and the import, so all twelve cost about the same.
    """

    name = "cli-cold"
    tail_pct = 75
    min_ops = 40

    def build(self):
        self.rss_kb: list[int] = []
        self._spawner = None
        rng = self.rng
        noiseless = lambda: {"d": loguniform(rng, 1e-3, 0.1), "r": 1, "n": rng.randint(5, 100), "mu": rng.uniform(0.05, 0.45)}  # noqa: E731

        def noisy():
            pt = noiseless()
            pt.update(p=rng.uniform(0.2, 0.9), D=rng.choice((2, 4)), regime="depolarizing")
            return pt

        tail_c = noiseless()
        tail_c["c"] = rng.uniform(0.01, 0.3)
        tail_delta = noisy()
        tail_delta["delta"] = loguniform(rng, 1e-8, 1e-2)
        for kind, pt, fmt in (("pure", noiseless(), "json"), ("depolarizing", noisy(), "csv"),
                              ("tail_c", tail_c, "csv"), ("tail_delta", tail_delta, "json")):
            self.ops.append(self._compute_op(kind, pt, fmt))
        n_sweep = {k: v for k, v in noiseless().items() if k != "n"}
        self.ops.append(self._sweep_op(SweepSpec(n_sweep, "n", rng.randint(1, 1000), 1, 100, "csv")))
        delta_sweep = noiseless()
        lo = loguniform(rng, 1e-6, 1e-4)
        self.ops.append(self._sweep_op(SweepSpec(delta_sweep, "delta", lo, lo, 100, "json")))
        for which in FIGURE_ROWS:
            self.ops.append(self._figure_op(which))
        self.ops.append(self._audit_op(loguniform(rng, 0.01, 0.1), rng.randrange(2**31)))

    @staticmethod
    def _flags(params):
        argv = []
        for key, value in params.items():
            argv += [f"--{key}", repr(value) if isinstance(value, float) else str(value)]
        return argv

    def _spawn_op(self, kind, argv, out_name, check):
        env = self.env
        stdout_path = env.path(f"{out_name}.stdout")
        file_path = argv[argv.index("--out") + 1] if "--out" in argv else None
        cmd = [sys.executable, "-m", "shotdp.cli", *argv]

        def run():
            if env.tracer is None:
                code, rss_kb = self.spawner.run(cmd, stdout_path)
            else:
                with env.tracer.span("cli.main"):
                    code, rss_kb = self.spawner.run(cmd, stdout_path)
            if code != 0:
                raise OpFailed(f"{' '.join(argv)} exited with code {code}")
            self.rss_kb.append(rss_kb)
            with open(file_path or stdout_path, "rb") as fh:
                data = fh.read()
            if env.tracer is not None:
                env.tracer.output_bytes += len(data)
            return data

        return Op(kind, 1, run, lambda data: check(data.decode()))

    def _compute_op(self, kind, pt, fmt):
        argv = ["compute", *self._flags(pt), "--format", fmt]

        def check(text):
            what = f"compute {kind} {pt}"
            d, r, n, mu = pt["d"], pt["r"], pt["n"], pt["mu"]
            if fmt == "json":
                payload = json.loads(text)
                eps, delta, flags = payload["epsilon"], payload["delta"], ";".join(payload["warnings"])
                for key in ("d", "r", "n", "mu"):
                    expect_close(f"{what} inputs.{key}", payload["inputs"][key], pt[key], PRINTED)
            else:
                header, rows = parse_csv(text)
                expect(header == ["epsilon", "delta", "warnings"] and len(rows) == 1, f"{what}: CSV shape")
                eps, delta, flags = float(rows[0][0]), float(rows[0][1]), rows[0][2]
            if kind == "pure":
                want = oracles.eps_noiseless(d, r, n, mu)
                expected_delta, expected_flags = 0.0, expected_pure_flags(mu, want)
            elif kind == "depolarizing":
                want = oracles.eps_depolarizing(d, r, n, mu, pt["p"], pt["D"])
                expected_delta, expected_flags = 0.0, expected_pure_flags(mu, want)
            elif kind == "tail_c":
                want = oracles.eps_delta_noiseless(d, r, n, mu, pt["c"])
                expected_delta = oracles.delta_from_c(pt["c"], mu, n)
                expected_flags = expected_tail_flags(expected_delta, n * d * r, mu, want)
            else:
                c = oracles.c_from_delta_mp(pt["delta"], mu, n)
                want = oracles.eps_delta_depolarizing(d, r, n, mu, pt["p"], pt["D"], c)
                expected_delta = pt["delta"]
                expected_flags = expected_tail_flags(expected_delta, n * oracles.depolarizing_scale(pt["p"], d, r, pt["D"]), mu, want)
            expect_close(f"{what} epsilon", eps, want, VIA_BISECTION if kind == "tail_delta" else PRINTED)
            expect_close(f"{what} delta", delta, expected_delta, PRINTED, 1e-300)
            check_flags(what, flags, expected_flags)

        return self._spawn_op("compute", argv, f"compute-{kind}", check)

    def _sweep_op(self, spec: SweepSpec):
        start, stop, step = spec.grid
        argv = ["sweep", *self._flags(spec.params), "--axis", spec.axis,
                "--grid", f"{start!r}:{stop!r}:{step!r}", "--format", spec.fmt]
        return self._spawn_op("sweep", argv, f"sweep-{spec.axis}", spec.check)

    def _figure_op(self, which):
        argv = ["figures", "--which", which, "--out", self.env.path(f"{which}.csv")]
        return self._spawn_op("figures", argv, which, lambda text: check_figure(which, text))

    def _audit_op(self, d, seed):
        argv = ["audit", "--n", "10", "--d", repr(d), "--seed", str(seed)]
        return self._spawn_op("audit", argv, "audit", lambda text: check_audit_payload(f"audit n=10 d={d!r}", json.loads(text), d))

    @property
    def spawner(self) -> "Spawner":
        # Started on first use: a setup probe builds this workload but runs no command.
        if self._spawner is None:
            self._spawner = Spawner(self.env.root)
        return self._spawner

    def warm_file_cache(self) -> None:
        """One untimed command, so the timed ones find the files cached."""
        cmd = [sys.executable, "-m", "shotdp.cli", "compute", "--d", "0.1", "--r", "1", "--n", "10", "--mu", "0.15"]
        self.spawner.run(cmd, self.env.path("warm.out"))

    def warmup(self):
        cli = self.env.cli
        out = self.env.path("warmup.out")
        base = ["--d", "0.01", "--r", "1", "--n", "10", "--mu", "0.15", "--out", out]
        cli.main(["compute", *base])
        cli.main(["sweep", "--d", "0.01", "--r", "1", "--mu", "0.15", "--axis", "n", "--grid", "1:5:1", "--out", out])
        cli.main(["figures", "--which", "fig3", "--out", out])
        cli.main(["audit", "--n", "10", "--trials", "1000", "--out", out])

    def peak_rss_kb(self) -> int:
        return max(self.rss_kb, default=0)

    def close(self) -> None:
        if self._spawner is not None:
            self._spawner.close()


class Spawner:
    """Runs commands through spawner.py, a small process of their own."""

    def __init__(self, root: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawner.py")],
            env=child_env(root), cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, stdout_path):
        """Run one command to completion; returns (exit code, its own peak RSS in KB)."""
        stderr_path = stdout_path + ".stderr"
        self.proc.stdin.write(json.dumps({"argv": argv, "stdout": stdout_path, "stderr": stderr_path}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise OpFailed(f"the spawner exited with code {self.proc.wait()}")
        reply = json.loads(reply)
        if reply["code"] != 0:
            with open(stderr_path, "rb") as fh:
                sys.stderr.write(fh.read().decode(errors="replace"))
        return reply["code"], reply["maxrss_kb"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=150)


WORKLOADS = {cls.name: cls for cls in (CliCold, SweepTable, AuditScale, ScalarApi)}


def host_ref() -> float:
    """Seconds for a fixed pure-Python loop: the host's own speed right now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    return time.perf_counter() - t0

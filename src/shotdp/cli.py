"""Batch command surface over the budget and audit machinery.

Commands:

    compute   evaluate one budget            -> JSON (default) or CSV
    sweep     budget along one parameter axis -> CSV (default) or JSON
    figures   bundled reference sweeps        -> CSV
    audit     build states, measure, audit    -> JSON

Parameters come from inline flags or a flat JSON --config file (inline
flags win). Every float is emitted with 10 significant digits through one
formatter, so JSON and CSV encode identical values and reruns are
byte-identical. Exit codes: 0 success, 2 configuration or validation
error, 3 audit dominance failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from operator import attrgetter

import numpy as np

from .audit import dominance_audit, exact_epsilon, min_expectation, monte_carlo_audit, qdp_check
from .budget import (
    BudgetInputs,
    PrivacyReport,
    epsilon_delta_depolarizing,
    epsilon_delta_noiseless,
    epsilon_depolarizing,
    epsilon_noiseless,
)
from .errors import BadConfigError, ShotDPError, check_count, check_distance, check_noise
from .states import (
    basis_columns,
    basis_state,
    complement_projector,
    depolarizing_channel,
    identity_channel,
    make_density,
    make_projector,
    maximally_mixed,
    neighbor_state,
    trace_distance,
)

GRID_AXES = ("n", "p", "c", "delta", "d", "mu")


@dataclass
class RunConfig:
    """One command invocation: what to run, on what, and where it goes."""

    command: str
    params: dict = field(default_factory=dict)
    grid: tuple[float, float, float] | None = None
    seed: int = 42
    output_path: str | None = None
    format: str | None = None


def _fmt(x) -> str:
    """One float formatter for every output channel: 10 significant digits."""
    return f"{float(x):.10g}"


def _round10(x: float) -> float:
    return float(_fmt(x))


def _jsonify(obj):
    """Recursively coerce report structures into JSON-stable primitives."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round10(float(obj))
    return obj


def _csv_rows(header: list[str], rows) -> str:
    """CSV text for rows of floats whose last cell is a tuple of warning flags."""
    lines = [",".join(header)]
    lines += [",".join([*map(_fmt, row[:-1]), ";".join(row[-1])]) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)


def _parse_grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise BadConfigError(f"BadConfig: grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(part) for part in parts)
    except ValueError as exc:
        raise BadConfigError(f"BadConfig: grid values must be numeric, got {text!r}") from exc
    if step <= 0.0:
        raise BadConfigError(f"BadConfig: grid step must be positive, got {step}")
    if stop < start:
        raise BadConfigError(f"BadConfig: grid stop {stop} below start {start}")
    return start, stop, step


def _grid_values(start: float, stop: float, step: float, integer: bool) -> list:
    if integer:
        lo, hi, inc = round(start), round(stop), round(step)
        if inc < 1 or lo != start or hi != stop or inc != step:
            raise BadConfigError(f"BadConfig: axis needs an integer grid, got {start}:{stop}:{step}")
        return list(range(lo, hi + 1, inc))
    values = []
    i = 0
    # Index-based stepping keeps the grid free of accumulated float drift.
    while True:
        v = start + i * step
        if v > stop + step * 1e-9:
            break
        values.append(v)
        i += 1
    return values


def _input_kwargs(params: dict) -> dict:
    """The BudgetInputs fields present in `params`; d, r, n and mu are required."""
    missing = [k for k in ("d", "r", "n", "mu") if params.get(k) is None]
    if missing:
        raise BadConfigError(f"BadConfig: missing required parameters {missing}")
    return {k: params[k] for k in ("d", "r", "n", "mu", "p", "D", "c", "delta") if params.get(k) is not None}


def _select_budget(params: dict):
    """Pick the formula family from the regime and tail parameters."""
    regime = params.get("regime") or "noiseless"
    if regime not in ("noiseless", "depolarizing"):
        raise BadConfigError(f"BadConfig: unknown regime {regime!r}")
    tail = params.get("c") is not None or params.get("delta") is not None
    convention = params.get("convention") or "paper"
    if regime == "noiseless":
        if tail:
            return lambda inp: epsilon_delta_noiseless(inp, convention)
        return epsilon_noiseless
    if tail:
        return lambda inp: epsilon_delta_depolarizing(inp, convention)
    return epsilon_depolarizing


def _report_json(report: PrivacyReport) -> str:
    inputs = {k: v for k, v in asdict(report.inputs).items() if v is not None}
    payload = {
        "epsilon": report.epsilon,
        "delta": report.delta,
        "warnings": list(report.warnings),
        "inputs": inputs,
    }
    return json.dumps(_jsonify(payload), sort_keys=True, indent=2) + "\n"


def run_compute(cfg: RunConfig) -> str:
    """Evaluate one budget and serialize the report."""
    evaluate = _select_budget(cfg.params)
    report = evaluate(BudgetInputs(**_input_kwargs(cfg.params)))
    fmt = cfg.format or "json"
    if fmt == "json":
        return _report_json(report)
    if fmt == "csv":
        return _csv_rows(["epsilon", "delta", "warnings"], [(report.epsilon, report.delta, report.warnings)])
    raise BadConfigError(f"BadConfig: unknown format {fmt!r}")


# Output columns of sweeps and figures, as paths into a PrivacyReport.
_COLUMN_PATHS = {"epsilon": "epsilon", "delta": "delta", "c": "inputs.c", "warnings": "warnings"}
_SWEEP_COLUMNS = ("epsilon", "delta", "warnings")


def _sweep_rows(evaluate, params: dict, axis: str, values, columns: tuple[str, ...]) -> list[tuple]:
    """Evaluate one budget along an axis: per value, a row of the value and
    then `columns` of its report (two or more, "warnings" last)."""
    if not values:
        return []
    kwargs = _input_kwargs({**params, axis: values[0]})
    read = attrgetter(*(_COLUMN_PATHS[column] for column in columns))
    rows = []
    for v in values:
        kwargs[axis] = v
        rows.append((v, *read(evaluate(BudgetInputs(**kwargs)))))
    return rows


def run_sweep(cfg: RunConfig) -> str:
    """Evaluate the selected budget along one parameter axis."""
    axis = cfg.params.get("axis")
    if axis not in GRID_AXES:
        raise BadConfigError(f"BadConfig: sweep axis must be one of {GRID_AXES}, got {axis!r}")
    if cfg.grid is None:
        raise BadConfigError("BadConfig: sweep needs --grid start:stop:step")
    if cfg.params.get(axis) is not None:
        raise BadConfigError(f"BadConfig: axis {axis!r} is both swept and fixed")
    fmt = cfg.format or "csv"
    if fmt not in ("csv", "json"):
        raise BadConfigError(f"BadConfig: unknown format {fmt!r}")
    values = _grid_values(*cfg.grid, integer=axis == "n")
    evaluate = _select_budget({**cfg.params, axis: values[0] if values else None})
    header = [axis, *_SWEEP_COLUMNS]
    rows = _sweep_rows(evaluate, cfg.params, axis, values, _SWEEP_COLUMNS)
    if fmt == "csv":
        return _csv_rows(header, rows)
    return json.dumps(_jsonify([dict(zip(header, row)) for row in rows]), sort_keys=True, indent=2) + "\n"


_SHOT_AXIS = tuple(range(5, 101))
# The bundled reference sweeps, all at d = 0.1, r = 1, mu = 0.15:
# name -> (budget, other fixed parameters, axis, default axis values, columns after the axis).
_FIGURES = {
    "fig3": (epsilon_noiseless, {}, "n", _SHOT_AXIS, ("epsilon", "warnings")),
    "fig4a": (epsilon_depolarizing, {"n": 10, "D": 2}, "p", tuple(i / 100.0 for i in range(5, 96)),
              ("epsilon", "warnings")),
    "fig4b": (epsilon_depolarizing, {"p": 0.5, "D": 2}, "n", _SHOT_AXIS, ("epsilon", "warnings")),
    "fig5a": (epsilon_delta_noiseless, {"n": 10}, "delta", tuple(np.logspace(-4, -1, 40).tolist()),
              ("c", "epsilon", "warnings")),
    "fig5b": (epsilon_delta_noiseless, {"delta": 0.01}, "n", _SHOT_AXIS, ("epsilon", "warnings")),
}


def run_figures(which: str, out: str | None, grid: tuple[float, float, float] | None = None) -> str:
    """Produce one bundled reference sweep as CSV (also written to `out`).

    fig3   epsilon vs shots, noiseless            (n = 5..100)
    fig4a  epsilon vs depolarizing p              (p = 0.05..0.95, n = 10, D = 2)
    fig4b  epsilon vs shots under depolarizing    (n = 5..100, p = 0.5, D = 2)
    fig5a  epsilon and cutoff vs delta, noiseless (40 log-spaced delta, n = 10)
    fig5b  epsilon vs shots at fixed delta        (n = 5..100, delta = 0.01)

    `grid` replaces the default axis values.
    """
    if which not in _FIGURES:
        raise BadConfigError(f"BadConfig: unknown figure {which!r}")
    budget, fixed, axis, values, columns = _FIGURES[which]
    if grid is not None:
        values = _grid_values(*grid, integer=axis == "n")
    params = {"d": 0.1, "r": 1, "mu": 0.15, **fixed}
    text = _csv_rows([axis, *columns], _sweep_rows(budget, params, axis, values, columns))
    _emit(text, out)
    return text


def _parse_state(token, dim: int, default_diag: bool = False):
    """State spec: 'basis:<j>', 'diag:a,b,...', a nested matrix, or None."""
    if token is None:
        if default_diag:
            # Default keeps the smaller outcome mean at 0.15, the library's
            # worked-example value, whatever the dimension.
            diag = [0.15] + [0.85 / (dim - 1)] * (dim - 1) if dim > 1 else [1.0]
            return make_density(np.diag(diag))
        return maximally_mixed(dim)
    if isinstance(token, str):
        if token == "mixed":
            return maximally_mixed(dim)
        if token.startswith("basis:"):
            return basis_state(dim, int(token.split(":", 1)[1]))
        if token.startswith("diag:"):
            diag = [float(part) for part in token.split(":", 1)[1].split(",")]
            if len(diag) != dim:
                raise BadConfigError(f"BadConfig: diag state needs {dim} entries, got {len(diag)}")
            return make_density(np.diag(diag))
        raise BadConfigError(f"BadConfig: unknown state spec {token!r}")
    return make_density(np.array(token, dtype=complex))


def _parse_projector(token, dim: int):
    if token is None:
        indices = [0]
    elif isinstance(token, str):
        indices = [int(part) for part in token.split(",") if part != ""]
    else:
        indices = [int(part) for part in token]
    return make_projector(basis_columns(dim, indices))


def run_audit(cfg: RunConfig) -> tuple[str, int]:
    """Drive the audit end to end: build states, measure, compare, verdict.

    Builds a state pair at trace distance d, applies the configured channel,
    measures the configured projector, then runs the endpoint dominance
    audit, the Monte Carlo oracle confirmation, and the subset-enumeration
    privacy check on the binary outcome. Returns the serialized report and
    the exit code: 3 when an endpoint dominance check the preconditions
    entitle us to expect fails, otherwise 0. A NonConvexRegime flag removes
    the entitlement, so those runs report without gating.
    """
    params = cfg.params

    def setting(key, fallback):
        return fallback if params.get(key) is None else params[key]

    dim = check_count(setting("dim", 2), "dimension D")
    d = check_distance(setting("d", 0.1))
    n = check_count(setting("n", 10), "shots n")
    trials = check_count(setting("trials", 100000), "trials")
    seed = cfg.seed
    p = None if params.get("p") is None else check_noise(params["p"], allow_zero=True)
    rho = _parse_state(params.get("state"), dim, default_diag=True)
    anchor = _parse_state(params.get("anchor"), dim)
    sigma = neighbor_state(rho, d, anchor)
    ch = depolarizing_channel(p, dim) if p is not None else identity_channel(dim)
    regime = "depolarizing" if p is not None else "noiseless"
    projector = _parse_projector(params.get("projector"), dim)
    measured = min_expectation(rho, sigma, ch, projector)
    mu_lo = measured.value
    mu_hi = max(measured.mu0, measured.mu1)

    dominance = dominance_audit(
        d=d, r=projector.rank, n=n, mu0=mu_hi, mu1=mu_lo, regime=regime,
        p=p, dim=dim if p is not None else None,
    )
    carlo = monte_carlo_audit(mu_hi, mu_lo, n, trials, seed)
    single_shot_eps = exact_epsilon(mu_hi, mu_lo, 1)
    pvm = [projector, complement_projector(projector)]
    qdp_passed = qdp_check(rho, sigma, ch, pvm, single_shot_eps, 0.0)

    payload = {
        "config": {
            "dim": dim, "d": d, "n": n, "trials": trials, "seed": seed,
            "p": p, "regime": regime,
            "projector_rank": projector.rank,
        },
        "derived": {
            "mu0": mu_hi, "mu1": mu_lo, "attained_by": measured.which,
            "trace_distance": trace_distance(rho, sigma),
        },
        "dominance": asdict(dominance),
        "monte_carlo": asdict(carlo),
        "single_shot_check": {"epsilon": single_shot_eps, "passed": qdp_passed},
    }
    text = json.dumps(_jsonify(payload), sort_keys=True, indent=2) + "\n"
    entitled = "NonConvexRegime" not in dominance.flags
    endpoint_ok = dominance.dominated["endpoint_lower"] and dominance.dominated["endpoint_upper"]
    code = 3 if entitled and not endpoint_ok else 0
    return text, code


_FLOAT_KEYS = ("d", "mu", "p", "c", "delta")
_INT_KEYS = ("r", "n", "D", "dim", "trials")
_STR_KEYS = ("regime", "convention", "axis", "which", "state", "anchor", "projector", "format", "out", "grid")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadConfigError(f"BadConfig: cannot read config {path!r}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise BadConfigError("BadConfig: config file must hold a flat JSON object")
    return loaded


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Config file first, inline flags on top."""
    merged: dict = {}
    if getattr(args, "config", None):
        merged.update(_load_config(args.config))
    for key in (*_FLOAT_KEYS, *_INT_KEYS, *_STR_KEYS, "seed"):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    params = {key: value for key, value in merged.items() if key not in ("seed", "out", "format", "grid")}
    unknown = set(merged) - set(_FLOAT_KEYS) - set(_INT_KEYS) - set(_STR_KEYS) - {"seed"}
    if unknown:
        raise BadConfigError(f"BadConfig: unknown configuration keys {sorted(unknown)}")
    grid = merged.get("grid")
    return RunConfig(
        command=args.command,
        params=params,
        grid=_parse_grid(grid) if grid else None,
        seed=check_count(merged.get("seed", 42), "seed", minimum=0),
        output_path=merged.get("out"),
        format=merged.get("format"),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shotdp", description="Shot-noise privacy budgets, sweeps, and audits")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="flat JSON file with any of the flags below")
        for key in _FLOAT_KEYS:
            sp.add_argument(f"--{key}", type=float)
        for key in ("r", "n", "D", "dim", "trials"):
            sp.add_argument(f"--{key}", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--convention", choices=["paper", "normalized"])
        sp.add_argument("--regime", choices=["noiseless", "depolarizing"])
        sp.add_argument("--out")
        sp.add_argument("--format", choices=["json", "csv"])
        sp.add_argument("--grid", help="start:stop:step")

    compute = sub.add_parser("compute", help="evaluate one budget")
    add_common(compute)

    sweep = sub.add_parser("sweep", help="evaluate a budget along one axis")
    add_common(sweep)
    sweep.add_argument("--axis", choices=list(GRID_AXES))

    figures = sub.add_parser("figures", help="write one bundled reference sweep as CSV")
    add_common(figures)
    figures.add_argument("--which", choices=list(_FIGURES))

    audit = sub.add_parser("audit", help="state-to-verdict audit run")
    add_common(audit)
    audit.add_argument("--state", help="basis:<j> or diag:a,b,...")
    audit.add_argument("--anchor", help="mixed, basis:<j>, or diag:a,b,...")
    audit.add_argument("--projector", help="comma-separated basis indices")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        if cfg.command == "compute":
            _emit(run_compute(cfg), cfg.output_path)
            return 0
        if cfg.command == "sweep":
            _emit(run_sweep(cfg), cfg.output_path)
            return 0
        if cfg.command == "figures":
            which = cfg.params.get("which")
            if not which:
                raise BadConfigError("BadConfig: figures needs --which")
            if cfg.output_path is None:
                raise BadConfigError("BadConfig: figures needs --out")
            run_figures(which, cfg.output_path, cfg.grid)
            return 0
        if cfg.command == "audit":
            if cfg.format not in (None, "json"):
                raise BadConfigError("BadConfig: audit reports are nested; only json output is supported")
            text, code = run_audit(cfg)
            _emit(text, cfg.output_path)
            return code
        raise BadConfigError(f"BadConfig: unknown command {cfg.command!r}")
    except ShotDPError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

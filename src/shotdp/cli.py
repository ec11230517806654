"""Batch command surface over the budget and audit machinery.

Commands:

    compute   evaluate one budget            -> JSON (default) or CSV
    sweep     budget along one parameter axis -> CSV (default) or JSON
    figures   bundled reference sweeps        -> CSV
    audit     build states, measure, audit    -> JSON

Parameters come from inline flags or a flat JSON --config file (inline
flags win). One table, `_COMMANDS`, lists the keys each command accepts;
it builds the flags and checks the config file, so any other key exits 2
and is named. The budget commands are a thin table over the kernels in
`budget`: `_select_budget` picks the kernel and checks the parameters,
and a sweep or figure maps the kernel over its axis.

Every float is written with 10 significant digits through one format and
every int as its exact decimal text, so JSON and CSV encode identical
values and reruns are byte-identical. A table is evaluated and texted a
block of points at a time and emitted once every point has computed, so a
failing point writes nothing. Text is written without loading the `json`
package, which loads only to read --config.

Exit codes, all returned by `main`: 0 success, 2 configuration or
validation error (an unknown flag included), 3 audit dominance failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import namedtuple
from functools import partial
from itertools import chain, filterfalse, groupby, repeat
from operator import is_

from .budget import _REQUIRED, BudgetInputs, _arguments, _cutoff, _evaluate, _flag_column, _pure, _pure_coefficients
from .budget import _pure_epsilon, _tail, _tail_coefficients, _tail_epsilon, _tail_mass
from .errors import BadConfigError, ShotDPError, check_count, check_distance, check_index, check_noise

try:
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii as _quote

GRID_AXES = ("n", "p", "c", "delta", "d", "mu")
# The most points a sweep or figure grid may have; a larger grid exits 2 before any point is made.
MAX_GRID_POINTS = 10**6
# The most entries of any array an audit builds: its states' dim^2, its n + 1
# outcomes, its trials. A larger size exits 2 before any state is built.
MAX_AUDIT_ENTRIES = 2**20


# One command invocation: what to run, on what, and where it goes. The
# default params dict is shared by every record that omits it; nothing
# writes to a record's params.
RunConfig = namedtuple("RunConfig", ("command", "params", "grid", "seed", "output_path", "format"),
                       defaults=({}, None, 42, None, None))

# The float format: JSON rounds every float through it, and CSV prints each float in it.
_FLOAT_FORMAT = "%.10g"
_fmt = _FLOAT_FORMAT.__mod__
# json's spellings of the floats that float.__repr__ writes as nan, inf and -inf.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


# `_fmt` carries a finite value from 1.7976931345e308 up to inf; such a value
# prints as the largest double rounded down instead, within `.10g`'s rounding.
_OVERFLOW_TEXT, _LARGEST_TEXT = "1.797693135e+308", "1.797693134e+308"


def _float_text(x) -> str:
    """One float rounded by `_fmt`, as json writes the rounded value; a finite
    value that the rounding carries to inf is written as `_LARGEST_TEXT`."""
    text = float.__repr__(float(_fmt(x)))
    if text in _NONFINITE and math.isfinite(x):
        return text.replace("inf", _LARGEST_TEXT)  # "-inf" keeps its sign
    return _NONFINITE.get(text, text)


def _float_texts(values):
    """`_float_text` of each float in `values`. Each distinct value is texted
    once, and a `.10g` text that is already the repr of the rounded value is
    kept as it is: fixed notation with a point, or a negative exponent on a
    value above the subnormal range. Any other text (an integral value,
    exponents e+10 to e+15, which repr writes in fixed notation, a
    subnormal, nan, inf, or a finite value that rounds to inf) takes
    `_float_text`. The lookup runs in C through `map`."""
    table = dict.fromkeys(values)
    # 0.0 and -0.0 are one key, so a list with both is written value by value.
    if 0.0 in table and len(set(map(math.copysign, repeat(1.0), filterfalse(None, values)))) > 1:
        return map(_float_text, values)
    for x in table:
        text = _fmt(x)
        final = ("." in text and "e" not in text) or ("e-" in text and abs(x) > 1e-300)
        table[x] = text if final else _float_text(x)
    return map(table.__getitem__, values)


# Writers for values of exactly these types; subclasses, such as numpy's
# float64, take the isinstance checks at the end of `_value_text`.
_SCALAR_TEXT = {
    str: _quote, float: _float_text, int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__, type(None): {None: "null"}.__getitem__,
}


def _object_text(keys, values, newline: str) -> str:
    """The JSON object layout, from its key and value texts in order: each
    `key: value` on its own line, indented by two spaces past `newline` (a
    newline and the current indent)."""
    inner = newline + "  "
    return "{" + inner + ("," + inner).join(map("{}: {}".format, keys, values)) + newline + "}"


def _value_text(obj, newline: str) -> str:
    """One value as JSON text, nested containers indented by two spaces
    past `newline` (a newline and the current indent)."""
    write = _SCALAR_TEXT.get(type(obj))
    if write is not None:
        return write(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        return "[" + inner + ("," + inner).join(_cells(obj, inner)) + newline + "]" if obj else "[]"
    if isinstance(obj, dict):
        # Keys become strings first, so a later key wins a collision and int keys sort as text.
        named = dict(zip(map(str, obj), obj.values()))
        keys = sorted(named)
        return _object_text(map(_quote, keys), _cells([named[k] for k in keys], inner), newline) if obj else "{}"
    for kind in (str, int, float):
        if isinstance(obj, kind):
            return _SCALAR_TEXT[kind](obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(obj) -> str:
    """A report structure as JSON text: keys as strings, sorted, a two-space
    indent, tuples as lists, and every float rounded to `.10g` first. The
    bytes are those of `json.dumps(..., sort_keys=True, indent=2)` on that
    rounded copy, plus a final newline, written without building the copy
    or loading `json`."""
    return _value_text(obj, "\n") + "\n"


def _cells(column, inner: str):
    """The JSON text of each cell of a column, at the indent that `inner`
    ends in, in one pass that runs in C through `map` where the column holds
    one type. A column of one object repeated, such as a kernel's constant
    0.0 or (), is texted once, as an `itertools.repeat` of that text; equal
    values need not share a text (0.0 and -0.0 do not), so equality is not
    enough. Otherwise ints are exact decimals, floats take `_float_texts`
    and any other value `_value_text`."""
    if column and all(map(is_, column, repeat(column[0]))):
        return repeat(_value_text(column[0], inner), len(column))
    kinds = set(map(type, column))
    if kinds == {int}:
        return map(str, column)
    return _float_texts(column) if kinds == {float} else map(_value_text, column, repeat(inner))


def _csv_cell(x) -> str:
    """One cell of a CSV column that mixes ints and floats."""
    return str(x) if type(x) is int else _fmt(x)


def _rows(header: list[str], columns, fmt: str) -> str:
    """One block of a table, each row ending in its separator, written by one
    `%` row template in which a column of one object repeated is baked in
    as its text, with `%` doubled. An `itertools.repeat` column is baked in
    from its one object and a `range` column is `%d`, neither scanned; only
    the other columns are scanned for their types and for one object.

    A JSON row is the row dict `dict(zip(header, row))`, so a repeated name
    keeps its last column, laid out by `_object_text`: each other field is
    `%s` over its `_cells` texts. A CSV row joins its fields by commas: `%d`
    for a column of ints, `_FLOAT_FORMAT` for a column of floats and `%s`
    over the cell texts for any other column (a flag tuple's joined by
    semicolons); an overflowing `.10g` text is then rewritten as
    `_float_text` writes it.
    """
    size = len(columns[0])
    columns = [(next(column),) if type(column) is repeat else column for column in columns]
    if fmt == "json":  # the fields by sorted key; names are distinct, so no two columns are compared
        header, columns = zip(*sorted(dict(zip(header, columns)).items()))
        cells = [column if type(column) is range else _cells(column, "\n    ") for column in columns]
        fields = ["%d" if type(texts) is range else next(texts).replace("%", "%%") if type(texts) is repeat else "%s"
                  for texts in cells]
        row = _object_text((_quote(k).replace("%", "%%") for k in header), fields, "\n  ") + ",\n  "
        args = [texts for texts in cells if type(texts) is not repeat]
        return row * size % tuple(chain.from_iterable(zip(*args)))
    fields, args = [], []
    for column in columns:
        kinds = {int} if type(column) is range else set(map(type, column))
        cell = ";".join if kinds == {tuple} else _csv_cell
        if all(map(is_, column, repeat(column[0]))):
            fields.append(cell(column[0]).replace("%", "%%"))
        elif kinds in ({int}, {float}):
            fields.append("%d" if kinds == {int} else _FLOAT_FORMAT)
            args.append(column)
        else:
            fields.append("%s")
            args.append(map(cell, column))
    row = ",".join(fields) + "\n"
    return (row * size % tuple(chain.from_iterable(zip(*args)))).replace(_OVERFLOW_TEXT, _LARGEST_TEXT)


def _table_text(header: list[str], blocks, fmt: str) -> str:
    """A table as CSV or JSON text, from its blocks of columns in row order.
    Each block is texted by `_rows` before the next is drawn, and the block
    texts are joined once, at the end; an empty block is skipped. The JSON
    is what `_json_text` writes for the list of row dicts: the last row's
    separator is trimmed to close the list."""
    parts = [",".join(header) + "\n"] if fmt == "csv" else ["[\n  "]
    parts += (_rows(header, columns, fmt) for columns in blocks if len(columns[0]))
    if fmt == "json":
        parts[-1] = parts[-1][:-4] + "\n]\n" if len(parts) > 1 else "[]\n"
    return "".join(parts)


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
        return tuple(map(float, parts))
    except ValueError as exc:
        raise BadConfigError(f"BadConfig: grid values must be numeric, got {text!r}") from exc


def _grid_values(start: float, stop: float, step: float, integer: bool) -> range | list:
    """The points of a grid, checked and counted before any is made: a range,
    or start + i step for each i from 0 while that is <= stop + step 1e-9
    (index-based, so no float drift accumulates), each value once: a step
    below half a unit in the last place of the running value repeats it.
    Every grid has a point: its values must be finite, its step positive and
    its stop not below its start."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise BadConfigError(f"BadConfig: grid values must be finite, got {start}:{stop}:{step}")
    if step <= 0.0:
        raise BadConfigError(f"BadConfig: grid step must be positive, got {step}")
    if stop < start:
        raise BadConfigError(f"BadConfig: grid stop {stop} below start {start}")
    if integer:
        lo, hi, inc = round(start), round(stop), round(step)
        if inc < 1 or lo != start or hi != stop or inc != step:
            raise BadConfigError(f"BadConfig: axis needs an integer grid, got {start}:{stop}:{step}")
        count = (hi - lo) // inc + 1
    else:
        limit = stop + step * 1e-9
        # The quotient (inf if it overflows) estimates the count less one; the rule settles it, capped.
        count = int(min((limit - start) / step, MAX_GRID_POINTS)) + 1
        while count <= MAX_GRID_POINTS and start + count * step <= limit:
            count += 1
        while start + (count - 1) * step > limit:
            count -= 1
    if count > MAX_GRID_POINTS:
        raise BadConfigError(f"BadConfig: grid {start}:{stop}:{step} has more than {MAX_GRID_POINTS} points")
    # The points never decrease, as rounding is monotone, so a repeat follows its first and groupby drops it.
    return range(lo, hi + 1, inc) if integer else [v for v, _ in groupby(start + i * step for i in range(count))]


def _select_budget(params: dict) -> tuple:
    """The budget that `params` names, as `budget._evaluate`'s arguments:
    (kernel, regime, checked bundle, convention). d, r, n and mu are
    required, and a tail parameter selects the tail kernel; the regime
    defaults to noiseless and the convention to paper. The bundle's fields
    are checked here, and `budget._arguments` checks the rest, an unknown
    regime included, when the kernel is called."""
    missing = [k for k in _REQUIRED if params.get(k) is None]
    if missing:
        raise BadConfigError(f"BadConfig: missing required parameters {missing}")
    bundle = BudgetInputs(**{k: params[k] for k in BudgetInputs._fields if params.get(k) is not None})
    kernel = _tail if bundle.c is not None or bundle.delta is not None else _pure
    return kernel, params.get("regime") or "noiseless", bundle, params.get("convention") or "paper"


def run_compute(cfg: RunConfig) -> str:
    """Evaluate one budget and serialize the report."""
    report = _evaluate(*_select_budget(cfg.params))
    fmt = cfg.format or "json"
    if fmt == "json":
        inputs = {k: v for k, v in report.inputs._asdict().items() if v is not None}
        return _json_text({**report._asdict(), "inputs": inputs})
    if fmt == "csv":
        return _table_text(["epsilon", "delta", "warnings"], [[(value,) for value in report[:3]]], fmt)
    raise BadConfigError(f"BadConfig: unknown format {fmt!r}")


# A kernel's results, in order; sweeps and figures print some of them.
_OUTPUTS = ("epsilon", "delta", "c", "warnings")
_SWEEP_COLUMNS = ("epsilon", "delta", "warnings")
# The axis values a sweep evaluates and texts at a time: enough that the
# per-block set-up is noise, few enough that one block's results and cell
# texts stay small beside the table's text.
_BLOCK = 4096


def _sweep_blocks(params: dict, axis: str, values, columns: tuple[str, ...]):
    """Evaluate one budget along an axis, one block of `_BLOCK` values at a
    time: each block yields its axis values, then the `columns` of the
    kernel's results (two or more, "warnings" last). `_select_budget` picks
    the budget from the fixed parameters and the first value.

    The values rise, as every grid's do, and each field admits one interval
    of values, so two bundles check them all: the fixed parameters with the
    first value, then with the last. A sweep along n (pure) or along c or
    delta (tail) computes the budget's coefficients once, from the first
    bundle, and maps only the per-point formula over each block: along c
    with the tail mass, along delta after the cutoff, which checks each
    delta against its supremum. A column that every point shares (delta of
    a pure budget, c, and the flags unless a point fires a rule) is an
    `itertools.repeat`. Along any other axis the whole kernel maps over
    each block, which the validators would return unchanged, with every
    other argument repeated.
    """
    kernel, regime, first, convention = _select_budget({**params, axis: values[0]})
    d, r, n, mu, p, D, c, _, paper = arguments = _arguments(kernel, regime, first, convention)
    _select_budget({**params, axis: values[-1]})
    iterables, epsilon_at = [*map(repeat, (regime, *arguments))], None
    if kernel is _pure and axis == "n":
        *coefficients, flags = _pure_coefficients(regime, d, r, mu, p, D)
        epsilon_at = partial(_pure_epsilon, *coefficients, mu)
    elif kernel is _tail and axis in ("c", "delta"):
        sigma, *coefficients, flags = _tail_coefficients(regime, d, r, n, mu, p, D)
        epsilon_at, tail_args = partial(_tail_epsilon, *coefficients, mu), (repeat(sigma), repeat(paper))
    for start in range(0, len(values), _BLOCK):
        iterables[1 + BudgetInputs._fields.index(axis)] = block = values[start:start + _BLOCK]
        if epsilon_at is None:
            outputs = tuple(zip(*map(kernel, *iterables)))
        elif kernel is _pure:
            epsilons = list(map(epsilon_at, block))
            outputs = epsilons, repeat(0.0, len(block)), repeat(c, len(block)), _flag_column(flags, epsilons)
        else:
            cutoffs = block if axis == "c" else list(map(_cutoff, block, *tail_args))
            deltas = list(map(_tail_mass, block, *tail_args)) if axis == "c" else block
            epsilons = list(map(epsilon_at, cutoffs))
            outputs = epsilons, deltas, cutoffs, _flag_column(flags, epsilons, deltas)
        yield [block, *(outputs[_OUTPUTS.index(name)] for name in columns)]


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
    return _table_text([axis, *_SWEEP_COLUMNS], _sweep_blocks(cfg.params, axis, values, _SWEEP_COLUMNS), fmt)


_SHOT_AXIS = tuple(range(5, 101))
# 40 log-spaced delta from 1e-4 to 1e-1, each within 1 ulp of np.logspace(-4, -1, 40).
_FIG5A_AXIS = (*(10.0 ** (-4 + i * (3 / 39)) for i in range(39)), 0.1)
# The bundled reference sweeps, all at d = 0.1, r = 1, mu = 0.15, each taking
# its budget by `_select_budget`, as a sweep does:
# name -> (other fixed parameters, axis, default axis values, columns after the axis).
_FIGURES = {
    "fig3": ({}, "n", _SHOT_AXIS, ("epsilon", "warnings")),
    "fig4a": ({"regime": "depolarizing", "n": 10, "D": 2}, "p", tuple(i / 100.0 for i in range(5, 96)),
              ("epsilon", "warnings")),
    "fig4b": ({"regime": "depolarizing", "p": 0.5, "D": 2}, "n", _SHOT_AXIS, ("epsilon", "warnings")),
    "fig5a": ({"n": 10}, "delta", _FIG5A_AXIS, ("c", "epsilon", "warnings")),
    "fig5b": ({"delta": 0.01}, "n", _SHOT_AXIS, ("epsilon", "warnings")),
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
    fixed, axis, values, columns = _FIGURES[which]
    if grid is not None:
        values = _grid_values(*grid, integer=axis == "n")
    params = {"d": 0.1, "r": 1, "mu": 0.15, **fixed}
    text = _table_text([axis, *columns], _sweep_blocks(params, axis, values, columns), "csv")
    _emit(text, out)
    return text


def _index(value, key: str, dim: int) -> int:
    """A basis index given under `key`: an integer in [0, dim), or its
    decimal text; bools, fractions and other text exit 2 with the key named."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    return check_index(value, dim, f"{key} index")


def _real_entry(text: str, key: str) -> float:
    """A diag entry given under `key` as text: a finite real number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise BadConfigError(f"BadConfig: {key} diag entries must be finite real numbers, got {text!r}")
    return value


def _parse_state(token, dim: int, key: str, default_diag: bool = False):
    """State spec under `key`: 'basis:<j>', 'diag:a,b,...', a nested matrix, or None."""
    import numpy as np

    from .states import basis_state, make_density, maximally_mixed

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
            return basis_state(dim, _index(token.split(":", 1)[1], key, dim))
        if token.startswith("diag:"):
            diag = [_real_entry(part, key) for part in token.split(":", 1)[1].split(",")]
            if len(diag) != dim:
                raise BadConfigError(f"BadConfig: diag state needs {dim} entries, got {len(diag)}")
            return make_density(np.diag(diag))
        raise BadConfigError(f"BadConfig: unknown state spec {token!r}")
    try:
        matrix = np.array(token, dtype=complex)
    except (TypeError, ValueError, OverflowError):  # a non-numeric or too large entry, or ragged rows
        matrix = None
    if matrix is None or not np.isfinite(matrix).all():
        raise BadConfigError(f"BadConfig: {key} matrix must have rows of finite numbers of equal length, got {token!r}")
    return make_density(matrix)


def _parse_projector(token, dim: int):
    """Projector spec: comma-separated basis indices as text, a list of
    indices, or None for index 0."""
    from .states import basis_columns, make_projector

    if token is None:
        indices = [0]
    elif isinstance(token, str):
        indices = [_index(part, "projector", dim) for part in token.split(",") if part != ""]
    elif isinstance(token, list):
        indices = [_index(part, "projector", dim) for part in token]
    else:
        raise BadConfigError(f"BadConfig: projector must be comma-separated indices or a list of them, got {token!r}")
    return make_projector(basis_columns(dim, indices))


def run_audit(cfg: RunConfig) -> tuple[str, int]:
    """Drive the audit end to end: build states, measure, compare, verdict.

    Builds a state pair at trace distance d, applies the configured channel,
    measures the configured projector, then runs the endpoint dominance
    audit, the Monte Carlo oracle confirmation, and the hockey-stick
    privacy check on the binary outcome. Returns the serialized report and
    the exit code: 3 when an endpoint dominance check the preconditions
    entitle us to expect fails, otherwise 0. A NonConvexRegime flag removes
    the entitlement, so those runs report without gating. Every parameter
    is checked before any state is built: the dimension, shots and trials
    against `MAX_AUDIT_ENTRIES`, and the trials against the Monte Carlo
    audit's floor `audit.MIN_TRIALS`.

    `single_shot_check` runs `qdp_check` on the PVM {M, I - M} at the
    one-shot exact epsilon of the measured means, with delta = 0. That
    epsilon is the largest one-shot log ratio of those same means, so the
    hockey-stick sum is zero up to rounding and the check cannot fail as
    run (it passed 1,191 of 1,191 random probes over states, channels and
    projectors). What it confirms is that the states layer's M and I - M
    expectations agree with each other.
    """
    # The audit path alone needs numpy; the budget commands never load it.
    from .audit import MIN_TRIALS, dominance_audit, exact_epsilon, min_expectation, monte_carlo_audit, qdp_check
    from .states import complement_projector, depolarizing_channel, identity_channel, neighbor_state, trace_distance

    params = cfg.params

    def setting(key, fallback):
        return fallback if params.get(key) is None else params[key]

    dim = check_count(setting("dim", 2), "dimension D")
    d = check_distance(setting("d", 0.1))
    n = check_count(setting("n", 10), "shots n")
    trials = check_count(setting("trials", 100000), "trials", minimum=MIN_TRIALS)
    for entries, what in ((dim * dim, "dim^2"), (n + 1, "n + 1"), (trials, "trials")):
        if entries > MAX_AUDIT_ENTRIES:
            raise BadConfigError(f"BadConfig: audit {what} = {entries} exceeds MAX_AUDIT_ENTRIES = "
                                 f"{MAX_AUDIT_ENTRIES}, the most entries of any array an audit builds")
    seed = cfg.seed
    p = None if params.get("p") is None else check_noise(params["p"])
    rho = _parse_state(params.get("state"), dim, "state", default_diag=True)
    anchor = _parse_state(params.get("anchor"), dim, "anchor")
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
        "dominance": dominance._asdict(),
        "monte_carlo": carlo._asdict(),
        "single_shot_check": {"epsilon": single_shot_eps, "passed": qdp_passed},
    }
    text = _json_text(payload)
    entitled = "NonConvexRegime" not in dominance.flags
    endpoint_ok = dominance.dominated["endpoint_lower"] and dominance.dominated["endpoint_upper"]
    code = 3 if entitled and not endpoint_ok else 0
    return text, code


# Every key, as an inline flag and as a config-file key, with its flag's options.
_KEY_OPTIONS = {
    **{key: {"type": float} for key in ("d", "mu", "p", "c", "delta")},
    **{key: {"type": int} for key in ("r", "n", "D", "dim", "trials", "seed")},
    "regime": {"choices": ["noiseless", "depolarizing"]},
    "convention": {"choices": ["paper", "normalized"]},
    "format": {"choices": ["json", "csv"]},
    "out": {},
    "grid": {"help": "start:stop:step"},
    "axis": {"choices": list(GRID_AXES)},
    "which": {"choices": list(_FIGURES)},
    "state": {"help": "basis:<j> or diag:a,b,..."},
    "anchor": {"help": "mixed, basis:<j>, or diag:a,b,..."},
    "projector": {"help": "comma-separated basis indices"},
}
_BUDGET_KEYS = ("d", "r", "n", "mu", "p", "D", "c", "delta", "regime", "convention")
# command -> (help, the keys it accepts); any other key exits 2.
_COMMANDS = {
    "compute": ("evaluate one budget", (*_BUDGET_KEYS, "format", "out")),
    "sweep": ("evaluate a budget along one axis", (*_BUDGET_KEYS, "axis", "grid", "format", "out")),
    "figures": ("write one bundled reference sweep as CSV", ("which", "grid", "out")),
    "audit": ("state-to-verdict audit run",
              ("dim", "d", "n", "p", "trials", "seed", "state", "anchor", "projector", "out")),
}


def _load_config(path: str) -> dict:
    import json

    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadConfigError(f"BadConfig: cannot read config {path!r}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise BadConfigError("BadConfig: config file must hold a flat JSON object")
    return loaded


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Config file first, inline flags on top; only the command's own keys."""
    keys = _COMMANDS[args.command][1]
    merged = _load_config(args.config) if args.config else {}
    unknown = sorted(set(merged) - set(keys))
    if unknown:
        raise BadConfigError(f"BadConfig: unknown configuration keys {unknown} for {args.command}")
    # A file's values skip argparse, so check what its types and choices would have checked; null means unset.
    for key, value in merged.items():
        if value is None:
            continue
        choices = _KEY_OPTIONS[key].get("choices")
        if key in ("grid", "which", "out") and not isinstance(value, str):
            raise BadConfigError(f"BadConfig: configuration key {key!r} must be a string, got {value!r}")
        if choices is not None and value not in choices:
            raise BadConfigError(f"BadConfig: configuration key {key!r} must be one of {choices}, got {value!r}")
    merged.update((key, getattr(args, key)) for key in keys if getattr(args, key) is not None)
    params = {key: value for key, value in merged.items() if key not in ("seed", "out", "format", "grid")}
    grid = merged.get("grid")
    return RunConfig(
        command=args.command,
        params=params,
        grid=_parse_grid(grid) if grid else None,
        seed=check_count(42 if merged.get("seed") is None else merged["seed"], "seed", minimum=0),
        output_path=merged.get("out"),
        format=merged.get("format"),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shotdp", description="Shot-noise privacy budgets, sweeps, and audits")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", help="flat JSON file with any of the flags below")
        for key in keys:
            sp.add_argument(f"--{key}", **_KEY_OPTIONS[key])
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code; argparse's own exits
    (2 on a bad flag, 0 after --help) are returned too, not raised.

    `compute`, `sweep` and `audit` emit their text through `_emit`, to
    stdout or --out; `figures` needs --out and `run_figures` writes it. The
    run functions are looked up by name at each call, so a wrapper bound
    over a module attribute sees every call."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        cfg = _merge_config(args)
        if cfg.command == "figures":
            if not cfg.params.get("which"):
                raise BadConfigError("BadConfig: figures needs --which")
            if cfg.output_path is None:
                raise BadConfigError("BadConfig: figures needs --out")
            run_figures(cfg.params["which"], cfg.output_path, cfg.grid)
            return 0
        if cfg.command == "audit":
            text, code = run_audit(cfg)
        else:
            text, code = (run_compute if cfg.command == "compute" else run_sweep)(cfg), 0
        _emit(text, cfg.output_path)
        return code
    except ShotDPError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Import cost: the budget commands run on the standard library alone.

Importing `shotdp` or `shotdp.cli` loads neither scipy nor numpy, nor the
standard library's `dataclasses`, `inspect`, `statistics` or `json`, and the
JSON budget commands still leave `json` unloaded. The names
of `audit`, `binomial`, `shots` and `states` resolve on first use, to the
same objects their modules define, and only `binomial`'s load no numpy. Each check runs in a
fresh interpreter, since the test process has imported everything already,
with the caller's PYTHONPATH: it checks the copy of `shotdp` that the tests
import, the source tree when PYTHONPATH holds `src` and the installed
package when PYTHONPATH is unset.
"""

import importlib
import json
import subprocess
import sys

import pytest

import shotdp
from test_golden import CASES, GOLDEN

SUBMODULES = ("audit", "binomial", "budget", "errors", "shots", "states")


def run_fresh(code: str, *args: str) -> str:
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, check=True)
    return done.stdout


def test_fresh_interpreter_imports_the_tested_copy():
    assert run_fresh("import shotdp; print(shotdp.__file__)").strip() == shotdp.__file__


def test_cli_import_leaves_scipy_unloaded():
    assert run_fresh("import sys, shotdp.cli; print('scipy' in sys.modules)").strip() == "False"


def test_cli_import_leaves_heavy_stdlib_unloaded():
    """The budget records, the normal quantile and JSON need none of these at import."""
    code = "import sys; before = set(sys.modules); import shotdp.cli; print(sorted(set(sys.modules) - before))"
    loaded = run_fresh(code)
    assert "'shotdp.cli'" in loaded
    assert [name for name in ("dataclasses", "inspect", "statistics", "json") if repr(name) in loaded] == []


def test_exact_oracles_load_without_numpy():
    """The exact oracles import only the standard library, alone and through
    the package, and the command line does not load them."""
    code = (
        "import sys, shotdp.cli; cli = 'shotdp.binomial' in sys.modules\n"
        "import shotdp.binomial; from shotdp import exact_epsilon, hockey_stick_delta\n"
        "print(cli, 'numpy' in sys.modules, hockey_stick_delta(0.25, 0.15, 10**6, 1.0))"
    )
    assert run_fresh(code).split() == ["False", "False", "1.0"]


# Imports the package and the command line, then runs every golden budget
# command and the default audit in one process; reports each command's exit
# code and, after each step, whether numpy is loaded.
_COMMANDS_PROBE = """
import json, sys
import shotdp
numpy_after = {"import shotdp": "numpy" in sys.modules}
import shotdp.cli
numpy_after["import shotdp.cli"] = "numpy" in sys.modules
cases, out, codes = json.loads(sys.argv[1]), sys.argv[2], {}
for name, argv in cases.items():
    codes[name] = shotdp.cli.main([*argv, "--out", f"{out}/{name}"])
    numpy_after[name] = "numpy" in sys.modules
print(json.dumps([codes, numpy_after]))
"""
_BUDGET_CASES = {name: argv for name, argv in CASES.items() if argv[0] != "audit"}


@pytest.fixture(scope="module")
def commands_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fresh")
    cases = {**_BUDGET_CASES, "audit_default.json": CASES["audit_default.json"]}
    codes, numpy_after = json.loads(run_fresh(_COMMANDS_PROBE, json.dumps(cases), str(out)))
    return codes, numpy_after, out


def test_budget_commands_leave_numpy_unloaded(commands_run):
    codes, numpy_after, out = commands_run
    assert {argv[0] for argv in _BUDGET_CASES.values()} == {"compute", "sweep", "figures"}
    assert [step for step in ("import shotdp", "import shotdp.cli", *_BUDGET_CASES) if numpy_after[step]] == []
    for name in _BUDGET_CASES:
        assert codes[name] == 0, name
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_audit_after_budget_commands_loads_numpy_and_matches_golden(commands_run):
    codes, numpy_after, out = commands_run
    assert codes["audit_default.json"] == 0 and numpy_after["audit_default.json"]
    assert (out / "audit_default.json").read_bytes() == (GOLDEN / "audit_default.json").read_bytes()


# Runs each JSON budget command in a fresh process that never imports json
# itself; prints the exit codes, then whether json was loaded before the
# commands and after them.
_JSON_FREE_PROBE = """
import sys
import shotdp.cli
out, names = sys.argv[1], sys.argv[2::2]
json_before = "json" in sys.modules
codes = [shotdp.cli.main([*argv.split(), "--out", f"{out}/{name}"]) for name, argv in zip(names, sys.argv[3::2])]
print(*codes, json_before, "json" in sys.modules)
"""


def test_json_output_leaves_json_unloaded(tmp_path):
    """JSON output is written without the json package, and still matches the goldens."""
    cases = {name: argv for name, argv in _BUDGET_CASES.items() if name.endswith(".json")}
    assert {argv[0] for argv in cases.values()} == {"compute", "sweep"}
    args = [item for name, argv in cases.items() for item in (name, " ".join(argv))]
    *codes, json_before, json_after = run_fresh(_JSON_FREE_PROBE, str(tmp_path), *args).split()
    assert codes == ["0"] * len(cases) and (json_before, json_after) == ("False", "False")
    for name in cases:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


# Resolves a submodule through the package first, then every public name, by
# attribute and by a star import, and compares each with the bindings of that
# name in the submodules (there may be several: modules import names from each
# other, but all must be the one object).
_RESOLVE_PROBE = """
import importlib, json, sys
import shotdp
first = sys.argv[1]
listed = sorted(set([*shotdp.__all__, "audit", "shots", "states"]) - set(dir(shotdp)))
module_first = getattr(shotdp, first) is sys.modules[f"shotdp.{first}"]
star = {}
exec("from shotdp import *", star)
modules = [importlib.import_module(f"shotdp.{name}") for name in json.loads(sys.argv[2])]
wrong = []
for name in shotdp.__all__:
    value = getattr(shotdp, name)
    bindings = [vars(m)[name] for m in modules if name in vars(m)]
    if not bindings or any(b is not value for b in bindings) or star.get(name) is not value:
        wrong.append(name)
submodules = [getattr(shotdp, name) is sys.modules[f"shotdp.{name}"] for name in ("audit", "shots", "states")]
print(json.dumps({"missing_from_dir": listed, "module_first": module_first, "wrong": wrong, "submodules": submodules}))
"""


@pytest.mark.parametrize("first", ["audit", "shots", "states"])
def test_every_public_name_resolves_to_its_defining_object(first):
    got = json.loads(run_fresh(_RESOLVE_PROBE, first, json.dumps(SUBMODULES)))
    assert got == {"missing_from_dir": [], "module_first": True, "wrong": [], "submodules": [True, True, True]}


# Public names that nothing in the library, the command line or the benchmark
# used, each with the submodule that defined it.
_REMOVED = {
    "NormalModel": "shots",
    "OutcomeDistribution": "shots",
    "normal_model": "shots",
    "single_shot_variance": "shots",
    "overlap_gap": "states",
    "erfc": "budget",
}


@pytest.mark.parametrize("name", sorted(_REMOVED))
def test_removed_names_are_gone(name):
    assert name not in shotdp.__all__ and name not in dir(shotdp)
    with pytest.raises(AttributeError, match=name):
        getattr(shotdp, name)
    assert not hasattr(importlib.import_module(f"shotdp.{_REMOVED[name]}"), name)

"""The import set: the lazy package namespace, the modules that each CLI
command loads in a fresh interpreter, and how the process entry handles
cyclic garbage collection around those imports."""

import ast
import gc
import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import dnsurf
from dnsurf import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
GALLERY = ROOT / "gallery"

#: Runs dnsurf.cli.main on argv[2:] (or only `import dnsurf` when argv[2:]
#: is empty), writing into the directory argv[1], then prints main's exit
#: code (None without a command) and the loaded dnsurf submodules, and
#: numpy and dataclasses if loaded, one per line.
_LOADED = """
import sys
argv = [a.replace("OUT", sys.argv[1]) for a in sys.argv[2:]]
rc = None
if argv:
    import dnsurf.cli
    rc = dnsurf.cli.main(argv)
else:
    import dnsurf
print(rc)
print("\\n".join(m for m in sys.modules
                if m.startswith("dnsurf.") or m in ("numpy", "dataclasses")))
"""

#: What the commands that need neither a chart nor a construction leave out.
_NOT_FOR_GRID_COMMANDS = {"dnsurf.canon", "dnsurf.family", "dnsurf.mink", "dnsurf.dnum",
                          "dataclasses"}


def _loaded(tmp_path, *argv) -> tuple[str, set[str]]:
    r = subprocess.run([sys.executable, "-c", _LOADED, str(tmp_path), *map(str, argv)],
                       capture_output=True, text=True, check=True)
    rc, *loaded = r.stdout.split()
    return rc, set(loaded)


@pytest.mark.parametrize("argv", [
    ["check", GALLERY / "s1.json"],
    ["invariants", GALLERY / "s1.json", "--grid", "4x4", "--out", "OUT/i.csv"],
    ["mesh", GALLERY / "s1.json", "--grid", "4x4", "--out", "OUT/m.obj"],
], ids=["check", "invariants", "mesh"])
def test_grid_commands_load_no_chart_construction_or_pointwise_module(tmp_path, argv):
    _rc, loaded = _loaded(tmp_path, *argv)
    assert "dnsurf.geom" in loaded
    assert not loaded & _NOT_FOR_GRID_COMMANDS


def test_canonize_and_family_load_only_their_own_module(tmp_path):
    """Neither builds a dataclass; dnum, for the chart's base point and
    its per-point inverse, is loaded by canonize alone."""
    _rc, loaded = _loaded(tmp_path, "canonize", GALLERY / "s1.json", "--out", "OUT/c.json")
    assert "dnsurf.canon" in loaded and "dnsurf.family" not in loaded
    assert "dnsurf.dnum" in loaded and "dataclasses" not in loaded
    _rc, loaded = _loaded(tmp_path, "family", GALLERY / "s1.json", "--op", "conjugate",
                          "--out", "OUT/f.json")
    assert "dnsurf.family" in loaded and "dnsurf.canon" not in loaded
    assert not loaded & {"dnsurf.dnum", "dataclasses"}


def _write_spec(directory, changes):
    """A spec file: s1 with the given dict of changes, or else the JSON
    value given."""
    s1 = json.loads((GALLERY / "s1.json").read_text())
    path = directory / "spec.json"
    path.write_text(json.dumps({**s1, **changes} if isinstance(changes, dict) else changes))
    return path


def _write_motion(directory, text):
    path = directory / "motion.json"
    path.write_text(text)
    return path


def _deep_spec(text):
    """check on s1 with its second component replaced by text."""
    return lambda d: ["check", _write_spec(d, {"psi": ["t", text, "-cos(t)"]})]


#: Inputs that the front end refuses, with their exit codes: a bad --grid,
#: a psi entry that does not parse or nests past sexpr.MAX_DEPTH, a spec
#: that is not a JSON object, a domain bound or a motion entry that is not
#: a JSON number.
FRONT_END_FAILURES = {
    "bad-grid": ("2", lambda d: ["invariants", GALLERY / "s1.json", "--grid", "1x4",
                                 "--out", "OUT/i.csv"]),
    "bad-parse": ("3", lambda d: ["check", _write_spec(d, {"psi": ["t", "sin(t", "-cos(t)"]})]),
    "deep-sin": ("3", _deep_spec("sin(" * 199 + "t" + ")" * 199)),
    "deep-sum": ("3", _deep_spec("+".join(["t"] * 987))),
    "deep-product": ("3", _deep_spec("*".join(["t"] * 496))),
    "deep-minus": ("3", _deep_spec("-" * 987 + "t")),
    "spec-not-object": ("2", lambda d: ["check", _write_spec(d, [])]),
    "domain-bound-boolean": ("2", lambda d: ["check", _write_spec(
        d, {"domain": {"a": [-2.0, 0.0], "b": [True, 2.0]}})]),
    "motion-entry-string": ("2", lambda d: [
        "family", GALLERY / "s2.json", "--op", "motion", "--out", "OUT/f.json", "--motion",
        _write_motion(d, '{"A": [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,"1.0"]], "b": [0,0,0,0]}')]),
}


@pytest.mark.parametrize("case", list(FRONT_END_FAILURES))
def test_front_end_failures_load_no_numpy(tmp_path, case):
    """Malformed input is refused before numpy, holo or geom imports."""
    code, argv = FRONT_END_FAILURES[case]
    rc, loaded = _loaded(tmp_path, *argv(tmp_path))
    assert rc == code
    assert not loaded & {"numpy", "dnsurf.holo", "dnsurf.geom"}


#: Per-point names that dnsurf does not export: the grids of geom ship the
#: quantities at a point, and the per-point route is the tests' reference,
#: tests/pointwise_ref.py.
_PER_POINT_NAMES = {"NormalHyperbola", "PointClass", "PointData", "classify_point", "gauss_K",
                    "hyperbola_at", "hyperbola_sample", "point_data", "project_normal",
                    "second_fundamental"}


def test_per_point_route_lives_only_in_the_tests():
    """dnsurf has no pointwise module and exports none of its names, and
    no dnsurf module imports a module of tests/."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("dnsurf.pointwise")
    assert not _PER_POINT_NAMES & set(dnsurf.__all__)
    test_modules = {"tests", *(p.stem for p in (ROOT / "tests").glob("*.py"))}
    for path in (ROOT / "src" / "dnsurf").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not {name.split(".")[0] for name in names} & test_modules, path.name


def test_import_dnsurf_loads_no_submodule_and_no_numpy(tmp_path):
    assert _loaded(tmp_path) == ("None", set())


def test_namespace_resolves_every_public_name():
    for name in dnsurf.__all__:
        obj = getattr(dnsurf, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("dnsurf.") and getattr(home, name) is obj
    assert set(dnsurf.__all__) <= set(dir(dnsurf))
    ns = {}
    exec("from dnsurf import *", ns)
    assert all(ns[name] is getattr(dnsurf, name) for name in dnsurf.__all__)
    with pytest.raises(AttributeError):
        dnsurf.no_such_name


#: Runs the CLI process entry on argv[2:], as `python -m dnsurf.cli` does
#: when argv[1] is "module" and as the dnsurf console script does when it
#: is "run".  Prints the exit code, whether collection is on, the freeze
#: count, how many collections started with nothing frozen while numpy
#: was loaded, and whether numpy was loaded.
_ENTRY = """
import gc, runpy, sys
how, sys.argv[1:] = sys.argv[1], sys.argv[2:]
early = []
gc.callbacks.append(lambda phase, info: early.append(1) if (
    phase == "start" and not gc.get_freeze_count() and "numpy" in sys.modules) else None)
try:
    if how == "module":
        runpy.run_module("dnsurf.cli", run_name="__main__", alter_sys=True)
    else:
        import dnsurf.cli
        dnsurf.cli.run()
except SystemExit as exc:
    print(exc.code, gc.isenabled(), gc.get_freeze_count(), len(early), "numpy" in sys.modules)
"""


def _entry(how, *argv):
    r = subprocess.run([sys.executable, "-c", _ENTRY, how, *map(str, argv)],
                       capture_output=True, text=True, check=True)
    code, enabled, frozen, early, numpy = r.stdout.splitlines()[-1].split()
    return int(code), enabled == "True", int(frozen), int(early), numpy == "True"


def test_module_entry_pauses_collection_while_importing_and_freezes():
    """numpy alone leaves tens of thousands of container objects at import;
    python -m dnsurf.cli collects none of them while importing, freezes
    them before the command and runs the command with collection on."""
    code, enabled, frozen, early, _numpy = _entry("module", "check", GALLERY / "s1.json")
    assert code == 0 and enabled
    assert frozen > 10_000
    assert early == 0


def test_run_entry_freezes_startup_objects():
    """The console script imports the module before it calls run(); numpy
    still imports with collection paused, as under -m."""
    code, enabled, frozen, early, _numpy = _entry("run", "check", GALLERY / "s1.json")
    assert code == 0 and enabled
    assert frozen > 10_000
    assert early == 0


def test_module_entry_refuses_bad_parse_without_numpy(tmp_path):
    """Under -m, a spec that does not parse exits 3 with nothing imported
    for the back end and nothing frozen."""
    spec = _write_spec(tmp_path, {"psi": ["t", "sin(t", "-cos(t)"]})
    code, enabled, frozen, _early, numpy = _entry("module", "check", spec)
    assert (code, enabled, frozen, numpy) == (3, True, 0, False)


def test_main_in_process_leaves_collection_as_it_was(tmp_path):
    """Sweeps and tests call main() many times in one process; it neither
    freezes objects, which would then never be collected, nor turns
    collection off."""
    before = gc.isenabled(), gc.get_freeze_count()
    assert cli.main(["check", str(GALLERY / "s1.json")]) == 0
    assert cli.main(["family", str(GALLERY / "s1.json"), "--op", "conjugate",
                     "--out", str(tmp_path / "f.json")]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"dnsurf": "dnsurf.cli:run"}

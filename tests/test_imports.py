"""The import set: the lazy package namespace, and the modules that each
CLI command loads in a fresh interpreter."""

import pathlib
import subprocess
import sys

import pytest

import dnsurf

GALLERY = pathlib.Path(__file__).resolve().parents[1] / "gallery"

#: Runs dnsurf.cli.main on argv[2:] (or only `import dnsurf` when argv[2:]
#: is empty), writing into the directory argv[1], then prints the loaded
#: dnsurf submodules, and numpy and dataclasses if loaded, one per line.
_LOADED = """
import sys
argv = [a.replace("OUT", sys.argv[1]) for a in sys.argv[2:]]
if argv:
    import dnsurf.cli
    dnsurf.cli.main(argv)
else:
    import dnsurf
print("\\n".join(m for m in sys.modules
                if m.startswith("dnsurf.") or m in ("numpy", "dataclasses")))
"""

#: What the commands that need neither a chart nor a construction leave out.
_NOT_FOR_GRID_COMMANDS = {"dnsurf.canon", "dnsurf.family", "dnsurf.pointwise", "dnsurf.mink",
                          "dataclasses"}


def _loaded(tmp_path, *argv) -> set[str]:
    r = subprocess.run([sys.executable, "-c", _LOADED, str(tmp_path), *map(str, argv)],
                       capture_output=True, text=True, check=True)
    return set(r.stdout.split())


@pytest.mark.parametrize("argv", [
    ["check", GALLERY / "s1.json"],
    ["invariants", GALLERY / "s1.json", "--grid", "4x4", "--out", "OUT/i.csv"],
    ["mesh", GALLERY / "s1.json", "--grid", "4x4", "--out", "OUT/m.obj"],
    ["invariants", GALLERY / "s1.json", "--grid", "1x4", "--out", "OUT/i.csv"],
], ids=["check", "invariants", "mesh", "bad-grid"])
def test_grid_commands_load_no_chart_construction_or_pointwise_module(tmp_path, argv):
    loaded = _loaded(tmp_path, *argv)
    assert "dnsurf.geom" in loaded
    assert not loaded & _NOT_FOR_GRID_COMMANDS


def test_canonize_and_family_load_only_their_own_module(tmp_path):
    loaded = _loaded(tmp_path, "canonize", GALLERY / "s1.json", "--out", "OUT/c.json")
    assert "dnsurf.canon" in loaded and "dnsurf.family" not in loaded
    loaded = _loaded(tmp_path, "family", GALLERY / "s1.json", "--op", "conjugate",
                     "--out", "OUT/f.json")
    assert "dnsurf.family" in loaded and "dnsurf.canon" not in loaded


def test_import_dnsurf_loads_no_submodule_and_no_numpy(tmp_path):
    assert _loaded(tmp_path) == set()


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

"""Shared fixtures: the four-surface gallery and the boost motion."""

import json
import pathlib

import numpy as np
import pytest

from dnsurf import cli, family, geom, holo, sexpr

ROOT = pathlib.Path(__file__).resolve().parents[1]
GALLERY = ROOT / "gallery"


def _load(name):
    return cli.build_surface(str(GALLERY / name))[2]


@pytest.fixture(scope="session")
def s1():
    """Psi = (t, sin t, -cos t); K = 1/sin^4 v."""
    return _load("s1.json")


@pytest.fixture(scope="session")
def s2():
    """Psi = (sinh t, cosh t, sin t, -cos t); Phi'^2 = 2."""
    return _load("s2.json")


@pytest.fixture(scope="session")
def s3():
    """Psi = (5t, 4t, 3jt); a plane, degenerate everywhere."""
    return _load("s3.json")


@pytest.fixture(scope="session")
def s4():
    """Mixed null curves with Phi'^2 = q: degenerate but nonzero."""
    box = holo.Box(0.5, 2.5, -1.0, 1.0)

    def rf(text):
        return holo.RealFn1.from_expr(sexpr.parse(text))

    comps = (
        holo.HoloMap(rf("t"), rf("t"), box),
        holo.HoloMap(rf("sin(t)"), rf("t"), box),
        holo.HoloMap(rf("-cos(t)"), rf("0"), box),
    )
    return geom.make_surface(holo.HoloCurve(comps))


@pytest.fixture(scope="session")
def s5():
    """Phi'^2 = e^{2a} q + e^{2b} qbar: non-constant chart integrand, s = 2 e^{x/2} + c."""
    exprs = ["exp(t)", "exp(t)*(cos(t)+sin(t))/2", "exp(t)*(sin(t)-cos(t))/2"]
    psi = holo.HoloCurve.from_exprs([sexpr.parse(e) for e in exprs], holo.Box(-2.0, 0.0, 0.4, 2.0))
    return geom.make_surface(psi)


@pytest.fixture(scope="session")
def gallery(s1, s2, s3, s4):
    return [s1, s2, s3, s4]


@pytest.fixture(scope="session")
def boost():
    with open(GALLERY / "boost.json", "r", encoding="utf-8") as fh:
        m = json.load(fh)
    return family.Motion(np.asarray(m["A"], float), np.asarray(m["b"], float))

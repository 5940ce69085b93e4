"""Independent checks of every dnsurf output the benchmark produces.

Each check returns a list of error strings; an empty list means the output
passed.  Expected values come from the closed forms in ``specs`` and from
agreement between routes that dnsurf computes separately.  The canonize
report's ``residual`` is never used: it divides P by the chart derivative,
which is P^{1/4} itself, so it reads ~1e-16 whatever the chart error is.
"""

from __future__ import annotations

import ast
import io
import json
import re

import numpy as np

from specs import Variant

#: Relative tolerances, about 100x the worst agreement seen on the variants.
TOL_EXACT = 1e-10  # closed form against a closed-form evaluation in dnsurf
TOL_ROUTE = 1e-9  # projection vs bivector route
TOL_LAP = 1e-6  # finite-difference laplacian route vs bivector
TOL_CHART = 1e-8  # quadrature chart and its Newton inverse vs closed form
TOL_GAUSS = 1e-5  # Gauss-equation residual, relative to 1 + |K|


def _close(name, got, want, rtol, scale=None) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != expected {want.shape}"]
    scale = 1.0 + np.abs(want) if scale is None else scale
    err = np.nan_to_num(np.abs(got - want) / scale, nan=np.inf)
    bad = err > rtol
    if np.any(bad):
        i = int(np.argmax(err))
        return [f"{name}: {int(bad.sum())} values off, worst {got.flat[i]!r} vs {want.flat[i]!r}"]
    return []


def _lattice(name, x: np.ndarray, lo: float, hi: float) -> list[str]:
    """x is one row of a uniform lattice strictly inside [lo, hi]."""
    want = np.linspace(x[0], x[-1], x.size)
    errs = _close(name, x, want, TOL_EXACT)
    if not (lo - 1e-12 <= x[0] < x[-1] <= hi + 1e-12):
        errs.append(f"{name}: lattice [{x[0]}, {x[-1]}] not inside [{lo}, {hi}]")
    return errs


# -- invariants CSV ------------------------------------------------------

_CLASS_CODES = ((",degenerate,,,,", ",0,nan,nan,nan,"), (",superconformal,", ",1,"),
                (",generic,", ",2,"))


def check_invariants(v: Variant, w: int, h: int, text: str) -> list[str]:
    head, _, body = text.partition("\n")
    if head != "u,v,E,K_proj,K_biv,K_lap,class,nu,mu,kappa,gauss_residual":
        return [f"invariants: unexpected header {head!r}"]
    for word, code in _CLASS_CODES:
        body = body.replace(word, code)
    try:
        d = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        return [f"invariants: unreadable CSV ({exc})"]
    if d.shape != (w * h, 11):
        return [f"invariants: {d.shape} values, expected {(w * h, 11)}"]
    u, vv, E, Kp, Kb, Kl, cls, nu, mu, kappa, gres = d.T
    a, b = u - vv, u + vv
    a0, a1, b0, b1 = v.box
    errs = _lattice("invariants a", a.reshape(h, w)[0], a0, a1)
    errs += _lattice("invariants b", b.reshape(h, w)[:, 0], b0, b1)
    f = v.fields(a, b)
    K = f["K"]
    kscale = np.abs(K)
    errs += _close("invariants E", E, f["E"], TOL_EXACT, np.abs(f["E"]))
    errs += _close("invariants K_biv", Kb, K, TOL_EXACT, kscale)
    errs += _close("invariants K_proj vs K_biv", Kp, Kb, TOL_ROUTE, kscale)
    errs += _close("invariants K_lap vs K_biv", Kl, Kb, TOL_LAP, kscale)
    if v.base.name == "s1":
        # K = 1 / (k^2 sin^4 v): isometries keep K, the homothety divides it by k^2
        errs += _close("invariants K_s1", Kb, 1.0 / (v.k**2 * np.sin(vv) ** 4), TOL_EXACT, kscale)
    want_cls = np.where(np.minimum(f["P"], f["Q"]) <= 1e-9 * (1 + np.maximum(f["P"], f["Q"])), 0,
                        np.where(kscale <= 1e-8, 1, 2))
    if np.any(cls != want_cls):
        errs.append(f"invariants class: {int(np.sum(cls != want_cls))} rows misclassified")
    ssum = np.sqrt(f["P"] * f["Q"]) / f["E"] ** 2
    errs += _close("invariants nu^2+mu^2", nu**2 + mu**2, ssum, TOL_EXACT, ssum)
    errs += _close("invariants mu^2-nu^2", mu**2 - nu**2, K, TOL_EXACT, ssum)
    errs += _close("invariants kappa", kappa, 2.0 * nu * mu, TOL_EXACT, ssum)
    if not np.all(gres <= TOL_GAUSS * (1.0 + kscale)):
        errs.append(f"invariants gauss_residual: max {np.max(gres)!r}")
    return errs


# -- mesh OBJ ------------------------------------------------------------

def check_mesh(v: Variant, w: int, h: int, proj: tuple[int, int, int], text: str) -> list[str]:
    cut = text.find("\nf ")
    if not text.startswith("v ") or cut < 0:
        return ["mesh: OBJ has no vertex block followed by a face block"]
    try:
        verts = np.loadtxt(io.StringIO(text[: cut + 1]), usecols=(1, 2, 3), ndmin=2)
        faces = np.loadtxt(io.StringIO(text[cut + 1:]), usecols=(1, 2, 3), dtype=np.int64, ndmin=2)
    except ValueError as exc:
        return [f"mesh: unreadable OBJ ({exc})"]
    a0, a1, b0, b1 = v.box
    A, B = np.meshgrid(np.linspace(a0, a1, w), np.linspace(b0, b1, h))
    want = v.x(A.ravel(), B.ravel())[list(proj)].T
    errs = _close("mesh vertices", verts, want, TOL_EXACT)
    ib, ia = np.meshgrid(np.arange(h - 1), np.arange(w - 1), indexing="ij")
    v00 = (ib * w + ia + 1).ravel()
    want_f = np.empty((2 * v00.size, 3), dtype=np.int64)
    want_f[0::2] = np.stack([v00, v00 + 1, v00 + w + 1], axis=1)
    want_f[1::2] = np.stack([v00, v00 + w + 1, v00 + w], axis=1)
    if faces.shape != want_f.shape or np.any(faces != want_f):
        errs.append(f"mesh faces: {faces.shape[0]} faces do not match the {w}x{h} lattice")
    return errs


# -- canonize report and canonical-grid CSV ------------------------------

def check_canonize(v: Variant, base_ab: tuple[float, float], w: int, h: int,
                   report_text: str, csv_text: str) -> list[str]:
    try:
        rep = json.loads(report_text)
        d = np.loadtxt(io.StringIO(csv_text), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return [f"canonize: unreadable output ({exc})"]
    n = v.n
    if d.shape != (w * h, 6 + n):
        return [f"canonize: grid {d.shape}, expected {(w * h, 6 + n)}"]
    ba, bb = base_ab
    a0, a1, b0, b1 = v.box
    ends = {"minus": v.chart(np.array([a0, a1]), 0, ba), "plus": v.chart(np.array([b0, b1]), 1, bb)}
    errs = _close("canonize base", rep["base"], [(ba + bb) / 2, (bb - ba) / 2], TOL_EXACT)
    for axis, want in ends.items():
        errs += _close(f"canonize s_range.{axis}", rep["s_range"][axis], want, TOL_CHART)
    slopes = v.chart_slopes()
    for axis, lo in (("minus", a0), ("plus", b0)):
        i = 0 if axis == "minus" else 1
        want = slopes[i] * v.base.quarter_root(np.array([lo, v.box[2 * i + 1]]))
        errs += _close(f"canonize derivative_min.{axis}", rep["derivative_min"][axis],
                       np.min(want), TOL_CHART)

    # the grid spans the closed-form s-box with a 2% pad on each side
    sa0, sa1 = ends["minus"]
    sb0, sb1 = ends["plus"]
    pa, pb = 0.02 * (sa1 - sa0), 0.02 * (sb1 - sb0)
    X, Y = np.meshgrid(np.linspace(sa0 + pa, sa1 - pa, w), np.linspace(sb0 + pb, sb1 - pb, h))
    X, Y = X.ravel(), Y.ravel()
    errs += _close("canonize s_u", d[:, 0], (X + Y) / 2, TOL_CHART)
    errs += _close("canonize s_v", d[:, 1], (Y - X) / 2, TOL_CHART)
    ta, tb = v.chart_inv(X, 0, ba), v.chart_inv(Y, 1, bb)
    errs += _close("canonize x", d[:, 2:2 + n], v.x(ta, tb).T, TOL_CHART)
    f = v.fields(ta, tb)
    K, nu, mu, kappa = d[:, 2 + n:].T
    ssum = np.sqrt(f["P"] * f["Q"]) / f["E"] ** 2
    errs += _close("canonize K", K, f["K"], TOL_CHART, np.abs(f["K"]))
    errs += _close("canonize nu^2+mu^2", nu**2 + mu**2, ssum, TOL_CHART, ssum)
    errs += _close("canonize kappa", kappa, 2.0 * nu * mu, TOL_EXACT, ssum)
    return errs


# -- family: derived spec ------------------------------------------------

_FUNCS = {"sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh, "exp": np.exp}
_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Constant, ast.Load,
          ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd)


def eval_psi(text: str, x: np.ndarray, jval: float) -> np.ndarray:
    """Evaluate a serialized component with Python's own parser, j = jval."""
    tree = ast.parse(text.replace("^", "**"), mode="eval")
    for node in ast.walk(tree):
        if not isinstance(node, _NODES):
            raise ValueError(f"unexpected {type(node).__name__} in {text!r}")
        if isinstance(node, ast.Name) and node.id not in (*_FUNCS, "t", "j", "pi"):
            raise ValueError(f"unknown name {node.id!r} in {text!r}")
    env = {**_FUNCS, "t": x, "j": jval, "pi": np.pi}
    return np.broadcast_to(eval(compile(tree, "<psi>", "eval"), {"__builtins__": {}}, env), x.shape)


def derived_null(v: Variant, op: str, param, x: np.ndarray, axis: int) -> np.ndarray:
    """Null components of the derived surface, from the variant's closed form."""
    if op == "associated":
        return np.exp(param if axis else -param) * v.null(x, axis)
    if op == "conjugate":
        return v.null(x, 1) if axis else -v.null(-x, 0)
    if op == "homothety":
        return param * v.null(x, axis)
    A, b = param
    return A @ v.null(x, axis) + b[:, None]


_SUMMARY = re.compile(r"^max \|[^:]*: (\S+)$", re.M)


def check_family(v: Variant, op: str, param, spec_text: str, stdout: str) -> list[str]:
    try:
        spec = json.loads(spec_text)
    except ValueError as exc:
        return [f"family: unreadable spec ({exc})"]
    a0, a1, b0, b1 = v.box
    box = (-a1, -a0, b0, b1) if op == "conjugate" else v.box
    errs = _close("family domain", spec["domain"]["a"] + spec["domain"]["b"], box, TOL_EXACT)
    if len(spec["psi"]) != v.n:
        return errs + [f"family: {len(spec['psi'])} components, expected {v.n}"]
    for axis, (lo, hi), jval in ((0, box[:2], -1.0), (1, box[2:], 1.0)):
        x = np.linspace(lo, hi, 9)
        try:
            got = np.array([eval_psi(t, x, jval) for t in spec["psi"]])
        except (ValueError, SyntaxError, TypeError) as exc:
            return errs + [f"family psi: {exc}"]
        errs += _close(f"family psi axis {axis}", got, derived_null(v, op, param, x, axis),
                       TOL_EXACT)
    m = _SUMMARY.search(stdout)
    if m is None or not float(m.group(1)) <= 1e-9:
        errs.append(f"family summary residual missing or large: {stdout!r}")
    return errs


# -- check ---------------------------------------------------------------

def check_check(v: Variant, stdout: str) -> list[str]:
    errs = []
    for line in ("accepted: yes", "general type: yes"):
        if line not in stdout.splitlines():
            errs.append(f"check: {line!r} missing")
    m = re.search(r"^max \|\|Psi'\|\|\^2 \(must be < 0\): (\S+)$", stdout, re.M)
    a0, a1, b0, b1 = v.box
    A, B = np.meshgrid(np.linspace(a0, a1, 33), np.linspace(b0, b1, 33))
    want = 2.0 * np.max(v.fields(A.ravel(), B.ravel())["E"])
    if m is None:
        return errs + ["check: max ||Psi'||^2 line missing"]
    return errs + _close("check max ||Psi'||^2", float(m.group(1)), want, TOL_EXACT, abs(want))


def check_error(expect_rc: int, rc: int, stderr: str) -> list[str]:
    prefix = {2: "validation error:", 3: "parse error:", 4: "numeric error:"}[expect_rc]
    if rc != expect_rc:
        return [f"exit code {rc}, expected {expect_rc}"]
    if not stderr.startswith(prefix):
        return [f"stderr {stderr[:80]!r} does not start with {prefix!r}"]
    return []

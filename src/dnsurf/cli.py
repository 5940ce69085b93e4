"""Command-line front-end: check, invariants, canonize, family, mesh.

Surface specs are JSON files with expression strings:

    {"name": "...", "n": 3,
     "psi": ["t", "sin(t)", "-cos(t)"],
     "domain": {"a": [-2.0, 0.0], "b": [0.4, 2.0]}}

Domains are stored internally in null coordinates (a, b) = (u - v, u + v);
a {"u": [...], "v": [...]} box is converted to the enclosing null box with
a warning on stderr.  A --grid WxH needs w, h >= 2 and at most
MAX_GRID_POINTS = 2^22 points in all.

family writes the spec that the family.*_exprs transform makes from the
parsed expressions, and its printed residual is measured on the surface
built from that same spec.

Each command imports only the modules it runs: every command needs
errors, sexpr, holo and geom, which this module imports; canonize also
imports canon, and family imports family.

Exit codes: 0 success; 2 validation failure, malformed input included: a
bad grid, --base, --project, --theta or --k, a spec or motion file that is
not UTF-8 or not a JSON object, a psi entry that is not a string, a
non-integer n, a domain range that is not two finite numbers, a motion
entry that is not a finite number; 3 parse failure (a non-finite number
literal included); 4 numeric failure (quadrature / degeneracy).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import geom, sexpr
from .errors import (
    ChartModelError,
    DegeneratePointError,
    DimensionError,
    GridError,
    MetricDegeneracyError,
    MotionError,
    NonInvertibleError,
    OutOfDomainError,
    ParseError,
    QuadratureError,
    RootDomainError,
    SurfaceConditionError,
)
from .holo import Box, HoloCurve

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4

#: Most points a --grid may ask for; every grid command holds several
#: float arrays of this many points at once.
MAX_GRID_POINTS = 1 << 22

#: Largest |theta| whose e^{|theta|} is a finite float.
_MAX_EXP_ARG = math.log(sys.float_info.max)

_ROW6 = ",".join(["%.17g"] * 6)
#: One invariants CSV line per point-class code.  A degenerate point has
#: empty nu, mu and kappa cells: %.0s consumes a value and prints nothing.
_INVARIANTS_ROW = {
    0: _ROW6 + ",degenerate,%.0s,%.0s,%.0s,%.17g\n",
    1: _ROW6 + ",superconformal,%.17g,%.17g,%.17g,%.17g\n",
    2: _ROW6 + ",generic,%.17g,%.17g,%.17g,%.17g\n",
}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# -- spec loading --------------------------------------------------------

def _read_json_object(path: str, error):
    """The JSON object in the UTF-8 file at path; raises error otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not isinstance(data, dict):
        raise error(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def load_spec(path: str):
    """Read a SurfaceSpec JSON file; returns (name, exprs, box)."""
    spec = _read_json_object(path, SurfaceConditionError)
    name = spec.get("name", path)
    psi_texts = spec["psi"]
    if not isinstance(psi_texts, list) or not all(isinstance(t, str) for t in psi_texts):
        raise SurfaceConditionError(f"spec {name}: psi must be a list of expression strings")
    n = spec.get("n", len(psi_texts))
    if not isinstance(n, int) or n != len(psi_texts):
        raise SurfaceConditionError(
            f"spec {name}: n = {n!r} but {len(psi_texts)} psi components"
        )
    exprs = [sexpr.parse(text) for text in psi_texts]
    box = _load_box(spec["domain"], name)
    return name, exprs, box


def _load_range(dom: dict, key: str, name: str) -> tuple[float, float]:
    try:
        lo, hi = (float(x) for x in dom[key])
    except (TypeError, ValueError):
        raise SurfaceConditionError(
            f"spec {name}: domain {key} needs two numbers, got {dom[key]!r}"
        ) from None
    return lo, hi


def _load_box(dom: dict, name: str) -> Box:
    if not isinstance(dom, dict):
        raise SurfaceConditionError(f"spec {name}: domain must be a JSON object")
    if "a" in dom and "b" in dom:
        return Box(*_load_range(dom, "a", name), *_load_range(dom, "b", name))
    if "u" in dom and "v" in dom:
        (u0, u1), (v0, v1) = _load_range(dom, "u", name), _load_range(dom, "v", name)
        print(
            f"warning: spec {name}: converting (u, v) box to the enclosing "
            f"null box (a, b)",
            file=sys.stderr,
        )
        return Box(u0 - v1, u1 - v0, u0 + v0, u1 + v1)
    raise SurfaceConditionError(f"spec {name}: domain needs a/b or u/v ranges")


def build_surface(path: str):
    """(name, exprs, surface) of the spec at path."""
    name, exprs, box = load_spec(path)
    return name, exprs, geom.make_surface(HoloCurve.from_exprs(exprs, box))


# -- commands ------------------------------------------------------------

def cmd_check(args) -> int:
    name, _exprs, S = build_surface(args.spec)
    rec = S.validation
    g = geom.grid_quantities(S, 33, 33, richardson=False)
    degenerate = int(np.sum(g["class"] == 0))
    total = g["class"].size
    if degenerate == 0:
        gt = "yes"
    elif degenerate == total:
        gt = "no (degenerate everywhere)"
    else:
        gt = f"no ({degenerate}/{total} sampled points degenerate)"
    print(f"surface: {name}")
    print(f"accepted: yes")
    print(f"max |Psi'^2| residual: {_fmt(rec.max_isothermal)}")
    print(f"max ||Psi'||^2 (must be < 0): {_fmt(rec.max_normsq)}")
    print(f"general type: {gt}")
    return EXIT_OK


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        w, h = int(w), int(h)
    except ValueError:
        raise GridError(f"bad --grid {text!r}; expected WxH") from None
    if w < 2 or h < 2:
        raise GridError(f"grid {w}x{h} too small; need at least 2x2")
    if w * h > MAX_GRID_POINTS:
        raise GridError(f"grid {w}x{h} too large; at most {MAX_GRID_POINTS} points")
    return w, h


def _inset_box(box: Box, margin: float) -> Box:
    return Box(box.a0 + margin, box.a1 - margin, box.b0 + margin, box.b1 - margin)


def cmd_invariants(args) -> int:
    w, h = _parse_grid(args.grid)
    name, _exprs, S = build_surface(args.spec)
    # inset so the laplacian stencil keeps its margin at every grid point
    box = _inset_box(S.domain, 2.0 * geom.H_FD)
    g = geom.grid_quantities(S, w, h, box=box)
    cols = [g[c] for c in ("u", "v", "E", "K_proj", "K_biv", "K_lap",
                           "nu", "mu", "kappa", "gauss_residual")]
    with _open_out(args.out) as fh:
        fh.write("u,v,E,K_proj,K_biv,K_lap,class,nu,mu,kappa,gauss_residual\n")
        _write_grid(fh, cols, lambda i: "".join(_INVARIANTS_ROW[c] for c in g["class"][i].tolist()))
    scale = np.maximum(1e-30, np.abs(g["K_biv"]))
    rel = float(np.max(np.abs(g["K_proj"] - g["K_biv"]) / scale))
    lap = float(np.max(np.abs(g["K_lap"] - g["K_biv"])))
    print(f"surface: {name}")
    print(f"grid: {w}x{h}")
    print(f"max relative |K_proj - K_biv|: {_fmt(rel)}")
    print(f"max |K_lap - K_biv|: {_fmt(lap)}")
    print(f"max Gauss-equation residual: {_fmt(float(np.max(g['gauss_residual'])))}")
    return EXIT_OK


def cmd_canonize(args) -> int:
    from . import canon
    from .dnum import DNum

    w, h = _parse_grid(args.grid)
    name, _exprs, S = build_surface(args.spec)
    if args.base:
        try:
            u, v = (float(x) for x in args.base.split(","))
        except ValueError:
            raise GridError(f"bad --base {args.base!r}; expected u,v") from None
        base = DNum(u, v)
    else:
        base = None
    chart = canon.canonize(S, base)
    residual = canon.verify_canonical(S, chart)
    report = {
        "surface": name,
        "base": [chart.base.re, chart.base.im],
        "nodes": {"minus": chart.sminus.nodes, "plus": chart.splus.nodes},
        "residual": residual,
        "derivative_min": {
            "minus": chart.sminus.deriv_min,
            "plus": chart.splus.deriv_min,
        },
        "s_range": {
            "minus": [chart.sminus.slo, chart.sminus.shi],
            "plus": [chart.splus.slo, chart.splus.shi],
        },
    }
    _write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")

    csv_path = args.csv_out or _derived_path(args.out, ".csv")
    sb = chart.s_box
    pad_a = 0.02 * (sb.a1 - sb.a0)
    pad_b = 0.02 * (sb.b1 - sb.b0)
    sa = np.linspace(sb.a0 + pad_a, sb.a1 - pad_a, w)
    sbv = np.linspace(sb.b0 + pad_b, sb.b1 - pad_b, h)
    g = geom.canonical_grid(S, chart, sa, sbv)
    # s = s_u + j s_v at the null point (sa, sbv), as DNum.from_null forms it
    s_u, s_v = (sa + sbv[:, None]) / 2.0, (sbv[:, None] - sa) / 2.0
    cols = [s_u, s_v, *g["x"], g["K"], g["nu"], g["mu"], g["kappa"]]
    with _open_out(csv_path) as fh:
        fh.write(",".join(["s_u", "s_v", *(f"x{k}" for k in range(S.n)),
                           "K", "nu", "mu", "kappa"]) + "\n")
        _write_grid(fh, cols, ",".join(["%.17g"] * len(cols)) + "\n")
    print(f"surface: {name}")
    print(f"canonical residual: {_fmt(residual)}")
    print(f"report: {args.out}")
    print(f"canonical grid: {csv_path}")
    return EXIT_OK


def _derived_path(path: str, suffix: str) -> str:
    stem = path[: path.rfind(".")] if "." in path else path
    return stem + suffix


def cmd_family(args) -> int:
    from . import family

    name, exprs, S = build_surface(args.spec)
    box = S.domain
    op = args.op
    if op == "associated":
        theta = args.theta
        if not abs(theta) <= _MAX_EXP_ARG:  # also refuses nan
            raise SurfaceConditionError(
                f"associated needs a finite --theta with e^|theta| finite, got {theta:g}"
            )
        new_exprs, new_box = family.associated_exprs(exprs, box, theta)
        new_name = f"{name}-associated-{theta:g}"
    elif op == "conjugate":
        new_exprs, new_box = family.conjugate_exprs(exprs, box)
        new_name = f"{name}-conjugate"
    elif op == "homothety":
        k = args.k
        if k is None or not 0 < k < math.inf:
            raise SurfaceConditionError("homothety needs a finite --k > 0")
        new_exprs, new_box = family.homothety_exprs(exprs, box, k)
        new_name = f"{name}-homothety-{k:g}"
    elif op == "motion":
        if not args.motion:
            raise MotionError("motion op needs --motion matrix-file")
        mdata = _read_json_object(args.motion, MotionError)
        M = family.Motion(mdata["A"], mdata["b"])
        new_exprs, new_box = family.motion_exprs(exprs, box, M)
        new_name = f"{name}-motion"
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(op)

    # the residual measures the surface of the spec that is written; E on
    # the 33x33 grids of both domains, index order [b, a]
    derived = geom.make_surface(HoloCurve.from_exprs(new_exprs, new_box))
    E = geom.grid_quantities(S, 33, 33, richardson=False, box=box)["E"]
    E_new = geom.grid_quantities(derived, 33, 33, richardson=False, box=new_box)["E"]
    if op == "conjugate":
        # stored re-oriented through s = j t, which flips du^2 - dv^2 and
        # the a axis: the same-orientation energy at t is -E_new(j t)
        label, diff = "E^ + E", E_new[:, ::-1] - E
    elif op == "homothety":
        label, diff = "E^ - k^2 E", E_new - k * k * E
    else:
        label = "E_theta - E" if op == "associated" else "E^ - E"
        diff = E_new - E

    out_spec = {
        "name": new_name,
        "n": S.n,
        "psi": [sexpr.serialize(e) for e in new_exprs],
        "domain": {
            "a": [new_box.a0, new_box.a1],
            "b": [new_box.b0, new_box.b1],
        },
    }
    _write_text(args.out, json.dumps(out_spec, indent=2, sort_keys=True) + "\n")
    print(f"surface: {name}")
    print(f"operation: {op}")
    print(f"max |{label}|: {_fmt(float(np.max(np.abs(diff))))}")
    print(f"derived spec: {args.out}")
    return EXIT_OK


def cmd_mesh(args) -> int:
    w, h = _parse_grid(args.grid)
    name, _exprs, S = build_surface(args.spec)
    try:
        idx = [int(x) for x in args.project.split(",")]
    except ValueError:
        idx = []  # reported as malformed just below
    if len(idx) != 3 or len(set(idx)) != 3 or any(i < 0 or i >= S.n for i in idx):
        raise GridError(f"--project needs 3 distinct indices below {S.n}")
    box = S.domain
    x = geom.position_grid(S, np.linspace(box.a0, box.a1, w), np.linspace(box.b0, box.b1, h))
    # two triangles per lattice cell, from its corner v00 (1-based, row-major)
    v00 = np.arange(h - 1)[:, None] * w + np.arange(w - 1) + 1
    with _open_out(args.out) as fh:
        _write_grid(fh, [x[i] for i in idx], "v %.17g %.17g %.17g\n")
        _write_grid(fh, [v00, v00 + 1, v00 + w + 1, v00, v00 + w + 1, v00 + w],
                    "f %d %d %d\nf %d %d %d\n")
    print(f"surface: {name}")
    print(f"mesh: {w * h} vertices, {2 * (w - 1) * (h - 1)} triangles")
    print(f"obj: {args.out}")
    return EXIT_OK


def _open_out(path: str):
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_text(path: str, text: str):
    with _open_out(path) as fh:
        fh.write(text)


def _write_grid(fh, cols, row_fmt):
    """Write one line per grid point, streaming one grid row at a time.

    cols are arrays that broadcast to one (rows, points) shape, one per
    %-field of a line.  row_fmt is the format of one line, or a function
    from a row index to the format of that whole row.  On the floats that
    .tolist() returns, "%.17g" gives the same bytes as f"{x:.17g}".
    """
    cols = np.broadcast_arrays(*cols)
    rows, points = cols[0].shape
    for i in range(rows):
        vals = np.stack([c[i] for c in cols], axis=1).ravel().tolist()
        fmt = row_fmt(i) if callable(row_fmt) else row_fmt * points
        fh.write(fmt % tuple(vals))


# -- entry point ---------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dnsurf",
        description="Minimal time-like surface toolkit over the double numbers",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a surface spec")
    p.add_argument("spec")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("invariants", help="curvature-invariant CSV sweep")
    p.add_argument("spec")
    p.add_argument("--grid", default="64x64")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("canonize", help="construct canonical coordinates")
    p.add_argument("spec")
    p.add_argument("--base", default=None, help="base point as u,v")
    p.add_argument("--grid", default="16x16")
    p.add_argument("--out", required=True, help="canonization report JSON")
    p.add_argument("--csv-out", default=None, help="canonical-grid CSV path")
    p.set_defaults(func=cmd_canonize)

    p = sub.add_parser("family", help="derived-surface constructions")
    p.add_argument("spec")
    p.add_argument(
        "--op", required=True,
        choices=["conjugate", "associated", "homothety", "motion"],
    )
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--motion", default=None, help="motion matrix JSON file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("mesh", help="export an OBJ mesh of x = Re Psi")
    p.add_argument("spec")
    p.add_argument("--grid", default="32x32")
    p.add_argument("--project", default="0,1,2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mesh)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (
        SurfaceConditionError,
        GridError,
        MotionError,
        DimensionError,
        OutOfDomainError,
        ChartModelError,
        FileNotFoundError,
        json.JSONDecodeError,
        KeyError,
    ) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (
        DegeneratePointError,
        QuadratureError,
        MetricDegeneracyError,
        NonInvertibleError,
        RootDomainError,
    ) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

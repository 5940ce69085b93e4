"""dnsurf: double-number toolkit for minimal time-like surfaces.

The package namespace is lazy: each public name below is imported from
its submodule on first access (PEP 562), so ``import dnsurf`` runs no
submodule and does not import numpy.  ``from dnsurf import X`` and
``dnsurf.X`` work as usual.
"""

__version__ = "0.1.0"

#: Submodule that defines each public name.
_SOURCE = {
    **dict.fromkeys((
        "CanonicalChart", "ChartRelation", "Map1D", "canonize", "isotropic_chart",
        "relate_charts", "transport_chart", "verify_canonical",
    ), "canon"),
    **dict.fromkeys((
        "DClass", "DNum", "classify", "exp_j", "format_dnum", "nth_root_positive", "parse_dnum",
    ), "dnum"),
    "DnsurfError": "errors",
    **dict.fromkeys((
        "Motion", "apply_motion", "associated_surface", "conjugate_surface", "homothety",
    ), "family"),
    **dict.fromkeys((
        "SurfacePatch", "grid_quantities", "make_surface", "mean_curvature_residual",
    ), "geom"),
    **dict.fromkeys(("HoloCurve", "HoloMap", "RealFn1", "cr_residual"), "holo"),
    **dict.fromkeys(("DVec", "dot", "normsq", "wedge_normsq"), "mink"),
    **dict.fromkeys(("diff_t", "parse", "serialize"), "sexpr"),
    "Box": "value",
}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""certground: certified lower bounds (and simple variational upper bounds)
on the ground-state energy density of translationally invariant
nearest-neighbour lattice Hamiltonians. Each name below and each submodule
is imported on first access (PEP 562): `import certground` loads no submodule."""

__version__ = "0.1.0"
_HOMES = {
    "anderson": ("anderson_bound", "anderson_formula", "guarantee_formula"),
    "eigensolver": ("EigResult", "min_eig", "min_eig_lanczos"),
    "marginal": ("MarginalProblemSpec", "build_marginal_sdp", "improved_anderson_bound"),
    "models": ("ModelSpec", "PatchSpec", "build_patch", "builtin_model", "parse_model"),
    "moment": ("ti_moment_bound",),
    "reports": ("BoundReport",),
    "sdp": ("SdpProblem", "SdpSolution", "solve"),
    "upper": ("product_state_upper", "ring_reference"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name, name)
    if home not in {*_HOMES, "cli", "pauli"}:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, is listed by -X importtime;
    # given a fromlist it returns the submodule itself
    module = __import__(f"{__name__}.{home}", fromlist=[name])
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})

"""Trifferent codes: constructions, exact search, derived graphs, and bounds.

The public names below are loaded from their modules on first use (PEP 562),
so ``import trifference`` and a CLI command import only the modules they run.
"""

__version__ = "0.1.0"

# the public names of each module
_MODULE_EXPORTS = {
    "bounds": (
        "BoundReport",
        "bound_report",
        "deficit",
        "deficit_upper",
        "elias_bound",
        "elias_bound_log2",
        "kurz_bound",
        "rate",
        "rho_b",
        "tb_upper",
        "transfer_bound",
        "transfer_bound_log2",
        "zarankiewicz_bound",
        "zarankiewicz_edge_bound",
    ),
    "constructions": (
        "affine_plane",
        "one_bounded",
        "recursive_construction",
        "triple_construction",
    ),
    "core": (
        "Code",
        "Codeword",
        "NotTrifferentError",
        "TriffParseError",
        "VerificationResult",
        "add_codewords",
        "count_A_r",
        "format_triff",
        "is_trifferent_triple",
        "parse_triff",
        "project",
        "prune",
        "read_triff",
        "shift",
        "shift_density_sample",
        "verify_trifferent",
        "write_triff",
    ),
    "graphs": (
        "DerivedGraph",
        "build_graph_r2",
        "build_graph_r3",
        "contains_kst",
        "graph_summary",
        "random_bipartition_check",
    ),
    "search": (
        "SearchCertificate",
        "max_r_bounded",
        "max_trifferent",
        "oracle_max",
    ),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}
__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name, name)
    if module not in _MODULE_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's path, unlike importlib.import_module, shows in
    # `python -X importtime`; importing a submodule also binds it here
    __import__(f"{__name__}.{module}")
    loaded = globals()[module]
    return loaded if module == name else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_EXPORTS})


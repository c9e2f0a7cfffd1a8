"""Finite semidistributive lattice toolkit.

Builds lattices from Hasse quivers and computes arrow labelings, the
kappa bijection, interval label sets, the wide/ICE interval posets,
canonical join representations, the extended kappa map, and the kappa
and core label orders.

The public names load on first use (PEP 562): ``import kappalat`` runs
no submodule, and ``kappalat.<name>`` imports only the module that
defines the name.  A submodule, such as ``kappalat.io``, also resolves
without an import of its own.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each public name
_EXPORTS = {
    "_backend": ["backend_name"],
    "_bits": ["bits_of", "mask_of"],
    "generators": [
        "gen_a2", "gen_boolean", "gen_chain", "gen_ex424", "gen_ex426", "gen_fig1",
        "gen_weak_dihedral", "gen_weak_sym",
    ],
    "intervals": [
        "SetFamilyPoset", "derived_poset", "down_jlabel", "is_ice_interval",
        "is_wide_interval", "jlabel", "jlabel_scan", "up_jlabel",
    ],
    "io": ["emit_dot", "emit_lattice", "parse_lattice"],
    "labeling": [
        "ArrowLabeling", "full_labeling", "join_irreducibles", "join_label", "kappa",
        "kappa_dual", "meet_irreducibles", "meet_label", "semidistributive_witness",
    ],
    "lattice": ["Interval", "Lattice", "build_lattice"],
    "orders": [
        "OrderRelation", "cjr", "clo_leq", "compare_orders", "core_label",
        "extended_kappa", "extended_kappa_table", "first_order_mismatch", "kappa_leq",
        "order_poset", "sufficiency_failures", "verify_cjr_oracle", "x_down",
    ],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "errors"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import a submodule, or the module defining a public name, on first access."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value

"""Finite semidistributive lattice toolkit.

Builds lattices from Hasse quivers and computes arrow labelings, the
kappa bijection, interval label sets, the wide/ICE interval posets,
canonical join representations, the extended kappa map, and the kappa
and core label orders.
"""

from ._backend import backend_name
from ._bits import bits_of, mask_of
from .orders import (
    OrderRelation,
    cjr,
    clo_leq,
    coincide_sufficient,
    compare_orders,
    core_label,
    extended_kappa,
    extended_kappa_table,
    first_order_mismatch,
    kappa_leq,
    order_poset,
    orders_coincide,
    sufficiency_failures,
    verify_cjr_oracle,
    x_down,
)
from .generators import (
    gen_a2,
    gen_boolean,
    gen_chain,
    gen_ex424,
    gen_ex426,
    gen_fig1,
    gen_weak_dihedral,
    gen_weak_sym,
)
from .intervals import (
    SetFamilyPoset,
    derived_poset,
    down_jlabel,
    is_ice_interval,
    is_wide_interval,
    jlabel,
    jlabel_scan,
    up_jlabel,
)
from .io import emit_dot, emit_lattice, parse_lattice
from .labeling import (
    ArrowLabeling,
    full_labeling,
    is_semidistributive,
    join_irreducibles,
    join_label,
    kappa,
    kappa_dual,
    meet_irreducibles,
    meet_label,
    semidistributive_witness,
)
from .lattice import Interval, Lattice, build_lattice

__version__ = "0.1.0"

__all__ = [
    "ArrowLabeling",
    "Interval",
    "Lattice",
    "OrderRelation",
    "SetFamilyPoset",
    "backend_name",
    "bits_of",
    "build_lattice",
    "cjr",
    "clo_leq",
    "coincide_sufficient",
    "compare_orders",
    "core_label",
    "derived_poset",
    "down_jlabel",
    "emit_dot",
    "emit_lattice",
    "extended_kappa",
    "extended_kappa_table",
    "first_order_mismatch",
    "full_labeling",
    "gen_a2",
    "gen_boolean",
    "gen_chain",
    "gen_ex424",
    "gen_ex426",
    "gen_fig1",
    "gen_weak_dihedral",
    "gen_weak_sym",
    "is_ice_interval",
    "is_semidistributive",
    "is_wide_interval",
    "jlabel",
    "jlabel_scan",
    "join_irreducibles",
    "join_label",
    "kappa",
    "kappa_dual",
    "kappa_leq",
    "mask_of",
    "meet_irreducibles",
    "meet_label",
    "order_poset",
    "orders_coincide",
    "parse_lattice",
    "semidistributive_witness",
    "sufficiency_failures",
    "up_jlabel",
    "verify_cjr_oracle",
    "x_down",
]

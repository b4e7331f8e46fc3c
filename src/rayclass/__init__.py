"""Exact-arithmetic toolkit: residue symbols, transfer maps, ray class groups of Q,
and prime splitting laws, with exhaustive desk-scale verification drivers."""

from .arith import euler_phi, factorize, is_prime, mult_order
from .classfield import (
    FundamentalDiscriminant,
    Modulus,
    conductor_quadratic,
    ray_class_group,
    squares_group,
    takagi_group_cyclotomic,
    takagi_group_quadratic,
    takagi_witness,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    cyclic_group,
    direct_product,
    group_from_unit_residues,
    subgroup_generated,
    transfer,
    transfer_homomorphism,
    transfer_values,
    unit_group,
)
from .splitting import (
    qr_via_splitting,
    qr_via_transfer,
    spl_set,
    splitting_cyclotomic,
    splitting_quadratic,
)
from .symbols import (
    default_half_system,
    gauss_lemma,
    gauss_lemma_sign,
    jacobi,
    kronecker,
    legendre_brute,
    legendre_euler,
    pstar,
)

__all__ = [
    "euler_phi", "factorize", "is_prime", "mult_order",
    "FundamentalDiscriminant", "Modulus", "conductor_quadratic",
    "ray_class_group", "squares_group", "takagi_group_cyclotomic",
    "takagi_group_quadratic", "takagi_witness",
    "FiniteGroup", "Subgroup", "cyclic_group", "direct_product",
    "group_from_unit_residues", "subgroup_generated", "transfer",
    "transfer_homomorphism", "transfer_values", "unit_group",
    "qr_via_splitting", "qr_via_transfer", "spl_set",
    "splitting_cyclotomic", "splitting_quadratic",
    "default_half_system", "gauss_lemma", "gauss_lemma_sign", "jacobi", "kronecker",
    "legendre_brute", "legendre_euler", "pstar",
]

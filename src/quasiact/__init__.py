"""Quasi-actions of groups on finite sets: construction and verification."""

from .finmap import (
    Defect,
    Fiber,
    FiniteMap,
    compose,
    double,
    fixpoint_count,
    identity_like,
    identity_map,
    inverse_map,
    shift_map,
    similarity_defect,
)
from .groups import (
    FiniteSubset,
    FreeProductGroup,
    FreeProductWord,
    GroupHandle,
    IntegerFinitaryGroup,
    IntegerGroup,
    ProductGroup,
    SubgroupHandle,
    TableGroup,
    cyclic_group,
    group_from_json,
    pair_products,
    reduce_word,
    symmetrize,
    symmetrized_square,
)
from .quasiaction import (
    QuasiAction,
    VerificationReport,
    emit_certificate,
    load_certificate,
    verify,
)

__all__ = [name for name in dir() if not name.startswith("_")]

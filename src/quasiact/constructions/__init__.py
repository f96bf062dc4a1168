"""Executable constructions producing quasi-actions and their carriers."""

from .base import (
    cyclic_quasi_action,
    direct_product_qa,
    regular_action,
    transport_qa,
)
from .good import GoodActionPreconditionError, good_action_upgrade
from .girth import GirthGroup, girth_group_search, load_girth_witness
from .carrier import PartitionedCarrier, build_partitioned_carrier
from .freeprod import build_free_product_action, enumerate_normal_words, free_product_qa
from .extension import (
    ExtensionData,
    amenable_extension_qa,
    conjugated_normal_subset,
    folner_expansion,
    integer_folner_interval,
)
from .finitary import check_support_size, enumerate_finitary_elements, finitary_extension_qa

__all__ = [name for name in dir() if not name.startswith("_")]

"""Decision procedures beyond the eager core: brute force, the lazy
(CVC-style) refinement loop, and structural case splitting (SVC-style)."""

from .brute import (
    BruteForceLimitExceeded,
    brute_force_countermodel_sep,
    brute_force_valid,
    brute_force_valid_sep,
    sep_domain_bound,
)
from .svclike import check_validity_svc

__all__ = [
    "BruteForceLimitExceeded",
    "brute_force_countermodel_sep",
    "brute_force_valid",
    "brute_force_valid_sep",
    "sep_domain_bound",
    "check_validity_svc",
]

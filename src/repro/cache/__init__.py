"""Translation caches: one set-associative, SID-partitioned cache class.

Public surface:

* :class:`~repro.cache.setassoc.SetAssociativeCache` and
  :class:`~repro.cache.base.CacheStats`
* replacement policies in :mod:`repro.cache.policies`
"""

from repro.cache.base import CacheStats
from repro.cache.policies import (
    FifoPolicy,
    LfuPolicy,
    LruPolicy,
    OraclePolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy_factory,
)
from repro.cache.setassoc import SetAssociativeCache

__all__ = [
    "CacheStats",
    "SetAssociativeCache",
    "ReplacementPolicy",
    "LruPolicy",
    "LfuPolicy",
    "FifoPolicy",
    "RandomPolicy",
    "OraclePolicy",
    "make_policy_factory",
]

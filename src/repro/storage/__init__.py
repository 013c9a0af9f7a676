"""Pluggable columnar event storage for link streams.

See :mod:`repro.storage.base` for the :class:`StreamStorage` contract,
:mod:`repro.storage.columnar` for the in-memory default backend, and
:mod:`repro.storage.partitioned` for the out-of-core time-partitioned
backend behind the ``repro datasets`` catalog.
"""

from repro.storage.base import STORAGE_COUNTS, StreamStorage
from repro.storage.columnar import ColumnarStorage
from repro.storage.partitioned import (
    DEFAULT_PARTITION_EVENTS,
    MANIFEST_NAME,
    PartitionedStorage,
)

__all__ = [
    "DEFAULT_PARTITION_EVENTS",
    "MANIFEST_NAME",
    "STORAGE_COUNTS",
    "ColumnarStorage",
    "PartitionedStorage",
    "StreamStorage",
]

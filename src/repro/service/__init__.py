"""Durable transaction service: WC -> TM -> RM over the simulator.

Simulated clients submit typed get/put/scan/multi-key-txn requests; the
work coordinator (:mod:`repro.service.server`) admits them through a
bounded backpressure queue, the transaction manager
(:mod:`repro.service.tm`) group-commits write batches as single durable
transactions, and the resource manager (:mod:`repro.service.rm`)
applies them to one durable structure.  An acknowledgement is a
durability guarantee; the service crash campaign proves it at every
persist point.
"""

from repro.service.admission import AdmissionPolicy, AdmissionQueue, QueuedRequest
from repro.service.model import (
    DEFAULT_MIX,
    OP_KINDS,
    WRITE_KINDS,
    Request,
    Response,
)
from repro.service.rm import ReadConsistencyError, ResourceManager
from repro.service.server import (
    CLIENT_MODES,
    ServiceConfig,
    ServiceResult,
    TransactionService,
    run_service,
)
from repro.service.tm import GroupCommitPolicy, TransactionManager

__all__ = [
    "AdmissionPolicy",
    "AdmissionQueue",
    "QueuedRequest",
    "DEFAULT_MIX",
    "OP_KINDS",
    "WRITE_KINDS",
    "Request",
    "Response",
    "ReadConsistencyError",
    "ResourceManager",
    "CLIENT_MODES",
    "ServiceConfig",
    "ServiceResult",
    "TransactionService",
    "run_service",
    "GroupCommitPolicy",
    "TransactionManager",
]

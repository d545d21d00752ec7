"""Async compression service: the train-once / compress-many workflow
as a long-lived network server.

A :class:`CompressionService` owns a
:class:`~repro.registry.GrammarRegistry` and serves ``compress`` /
``decompress`` / ``run_compressed`` / ``grammar.*`` / ``health`` /
``stats`` over length-prefixed binary frames (see
:mod:`repro.service.protocol` and ``docs/SERVICE.md``).  Compression
requests against the same grammar are micro-batched onto a shared
derivation cache; a semaphore caps in-flight work and a high-water mark
sheds load with ``overloaded`` errors instead of unbounded queueing.

For multi-core hosts, :class:`FleetDispatcher` (``serve --workers N``)
runs N such services as supervised worker processes behind one port,
routing by grammar affinity so each worker's caches stay hot, healing
killed workers, and aggregating ``stats`` fleet-wide.
"""

from .breaker import CircuitBreaker
from .client import ServiceClient, ServiceError
from .dispatch import FleetDispatcher
from .metrics import ServiceMetrics
from .pool import WorkerPool
from .protocol import DEFAULT_PORT
from .retry import RetryPolicy
from .server import CompressionService

__all__ = [
    "CompressionService",
    "FleetDispatcher",
    "WorkerPool",
    "ServiceClient",
    "ServiceError",
    "ServiceMetrics",
    "RetryPolicy",
    "CircuitBreaker",
    "DEFAULT_PORT",
]

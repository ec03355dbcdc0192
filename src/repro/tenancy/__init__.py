"""Multi-tenant front door: fair scheduling, rate limits, isolation.

PR 5 gave the serving stack *global* admission control and PR 6 made it
observable, but every request was anonymous — one abusive caller could
starve everyone because shedding, priorities and inflight caps were all
process-wide.  This package adds the per-tenant layer:

* :class:`TenantRegistry` / :class:`TenantConfig` — per-tenant scheduling
  ``weight``, token-bucket ``rate``/``burst`` and ``max_inflight`` cap,
  with a catch-all ``default`` tenant for untagged traffic;
* :class:`TokenBucket` — deterministic injectable-clock rate limiter;
* :class:`WeightedFairQueue` — start-time fair queueing across tenants
  (priority still breaks ties *within* a tenant, bit-identical to a plain
  priority heap for a single tenant);
* :class:`TenancyController` — the runtime a front door holds: bucket and
  cap enforcement at admission (structured ``rate_limited`` errors with
  ``retry_after``) plus ``tenant.<name>.*`` metrics.

Requests claim a tenant via the v2 envelope's ``"tenant"`` key
(``Client.submit(..., tenant=...)``); both :class:`~repro.serving.service.
ServingService` and the cluster :class:`~repro.cluster.router.Router`
enforce the registry when one is passed, and run untagged/unconfigured
exactly as before.  See ``docs/tenancy.md``.
"""

from .bucket import TokenBucket
from .controller import TenancyController
from .fairqueue import DEFAULT_TENANT, WeightedFairQueue
from .registry import TenantConfig, TenantRegistry

__all__ = [
    "DEFAULT_TENANT",
    "TenancyController",
    "TenantConfig",
    "TenantRegistry",
    "TokenBucket",
    "WeightedFairQueue",
]

"""Tenant configuration: who gets what share, rate and cap.

:class:`TenantRegistry` maps tenant names to :class:`TenantConfig` records —
scheduling ``weight`` (fair-share proportion at dequeue), token-bucket
``rate``/``burst`` (admission rate limiting) and ``max_inflight`` (a hard
cap on that tenant's concurrently admitted requests).  A registry always
contains a catch-all ``default`` tenant, so untagged traffic keeps
working, and *unknown* tenant names resolve to it too — an adversarial
client inventing fresh names per request shares one bucket and one metric
series instead of minting unbounded per-name state.

Two serialized forms feed the CLI (``repro serve --tenant`` /
``--tenants-file``):

* inline — ``name,weight=2,rate=50,burst=100,max_inflight=8`` (every knob
  optional);
* JSON file — ``{"name": {"weight": 2, "rate": 50, ...}, ...}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from .fairqueue import DEFAULT_TENANT

#: Knobs the serialized forms accept, in canonical order.
_CONFIG_KEYS = ("weight", "rate", "burst", "max_inflight")


@dataclass(frozen=True)
class TenantConfig:
    """Per-tenant scheduling weight, token-bucket knobs and inflight cap."""

    name: str
    #: Fair-share proportion at dequeue (relative to other tenants).
    weight: float = 1.0
    #: Token-bucket refill rate (requests/second); ``None`` = unlimited.
    rate: float | None = None
    #: Token-bucket capacity; defaults to ``rate`` when limiting is on.
    burst: float | None = None
    #: Hard cap on concurrently admitted requests; ``None`` = uncapped.
    max_inflight: int | None = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("tenant name must be a non-empty string")
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r}: weight must be positive")
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"tenant {self.name!r}: rate must be positive")
        if self.burst is not None and self.burst <= 0:
            raise ValueError(f"tenant {self.name!r}: burst must be positive")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(f"tenant {self.name!r}: max_inflight must be >= 1")

    # ----------------------------------------------------------- serialization
    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"weight": self.weight}
        if self.rate is not None:
            payload["rate"] = self.rate
        if self.burst is not None:
            payload["burst"] = self.burst
        if self.max_inflight is not None:
            payload["max_inflight"] = self.max_inflight
        return payload

    @classmethod
    def from_payload(cls, name: str, payload: Mapping[str, Any]) -> "TenantConfig":
        if not isinstance(payload, Mapping):
            raise ValueError(f"tenant {name!r}: config must be an object")
        unknown = set(payload) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(
                f"tenant {name!r}: unknown config keys {sorted(unknown)}; "
                f"expected {list(_CONFIG_KEYS)}"
            )
        max_inflight = payload.get("max_inflight")
        return cls(
            name=name,
            weight=float(payload.get("weight", 1.0)),
            rate=_opt_float(name, "rate", payload.get("rate")),
            burst=_opt_float(name, "burst", payload.get("burst")),
            max_inflight=int(max_inflight) if max_inflight is not None else None,
        )

    @classmethod
    def parse_inline(cls, text: str) -> "TenantConfig":
        """Parse the CLI form ``name[,knob=value,...]``."""
        parts = [part.strip() for part in text.split(",") if part.strip()]
        if not parts:
            raise ValueError("empty tenant specification")
        name, payload = parts[0], {}
        for part in parts[1:]:
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(
                    f"tenant {name!r}: expected knob=value, got {part!r}"
                )
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(
                    f"tenant {name!r}: unknown knob {key!r}; "
                    f"expected one of {list(_CONFIG_KEYS)}"
                )
            try:
                payload[key] = float(value) if key != "max_inflight" else int(value)
            except ValueError:
                raise ValueError(
                    f"tenant {name!r}: {key} must be numeric, got {value!r}"
                ) from None
        return cls.from_payload(name, payload)


def _opt_float(name: str, key: str, value: Any) -> float | None:
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"tenant {name!r}: {key} must be a number")
    return float(value)


class TenantRegistry:
    """Named tenant configurations plus the catch-all ``default``.

    The ``default`` tenant is always present (permissive unless explicitly
    configured) and :meth:`resolve` maps unknown names onto it, so a front
    door can pass any claimed tenant string through without minting
    per-name state.
    """

    def __init__(self, configs: Iterable[TenantConfig] = ()):
        self._configs: dict[str, TenantConfig] = {
            DEFAULT_TENANT: TenantConfig(DEFAULT_TENANT)
        }
        for config in configs:
            self.register(config)

    def register(self, config: TenantConfig) -> None:
        """Add or replace one tenant's configuration."""
        self._configs[config.name] = config

    def resolve(self, tenant: str | None) -> TenantConfig:
        """The effective config for a claimed tenant name.

        ``None``, empty and unknown names all resolve to ``default``; state
        and metrics key on the *resolved* config's name.
        """
        if tenant:
            config = self._configs.get(tenant)
            if config is not None:
                return config
        return self._configs[DEFAULT_TENANT]

    def get(self, name: str) -> TenantConfig | None:
        return self._configs.get(name)

    def names(self) -> list[str]:
        return list(self._configs)

    def __contains__(self, name: str) -> bool:
        return name in self._configs

    def __iter__(self) -> Iterator[TenantConfig]:
        return iter(self._configs.values())

    def __len__(self) -> int:
        return len(self._configs)

    # ----------------------------------------------------------- serialization
    def to_payload(self) -> dict[str, dict[str, Any]]:
        return {config.name: config.to_payload() for config in self}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "TenantRegistry":
        if not isinstance(payload, Mapping):
            raise ValueError("tenant config must be an object mapping name -> knobs")
        return cls(
            TenantConfig.from_payload(name, knobs) for name, knobs in payload.items()
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "TenantRegistry":
        """Load the JSON-file form (see the module docstring)."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"tenants file {path}: bad JSON: {exc}") from None
        return cls.from_payload(payload)


__all__ = ["DEFAULT_TENANT", "TenantConfig", "TenantRegistry"]

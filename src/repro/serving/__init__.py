"""Batched async serving layer: execution engine, micro-batcher, persistence.

The pipeline modules under :mod:`repro.core` know how to solve *one* task;
this package turns them into a serving system: the
:class:`~repro.serving.engine.ExecutionEngine` runs many tasks concurrently
with bounded workers, the :class:`~repro.serving.batcher.MicroBatcher`
coalesces their prompts, oldest task first, into batched LLM calls, the
:class:`~repro.serving.cache.PersistentCache` makes warmed reruns near-free
across processes, and :mod:`~repro.serving.service` answers JSON task
requests over stdin or a socket, speaking the v2 envelopes of
:mod:`repro.api.protocol` across all seven task types of the unified
framework.
"""

from .batcher import MicroBatcher
from .cache import PersistentCache, prompt_key
from .engine import EngineConfig, ExecutionEngine
from .service import (
    ServingService,
    build_service,
    run_pipeline_spec,
    serve_lines,
)
from .transport import (
    FRAME_BINARY,
    MAX_FRAME_BYTES,
    FrameError,
    start_wire_server,
)

__all__ = [
    "FRAME_BINARY",
    "FrameError",
    "MAX_FRAME_BYTES",
    "EngineConfig",
    "ExecutionEngine",
    "MicroBatcher",
    "PersistentCache",
    "ServingService",
    "build_service",
    "prompt_key",
    "run_pipeline_spec",
    "serve_lines",
    "start_wire_server",
]

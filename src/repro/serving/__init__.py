"""Batched async serving layer: execution engine, micro-batcher, persistence.

The pipeline modules under :mod:`repro.core` know how to solve *one* task;
this package turns them into a serving system: the
:class:`~repro.serving.engine.ExecutionEngine` runs many tasks concurrently
with bounded workers, the :class:`~repro.serving.batcher.MicroBatcher`
coalesces their prompts, oldest task first, into batched LLM calls, the
:class:`~repro.serving.cache.PersistentCache` makes warmed reruns near-free
across processes, and :mod:`~repro.serving.service` answers JSON task
requests over stdin or a socket, speaking the versioned protocol of
:mod:`repro.api.protocol` (v2 envelopes natively, flat v1 requests still
accepted) across all seven task types of the unified framework.
"""

from .batcher import BatcherStats, MicroBatcher
from .cache import PersistentCache, prompt_key
from .engine import EngineConfig, EngineReport, ExecutionEngine
from .service import (
    ServingService,
    build_service,
    run_pipeline_spec,
    serve_lines,
    start_line_server,
)
from .stages import drive_async, execute_task
from .transport import (
    FRAME_BINARY,
    MAX_FRAME_BYTES,
    FrameError,
    start_wire_server,
)

__all__ = [
    "BatcherStats",
    "FRAME_BINARY",
    "FrameError",
    "MAX_FRAME_BYTES",
    "EngineConfig",
    "EngineReport",
    "ExecutionEngine",
    "MicroBatcher",
    "PersistentCache",
    "ServingService",
    "build_service",
    "drive_async",
    "execute_task",
    "prompt_key",
    "run_pipeline_spec",
    "serve_lines",
    "start_line_server",
    "start_wire_server",
]

"""Update-stream processing substrate: data model, engine, exact store,
sources, checkpointing, the distributed-sites model, and the
multi-tenant query serving front end."""

from repro.streams.checkpoint import (
    CheckpointError,
    checkpoint_engine,
    restore_engine,
)
from repro.streams.continuous import (
    ContinuousQueryProcessor,
    Observation,
    StandingQuery,
)
from repro.streams.distributed import Coordinator, StreamSite
from repro.streams.engine import StreamEngine
from repro.streams.exact import ExactStreamStore
from repro.streams.serving import (
    PlanCache,
    QueryClient,
    QueryServer,
    ServingStats,
    TenantSpec,
    TokenBucket,
)
from repro.streams.sources import (
    UpdateLogError,
    load_updates,
    replay_into,
    save_updates,
)
from repro.streams.updates import Update, deletions, insertions, interleave

__all__ = [
    "ContinuousQueryProcessor",
    "Observation",
    "StandingQuery",
    "CheckpointError",
    "checkpoint_engine",
    "restore_engine",
    "Coordinator",
    "StreamSite",
    "StreamEngine",
    "PlanCache",
    "QueryClient",
    "QueryServer",
    "ServingStats",
    "TenantSpec",
    "TokenBucket",
    "ExactStreamStore",
    "UpdateLogError",
    "load_updates",
    "replay_into",
    "save_updates",
    "Update",
    "deletions",
    "insertions",
    "interleave",
]

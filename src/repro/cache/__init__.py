"""Persistent artifact cache for expensive experiment inputs and results.

See :mod:`repro.cache.store` for the key scheme and invalidation rules.
"""

from repro.cache.store import (
    ARTIFACT_VERSIONS,
    CACHE_VERSION,
    ArtifactCache,
    CacheStats,
    default_cache,
    stable_digest,
)

__all__ = [
    "ARTIFACT_VERSIONS",
    "CACHE_VERSION",
    "ArtifactCache",
    "CacheStats",
    "default_cache",
    "stable_digest",
]

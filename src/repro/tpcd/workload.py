"""Workload definitions and trace capture (paper Sections 3, 4, 7).

* Training set: queries 3, 4, 5, 6 and 9 on the Btree-indexed database —
  used to obtain the profile the layout algorithms consume.
* Test set: queries 2, 3, 4, 6, 11, 12, 13, 14, 15 and 17, on both the
  Btree- and Hash-indexed databases — used for all simulation results.

All queries run to completion, and every table carries unique indexes on
primary keys plus multiple-entry indexes on foreign keys, in both index
kinds (one binary, two access-path variants — see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.cache import default_cache
from repro.cfg.weighted import WeightedCFG
from repro.kernel.model import ColdCodeConfig, KernelModel
from repro.minidb.engine import Database
from repro.profiling.trace import BlockTrace
from repro.profiling.tracestore import TraceStore, TraceWriter
from repro.tpcd.dbgen import generate_table
from repro.tpcd.queries import run_query
from repro.tpcd.schema import TPCD_TABLES

__all__ = [
    "TRAINING_QUERIES",
    "TEST_QUERIES",
    "build_database",
    "capture_trace",
    "Workload",
    "WorkloadSettings",
    "uploaded_trace_path",
]

TRAINING_QUERIES: tuple[int, ...] = (3, 4, 5, 6, 9)
TEST_QUERIES: tuple[int, ...] = (2, 3, 4, 6, 11, 12, 13, 14, 15, 17)


def build_database(
    scale: float = 0.01,
    *,
    seed: int = 7,
    page_capacity: int = 64,
    buffer_pages: int = 256,
    index_kinds: tuple[str, ...] = ("btree", "hash"),
) -> Database:
    """Create, index and load the TPC-D database at the given scale factor."""
    db = Database("tpcd", page_capacity=page_capacity, buffer_pages=buffer_pages)
    for name, spec in TPCD_TABLES.items():
        table = db.create_table(name, spec.columns)
        for kind in index_kinds:
            for column in spec.unique_keys:
                table.create_index(column, kind, unique=True)
            for column in spec.foreign_keys:
                table.create_index(column, kind)
        db.load(name, generate_table(name, scale, seed))
    return db


def capture_trace(
    db: Database,
    model: KernelModel,
    queries: tuple[int, ...],
    index_kinds: tuple[str, ...] = ("btree",),
    *,
    path: Path | str | None = None,
) -> BlockTrace | TraceStore:
    """Run queries under tracing; one trace run per (index kind, query).

    With ``path`` the trace streams to a chunked on-disk store as it is
    generated — peak memory stays one tracer flush buffer, independent of
    trace length — and the returned :class:`TraceStore` reads it back
    window by window. Without it, the trace accumulates in memory as a
    plain :class:`BlockTrace`. Both carry the bit-identical event stream.
    """
    if path is None:
        tracer = model.tracer()
        with tracer:
            for kind in index_kinds:
                for qid in queries:
                    run_query(db, qid, kind)
                    tracer.end_run()
        return tracer.take_trace()
    writer = TraceWriter(path)
    try:
        tracer = model.tracer(sink=writer)
        with tracer:
            for kind in index_kinds:
                for qid in queries:
                    run_query(db, qid, kind)
                    tracer.end_run()
        return writer.close()
    except BaseException:
        writer.abort()
        raise


def uploaded_trace_path(trace_id: str) -> Path:
    """Where the uploaded trace ``trace_id`` (a content id) is stored: the
    artifact cache's ``trace`` kind, beside the captured traces."""
    return default_cache().file_path("trace", ("upload", trace_id), suffix=".trace")


@dataclass(frozen=True)
class WorkloadSettings:
    """Reproducible workload identity — the in-memory and on-disk cache key.

    ``test_trace_id`` names an uploaded trace (:func:`uploaded_trace_path`)
    that replaces the captured Test set; ``None`` keeps the captured one.
    """

    scale: float = 0.005
    seed: int = 7
    kernel_seed: int = 2029
    test_trace_id: str | None = None

    def build(self) -> "Workload":
        """Build the workload, its traces captured straight into the
        chunked on-disk format (cache kind ``trace``, keyed by these
        settings), so generation memory is O(flush buffer) and every later
        simulation streams the stored file.

        A workload on an uploaded trace is never built: it is the one
        without ``test_trace_id`` with the upload swapped in
        (:func:`repro.experiments.harness.get_workload`).
        """
        if self.test_trace_id is not None:
            raise ValueError("a workload on an uploaded trace is derived, not built")
        cache = default_cache()
        trace_paths = (
            cache.file_path("trace", (self, "training"), suffix=".trace"),
            cache.file_path("trace", (self, "test"), suffix=".trace"),
        )
        workload = Workload.build(
            self.scale, seed=self.seed, kernel_seed=self.kernel_seed, trace_paths=trace_paths
        )
        workload.settings = self
        return workload


@dataclass(eq=False)
class Workload:
    """A fully built experimental setup: database, static image and traces.

    ``settings`` is stamped when the workload was built from a
    :class:`WorkloadSettings`; it is what keys the suite's checkpoints
    and results. A workload built ad hoc (``settings is None``) has no
    cached suite: every ``compute_suite`` on it recomputes. ``profile`` is
    the Training-set profile, filled in once by
    :func:`repro.experiments.harness.training_profile` and stored with
    the workload.
    """

    db: Database
    model: KernelModel
    training_trace: BlockTrace | TraceStore
    test_trace: BlockTrace | TraceStore
    settings: WorkloadSettings | None = None
    profile: WeightedCFG | None = None

    @classmethod
    def build(
        cls,
        scale: float = 0.01,
        *,
        seed: int = 7,
        kernel_seed: int = 2029,
        richness: float = 10.0,
        cold: ColdCodeConfig | None = None,
        buffer_pages: int = 256,
        training_queries: tuple[int, ...] = TRAINING_QUERIES,
        test_queries: tuple[int, ...] = TEST_QUERIES,
        trace_paths: tuple[Path | str, Path | str] | None = None,
    ) -> "Workload":
        """Build everything the experiments need (minutes at scale 0.01).

        ``trace_paths`` names (training, test) files to stream the traces
        into as they are captured; the workload then holds
        :class:`TraceStore` handles instead of in-memory arrays.
        """
        db = build_database(scale, seed=seed, buffer_pages=buffer_pages)
        model = db.kernel_model(seed=kernel_seed, richness=richness, cold=cold)
        training_path, test_path = trace_paths if trace_paths else (None, None)
        training = capture_trace(db, model, training_queries, ("btree",), path=training_path)
        test = capture_trace(db, model, test_queries, ("btree", "hash"), path=test_path)
        return cls(db=db, model=model, training_trace=training, test_trace=test)

    @property
    def program(self):
        return self.model.program

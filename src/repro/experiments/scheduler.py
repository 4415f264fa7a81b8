"""The dependency layer: a content-addressed job graph over a sweep.

:func:`build_job_graph` turns a sweep's *pending* jobs (the expansion
indices whose artifacts are absent from the store) into an explicit
dependency graph:

* **Nodes are content addresses.**  Every node is one store artifact,
  keyed by :func:`repro.experiments.store.job_key`.  A shared sibling —
  the clean reference of Monte Carlo grid points, the bit-line capture
  behind a ``uniform_calibrated`` precision sweep, the Algorithm 1 search
  a power job consumes — therefore appears **once**, no matter how many
  sweep jobs (or other dependencies) reach it, and no matter whether it is
  itself a grid point of the sweep (the zero-noise evaluate job *is* the
  clean reference of its Monte Carlo siblings).
* **Edges come from the specs.**  :meth:`JobSpec.dependencies` declares
  each job's direct inputs; the graph takes the transitive closure, so a
  clean reference over a calibrated-uniform ADC correctly depends on the
  distribution capture even though only the evaluate job names it.
  Dependencies whose artifacts are already stored are *satisfied* and not
  scheduled at all.
* **Waves are topological.**  :meth:`JobGraph.waves` groups nodes by
  dependency depth: every node's scheduled dependencies live in strictly
  earlier waves, so an executor may run each wave's nodes concurrently —
  at any depth, not just the two phases the runner used to hard-code.
* **Failures propagate, once.**  When a node fails, its transitive
  dependents must not run (they would recompute the missing artifact and
  crash); the runner's :func:`~repro.experiments.runner.execute_graph`
  carries the root cause forward wave by wave and marks each dependent
  *failed-with-cause* (:meth:`JobGraph.transitive_dependents` exposes the
  same reachability for tooling and tests).  The failure policy counts the
  root failure once against ``max_failures`` — a dead clean reference with
  eight Monte Carlo dependents is one failure, not nine.

The graph is deterministic: nodes are discovered in sweep-expansion order
(dependencies before dependents), so wave contents and their internal
order never depend on executor timing.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.experiments.spec import JobSpec
from repro.experiments.store import ResultStore, job_key


class UpstreamFailed(RuntimeError):
    """A job was not run because a job it depends on failed.

    Raised *about* a job (never from inside one): the runner records it in
    the failure log with ``cause_key`` pointing at the root failure, so a
    rerun — which retries the root — heals the whole subtree.
    """

    def __init__(self, message: str, cause_key: str) -> None:
        super().__init__(message)
        self.cause_key = cause_key


@dataclasses.dataclass
class ScheduledJob:
    """One node of the job graph: a store artifact that must be computed.

    ``indices`` are the sweep-expansion indices addressing this artifact
    (usually one; empty for a pure shared dependency that is not itself a
    grid point).  ``dependencies`` lists the *scheduled* direct
    dependencies by key; dependencies already in the store are loaded
    from it when the job runs and are not listed.
    """

    key: str
    job: JobSpec
    indices: Tuple[int, ...] = ()
    dependencies: Tuple[str, ...] = ()

    @property
    def index(self) -> Optional[int]:
        """The first sweep index of this node (``None`` for pure deps)."""
        return self.indices[0] if self.indices else None

    def describe(self) -> str:
        label = self.job.label_dict
        return f"{self.job.kind} {label}" if label else self.job.kind


@dataclasses.dataclass
class JobGraph:
    """A deduplicated dependency graph over one sweep's pending jobs."""

    nodes: Dict[str, ScheduledJob]
    order: List[str]  # discovery order: dependencies before dependents

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return (self.nodes[key] for key in self.order)

    # ------------------------------------------------------------------ #
    def dependents(self) -> Dict[str, Tuple[str, ...]]:
        """Reverse adjacency: key -> keys of nodes that depend on it."""
        reverse: Dict[str, List[str]] = {key: [] for key in self.order}
        for key in self.order:
            for dep in self.nodes[key].dependencies:
                reverse[dep].append(key)
        return {key: tuple(values) for key, values in reverse.items()}

    def transitive_dependents(self, key: str) -> List[ScheduledJob]:
        """Every node downstream of ``key``, in discovery order."""
        reverse = self.dependents()
        reached: Set[str] = set()
        frontier = [key]
        while frontier:
            current = frontier.pop()
            for dependent in reverse.get(current, ()):
                if dependent not in reached:
                    reached.add(dependent)
                    frontier.append(dependent)
        return [self.nodes[k] for k in self.order if k in reached]

    def depths(self) -> Dict[str, int]:
        """Dependency depth per node (0 = no scheduled dependencies)."""
        depth: Dict[str, int] = {}
        for key in self.order:  # discovery order guarantees deps first
            node = self.nodes[key]
            depth[key] = (
                1 + max(depth[dep] for dep in node.dependencies)
                if node.dependencies
                else 0
            )
        return depth

    def waves(self) -> List[List[ScheduledJob]]:
        """Topological waves: wave *d* holds exactly the depth-*d* nodes.

        Every node's scheduled dependencies sit in strictly earlier waves,
        so the nodes of one wave are mutually independent and an executor
        may run them concurrently.  Wave membership and in-wave order are
        deterministic (discovery order), so two schedules of the same sweep
        against the same store are identical.
        """
        depth = self.depths()
        if not depth:
            return []
        waves: List[List[ScheduledJob]] = [[] for _ in range(max(depth.values()) + 1)]
        for key in self.order:
            waves[depth[key]].append(self.nodes[key])
        return waves


def build_job_graph(
    pending: Iterable[Tuple[int, JobSpec]],
    store: ResultStore,
    salt: Optional[str] = None,
) -> JobGraph:
    """Build the deduplicated dependency graph of a sweep's pending jobs.

    ``pending`` are ``(sweep index, job)`` pairs whose artifacts are absent
    from ``store``.  Dependencies (direct and transitive) that are absent
    too are scheduled as extra nodes; dependencies already stored are
    satisfied and ignored.  Two pending entries with the same content
    address collapse into one node carrying both indices.
    """
    nodes: Dict[str, ScheduledJob] = {}
    order: List[str] = []
    satisfied: Set[str] = set()  # keys confirmed present in the store

    def add(job: JobSpec, index: Optional[int]) -> str:
        key = job_key(job, salt)
        node = nodes.get(key)
        if node is None:
            # Dependencies first (post-order), so `order` is topological.
            dep_keys: List[str] = []
            for dep in job.dependencies():
                dep_key = job_key(dep, salt)
                if dep_key == key:  # defensive: a job can never need itself
                    continue
                if dep_key in satisfied:
                    continue
                if dep_key not in nodes:
                    if store.has(dep_key):
                        satisfied.add(dep_key)
                        continue
                    add(dep, None)
                dep_keys.append(dep_key)
            node = ScheduledJob(
                key=key, job=job, dependencies=tuple(dict.fromkeys(dep_keys)),
            )
            nodes[key] = node
            order.append(key)
        if index is not None:
            node.indices = tuple((*node.indices, index))
        return key

    for index, job in pending:
        add(job, index)
    return JobGraph(nodes=nodes, order=order)


def expanded_artifacts(
    jobs: Sequence[JobSpec], salt: Optional[str] = None
) -> Dict[str, JobSpec]:
    """Every artifact a job list can touch — the jobs themselves plus the
    transitive closure of their dependencies — keyed by content address.

    Used by ``force`` runs (delete everything the sweep would recompute,
    shared siblings included) and by the shard planner.
    """
    artifacts: Dict[str, JobSpec] = {}

    def add(job: JobSpec) -> None:
        key = job_key(job, salt)
        if key in artifacts:
            return
        artifacts[key] = job
        for dep in job.dependencies():
            add(dep)

    for job in jobs:
        add(job)
    return artifacts

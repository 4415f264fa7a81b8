"""Reusable fault-injection harness for store concurrency tests.

Two halves:

* **Importable** — :class:`ChaosStore` (a ``ResultStore`` whose writer
  SIGKILLs *itself* at chosen points inside the commit protocol), the
  deterministic write-storm workload and two tiny real sweeps.  Tests
  import these via ``from harness.chaos import ...``.
* **Executable** — ``python tests/harness/chaos.py <command> ...`` runs
  the subprocess entry points the multi-process tests drive (with
  ``PYTHONPATH=src``): ``storm`` hammers one store from an uncoordinated
  writer, ``sweep`` runs a tiny real sweep against a ChaosStore, and
  ``hash`` recomputes job keys from (possibly shuffled) spec dicts read
  on stdin.

The kill points mirror the store's staged-commit protocol
(:meth:`ResultStore.save`):

``mid_tmp``
    Die while writing a staging temp file — leaves a *torn* temp with
    this pid in its name, never a torn artifact.
``pre_commit``
    Stage complete temps for the JSON/NPZ pair, die before taking the
    lock — leaves complete-but-uncommitted temps for
    :meth:`ResultStore.sweep_stale_tmps`.
``torn_pair``
    Die *inside the locked commit*, after the NPZ sibling is published
    but before its JSON completion marker — the worst instant: proves
    readers never see a JSON document without its arrays, and that the
    ``fcntl`` lock dies with its holder instead of wedging the store.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from repro.experiments.spec import JobSpec, NoiseScenario, SweepSpec, WorkloadSpec
from repro.experiments.store import ResultStore, _stage_tmp, job_key

KILL_POINTS = ("mid_tmp", "pre_commit", "torn_pair")


# --------------------------------------------------------------------- #
# ChaosStore: SIGKILL inside the commit protocol
# --------------------------------------------------------------------- #
class ChaosStore(ResultStore):
    """A store whose writing process kills itself at a chosen commit point.

    ``kill_point`` is one of :data:`KILL_POINTS`; ``kill_on_key`` narrows
    the kill to one artifact (``None``: the first qualifying save).
    SIGKILL (not an exception) on purpose — nothing unwinds, no
    ``finally`` runs, exactly like the OOM killer or a lost host.
    """

    def __init__(
        self,
        root,
        kill_point: Optional[str] = None,
        kill_on_key: Optional[str] = None,
    ) -> None:
        super().__init__(root)
        if kill_point is not None and kill_point not in KILL_POINTS:
            raise ValueError(f"unknown kill point {kill_point!r}")
        self.kill_point = kill_point
        self.kill_on_key = kill_on_key

    def _armed(self, key: str) -> bool:
        return self.kill_point is not None and (
            self.kill_on_key is None or key == self.kill_on_key
        )

    def save(self, key, payload, arrays=None):
        if self._armed(key):
            if self.kill_point == "mid_tmp":
                path = self.json_path(key)
                torn = path.with_name(f".{path.name}.tmp-{os.getpid()}-0")
                torn.write_bytes(b'{"torn": tru')  # a half-written temp
                os.kill(os.getpid(), signal.SIGKILL)
            if self.kill_point == "pre_commit":
                text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
                if arrays:
                    _stage_tmp(
                        self.npz_path(key),
                        lambda handle: np.savez_compressed(handle, **arrays),
                    )
                _stage_tmp(
                    self.json_path(key),
                    lambda handle: handle.write(text.encode("utf-8")),
                )
                os.kill(os.getpid(), signal.SIGKILL)
        return super().save(key, payload, arrays)

    def _commit(self, tmp, path):
        super()._commit(tmp, path)
        if (
            self.kill_point == "torn_pair"
            and path.suffix == ".npz"
            and self._armed(path.stem)
        ):
            # The NPZ sibling just published; its JSON completion marker
            # has not — die holding the store lock.
            os.kill(os.getpid(), signal.SIGKILL)


# --------------------------------------------------------------------- #
# Deterministic storm workload (shared by workers and assertions)
# --------------------------------------------------------------------- #
def storm_key(item: int) -> str:
    return hashlib.sha256(f"storm-item-{item}".encode()).hexdigest()


def storm_payload(item: int) -> Dict[str, object]:
    return {
        "key": storm_key(item),
        "row": {"item": item, "value": item * item},
        "blob": "x" * (64 + item),
    }


def storm_arrays(item: int) -> Optional[Dict[str, np.ndarray]]:
    """Even items carry an NPZ sibling (so kills can tear the pair)."""
    if item % 2:
        return None
    return {"data": np.arange(item + 3, dtype=np.float64) * 0.5}


def write_storm(store: ResultStore, items: int, seed: int) -> None:
    """Save every storm item in a per-writer shuffled order.

    Every writer stages *identical bytes* per key — the content-addressed
    contract the first-writer-wins commit relies on.
    """
    order = list(range(items))
    random.Random(seed).shuffle(order)
    for item in order:
        store.save(storm_key(item), storm_payload(item), storm_arrays(item))


# --------------------------------------------------------------------- #
# A tiny real sweep (for crash-resume under a real runner)
# --------------------------------------------------------------------- #
TINY = WorkloadSpec(
    "lenet5", preset="tiny", train_size=48, test_size=16,
    calibration_images=8, epochs=2, seed=11,
)


def tiny_mc_sweep(name: str = "chaos-sweep") -> SweepSpec:
    """A shared clean reference + four Monte Carlo grid points."""
    return SweepSpec(
        name=name,
        kind="monte_carlo",
        workloads=[TINY],
        noises=[
            NoiseScenario(label={"sigma": 0.0}),
            NoiseScenario(
                models=[{"model": "gaussian_read_noise", "sigma": 0.5}],
                label={"sigma": 0.5},
            ),
        ],
        mc_seeds=[0, 1],
        trials=2,
        images=4,
        batch_size=4,
    )


def tiny_flat_sweep(name: str = "chaos-flat") -> SweepSpec:
    """Four dependency-free forward-pass jobs (one wave, cheap)."""
    jobs = [
        JobSpec(kind="evaluate", workload=TINY, images=images,
                datapath=datapath, label={"config": f"{datapath}/{images}"})
        for images in (4, 8)
        for datapath in ("float", "fakequant")
    ]
    return SweepSpec(name=name, kind="mixed", explicit_jobs=jobs)


# --------------------------------------------------------------------- #
# Subprocess entry points
# --------------------------------------------------------------------- #
def _cmd_storm(args: argparse.Namespace) -> int:
    kill_key = storm_key(args.kill_item) if args.kill_item is not None else None
    store = ChaosStore(args.store, kill_point=args.kill, kill_on_key=kill_key)
    write_storm(store, args.items, args.seed)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_sweep

    store = ChaosStore(args.store, kill_point=args.kill)
    run_sweep(tiny_mc_sweep(), store, weights_cache_dir=args.cache)
    return 0


def _cmd_hash(args: argparse.Namespace) -> int:
    """Recompute job keys from spec dicts read on stdin (one JSON list)."""
    for spec_dict in json.loads(sys.stdin.read()):
        print(job_key(JobSpec.from_dict(spec_dict)))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    storm = sub.add_parser("storm", help="one uncoordinated storm writer")
    storm.add_argument("store", type=Path)
    storm.add_argument("--items", type=int, default=12)
    storm.add_argument("--seed", type=int, default=0)
    storm.add_argument("--kill", choices=KILL_POINTS, default=None)
    storm.add_argument("--kill-item", type=int, default=None)
    storm.set_defaults(func=_cmd_storm)

    sweep = sub.add_parser("sweep", help="run the tiny MC sweep (chaos store)")
    sweep.add_argument("store", type=Path)
    sweep.add_argument("--cache", required=True)
    sweep.add_argument("--kill", choices=KILL_POINTS, default=None)
    sweep.set_defaults(func=_cmd_sweep)

    hash_cmd = sub.add_parser("hash", help="job keys of spec dicts on stdin")
    hash_cmd.set_defaults(func=_cmd_hash)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

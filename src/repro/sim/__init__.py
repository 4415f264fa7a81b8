"""End-to-end PIM simulation (the reproduction's DNN+NeuroSim substitute)."""

from repro.sim.capture import DistributionCollector
from repro.sim.pim_layer import (
    MAX_CHUNK_SIZE,
    MIN_CHUNK_SIZE,
    PimBackend,
    throughput_chunk_size,
)
from repro.sim.simulator import PimSimulator
from repro.sim.stats import (
    LayerRobustnessStats,
    LayerSimStats,
    MonteCarloResult,
    SimulationResult,
)

__all__ = [
    "DistributionCollector",
    "LayerRobustnessStats",
    "LayerSimStats",
    "MAX_CHUNK_SIZE",
    "MIN_CHUNK_SIZE",
    "MonteCarloResult",
    "PimBackend",
    "throughput_chunk_size",
    "PimSimulator",
    "SimulationResult",
]

"""HeteroSVD core: the paper's contribution.

* :mod:`repro.core.config` — micro-architecture configuration
  (``P_eng``, ``P_task``, PL frequency; Table I).
* :mod:`repro.core.dataflow` — the AIE-centric dataflow rules (Fig. 4)
  classifying inter-layer movements as neighbour access or DMA.
* :mod:`repro.core.ordering_codesign` — the shifting-ring movement
  schedule and the DMA-count analytics of Fig. 3.
* :mod:`repro.core.placement` — AIE placement (Fig. 5).
* :mod:`repro.core.routing` — dynamic-forwarding routing over PLIOs.
* :mod:`repro.core.accelerator` — end-to-end functional simulation of
  Algorithm 1.
* :mod:`repro.core.timing` — cycle-approximate timing simulation (the
  stand-in for on-board measurement).
* :mod:`repro.core.perf_model` — the analytical model (Eqs. 8-14).
* :mod:`repro.core.resources` — resource accounting (Eq. 16).
* :mod:`repro.core.power` — activity-based power model.
* :mod:`repro.core.dse` — the two-stage design-space exploration flow.
"""

from repro.core.config import HeteroSVDConfig
from repro.core.dataflow import DataflowMode, classify_movement
from repro.core.ordering_codesign import (
    MovementSchedule,
    codesign_dma_transfers,
    traditional_dma_transfers,
)
from repro.core.placement import Placement, place
from repro.core.accelerator import HeteroSVDAccelerator, AcceleratorResult
from repro.core.perf_model import PerformanceModel, PerformanceBreakdown
from repro.core.timing import TimingSimulator, TimingResult
from repro.core.resources import ResourceUsage, estimate_resources
from repro.core.power import PowerModel, PowerEstimate
from repro.core.dse import DesignPoint, DesignSpaceExplorer
from repro.core.cosim import CoSimResult, CoSimulator
from repro.core.scheduler import BatchScheduler, Schedule, TaskSpec
from repro.core.incremental import IncrementalSVD
from repro.core.power_trace import PowerTrace, trace_task_power

__all__ = [
    "HeteroSVDConfig",
    "DataflowMode",
    "classify_movement",
    "MovementSchedule",
    "codesign_dma_transfers",
    "traditional_dma_transfers",
    "Placement",
    "place",
    "HeteroSVDAccelerator",
    "AcceleratorResult",
    "PerformanceModel",
    "PerformanceBreakdown",
    "TimingSimulator",
    "TimingResult",
    "ResourceUsage",
    "estimate_resources",
    "PowerModel",
    "PowerEstimate",
    "DesignPoint",
    "DesignSpaceExplorer",
    "CoSimResult",
    "CoSimulator",
    "BatchScheduler",
    "Schedule",
    "TaskSpec",
    "IncrementalSVD",
    "PowerTrace",
    "trace_task_power",
]

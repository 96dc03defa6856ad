"""Latency, throughput and billing models used by the deployment optimizer.

§9.1's integer program "relies on having models to estimate latency,
throughput and cost of running each function given machine type and number
of instances".  This module provides those models:

* :class:`HandlerLoadModel` — the predicted offered load and base service
  time of one handler (how expensive one invocation is on a speed-1.0
  machine);
* :class:`PerformanceModel` — turns (handler, machine type, instance count)
  into expected latency (an M/M/c-flavoured queueing approximation), a cost
  per request, and a feasibility check against a
  :class:`~repro.core.facets.TargetSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.facets import TargetSpec
from repro.placement.machines import MachineType


@dataclass(frozen=True)
class HandlerLoadModel:
    """Predicted load and per-invocation work of one handler."""

    handler: str
    request_rate_rps: float
    base_service_ms: float
    requires_processor: str = "cpu"

    def __post_init__(self) -> None:
        if self.request_rate_rps < 0:
            raise ValueError("request_rate_rps must be non-negative")
        if self.base_service_ms <= 0:
            raise ValueError("base_service_ms must be positive")


class PerformanceModel:
    """Analytic latency/cost estimates for handler-on-machine configurations."""

    # -- latency -------------------------------------------------------------------

    def utilization(self, load: HandlerLoadModel, machine: MachineType, instances: int) -> float:
        if instances <= 0:
            return math.inf
        return load.request_rate_rps / (machine.capacity_rps * instances)

    def expected_latency_ms(self, load: HandlerLoadModel, machine: MachineType,
                            instances: int) -> float:
        """Service time scaled by machine speed, inflated by queueing delay.

        Uses the standard 1/(1-rho) inflation; saturated configurations
        (rho >= 1) report infinite latency, which the optimizer treats as
        infeasible.
        """
        if instances <= 0:
            return math.inf
        rho = self.utilization(load, machine, instances)
        if rho >= 1.0:
            return math.inf
        service = load.base_service_ms / machine.speed_factor
        return service * (1.0 + rho / (1.0 - rho))

    # -- cost ---------------------------------------------------------------------------

    def cost_per_request(self, load: HandlerLoadModel, machine: MachineType,
                         instances: int) -> float:
        """Amortised dollar cost per request at the predicted request rate."""
        if load.request_rate_rps <= 0:
            return machine.hourly_cost * instances
        hourly = machine.hourly_cost * instances
        requests_per_hour = load.request_rate_rps * 3600.0
        return hourly / requests_per_hour

    def hourly_cost(self, machine: MachineType, instances: int) -> float:
        return machine.hourly_cost * instances

    # -- feasibility ----------------------------------------------------------------------

    def satisfies_processor(self, load: HandlerLoadModel, target: TargetSpec,
                            machine: MachineType) -> bool:
        required = target.processor if target.processor != "cpu" else load.requires_processor
        if required == "cpu":
            return True
        return machine.processor == required

    def min_feasible_instances(self, load: HandlerLoadModel, target: TargetSpec,
                               machine: MachineType) -> Optional[int]:
        """The smallest instance count meeting the latency and cost targets.

        Returns None when no count up to the machine's ``max_instances``
        works (e.g. the machine is too slow or too expensive).
        """
        if not self.satisfies_processor(load, target, machine):
            return None
        for instances in range(1, machine.max_instances + 1):
            latency = self.expected_latency_ms(load, machine, instances)
            if target.latency_ms is not None and latency > target.latency_ms:
                continue
            if target.cost_units is not None:
                if self.cost_per_request(load, machine, instances) > target.cost_units:
                    # Adding instances only increases cost per request; give up.
                    return None
            return instances
        return None

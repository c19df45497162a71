"""Helpers shared by the serving-subsystem tests (imported, not fixtures)."""

from __future__ import annotations

from repro.core.registry import MultiBuildingFloorService
from repro.serving import FloorServingService, ServingConfig


class FakeClock:
    """A manually advanced monotonic clock for deterministic TTL/deadlines."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def clone_registry(registry: MultiBuildingFloorService) -> MultiBuildingFloorService:
    """A registry sharing the trained models but with private bookkeeping."""
    clone = MultiBuildingFloorService(registry.config,
                                      min_overlap=registry.min_overlap)
    for building_id, vocabulary in registry.vocabularies.items():
        clone.install_model(building_id, registry.model_for(building_id),
                            vocabulary=vocabulary)
    return clone


def make_service(registry, clock, **config_kwargs) -> FloorServingService:
    return FloorServingService(registry=clone_registry(registry),
                               config=ServingConfig(**config_kwargs),
                               clock=clock)


def counter(service, name: str) -> int:
    """One aggregated (service + every shard) telemetry counter."""
    return service.telemetry_snapshot()["counters"].get(name, 0)


def interleaved_probes(held_out, per_building: int = 6):
    """Probes alternating between buildings, to exercise grouped dispatch."""
    columns = [records[:per_building] for records in held_out.values()]
    return [record for group in zip(*columns) for record in group]

"""Process-global failpoint registry with a zero-overhead disabled path.

Failpoints are named injection sites compiled into production code —
``faults.fire("retrain.fit", building_id=...)`` sits at the top of the
executor's fit, ``fire("checkpoint.write", path=tmp)`` between an atomic
write's tmp file and its rename, and so on.  With no plan installed (the
normal case, including all of production) a fire is a single module-global
``None`` check and an immediate return: no allocation, no dict lookup, no
lock — the same null-path discipline as :mod:`repro.obs.runtime`, and
checked the same way: ``benchmarks/check_fault_overhead.py`` counts that
uninstalled fires never reach the plan and do no work of their own.

Install a :class:`~repro.faults.plan.FaultPlan` to arm the sites it has
specs for; ``uninstall()`` (or the :func:`active` context manager) disarms
everything.  One plan at a time, process-wide — faults are a property of
the simulated machine, not of any one component.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

from .plan import FaultPlan

__all__ = ["SITES", "install", "uninstall", "enabled", "active_plan",
           "active", "fire", "evaluate"]

#: Every injection site compiled into the stack.  Plans naming a site
#: outside this set fail at install time, so a typo'd spec can't silently
#: never fire.
SITES = frozenset({
    "retrain.fit",        # executor, before the fit function runs
    "checkpoint.write",   # persistence, after tmp write / before rename
    "checkpoint.read",    # persistence, before parsing a payload
    "swap.install",       # serving, before a hot model swap
    "serve.compute",      # serving, before unlocked engine compute
    "clock.jump",         # FaultyClock, every reading
})

_plan: FaultPlan | None = None


def install(plan: FaultPlan) -> None:
    """Arm ``plan`` process-wide.  Replaces any previously installed plan."""
    unknown = plan.sites() - SITES
    if unknown:
        raise ValueError(
            f"fault plan names unknown sites {sorted(unknown)}; "
            f"known sites: {sorted(SITES)}")
    global _plan
    _plan = plan


def uninstall() -> None:
    """Disarm all failpoints; fires return to the single-check null path."""
    global _plan
    _plan = None


def enabled() -> bool:
    return _plan is not None


def active_plan() -> FaultPlan | None:
    return _plan


@contextmanager
def active(plan: FaultPlan):
    """Arm ``plan`` for the duration of a ``with`` block.

    Uninstalls on every exit path — including a :class:`ProcessKilled`
    escaping the block — so one drill's faults can never leak into the
    next test.
    """
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


def fire(site: str, path: str | Path | None = None,
         building_id: str | None = None) -> None:
    """Evaluate one hit of ``site`` against the installed plan, if any.

    This is the call compiled into production code, so the disabled path
    must stay free: one global load, one ``is None`` test, return.
    Keyword defaults (not ``**kwargs``) keep even the armed call free of
    dict allocation.
    """
    plan = _plan
    if plan is None:
        return
    plan.fire(site, path=path, building_id=building_id)


def evaluate(site: str,
             building_id: str | None = None) -> list[dict[str, object]] | None:
    """One hit of ``site`` as picklable fault directives (compute-pool path).

    Counts against the same process-global hit counter as :func:`fire`, so
    a workload replays identically whether its ``serve.compute`` runs
    in-process (fire) or in a pool worker (evaluate + worker-side
    execution).  Same single-check null path as :func:`fire`: ``None``
    while no plan is installed.
    """
    plan = _plan
    if plan is None:
        return None
    return plan.evaluate(site, building_id=building_id)

"""``__all__`` audit: the public packages export what they promise.

Three contracts:

* every name in a package's ``__all__`` actually resolves (no stale
  exports after a refactor), with no duplicates;
* every public attribute a package module defines that *should* be
  shared — anything in one of its submodules' ``__all__`` that the
  package re-imports — appears in the package ``__all__`` (no silent
  gaps like the PR-3 policies or the new batch types being importable
  but unlisted);
* the specific spine types this repo's PRs added are pinned by name,
  so a future cleanup cannot drop them unnoticed.
"""

import importlib

import pytest

PACKAGES = ["repro.io", "repro.sim", "repro.api", "repro.flash",
            "repro.host", "repro.network", "repro.ftl", "repro.volume",
            "repro.dvol", "repro.parallel", "repro.faults"]

#: Package -> names that must stay exported (the QoS policies and
#: bandwidth accounting from PR 3, the batch/read-coalescing types
#: from PR 4, the volume subsystem and program-coalescing types from
#: this PR).
PINNED = {
    "repro.io": [
        "WeightedFairPolicy", "TokenBucketPolicy", "QueueEntry",
        "ScheduledResource", "BatchStageSpan", "StageSpan", "IORequest", "IOKind",
        "RequestTracer", "POLICIES",
    ],
    "repro.sim": [
        "BandwidthLedger", "LatencyHistogram", "Simulator", "Event",
    ],
    "repro.flash": [
        "Coalescer", "first_group",
        "FlashSplitter", "SplitterPort", "FlashCard", "WearTracker",
        "BadBlockTable", "ProgramFailedError", "BadBlockProgramError",
    ],
    "repro.api": [
        "ScenarioSpec", "WorkloadSpec", "TenantSpec", "VolumeSpec",
        "DistributedVolumeSpec", "FaultSpec", "Session", "RunResult",
        "experiment",
    ],
    "repro.ftl": [
        "BlockAllocator", "ALLOCATION_MODES", "PageMap", "FtlCore",
        "OutOfSpaceError", "BlockDeviceFTL",
        "WEAR_LEVELING_MODES",
    ],
    "repro.faults": [
        "FaultPlan", "FaultInjector", "set_fault_seed_override",
        "fault_seed_override",
    ],
    "repro.volume": [
        "LogicalVolume",
    ],
    "repro.dvol": [
        "ShardedVolume", "PlacementPlanner", "PLACEMENT_MODES",
        "ShardServiceIface",
    ],
    "repro.parallel": [
        "parallel_map", "WorkerPool", "PointError",
    ],
}


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve_without_duplicates(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(set(exported)) == len(exported), (
        f"duplicate names in {package}.__all__")
    for name in exported:
        assert hasattr(module, name), (
            f"{package}.__all__ lists {name!r} but the package does "
            f"not define it")


@pytest.mark.parametrize("package", PACKAGES)
def test_reimported_submodule_publics_are_exported(package):
    """A name a submodule exports and the package re-imports must be in
    the package's ``__all__`` — otherwise it is public-by-accident."""
    module = importlib.import_module(package)
    exported = set(module.__all__)
    missing = []
    for name in dir(module):
        if name.startswith("_"):
            continue
        value = getattr(module, name)
        origin = getattr(value, "__module__", None)
        if origin is None or not origin.startswith(package + "."):
            continue
        submodule = importlib.import_module(origin)
        if name in getattr(submodule, "__all__", ()) \
                and name not in exported:
            missing.append(name)
    assert not missing, (
        f"{package} re-imports {sorted(missing)} from its submodules "
        f"but does not list them in __all__")


@pytest.mark.parametrize("package,names",
                         [(p, n) for p, ns in PINNED.items() for n in [ns]])
def test_pinned_spine_types_stay_exported(package, names):
    module = importlib.import_module(package)
    exported = set(module.__all__)
    missing = [name for name in names if name not in exported]
    assert not missing, (
        f"{package}.__all__ dropped pinned exports: {missing}")

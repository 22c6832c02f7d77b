"""The four workloads, by their permanent names."""

from workloads.fleet_blocking import FleetBlocking
from workloads.interactive_mix import InteractiveMix
from workloads.store_mix import StoreMix
from workloads.surge_fleet import SurgeFleet

WORKLOADS = {
    workload.name: workload
    for workload in (SurgeFleet, FleetBlocking, InteractiveMix, StoreMix)
}

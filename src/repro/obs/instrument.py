"""Wiring between simulator components and the metrics registry.

Two-phase design keeps instrumentation zero-cost for uninstrumented
runs:

* :func:`attach_machine_metrics` registers *gauges* whose callbacks read
  live machine state (event-queue depth, hub utilisation, LRT occupancy,
  LCU entries in use) and optionally starts periodic sampling on the
  machine's simulator.  Nothing inside the simulator hot paths ever
  checks for a registry — sampling is an ordinary scheduled event.
* :func:`harvest_machine_metrics` runs once after a simulation finishes
  and *pulls* every component's existing ad-hoc counters (LCU/LRT/SSB
  stats dicts, memory hit/miss counts, fabric server occupancy) into
  hierarchical registry counters.  Harvest uses ``Counter.inc``, so a
  harness that runs several machines (figure sweeps, multi-seed app
  runs) accumulates totals across them.

Metric naming convention (see README "Observability"):

    engine.*            event-loop occupancy and throughput
    net.*               fabric counters; net.<group><id>.* per server
    mem.*               directory/L1 behaviour; mem.dir<j>.* per slice
    lcu.core<i>.*       per-core LCU stats + table highwater
    lrt.<j>.*           per-LRT stats + occupancy highwater
    ssb.*               SSB bank stats
    stm.*               commits/aborts (stm.abort.<reason>) and phases
    bench.*             harness-level results (total CS, latencies)
"""

from __future__ import annotations

from typing import Optional

from repro.obs.registry import MetricsRegistry


def _sanitize(part: str) -> str:
    """Make an arbitrary label usable as one metric-name component."""
    out = "".join(c if c.isalnum() or c in "_-" else "_" for c in str(part))
    return out.strip("_") or "x"


def _server_metric(group: str, label: str) -> str:
    """Metric-name prefix for one fabric server (``net.hub_out0``,
    ``net.access_core3``, ``net.root``)."""
    label = _sanitize(label) if label else ""
    if not label:
        return f"net.{group}"
    sep = "_" if group == "access" else ""
    return f"net.{group}{sep}{label}"


def attach_machine_metrics(
    machine,
    registry: MetricsRegistry,
    sample_interval: int = 0,
) -> MetricsRegistry:
    """Register live-state gauges for ``machine`` and (if
    ``sample_interval`` > 0) start sampling them periodically.  Safe to
    call again for a fresh machine under the same registry: gauges are
    re-bound, the sampling schedule moves to the new simulator."""
    sim = machine.sim
    net = machine.net

    registry.gauge("engine.pending_events", lambda: sim.pending_events)
    registry.gauge(
        "engine.events_per_cycle",
        lambda: sim.events_processed / sim.now if sim.now else 0.0,
    )
    registry.gauge("net.hub_utilisation", net.hub_utilisation)
    registry.gauge("net.root_utilisation", net.root_utilisation)
    for group, label, server in net.fabric_servers():
        if group == "access":
            continue  # per-endpoint links: counters only (see harvest)
        name = _server_metric(group, label)
        registry.gauge(f"{name}.utilisation", server.utilisation)
        registry.gauge(f"{name}.queue_delay", server.queue_delay)
    registry.gauge(
        "lcu.entries_in_use", machine.total_lcu_entries_in_use
    )
    for j, lrt in enumerate(machine.lrts):
        registry.gauge(f"lrt.{j}.live_locks", lambda l=lrt: l.live_locks)
    for j, server in enumerate(machine.ssb.servers):
        registry.gauge(f"ssb.bank{j}.queue_delay", server.queue_delay)

    if sample_interval > 0:
        registry.start_sampling(sim, sample_interval)
    return registry


def harvest_machine_metrics(
    machine, registry: MetricsRegistry
) -> MetricsRegistry:
    """Pull all component counters of a finished run into ``registry``."""
    sim = machine.sim
    net = machine.net
    mem = machine.mem

    registry.counter("engine.events_processed").inc(sim.events_processed)
    registry.counter("engine.cycles").inc(sim.now)
    # event-queue internals (repro.obs.host / `repro bench` read
    # these to size the engine's keyed heap): pushes and pops, depth
    # profile, Signal waiter churn.
    registry.counter("engine.heap_pushes").inc(sim.heap_pushes)
    registry.counter("engine.heap_pops").inc(sim.heap_pops)
    registry.counter("engine.signal_waits").inc(sim.signal_waits)
    registry.counter("engine.signal_cancels").inc(sim.signal_cancels)
    registry.counter("engine.signal_fires").inc(sim.signal_fires)
    registry.gauge("engine.queue_depth_peak").set(sim.queue_depth_peak)
    registry.gauge("engine.queue_depth_mean").set(sim.queue_depth_mean)

    registry.counter("net.messages_sent").inc(net.messages_sent)
    registry.counter("net.inter_chip_messages").inc(net.inter_chip_messages)
    registry.counter("net.reorders_healed").inc(net.reorders_healed)
    if net.reliable is not None:
        for stat, value in sorted(net.reliable.stats().items()):
            registry.counter(f"net.reliable.{stat}").inc(value)
    for group, label, server in net.fabric_servers():
        name = _server_metric(group, label)
        registry.counter(f"{name}.busy_cycles").inc(server.busy_cycles)
        registry.counter(f"{name}.requests").inc(server.requests)

    registry.counter("mem.l1_hits").inc(mem.l1_hits)
    registry.counter("mem.l1_misses").inc(mem.l1_misses)
    registry.counter("mem.invalidations").inc(mem.invalidations)
    registry.counter("mem.owner_forwards").inc(mem.owner_forwards)
    for j, server in enumerate(mem.dir_servers):
        registry.counter(f"mem.dir{j}.busy_cycles").inc(server.busy_cycles)
        registry.counter(f"mem.dir{j}.requests").inc(server.requests)

    for i, lcu in enumerate(machine.lcus):
        for stat, value in sorted(lcu.stats.items()):
            registry.counter(f"lcu.core{i}.{stat}").inc(value)
            registry.counter(f"lcu.total.{stat}").inc(value)
        registry.gauge(f"lcu.core{i}.entries_highwater").set(
            lcu.entries_highwater
        )

    for j, lrt in enumerate(machine.lrts):
        for stat, value in sorted(lrt.stats.items()):
            registry.counter(f"lrt.{j}.{stat}").inc(value)
            registry.counter(f"lrt.total.{stat}").inc(value)
        registry.gauge(f"lrt.{j}.live_locks_highwater").set(
            lrt.live_locks_highwater
        )
        # only a recovering LRT (repro.lcu.recovery) records these
        latencies = getattr(lrt, "recovery_latencies", ())
        if latencies:
            hist = registry.histogram(
                "lrt.recovery_latency", bucket_width=1000
            )
            for lat in latencies:
                hist.add(lat)

    for stat, value in sorted(machine.ssb.stats.items()):
        registry.counter(f"ssb.{stat}").inc(value)
    for j, server in enumerate(machine.ssb.servers):
        registry.counter(f"ssb.bank{j}.busy_cycles").inc(server.busy_cycles)
        registry.counter(f"ssb.bank{j}.requests").inc(server.requests)

    return registry


def harvest_stm_metrics(stm, registry: MetricsRegistry) -> MetricsRegistry:
    """Pull an :class:`~repro.stm.core.ObjectSTM`'s statistics — including
    the per-reason abort breakdown — into ``registry``."""
    s = stm.stats
    registry.counter("stm.commits").inc(s.commits)
    registry.counter("stm.aborts").inc(s.aborts)
    registry.counter("stm.reads").inc(s.reads)
    registry.counter("stm.writes").inc(s.writes)
    registry.counter("stm.app_cycles").inc(s.app_cycles)
    registry.counter("stm.commit_cycles").inc(s.commit_cycles)
    for reason, count in sorted(s.abort_reasons.items()):
        registry.counter(f"stm.abort.{_sanitize(reason)}").inc(count)
    return registry


def finish_run(
    machine,
    registry: Optional[MetricsRegistry],
    tracer=None,
    stm=None,
    profiler=None,
    fairness=None,
) -> None:
    """Common post-run teardown used by the harness entry points: stop
    gauge sampling, take a final sample, harvest counters, detach the
    fairness observatory and publish its counters into the registry,
    drop in-flight message spans, and detach the tracer and the
    contention profiler.  Every sink leaves the probe bus on its own,
    so the order is free."""
    if registry is not None:
        if registry.is_sampling:
            registry.sample(machine.sim.now)
        registry.stop_sampling()
        harvest_machine_metrics(machine, registry)
        if stm is not None:
            harvest_stm_metrics(stm, registry)
    if fairness is not None:
        fairness.detach()
        if registry is not None:
            fairness.publish(registry)
    if tracer is not None:
        tracer.abandon_open()
        tracer.detach()
    if profiler is not None:
        profiler.detach()

"""Machine model parameters (paper Figure 8).

Two machine models are evaluated in the paper:

* **Model A** ("in-order"): 32 single-core chips behind a hierarchical
  switch network that provides a global order for requests — latencies
  resemble a SunFire E25K.
* **Model B** ("m-CMP"): a 4-chip multi-CMP based on the Sun T5440 — each
  chip has 8 cores, an 8-banked shared L2 and 2 memory controllers; the 4
  chips connect through coherence hubs with *finite bandwidth* and no
  global order.

All latencies below are taken from Figure 8 of the paper.  One-way network
latencies are derived from the round-trip memory figures (the paper reports
round trips including miss penalties).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional


@dataclasses.dataclass(frozen=True)
class MachineConfig:
    """Complete description of one simulated machine model."""

    name: str
    chips: int
    cores_per_chip: int

    # cache / memory latencies (cycles)
    l1_latency: int
    l2_latency: int
    local_mem_latency: int
    remote_mem_latency: int

    # LCU / LRT hardware (the paper's proposal)
    lcu_ordinary_entries: int
    lcu_latency: int
    num_lrts: int
    lrt_entries: int
    lrt_assoc: int
    lrt_latency: int

    # interconnect model
    intra_chip_hop: int          # one-way latency between on-chip endpoints
    inter_chip_hop: int          # one-way latency across chips
    link_service: int            # per-message occupancy of a link (1/bandwidth)
    inter_chip_link_service: int  # per-message occupancy of an inter-chip hub link
    global_order: bool           # Model A's hierarchical switch orders requests

    # OS model
    timeslice: int = 200_000     # preemption quantum in cycles

    # LCU behaviour knobs
    lcu_grant_timeout: int = 300     # cycles an unclaimed grant waits before
                                     # being forwarded (suspension/migration).
                                     # A short hardware timer: long enough for
                                     # a running spinner to collect its grant
                                     # (a few LCU accesses), short enough that
                                     # dead queue nodes left by preempted or
                                     # migrated threads cost little lock idle
                                     # time (see the grant-timeout ablation).
    lrt_reservation_timeout: int = 50_000
    # Free Lock Table (the paper's Section IV-C future-work biasing unit):
    # number of locks each LCU may keep parked locally after an
    # uncontended release.  0 disables the FLT (the paper's base design).
    flt_entries: int = 0

    # cache line size (bytes); addresses are byte addresses
    line_size: int = 64

    @property
    def cores(self) -> int:
        return self.chips * self.cores_per_chip

    def chip_of_core(self, core: int) -> int:
        return core // self.cores_per_chip

    def validate(self) -> None:
        if self.chips <= 0 or self.cores_per_chip <= 0:
            raise ValueError("need at least one chip and one core per chip")
        if self.num_lrts <= 0:
            raise ValueError("need at least one LRT")
        if self.line_size & (self.line_size - 1):
            raise ValueError("line_size must be a power of two")


def model_a(**overrides) -> MachineConfig:
    """Paper Model A: 32 single-core chips, hierarchical switch, MESI."""
    base = dict(
        name="A",
        chips=32,
        cores_per_chip=1,
        l1_latency=3,
        l2_latency=10,
        local_mem_latency=186,
        remote_mem_latency=186,
        lcu_ordinary_entries=8,
        lcu_latency=3,
        num_lrts=32,
        lrt_entries=512,
        lrt_assoc=16,
        lrt_latency=6,
        intra_chip_hop=25,
        inter_chip_hop=25,   # model A is flat: every hop crosses the switch
        link_service=2,
        inter_chip_link_service=2,
        global_order=True,
    )
    base.update(overrides)
    cfg = MachineConfig(**base)
    cfg.validate()
    return cfg


def model_b(**overrides) -> MachineConfig:
    """Paper Model B: 4 x 8-core CMPs (T5440-like), hub-connected."""
    base = dict(
        name="B",
        chips=4,
        cores_per_chip=8,
        l1_latency=3,
        l2_latency=16,
        local_mem_latency=210,
        remote_mem_latency=315,
        lcu_ordinary_entries=16,
        lcu_latency=3,
        num_lrts=8,          # 2 memory controllers per chip
        lrt_entries=512,
        lrt_assoc=16,
        lrt_latency=6,
        intra_chip_hop=8,
        inter_chip_hop=55,
        link_service=1,
        inter_chip_link_service=20,  # hub links are the scarce resource
        global_order=False,
    )
    base.update(overrides)
    cfg = MachineConfig(**base)
    cfg.validate()
    return cfg


def small_test_model(**overrides) -> MachineConfig:
    """A small, fast configuration for unit tests (not from the paper)."""
    base = dict(
        name="T",
        chips=1,
        cores_per_chip=4,
        l1_latency=1,
        l2_latency=4,
        local_mem_latency=30,
        remote_mem_latency=30,
        lcu_ordinary_entries=4,
        lcu_latency=1,
        num_lrts=2,
        lrt_entries=16,
        lrt_assoc=4,
        lrt_latency=2,
        intra_chip_hop=5,
        inter_chip_hop=5,
        link_service=1,
        inter_chip_link_service=1,
        global_order=True,
        lcu_grant_timeout=500,
        lrt_reservation_timeout=5_000,
    )
    base.update(overrides)
    cfg = MachineConfig(**base)
    cfg.validate()
    return cfg


_MODELS = {"A": model_a, "B": model_b, "T": small_test_model}


def make_model(model: str, **overrides) -> MachineConfig:
    """Build a machine config by model letter (A, B, or the test model
    T; case-insensitive).  Raises ValueError on any other name.

    Accepts a synthetic ``cores`` override (``MachineConfig.cores`` is
    derived): the machine becomes a single chip with that many cores —
    the fuzzer uses it to force thread-over-core oversubscription."""
    try:
        factory = _MODELS[model.upper()]
    except KeyError:
        raise ValueError(
            f"unknown model {model!r}; known: {sorted(_MODELS)}"
        ) from None
    cores = overrides.pop("cores", None)
    if cores is not None:
        overrides["chips"] = 1
        overrides["cores_per_chip"] = cores
    return factory(**overrides)


def figure8_rows(configs: Optional[List[MachineConfig]] = None) -> List[List[str]]:
    """Rows of the paper's Figure 8 parameter table, for the harness."""
    if configs is None:
        configs = [model_a(), model_b()]
    rows = [["Parameter"] + [f"Model {c.name}" for c in configs]]

    def row(label, fn):
        rows.append([label] + [str(fn(c)) for c in configs])

    row("Chips", lambda c: c.chips)
    row("Cores", lambda c: f"{c.cores} ({c.chips}x{c.cores_per_chip})")
    row("L1 access latency (cycles)", lambda c: c.l1_latency)
    row("L2 access latency (cycles)", lambda c: c.l2_latency)
    row("Local mem. latency (cycles)", lambda c: c.local_mem_latency)
    row("Remote mem. latency (cycles)", lambda c: c.remote_mem_latency)
    row("LCU entries", lambda c: f"{c.lcu_ordinary_entries}+2")
    row("LCU lat (cycles)", lambda c: c.lcu_latency)
    row("LRTs", lambda c: c.num_lrts)
    row("per-LRT entries", lambda c: c.lrt_entries)
    row("LRT latency", lambda c: c.lrt_latency)
    return rows

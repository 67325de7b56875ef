"""Behavioral model of the Synchronization State Buffer (SSB).

The SSB (Zhu et al., ISCA'07) keeps fine-grain lock state in a dedicated
table at the shared-L2 / memory controller.  The properties the paper
contrasts with the LCU:

* **All operations are remote** — each acquire attempt and each release is
  a round trip to the home controller; failed attempts are retried
  remotely, so waiting threads keep injecting messages (this is what
  saturates the Model B inter-chip links in Figure 9b).
* **No requestor queue** — transfers cost a full retry round trip instead
  of a direct LCU-to-LCU grant (the ~30% transfer-time gap of Figure 9a).
* **Reader preference, no fairness** — readers join an active read run
  freely, which raises read throughput (Figure 9a's high-reader ratios)
  but can starve writers; we expose writer-wait statistics so the
  fairness benches can quantify it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.net.network import Endpoint, Network
from repro.params import MachineConfig
from repro.sim.engine import Server, Simulator


class _SsbEntry:
    __slots__ = ("write", "owner_tid", "reader_cnt")

    def __init__(self, write: bool, owner_tid: Optional[int]) -> None:
        self.write = write
        self.owner_tid = owner_tid
        self.reader_cnt = 0 if write else 1


class SSB:
    """All SSB banks of the machine (one per memory controller)."""

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        network: Network,
        entries_per_bank: int = 512,
    ) -> None:
        self._sim = sim
        self._config = config
        self._net = network
        self._entries_per_bank = entries_per_bank
        self._banks: Dict[int, Dict[int, _SsbEntry]] = {
            j: {} for j in range(config.num_lrts)
        }
        self._servers = [
            Server(sim, f"ssb{j}") for j in range(config.num_lrts)
        ]
        for j in range(config.num_lrts):
            network.register(("ssb", j), self._on_message)
        self.stats = {
            "attempts": 0, "failures": 0, "acquires": 0, "releases": 0,
            "table_full": 0,
        }
        #: the bus's ``ssb`` topic (see :mod:`repro.sim.bus`): "acq_ok",
        #: "acq_fail" and "release", fired at the home bank as each
        #: operation resolves.  The fairness observatory uses it to
        #: attribute SSB retry storms per lock.
        self._subs = sim.bus.ssb

    @property
    def servers(self):
        """Per-bank pipeline servers, for the telemetry layer."""
        return list(self._servers)

    def _home(self, addr: int) -> int:
        return (addr // self._config.line_size) % self._config.num_lrts

    # ------------------------------------------------------------------ #
    # core-side interface (invoked by the executor)

    def acquire(
        self, core: int, tid: int, addr: int, write: bool,
        done: Callable[[bool], None],
    ) -> None:
        """Remote acquire attempt; ``done(success)`` after the round trip."""
        self._op(core, ("acq", tid, addr, write, done))

    def release(
        self, core: int, tid: int, addr: int, write: bool,
        done: Callable[[bool], None],
    ) -> None:
        """Remote release; ``done(True)`` after the round trip."""
        self._op(core, ("rel", tid, addr, write, done))

    def _op(self, core: int, payload: tuple) -> None:
        home = self._home(payload[2])
        self._net.send(
            ("core", core), ("ssb", home), ("ssb", core, payload)
        )

    # ------------------------------------------------------------------ #
    # home-side processing

    def _on_message(self, _src: Endpoint, wrapped: tuple) -> None:
        _tag, core, payload = wrapped
        op, tid, addr, write, done = payload
        home = self._home(addr)
        self._servers[home].request(
            self._config.lrt_latency,
            lambda: self._process(home, core, op, tid, addr, write, done),
        )

    def _process(
        self, home: int, core: int, op: str, tid: int, addr: int,
        write: bool, done: Callable[[bool], None],
    ) -> None:
        bank = self._banks[home]
        if op == "acq":
            self.stats["attempts"] += 1
            result = self._try_acquire(bank, tid, addr, write)
            if result:
                self.stats["acquires"] += 1
            else:
                self.stats["failures"] += 1
            event = "acq_ok" if result else "acq_fail"
        else:
            result = self._do_release(bank, tid, addr, write)
            self.stats["releases"] += 1
            event = "release"
        for fn in self._subs:
            fn(event, addr, tid, write)
        # reply round trip back to the requesting core
        self._net.send(
            ("ssb", home), ("core", core), ("ssb-reply",),
            on_deliver=lambda: done(result),
        )

    def _try_acquire(
        self, bank: Dict[int, _SsbEntry], tid: int, addr: int, write: bool
    ) -> bool:
        e = bank.get(addr)
        if e is None:
            if len(bank) >= self._entries_per_bank:
                self.stats["table_full"] += 1
                return False
            bank[addr] = _SsbEntry(write, tid if write else None)
            return True
        if write:
            return False
        if e.write:
            return False
        # Reader preference: join the active read run unconditionally —
        # this is the unfairness the paper calls out.
        e.reader_cnt += 1
        return True

    def _do_release(
        self, bank: Dict[int, _SsbEntry], tid: int, addr: int, write: bool
    ) -> bool:
        e = bank.get(addr)
        if e is None:
            raise RuntimeError(f"SSB release of free lock {addr:#x}")
        if write:
            if not e.write:
                raise RuntimeError("SSB write release of read lock")
            del bank[addr]
        else:
            e.reader_cnt -= 1
            if e.reader_cnt <= 0:
                del bank[addr]
        return True

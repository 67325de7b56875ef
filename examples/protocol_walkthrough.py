#!/usr/bin/env python3
"""Annotated message-level walkthrough of the LCU/LRT protocol.

Recreates the paper's Figure 4/5/6 scenarios on a small machine and
prints the actual wire traffic captured by the tracer, so you can read
the protocol the same way the paper draws it.
"""

from repro import Machine, OS, small_test_model
from repro.cpu import ops
from repro.lcu import api
from repro.obs import Tracer


def scenario(title, build):
    print("=" * 72)
    print(title)
    print("=" * 72)
    machine = Machine(small_test_model())
    addr = machine.alloc.alloc_line()
    tracer = Tracer.attach(machine)
    os_ = OS(machine)
    build(machine, os_, addr)
    os_.run_all()
    machine.drain()
    print(tracer.render(
        r for r in tracer.records if getattr(r.payload, "addr", None) == addr
    ))
    print()


def fig4_uncontended(machine, os_, addr):
    """Figure 4: free-lock grant, then a second requestor forcing the
    owner's entry re-allocation."""

    def owner(thread):
        yield from api.lock(addr, True)
        yield ops.Compute(2_000)
        yield from api.unlock(addr, True)

    def requester(thread):
        yield ops.Compute(400)
        yield from api.lock(addr, True)
        yield from api.unlock(addr, True)

    os_.spawn(owner, name="owner")
    os_.spawn(requester, name="requester")


def fig5_transfer(machine, os_, addr):
    """Figure 5: direct LCU-to-LCU transfer with off-critical-path head
    notification."""

    def a(thread):
        yield from api.lock(addr, True)
        yield ops.Compute(1_500)
        yield from api.unlock(addr, True)

    def b(thread):
        yield ops.Compute(200)
        yield from api.lock(addr, True)
        yield from api.unlock(addr, True)

    os_.spawn(a, name="A")
    os_.spawn(b, name="B")


def fig6_readers(machine, os_, addr):
    """Figure 6: a run of concurrent readers, out-of-order release, the
    Head token bypassing RD_REL entries to reach a waiting writer."""

    def reader(hold):
        def prog(thread):
            yield from api.lock(addr, False)
            yield ops.Compute(hold)
            yield from api.unlock(addr, False)
        return prog

    def writer(thread):
        yield ops.Compute(500)
        yield from api.lock(addr, True)
        yield from api.unlock(addr, True)

    os_.spawn(reader(3_000), name="R1-head")
    os_.spawn(reader(150), name="R2")
    os_.spawn(reader(150), name="R3")
    os_.spawn(writer, name="W")


def main() -> None:
    scenario("Figure 4: uncontended locking & owner re-allocation",
             fig4_uncontended)
    scenario("Figure 5: direct transfer + head notification", fig5_transfer)
    scenario("Figure 6: reader run, RD_REL bypass, waiting writer",
             fig6_readers)


if __name__ == "__main__":
    main()

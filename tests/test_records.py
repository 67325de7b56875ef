"""The record contract of ops, protocol messages and wire envelopes.

Ops, LCU/LRT messages and the reliable layer's envelopes are immutable
``typing.NamedTuple`` records.  Immutability is load-bearing: a
retransmission re-sends the very payload object the first attempt
carried, and a fault-injected duplicate shares it with the original.
Records are also tuples, so every place that tells them from the
memory system's plain ``("fill", ...)`` tuples must test by class.
"""

from __future__ import annotations

import pytest

from repro.cpu import ops
from repro.cpu.machine import Machine
from repro.lcu import messages as msgs
from repro.net import reliable
from repro.obs.spans import SpanTracer
from repro.params import small_test_model


def _record_classes(module):
    return [
        cls for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
        and issubclass(cls, tuple)
    ]


OP_CLASSES = _record_classes(ops)
MESSAGE_CLASSES = _record_classes(msgs)
RECORD_CLASSES = (OP_CLASSES + MESSAGE_CLASSES
                  + [reliable.Frame, reliable.AckFrame, reliable.Datagram])


def _instance(cls):
    required = len(cls._fields) - len(cls._field_defaults)
    return cls(*[0] * required)


def test_every_op_and_message_is_a_record():
    """No op or message class is left a mutable plain class."""
    for module in (ops, msgs):
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                assert issubclass(obj, tuple), name


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
def test_record_rejects_attribute_assignment(cls):
    rec = _instance(cls)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, 1)
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_lock_op_is_a_class_attribute():
    lock_ops = {cls.__name__ for cls in OP_CLASSES if cls.lock_op}
    assert lock_ops == {
        "Rmw", "WaitLine", "FutexWait", "FutexWake", "LcuAcq", "LcuRel",
        "LcuEnq", "LcuWait", "RemoteRmw", "SsbAcq", "SsbRel",
    }
    assert all(cls.lock_op in (True, False) for cls in OP_CLASSES)


def test_reliable_layer_covers_every_protocol_message():
    """The covered set is listed by hand now that records cannot be
    found by introspection: it must be every message class except the
    ``Who`` identity, which rides inside messages."""
    assert reliable._PROTOCOL_MESSAGE_TYPES == (
        set(MESSAGE_CLASSES) - {msgs.Who}
    )


def test_span_names_tell_records_from_memory_tuples():
    machine = Machine(small_test_model())
    tracer = SpanTracer()
    tracer.attach(machine)
    grant = msgs.Grant(addr=64, tid=1, head=True, gen=0)
    fill = ("fill", 0, 64)
    for payload in (grant, fill):
        for sub in machine.sim.bus.net:
            sub(("lrt", 0), ("core", 0), payload)()
    tracer.detach()
    assert [s.name for s in tracer.spans] == ["Grant", "fill"]


def test_core_handler_routes_records_before_tuples():
    """A protocol record reaches the LCU even though it is a tuple; a
    memory tuple is left to its send's continuation."""
    machine = Machine(small_test_model())
    seen = []
    machine.lcus[0].on_message = lambda src, m: seen.append(m)
    handler = machine.net._handlers[("core", 0)]
    grant = msgs.Grant(addr=64, tid=1, head=True, gen=0)
    handler(("lrt", 0), grant)
    handler(("dir", 0), ("fill", 0, 64))
    assert seen == [grant]

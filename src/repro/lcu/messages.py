"""Protocol messages exchanged between LCUs and LRTs.

Naming follows the paper (Section III): REQUEST, GRANT, WAIT, RETRY,
RELEASE and the head-update notification; the remaining message types
implement the races and corner cases the paper describes in prose
(release/enqueue race, migrated-thread release, overflow-reader draining,
re-allocation back-pressure).

A queue participant is identified by a ``Who`` tuple — (threadid, LCU id,
R/W mode) — exactly the tuple stored in the LRT's head/tail pointers and
in each LCU entry's ``next`` field.  ``gen`` is the paper's
``transfer_cnt``: a per-lock monotonically increasing transfer generation
that lets the LRT ignore stale head notifications when consecutive
transfers race.

Every message is an immutable :class:`typing.NamedTuple` record: cheap
to build on every send, and a retransmission can re-send the very same
object.  Because records are tuples, code that tells protocol messages
from the memory system's plain ``("fill", ...)`` tuples tests the
record classes first.

The messages after ``RemoteReleaseNack`` belong to the recovery layer
(:mod:`repro.lcu.recovery`); the base units raise ``ProtocolError`` on
them.
"""

from __future__ import annotations

from typing import NamedTuple


class Who(NamedTuple):
    """Queue-node identity: (threadid, LCU id, write-mode)."""

    tid: int
    lcu: int
    write: bool


class Request(NamedTuple):
    """LCU -> LRT: thread asks for the lock (paper's REQUEST).

    ``priority`` implements the paper's future-work real-time extension:
    while priority requestors are outstanding, the LRT refuses new
    ordinary requests so the priority holder only waits for the queue
    that existed when it asked (bounded-jump priority).

    ``seq`` identifies *this issue* of the request: the LCU bumps it
    every time the thread (re-)requests, and the LRT echoes it on the
    per-request replies (RETRY directly, WAIT via the forward).  Crash
    reclamation can free a queue node while replies to it are still in
    flight; when the thread immediately re-requests under the same
    (addr, tid) key, the stale reply would otherwise bind to the *new*
    entry.  ``seq=0`` is a wildcard that always matches (legacy senders
    and tests).
    """
    addr: int
    req: Who
    nonblocking: bool = False
    priority: bool = False
    seq: int = 0


class FwdRequest(NamedTuple):
    """LRT -> tail LCU: enqueue ``req`` behind the current tail.

    Carries the tail's identity/mode so a deallocated uncontended owner
    entry can be re-allocated (paper Figure 4b), the current transfer
    generation, and whether a granted *writer* must confirm that overflow
    readers have drained before taking the lock.
    """
    addr: int
    tail_tid: int
    tail_lcu: int
    tail_write: bool
    req: Who
    gen: int
    confirm_required: bool = False
    req_seq: int = 0        # echoed Request.seq (0 = wildcard)


class FwdNack(NamedTuple):
    """tail LCU -> LRT: could not re-allocate an entry for the forwarded
    request (LCU full); the LRT retries after a backoff.

    ``phantom=True`` is a stronger refusal (recovery layer): the LCU has
    *no trace at all* of the named tail holding anything — no entry, no
    held-generation record, no FLT park.  That state cannot come back,
    so retrying the forward can never legitimately succeed; it could
    only false-match a newer queue node reusing the tail's (addr, tid)
    key and splice a stale link into the live queue.  The LRT treats a
    current-era phantom as a broken chain and reclaims instead of
    retrying."""
    addr: int
    original: FwdRequest
    phantom: bool = False


class WaitMsg(NamedTuple):
    """tail LCU -> requestor LCU: you are enqueued (paper's WAIT)."""
    addr: int
    tid: int
    seq: int = 0            # echoed Request.seq (0 = wildcard)


class Grant(NamedTuple):
    """Lock grant (paper's GRANT).

    * ``head=True``  — carries the Head token (write permission for
      writers; queue-head status for readers).
    * ``head=False`` — a reader share grant propagated down a run of
      consecutive readers.
    * ``from_lrt``   — initial/overflow grants issued by the LRT itself;
      these must not trigger a head-update notification.
    * ``overflow``   — an overflow-mode reader grant (no queue membership).
    * ``confirm_required`` — a granted writer must ask the LRT for
      ``OvfClear`` before acquiring (overflow readers may still hold).
    """
    addr: int
    tid: int
    head: bool
    gen: int
    from_lrt: bool = False
    overflow: bool = False
    confirm_required: bool = False


class Retry(NamedTuple):
    """LRT -> LCU: request rejected (nonblocking entry and lock taken, or
    a reservation holder has priority).  The entry is deallocated and the
    software layer retries (paper's RETRY)."""
    addr: int
    tid: int
    seq: int = 0            # echoed Request.seq (0 = wildcard)


class ReleaseMsg(NamedTuple):
    """LCU -> LRT: release of an uncontended lock, an overflow-mode read
    grant, or a migrated thread's lock (paper's RELEASE).

    ``gen`` is the hold's transfer generation: the fence token.  Only a
    recovering LRT with fencing armed reads it, rejecting a release
    whose ``gen`` is below the address's reclaim floor with a
    :class:`FencedOperation` — the releaser is a zombie whose hold was
    reclaimed away.  ``gen=-1`` (a release with no known hold, such as
    an overflow release) never fences."""
    addr: int
    rel: Who
    overflow: bool = False
    gen: int = -1


class ReleaseAck(NamedTuple):
    """LRT -> LCU: release processed; deallocate the REL entry."""
    addr: int
    tid: int


class ReleaseRetry(NamedTuple):
    """LRT -> LCU: a requestor was already enqueued behind you (release /
    enqueue race) — keep the REL entry and hand the lock to the forwarded
    requestor when it arrives (paper Section III-A)."""
    addr: int
    tid: int
    gen: int


class HeadNotify(NamedTuple):
    """new head LCU -> LRT: the Head token moved here (paper Figure 5).
    The LRT replies with ``Dealloc`` to the previous head so its REL entry
    can be reclaimed only once the head pointer is valid again."""
    addr: int
    new: Who
    gen: int


class Dealloc(NamedTuple):
    """LRT -> LCU: head pointer updated; drop your REL entry."""
    addr: int
    tid: int


class OvfCheck(NamedTuple):
    """granted writer LCU -> LRT: may I take the lock, or are overflow
    readers still holding it?"""
    addr: int
    tid: int
    lcu: int


class OvfClear(NamedTuple):
    """LRT -> writer LCU: all overflow readers drained; write away."""
    addr: int
    tid: int


class RemoteRelease(NamedTuple):
    """LRT -> LCU (and LCU -> LCU along the queue): a migrated thread
    released from a foreign LCU; find the queue node owned by
    ``target_tid`` and release it (paper Section III-C).  ``via_tid`` is
    the queue node at the receiving LCU used to follow ``next`` pointers.
    """
    addr: int
    target_tid: int
    write: bool
    origin_lcu: int
    via_tid: int
    hops: int = 0


class RemoteReleaseAck(NamedTuple):
    """owner LCU -> origin LCU: remote release performed; drop REL entry."""
    addr: int
    tid: int


class RemoteReleaseNack(NamedTuple):
    """LCU -> LRT: queue walk for a migrated release failed (node gone /
    chain broken by a race); the LRT retries or resolves it."""
    addr: int
    target_tid: int
    write: bool
    origin_lcu: int
    attempts: int


# --------------------------------------------------------------------- #
# recovery-layer messages (repro.lcu.recovery; armed by Machine.harden)


class GrantNack(NamedTuple):
    """LCU -> LRT: a Grant arrived for an entry that no longer exists —
    the queue node was lost (forced eviction, resource fault).  Carries
    enough identity for the LRT to decide whether the dead node was the
    head and reclaim the orphaned queue."""
    addr: int
    tid: int
    lcu: int
    gen: int
    head: bool


class QueueProbe(NamedTuple):
    """LRT -> head LCU: the queue for ``addr`` has been
    silent for longer than the orphan threshold; is the head node still
    alive?"""
    addr: int
    tid: int


class QueueProbeAck(NamedTuple):
    """head LCU -> LRT: answer to a :class:`QueueProbe`.  ``holding``
    distinguishes a node that *owns* the lock right now (ACQ/RCV entry,
    held-generation record, FLT park, overflow grant) from a mere
    remnant (REL/WAIT): the watchdog may only revoke a silent
    queue whose probed head is alive but not holding."""
    addr: int
    tid: int
    alive: bool
    holding: bool = False


class QueueReset(NamedTuple):
    """LRT -> every LCU (broadcast): the queue for
    ``addr`` was found orphaned (dead head, unreachable successors) and
    has been reclaimed.  LCUs drop their ISSUED/WAIT nodes for the
    address and wake their waiters, which re-request through the normal
    path.  Live readers are converted to LRT-accounted overflow holders;
    writers holding the token resolve through their own message flows."""
    addr: int
    gen: int


class QueueResetAck(NamedTuple):
    """LCU -> LRT: reply to a :class:`QueueReset` broadcast.  ``readers``
    is the number of live read holders this LCU converted to
    overflow-accounted mode; the LRT adds them to ``reader_cnt`` so the
    post-reset queue's first writer waits for them to drain.

    ``writer_tid`` (>= 0) reports a live *writer* that still owns the
    lock at this LCU — an ACQ/RCV holder or an invisible held-generation
    owner.  A reclaim is not only triggered by a dead head: a dead
    *tail* or middle node orphans the queue just the same, and then the
    era reset runs while the head legitimately holds.  The LRT re-seats
    the reported writer as the new era's queue head so nothing is
    granted over a live write hold.

    ``reader_tids`` enumerates *every* surviving read holder at this
    LCU — the newly-converted ones counted in ``readers`` plus holders
    that were already overflow-accounted before the reset.  The LRT
    forwards the union to the invariant monitor when the era closes, so
    the monitor can tell live survivors from zombies whose holds were
    reclaimed away (``readers`` stays the conversion count only; it
    alone feeds ``reader_cnt``)."""
    addr: int
    lcu: int
    readers: int
    writer_tid: int = -1
    reader_tids: tuple = ()


# --------------------------------------------------------------------- #
# gray-failure messages (fencing + failure detection)


class FencedOperation(NamedTuple):
    """LRT -> LCU (fencing armed): the operation named by ``op`` carried
    a generation below the reclaim floor — its issuer is a zombie whose
    hold was reclaimed while it was stalled or partitioned away.  The
    LCU drops the stale local hold state and completes the thread's
    instruction with a fenced result, routing it through a fresh
    acquire instead of silent success."""
    addr: int
    tid: int
    op: str                 # "release" | "fwd"
    #: the fenced token's ``gen`` — lets the LCU tell the stale hold's
    #: leftovers from a *newer incarnation* under the same (addr, tid)
    #: key (the thread may have re-acquired before this arrives); only
    #: state at or below this generation may be dropped.  -1 (a fenced
    #: forward, which names no hold): match any generation.
    gen: int = -1


class Heartbeat(NamedTuple):
    """core LCU -> every LRT (periodic): liveness beacon feeding the
    per-core suspicion-level failure detector.  Carried as a best-effort
    datagram by the reliable layer (never retransmitted — a lost beat IS
    the signal), but still subject to wire faults: a partitioned or
    zombied core's beats stop arriving (suspicion climbs toward
    reclaim-fast) while a merely slow core keeps beating (the watchdog
    probes it patiently instead of reclaiming a live holder)."""
    core: int

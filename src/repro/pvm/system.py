"""The ConvexPVM system: one daemon, shared-buffer message passing.

Unlike network PVM, ConvexPVM runs a **single daemon for the whole
machine** (paper §3.1); tasks hand messages to each other directly
through shared buffers, and the daemon is only involved in task
management.  ``send``/``recv`` therefore cost:

* library overhead (``pvm_send/recv_overhead_cycles``),
* buffer acquisition (free on the ≤8 KB fast path, page map + first
  touch beyond it),
* a pack (streamed ``write_block``) into the shared buffer,
* a notify store to the receiver's mail flag — a plain coherent store,
  so notifying a task on another hypernode pays the SCI round trip,
* on the receive side, matching plus a streamed ``read_block`` of the
  buffer (remote if the buffer lives on the sender's hypernode).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..machine import Machine
from ..runtime import Placement, Runtime, ThreadEnv
from ..runtime.runtime import _host_region
from .buffers import BufferPool
from .message import ANY_SOURCE, ANY_TAG, Message, matches

__all__ = ["PvmTask", "PvmSystem", "TaskFailedError"]


class TaskFailedError(RuntimeError):
    """A send could not be completed: the peer is unreachable, or every
    retransmission attempt was exhausted under message loss."""


class PvmTask:
    """A PVM task: a thread with a mailbox and send/recv operations."""

    def __init__(self, system: "PvmSystem", tid: int, env: ThreadEnv):
        self.system = system
        self.tid = tid
        self.env = env
        self.mailbox: List[Message] = []
        self._mail_flag = system.runtime.alloc_sync_word(env.hypernode, 0)
        # Senders serialise on this lock word (homed on the receiver's
        # hypernode) to insert into the mailbox — a remote sender pays an
        # SCI round trip for it.
        self._mail_lock = system.runtime.alloc_sync_word(env.hypernode, 0)
        self._mail_seq = 0
        # Reliability layer (active only under a fault plan): outgoing
        # sequence counter and the (src, send_seq) pairs already delivered
        # here, for duplicate suppression under retransmission.
        self._send_seq = 0
        self._seen_seqs: set = set()
        self.sent_messages = 0
        self.received_messages = 0

    # -- messaging ---------------------------------------------------------
    def send(self, dest_tid: int, payload, nbytes: int, tag: int = 0):
        """Generator: pack ``payload`` into a shared buffer and post it."""
        system, env, cfg = self.system, self.env, self.system.config
        dest = system.task(dest_tid)
        tracer = system.machine.tracer
        if tracer.enabled:
            tracer.begin(env.now, "pvm.send", "pvm",
                         pid=env.hypernode, tid=env.cpu,
                         args={"dest": dest_tid, "tag": tag,
                               "nbytes": nbytes})
        yield env.compute(cfg.pvm_send_overhead_cycles,
                          cat="msg_send")
        with _host_region(env.sim, "pvm"):
            lease = system.buffers.acquire(self.tid, env.hypernode, nbytes)
        if lease.fresh_pages:
            remote_dest = dest.env.hypernode != env.hypernode
            per_page = (cfg.page_touch_remote_cycles if remote_dest
                        else cfg.page_touch_local_cycles)
            yield env.compute(per_page * lease.fresh_pages,
                              cat="msg_send")
        if tracer.enabled:
            tracer.begin(env.now, "pvm.pack", "pvm",
                         pid=env.hypernode, tid=env.cpu)
        yield env.write_block(lease.addr, nbytes,
                              cat="msg_send")      # pack
        if tracer.enabled:
            tracer.end(env.now, "pvm.pack", "pvm",
                       pid=env.hypernode, tid=env.cpu)
        faults = system.machine.faults
        if faults is None:
            yield from self._post(dest, payload, nbytes, tag, lease)
        else:
            yield from self._post_reliable(dest, payload, nbytes, tag,
                                           lease, faults)
        self.sent_messages += 1
        if tracer.enabled:
            tracer.end(env.now, "pvm.send", "pvm",
                       pid=env.hypernode, tid=env.cpu)

    def _post(self, dest: "PvmTask", payload, nbytes: int, tag: int,
              lease, send_seq: int = 0):
        """Generator: the mailbox insert + notify (one delivery attempt)."""
        env = self.env
        tracer = self.system.machine.tracer
        yield env.fetch_add(dest._mail_lock, 1,
                            cat="msg_send")        # mailbox insert lock
        with _host_region(env.sim, "pvm"):
            dest._mail_seq += 1
            msg = Message(self.tid, dest.tid, tag, nbytes, payload,
                          lease.addr, dest._mail_seq, send_seq)
            dest.mailbox.append(msg)
            if tracer.enabled:
                # The shared-buffer hand-off: the message changes hands
                # here.
                tracer.instant(env.now, "pvm.post", "pvm",
                               pid=dest.env.hypernode, tid=dest.env.cpu,
                               args={"source": self.tid, "dest": dest.tid,
                                     "tag": tag, "nbytes": nbytes})
        # the notify store resolves the receiver's mail-flag spin:
        # the message send -> recv edge of the dependency graph
        yield env.store(dest._mail_flag, dest._mail_seq,
                        cat="msg_send")   # notify

    def _post_reliable(self, dest: "PvmTask", payload, nbytes: int,
                       tag: int, lease, faults):
        """Generator: delivery with timeout / bounded exponential backoff.

        Each attempt samples a delivery fate from the (seeded) fault
        state.  A lost or corrupted message still charges the wire work
        of the attempt; the sender then waits out its per-send timeout
        (``pvm.timeout_us``, multiplied by ``backoff`` per retry) and
        retransmits.  Deliveries whose acknowledgement was lost get
        retransmitted too — the receiver suppresses the duplicate via
        the ``(src, send_seq)`` pair.  After ``max_retries``
        retransmissions, :class:`TaskFailedError` is raised; a peer whose
        CPU or hypernode has failed raises it immediately.
        """
        env = self.env
        sim = env.sim
        tracer = self.system.machine.tracer
        policy = faults.plan.pvm
        timeout_ns = policy.timeout_us * 1000.0
        self._send_seq += 1
        send_seq = self._send_seq
        attempts = policy.max_retries + 1
        for attempt in range(attempts):
            if attempt:
                tracer.emit(env.now, "pvm.retry")
                if tracer.enabled:
                    tracer.instant(env.now, "pvm.retry", "pvm",
                                   pid=env.hypernode, tid=env.cpu,
                                   args={"dest": dest.tid,
                                         "attempt": attempt})
            if (not faults.cpu_alive(dest.env.cpu)
                    or not faults.hypernode_alive(dest.env.hypernode)):
                tracer.emit(env.now, "pvm.unreachable")
                raise TaskFailedError(
                    f"task {dest.tid} is unreachable: its CPU "
                    f"{dest.env.cpu} / hypernode {dest.env.hypernode} "
                    "has failed")
            fate = faults.sample_delivery()
            if fate in ("ok", "ack_lost"):
                key = (self.tid, send_seq)
                if key in dest._seen_seqs:
                    # retransmission of an already-delivered message: the
                    # receiver drops it, but the wire work still happens
                    tracer.emit(env.now, "pvm.dup_drop")
                    yield env.fetch_add(dest._mail_lock, 1,
                                        cat="msg_send")
                    yield env.store(dest._mail_flag, dest._mail_seq,
                                    cat="msg_send")
                else:
                    dest._seen_seqs.add(key)
                    yield from self._post(dest, payload, nbytes, tag,
                                          lease, send_seq)
                if fate == "ok":
                    return
                # delivered, but the ack never came back: the sender
                # cannot tell this from loss, so it times out and retries
            else:
                # lost/corrupt: the attempt's wire work is still charged
                tracer.emit(env.now, f"pvm.{fate}")
                yield env.fetch_add(dest._mail_lock, 1,
                                    cat="msg_send")
                yield env.store(dest._mail_flag, dest._mail_seq,
                                cat="msg_send")
            tracer.emit(env.now, "pvm.timeout")
            cr = env.crit
            t_backoff = env.now if cr is not None else 0.0
            yield sim.timeout(timeout_ns * policy.backoff ** attempt)
            if cr is not None:
                # retransmission backoff counts as message-send time
                cr.segment(env.tid, t_backoff, env.now, "msg_send")
        raise TaskFailedError(
            f"send to task {dest.tid} failed after {attempts} attempts "
            f"(tag {tag}, {nbytes} bytes): retransmission budget "
            "exhausted")

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Generator: block until a matching message arrives; returns payload."""
        system, env, cfg = self.system, self.env, self.system.config
        tracer = system.machine.tracer
        if tracer.enabled:
            tracer.begin(env.now, "pvm.recv", "pvm",
                         pid=env.hypernode, tid=env.cpu,
                         args={"source": source, "tag": tag})
        yield env.compute(cfg.pvm_recv_overhead_cycles,
                          cat="msg_recv")
        msg = self._take(source, tag)
        if msg is None:
            yield env.spin(self._mail_flag,
                           lambda _v: self._peek(source, tag) is not None,
                           info=f"pvm recv by task {self.tid} "
                                f"(source {source}, tag {tag})",
                           cat="msg_recv")
            msg = self._take(source, tag)
            assert msg is not None
        yield env.read_block(msg.buffer_addr, msg.nbytes,
                             cat="msg_recv")  # access/unpack
        self.received_messages += 1
        if tracer.enabled:
            tracer.end(env.now, "pvm.recv", "pvm",
                       pid=env.hypernode, tid=env.cpu,
                       args={"source": msg.src, "nbytes": msg.nbytes})
        return msg.payload

    def _peek(self, source: int, tag: int) -> Optional[Message]:
        for msg in self.mailbox:
            if matches(msg, source, tag):
                return msg
        return None

    def _take(self, source: int, tag: int) -> Optional[Message]:
        for i, msg in enumerate(self.mailbox):
            if matches(msg, source, tag):
                return self.mailbox.pop(i)
        return None


class PvmSystem:
    """Task registry + buffer pool (the daemon's bookkeeping role)."""

    def __init__(self, runtime: Runtime):
        self.runtime = runtime
        self.machine: Machine = runtime.machine
        self.config = runtime.config
        self.buffers = BufferPool(self.machine)
        self._tasks: Dict[int, PvmTask] = {}

    def task(self, tid: int) -> PvmTask:
        try:
            return self._tasks[tid]
        except KeyError:
            raise KeyError(f"no PVM task with tid {tid}") from None

    def run_tasks(self, n_tasks: int, body: Callable,
                  placement: Placement = Placement.HIGH_LOCALITY):
        """Run ``body(task, tid)`` on ``n_tasks`` tasks; returns results.

        ``body`` is a generator function; tasks are placed like threads
        and joined before this returns.  Returns the per-task results in
        tid order.
        """
        self._tasks.clear()

        def main(env: ThreadEnv):
            # Pre-register tasks so early senders can address late starters.
            from ..runtime.scheduler import assign
            cpus = assign(self.config, n_tasks, placement)
            for tid, cpu in enumerate(cpus):
                task_env = ThreadEnv(self.runtime, -1, cpu)
                self._tasks[tid] = PvmTask(self, tid, task_env)
            results = yield from env.fork_join(n_tasks, self._bound(body),
                                               placement)
            return results

        return self.runtime.run(main)

    def _bound(self, body):
        def thread_body(env: ThreadEnv, tid: int):
            task = self._tasks[tid]
            # the task adopts the actual execution environment
            task.env = env
            result = yield from body(task, tid)
            return result
        return thread_body

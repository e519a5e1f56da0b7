"""Analytic costs of the runtime primitives, derived from the machine config.

The application performance model needs per-step costs for barriers and
PVM messages.  Rather than simulating every one of an application's
thousands of synchronisation events, these closed forms are derived from
the *same* :class:`MachineConfig` constants that drive the discrete-event
simulation; tests in ``tests/perfmodel`` verify each formula against the
simulated primitive within tolerance, so the two views cannot drift apart
silently.
"""

from __future__ import annotations

from ..core.config import MachineConfig

__all__ = ["barrier_ns", "pvm_oneway_ns", "remote_miss_cycles"]


def remote_miss_cycles(config: MachineConfig) -> float:
    """Latency of one remote (cross-hypernode) miss, in cycles.

    Mirrors the remote walk of :meth:`Machine._fetch_line` for the
    uncontended two-hypernode case (one hop out, one hop back).
    """
    return (config.issue_cycles + 2 * config.crossbar_cycles
            + 2 * config.agent_cycles + 2 * config.ring_hop_cycles
            + config.bank_cycles + config.sci_update_cycles
            + config.fill_cycles)


def barrier_ns(config: MachineConfig, n_threads: int,
               n_hypernodes_used: int) -> float:
    """Last-in to last-out barrier cost (the full step synchronisation).

    Entry bookkeeping and semaphore arithmetic for the last arrival, the
    releasing store's invalidation walk, then the serialised re-dispatch
    of every waiter (with the cross-hypernode surcharge for threads not
    on the releaser's hypernode) — the mechanism of paper §4.2 /
    :class:`repro.runtime.Barrier`.
    """
    if n_threads <= 1:
        return config.cycles(config.barrier_entry_cycles)
    cfg = config
    cycles = 2 * cfg.barrier_entry_cycles        # last arrival's entry + reset
    cycles += 2 * cfg.uncached_local_cycles      # two semaphore operations
    # releasing store invalidates every waiter's cached copy
    local_waiters = min(n_threads - 1,
                        cfg.cpus_per_hypernode - 1)
    cycles += cfg.dir_inval_cycles * local_waiters
    if n_hypernodes_used > 1:
        cycles += (n_hypernodes_used - 1) * (
            2 * cfg.ring_hop_cycles + cfg.agent_cycles
            + cfg.sci_update_cycles)
    # every waiter re-reads the flag and is re-dispatched serially
    cycles += cfg.spin_wakeup_cycles + cfg.miss_local_cycles
    remote_threads = 0
    if n_hypernodes_used > 1:
        remote_threads = max(0, n_threads - cfg.cpus_per_hypernode)
    cycles += cfg.barrier_release_per_thread_cycles * (n_threads - 1)
    cycles += cfg.remote_release_extra_cycles * remote_threads
    return config.cycles(cycles)


def pvm_oneway_ns(config: MachineConfig, nbytes: int, remote: bool) -> float:
    """One PVM send+receive pair's cost (half a Fig 4 round trip).

    Mirrors :meth:`PvmTask.send`/:meth:`PvmTask.recv`: library overheads,
    buffer pages beyond the fast buffer, the streamed pack and unpack,
    the mailbox lock and notify store.
    """
    cfg = config
    lines = max(1, -(-nbytes // cfg.line_bytes))
    cycles = cfg.pvm_send_overhead_cycles + cfg.pvm_recv_overhead_cycles
    # buffer pages beyond the preallocated fast buffer
    fast_bytes = cfg.pvm_fastbuf_pages * cfg.page_bytes
    if nbytes > fast_bytes:
        pages = -(-nbytes // cfg.page_bytes)
        per_page = (cfg.page_touch_remote_cycles if remote
                    else cfg.page_touch_local_cycles)
        cycles += pages * per_page
    # pack (local stream into the sender-side buffer)
    cycles += cfg.miss_local_cycles + (lines - 1) * cfg.stream_line_cycles
    # unpack / in-place access by the receiver
    if remote:
        cycles += remote_miss_cycles(cfg) \
            + (lines - 1) * cfg.stream_line_cycles * cfg.remote_stream_factor
        # mailbox lock + notify store both cross the ring
        cycles += 2 * remote_miss_cycles(cfg)
    else:
        cycles += cfg.miss_local_cycles + (lines - 1) * cfg.stream_line_cycles
        cycles += cfg.uncached_local_cycles + cfg.miss_local_cycles
    cycles += cfg.spin_wakeup_cycles    # receiver comes off its spin
    return config.cycles(cycles)

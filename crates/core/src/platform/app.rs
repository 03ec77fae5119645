//! Application-side stepping: instruction retirement, event capture, order
//! capture, store-buffer drains, ConflictAlert broadcasts and the blocking
//! protocol (log backpressure, locks, barriers, damage containment).

use super::{Block, Sim};
use crate::config::MonitoringMode;
use paralog_events::{
    AccessKind, AddrRange, ArcList, CaPhase, CaRecord, EventRecord, HighLevelKind, Instr, MemRef,
    Op, ProduceList, Rid, ThreadId, VersionId,
};
use paralog_sim::sync::{barrier_flag, barrier_slot, SYNC_BASE};
use paralog_sim::{BarrierOutcome, LockAttempt};

/// Staging headroom beyond the store buffer (records held while stores are
/// pending plus a burst allowance for CA insertions).
const STAGING_CAP: usize = 64;

/// Cycles charged to the allocator library for a malloc/free call.
const ALLOC_LIB_CYCLES: u64 = 150;

/// Cycles the kernel spends in a modeled system call.
const SYSCALL_KERNEL_CYCLES: u64 = 300;

/// Timesliced scheduling quantum, in operations.
pub(super) const TS_QUANTUM_OPS: u32 = 5_000;

/// Context-switch penalty in timesliced mode, in cycles.
const TS_SWITCH_CYCLES: u64 = 1_000;

impl<'w> Sim<'w> {
    /// One step of application thread `tid` (parallel / no-monitoring
    /// modes: entity index == tid).
    pub(super) fn step_app(&mut self, tid: usize) {
        let now = self.sched.clock(tid);
        self.drain_due_stores(tid, now);
        self.flush_staging(tid);

        if self.app[tid].finished {
            self.sched.finish(tid);
            return;
        }
        if let Some(block) = self.app[tid].blocked {
            self.service_block(tid, block);
            return;
        }
        if self.app[tid].pc >= self.workload.threads[tid].len() {
            self.finish_app_thread(tid);
            return;
        }
        let op = self.workload.threads[tid][self.app[tid].pc];
        self.execute_op(tid, op);
    }

    /// One step of the timesliced application multiplexer (entity 0).
    pub(super) fn step_timesliced_app(&mut self) {
        // Find a runnable thread, starting at the current one.
        for probe in 0..self.k {
            let tid = (self.ts_current + probe) % self.k;
            if self.app[tid].finished {
                continue;
            }
            if let Some(block) = self.app[tid].blocked {
                if !self.block_resolved(tid, block) {
                    continue;
                }
                self.app[tid].blocked = None;
                self.resume_from_block(tid, block);
            }
            if probe != 0 {
                // Context switch.
                self.sched.advance(0, TS_SWITCH_CYCLES);
                self.ts_current = tid;
                self.ts_quantum_left = TS_QUANTUM_OPS;
            }
            if self.app[tid].pc >= self.workload.threads[tid].len() {
                self.app[tid].finished = true;
                if self.app.iter().all(|a| a.finished) {
                    self.rings[0].close();
                    self.sched.finish(0);
                }
                return;
            }
            let op = self.workload.threads[tid][self.app[tid].pc];
            self.execute_op(tid, op);
            if self.ts_quantum_left == 0 {
                self.ts_current = (tid + 1) % self.k;
                self.ts_quantum_left = TS_QUANTUM_OPS;
            } else {
                self.ts_quantum_left -= 1;
                self.ts_current = tid;
            }
            return;
        }
        // Everyone blocked or finished.
        if self.app.iter().all(|a| a.finished) {
            self.rings[0].close();
            self.sched.finish(0);
            return;
        }
        let quantum = self.machine.poll_quantum;
        self.sched.advance(0, quantum);
        let cur = self.ts_current;
        self.app[cur].buckets.sync_stall += quantum;
    }

    // --- blocking -------------------------------------------------------

    fn block_resolved(&mut self, tid: usize, block: Block) -> bool {
        match block {
            Block::LogFull => {
                self.flush_staging(tid);
                self.app[tid].staging.len() < STAGING_CAP && !self.ring_of(tid).is_full()
            }
            Block::Lock(lock, _) => self.locks.owner(lock).is_none(),
            Block::Barrier(b, target) => self.barriers.generation(b) >= target,
            Block::Syscall => !self.config.damage_containment || self.records_drained(tid),
            Block::StoreBufferFull => self.app[tid]
                .sb
                .as_ref()
                .map(|sb| !sb.is_full())
                .unwrap_or(true),
        }
    }

    /// Work performed when a block lifts (parallel mode runs this from
    /// `service_block`, timesliced from the multiplexer).
    fn resume_from_block(&mut self, tid: usize, block: Block) {
        match block {
            Block::Lock(lock, addr) => {
                // The lock is free: acquire and retire the RMW.
                let att = self.locks.acquire(lock, tid);
                assert_eq!(
                    att,
                    LockAttempt::Acquired,
                    "resolved block implies free lock"
                );
                self.retire_lock_acquire(tid, lock, addr);
            }
            Block::Barrier(b, _) => {
                // Released: read the flag word (RAW arc from the releaser).
                let flag = barrier_flag(b);
                let lat = self.retire_instr(
                    tid,
                    Instr::Load {
                        dst: paralog_events::Reg(15),
                        src: MemRef::new(flag, 8),
                    },
                );
                self.app[tid].buckets.exec += lat;
                self.sched_advance_app(tid, lat);
            }
            Block::Syscall => {
                // Lifeguard caught up: run the kernel part, then CA-End.
                let (kind, buf) = self.app[tid]
                    .syscall_cont
                    .take()
                    .expect("syscall in flight");
                self.app[tid].buckets.exec += SYSCALL_KERNEL_CYCLES;
                self.sched_advance_app(tid, SYSCALL_KERNEL_CYCLES);
                self.broadcast_ca(tid, HighLevelKind::Syscall(kind), CaPhase::End, buf);
            }
            Block::LogFull | Block::StoreBufferFull => {}
        }
    }

    fn service_block(&mut self, tid: usize, block: Block) {
        if self.block_resolved(tid, block) {
            self.app[tid].blocked = None;
            self.resume_from_block(tid, block);
            return;
        }
        // Still blocked: charge a poll quantum to the right bucket.
        let q = self.machine.poll_quantum;
        match block {
            Block::LogFull => self.app[tid].buckets.log_stall += q,
            Block::Lock(..) | Block::Barrier(..) => self.app[tid].buckets.sync_stall += q,
            Block::Syscall => self.app[tid].buckets.syscall_stall += q,
            Block::StoreBufferFull => {
                // Jump straight to the next drain instead of spinning.
                let now = self.sched.clock(tid);
                let next = self.app[tid]
                    .sb
                    .as_ref()
                    .and_then(|sb| sb.next_drain_at())
                    .unwrap_or(now + q)
                    .max(now + 1);
                self.app[tid].buckets.sb_stall += next - now;
                self.sched.advance_to(tid, next);
                return;
            }
        }
        self.sched_advance_app(tid, q);
    }

    fn finish_app_thread(&mut self, tid: usize) {
        // Drain any pending stores first (TSO), then the staging buffer.
        if let Some(next) = self.app[tid].sb.as_ref().and_then(|sb| sb.next_drain_at()) {
            let now = self.sched.clock(tid);
            self.sched.advance_to(tid, next.max(now + 1));
            return; // drains happen at the top of the next step
        }
        self.flush_staging(tid);
        if !self.app[tid].staging.is_empty() {
            let q = self.machine.poll_quantum;
            self.app[tid].buckets.log_stall += q;
            self.sched_advance_app(tid, q);
            return;
        }
        self.app[tid].finished = true;
        if self.config.mode == MonitoringMode::Parallel {
            self.rings[tid].close();
        }
        if let Some(r) = self.reference.as_mut() {
            r.drain_all(tid);
        }
        self.sched.finish(tid);
    }

    // --- op execution ---------------------------------------------------

    fn execute_op(&mut self, tid: usize, op: Op) {
        // Backpressure: every op may produce a record; require headroom.
        if self.monitored() {
            self.flush_staging(tid);
            if self.app[tid].staging.len() >= STAGING_CAP
                || (self.app[tid].sb.is_none() && self.ring_of(tid).is_full())
            {
                self.app[tid].blocked = Some(Block::LogFull);
                let q = self.machine.poll_quantum;
                self.app[tid].buckets.log_stall += q;
                self.sched_advance_app(tid, q);
                return;
            }
        }
        match op {
            Op::Instr(instr) => {
                // TSO: a full store buffer stalls stores.
                if let Some((_, kind)) = instr.mem_access() {
                    if kind == AccessKind::Write {
                        if let Some(sb) = self.app[tid].sb.as_ref() {
                            if sb.is_full() {
                                self.app[tid].blocked = Some(Block::StoreBufferFull);
                                return;
                            }
                        }
                    }
                }
                let lat = self.retire_instr(tid, instr);
                self.app[tid].buckets.exec += lat;
                self.sched_advance_app(tid, lat);
                self.app[tid].pc += 1;
            }
            Op::Malloc { range } => {
                self.app[tid].pc += 1;
                self.app[tid].buckets.exec += ALLOC_LIB_CYCLES;
                self.sched_advance_app(tid, ALLOC_LIB_CYCLES);
                self.broadcast_ca(tid, HighLevelKind::Malloc, CaPhase::End, Some(range));
            }
            Op::Free { range } => {
                self.app[tid].pc += 1;
                self.app[tid].buckets.exec += ALLOC_LIB_CYCLES;
                self.sched_advance_app(tid, ALLOC_LIB_CYCLES);
                self.broadcast_ca(tid, HighLevelKind::Free, CaPhase::Begin, Some(range));
            }
            Op::Lock { lock, addr } => {
                self.app[tid].pc += 1;
                match self.locks.acquire(lock, tid) {
                    LockAttempt::Acquired => self.retire_lock_acquire(tid, lock, addr),
                    LockAttempt::Contended(_) => {
                        self.app[tid].blocked = Some(Block::Lock(lock, addr));
                        let q = self.machine.poll_quantum;
                        self.app[tid].buckets.sync_stall += q;
                        self.sched_advance_app(tid, q);
                    }
                }
            }
            Op::Unlock { lock, addr } => {
                self.app[tid].pc += 1;
                self.emit_own_ca(tid, HighLevelKind::Unlock(lock), CaPhase::Begin, None);
                let lat = self.retire_instr(
                    tid,
                    Instr::Store {
                        dst: MemRef::new(addr, 8),
                        src: paralog_events::Reg(15),
                    },
                );
                // The release store must be globally visible before the next
                // owner's RMW can succeed (it reads the unlocked value), so a
                // TSO buffer drains here — otherwise the capture would order
                // the handoff backwards (acquirer's RMW before the release
                // store via a WAW arc) and order-sensitive lifeguards would
                // miss the synchronization edge.
                self.drain_all_stores(tid);
                self.locks.release(lock, tid);
                self.app[tid].buckets.exec += lat;
                self.sched_advance_app(tid, lat);
            }
            Op::Barrier { barrier } => {
                self.app[tid].pc += 1;
                // Arrival: write our slot word.
                let slot = barrier_slot(barrier, tid);
                let lat = self.retire_instr(
                    tid,
                    Instr::Store {
                        dst: MemRef::new(slot, 8),
                        src: paralog_events::Reg(15),
                    },
                );
                // Barrier arrival is a release fence: the slot store (and
                // every pre-barrier store) must be visible before the
                // releaser reads the slots, or the capture would order the
                // releaser's read before the arrival.
                self.drain_all_stores(tid);
                self.app[tid].buckets.exec += lat;
                self.sched_advance_app(tid, lat);
                match self.barriers.arrive(barrier, tid) {
                    BarrierOutcome::Wait => {
                        let target = self.barriers.generation(barrier) + 1;
                        self.app[tid].blocked = Some(Block::Barrier(barrier, target));
                    }
                    BarrierOutcome::Release => {
                        // Read every slot (arcs from all arrivals), write the
                        // flag (waiters read it on wake-up).
                        let mut total = 0;
                        for t in 0..self.k {
                            if t == tid {
                                continue;
                            }
                            total += self.retire_instr(
                                tid,
                                Instr::Load {
                                    dst: paralog_events::Reg(15),
                                    src: MemRef::new(barrier_slot(barrier, t), 8),
                                },
                            );
                        }
                        total += self.retire_instr(
                            tid,
                            Instr::Store {
                                dst: MemRef::new(barrier_flag(barrier), 8),
                                src: paralog_events::Reg(15),
                            },
                        );
                        // The flag store must be visible before any waiter
                        // can read it (waiters wake on the generation bump
                        // below); drain so their flag loads collect a proper
                        // release→waiter arc instead of a reversed one.
                        self.drain_all_stores(tid);
                        self.barriers.release(barrier);
                        self.app[tid].buckets.exec += total;
                        self.sched_advance_app(tid, total);
                    }
                }
            }
            Op::Syscall { kind, buf } => {
                self.app[tid].pc += 1;
                self.broadcast_ca(tid, HighLevelKind::Syscall(kind), CaPhase::Begin, buf);
                self.app[tid].syscall_cont = Some((kind, buf));
                self.app[tid].blocked = Some(Block::Syscall);
            }
        }
    }

    fn retire_lock_acquire(&mut self, tid: usize, lock: paralog_events::LockId, addr: u64) {
        // x86 locked RMW: drains the store buffer (fence), then accesses.
        self.drain_all_stores(tid);
        let lat = self.retire_instr(
            tid,
            Instr::Rmw {
                mem: MemRef::new(addr, 8),
                reg: paralog_events::Reg(15),
            },
        );
        self.app[tid].buckets.exec += lat;
        self.sched_advance_app(tid, lat);
        self.emit_own_ca(tid, HighLevelKind::Lock(lock), CaPhase::End, None);
    }

    /// Retires one instruction: memory access (with order capture), record
    /// creation and the reference hook. Returns the latency.
    fn retire_instr(&mut self, tid: usize, instr: Instr) -> u64 {
        let rid = self.app[tid].rid.next();
        self.app[tid].rid = rid;
        let core = self.app[tid].core;
        self.mem.set_core_rid(core, rid);

        let mut record = self.monitored().then(|| EventRecord::instr(rid, instr));
        let latency = match instr.mem_access() {
            Some((mem, kind)) => {
                if kind == AccessKind::Write && self.app[tid].sb.is_some() {
                    // TSO store: retire into the buffer; coherence and arcs
                    // happen at drain time, annotated onto the staged record.
                    // Synthesized stores (unlock, barrier words) may arrive
                    // with a full buffer: retire the head early to make room.
                    while self.app[tid]
                        .sb
                        .as_ref()
                        .map(|sb| sb.is_full())
                        .unwrap_or(false)
                    {
                        let head = self.app[tid]
                            .sb
                            .as_mut()
                            .and_then(|sb| sb.force_drain_head())
                            .expect("full buffer has a head");
                        self.drain_one_store(tid, head);
                    }
                    let now = self.sched.clock(tid);
                    let sb = self.app[tid].sb.as_mut().expect("checked above");
                    sb.push(rid, mem.addr, u64::from(mem.size), now);
                    1
                } else if kind == AccessKind::Read
                    && self.app[tid]
                        .sb
                        .as_ref()
                        .map(|sb| sb.forwards_would_hit(mem.addr, u64::from(mem.size)))
                        .unwrap_or(false)
                {
                    // Store-to-load forwarding. Instead of modeling the
                    // forwarded value as invisible to coherence (which makes
                    // remote writers unable to order against this read, the
                    // deep end of §5.5), stores up to the forwarding one are
                    // drained early — always legal under TSO — and the load
                    // becomes a plain read of the now-dirty line. The load
                    // keeps forwarding *timing* (an L1-latency access).
                    self.drain_through(tid, mem.addr, u64::from(mem.size));
                    let res = self
                        .mem
                        .access(core, rid, mem.addr, u64::from(mem.size), kind);
                    if let Some(rec) = record.as_mut() {
                        self.capture_touches(tid, rid, &res.touches, rec);
                    }
                    self.machine.l1d.latency
                } else {
                    if kind == AccessKind::Rmw {
                        self.drain_all_stores(tid);
                    }
                    let res = self
                        .mem
                        .access(core, rid, mem.addr, u64::from(mem.size), kind);
                    if let Some(rec) = record.as_mut() {
                        self.capture_touches(tid, rid, &res.touches, rec);
                    }
                    res.latency
                }
            }
            None => 1,
        };
        if let Some(r) = self.reference.as_mut() {
            r.on_instr(tid, rid, &instr);
        }
        if let Some(rec) = record {
            self.stage_record(tid, rec);
        }
        latency
    }

    /// Converts coherence touches into arcs on `rec` (parallel mode only —
    /// timesliced threads share one core and produce no touches).
    fn capture_touches(
        &mut self,
        tid: usize,
        rid: Rid,
        touches: &[paralog_sim::RemoteTouch],
        rec: &mut EventRecord,
    ) {
        if self.config.mode != MonitoringMode::Parallel {
            return;
        }
        for touch in touches {
            // Only touches against application cores are inter-thread
            // dependences (lifeguard cores share the metadata space).
            if touch.remote_core >= self.k {
                continue;
            }
            let src = ThreadId(touch.remote_core as u16);
            if let Some(arc) = self.capture.on_touch(ThreadId(tid as u16), rid, src, touch) {
                rec.arcs.push(arc);
            }
        }
    }

    // --- TSO store drains -------------------------------------------------

    fn drain_due_stores(&mut self, tid: usize, now: u64) {
        let Some(sb) = self.app[tid].sb.as_mut() else {
            return;
        };
        let drained = sb.drain_ready(now);
        for store in drained {
            self.drain_one_store(tid, store);
        }
    }

    fn drain_all_stores(&mut self, tid: usize) {
        let Some(sb) = self.app[tid].sb.as_mut() else {
            return;
        };
        let drained = sb.drain_all();
        for store in drained {
            self.drain_one_store(tid, store);
        }
    }

    /// Drains stores in FIFO order until the youngest store overlapping the
    /// given access has become visible (store-to-load forwarding as an early
    /// drain).
    fn drain_through(&mut self, tid: usize, addr: u64, size: u64) {
        loop {
            let still_pending = self.app[tid]
                .sb
                .as_ref()
                .map(|sb| sb.forwards_would_hit(addr, size))
                .unwrap_or(false);
            if !still_pending {
                return;
            }
            let head = self.app[tid]
                .sb
                .as_mut()
                .and_then(|sb| sb.force_drain_head())
                .expect("pending store exists");
            self.drain_one_store(tid, head);
        }
    }

    /// A store becomes globally visible: run coherence, decide arc vs.
    /// version reversal per touch, annotate the staged store record.
    fn drain_one_store(&mut self, tid: usize, store: paralog_sim::PendingStore) {
        let core = self.app[tid].core;
        let res = self
            .mem
            .access(core, store.rid, store.addr, store.size, AccessKind::Write);
        // The drained line's timestamp must cover loads that forwarded from
        // this store while it was buffered.
        if store.last_forward > store.rid {
            self.mem
                .bump_line_access(core, store.addr, store.size, store.last_forward);
        }
        if self.config.mode == MonitoringMode::Parallel {
            // Inline lists keep the drain hot path allocation-free.
            let mut arcs = ArcList::new();
            let mut produces = ProduceList::new();
            for touch in &res.touches {
                if touch.remote_core >= self.k {
                    continue;
                }
                let reader = touch.remote_core;
                let src = ThreadId(reader as u16);
                let dst = ThreadId(tid as u16);
                // 1. Write-vs-write ordering. Write timestamps follow the
                //    drain order, which is total, so these arcs can never
                //    form a cycle and are always safe to record.
                if touch.block_write_rid > Rid::ZERO {
                    if let Some(arc) = self.capture.on_conflict_unordered(
                        dst,
                        store.rid,
                        src,
                        touch.block_write_rid,
                        paralog_events::ArcKind::Waw,
                    ) {
                        arcs.push(arc);
                    }
                }
                // 2. Read coverage: the remote's reads up to `block_rid`
                //    must see pre-store metadata. §5.5: reads that violated
                //    SC (an older store still buffered) are *reversed* into
                //    versioned metadata; buffered readers get per-record
                //    versions, absorbed (IT-held) state falls back to a WAR
                //    arc guarded by delayed advertising.
                if touch.block_rid > touch.block_write_rid {
                    // Sync words are never version-reversed: their metadata
                    // is lifeguard-interpreted (vector clocks), not a byte
                    // snapshot, so order-sensitive analyses need the WAR-arc
                    // fallback's deterministic ordering. The sync-op drain
                    // fences make this unreachable in practice; the guard
                    // keeps it an invariant rather than an accident.
                    let sc_violating = store.addr < SYNC_BASE
                        && self.app[reader]
                            .sb
                            .as_ref()
                            .map(|sb| sb.has_store_older_than(touch.block_rid))
                            .unwrap_or(false);
                    if sc_violating {
                        let versioned =
                            self.annotate_block_readers(reader, touch.block_rid, touch.block);
                        if !versioned.is_empty() {
                            produces.extend(versioned.iter().copied());
                            continue;
                        }
                    }
                    if let Some(arc) = self.capture.on_conflict_unordered(
                        dst,
                        store.rid,
                        src,
                        touch.block_rid,
                        paralog_events::ArcKind::War,
                    ) {
                        arcs.push(arc);
                    }
                }
            }
            if !arcs.is_empty() || !produces.is_empty() {
                let ok = self.annotate_staged(tid, store.rid, |r| {
                    r.arcs.extend(arcs.iter().copied());
                    for &(vid, mem, consumers) in &produces {
                        r.push_produce_version(vid, mem, consumers);
                    }
                    true
                });
                assert!(ok, "store record must still be staged while undrained");
            }
        }
        if let Some(r) = self.reference.as_mut() {
            r.on_store_drain(tid, store.rid);
        }
    }

    /// Annotates every still-buffered record of `reader` at or below
    /// `last_rid` that reads any byte of `block` with its own version id
    /// (keyed by the record itself) covering the record's own operand
    /// bytes. Returns the produce annotations for the writer's record.
    fn annotate_block_readers(
        &mut self,
        reader: usize,
        last_rid: Rid,
        block: paralog_events::BlockId,
    ) -> ProduceList {
        let block_range = block.range();
        let reader_tid = ThreadId(reader as u16);
        let mut produces = ProduceList::new();
        let mut annotate = |r: &mut EventRecord| -> bool {
            if r.rid > last_rid || r.consume_version().is_some() {
                return false;
            }
            let mem = match &r.payload {
                paralog_events::EventPayload::Instr(i) => match i.mem_access() {
                    Some((m, k)) if k.reads() && m.range().overlaps(&block_range) => m,
                    _ => return false,
                },
                paralog_events::EventPayload::Ca(_) => return false,
            };
            let vid = VersionId {
                consumer: reader_tid,
                consumer_rid: r.rid,
            };
            r.set_consume_version(vid, mem);
            produces.push((vid, mem, 1));
            true
        };
        for rec in self.app[reader].staging.iter_mut() {
            annotate(rec);
        }
        if self.config.mode == MonitoringMode::Parallel {
            self.rings[reader].annotate_matching(&mut annotate);
        }
        produces
    }

    fn annotate_staged<F>(&mut self, tid: usize, rid: Rid, f: F) -> bool
    where
        F: FnOnce(&mut EventRecord) -> bool,
    {
        for rec in self.app[tid].staging.iter_mut() {
            if rec.rid == rid {
                return f(rec);
            }
        }
        false
    }

    // --- event capture / transport ---------------------------------------

    fn monitored(&self) -> bool {
        self.config.mode != MonitoringMode::None
    }

    fn ring_of(&self, tid: usize) -> &paralog_events::LogRing {
        match self.config.mode {
            MonitoringMode::Timesliced => &self.rings[0],
            _ => &self.rings[tid],
        }
    }

    fn stage_record(&mut self, tid: usize, rec: EventRecord) {
        if !self.monitored() {
            return;
        }
        self.app[tid].staging.push_back(rec);
        self.flush_staging(tid);
    }

    /// Releases staged records to the ring: a record may leave staging only
    /// once no *older or equal* store is still undrained (its arcs and
    /// version annotations would otherwise be lost).
    fn flush_staging(&mut self, tid: usize) {
        if !self.monitored() {
            return;
        }
        let hold_from = self.app[tid]
            .sb
            .as_ref()
            .and_then(|sb| sb.oldest_rid())
            .unwrap_or(Rid(u64::MAX));
        while let Some(front) = self.app[tid].staging.front() {
            if front.rid >= hold_from {
                break;
            }
            match self.config.mode {
                MonitoringMode::Timesliced => {
                    if self.rings[0].is_full() {
                        break;
                    }
                    let rec = self.app[tid].staging.pop_front().expect("front exists");
                    self.rings[0].push(rec).expect("checked not full");
                    self.ring_tags.push_back(tid);
                    self.ts_outstanding[tid] += 1;
                }
                MonitoringMode::Parallel => {
                    if self.rings[tid].is_full() {
                        break;
                    }
                    let rec = self.app[tid].staging.pop_front().expect("front exists");
                    self.rings[tid].push(rec).expect("checked not full");
                }
                MonitoringMode::None => unreachable!("guarded by monitored()"),
            }
        }
    }

    fn records_drained(&self, tid: usize) -> bool {
        match self.config.mode {
            MonitoringMode::None => true,
            MonitoringMode::Parallel => {
                self.app[tid].staging.is_empty() && self.rings[tid].is_empty()
            }
            MonitoringMode::Timesliced => {
                self.app[tid].staging.is_empty() && self.ts_outstanding[tid] == 0
            }
        }
    }

    fn sched_advance_app(&mut self, tid: usize, cycles: u64) {
        let entity = match self.config.mode {
            MonitoringMode::Timesliced => 0,
            _ => tid,
        };
        self.sched.advance(entity, cycles);
    }

    // --- ConflictAlert -----------------------------------------------------

    /// Emits a CA record in the issuer's own stream only (lock/unlock and
    /// unsubscribed events — the local lifeguard may still care).
    fn emit_own_ca(
        &mut self,
        tid: usize,
        what: HighLevelKind,
        phase: CaPhase,
        range: Option<AddrRange>,
    ) {
        if !self.monitored() {
            return;
        }
        let rid = self.app[tid].rid.next();
        self.app[tid].rid = rid;
        let ca = CaRecord {
            what,
            phase,
            range,
            issuer: ThreadId(tid as u16),
            issuer_rid: rid,
            seq: u64::MAX, // no broadcast sequence
        };
        self.stage_record(tid, EventRecord::ca(rid, ca));
    }

    /// Issues a ConflictAlert: a record in the issuer's stream, plus — when
    /// any lifeguard subscribes and we run in parallel — a serialized
    /// broadcast inserting the record into every executing thread's stream.
    pub(super) fn broadcast_ca(
        &mut self,
        tid: usize,
        what: HighLevelKind,
        phase: CaPhase,
        range: Option<AddrRange>,
    ) {
        if let Some(r) = self.reference.as_mut() {
            r.on_high_level(what, phase, range);
        }
        if !self.monitored() {
            return;
        }
        let broadcast =
            self.config.mode == MonitoringMode::Parallel && self.ca_policy.subscribes(what);
        let rid = self.app[tid].rid.next();
        self.app[tid].rid = rid;
        if !broadcast {
            let ca = CaRecord {
                what,
                phase,
                range,
                issuer: ThreadId(tid as u16),
                issuer_rid: rid,
                seq: u64::MAX,
            };
            self.stage_record(tid, EventRecord::ca(rid, ca));
            return;
        }
        let ca = self
            .broadcaster
            .broadcast(what, phase, range, ThreadId(tid as u16), rid);
        // The issuer serializes: it waits for acknowledgements from every
        // other executing capture unit (§5.4).
        let participants: Vec<usize> = (0..self.k)
            .filter(|t| !self.app[*t].finished || *t == tid)
            .collect();
        self.ca_barrier.expect(ca.seq, participants.len());
        for &t in &participants {
            let trid = if t == tid {
                rid
            } else {
                let r = self.app[t].rid.next();
                self.app[t].rid = r;
                r
            };
            self.stage_record(t, EventRecord::ca(trid, ca));
        }
        let ack_cycles = 30 + 10 * self.k as u64;
        self.app[tid].buckets.exec += ack_cycles;
        self.sched_advance_app(tid, ack_cycles);
    }
}

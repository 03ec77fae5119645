//! Lifeguard-side stepping: order enforcement, accelerators, event delivery,
//! ConflictAlert handling and progress advertising.
//!
//! Delivery is zero-copy: a deliverable record is processed **in place**
//! through [`LogRing::pop_with`](paralog_events::LogRing::pop_with) — the
//! ring hands out a borrow and the record is dropped after the handlers ran,
//! never cloned or moved between staging, ring and handler. [`DeliveryCtx`]
//! is the borrow split that makes this possible: every piece of lifeguard
//! state *except* the rings, so the closure over the ring borrow can still
//! reach the engines.
//!
//! Two delivery paths live here: the co-simulation path (`step_lg`, with
//! accelerators and cycle accounting) and the ingestion path
//! ([`deliver_ingested`], driven by the deterministic backend's streaming
//! replay loop). Both already treat "my stream's tail has not arrived yet"
//! as *wait for the producer*, not as completion or deadlock — `step_lg`
//! via the ring's open-but-empty state, the replay loop via the source
//! protocol's `Blocked` status — which is what lets a session's input be
//! produced online.

use super::{LgThread, Sim};
use crate::config::{CaMode, MonitorConfig, MonitoringMode};
use paralog_accel::FlushReason;
use paralog_events::{
    check_view, dataflow_view, AddrRange, CaRecord, EventPayload, EventRecord, MetaOp, Rid,
    ThreadId,
};
use paralog_lifeguards::{CostModel, EventView, HandlerCtx, Violation};
use paralog_order::{CaBarrier, CaPolicy, Gate, ProgressTable};
use paralog_sim::MemorySystem;

/// Everything [`DeliveryCtx::process_record`] needs, split off [`Sim`] so a
/// record can be delivered while the ring still owns it (the ring borrow and
/// these field borrows are disjoint).
pub(super) struct DeliveryCtx<'a> {
    config: &'a MonitorConfig,
    mem: &'a mut MemorySystem,
    lgs: &'a mut [LgThread],
    progress: &'a mut ProgressTable,
    ca_barrier: &'a mut CaBarrier,
    ca_policy: &'a CaPolicy,
    versions: &'a paralog_meta::VersionTable,
    violations: &'a mut Vec<Violation>,
}

impl<'w> Sim<'w> {
    /// One step of lifeguard engine `li` (parallel: lifeguard thread `li`
    /// paired with application thread `li`; timesliced: the single engine).
    pub(super) fn step_lg(&mut self, li: usize) {
        let entity = match self.config.mode {
            MonitoringMode::Timesliced => 1,
            _ => self.k + li,
        };
        if self.lgs[li].finished {
            self.sched.finish(entity);
            return;
        }
        let ring_idx = if self.config.mode == MonitoringMode::Timesliced {
            0
        } else {
            li
        };

        // Is there a record to look at?
        let Some(head) = self.rings[ring_idx].peek() else {
            if self.rings[ring_idx].is_closed() {
                self.finish_lg(li, entity);
            } else {
                // The lifeguard has caught up with its application thread.
                // Holding IT rows now only suppresses our advertised
                // progress (and can deadlock a remote lifeguard whose arc
                // targets a held record while our thread is blocked on it
                // transitively): flush and publish accurate progress — the
                // idle-time analogue of §4.2's stall-flush rule.
                let flush_cycles = self.flush_and_advertise(li, Rid::ZERO);
                let q = self.machine.poll_quantum;
                self.lgs[li].buckets.useful += flush_cycles;
                self.lgs[li].buckets.wait_application += q;
                self.sched.advance(entity, q + flush_cycles);
            }
            return;
        };

        // --- gating (parallel mode only; a timesliced stream is already a
        // total order) -----------------------------------------------------
        if self.config.mode == MonitoringMode::Parallel {
            // ConflictAlert barrier (§5.4).
            if let EventPayload::Ca(ca) = &head.payload {
                let ca = *ca;
                if ca.seq != u64::MAX
                    && self.config.ca_mode == CaMode::Barrier
                    && self.ca_policy.actions(ca.what, ca.phase).barrier
                {
                    self.ca_barrier.arrive(ca.seq, ThreadId(li as u16));
                    if !self
                        .ca_barrier
                        .may_pass(ca.seq, ThreadId(li as u16), ca.issuer)
                    {
                        self.dependence_stall(li, entity);
                        return;
                    }
                }
            }
            // Dependence arcs (§5.2).
            let head = self.rings[ring_idx].peek().expect("still buffered");
            if let Gate::Blocked { .. } = self.lgs[li].enforcer.gate(head, &self.progress) {
                self.dependence_stall(li, entity);
                return;
            }
            // TSO versioned metadata (§5.5) never blocks: if the producer
            // has not yet produced, it also has not applied its store, and
            // every later write to the range is gated behind its progress —
            // the live shadow is still the correct pre-store state. The
            // consume below simply prefers the snapshot when it exists.
        }

        // --- deliverable: process in place, then discard (zero-copy) -------
        let tag = match self.config.mode {
            MonitoringMode::Timesliced => {
                let t = self.ring_tags.pop_front().expect("tag per record");
                self.ts_outstanding[t] -= 1;
                t
            }
            _ => li,
        };
        let mut ctx = DeliveryCtx {
            config: &self.config,
            mem: &mut self.mem,
            lgs: &mut self.lgs,
            progress: &mut self.progress,
            ca_barrier: &mut self.ca_barrier,
            ca_policy: &self.ca_policy,
            versions: &self.versions,
            violations: &mut self.metrics.violations,
        };
        // Collection takes each record as its lifeguard does: every §5.5
        // annotation lands while a record is staged or in its ring, so the
        // one clone here is the finished record.
        let collected = self.collected.as_mut();
        let cycles = self.rings[ring_idx]
            .pop_with(|rec| {
                if let Some(collected) = collected {
                    collected[li].push(rec.clone());
                }
                ctx.process_record(li, tag, rec)
            })
            .expect("peeked");
        self.lgs[li].buckets.useful += cycles;
        self.sched.advance(entity, cycles);
    }

    /// §4.2's no-deadlock rule: on a dependence stall, flush the IT table
    /// (delivering pending rows) and publish accurate progress, then wait.
    fn dependence_stall(&mut self, li: usize, entity: usize) {
        // §5.2: the consumer spins re-reading the progress counter — a
        // cached location — far faster than the application-side poll.
        let q = self.config.cost.stall_poll.max(1);
        let flush_cycles = self.flush_and_advertise(li, Rid::ZERO);
        self.lgs[li].enforcer.record_stall();
        self.lgs[li].buckets.useful += flush_cycles;
        self.lgs[li].buckets.wait_dependence += q;
        self.sched.advance(entity, q + flush_cycles);
    }

    fn finish_lg(&mut self, li: usize, entity: usize) {
        let floor = self.app[li].rid;
        let cycles = self.flush_and_advertise(li, floor);
        self.lgs[li].buckets.useful += cycles;
        self.sched.advance(entity, cycles.max(1));
        self.lgs[li].finished = true;
        self.sched.finish(entity);
    }

    /// What engine `li` does whenever it stops short of a record — idle,
    /// stalled or finished: deliver every memory row its IT table still
    /// holds, then (parallel mode) advertise its accurate progress, at least
    /// `floor`. Returns the cycles the flush cost.
    fn flush_and_advertise(&mut self, li: usize, floor: Rid) -> u64 {
        let mut cycles = 0;
        if self.config.accelerators && self.lgs[li].it.live_mem_rows() > 0 {
            let tag = self.lgs[li].last_tag.unwrap_or(li);
            cycles = flush_it(
                &mut self.lgs[li],
                FlushReason::DependenceStall,
                tag,
                &mut self.mem,
                &self.config.cost,
                self.progress.get(ThreadId(li as u16)),
                &mut self.metrics.violations,
            );
        }
        if self.config.mode == MonitoringMode::Parallel {
            let accurate = floor.max(self.lgs[li].it.advertisable_progress());
            advertise_ahead(&mut self.progress, li, accurate);
        }
        cycles
    }
}

impl LgThread {
    /// The engine's ops buffer, empty; [`LgThread::restore_ops`] gives it
    /// back so its capacity serves the next record.
    fn take_ops(&mut self) -> Vec<MetaOp> {
        std::mem::take(&mut self.ops)
    }

    fn restore_ops(&mut self, mut ops: Vec<MetaOp>) {
        ops.clear();
        self.ops = ops;
    }

    /// The engine's handler context, clear; [`charge_ctx`] gives it back.
    fn take_ctx(&mut self) -> HandlerCtx {
        std::mem::take(&mut self.ctx)
    }
}

impl<'a> DeliveryCtx<'a> {
    /// Processes one ring-resident record (borrowed, never copied); returns
    /// the cycles it cost.
    ///
    /// Records that deliver nothing (IT-absorbed, IF-filtered, or simply not
    /// subscribed by the lifeguard's event view) are near-free: the event
    /// mux in hardware retires several per cycle, modeled by batching
    /// [`LgThread::skip_credit`].
    fn process_record(&mut self, li: usize, tag: usize, rec: &EventRecord) -> u64 {
        let cost = self.config.cost;
        let accel = self.config.accelerators;
        let mut cycles = 0;
        let rid = rec.rid;

        // Timesliced context switch: IT rows describe the previous thread's
        // registers; materialize them into that thread's lifeguard first.
        if self.config.mode == MonitoringMode::Timesliced {
            if let Some(prev) = self.lgs[li].last_tag {
                if prev != tag && accel && self.lgs[li].it.live_rows() > 0 {
                    cycles += flush_it(
                        &mut self.lgs[li],
                        FlushReason::ContextSwitch,
                        prev,
                        self.mem,
                        &cost,
                        rid,
                        self.violations,
                    );
                }
            }
        }
        self.lgs[li].last_tag = Some(tag);

        // TSO: produce versions before the record's own effect (§5.5).
        for (vid, mem, consumers) in rec.produce_versions() {
            if accel {
                let mut flushed = self.lgs[li].take_ops();
                self.lgs[li].it.flush_overlapping_public(*mem, &mut flushed);
                cycles += deliver_ops(
                    &mut self.lgs[li],
                    tag,
                    self.mem,
                    &cost,
                    accel,
                    &flushed,
                    rid,
                    &None,
                    self.violations,
                );
                self.lgs[li].restore_ops(flushed);
            }
            let range = mem.range();
            let snapshot = self.lgs[li].lg(tag).snapshot_meta(range);
            self.versions.produce(*vid, range, snapshot, *consumers);
            cycles += cost.propagation_handler;
        }

        // The versioned snapshot this record consumes, if any. An absent
        // version means the producer has not reached its store yet: the live
        // shadow is still pre-store, so reading it directly is correct (the
        // bypass is recorded so the eventual snapshot retires properly).
        let versioned: Option<(AddrRange, Vec<u8>)> = rec.consume_version().and_then(|(vid, _)| {
            let got = self.versions.consume(vid);
            if got.is_none() {
                self.versions.bypass(vid);
            }
            got
        });

        match rec.payload {
            EventPayload::Instr(instr) => {
                // Syscall race detection against the range table (§5.4).
                if let Some((mem, _)) = instr.mem_access() {
                    let hit = self.lgs[li]
                        .range_table
                        .check(ThreadId(tag as u16), mem.range());
                    if let Some(entry) = hit {
                        let mut ctx = self.lgs[li].take_ctx();
                        self.lgs[li]
                            .lg(tag)
                            .on_syscall_race(mem.range(), &entry, rid, &mut ctx);
                        cycles += charge_ctx(
                            &mut self.lgs[li],
                            self.mem,
                            &cost,
                            rid,
                            ctx,
                            self.violations,
                        );
                    }
                }
                let view = self.lgs[li].lg_ref(tag).spec().view;
                let uses_it = self.lgs[li].lg_ref(tag).spec().uses_it;
                let uses_if = self.lgs[li].lg_ref(tag).spec().uses_if;
                let mut ops = self.lgs[li].take_ops();
                match view {
                    EventView::Dataflow => {
                        if accel && uses_it {
                            if let Some((_, mem)) = rec.consume_version() {
                                // §5.5: deliver versioned accesses directly,
                                // materializing same-address rows first. The
                                // delivery bypasses the IT table, so (i)
                                // rows of the instruction's *source*
                                // registers must be materialized (their
                                // lifeguard-side state is stale while held)
                                // and (ii) the destination's stale row must
                                // be dropped — the direct delivery updates
                                // the lifeguard's register state.
                                self.lgs[li].it.flush_overlapping_public(mem, &mut ops);
                                for src in instr.src_regs().into_iter().flatten() {
                                    self.lgs[li].it.flush_reg_public(src, &mut ops);
                                }
                                ops.extend(dataflow_view(&instr));
                                if let Some(dst) = instr.dst_reg() {
                                    self.lgs[li].it.clear_reg(dst);
                                }
                                self.lgs[li].it.note_processed(rid);
                            } else {
                                self.lgs[li].it.process(&instr, rid, &mut ops);
                                if ops.is_empty() {
                                    cycles += cost.it_absorb;
                                }
                            }
                        } else {
                            ops.extend(dataflow_view(&instr));
                        }
                    }
                    EventView::Check => {
                        if let Some(op) = check_view(&instr) {
                            let filtered = if accel && uses_if && rec.consume_version().is_none() {
                                if let MetaOp::CheckAccess { mem, kind } = op {
                                    self.lgs[li].ifilter.filter(mem, kind)
                                } else {
                                    false
                                }
                            } else {
                                false
                            };
                            if filtered {
                                cycles += cost.if_hit;
                            } else {
                                ops.push(op);
                            }
                        }
                        if accel && uses_it {
                            self.lgs[li].it.note_processed(rid);
                        }
                    }
                }
                cycles += deliver_ops(
                    &mut self.lgs[li],
                    tag,
                    self.mem,
                    &cost,
                    accel,
                    &ops,
                    rid,
                    &versioned,
                    self.violations,
                );
                self.lgs[li].restore_ops(ops);
            }
            EventPayload::Ca(ca) => {
                cycles += self.process_ca(li, tag, rid, ca);
            }
        }

        if cycles == 0 {
            // Skipped record: batch four skips per cycle.
            self.lgs[li].skip_credit += 1;
            if self.lgs[li].skip_credit >= 4 {
                self.lgs[li].skip_credit = 0;
                cycles = 1;
            }
        } else {
            cycles += cost.record_drain;
        }

        // Advertise progress — delayed by IT-held state (§4.2).
        if self.config.mode == MonitoringMode::Parallel {
            let uses_it = self.lgs[li].lg_ref(tag).spec().uses_it;
            let adv = if accel && uses_it {
                self.lgs[li].it.note_processed(rid);
                if self.config.delayed_advertising {
                    self.lgs[li].it.advertisable_progress()
                } else {
                    // Unsound ablation: ignore IT-held state (Figure 3's
                    // remote conflict becomes reachable).
                    rid
                }
            } else {
                rid
            };
            advertise_ahead(self.progress, li, adv);
        }
        cycles
    }

    fn process_ca(&mut self, li: usize, tag: usize, rid: Rid, ca: CaRecord) -> u64 {
        let cost = self.config.cost;
        let accel = self.config.accelerators;
        let mut cycles = cost.ca_handler;
        let actions = self.ca_policy.actions(ca.what, ca.phase);

        if accel && actions.flush_it && self.lgs[li].it.live_mem_rows() > 0 {
            cycles += flush_it(
                &mut self.lgs[li],
                FlushReason::ConflictAlert,
                tag,
                self.mem,
                &cost,
                rid,
                self.violations,
            );
        }
        if accel && actions.flush_if {
            match ca.range {
                Some(range) => self.lgs[li].ifilter.invalidate_range(range),
                None => self.lgs[li].ifilter.invalidate_all(),
            }
        }
        if accel && actions.flush_mtlb {
            match ca.range {
                Some(range) => self.lgs[li].mtlb.flush_range(range),
                None => self.lgs[li].mtlb.flush_all(),
            }
        }
        if actions.track_range {
            self.lgs[li].range_table.on_ca(&ca);
        }

        let own = ca.issuer.index() == tag;
        let mut ctx = self.lgs[li].take_ctx();
        self.lgs[li].lg(tag).handle_ca(&ca, own, rid, &mut ctx);
        if own {
            if let Some(range) = ca.range {
                cycles += cost.ca_per_16_bytes * range.len.div_ceil(16);
            }
        }
        cycles += charge_ctx(
            &mut self.lgs[li],
            self.mem,
            &cost,
            rid,
            ctx,
            self.violations,
        );
        if own
            && ca.seq != u64::MAX
            && self.config.mode == MonitoringMode::Parallel
            && self.config.ca_mode == CaMode::Barrier
            && actions.barrier
        {
            self.ca_barrier.mark_applied(ca.seq);
        }
        if accel {
            self.lgs[li].it.note_processed(rid);
        }
        cycles
    }
}

/// Delivers one ingested (replayed) record to thread `t`'s lifeguard:
/// produce/consume version bookkeeping (§5.5), syscall range-table policing
/// (§5.4), view decoding and the handler call — the ingestion mirror of
/// [`DeliveryCtx::process_record`], minus accelerators and cycle
/// accounting. Called by the deterministic backend's streaming replay loop
/// once a record's arcs are satisfied.
///
/// # Errors
///
/// [`MalformedStream`] for a produce annotation the version table rejects (see
/// [`produce_versions`](crate::session::produce_versions)).
///
/// [`MalformedStream`]: crate::session::SessionError::MalformedStream
#[allow(clippy::too_many_arguments)] // the replay loop's split borrows
pub(crate) fn deliver_ingested(
    rec: &EventRecord,
    t: usize,
    lgs: &mut [Box<dyn paralog_lifeguards::Lifeguard>],
    range_table: &mut paralog_order::RangeTable,
    versions: &paralog_meta::VersionTable,
    ca_policy: &CaPolicy,
    violations: &mut Vec<Violation>,
    delivered_ops: &mut u64,
) -> Result<(), crate::session::SessionError> {
    let lg = &mut lgs[t];
    let rid = rec.rid;
    crate::session::produce_versions(versions, t, rec, |range| lg.snapshot_meta(range))?;
    let versioned: Option<(AddrRange, Vec<u8>)> = rec.consume_version().and_then(|(vid, _)| {
        let got = versions.consume(vid);
        if got.is_none() {
            versions.bypass(vid);
        }
        got
    });
    match &rec.payload {
        EventPayload::Instr(instr) => {
            if let Some((mem, _)) = instr.mem_access() {
                if let Some(entry) = range_table.check(ThreadId(t as u16), mem.range()) {
                    let mut ctx = HandlerCtx::new();
                    lg.on_syscall_race(mem.range(), &entry, rid, &mut ctx);
                    violations.append(&mut ctx.violations);
                }
            }
            let op = match lg.spec().view {
                EventView::Dataflow => dataflow_view(instr),
                EventView::Check => check_view(instr),
            };
            if let Some(op) = op {
                let mut ctx = HandlerCtx::new();
                ctx.inject_versioned(&op, versioned.as_ref());
                lg.handle(&op, rid, &mut ctx);
                violations.append(&mut ctx.violations);
                *delivered_ops += 1;
            }
        }
        EventPayload::Ca(ca) => {
            let actions = ca_policy.actions(ca.what, ca.phase);
            if actions.track_range {
                range_table.on_ca(ca);
            }
            let own = ca.issuer.index() == t;
            let mut ctx = HandlerCtx::new();
            lg.handle_ca(ca, own, rid, &mut ctx);
            violations.append(&mut ctx.violations);
            *delivered_ops += 1;
        }
    }
    Ok(())
}

/// Advertises `rid` as thread `li`'s progress when it is ahead of what is
/// advertised: delayed advertising (§4.2) may hold progress back, never
/// move it backwards.
fn advertise_ahead(progress: &mut ProgressTable, li: usize, rid: Rid) {
    let t = ThreadId(li as u16);
    if rid > progress.get(t) {
        progress.advertise(t, rid);
    }
}

/// Flushes every IT row of `lgt` for `reason` and delivers the materialized
/// ops as `tag`'s at `rid`; returns the cycles they cost.
fn flush_it(
    lgt: &mut LgThread,
    reason: FlushReason,
    tag: usize,
    mem: &mut MemorySystem,
    cost: &CostModel,
    rid: Rid,
    violations: &mut Vec<Violation>,
) -> u64 {
    let mut ops = lgt.take_ops();
    lgt.it.flush_all(reason, &mut ops);
    let cycles = deliver_ops(lgt, tag, mem, cost, true, &ops, rid, &None, violations);
    lgt.restore_ops(ops);
    cycles
}

/// Delivers each of `ops` in turn ([`deliver_op`]); returns the cycles they
/// cost.
#[allow(clippy::too_many_arguments)] // mirrors the hardware ports it models
fn deliver_ops(
    lgt: &mut LgThread,
    tag: usize,
    mem: &mut MemorySystem,
    cost: &CostModel,
    accel: bool,
    ops: &[MetaOp],
    rid: Rid,
    versioned: &Option<(AddrRange, Vec<u8>)>,
    violations: &mut Vec<Violation>,
) -> u64 {
    let mut cycles = 0;
    for op in ops {
        cycles += deliver_op(lgt, tag, mem, cost, accel, op, rid, versioned, violations);
    }
    cycles
}

/// Delivers one metadata op to the lifeguard: dispatch + handler cost,
/// metadata address computation (M-TLB or two-level walk), handler
/// execution, metadata cache accesses and slow-path synchronization.
#[allow(clippy::too_many_arguments)] // mirrors the hardware ports it models
fn deliver_op(
    lgt: &mut LgThread,
    tag: usize,
    mem: &mut MemorySystem,
    cost: &CostModel,
    accel: bool,
    op: &MetaOp,
    rid: Rid,
    versioned: &Option<(AddrRange, Vec<u8>)>,
    violations: &mut Vec<Violation>,
) -> u64 {
    let mut cycles = cost.op_cost(op);
    let uses_mtlb = lgt.lg_ref(tag).spec().uses_mtlb;
    let mut ctx = lgt.take_ctx();
    // Only the op reading the versioned location uses the snapshot.
    ctx.inject_versioned(op, versioned.as_ref());
    lgt.lg(tag).handle(op, rid, &mut ctx);
    // Metadata address computation: charged per operand when the handler
    // reached metadata; a NULL first-level entry (address outside tracked
    // space) is a one-cycle early exit regardless of the M-TLB.
    let operands = usize::from(op.mem_src().is_some()) + usize::from(op.mem_dst().is_some());
    if ctx.meta_touches.is_empty() {
        cycles += operands.min(1) as u64;
    } else {
        for operand in [op.mem_src(), op.mem_dst()].into_iter().flatten() {
            if accel && uses_mtlb {
                if lgt.mtlb.lookup(operand.addr) {
                    cycles += cost.mtlb_hit;
                } else {
                    cycles += cost.meta_addr_walk;
                }
            } else {
                cycles += cost.meta_addr_walk;
            }
        }
    }
    lgt.delivered_ops += 1;
    cycles + charge_ctx(lgt, mem, cost, rid, ctx, violations)
}

/// Charges a handler context's side effects: metadata cache traffic,
/// slow-path synchronization, and collects violations. Gives `ctx` back to
/// `lgt` for its next delivery.
fn charge_ctx(
    lgt: &mut LgThread,
    mem: &mut MemorySystem,
    cost: &CostModel,
    rid: Rid,
    mut ctx: HandlerCtx,
    violations: &mut Vec<Violation>,
) -> u64 {
    let mut cycles = 0;
    for (range, is_write) in &ctx.meta_touches {
        let kind = if *is_write {
            paralog_events::AccessKind::Write
        } else {
            paralog_events::AccessKind::Read
        };
        let res = mem.access(lgt.core, rid, range.start, range.len.max(1), kind);
        cycles += res.latency;
    }
    if ctx.slow_path {
        cycles += cost.slow_path_sync;
    }
    violations.append(&mut ctx.violations);
    ctx.clear();
    lgt.ctx = ctx;
    cycles
}

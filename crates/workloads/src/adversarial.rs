//! Adversarial captured-stream presets: workloads engineered to drive one
//! substrate to its known bound.
//!
//! The benchmark generators in [`gen`](crate::gen) reproduce *realistic*
//! monitoring pressure; these presets do the opposite — each one is a
//! hand-shaped event capture that concentrates all of its traffic on a
//! single reclamation or ordering mechanism, so the mechanism's bound can
//! be asserted as a regression test (see `tests/soak.rs`):
//!
//! | preset | mechanism stressed | bound asserted |
//! |---|---|---|
//! | [`cycle_lock_masks`] | LOCKSET mask interner churn | `peak_interned_masks` stays window-bounded, no degradation |
//! | [`exhaust_read_vcs`] | HAPPENSBEFORE read-VC interner exhaustion | exactly one `DegradedPrecision` per session |
//! | [`rid_sweep`] | §5.5 version-table residency over sparse rids | `peak_outstanding` stays at the producer lead however far the rids span |
//! | [`arc_fanout`] | §5.2 arc gating under fan-in/fan-out storms | replay terminates (no deadlock), stalls observed |
//!
//! Every preset is a pure function of its parameters — no RNG, no ambient
//! state — so the generated streams (and therefore the bounds they probe)
//! are bit-identical across runs.

use paralog_events::{
    AddrRange, ArcKind, CaPhase, CaRecord, DependenceArc, EventRecord, HighLevelKind, Instr,
    LockId, MemRef, Reg, Rid, ThreadId, VersionId,
};

/// A hand-shaped adversarial capture: per-thread event streams plus the
/// statement of the bound the capture is engineered to stress.
#[derive(Debug, Clone)]
pub struct AdversarialCapture {
    /// Preset name (stable, test-facing).
    pub name: &'static str,
    /// The invariant this capture stresses — what a paired test asserts.
    pub bound: &'static str,
    /// Heap region covering every address the streams touch.
    pub heap: AddrRange,
    /// One event stream per monitored thread.
    pub streams: Vec<Vec<EventRecord>>,
}

impl AdversarialCapture {
    /// Total records across all streams.
    pub fn records(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }
}

/// Per-thread rid counter for hand-built streams.
struct RidGen(u64);

impl RidGen {
    fn next(&mut self) -> Rid {
        self.0 += 1;
        Rid(self.0)
    }
}

fn access(rid: Rid, addr: u64, write: bool) -> EventRecord {
    let mem = MemRef::new(addr, 4);
    EventRecord::instr(
        rid,
        if write {
            Instr::Store {
                dst: mem,
                src: Reg::new(0),
            }
        } else {
            Instr::Load {
                dst: Reg::new(0),
                src: mem,
            }
        },
    )
}

/// An own-stream-only lock event (`seq == u64::MAX`: never gates peers).
fn lock(rid: Rid, tid: u16, id: u32, acquire: bool) -> EventRecord {
    EventRecord::ca(
        rid,
        CaRecord {
            what: if acquire {
                HighLevelKind::Lock(LockId(id))
            } else {
                HighLevelKind::Unlock(LockId(id))
            },
            phase: if acquire {
                CaPhase::End
            } else {
                CaPhase::Begin
            },
            range: None,
            issuer: ThreadId(tid),
            issuer_rid: rid,
            seq: u64::MAX,
        },
    )
}

/// A sync-space record for HAPPENSBEFORE: `Store` is the release shape
/// (publish the clock), `Rmw` the acquire shape (join then republish).
fn sync_op(rid: Rid, addr: u64, rmw: bool) -> EventRecord {
    let mem = MemRef::new(addr, 8);
    EventRecord::instr(
        rid,
        if rmw {
            Instr::Rmw {
                mem,
                reg: Reg::new(0),
            }
        } else {
            Instr::Store {
                dst: mem,
                src: Reg::new(0),
            }
        },
    )
}

/// Lock-mask interner cycling: two threads share one fresh variable per
/// iteration under a three-lock combination drawn from cyclic spaces
/// (lcm(11, 13, 7) = 1001 distinct combinations), then refine it down to
/// a single lock — interning one unique mask per iteration and releasing
/// it again. Far more distinct masks cycle through the
/// interner than may ever be resident at once.
pub fn cycle_lock_masks(iterations: u64) -> AdversarialCapture {
    let addr_base = 0x1000_0000u64;
    let mut t0 = Vec::new();
    let mut t1 = Vec::new();
    let (mut r0, mut r1) = (RidGen(0), RidGen(0));
    for i in 0..iterations {
        let combo = [(i % 11) as u32, 11 + (i % 13) as u32, 24 + (i % 7) as u32];
        let addr = addr_base + i * 4;
        for &l in &combo {
            t0.push(lock(r0.next(), 0, l, true));
        }
        t0.push(access(r0.next(), addr, true));
        for &l in &combo {
            t1.push(lock(r1.next(), 1, l, true));
        }
        // The second thread's write takes the variable shared-modified with
        // the full combination as its interned candidate set.
        t1.push(access(r1.next(), addr, true));
        // Refine to the surviving single lock, releasing the iteration's
        // unique combination id.
        t0.push(lock(r0.next(), 0, combo[1], false));
        t0.push(lock(r0.next(), 0, combo[2], false));
        t0.push(access(r0.next(), addr, true));
        t0.push(lock(r0.next(), 0, combo[0], false));
        for &l in &combo {
            t1.push(lock(r1.next(), 1, l, false));
        }
    }
    AdversarialCapture {
        name: "cycle_lock_masks",
        bound: "LOCKSET peak_interned_masks stays bounded (and precision intact) while \
                cycling far more distinct lock combinations than the 2^16 id space",
        heap: AddrRange::new(addr_base, iterations.max(1) * 4),
        streams: vec![t0, t1],
    }
}

/// Read-VC interner exhaustion: thread 0 bumps its vector clock before
/// each fresh word (a release in `sync_space`), then both threads read the
/// word and never write it — every word pins a *distinct* two-reader
/// vector clock live forever. `words > 2^16` therefore saturates the
/// HAPPENSBEFORE interner, which must degrade soundly with exactly one
/// `DegradedPrecision` diagnostic.
///
/// `sync_space` is the lifeguard's sync-address window (pass
/// `lockset::SYNC_SPACE_START`); the generator is deliberately decoupled
/// from the lifeguard crate.
pub fn exhaust_read_vcs(words: u64, sync_space: u64) -> AdversarialCapture {
    let word_base = 0x0100_0000u64;
    let mut t0 = Vec::with_capacity(2 * words as usize);
    let mut t1 = Vec::with_capacity(words as usize);
    let (mut r0, mut r1) = (RidGen(0), RidGen(0));
    for i in 0..words {
        let addr = word_base + i * 4;
        t0.push(sync_op(r0.next(), sync_space, false));
        t0.push(access(r0.next(), addr, false));
        t1.push(access(r1.next(), addr, false));
    }
    AdversarialCapture {
        name: "exhaust_read_vcs",
        bound: "HAPPENSBEFORE reports exactly one DegradedPrecision when an adversary \
                pins more live read VCs than the 2^16 id space",
        heap: AddrRange::new(word_base, words.max(1) * 4),
        streams: vec![t0, t1],
    }
}

/// §5.5 version churn over a sparse rid space: thread 0 stores a shared
/// word, producing one single-consumer version per store; thread 1's
/// consuming loads carry rids `stride` apart, so `versions` of them span
/// `versions * stride` record ids. Storage indexed by rid would grow with
/// that span; the version table's residency follows the outstanding set,
/// not the rid span, so it must stay at the producer/consumer lead.
pub fn rid_sweep(versions: u64, stride: u64) -> AdversarialCapture {
    let shared = 0x2000_0000u64;
    let mem = MemRef::new(shared, 4);
    let mut t0 = Vec::with_capacity(versions as usize);
    let mut t1 = Vec::with_capacity(versions as usize);
    let mut r0 = RidGen(0);
    for c in 0..versions {
        let consumer_rid = Rid(c * stride + 1);
        let vid = VersionId {
            consumer: ThreadId(1),
            consumer_rid,
        };
        let mut prod = access(r0.next(), shared, true);
        prod.push_produce_version(vid, mem, 1);
        t0.push(prod);
        let mut cons = access(consumer_rid, shared, false);
        cons.set_consume_version(vid, mem);
        t1.push(cons);
    }
    AdversarialCapture {
        name: "rid_sweep",
        bound: "version-table peak_outstanding stays at the producer lead: residency \
                follows the outstanding set, not the rid span",
        heap: AddrRange::new(shared, 4),
        streams: vec![t0, t1],
    }
}

/// §5.2 arc storm: one hub thread and `spokes` spoke threads. Every round,
/// each spoke's access carries a RAW arc from the hub's write (fan-out),
/// and the hub's next write carries WAR arcs from two rotating spokes
/// (fan-in) — so nearly every record in the capture is gated on a peer.
/// The storm must replay to completion (round-robin over gated lanes,
/// no deadlock) on every backend.
pub fn arc_fanout(spokes: u16, rounds: u64) -> AdversarialCapture {
    assert!(spokes >= 2, "a storm needs at least two spokes");
    let shared = 0x3000_0000u64;
    let hub = ThreadId(0);
    let mut hub_stream: Vec<EventRecord> = Vec::with_capacity(rounds as usize);
    let mut spoke_streams: Vec<Vec<EventRecord>> =
        vec![Vec::with_capacity(rounds as usize); spokes as usize];
    let mut hub_rid = RidGen(0);
    let mut spoke_rids: Vec<RidGen> = (0..spokes).map(|_| RidGen(0)).collect();
    for round in 0..rounds {
        let write_rid = hub_rid.next();
        let mut write = access(write_rid, shared, true);
        if round > 0 {
            // Fan-in: the hub waits on two rotating spokes' previous-round
            // reads before overwriting.
            for k in 0..2u64 {
                let s = ((round + k) % spokes as u64) as usize;
                write.arcs.push(DependenceArc::new(
                    ThreadId((s + 1) as u16),
                    Rid(spoke_rids[s].0),
                    ArcKind::War,
                ));
            }
        }
        hub_stream.push(write);
        // Fan-out: every spoke's read waits on this round's hub write.
        for (s, stream) in spoke_streams.iter_mut().enumerate() {
            let mut read = access(spoke_rids[s].next(), shared, false);
            read.arcs
                .push(DependenceArc::new(hub, write_rid, ArcKind::Raw));
            stream.push(read);
        }
    }
    let mut streams = vec![hub_stream];
    streams.extend(spoke_streams);
    AdversarialCapture {
        name: "arc_fanout",
        bound: "replay terminates without deadlock while nearly every record gates on \
                a peer (fan-out to all spokes, fan-in from rotating spokes)",
        heap: AddrRange::new(shared, 4),
        streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_pure_functions_of_parameters() {
        assert_eq!(
            cycle_lock_masks(50).streams,
            cycle_lock_masks(50).streams,
            "no ambient state may leak into a preset"
        );
        assert_eq!(
            arc_fanout(3, 20).streams,
            arc_fanout(3, 20).streams,
            "arc storms are deterministic"
        );
    }

    #[test]
    fn rids_are_strictly_monotone_per_stream() {
        for cap in [
            cycle_lock_masks(40),
            exhaust_read_vcs(100, 0xFFFF_0000),
            rid_sweep(64, 128),
            arc_fanout(4, 50),
        ] {
            for (t, stream) in cap.streams.iter().enumerate() {
                let mut last = 0u64;
                for rec in stream {
                    assert!(
                        rec.rid.0 > last,
                        "{}: thread {t} rid {} after {last}",
                        cap.name,
                        rec.rid.0
                    );
                    last = rec.rid.0;
                }
            }
            assert!(cap.records() > 0, "{}: empty capture", cap.name);
        }
    }

    #[test]
    fn fanout_arcs_reference_existing_records() {
        let cap = arc_fanout(4, 100);
        for (t, stream) in cap.streams.iter().enumerate() {
            for rec in stream {
                for arc in rec.arcs.iter() {
                    let src = arc.src.index();
                    assert_ne!(src, t, "self-arcs are meaningless");
                    let peer_max = cap.streams[src].last().expect("nonempty").rid;
                    assert!(
                        arc.src_rid <= peer_max,
                        "arc to T{src}#{} past its stream end {}",
                        arc.src_rid.0,
                        peer_max.0
                    );
                }
            }
        }
    }

    #[test]
    fn rid_sweep_versions_pair_up() {
        let cap = rid_sweep(32, 128);
        let produced: Vec<VersionId> = cap.streams[0]
            .iter()
            .flat_map(|r| r.produce_versions().iter().map(|(v, _, _)| *v))
            .collect();
        let consumed: Vec<VersionId> = cap.streams[1]
            .iter()
            .filter_map(|r| r.consume_version().map(|(v, _)| v))
            .collect();
        assert_eq!(produced, consumed, "every version has exactly one consumer");
        assert_eq!(produced.len(), 32);
        for pair in consumed.windows(2) {
            assert_eq!(pair[1].consumer_rid.0 - pair[0].consumer_rid.0, 128);
        }
    }
}

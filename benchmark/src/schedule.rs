//! The causal frame schedule: the order in which a live multi-core producer
//! would hand a capture's bytes to the socket.
//!
//! Frames are cut on record boundaries, `frame_records` per thread per
//! frame round. A round is then trimmed to a fixed point so that no record
//! in it waits on a peer record that only a *later* round carries: a live
//! application cannot log the consumer of a value before its producer.
//! (Byte-chunked round-robin is not such an order. It can park a lane on a
//! record still in the socket while that session sits above the daemon's
//! buffering cap, which the pump then never reads again.)

use crate::capture::Capture;
use paralog::daemon::proto;
use paralog::events::{EventPayload, EventRecord};
use std::ops::Range;

/// The peer records `record` (of thread `tid`) cannot be applied before:
/// its dependence-arc sources and, for a remote ConflictAlert copy, the
/// issuer's own copy. Over-approximates the daemon's gates (it ignores the
/// lifeguard's CA policy), which only ever trims a round earlier.
pub fn peer_dependences(
    record: &EventRecord,
    tid: usize,
) -> impl Iterator<Item = (usize, u64)> + '_ {
    let ca = match &record.payload {
        EventPayload::Ca(ca) if ca.seq != u64::MAX && ca.issuer.index() != tid => {
            Some((ca.issuer.index(), ca.issuer_rid.0))
        }
        _ => None,
    };
    record
        .arcs
        .iter()
        .map(|arc| (arc.src.index(), arc.src_rid.0))
        .filter(move |(src, _)| *src != tid)
        .chain(ca)
}

/// Frame rounds over one capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// `ends[r][t]`: records of thread `t` sent once round `r` is out.
    /// Non-decreasing in `r`; the last round ends at every stream's length.
    pub ends: Vec<Vec<usize>>,
}

impl Schedule {
    /// Cuts `capture` into causal frame rounds of at most `frame_records`
    /// records per thread.
    ///
    /// # Panics
    ///
    /// Panics if `frame_records` is zero, or if the capture is not causal
    /// (some record depends on a peer record that can never precede it) —
    /// the co-simulation cannot produce such a capture.
    pub fn causal(capture: &Capture, frame_records: usize) -> Schedule {
        assert!(frame_records > 0, "a frame carries at least one record");
        let threads = capture.threads();
        let mut sent = vec![0usize; threads];
        let mut ends = Vec::new();
        while (0..threads).any(|t| sent[t] < capture.streams[t].len()) {
            let mut end: Vec<usize> = (0..threads)
                .map(|t| (sent[t] + frame_records).min(capture.streams[t].len()))
                .collect();
            // Trim to the greatest fixed point: cutting one thread short can
            // strand a peer's record, so repeat until nothing moves.
            loop {
                let mut trimmed = false;
                for t in 0..threads {
                    let stranded = (sent[t]..end[t]).find(|&i| {
                        peer_dependences(&capture.streams[t][i], t).any(|(src, rid)| {
                            // A source below the stream's first rid is
                            // already satisfied; one past its end never is.
                            match capture.index_of(src, rid) {
                                Some(index) => index >= end[src],
                                None => capture.streams[src].last().is_some_and(|l| rid > l.rid.0),
                            }
                        })
                    });
                    if let Some(i) = stranded {
                        end[t] = i;
                        trimmed = true;
                    }
                }
                if !trimmed {
                    break;
                }
            }
            assert!(
                end != sent,
                "capture is not causal: no thread can advance past {sent:?}"
            );
            sent.clone_from(&end);
            ends.push(end);
        }
        Schedule { ends }
    }

    /// The frame round that carries record `index` of thread `tid`.
    pub fn round_of(&self, tid: usize, index: usize) -> usize {
        self.ends.partition_point(|end| end[tid] <= index)
    }

    /// Records (all threads) carried by rounds `0..=round`.
    pub fn records_through(&self, round: usize) -> usize {
        self.ends[round].iter().sum()
    }

    /// `ranges[r][t]`: the slice of `capture.wire[t]` that round `r` carries
    /// (empty when the round has no record of thread `t`).
    pub fn payload_ranges(&self, capture: &Capture) -> Vec<Vec<Range<usize>>> {
        let byte_end = |t: usize, records: usize| match records {
            0 => 0,
            n => capture.record_ends[t][n - 1],
        };
        let mut sent = vec![0usize; capture.threads()];
        self.ends
            .iter()
            .map(|end| {
                let ranges = (0..capture.threads())
                    .map(|t| byte_end(t, sent[t])..byte_end(t, end[t]))
                    .collect();
                sent.clone_from(end);
                ranges
            })
            .collect()
    }

    /// Renders each round's socket bytes: one data frame per thread that has
    /// records in the round, in thread order. The end-all frame is not
    /// included.
    pub fn render(&self, capture: &Capture) -> Vec<Vec<u8>> {
        self.payload_ranges(capture)
            .into_iter()
            .map(|ranges| {
                let mut bytes = Vec::new();
                for (t, range) in ranges.into_iter().enumerate() {
                    if !range.is_empty() {
                        let frame = proto::data_frame(t as u16, &capture.wire[t][range]);
                        bytes.extend_from_slice(&frame);
                    }
                }
                bytes
            })
            .collect()
    }
}

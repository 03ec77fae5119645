//! Property test for the byte shadow: random interleavings of
//! `fill_range`/`join_range`/`eq_range`/`snapshot` on `AtomicShadow` must
//! agree with a naive `BTreeMap<Addr, u8>` reference model, and
//! `fingerprint`, taken at random points and at the end, with the model's,
//! on an address domain that hugs every seam of the chunk directory
//! underneath. A fingerprint mid-run reads lines that were marked, zeroed
//! and perhaps refilled since.

use paralog::meta::{AtomicShadow, Fingerprint};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Application bytes per shadow chunk.
const CHUNK: u64 = 64 * 1024;

/// Low address domain spanning several chunks of one directory table.
const SPAN: u64 = CHUNK * 3 + 128;

/// Where the directory changes shape: a table seam (chunk index a multiple
/// of 512), the dense/spill boundary at 8 GiB, and the simulator's far
/// sentinel, a page short of a chunk boundary deep in the spill tier.
const SEAMS: [u64; 3] = [512 * CHUNK, 1 << 33, 0xFFF_FFFF_F000];

/// Half-width of the address window around each seam (ranges run up to
/// 8 KiB, so most that start below a seam cross it).
const WINDOW: u64 = 4096;

#[derive(Debug, Clone, Copy)]
enum ShadowOp {
    Set { addr: u64, value: u8 },
    SetRange { start: u64, len: u64, value: u8 },
    Get { addr: u64 },
    JoinRange { start: u64, len: u64 },
    EqRange { start: u64, len: u64, value: u8 },
    Snapshot { start: u64, len: u64 },
    Fingerprint,
}

fn op_strategy() -> impl Strategy<Value = ShadowOp> {
    let addr = || {
        prop_oneof![
            2 => 0u64..SPAN,
            1 => (0..SEAMS.len(), 0..2 * WINDOW).prop_map(|(i, off)| SEAMS[i] - WINDOW + off),
        ]
    };
    let len = || {
        prop_oneof![
            4 => 1u64..16,
            2 => 16u64..256,
            1 => 256u64..8192,
        ]
    };
    // Clean stores a quarter of the time, so lines are zeroed and refilled.
    let value = || prop_oneof![1 => Just(0u8), 3 => 0u8..=255];
    prop_oneof![
        3 => (addr(), value()).prop_map(|(addr, value)| ShadowOp::Set { addr, value }),
        3 => (addr(), len(), value())
            .prop_map(|(start, len, value)| ShadowOp::SetRange { start, len, value }),
        2 => addr().prop_map(|addr| ShadowOp::Get { addr }),
        2 => (addr(), len()).prop_map(|(start, len)| ShadowOp::JoinRange { start, len }),
        1 => (addr(), len(), 0u8..=255)
            .prop_map(|(start, len, value)| ShadowOp::EqRange { start, len, value }),
        1 => (addr(), len()).prop_map(|(start, len)| ShadowOp::Snapshot { start, len }),
        1 => Just(ShadowOp::Fingerprint),
    ]
}

/// Reference model: absent key = clean (0).
#[derive(Debug, Default)]
struct Model {
    bytes: BTreeMap<u64, u8>,
}

impl Model {
    fn get(&self, addr: u64) -> u8 {
        self.bytes.get(&addr).copied().unwrap_or(0)
    }

    fn set(&mut self, addr: u64, v: u8) {
        if v == 0 {
            self.bytes.remove(&addr);
        } else {
            self.bytes.insert(addr, v);
        }
    }

    fn join(&self, start: u64, len: u64) -> u8 {
        (start..start + len).fold(0, |a, addr| a | self.get(addr))
    }

    /// Every nonzero byte, and nothing else.
    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        for (&addr, &v) in &self.bytes {
            fp.mix(addr, u64::from(v));
        }
        fp.finish()
    }
}

fn run_ops(ops: &[ShadowOp]) -> Result<(), TestCaseError> {
    let shadow = AtomicShadow::new();
    let mut model = Model::default();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            ShadowOp::Set { addr, value } => {
                shadow.fill_range(addr, 1, value);
                model.set(addr, value);
            }
            ShadowOp::SetRange { start, len, value } => {
                shadow.fill_range(start, len, value);
                for a in start..start + len {
                    model.set(a, value);
                }
            }
            ShadowOp::Get { addr } => {
                prop_assert_eq!(shadow.join_range(addr, 1), model.get(addr), "op#{}", i);
            }
            ShadowOp::JoinRange { start, len } => {
                prop_assert_eq!(
                    shadow.join_range(start, len),
                    model.join(start, len),
                    "op#{}",
                    i
                );
            }
            ShadowOp::EqRange { start, len, value } => {
                let expect = (start..start + len).all(|a| model.get(a) == value);
                prop_assert_eq!(shadow.eq_range(start, len, value), expect, "op#{}", i);
            }
            ShadowOp::Snapshot { start, len } => {
                let want: Vec<u8> = (start..start + len).map(|a| model.get(a)).collect();
                prop_assert_eq!(shadow.snapshot(start, len), want, "op#{}", i);
            }
            ShadowOp::Fingerprint => {
                prop_assert_eq!(shadow.fingerprint(), model.fingerprint(), "op#{}", i);
            }
        }
    }
    // Final full-state agreement.
    prop_assert_eq!(shadow.fingerprint(), model.fingerprint());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shadow_matches_btreemap_model(
        ops in proptest::collection::vec(op_strategy(), 1..100),
    ) {
        run_ops(&ops)?;
    }

    #[test]
    fn boundary_heavy_ops_match_model(
        // Cluster addresses tightly around chunk boundaries and the seams.
        raw in proptest::collection::vec(
            (0usize..6 + SEAMS.len(), 0u64..64, 1u64..200, 0u8..=255, any::<bool>()),
            1..60,
        ),
    ) {
        let ops: Vec<ShadowOp> = raw
            .into_iter()
            .map(|(edge, off, len, value, fill)| {
                let edge = match edge.checked_sub(6) {
                    Some(seam) => SEAMS[seam].next_multiple_of(CHUNK),
                    None => edge as u64 * CHUNK / 2,
                };
                let start = (edge + off).saturating_sub(32);
                if fill {
                    ShadowOp::SetRange { start, len, value }
                } else {
                    ShadowOp::JoinRange { start, len }
                }
            })
            .collect();
        run_ops(&ops)?;
    }
}

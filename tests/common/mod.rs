//! Helpers shared by the integration suites.

// Each suite compiles its own copy of the table and runs a few of its rows.
#[allow(dead_code)]
pub mod parity;

use paralog::lifeguards::{Violation, ViolationKind};

/// `(tid, rid, kind)` of every violation, sorted by thread then record: the
/// form in which two runs' reports are compared.
pub fn violation_keys(violations: &[Violation]) -> Vec<(u16, u64, ViolationKind)> {
    let mut keys: Vec<_> = violations
        .iter()
        .map(|v| (v.tid.0, v.rid.0, v.kind))
        .collect();
    keys.sort_by_key(|&(tid, rid, _)| (tid, rid));
    keys
}

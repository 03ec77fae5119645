//! The parity table's own rows.
//!
//! The table, its six replay drivers and its one definition of agreement
//! are `common/parity.rs`; the suites that named a row's check before the
//! table existed run that row under the old name. The rows here have no
//! such name.

mod common;

use common::parity;

#[test]
fn a_register_byte_out_of_range_is_malformed_on_every_wire_driver() {
    parity::register_out_of_range();
}

#[test]
fn an_arc_storm_replays_alike_on_every_driver() {
    parity::arc_fanout();
}

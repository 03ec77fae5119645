//! Helpers shared by the integration suites.

use paralog::core::FaultyReader;
use std::io::{Cursor, Read};

/// One reader per wire stream that hands out 1–7 bytes per `read`, so
/// nearly every record splits across reads and the decoder's partial-record
/// path runs on every stream.
pub fn short_reads(encoded: Vec<Vec<u8>>) -> Vec<Box<dyn Read + Send>> {
    encoded
        .into_iter()
        .enumerate()
        .map(|(i, bytes)| {
            Box::new(FaultyReader::new(Cursor::new(bytes), i as u64).short_reads())
                as Box<dyn Read + Send>
        })
        .collect()
}

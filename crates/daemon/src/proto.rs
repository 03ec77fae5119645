//! The `paralogd` wire protocol.
//!
//! A data connection carries exactly one session and speaks two phases:
//!
//! 1. **Handshake** — one UTF-8 text line (≤ [`MAX_HANDSHAKE_BYTES`]):
//!
//!    ```text
//!    PARALOG ATTACH v1 name=<token> lifeguard=<token> threads=<n> tso=<0|1> heap=<start>:<len>\n
//!    ```
//!
//!    The daemon answers `OK <session-id>\n` or `ERR <reason>\n` (and drops
//!    the connection on `ERR` — a malformed handshake never takes the
//!    daemon down).
//!
//! 2. **Frames** — binary, each a 6-byte header (`tid: u16 LE`,
//!    `len: u32 LE`) followed by `len` bytes of the per-thread codec wire
//!    stream (the chained-checksum form [`paralog_events::codec`] emits).
//!    `len == 0` marks end-of-thread; the reserved tid [`END_ALL_TID`] with
//!    `len == 0` ends every thread at once. Frame payloads are *transport*
//!    chunks: records may split across frames arbitrarily — the session's
//!    incremental decoder reassembles them.
//!
//! The control connection is line-oriented text both ways: one command per
//! line (`LIST`, `STATUS <id>`, `DETACH <id>`, `WATCH <id>`, `SHUTDOWN`,
//! `PING`), each response a block of lines terminated by a lone `.`.

use paralog_core::BackendMode;
use paralog_events::AddrRange;

/// Handshake size cap: anything longer without a newline is garbage.
pub const MAX_HANDSHAKE_BYTES: usize = 4096;

/// Frame payload cap — a frame is a transport chunk, not a whole capture;
/// anything bigger is a corrupt or hostile header.
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// Reserved tid: a zero-length frame with this tid ends *all* threads.
pub const END_ALL_TID: u16 = u16::MAX;

/// A parsed `PARALOG ATTACH` handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttachRequest {
    /// Producer-chosen session label (shown in `LIST`).
    pub name: String,
    /// Lifeguard to run, resolved in the daemon's registry.
    pub lifeguard: String,
    /// Monitored thread count (one wire stream per thread).
    pub threads: usize,
    /// Whether the capture was taken under TSO (carries §5.5 version
    /// annotations). Informational — the annotations themselves drive
    /// replay — but surfaced in `STATUS`.
    pub tso: bool,
    /// The monitored application's heap region.
    pub heap: AddrRange,
    /// Inert, and not on the wire. Kept only because the frozen
    /// `benchmark/src/driver.rs` fills it in a struct literal; the next
    /// `benchmark`-archetype PR removes it.
    pub mode: BackendMode,
}

impl AttachRequest {
    /// Renders the handshake line (without the trailing newline).
    pub fn to_line(&self) -> String {
        format!(
            "PARALOG ATTACH v1 name={} lifeguard={} threads={} tso={} heap={}:{}",
            self.name,
            self.lifeguard,
            self.threads,
            u8::from(self.tso),
            self.heap.start,
            self.heap.len
        )
    }
}

fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

/// Parses one handshake line (no trailing newline).
///
/// # Errors
///
/// A human-readable reason, sent back verbatim as `ERR <reason>`.
pub fn parse_attach(line: &str) -> Result<AttachRequest, String> {
    let mut parts = line.split_ascii_whitespace();
    if parts.next() != Some("PARALOG") || parts.next() != Some("ATTACH") {
        return Err("expected PARALOG ATTACH".into());
    }
    if parts.next() != Some("v1") {
        return Err("unsupported protocol version (want v1)".into());
    }
    let (mut name, mut lifeguard, mut threads, mut tso, mut heap) = (None, None, None, None, None);
    for field in parts {
        let Some((key, value)) = field.split_once('=') else {
            return Err(format!("malformed field {field:?}"));
        };
        match key {
            "name" => {
                if !is_token(value) {
                    return Err("name must be 1-64 chars of [A-Za-z0-9._-]".into());
                }
                name = Some(value.to_string());
            }
            "lifeguard" => {
                if !is_token(value) {
                    return Err("lifeguard must be 1-64 chars of [A-Za-z0-9._-]".into());
                }
                lifeguard = Some(value.to_string());
            }
            "threads" => {
                let n: usize = value.parse().map_err(|_| "threads must be an integer")?;
                if n == 0 || n > 256 {
                    return Err("threads must be in 1..=256".into());
                }
                threads = Some(n);
            }
            "tso" => {
                tso = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("tso must be 0 or 1".into()),
                });
            }
            "heap" => {
                let Some((start, len)) = value.split_once(':') else {
                    return Err("heap must be <start>:<len>".into());
                };
                let start: u64 = start.parse().map_err(|_| "heap start must be an integer")?;
                let len: u64 = len.parse().map_err(|_| "heap len must be an integer")?;
                if start.checked_add(len).is_none() {
                    return Err("heap wraps the address space".into());
                }
                heap = Some(AddrRange::new(start, len));
            }
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    Ok(AttachRequest {
        name: name.ok_or("missing name=")?,
        lifeguard: lifeguard.ok_or("missing lifeguard=")?,
        threads: threads.ok_or("missing threads=")?,
        tso: tso.unwrap_or(false),
        heap: heap.ok_or("missing heap=")?,
        mode: BackendMode::Auto,
    })
}

/// One event surfaced while parsing the frame phase.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameEvent<'a> {
    /// Payload bytes for one thread's wire stream. A single frame may
    /// surface as several `Data` events when its payload spans reads.
    Data {
        /// Declared thread.
        tid: u16,
        /// This slice of the frame's payload.
        payload: &'a [u8],
    },
    /// End of one thread's stream.
    EndThread {
        /// The finished thread.
        tid: u16,
    },
    /// End of every thread's stream.
    EndAll,
}

/// Incremental frame-phase parser: feed it whatever the socket yielded, it
/// emits [`FrameEvent`]s without ever buffering a payload (only the 6-byte
/// header can straddle reads and is staged).
#[derive(Debug, Default)]
pub struct FrameParser {
    header: [u8; 6],
    header_len: usize,
    /// Payload bytes of the current frame still to come.
    remaining: u32,
    current_tid: u16,
}

impl FrameParser {
    /// A fresh parser (start of the frame phase).
    pub fn new() -> Self {
        FrameParser::default()
    }

    /// Consumes `bytes`, emitting events in order.
    ///
    /// # Errors
    ///
    /// A protocol violation (oversized frame, end-all with payload): the
    /// connection carrying it is beyond recovery.
    pub fn feed<'a>(
        &mut self,
        mut bytes: &'a [u8],
        mut emit: impl FnMut(FrameEvent<'a>),
    ) -> Result<(), String> {
        while !bytes.is_empty() {
            if self.remaining > 0 {
                let take = (self.remaining as usize).min(bytes.len());
                let (payload, rest) = bytes.split_at(take);
                emit(FrameEvent::Data {
                    tid: self.current_tid,
                    payload,
                });
                self.remaining -= take as u32;
                bytes = rest;
                continue;
            }
            let need = 6 - self.header_len;
            let take = need.min(bytes.len());
            self.header[self.header_len..self.header_len + take].copy_from_slice(&bytes[..take]);
            self.header_len += take;
            bytes = &bytes[take..];
            if self.header_len < 6 {
                return Ok(()); // header straddles the next read
            }
            self.header_len = 0;
            let tid = u16::from_le_bytes([self.header[0], self.header[1]]);
            let len = u32::from_le_bytes([
                self.header[2],
                self.header[3],
                self.header[4],
                self.header[5],
            ]);
            if len > MAX_FRAME_BYTES {
                return Err(format!(
                    "frame of {len} bytes exceeds the {MAX_FRAME_BYTES} cap"
                ));
            }
            if len == 0 {
                if tid == END_ALL_TID {
                    emit(FrameEvent::EndAll);
                } else {
                    emit(FrameEvent::EndThread { tid });
                }
            } else {
                if tid == END_ALL_TID {
                    return Err("end-all frame must have zero length".into());
                }
                self.current_tid = tid;
                self.remaining = len;
            }
        }
        Ok(())
    }

    /// Whether the parser sits at a frame boundary (a connection may only
    /// end cleanly here).
    pub fn at_boundary(&self) -> bool {
        self.header_len == 0 && self.remaining == 0
    }
}

/// Renders a data frame (header + payload) for `tid`.
pub fn data_frame(tid: u16, payload: &[u8]) -> Vec<u8> {
    assert!(tid != END_ALL_TID, "tid {END_ALL_TID} is reserved");
    assert!(payload.len() <= MAX_FRAME_BYTES as usize, "frame too large");
    let mut out = Vec::with_capacity(6 + payload.len());
    out.extend_from_slice(&tid.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Renders an end-of-thread frame.
pub fn end_thread_frame(tid: u16) -> [u8; 6] {
    let mut out = [0u8; 6];
    out[..2].copy_from_slice(&tid.to_le_bytes());
    out
}

/// Renders the end-all frame.
pub fn end_all_frame() -> [u8; 6] {
    end_thread_frame(END_ALL_TID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_roundtrip() {
        let req = AttachRequest {
            name: "web-1".into(),
            lifeguard: "TaintCheck".into(),
            threads: 4,
            tso: true,
            heap: AddrRange::new(4096, 1 << 20),
            mode: BackendMode::Auto,
        };
        assert_eq!(parse_attach(&req.to_line()).unwrap(), req);
    }

    #[test]
    fn mode_is_an_unknown_field() {
        for mode in ["delta", "auto"] {
            let line =
                format!("PARALOG ATTACH v1 name=a lifeguard=y threads=1 heap=0:1 mode={mode}");
            assert_eq!(
                parse_attach(&line).unwrap_err(),
                "unknown field \"mode\"",
                "{line}"
            );
        }
    }

    #[test]
    fn attach_rejects_garbage() {
        assert!(parse_attach("GET / HTTP/1.1").is_err());
        assert!(parse_attach("PARALOG ATTACH v2 name=x lifeguard=y threads=1 heap=0:1").is_err());
        assert!(parse_attach("PARALOG ATTACH v1 lifeguard=y threads=1 heap=0:1").is_err());
        assert!(parse_attach("PARALOG ATTACH v1 name=a lifeguard=y threads=0 heap=0:1").is_err());
        assert!(
            parse_attach("PARALOG ATTACH v1 name=a;rm lifeguard=y threads=1 heap=0:1").is_err()
        );
        let wraps = "PARALOG ATTACH v1 name=a lifeguard=y threads=1 heap=18446744073709551614:4";
        assert!(parse_attach(wraps).is_err());
    }

    #[test]
    fn frames_reassemble_across_arbitrary_splits() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&data_frame(0, b"hello"));
        wire.extend_from_slice(&data_frame(1, b"world!"));
        wire.extend_from_slice(&end_thread_frame(1));
        wire.extend_from_slice(&end_all_frame());
        // Replay the byte stream at every possible split point.
        for split in 0..=wire.len() {
            let mut parser = FrameParser::new();
            let mut got: Vec<(u16, Vec<u8>)> = Vec::new();
            let mut ends = Vec::new();
            let mut end_all = 0;
            let mut emit = |ev: FrameEvent<'_>| match ev {
                FrameEvent::Data { tid, payload } => match got.last_mut() {
                    Some((t, buf)) if *t == tid => buf.extend_from_slice(payload),
                    _ => got.push((tid, payload.to_vec())),
                },
                FrameEvent::EndThread { tid } => ends.push(tid),
                FrameEvent::EndAll => end_all += 1,
            };
            parser.feed(&wire[..split], &mut emit).unwrap();
            parser.feed(&wire[split..], &mut emit).unwrap();
            assert!(parser.at_boundary());
            assert_eq!(
                got,
                vec![(0, b"hello".to_vec()), (1, b"world!".to_vec())],
                "split at {split}"
            );
            assert_eq!(ends, vec![1]);
            assert_eq!(end_all, 1);
        }
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut hdr = [0u8; 6];
        hdr[2..].copy_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert!(FrameParser::new().feed(&hdr, |_| ()).is_err());
    }
}

//! Client-side helpers for talking to a running `paralogd`.
//!
//! [`Producer`] is the data-plane half: it connects to the daemon's data
//! socket, performs the `PARALOG ATTACH` handshake, and streams per-thread
//! wire bytes as frames. [`Control`] is the admin half: it speaks the
//! line-oriented control protocol (`LIST`, `STATUS`, `DETACH`, `WATCH`,
//! `SHUTDOWN`). Both use ordinary *blocking* sockets — the non-blocking
//! machinery lives entirely on the daemon side.

use crate::proto::{self, AttachRequest};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// An attached producer connection streaming one session's capture.
#[derive(Debug)]
pub struct Producer {
    stream: UnixStream,
    session_id: u64,
    threads: usize,
}

impl Producer {
    /// Connects to the daemon's data socket and attaches a session.
    ///
    /// # Errors
    ///
    /// Connection failures, or the daemon's `ERR <reason>` handshake
    /// rejection (surfaced as [`std::io::ErrorKind::InvalidData`]).
    pub fn attach(socket: impl AsRef<Path>, request: &AttachRequest) -> std::io::Result<Producer> {
        let mut stream = UnixStream::connect(socket)?;
        let mut line = request.to_line();
        line.push('\n');
        stream.write_all(line.as_bytes())?;
        let mut reply = String::new();
        BufReader::new(stream.try_clone()?).read_line(&mut reply)?;
        let reply = reply.trim();
        match reply.strip_prefix("OK ") {
            Some(id) => {
                let session_id = id.parse().map_err(|_| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("malformed attach reply {reply:?}"),
                    )
                })?;
                Ok(Producer {
                    stream,
                    session_id,
                    threads: request.threads,
                })
            }
            None => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("attach rejected: {reply}"),
            )),
        }
    }

    /// The daemon-assigned session id (`STATUS <id>` etc.).
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Streams `bytes` of thread `tid`'s wire stream.
    ///
    /// # Errors
    ///
    /// Socket write failures (e.g. the daemon dropped the connection after
    /// a protocol fault).
    pub fn send(&mut self, tid: u16, bytes: &[u8]) -> std::io::Result<()> {
        for chunk in bytes.chunks(proto::MAX_FRAME_BYTES as usize) {
            self.stream.write_all(&proto::data_frame(tid, chunk))?;
        }
        Ok(())
    }

    /// Marks thread `tid`'s stream finished.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn finish_thread(&mut self, tid: u16) -> std::io::Result<()> {
        self.stream.write_all(&proto::end_thread_frame(tid))
    }

    /// Marks every stream finished (the clean way to end a session).
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn finish(&mut self) -> std::io::Result<()> {
        self.stream.write_all(&proto::end_all_frame())?;
        self.stream.flush()
    }

    /// Convenience: streams a whole pre-encoded capture (one wire stream
    /// per thread, as [`paralog_events::codec::encode`] produces),
    /// interleaving `chunk`-byte frames round-robin across threads, then
    /// finishes.
    ///
    /// Byte-chunked round-robin is not a causal order. A lane can park on a
    /// record whose arc source is still in the socket while the session is
    /// over its buffering cap; the connection's reader then stops reading
    /// and this call never returns (`benchmark/FINDINGS.md`, finding 3).
    /// Keep whole captures under the cap, or cut frames on record
    /// boundaries in a causal order.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    ///
    /// # Panics
    ///
    /// Panics if `encoded` does not have one stream per attached thread.
    pub fn send_capture(&mut self, encoded: &[Vec<u8>], chunk: usize) -> std::io::Result<()> {
        assert_eq!(
            encoded.len(),
            self.threads,
            "capture streams must match the attached thread count"
        );
        let chunk = chunk.max(1);
        let mut offsets = vec![0usize; encoded.len()];
        loop {
            let mut sent_any = false;
            for (t, stream) in encoded.iter().enumerate() {
                let off = offsets[t];
                if off >= stream.len() {
                    continue;
                }
                let end = (off + chunk).min(stream.len());
                self.send(t as u16, &stream[off..end])?;
                offsets[t] = end;
                sent_any = true;
            }
            if !sent_any {
                break;
            }
        }
        self.finish()
    }
}

/// A control-socket connection.
#[derive(Debug)]
pub struct Control {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Control {
    /// Connects to the daemon's control socket.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(socket: impl AsRef<Path>) -> std::io::Result<Control> {
        let stream = UnixStream::connect(socket)?;
        Ok(Control {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one command line and collects the response block (the lines
    /// before the `.` terminator).
    ///
    /// # Errors
    ///
    /// Socket failures, or an unterminated response (daemon went away).
    pub fn command(&mut self, line: &str) -> std::io::Result<Vec<String>> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut lines = Vec::new();
        loop {
            let mut reply = String::new();
            if self.reader.read_line(&mut reply)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the control connection mid-response",
                ));
            }
            let reply = reply.trim_end_matches(['\r', '\n']);
            if reply == "." {
                return Ok(lines);
            }
            lines.push(reply.to_string());
        }
    }

    /// `LIST`: one summary line per session.
    ///
    /// # Errors
    ///
    /// See [`command`](Control::command).
    pub fn list(&mut self) -> std::io::Result<Vec<String>> {
        self.command("LIST")
    }

    /// `STATUS <id>`: the session's detail block.
    ///
    /// # Errors
    ///
    /// See [`command`](Control::command).
    pub fn status(&mut self, id: u64) -> std::io::Result<Vec<String>> {
        self.command(&format!("STATUS {id}"))
    }

    /// `DETACH <id>`: close the session's inputs so it drains to a partial
    /// (but valid) report.
    ///
    /// # Errors
    ///
    /// See [`command`](Control::command).
    pub fn detach(&mut self, id: u64) -> std::io::Result<Vec<String>> {
        self.command(&format!("DETACH {id}"))
    }

    /// `SHUTDOWN`: ask the daemon to drain everything and exit.
    ///
    /// # Errors
    ///
    /// See [`command`](Control::command).
    pub fn shutdown(&mut self) -> std::io::Result<Vec<String>> {
        self.command("SHUTDOWN")
    }

    /// `WATCH <id>`: subscribe to the session's live feed, invoking `f`
    /// per line until the session ends. Consumes the connection (the
    /// daemon dedicates it to the feed).
    ///
    /// # Errors
    ///
    /// Socket failures before the feed terminates.
    pub fn watch(mut self, id: u64, mut f: impl FnMut(&str)) -> std::io::Result<()> {
        self.writer.write_all(format!("WATCH {id}\n").as_bytes())?;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(()); // daemon shut down mid-watch
            }
            let line = line.trim_end_matches(['\r', '\n']);
            if line == "." {
                return Ok(());
            }
            f(line);
        }
    }
}

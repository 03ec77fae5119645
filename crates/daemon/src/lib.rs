//! `paralog-daemon`: the ParaLog online-monitoring service.
//!
//! The paper's deployment model is *online* monitoring: lifeguards run
//! against a live application's event streams, not a post-mortem trace.
//! This crate packages the workspace's replay machinery as a long-running
//! supervisor (`paralogd`) that external producers attach to over
//! Unix-domain sockets:
//!
//! * [`proto`] — the wire protocol: a one-line text handshake, then
//!   binary frames carrying each thread's chained-checksum codec stream;
//!   plus the line-oriented control protocol.
//! * [`transport`] — [`ByteFeed`](transport::ByteFeed): the genuinely
//!   non-blocking `io::Read` bridge between a connection's reader thread and a
//!   session's incremental decoders (`WouldBlock` ⇒
//!   `StreamStatus::Blocked`).
//! * [`supervisor`] — the [`Daemon`] itself: attach
//!   handshakes, per-session lifecycle (attach → running → drain →
//!   detach), the live violation/event feed, the admin surface, and
//!   graceful shutdown with partial [`RunMetrics`](paralog_core::RunMetrics).
//!   N sessions' replay lanes are multiplexed round-robin over one
//!   [`WorkerPool`](paralog_core::WorkerPool), the scheduler
//!   `ThreadedBackend` runs in process.
//! * [`client`] — [`Producer`] and
//!   [`Control`] helpers for the other end of both
//!   sockets.
//! * [`cli`] — the `paralogd serve` / `paralogd ctl` command surface.
//!
//! Everything socket-shaped is Unix-only; [`proto`] and [`transport`] are
//! portable.

#![forbid(unsafe_code)]

pub mod proto;
pub mod transport;

#[cfg(unix)]
pub mod cli;
#[cfg(unix)]
pub mod client;
#[cfg(unix)]
pub mod supervisor;

#[cfg(unix)]
pub use client::{Control, Producer};
pub use proto::AttachRequest;
#[cfg(unix)]
pub use supervisor::{Daemon, DaemonConfig, SessionReport};

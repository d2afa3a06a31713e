//! `agenp-pdpd` — the PDP on the wire.
//!
//! A from-scratch HTTP/1.1 serving tier over the shared-snapshot PDP:
//! no external dependencies, blocking `std::net` sockets, one thread per
//! connection (up to [`ServerOptions::max_connections`]), each owning a
//! [`agenp_core::arch::PdpPin`] (a per-thread pinned snapshot), keep-alive
//! and pipelining, and a built-in load client that doubles as a wire-path
//! differential test. [`serve_stream`] runs a connection's loop over any
//! `Read + Write` stream, so the wire protocol can be checked in memory.
//! Protocol shapes are documented in `docs/SERVING.md`.
//!
//! - `POST /decide` — one access request in, one decision outcome out.
//! - `POST /decide_batch` — `{"requests": [...]}` in, a batch envelope
//!   out; all outcomes share one snapshot epoch (never torn).
//! - `GET /metrics` — serve stats, HTTP counters, and the `agenp-obs`
//!   dump when telemetry is enabled.
//! - `GET /healthz` — liveness.

pub mod client;
pub mod http;
pub mod server;
pub mod wire;

/// The JSON parser and string escaper the wire protocol uses.
pub use agenp_obs::json;
pub use client::{run_load, LoadOptions, LoadReport};
pub use server::{serve_stream, HttpStats, PdpdServer, ServerOptions};

//! HTTP/1.1 protocol layer for the serving plane.
//!
//! The parser, response builder, blocking clients, and the connection
//! plane (persistent connections, the per-connection request loop, the
//! accept→handler hand-off) live in [`nautilus_util::http`], so the
//! distributed execution plane (`nautilus-dist`) runs the same hardened
//! implementation instead of forking it. This module re-exports the full
//! surface under its historical path; `tests/serving.rs` exercises it
//! through these re-exports.

pub use nautilus_util::http::*;

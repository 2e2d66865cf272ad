//! The DASH secure-scan benchmark.
//!
//! One command runs the secure scan through the public entry points users
//! call — `secure_scan_with` (the `dash secure-scan` path) and
//! `secure_scan_party_with` over loopback `TcpTransport` (the `dash party`
//! path) — checks every result
//! against pooled plaintext `associate`, and prints the end-to-end
//! metrics. A traced run wraps the program's `PartyData` and transports
//! in [`timed::TimedSource`] / [`timed::TimedTransport`] and reports
//! per-layer numbers. See `README.md` in this directory.

pub mod clock;
pub mod layers;
pub mod run;
pub mod scan;
pub mod timed;
pub mod workload;

//! `wbsn-analyze`: the repo-specific static-analysis pass.
//!
//! The workspace carries two load-bearing guarantees that ordinary
//! compiler lints cannot see:
//!
//! * **Determinism** — identically-seeded runs must be bit-identical,
//!   end to end. Nothing in a payload-, wire- or report-affecting
//!   crate may consult a wall clock, an OS entropy source, or iterate
//!   a `HashMap`/`HashSet` whose order can leak into output.
//! * **Panic-freedom** — the ingest/wire hot paths (monitor, link,
//!   node, governor, payload, the whole gateway and DSP kernels)
//!   must degrade through typed [`WbsnError`]-style returns; a
//!   hostile wire or a malformed batch must never abort the process.
//!
//! This crate enforces both — plus unsafe-freedom and header hygiene
//! — as a build gate. It is deliberately a **hand-rolled token-level
//! pass** (the build environment is offline; no `syn`, no `toml`):
//! sources are scrubbed of comments and string contents, identifiers
//! are matched against per-rule deny lists, and `#[cfg(test)]` item
//! boundaries are tracked so test code is exempt where a rule says so.
//!
//! Rules are configured from the checked-in `analyze.toml` at the
//! workspace root; findings print as `file:line: rule-id: message`
//! (or JSON with `--json`). A violation that is intentional is
//! suppressed inline with a reasoned pragma:
//!
//! ```text
//! // wbsn-allow(rule-id): why this specific site is sound
//! ```
//!
//! A pragma without a reason, naming an unknown rule, or suppressing
//! nothing is itself a finding — suppressions cannot rot silently.
//!
//! [`WbsnError`]: https://docs.rs/wbsn-core

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

pub use config::AnalyzeConfig;
pub use report::Finding;
pub use rules::run_check;

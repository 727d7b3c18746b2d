//! Workspace facade for the COMET reproduction.
//!
//! This crate exists to anchor the repository's end-to-end assets — the
//! `examples/` directory and the cross-crate integration tests under
//! `tests/` — and to re-export the eight workspace crates in layer
//! order, so `cargo doc` gives one entry point into the whole stack:
//!
//! 1. [`units`](comet_units) — typed physical quantities (dB, mW, ns, ...);
//! 2. [`phys`](opcm_phys) — phase-change device physics (Lumerical stand-in);
//! 3. [`photonic`] — silicon-photonic circuit substrate;
//! 4. [`comet`] / [`cosmos`] — the paper's architecture and its baseline;
//! 5. [`memsim`] — trace-driven main-memory simulator (NVMain stand-in);
//! 6. [`dota`] — photonic-accelerator case study;
//! 7. `comet-bench` — figure/table regeneration binaries (not
//!    re-exported; it is a binary-oriented leaf crate).
//!
//! See the repository `README.md` for the layer diagram and the
//! paper-artifact map.

#![warn(missing_docs)]

pub use comet;
pub use comet_units;
pub use cosmos;
pub use dota;
pub use memsim;
pub use opcm_phys;
pub use photonic;

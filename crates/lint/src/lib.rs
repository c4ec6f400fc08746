//! `flexsp-lint` — the workspace invariant checker.
//!
//! A dependency-free static-analysis pass (hand-written lexer +
//! brace-matched function scanner; no `syn`) that walks every workspace
//! `.rs` file and machine-enforces the concurrency and determinism
//! contracts that PRs 6–9 stated in prose:
//!
//! 1. **lock-order** — in `flexsp-arbiter`, locks are acquired in the
//!    global order queue → shards (ascending) → fairness stripe →
//!    publish slot, checked per function with call summaries so helpers
//!    propagate the ranks they acquire to their callers.
//! 2. **lock-free** — functions marked `// lint: lock-free` never reach
//!    `.lock()`/`.write()`, even transitively through crate-local calls.
//! 3. **clock-containment** — `std::time::{Instant, SystemTime}` only in
//!    the explicit allowlist (the `Clock` impls, telemetry, bench).
//! 4. **telemetry-hygiene** — `cfg(feature = "telemetry")` is illegal
//!    outside `crates/telemetry`.
//! 5. **unwrap-ban** — `.unwrap()`/`.expect()` are forbidden in the
//!    non-test code of the hot crates (arbiter, milp, core) unless
//!    annotated `// lint: allow(unwrap) <reason>`.
//!
//! The static pass has a dynamic complement: `flexsp-arbiter`'s
//! `debug_assertions`-gated lock-rank tracker (`crates/arbiter/src/rank.rs`)
//! panics at runtime on out-of-order acquisition, so the proptest and
//! chaos suites double as a lock-order race detector.
//!
//! See `docs/ARCHITECTURE.md` § "Static analysis & concurrency contracts".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod scan;
pub mod workspace;

pub use rules::{analyze, Violation, DOC_ANCHOR};
pub use scan::{scan_file, FileKind, ScannedFile};
pub use workspace::{check_workspace, find_root, scan_workspace};

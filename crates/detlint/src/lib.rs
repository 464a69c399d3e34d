#![deny(missing_docs)]

//! # detlint — the workspace's determinism & hermeticity linter
//!
//! The source paper (Uta et al., NSDI 2020) argues that uncontrolled
//! nondeterminism invalidates performance conclusions. This
//! reproduction's contract is stronger than the paper's methodology:
//! every simulation must be **bit-identical for a given seed at any
//! `--jobs` setting**, and the build must succeed **offline**. That
//! contract is enforced dynamically by golden hashes, replay diffs, and
//! jobs-invariance gates — but dynamic checks only catch hazards that a
//! test happens to execute. `detlint` makes the contract *statically*
//! checkable, in the spirit of CONFIRM's "make the methodology itself
//! checkable" (Maricq et al., OSDI 2018): it lexes every source file in
//! the workspace with a small in-house scanner (no external parser, per
//! the hermetic-build policy) and rejects the constructs that produce
//! nondeterminism or non-hermeticity at their source:
//!
//! | rule | severity | what it forbids |
//! |------|----------|-----------------|
//! | D1 | deny | `HashMap`/`HashSet` in non-test library code (iteration order) |
//! | D2 | deny | `Instant`/`SystemTime`/`available_parallelism` outside `crates/bench`, `crates/exec`, `src/cli.rs` |
//! | D3 | deny | `thread::spawn`/`Mutex`/`Atomic*`/… outside `crates/exec` |
//! | D4 | deny | entropy-based RNG construction (`thread_rng`, `from_entropy`, `RandomState`, …) |
//! | D5 | deny | `.unwrap()`/`.expect()`/`panic!`/`unreachable!` in library code |
//! | D6 | warn | `.partial_cmp()` where `total_cmp` is mandated |
//! | D7 | deny | non-workspace dependencies in any `Cargo.toml` |
//! | D8 | deny | crash-unsafe persistence outside `crates/journal` |
//! | D9 | deny | one RNG stream captured by multiple parallel tasks |
//! | D10 | deny | float reduction over a source not proven order-stable |
//! | D11 | deny | panic reachable from a campaign entry point (call graph) |
//! | P0 | deny | suppression pragma without rules or a `-- reason` |
//! | P1 | warn | suppression pragma whose rule no longer fires (dead) |
//!
//! D1–D8 and P0 are token/manifest rules over the blanked lexer
//! output. D9 and D10 are dataflow rules over a std-only token-tree
//! parse ([`parser`], [`flow`]); D11 walks a whole-workspace call
//! graph ([`graph`]); P1 cross-checks every pragma against the raw
//! (pre-suppression) findings.
//!
//! False positives are handled at the site, in the source, with a
//! scoped pragma: `allow(D5) -- reason` after the `detlint:` marker in
//! a comment suppresses the named rules on that line and the next. The
//! reason clause is mandatory (rule P0) so every exception documents
//! itself, and a pragma whose rule no longer fires is flagged as dead
//! (rule P1) so exceptions cannot outlive their cause.
//!
//! The linter is self-applied: `scripts/verify.sh` runs it over the
//! whole workspace as a tier-1 stage, and the crate's own test suite
//! (`tests/self_apply.rs`) fails if any deny-tier finding exists —
//! including in `detlint`'s own source.

pub mod engine;
pub mod flow;
pub mod graph;
pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod report;
pub mod rules;

pub use engine::{lint_manifest_source, lint_rust_source, lint_workspace, Finding, LintError};
pub use report::{render_human, render_json_lines, tally, Tally};
pub use rules::{RuleId, Severity};

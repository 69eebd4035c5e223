//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each module in [`figures`] declares the [`ltc_sim::engine::RunSpec`]s
//! one paper table or figure needs and renders the rows from the engine's
//! [`ltc_sim::engine::ResultSet`]; [`harness`] registers them all and
//! drives the deduplicating scheduler across whichever figures are
//! requested. The `ltsim` CLI prints them (`ltsim run --figures X`, with
//! `plan`/`render` alongside); the Criterion
//! benches in `benches/` run the same kernels at reduced scale so
//! `cargo bench` regenerates everything.
//!
//! Absolute numbers differ from the paper (the substrate is a synthetic
//! trace simulator, not SimpleScalar/Alpha on SPEC2000 — see DESIGN.md §1);
//! the *shape* — who wins, by what factor, where crossovers fall — is the
//! reproduction target, recorded in EXPERIMENTS.md.

pub mod events;
pub mod figures;
pub mod harness;
pub mod perf;
pub mod scale;

pub use harness::FigureDef;
pub use scale::Scale;

//! **afft-planner** — the autotuning layer over the
//! [`afft_core::engine::EngineRegistry`]: measure (or estimate) every
//! backend for a transform shape, remember the winner as serializable
//! *wisdom*, and hand out owned instances of the planned engine — the
//! FFTW planner/wisdom idiom rebuilt natively on the workspace's
//! registry.
//!
//! Two pillars:
//!
//! * [`Planner`] — ranks the registry per `(n, direction)` by
//!   [`Strategy::Estimate`] (built-in cost heuristics over engine
//!   `traffic()`/cycle metadata) or [`Strategy::Measure`] (times a
//!   calibration run of every engine; cycle-accurate backends rank by
//!   modeled hardware cycles instead of simulator wall time);
//! * [`Wisdom`] — a plan cache keyed by `(n, direction, strategy,
//!   backend-set hash)` with a dependency-free line-oriented text
//!   serialization ([`Wisdom::load`] / [`Wisdom::store`] /
//!   [`Wisdom::merge`]), so tuning cost is paid once per machine.
//!
//! A plan runs sequentially by looping
//! [`FftEngine::execute_into`](afft_core::engine::FftEngine::execute_into)
//! on [`Planner::engine`] (or [`take_engine`]); many-symbol threaded
//! traffic goes through the `afft_stream` pipeline, whose workers each
//! [`take_engine`] a private copy of the planned backend.
//!
//! # Quickstart
//!
//! ```
//! use afft_planner::{Planner, Strategy};
//!
//! // Plan over the serving engines of the standard registry (pass
//! // `EngineRegistry::paper` or `afft_asip::engine::registry_with_asip`
//! // via `Planner::with_factory` to rank the prior art and the
//! // cycle-accurate ISS too).
//! let mut planner = Planner::new();
//! let plan = planner.plan(256, Strategy::Estimate)?;
//! assert!(plan.ranking.len() >= 4); // every registered engine, ranked
//!
//! // The plan is remembered: the same request replays from wisdom.
//! let replay = planner.plan(256, Strategy::Estimate)?;
//! assert!(replay.from_wisdom);
//!
//! // Execute many symbols on the winning engine, one preallocated
//! // output buffer per symbol.
//! let mut engine = planner.engine(&plan)?;
//! let batch = vec![vec![afft_num::Complex::new(1.0, 0.0); 256]; 8];
//! let mut spectra = vec![vec![afft_num::Complex::zero(); 256]; batch.len()];
//! for (symbol, bins) in batch.iter().zip(spectra.iter_mut()) {
//!     engine.execute_into(symbol, bins, afft_core::Direction::Forward)?;
//! }
//! assert!((spectra[0][0].re - 256.0).abs() < 1e-6);
//! # Ok::<(), afft_core::FftError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod planner;
pub mod wisdom;

pub use planner::{
    calibration_signal, take_engine, EngineRank, Plan, Planner, RegistryFactory, Strategy,
};
pub use wisdom::{backend_set_hash, Wisdom, WisdomEntry, WisdomKey};

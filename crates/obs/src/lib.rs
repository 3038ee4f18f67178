//! **afft-obs** — the workspace's zero-dependency observability layer:
//! log-bucketed latency histograms, sharded lock-free recorders, stage
//! names, named counters, and table/JSON exporters. In the spirit of
//! HdrHistogram and `tracing`, rebuilt std-only so the runtime stack
//! (stream pipeline, planner, ISS engine, benches) can measure
//! itself without pulling a dependency into the hot path.
//!
//! Five pieces:
//!
//! * [`Histogram`] — a log-bucketed (~2% relative error) `u64`
//!   histogram with `record`/`merge`/`percentile` and saturation
//!   accounting, 9 KiB fixed footprint;
//! * [`Recorder`] / [`AtomicHistogram`] — per-shard concurrent
//!   recording: the hot path is two relaxed atomic adds and an array
//!   index, aggregation happens at [`Recorder::snapshot`];
//! * [`Stage`] / [`ns_between`] — the queue-wait / transform /
//!   reorder-park / deliver decomposition of a streamed symbol's
//!   latency, and the saturating clock difference that measures it;
//! * [`counter()`] / [`Counter`] — named process-global event counters;
//! * exporters — [`Snapshot`] `Display` tables, [`histogram_json`],
//!   and the dependency-free [`json`] writer (shared with the bench
//!   artifacts — `afft_bench::json` re-exports it).
//!
//! # The `AFFT_OBS` switch
//!
//! Instrumented layers read [`enabled`] when they are constructed:
//! metrics default **on**, and `AFFT_OBS=0` (or `false`/`off`/empty)
//! turns them off so the overhead is both measurable and escapable.
//! The `stream` bench gates on the overhead staying under 5%.
//!
//! # Quickstart
//!
//! ```
//! use afft_obs::{Histogram, Recorder};
//!
//! // Direct recording:
//! let mut h = Histogram::new();
//! for v in [120u64, 340, 95_000] {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 3);
//! assert!(h.percentile(50.0).unwrap() >= 120);
//!
//! // Sharded concurrent recording, merged on snapshot:
//! let recorder = Recorder::new(2, vec!["latency".into()]);
//! recorder.handle(0).record(0, 1_000);
//! recorder.handle(1).record(0, 2_000);
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.series()[0].1.count(), 2);
//! println!("{snapshot}"); // fixed-width percentile table
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod export;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod stage;

pub use counter::{counter, Counter};
pub use export::{fmt_ns, histogram_json, Snapshot};
pub use hist::Histogram;
pub use recorder::{AtomicHistogram, Recorder, RecorderHandle};
pub use stage::{ns_between, Stage};

/// Whether instrumentation is enabled for this process: the `AFFT_OBS`
/// environment variable, default **on**. `0`, `false`, `off` (any
/// case) or an empty value disable it; anything else — including the
/// variable being unset — enables it.
///
/// Instrumented layers read this once at construction (pipeline build,
/// planner/executor creation), not per record, so flipping the
/// variable mid-process affects only components built afterwards.
pub fn enabled() -> bool {
    match std::env::var("AFFT_OBS") {
        Err(_) => true,
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v.is_empty() || v == "0" || v == "false" || v == "off")
        }
    }
}

#[cfg(test)]
mod tests {
    // `enabled()` reads process-global env; the dedicated own-process
    // env tests live in the stream crate where the gating is consumed.
    #[test]
    fn enabled_reflects_the_environment_contract() {
        // Whatever the ambient env says, the parse must be total.
        let _ = super::enabled();
    }
}

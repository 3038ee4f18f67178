//! **afft** — a full reproduction of *"Design of an Application-specific
//! Instruction Set Processor for High-throughput and Scalable FFT"*
//! (Guan, Lin, Fei — DATE 2009) as a Rust workspace.
//!
//! This facade crate re-exports the workspace so applications can use a
//! single dependency:
//!
//! * [`core`] ([`afft_core`]) — the array-structured FFT algorithm,
//!   address-changing algebra, coefficient storage and prior-art
//!   baselines (naive DFT, radix-2, Baas cached FFT, MCFFT);
//! * [`num`] ([`afft_num`]) — complex/fixed-point arithmetic and the
//!   IEEE-754 soft-float specification;
//! * [`isa`] ([`afft_isa`]) — the PISA-like ISA with the custom
//!   `BUT4`/`LDIN`/`STOUT` instructions, assembler and disassembler;
//! * [`sim`] ([`afft_sim`]) — the instruction-set simulator with data
//!   cache and the custom BU/CRF/AC/ROM hardware;
//! * [`asip`] ([`afft_asip`]) — program generators (Algorithm 1, the
//!   soft-float library, the Imple-1 software FFT) and run drivers;
//! * [`planner`] ([`afft_planner`]) — the autotuning planner: ranks
//!   the registry per transform shape (Estimate heuristics or Measure
//!   calibration), caches winners as serializable wisdom, and hands
//!   out owned instances of the planned engine;
//! * [`stream`] ([`afft_stream`]) — the persistent streaming pipeline:
//!   a long-lived worker pool over planned engines with bounded
//!   queues, backpressure, and strict per-channel in-order completion
//!   delivery for continuous OFDM traffic;
//! * [`net`] ([`afft_net`]) — the network-facing serving layer: a TCP
//!   binary-frame front-end over the stream pipeline with
//!   protocol-level load shedding (`RETRY_AFTER`), buffer recycling,
//!   graceful drain, an admin stats endpoint, and a loopback client;
//! * [`obs`] ([`afft_obs`]) — the zero-dependency observability layer:
//!   log-bucketed latency histograms, sharded lock-free recorders,
//!   stage names, named counters, and text/JSON exporters, wired
//!   through the stream, planner, and bench layers (global switch:
//!   `AFFT_OBS`, default on);
//! * [`baselines`] ([`afft_baselines`]) — the TI C6713 and Xtensa
//!   trace-driven models of Table II;
//! * [`hwmodel`] ([`afft_hwmodel`]) — the Section IV gate/power/timing
//!   model.
//!
//! # Quickstart
//!
//! ```
//! use afft::core::{ArrayFft, Direction};
//! use afft::num::Complex;
//!
//! // Software golden model:
//! let fft: ArrayFft<f64> = ArrayFft::new(1024)?;
//! let x = vec![Complex::new(1.0, 0.0); 1024];
//! let spectrum = fft.process(&x, Direction::Forward)?;
//! assert!((spectrum[0].re - 1024.0).abs() < 1e-6);
//!
//! // Cycle-accurate ASIP simulation of the same transform: plan the
//! // generated program on a machine once, then run it.
//! use afft::asip::program::ProgramOptions;
//! use afft::asip::runner::{quantize_input, AsipPlan};
//! use afft::sim::MachineConfig;
//! let mut plan =
//!     AsipPlan::new(1024, Direction::Forward, ProgramOptions::default(), &MachineConfig::default())?;
//! let stats = plan.run(&quantize_input(&x, 0.5))?;
//! let mut hw_spectrum = vec![Complex::zero(); 1024];
//! plan.read_output(&mut hw_spectrum)?;
//! assert!(stats.cycles > 0);
//! // The datapath scales by 1/N: the DC bin holds the input mean.
//! assert!((hw_spectrum[0].re.to_f64() - 0.5).abs() < 0.01);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use afft_asip as asip;
pub use afft_baselines as baselines;
pub use afft_core as core;
pub use afft_hwmodel as hwmodel;
pub use afft_isa as isa;
pub use afft_net as net;
pub use afft_num as num;
pub use afft_obs as obs;
pub use afft_planner as planner;
pub use afft_sim as sim;
pub use afft_stream as stream;

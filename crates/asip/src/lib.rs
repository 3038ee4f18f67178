//! Program generators and run drivers for the array-FFT ASIP: the glue
//! between the algorithm ([`afft_core`]), the ISA ([`afft_isa`]) and
//! the simulator ([`afft_sim`]).
//!
//! * [`program`] — the custom FFT program of the paper's Algorithm 1;
//! * [`softfloat`] — an IEEE-754 single-precision subroutine library in
//!   the base ISA (the dominant cost of the paper's Imple 1 baseline);
//! * [`swfft`] — the standard software radix-2 FFT compiled against the
//!   soft-float library (Imple 1 itself);
//! * [`runner`] — [`AsipPlan`], the one driver of the Algorithm-1
//!   program: program, machine and pre-rotation table built once per
//!   size and direction, then run many times by the engine, the
//!   experiment bins, the integration tests and the benchmark harness;
//! * [`engine`] — the [`afft_core::engine::FftEngine`] adapter that
//!   registers the cycle-accurate ISS alongside the software backends.
//!
//! # Examples
//!
//! ```
//! use afft_asip::program::ProgramOptions;
//! use afft_asip::runner::{quantize_input, AsipPlan};
//! use afft_core::Direction;
//! use afft_num::Complex;
//! use afft_sim::MachineConfig;
//!
//! let cfg = MachineConfig::default();
//! let mut plan = AsipPlan::new(64, Direction::Forward, ProgramOptions::default(), &cfg)?;
//! let input = quantize_input(&vec![Complex::new(1.0, 0.0); 64], 0.5);
//! let stats = plan.run(&input)?;
//! let mut spectrum = vec![Complex::zero(); 64];
//! plan.read_output(&mut spectrum)?;
//! // DC bin = mean of inputs (the datapath scales by 1/N).
//! assert!((spectrum[0].re.to_f64() - 0.5).abs() < 0.01);
//! assert!(stats.cycles > 0);
//! # Ok::<(), afft_asip::runner::AsipError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod layout;
pub mod program;
pub mod runner;
pub mod softfloat;
pub mod swfft;
pub mod swfft_fixed;

pub use engine::{registry_with_asip, AsipEngine};
pub use layout::Layout;
pub use runner::{golden_array_fft, quantize_input, AsipError, AsipPlan};

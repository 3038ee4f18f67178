//! A real-input spectrum analyser on the array FFT: windowing, the
//! packed real FFT, and a text spectrogram — the classic "second
//! application" for an FFT engine beyond OFDM. The packed real path is
//! cross-checked bin-for-bin against the complex backends in the
//! engine registry.
//!
//! ```text
//! cargo run --release --example spectrum_analyzer
//! ```

use afft::core::engine::EngineRegistry;
use afft::core::realfft::RealFft;
use afft::core::window::Window;
use afft::core::Direction;
use afft::num::Complex;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let len = 512; // real samples per frame
    let fs = 48_000.0; // Hz
    let fft = RealFft::new(len)?;
    let window = Window::Hann;

    // A test signal: 3 kHz tone, a weaker 9.7 kHz tone (off-bin), and
    // a little noise.
    let mut seed = 0x12345u32;
    let mut noise = move || {
        seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
        (f64::from(seed >> 8) / f64::from(1u32 << 24) - 0.5) * 0.02
    };
    let signal: Vec<f64> = (0..len)
        .map(|n| {
            let t = n as f64 / fs;
            (2.0 * std::f64::consts::PI * 3000.0 * t).sin()
                + 0.2 * (2.0 * std::f64::consts::PI * 9700.0 * t).sin()
                + noise()
        })
        .collect();

    // Window (as complex for the apply helper), repack to real.
    let mut windowed: Vec<Complex<f64>> = signal.iter().map(|&v| Complex::new(v, 0.0)).collect();
    window.apply(&mut windowed);
    let real_windowed: Vec<f64> = windowed.iter().map(|c| c.re).collect();

    let bins = fft.process(&real_windowed)?;
    let gain = window.coherent_gain(len) * len as f64 / 2.0; // tone amplitude scale

    println!("{len}-point real FFT, {window:?} window, fs = {fs} Hz");
    println!();
    let db = |mag: f64| 20.0 * (mag / gain).max(1e-12).log10();
    let mut peak_bins = Vec::new();
    for (k, bin) in bins.iter().enumerate() {
        let level = db(bin.abs());
        if level > -30.0 {
            peak_bins.push((k, level));
        }
    }
    // Collapse adjacent bins into peaks.
    println!("peaks above -30 dBFS:");
    let mut last = usize::MAX;
    for &(k, level) in &peak_bins {
        if last != usize::MAX && k == last + 1 {
            last = k;
            continue;
        }
        let freq = k as f64 * fs / len as f64;
        println!("  {freq:>8.0} Hz  {level:>6.1} dB");
        last = k;
    }

    // Text spectrogram of the low band.
    println!();
    println!("0..12 kHz band:");
    for k in (0..=128).step_by(4) {
        let level = db(bins[k].abs());
        let bar = ((level + 60.0).max(0.0) as usize).min(60);
        println!("{:>6.0} Hz |{}", k as f64 * fs / len as f64, "#".repeat(bar));
    }

    // Sanity: the 3 kHz tone must dominate at its bin (3000/93.75 = 32).
    let k3 = (3000.0 * len as f64 / fs).round() as usize;
    assert!(db(bins[k3].abs()) > -1.0, "3 kHz tone not at 0 dB");

    // Cross-check the packed real path against every complex backend
    // in the registry: the half-spectrum must match bin for bin. One
    // preallocated spectrum buffer serves the whole sweep — the
    // engines run on the zero-allocation `execute_into` path.
    println!();
    let mut registry = EngineRegistry::paper(len)?;
    let mut full = vec![Complex::zero(); len];
    for engine in registry.engines_mut() {
        engine.execute_into(&windowed, &mut full, Direction::Forward)?;
        let worst = bins.iter().enumerate().map(|(k, b)| b.dist(full[k])).fold(0.0f64, f64::max);
        println!("real FFT vs {:<12} max bin deviation {worst:.2e}", engine.name());
        assert!(worst < 1e-6 * len as f64, "{} disagrees with the real FFT", engine.name());
    }
    Ok(())
}

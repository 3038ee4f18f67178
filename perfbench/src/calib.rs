//! A fixed reference kernel that gauges how fast the host runs at the
//! moment. On a shared host the same code runs at very different
//! speeds from one second to the next, as other tenants come and go on
//! the same physical cores; timing this kernel right beside the program
//! lets each pass's figures be rescaled to one reference speed.
//!
//! The kernel belongs to the benchmark, not to the program, so no change
//! to the program moves it: a 256-point complex radix-2 FFT in plain
//! scalar `f64`, floating-point butterflies over an L1-resident working
//! set.

use std::time::Instant;

use afft_num::C64;

/// Points of the reference transform.
const N: usize = 256;

/// The reference speed: the gauge's median time, in ns, on an otherwise
/// idle core of the 2.1 GHz AVX2 Xeon the benchmark was tuned on.
pub const GAUGE_REF_NS: f64 = 3200.0;

/// Share of a set-up's time that slows as the gauge does, on every
/// workload: set-up mixes planning arithmetic with allocation, thread
/// starts and page faults. Between the fast and the slow state the
/// `anysize_oneshot` set-up went from 1.0 to 1.3-1.6 s (a share of
/// about 0.55) and the `iss_table1` one from 0.5 to 0.75 ms (0.67).
pub const SETUP_GAUGE_SHARE: f64 = 0.6;

/// Gauge runs behind each pass's speed reading, at the least.
pub const MIN_READINGS: usize = 32;

/// Each of `values` rescaled to the reference speed, given the gauge's
/// median time in ns when it was measured (pairwise) and the `share` of
/// the workload's time that slows as the gauge does; the rest is taken
/// not to change with the host's state. A time `t` measured while the
/// gauge took `g` ns becomes `t / (1 - share + share * g / GAUGE_REF_NS)`.
pub fn at_ref(values: &[f64], gauge_ns: &[f64], share: f64) -> Vec<f64> {
    values.iter().zip(gauge_ns).map(|(v, g)| v / (1.0 - share + share * g / GAUGE_REF_NS)).collect()
}

/// The reference transform with its twiddles and buffers, built once.
#[derive(Debug, Clone)]
pub struct Gauge {
    twiddles: Vec<C64>,
    input: Vec<C64>,
    work: Vec<C64>,
}

impl Gauge {
    pub fn new() -> Self {
        let twiddles = (0..N / 2)
            .map(|k| {
                let a = -2.0 * std::f64::consts::PI * k as f64 / N as f64;
                C64::new(a.cos(), a.sin())
            })
            .collect();
        let input = (0..N).map(|i| C64::new((i % 7) as f64 - 3.0, (i % 5) as f64 - 2.0)).collect();
        Gauge { twiddles, input, work: vec![C64::zero(); N] }
    }

    /// Runs the reference transform once; returns its duration in ns.
    pub fn time_ns(&mut self) -> f64 {
        let t0 = Instant::now();
        fft_in_place(std::hint::black_box(&self.input), &mut self.work, &self.twiddles);
        std::hint::black_box(&mut self.work);
        t0.elapsed().as_nanos() as f64
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

/// Iterative radix-2 decimation-in-time FFT of `input` into `out`.
fn fft_in_place(input: &[C64], out: &mut [C64], twiddles: &[C64]) {
    let n = input.len();
    let bits = n.trailing_zeros();
    for (i, x) in input.iter().enumerate() {
        out[i.reverse_bits() >> (usize::BITS - bits)] = *x;
    }
    let mut half = 1;
    while half < n {
        let stride = n / (2 * half);
        for start in (0..n).step_by(2 * half) {
            for k in 0..half {
                let w = twiddles[k * stride];
                let a = out[start + k];
                let b = out[start + k + half] * w;
                out[start + k] = a + b;
                out[start + k + half] = a - b;
            }
        }
        half *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_ref_scales_the_gauged_share_of_each_value() {
        let g = [GAUGE_REF_NS, 2.0 * GAUGE_REF_NS, GAUGE_REF_NS / 2.0];
        // All of the time follows the gauge: plain rescaling.
        assert_eq!(at_ref(&[10.0, 10.0, 4.0], &g, 1.0), vec![10.0, 5.0, 8.0]);
        // Half of it does: at twice the gauge time, 1.5x as slow.
        assert_eq!(at_ref(&[12.0, 12.0], &g[..2], 0.5), vec![12.0, 8.0]);
        // None of it does: the raw values.
        assert_eq!(at_ref(&[3.0, 3.0], &g[1..], 0.0), vec![3.0, 3.0]);
    }

    #[test]
    fn gauge_times_real_work() {
        let mut g = Gauge::new();
        assert!(g.time_ns() > 0.0);
        assert!(g.work.iter().any(|x| x.norm_sqr() > 0.0));
    }

    #[test]
    fn reference_fft_matches_the_naive_dft() {
        let g = Gauge::new();
        let mut out = vec![C64::zero(); N];
        fft_in_place(&g.input, &mut out, &g.twiddles);
        let want = afft_core::reference::dft_naive(&g.input, afft_core::Direction::Forward)
            .expect("naive DFT");
        let err = out.iter().zip(&want).map(|(a, b)| a.dist(*b)).fold(0.0, f64::max);
        assert!(err < 1e-9, "{err}");
    }
}

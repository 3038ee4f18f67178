//! End-to-end OFDM receiver test with the FFT running on the
//! *simulated ASIP*: modulate with the golden model, pass through a
//! multipath channel, demodulate on the cycle-accurate hardware (one
//! planned machine for every symbol), equalise, and demand zero bit
//! errors.

use afft::asip::program::ProgramOptions;
use afft::asip::runner::{quantize_input, AsipPlan};
use afft::core::ofdm::{apply_fir_channel, qpsk_demap, qpsk_map, Ofdm};
use afft::core::Direction;
use afft::num::{Complex, C64, CQ15};
use afft::sim::MachineConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 128;
const CP: usize = 32;

fn asip_fft(plan: &mut AsipPlan, spectrum: &mut [CQ15], time: &[C64]) -> Vec<C64> {
    // Scale into the Q15 range, run on the ASIP, undo the 1/N scaling.
    let amp = 0.5;
    let input = quantize_input(time, amp);
    assert!(plan.run(&input).expect("ASIP symbol").cycles > 0);
    plan.read_output(spectrum).expect("read spectrum");
    spectrum.iter().map(|c| c.to_c64() * (N as f64 / amp)).collect()
}

#[test]
fn multipath_ofdm_link_through_the_simulated_hardware() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut ofdm = Ofdm::new(N, CP).expect("ofdm plan");
    let mut plan =
        AsipPlan::new(N, Direction::Forward, ProgramOptions::default(), &MachineConfig::default())
            .expect("plan");
    let mut spectrum = vec![Complex::zero(); N];

    // A 4-tap channel inside the cyclic prefix.
    let taps = vec![
        Complex::new(0.9, 0.1),
        Complex::new(0.2, -0.25),
        Complex::new(-0.1, 0.05),
        Complex::new(0.05, 0.02),
    ];

    // Channel estimation from a pilot symbol (receiver FFT on the ASIP).
    let pilot_bits: Vec<(bool, bool)> = (0..N).map(|_| (rng.gen(), rng.gen())).collect();
    let pilot = qpsk_map(&pilot_bits);
    let tx_pilot = ofdm.modulate(&pilot).expect("modulate pilot");
    let rx_pilot_time = apply_fir_channel(&tx_pilot, &taps);
    let rx_pilot = asip_fft(&mut plan, &mut spectrum, &rx_pilot_time[CP..]);
    let channel: Vec<C64> =
        rx_pilot.iter().zip(&pilot).map(|(&y, &x)| y * x.conj() * (1.0 / x.norm_sqr())).collect();

    // Data symbols.
    let mut total_bits = 0usize;
    let mut errors = 0usize;
    for _ in 0..4 {
        let bits: Vec<(bool, bool)> = (0..N).map(|_| (rng.gen(), rng.gen())).collect();
        let tx = ofdm.modulate(&qpsk_map(&bits)).expect("modulate");
        let rx_time = apply_fir_channel(&tx, &taps);
        let rx_bins = asip_fft(&mut plan, &mut spectrum, &rx_time[CP..]);
        let eq = ofdm.equalize(&rx_bins, &channel);
        let decided = qpsk_demap(&eq);
        total_bits += 2 * N;
        errors += decided
            .iter()
            .zip(&bits)
            .map(|(d, b)| usize::from(d.0 != b.0) + usize::from(d.1 != b.1))
            .sum::<usize>();
    }
    assert_eq!(errors, 0, "{errors}/{total_bits} bit errors through the simulated ASIP");
}

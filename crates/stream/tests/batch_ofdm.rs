//! Acceptance: a multi-worker stream pipeline produces *bit-identical*
//! spectra to a sequential `execute_into` loop on a 64-symbol OFDM
//! batch, through a plan that came out of the planner (and back out of
//! wisdom).

use afft_core::engine::EngineRegistry;
use afft_core::ofdm::{qpsk_map, Ofdm};
use afft_core::Direction;
use afft_num::C64;
use afft_planner::{Plan, Planner, Strategy, Wisdom};
use afft_stream::{ChannelOp, ChannelSpec, StreamPipeline};

const N: usize = 128;
const CP: usize = 32;
const SYMBOLS: usize = 64;

/// 64 modulated OFDM symbols (CP stripped: receiver FFT input).
fn ofdm_batch() -> Vec<Vec<C64>> {
    let mut ofdm = Ofdm::new(N, CP).expect("ofdm");
    (0..SYMBOLS)
        .map(|s| {
            let bits: Vec<(bool, bool)> =
                (0..N).map(|k| ((s + k) % 3 == 0, (s * 7 + k) % 5 < 2)).collect();
            let tx = ofdm.modulate(&qpsk_map(&bits)).expect("modulate");
            tx[CP..].to_vec()
        })
        .collect()
}

/// Forward spectra of `batch` from a sequential `execute_into` loop on
/// the plan's winning engine.
fn sequential(planner: &Planner, plan: &Plan, batch: &[Vec<C64>]) -> Vec<Vec<C64>> {
    let mut engine = planner.engine(plan).expect("planned engine");
    let mut out = vec![vec![C64::zero(); N]; batch.len()];
    for (symbol, bins) in batch.iter().zip(out.iter_mut()) {
        engine.execute_into(symbol, bins, Direction::Forward).expect("execute_into");
    }
    out
}

/// Forward spectra of `batch` from a `workers`-worker pipeline serving
/// one channel on the plan's winner, delivered in submission order.
fn streamed(plan: &Plan, workers: usize, batch: &[Vec<C64>]) -> Vec<Vec<C64>> {
    let mut builder = StreamPipeline::builder(EngineRegistry::standard).workers(workers);
    let ch =
        builder.channel(ChannelSpec::from_plan(plan, ChannelOp::Transform(Direction::Forward)));
    let pipeline = builder.build().expect("pipeline");
    for symbol in batch {
        pipeline.submit(ch, symbol.clone(), vec![C64::zero(); N]).expect("accepted");
    }
    let mut out = Vec::with_capacity(batch.len());
    while let Some(done) = pipeline.recv(ch) {
        assert!(done.error.is_none(), "symbol {} failed: {:?}", done.seq, done.error);
        out.push(done.output);
    }
    let (stats, leftover) = pipeline.shutdown();
    assert!(leftover.is_empty());
    assert_eq!(stats.delivered, batch.len() as u64);
    out
}

#[test]
fn threaded_pool_is_bit_identical_on_a_64_symbol_ofdm_batch() {
    let mut planner = Planner::new();
    let plan = planner.plan(N, Strategy::Measure).expect("measure plan");
    assert_eq!(plan.ranking.len(), EngineRegistry::standard(N).expect("registry").len());

    let batch = ofdm_batch();
    let reference = sequential(&planner, &plan, &batch);
    for workers in [2usize, 4, 7] {
        assert_eq!(streamed(&plan, workers, &batch), reference, "workers={workers}");
    }

    // And the demodulated constellations are the transmitted ones.
    let bits0: Vec<(bool, bool)> = (0..N).map(|k| (k % 3 == 0, k % 5 < 2)).collect();
    let decided: Vec<(bool, bool)> =
        reference[0].iter().map(|c| (c.re >= 0.0, c.im >= 0.0)).collect();
    assert_eq!(decided, bits0);
}

#[test]
fn wisdom_replayed_plan_drives_the_same_executor() {
    // Plan, serialize the wisdom, revive a fresh planner from the
    // text, and check the replayed plan drives a pipeline that matches
    // the original plan's engine.
    let mut planner = Planner::new();
    let plan = planner.plan(N, Strategy::Estimate).expect("plan");
    let text = planner.wisdom().serialize();

    let mut revived = Planner::new().with_wisdom(Wisdom::parse(&text));
    let replay = revived.plan(N, Strategy::Estimate).expect("replay");
    assert!(replay.from_wisdom);
    assert_eq!(replay.best().name, plan.best().name);

    let batch = ofdm_batch();
    assert_eq!(streamed(&replay, 4, &batch), sequential(&planner, &plan, &batch));
}

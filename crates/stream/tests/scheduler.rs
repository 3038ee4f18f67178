//! The sharded scheduler's two load-bearing properties, tested from
//! outside the crate through the per-worker counters on
//! [`StreamStats`]:
//!
//! * **Work-stealing fairness**: one channel flooding its home worker
//!   with slow transforms cannot idle the rest of the pool — siblings
//!   steal from the backlog, and a probe channel homed elsewhere still
//!   makes progress while the flood is outstanding.
//! * **Affinity**: under balanced serial load (never more than one
//!   symbol in the pipeline) nothing is ever stolen, and every
//!   channel's transforms land exactly on its home worker.
//!
//! Both run under any pool size — including `AFFT_STREAM_WORKERS`
//! forcing 1 or 4 — because the stealing policy (only from queues
//! holding at least two jobs) makes the affinity outcome deterministic
//! and the fairness test skips itself on a 1-worker pool, where there
//! is nobody to steal.

use afft_core::engine::EngineRegistry;
use afft_core::Direction;
use afft_num::{Complex, C64};
use afft_stream::{ChannelSpec, StreamPipeline, StreamStats};

fn tagged(n: usize, tag: f64) -> Vec<C64> {
    (0..n).map(|i| Complex::new(tag, i as f64 / n as f64)).collect()
}

/// Per-worker claims must account for every finished transform, split
/// exactly into local hits and steals.
fn assert_claims_coherent(stats: &StreamStats) {
    for (w, &transforms) in stats.worker_transforms.iter().enumerate() {
        assert_eq!(
            transforms,
            stats.worker_local[w] + stats.worker_stolen[w],
            "worker {w}: transforms must equal local + stolen claims"
        );
    }
    assert_eq!(
        stats.worker_transforms.iter().sum::<u64>(),
        stats.completed,
        "every completed symbol was claimed by exactly one worker"
    );
}

#[test]
fn flooded_channel_is_drained_by_steals_while_others_progress() {
    let mut builder = StreamPipeline::builder(EngineRegistry::paper).workers(4).queue_depth(64);
    // The flood: a deliberately slow O(n²) engine, so its home worker
    // is saturated and a backlog forms on its shard.
    let flood = builder.channel(ChannelSpec::transform(1024, "dft_naive", Direction::Forward));
    // The probe: a fast channel homed on a different worker.
    let probe = builder.channel(ChannelSpec::transform(64, "radix2_dit", Direction::Forward));
    let pipeline = builder.build().unwrap();
    if pipeline.worker_count() < 2 {
        // One worker: nobody to steal from it. The policy under test
        // does not exist; the backpressure suites cover this shape.
        return;
    }
    assert_ne!(
        pipeline.home_worker(flood),
        pipeline.home_worker(probe),
        "test setup: the probe must not share the flood's home worker"
    );

    const FLOOD_SYMBOLS: u64 = 96;
    for s in 0..FLOOD_SYMBOLS {
        pipeline.submit(flood, tagged(1024, s as f64), vec![Complex::zero(); 1024]).unwrap();
    }
    pipeline.submit(probe, tagged(64, 0.5), vec![Complex::zero(); 64]).unwrap();

    // The probe completes while the flood is still being worked off —
    // its home worker is not wedged behind the flooded shard.
    let done = pipeline.recv(probe).expect("probe symbol outstanding");
    assert!(done.error.is_none());
    assert!(
        pipeline.outstanding(flood) > 0,
        "96 slow symbols cannot all finish before one fast probe returns"
    );

    // Drain the flood and check the scheduler counters: the backlog
    // was too deep for one worker, so siblings must have stolen, and
    // the stolen symbols ran off-home.
    while pipeline.recv(flood).is_some() {}
    let (stats, leftover) = pipeline.shutdown();
    assert!(leftover.is_empty());
    assert_eq!(stats.completed, FLOOD_SYMBOLS + 1);
    assert_claims_coherent(&stats);
    assert!(stats.steals() > 0, "a flooded shard must be stolen from: {stats}");
    assert!(stats.worker_stolen.iter().sum::<u64>() > 0);
    assert!(stats.local_hit_ratio() < 1.0);
    let active = stats.worker_transforms.iter().filter(|&&t| t > 0).count();
    assert!(active >= 2, "stealing must spread the flood over the pool: {stats}");
}

#[test]
fn balanced_serial_load_stays_on_home_workers_with_zero_steals() {
    let mut builder = StreamPipeline::builder(EngineRegistry::paper).workers(4).queue_depth(8);
    let channels: Vec<_> = (0..4)
        .map(|_| builder.channel(ChannelSpec::transform(64, "radix2_dit", Direction::Forward)))
        .collect();
    let pipeline = builder.build().unwrap();
    let workers = pipeline.worker_count();

    // Strictly serial traffic: at most one symbol in the pipeline at
    // any instant, so no shard queue ever holds two jobs and the
    // steal policy (victims need >= 2) can never fire — for ANY pool
    // size. Distinct per-channel symbol counts make misrouting show up
    // as a count mismatch, not a coincidence.
    let mut expected = vec![0u64; workers];
    for (i, &ch) in channels.iter().enumerate() {
        let symbols = (i as u64 + 1) * 5;
        expected[pipeline.home_worker(ch)] += symbols;
        for s in 0..symbols {
            pipeline.submit(ch, tagged(64, s as f64), vec![Complex::zero(); 64]).unwrap();
            let done = pipeline.recv(ch).expect("serial symbol outstanding");
            assert_eq!(done.seq, s);
            assert!(done.error.is_none());
        }
    }

    let (stats, leftover) = pipeline.shutdown();
    assert!(leftover.is_empty());
    assert_eq!(stats.completed, 5 + 10 + 15 + 20);
    assert_claims_coherent(&stats);
    assert_eq!(stats.steals(), 0, "serial load must never trigger a steal: {stats}");
    assert_eq!(stats.worker_stolen, vec![0; workers]);
    assert_eq!(stats.local_hit_ratio(), 1.0);
    assert_eq!(
        stats.worker_transforms, expected,
        "every channel's transforms must land on its home worker"
    );
    // The shard high-water marks tell the same story: load existed
    // only where channels are homed, and never deeper than one.
    assert_eq!(stats.shard_high_water.len(), workers);
    for (w, &hwm) in stats.shard_high_water.iter().enumerate() {
        if expected[w] > 0 {
            assert_eq!(hwm, 1, "serial load queues exactly one symbol at a time on worker {w}");
        } else {
            assert_eq!(hwm, 0, "worker {w} is nobody's home and saw no queue");
        }
    }
}

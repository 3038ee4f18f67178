//! `modem_tcp` and `modem_inproc`: the shipped `afft_net` binary's
//! channel table — WiMAX-256 (CP 64) and UWB-128 (CP 32), modulate and
//! demodulate, each on its Estimate-planned engine — driven closed
//! loop with [`WINDOW`] symbols in flight, round robin over the
//! channels. `modem_tcp` sends them over one loopback connection to a
//! `NetServer`; `modem_inproc` submits them straight into a
//! `StreamPipeline`, so the stream layer's per-symbol cost shows even
//! where the wire would hide it.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use afft_core::engine::EngineRegistry;
use afft_core::ofdm::Ofdm;
use afft_net::{NetClient, NetEvent, NetServer};
use afft_num::C64;
use afft_planner::{take_engine, Planner, Strategy};
use afft_stream::{ChannelId, ChannelOp, ChannelSpec, StreamPipeline};

use crate::stats::{iq_mean, percentile, sorted, Reservoir};
use crate::trace::Tracer;
use crate::{bit_identical, Phase, Reps, Rng};

/// Symbols in flight: the closed loop's window.
const WINDOW: usize = 16;
/// The server/pipeline pool, fixed so the load matches a 2-core host.
const WORKERS: usize = 2;
/// The pipeline submission budget, as `afft_net` ships it.
const QUEUE_DEPTH: usize = 64;
/// Completed symbols between two readings of the host-speed gauge.
const GAUGE_EVERY: u64 = 64;
/// Distinct input symbols per channel, each with its expected output.
const POOL: usize = 64;

/// `(subcarriers, cyclic prefix)` of the two OFDM air interfaces.
pub const OFDM_SIZES: [(usize, usize); 2] = [(256, 64), (128, 32)];

/// The pipeline's stage histograms, as its stats JSON names them.
pub const STAGES: [&str; 4] = ["queue_wait", "transform", "reorder_park", "latency"];

/// How symbols reach the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Tcp,
    InProc,
}

impl Transport {
    /// Share of a symbol's latency that slows as the host-speed gauge
    /// does (see `calib::at_ref`). Much of it is thread wake-ups, and
    /// over TCP socket calls, in the kernel, which the host's slow
    /// states hurt less than the gauge's floating-point chains. Runs in
    /// three host states (gauge about 2.4, 3.0-4.0 and 5.6 us) agree
    /// within 6% at these shares; at 0.6 the TCP runs in the quickest
    /// state read 15% low.
    fn gauge_share(self) -> f64 {
        match self {
            Transport::Tcp => 0.8,
            Transport::InProc => 0.6,
        }
    }
}

/// One serving channel: `(label, n, cp, modulate?)`, in the `afft_net`
/// binary's registration order.
const CHANNELS: [(&str, usize, usize, bool); 4] = [
    ("wimax_tx", 256, 64, true),
    ("wimax_rx", 256, 64, false),
    ("uwb_tx", 128, 32, true),
    ("uwb_rx", 128, 32, false),
];

/// Inputs of one channel and the output an in-process `Ofdm` call on
/// the same engine gives for each.
struct Pool {
    inputs: Vec<Vec<C64>>,
    expected: Vec<Vec<C64>>,
}

/// The set-up state: what serves the symbols.
enum Serving {
    Tcp {
        server: NetServer,
        client: NetClient,
    },
    InProc {
        pipeline: StreamPipeline,
        ids: Vec<ChannelId>,
        /// Recycled input and output buffers, per channel.
        free_in: Vec<Vec<Vec<C64>>>,
        free_out: Vec<Vec<Vec<C64>>>,
    },
}

/// One symbol in flight.
struct Pending {
    ch: usize,
    idx: usize,
    req: u64,
    /// The pipeline's sequence number (in-process) or `req` (TCP).
    seq: u64,
    t0: Instant,
    root: Option<usize>,
}

/// Plans both symbol sizes with Estimate and returns the channel specs.
fn plan(tracer: &mut Tracer) -> Result<Vec<ChannelSpec>, String> {
    let mut planner = Planner::new();
    let mut plans = Vec::new();
    for (n, _) in OFDM_SIZES {
        let t = tracer.clock();
        plans.push(planner.plan(n, Strategy::Estimate).map_err(|e| e.to_string())?);
        tracer.span("planner.estimate", t, None, n as u64);
    }
    Ok(CHANNELS
        .iter()
        .map(|&(_, n, cp, modulate)| {
            let plan = plans.iter().find(|p| p.n == n).expect("every channel size is planned");
            let op =
                if modulate { ChannelOp::Modulate { cp } } else { ChannelOp::Demodulate { cp } };
            ChannelSpec::from_plan(plan, op)
        })
        .collect())
}

fn set_up(
    transport: Transport,
    tracer: &mut Tracer,
) -> Result<(Vec<ChannelSpec>, Serving), String> {
    let specs = plan(tracer)?;
    let serving = match transport {
        Transport::Tcp => {
            let mut builder = NetServer::builder(EngineRegistry::standard)
                .workers(WORKERS)
                .queue_depth(QUEUE_DEPTH);
            for spec in &specs {
                builder.channel(spec.clone());
            }
            let server = builder.serve("127.0.0.1:0").map_err(|e| e.to_string())?;
            let client = NetClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
            if client.channels().len() != specs.len() {
                return Err("HELLO does not advertise every channel".into());
            }
            Serving::Tcp { server, client }
        }
        Transport::InProc => {
            let mut builder = StreamPipeline::builder(EngineRegistry::standard)
                .workers(WORKERS)
                .queue_depth(QUEUE_DEPTH);
            let ids = specs.iter().map(|s| builder.channel(s.clone())).collect();
            let pipeline = builder.build().map_err(|e| e.to_string())?;
            let none = || specs.iter().map(|_| Vec::new()).collect();
            Serving::InProc { pipeline, ids, free_in: none(), free_out: none() }
        }
    };
    Ok((specs, serving))
}

/// Drains and stops the serving side; every accepted symbol must have
/// been delivered.
fn tear_down(serving: Serving) -> Result<(), String> {
    let stats = match serving {
        Serving::Tcp { server, client } => {
            drop(client);
            server.shutdown()
        }
        Serving::InProc { pipeline, .. } => {
            let (stats, leftover) = pipeline.shutdown();
            if !leftover.is_empty() {
                return Err(format!("{} completions left undelivered", leftover.len()));
            }
            stats
        }
    };
    if stats.delivered != stats.submitted {
        return Err(format!("drain lost work: {} of {}", stats.delivered, stats.submitted));
    }
    Ok(())
}

/// The symbol pools, with expected outputs from direct `Ofdm` calls on
/// the planned engines. The direct calls are spanned as `core.ofdm.*`.
fn make_pools(
    specs: &[ChannelSpec],
    seed: u64,
    tracer: &mut Tracer,
    phase: &mut Phase,
) -> Result<Vec<Pool>, String> {
    let mut rng = Rng::new(seed, 0x0fd3);
    let mut pools: Vec<Pool> = Vec::new();
    for (&(_, n, cp, modulate), spec) in CHANNELS.iter().zip(specs) {
        let engine = take_engine(EngineRegistry::standard, n, &spec.engine);
        let mut ofdm =
            Ofdm::with_engine(engine.map_err(|e| e.to_string())?, cp).map_err(|e| e.to_string())?;
        let inputs: Vec<Vec<C64>> = if modulate {
            // QPSK subcarriers.
            let h = std::f64::consts::FRAC_1_SQRT_2;
            let sign = |r: &mut Rng| if r.next_u64() & 1 == 0 { h } else { -h };
            (0..POOL)
                .map(|_| (0..n).map(|_| C64::new(sign(&mut rng), sign(&mut rng))).collect())
                .collect()
        } else {
            // The matching modulator's symbols plus a little noise.
            let tx = pools.last().ok_or("a demodulator follows its modulator")?;
            tx.expected
                .iter()
                .map(|s| s.iter().map(|&x| x + C64::new(rng.unit(), rng.unit()) * 1e-3).collect())
                .collect()
        };
        let mut expected = Vec::with_capacity(POOL);
        let mut ns = Vec::with_capacity(POOL);
        let name = if modulate { "core.ofdm.modulate" } else { "core.ofdm.demodulate" };
        for (i, input) in inputs.iter().enumerate() {
            let mut out = vec![C64::zero(); spec.output_len()];
            let t0 = Instant::now();
            let done = if modulate {
                ofdm.modulate_into(input, &mut out)
            } else {
                ofdm.demodulate_into(input, &mut out)
            };
            let t1 = Instant::now();
            done.map_err(|e| e.to_string())?;
            tracer.record(name, t0, t1, None, i as u64);
            ns.push((t1 - t0).as_nanos() as f64);
            expected.push(out);
        }
        let op = if modulate { "modulate" } else { "demodulate" };
        if let Some(q) = percentile(&sorted(ns), 50.0) {
            phase.layers.insert(format!("core.ofdm.{op}.ns.{n}"), q.value);
        }
        pools.push(Pool { inputs, expected });
    }
    Ok(pools)
}

impl Serving {
    /// Submits one symbol. `Ok(None)` means the program refused it.
    fn submit(
        &mut self,
        ch: usize,
        req: u64,
        input: &[C64],
        out_len: usize,
    ) -> Result<Option<u64>, String> {
        match self {
            Serving::Tcp { client, .. } => {
                client.submit(ch as u16, req, input).map_err(|e| e.to_string())?;
                Ok(Some(req))
            }
            Serving::InProc { pipeline, ids, free_in, free_out } => {
                let mut inbuf = free_in[ch].pop().unwrap_or_default();
                inbuf.clear();
                inbuf.extend_from_slice(input);
                let outbuf = free_out[ch].pop().unwrap_or_else(|| vec![C64::zero(); out_len]);
                match pipeline.submit_checked(ids[ch], inbuf, outbuf) {
                    Ok(seq) => Ok(Some(seq)),
                    Err(e) => {
                        let (i, o) = e.into_buffers();
                        free_in[ch].push(i);
                        free_out[ch].push(o);
                        Ok(None)
                    }
                }
            }
        }
    }

    /// Waits for the next result. Returns its position in `inflight`
    /// and the output samples, or the program's reason for failing it.
    fn recv(
        &mut self,
        inflight: &VecDeque<Pending>,
    ) -> Result<(usize, Result<Vec<C64>, String>), String> {
        match self {
            Serving::Tcp { client, .. } => {
                let (seq, got) = match client.recv_event().map_err(|e| e.to_string())? {
                    NetEvent::Result { seq, samples, .. } => (seq, Ok(samples)),
                    NetEvent::RetryAfter { seq, .. } => (seq, Err("shed with RETRY_AFTER".into())),
                    NetEvent::ServerError { seq, message, .. } => (seq, Err(message)),
                    NetEvent::Stats { .. } => return Err("unrequested STATS frame".into()),
                };
                let pos = inflight
                    .iter()
                    .position(|p| p.req == seq)
                    .ok_or_else(|| format!("reply for unknown seq {seq}"))?;
                Ok((pos, got))
            }
            Serving::InProc { pipeline, ids, free_in, free_out } => {
                // Per-channel delivery is in order, so the oldest symbol
                // in flight is the head of its channel.
                let front = inflight.front().ok_or("nothing in flight")?;
                let done = pipeline
                    .recv_checked(ids[front.ch])
                    .map_err(|e| e.to_string())?
                    .ok_or("channel drained with a symbol in flight")?;
                if done.seq != front.seq {
                    return Err(format!("delivered seq {} before {}", done.seq, front.seq));
                }
                free_in[front.ch].push(done.input);
                match done.error {
                    None => Ok((0, Ok(done.output))),
                    Some(e) => {
                        free_out[front.ch].push(done.output);
                        Ok((0, Err(e.to_string())))
                    }
                }
            }
        }
    }

    /// Hands an output buffer back for reuse.
    fn recycle(&mut self, ch: usize, output: Vec<C64>) {
        if let Serving::InProc { free_out, .. } = self {
            free_out[ch].push(output);
        }
    }

    /// The pipeline's stats document: over the wire for TCP, from
    /// `StreamPipeline::stats` in process.
    fn stats_json(&mut self) -> Result<String, String> {
        match self {
            Serving::Tcp { client, .. } => {
                client.request_stats(u64::MAX).map_err(|e| e.to_string())?;
                match client.recv_event().map_err(|e| e.to_string())? {
                    NetEvent::Stats { json } => Ok(json),
                    other => Err(format!("expected STATS, got {other:?}")),
                }
            }
            Serving::InProc { pipeline, .. } => Ok(pipeline.stats().to_json()),
        }
    }
}

/// The symbol stream: which pool entry goes next, and the request ids.
struct Feed {
    rng: Rng,
    next: u64,
}

/// One closed-loop pass until `deadline`; returns symbols completed
/// and elapsed seconds.
fn pass(
    serving: &mut Serving,
    pools: &[Pool],
    feed: &mut Feed,
    deadline: Instant,
    tracer: &mut Tracer,
    phase: &mut Phase,
    latencies: &mut Reservoir,
) -> Result<(u64, f64), String> {
    let (submit_span, recv_span) = match serving {
        Serving::Tcp { .. } => ("net.submit", "net.recv_wait"),
        Serving::InProc { .. } => ("stream.submit", "stream.recv_wait"),
    };
    let start = Instant::now();
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(WINDOW);
    let mut completed = 0u64;
    loop {
        while inflight.len() < WINDOW && Instant::now() < deadline {
            feed.next += 1;
            let req = feed.next;
            let ch = (req % CHANNELS.len() as u64) as usize;
            let idx = feed.rng.below(POOL);
            let traced = tracer.sampled(req);
            let t0 = Instant::now();
            let root = tracer.open("bench.request", traced.then_some(t0), req);
            let ts = tracer.clock_if(traced);
            let accepted =
                serving.submit(ch, req, &pools[ch].inputs[idx], pools[ch].expected[idx].len())?;
            tracer.span(submit_span, ts, root, req);
            match accepted {
                Some(seq) => inflight.push_back(Pending { ch, idx, req, seq, t0, root }),
                None => {
                    tracer.close(root);
                    phase.attempted += 1;
                    phase.failed += 1;
                }
            }
        }
        if inflight.is_empty() {
            break;
        }
        let ts = tracer.clock();
        let (pos, got) = serving.recv(&inflight)?;
        let p = inflight.remove(pos).expect("recv returns a position in flight");
        let traced = p.root.is_some();
        tracer.span(recv_span, ts.filter(|_| traced), p.root, p.req);
        let tv = tracer.clock_if(traced);
        let correct = match got {
            Ok(out) => {
                let same = bit_identical(&out, &pools[p.ch].expected[p.idx]);
                serving.recycle(p.ch, out);
                same
            }
            Err(_) => false,
        };
        tracer.span("bench.verify", tv, p.root, p.req);
        latencies.push(p.t0.elapsed().as_nanos() as f64);
        tracer.close(p.root);
        phase.attempted += 1;
        phase.failed += u64::from(!correct);
        completed += 1;
        if completed.is_multiple_of(GAUGE_EVERY) {
            phase.read_gauge();
        }
    }
    Ok((completed, start.elapsed().as_secs_f64()))
}

/// The first number after `"key":` in `doc`.
fn json_num(doc: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &doc[doc.find(&pat)? + pat.len()..];
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c))).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Count-weighted mean over channels of one stage's p50 in a pipeline
/// stats document (`StreamStats::to_json`, also nested in STATS).
fn stage_p50(doc: &str, stage: &str) -> Option<f64> {
    let channels = &doc[doc.find("\"channels\":[")?..];
    let pat = format!("\"{stage}\":{{");
    let (mut weighted, mut total) = (0.0, 0.0);
    for (at, _) in channels.match_indices(&pat) {
        let obj = &channels[at..];
        let obj = &obj[..obj.find('}')?];
        if let (Some(count), Some(p50)) = (json_num(obj, "count"), json_num(obj, "p50_ns")) {
            weighted += count * p50;
            total += count;
        }
    }
    (total > 0.0).then(|| weighted / total)
}

pub fn run(
    transport: Transport,
    seed: u64,
    seconds: f64,
    passes: usize,
    reps: Reps,
    tracer: &mut Tracer,
) -> Result<Phase, String> {
    let mut phase = Phase::new(transport.gauge_share());
    let mut kept = None;
    let began = Instant::now();
    while reps.more(phase.setup_s.len(), began) {
        if let Some((_, serving)) = kept.take() {
            tear_down(serving)?;
        }
        let t = phase.set_up_begin()?;
        kept = Some(set_up(transport, tracer)?);
        phase.set_up_done(t);
    }
    let (specs, mut serving) = kept.ok_or("set-up never ran")?;
    for (&(label, n, cp, _), spec) in CHANNELS.iter().zip(&specs) {
        phase.config.insert(format!("engine.{label}"), format!("{} (n={n}, cp={cp})", spec.engine));
    }
    let pools = make_pools(&specs, seed, tracer, &mut phase)?;

    let mut feed = Feed { rng: Rng::new(seed, 0x5e9d), next: 0 };
    let mut latencies = Reservoir::default();
    tracer.begin_measuring();
    for _ in 0..passes {
        phase.begin_pass()?;
        let deadline = Instant::now() + Duration::from_secs_f64(seconds / passes as f64);
        let (ops, secs) =
            pass(&mut serving, &pools, &mut feed, deadline, tracer, &mut phase, &mut latencies)?;
        phase.end_pass(ops as f64 / secs, &[latencies.sorted()])?;
        latencies.clear();
    }

    if tracer.enabled() {
        let doc = serving.stats_json()?;
        for stage in STAGES {
            if let Some(v) = stage_p50(&doc, stage) {
                phase.layers.insert(format!("stream.{stage}.ns"), v);
            }
        }
        for key in ["steals", "local_hit_ratio", "queue_high_water", "rejected"] {
            let v = json_num(&doc, key).ok_or_else(|| format!("stats lack {key}"))?;
            phase.layers.insert(format!("stream.{key}"), v);
        }
        let calls = match transport {
            Transport::Tcp => ["net.submit", "net.recv_wait"],
            Transport::InProc => ["stream.submit", "stream.recv_wait"],
        };
        for call in calls {
            let d = tracer.durations(call);
            for (p, tag) in [(50.0, "p50"), (99.0, "p99")] {
                if let Some(q) = percentile(&d, p) {
                    phase.layers.insert(format!("{call}.ns.{tag}"), q.value);
                }
            }
        }
        if transport == Transport::Tcp {
            for key in ["frames_in", "shed", "protocol_errors"] {
                let v = json_num(&doc, key).ok_or_else(|| format!("STATS lacks {key}"))?;
                phase.layers.insert(format!("net.{key}"), v);
            }
            if let Some(server) = stage_p50(&doc, "latency") {
                let client_ns = iq_mean(&phase.pass_p50_us) * 1e3;
                phase.layers.insert("net.added.ns".into(), client_ns - server);
            }
        }
        let estimate = tracer.durations("planner.estimate");
        if let Some(q) = percentile(&estimate, 50.0) {
            phase.layers.insert("planner.estimate.us".into(), q.value / 1e3);
        }
    }
    tear_down(serving)?;
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_readers() {
        let doc = r#"{"frames_in":12,"shed":0,"pipeline":{"rejected":3,"scheduler":{"steals":4,"local_hit_ratio":0.5},"channels":[{"channel":0,"latency":{"count":10,"mean_ns":1,"p50_ns":100,"p90_ns":null},"queue_wait":{"count":0,"p50_ns":null}},{"channel":1,"latency":{"count":30,"p50_ns":200}}]}}"#;
        assert_eq!(json_num(doc, "frames_in"), Some(12.0));
        assert_eq!(json_num(doc, "local_hit_ratio"), Some(0.5));
        assert_eq!(json_num(doc, "missing"), None);
        assert_eq!(stage_p50(doc, "latency"), Some(175.0));
        assert_eq!(stage_p50(doc, "queue_wait"), None);
    }
}

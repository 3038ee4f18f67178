//! The afft benchmark: four workloads from the TCP wire down to the
//! kernels and the cycle-accurate ISS, measured from outside the
//! program through the public API of each layer. See `README.md` for
//! the workloads, the metrics and the layer each metric belongs to.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod affinity;
mod anysize;
mod calib;
mod iss;
mod modem;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use afft_num::C64;
use calib::{at_ref, Gauge, MIN_READINGS, SETUP_GAUGE_SHARE};
use stats::{geomean, iq_mean, median, percentile, sorted};
use trace::Tracer;

/// The end-to-end metrics every untraced run prints, with their units.
const END_TO_END: [(&str, &str); 3] =
    [("p50_ref_us", "us"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// Environment variables that silently swap the program under test:
/// the SIMD tier, the metrics layer, and the pipeline's pool size.
const REFUSED_ENV: [&str; 3] = ["AFFT_NO_SIMD", "AFFT_OBS", "AFFT_STREAM_WORKERS"];

/// Gauge readings per CPU when picking the fastest one.
const PICK_READINGS: usize = 16;

/// How often a run repeats its set-up; `setup_s` is the median.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    min: usize,
    max: usize,
    span_s: f64,
}

impl Reps {
    /// Untraced runs: at least 3 set-ups, and up to 101 spread evenly
    /// over 2 s of wall time. The host's speed switches about every
    /// second: a median over millisecond set-ups packed together would
    /// follow whichever state they fell in. A fixed count keeps the
    /// heap the set-ups leave behind, and so `peak_rss_mb`, the same
    /// from run to run.
    const UNTRACED: Reps = Reps { min: 3, max: 101, span_s: 2.0 };
    /// Traced runs set up once per phase.
    const ONCE: Reps = Reps { min: 1, max: 1, span_s: 0.0 };

    /// Whether another set-up should run, after `done` of them since
    /// `began`. When one should, first waits for its slot in the span.
    pub fn more(&self, done: usize, began: Instant) -> bool {
        if done < self.min {
            return true;
        }
        let now = began.elapsed().as_secs_f64();
        if done >= self.max || now >= self.span_s {
            return false;
        }
        let due = self.span_s * done as f64 / self.max as f64;
        if due > now {
            std::thread::sleep(std::time::Duration::from_secs_f64(due - now));
        }
        true
    }
}

/// Length of one measuring pass, seconds. Each CPU of the host switches
/// between a fast and a slow state about every second; a pass much
/// shorter than that mostly runs in one state, so the gauge can tell
/// which, and each pass starts on the CPU that is fastest at the time.
/// The run reports the interquartile mean over its fast-state passes,
/// so a pass hit by a stall does not carry the run.
const PASS_SECONDS: f64 = 0.5;

/// Per-layer metric names and units: every traced run prints all of
/// them. A layer that does no work in a workload reports 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit| m.push((name, unit));
    for &(n, _) in &anysize::SIZES {
        add(format!("core.execute_into.ns.{n}"), "ns");
    }
    for (n, _) in modem::OFDM_SIZES {
        add(format!("core.ofdm.modulate.ns.{n}"), "ns");
        add(format!("core.ofdm.demodulate.ns.{n}"), "ns");
    }
    for class in anysize::CLASSES {
        add(format!("tps_{class}"), "1/s");
    }
    for &(n, _) in &anysize::SIZES {
        add(format!("planner.measure.ms.{n}"), "ms");
        add(format!("planner.ranked.{n}"), "count");
    }
    add("planner.estimate.us".into(), "us");
    for call in ["stream.submit", "stream.recv_wait", "net.submit", "net.recv_wait"] {
        add(format!("{call}.ns.p50"), "ns");
        add(format!("{call}.ns.p99"), "ns");
    }
    for stage in modem::STAGES {
        add(format!("stream.{stage}.ns"), "ns");
    }
    add("stream.steals".into(), "count");
    add("stream.local_hit_ratio".into(), "ratio");
    add("stream.queue_high_water".into(), "count");
    add("stream.rejected".into(), "count");
    add("net.added.ns".into(), "ns");
    for counter in ["frames_in", "shed", "protocol_errors"] {
        add(format!("net.{counter}"), "count");
    }
    for n in iss::SIZES {
        add(format!("sim.cycles.{n}"), "count");
        add(format!("sim.instrs.{n}"), "count");
        add(format!("sim.cpi.{n}"), "ratio");
        add(format!("sim.coef_fetches.{n}"), "count");
        add(format!("sim.cache_misses.{n}"), "count");
        add(format!("asip.execute.host_ns.{n}"), "ns");
    }
    add("table1_err".into(), "ratio");
    add("sim_mcps".into(), "Mcycles/s");
    add("error_rate".into(), "ratio");
    add("ops_per_s".into(), "1/s");
    add("p50_us".into(), "us");
    add("p90_us".into(), "us");
    add("p99_us".into(), "us");
    add("cpu_us_per_op".into(), "us");
    add("setup_raw_s".into(), "s");
    add("gauge_ns".into(), "ns");
    for layer in ["bench", "net", "stream", "core", "asip"] {
        add(format!("self_us.{layer}"), "us");
    }
    add("trace.ops".into(), "count");
    add("trace.spans".into(), "count");
    add("trace.overhead.p50_us".into(), "us");
    add("trace.overhead.ops_pct".into(), "%");
    m
}

/// Metric name, unit and value, in print order.
type Metrics = Vec<(String, &'static str, f64)>;

/// What one phase of a workload — repeated set-up, then measuring —
/// produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The gauge around each set-up repetition, ns.
    pub setup_gauge_ns: Vec<f64>,
    /// Operations per second of each measuring pass.
    pub pass_rates: Vec<f64>,
    /// The gauge's median time in each pass, ns.
    pub pass_gauge_ns: Vec<f64>,
    /// Process CPU time per operation of each pass, us.
    pub pass_cpu_us_per_op: Vec<f64>,
    /// Process CPU seconds and operations attempted when the current
    /// pass began.
    pass_mark: Option<(f64, u64)>,
    /// The share of this workload's time that slows as the gauge does
    /// (see [`calib::at_ref`]).
    pub gauge_share: f64,
    /// The host-speed gauge, and its readings in the current pass.
    gauge: Gauge,
    gauge_ns: Vec<f64>,
    /// Latency p50, p90 and p99 of each pass, us.
    pub pass_p50_us: Vec<f64>,
    pub pass_p90_us: Vec<f64>,
    pub pass_p99_us: Vec<f64>,
    /// Fewest samples behind, and beyond, any pass's p99.
    pub p99_samples: Option<(usize, usize)>,
    /// Operations whose latency was sampled.
    pub timed_ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer figures this workload can give (names from
    /// [`per_layer_metrics`]).
    pub layers: BTreeMap<String, f64>,
    /// Configuration echoed with the result: the engine picked per
    /// size or channel.
    pub config: BTreeMap<String, String>,
}

impl Phase {
    /// An empty phase of a workload with the given gauge share.
    pub fn new(gauge_share: f64) -> Self {
        Phase { gauge_share, ..Phase::default() }
    }

    /// Reads the gauge once, between operations of a pass.
    pub fn read_gauge(&mut self) {
        let ns = self.gauge.time_ns();
        self.gauge_ns.push(ns);
    }

    /// Median of a burst of gauge readings on the current CPU, ns.
    fn gauge_burst(&mut self) -> f64 {
        let readings: Vec<f64> = (0..PICK_READINGS).map(|_| self.gauge.time_ns()).collect();
        median(&readings).unwrap_or(f64::INFINITY)
    }

    /// Moves the whole process to the CPU on which the gauge now runs
    /// fastest, and returns the gauge's time there. Each set-up and
    /// each pass starts with this.
    pub fn to_fastest_cpu(&mut self) -> Result<f64, String> {
        let mut best = (f64::INFINITY, None);
        for &cpu in affinity::allowed()? {
            affinity::pin_self(cpu)?;
            let ns = self.gauge_burst();
            if ns < best.0 {
                best = (ns, Some(cpu));
            }
        }
        affinity::pin_process(best.1.ok_or("no CPU to run on")?)?;
        Ok(best.0)
    }

    /// Opens one set-up repetition on the fastest CPU and returns its
    /// start; the gauge is read before it and again after it.
    pub fn set_up_begin(&mut self) -> Result<Instant, String> {
        let before = self.to_fastest_cpu()?;
        self.setup_gauge_ns.push(before);
        Ok(Instant::now())
    }

    /// Closes the set-up repetition begun at `started`: records its
    /// wall time, and the mean of the gauge readings around it.
    pub fn set_up_done(&mut self, started: Instant) {
        self.setup_s.push(started.elapsed().as_secs_f64());
        let after = self.gauge_burst();
        if let Some(g) = self.setup_gauge_ns.last_mut() {
            *g = (*g + after) / 2.0;
        }
    }

    /// Opens one measuring pass on the fastest CPU, and notes the CPU
    /// time and the operations so far, so [`Phase::end_pass`] can
    /// charge the pass's CPU time to its operations.
    pub fn begin_pass(&mut self) -> Result<(), String> {
        self.to_fastest_cpu()?;
        self.gauge_ns.clear();
        self.pass_mark = Some((process_cpu_s()?, self.attempted));
        Ok(())
    }

    /// Closes one measuring pass: its rate in operations per second,
    /// and its latency samples in ns, one set per operation size. A
    /// pass's percentile is the geometric mean over sizes of each
    /// size's percentile.
    pub fn end_pass(&mut self, rate: f64, samples: &[Vec<f64>]) -> Result<(), String> {
        let (cpu0, ops0) = self.pass_mark.take().ok_or("a pass ended that never began")?;
        let ops = self.attempted - ops0;
        if ops == 0 {
            return Err("a pass completed no operation".into());
        }
        self.pass_cpu_us_per_op.push((process_cpu_s()? - cpu0) / ops as f64 * 1e6);
        while self.gauge_ns.len() < MIN_READINGS {
            self.read_gauge();
        }
        self.pass_gauge_ns.push(median(&self.gauge_ns).ok_or("no gauge reading")?);
        let mut p50 = Vec::new();
        let mut p90 = Vec::new();
        let mut p99 = Vec::new();
        for set in samples {
            let set = sorted(set.clone());
            let (Some(a), Some(b)) = (percentile(&set, 50.0), percentile(&set, 99.0)) else {
                return Err("a pass timed no operation of some size".into());
            };
            p50.push(a.value / 1e3);
            p90.push(percentile(&set, 90.0).map_or(0.0, |q| q.value) / 1e3);
            p99.push(b.value / 1e3);
            let (n, beyond) = self.p99_samples.unwrap_or((usize::MAX, usize::MAX));
            self.p99_samples = Some((n.min(b.samples), beyond.min(b.beyond)));
            self.timed_ops += set.len() as u64;
        }
        self.pass_rates.push(rate);
        self.pass_p50_us.push(geomean(&p50).ok_or("no pass p50")?);
        self.pass_p90_us.push(geomean(&p90).ok_or("no pass p90")?);
        self.pass_p99_us.push(geomean(&p99).ok_or("no pass p99")?);
        Ok(())
    }
}

/// The interquartile mean over the passes of a per-pass time, each
/// rescaled to the reference speed by the gauge read during its pass.
fn at_ref_iq_mean(phase: &Phase, per_pass: &[f64]) -> f64 {
    iq_mean(&at_ref(per_pass, &phase.pass_gauge_ns, phase.gauge_share))
}

/// The end-to-end latency, `p50_ref_us`.
fn p50_ref_us(phase: &Phase) -> f64 {
    at_ref_iq_mean(phase, &phase.pass_p50_us)
}

/// The end-to-end set-up time, `setup_s`: the median over set-up
/// repetitions, each rescaled to the reference speed.
fn setup_ref_s(phase: &Phase) -> f64 {
    median(&at_ref(&phase.setup_s, &phase.setup_gauge_ns, SETUP_GAUGE_SHARE)).unwrap_or(0.0)
}

/// Small deterministic generator (splitmix64) for workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn signal(&mut self, n: usize) -> Vec<C64> {
        (0..n).map(|_| C64::new(self.unit(), self.unit())).collect()
    }
}

/// Whether two sample vectors are identical bit for bit.
pub fn bit_identical(a: &[C64], b: &[C64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    if !["modem_tcp", "modem_inproc", "anysize_oneshot", "iss_table1"].contains(&&*workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed")?.parse().map_err(|_| "--seed takes an unsigned integer")?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn run_phase(args: &Args, seconds: f64, reps: Reps, tracer: &mut Tracer) -> Result<Phase, String> {
    let passes = ((seconds / PASS_SECONDS).round() as usize).max(1);
    match args.workload.as_str() {
        "modem_tcp" => modem::run(modem::Transport::Tcp, args.seed, seconds, passes, reps, tracer),
        "modem_inproc" => {
            modem::run(modem::Transport::InProc, args.seed, seconds, passes, reps, tracer)
        }
        "anysize_oneshot" => anysize::run(args.seed, seconds, passes, reps, tracer),
        _ => iss::run(args.seed, seconds, passes, reps, tracer),
    }
}

/// Peak resident set size of this process so far, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CPU time this process has used so far, all its threads together,
/// in seconds. The kernel charges a thread only for time it really ran:
/// with paravirtual steal accounting, time the hypervisor gave to other
/// guests is left out, so unlike wall time this does not depend on how
/// busy the host's other tenants are.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15, in clock ticks.
    let fields: Vec<&str> =
        stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields.get(i).and_then(|t| t.parse::<f64>().ok()).ok_or("malformed /proc/self/stat".into())
    };
    // USER_HZ, the unit of these fields, is 100 on every Linux target.
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// Host CPU ticks `(stolen, total)` so far, from `/proc/stat`: time
/// the hypervisor gave to other guests shows as stolen.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_map<V>(
    entries: impl IntoIterator<Item = (String, V)>,
    fmt: impl Fn(V) -> String,
) -> String {
    let body: Vec<String> =
        entries.into_iter().map(|(k, v)| format!("{}:{}", json_str(&k), fmt(v))).collect();
    format!("{{{}}}", body.join(","))
}

/// The host and configuration, echoed with every result.
fn host_config(args: &Args) -> BTreeMap<String, String> {
    let mut c = BTreeMap::new();
    c.insert("workload".into(), args.workload.clone());
    c.insert("seed".into(), args.seed.to_string());
    c.insert("seconds".into(), args.seconds.to_string());
    c.insert("trace".into(), args.trace.to_string());
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    c.insert("available_parallelism".into(), cores.to_string());
    c.insert("simd".into(), afft_core::simd::active_level().as_str().to_string());
    for (k, v) in std::env::vars() {
        if k.starts_with("AFFT_") {
            c.insert(format!("env.{k}"), v);
        }
    }
    c
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <modem_tcp|modem_inproc|anysize_oneshot|iss_table1> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to record a run with {var} set: it changes the program");
        std::process::exit(2);
    }
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut config = host_config(args);
    let started = Instant::now();
    let ticks_before = cpu_ticks();
    let (phase, metrics) = if args.trace {
        traced(args)?
    } else {
        let phase = run_phase(args, args.seconds, Reps::UNTRACED, &mut Tracer::new(false))?;
        let values = [p50_ref_us(&phase), peak_rss_mb()?, setup_ref_s(&phase)];
        let metrics: Metrics =
            END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n.to_string(), u, v)).collect();
        (phase, metrics)
    };
    config.extend(phase.config.clone());
    for (key, values) in [
        ("pass.ops_per_s", &phase.pass_rates),
        ("pass.cpu_us_per_op", &phase.pass_cpu_us_per_op),
        ("pass.gauge_ns", &phase.pass_gauge_ns),
        ("setup.s", &phase.setup_s),
        ("setup.gauge_ns", &phase.setup_gauge_ns),
        ("pass.p50_us", &phase.pass_p50_us),
        ("pass.p90_us", &phase.pass_p90_us),
        ("pass.p99_us", &phase.pass_p99_us),
    ] {
        let v: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        config.insert(key.into(), v.join(" "));
    }
    config.insert("latency.timed_ops".into(), phase.timed_ops.to_string());
    if let Some((n, beyond)) = phase.p99_samples {
        config.insert("latency.p99.min_samples_per_pass".into(), n.to_string());
        config.insert("latency.p99.min_beyond_per_pass".into(), beyond.to_string());
    }
    config.insert("wall_s".into(), format!("{:.3}", started.elapsed().as_secs_f64()));
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        let pct = (s1 - s0) as f64 / (t1 - t0).max(1) as f64 * 100.0;
        config.insert("host.steal_pct".into(), format!("{pct:.1}"));
    }
    let error_rate = phase.failed as f64 / phase.attempted.max(1) as f64;
    config.insert("error_rate".into(), error_rate.to_string());
    println!("config: {}", json_map(config, |v| json_str(&v)));

    for (name, _, value) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
    }
    if phase.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    let metrics_json = json_map(metrics.into_iter().map(|(n, u, v)| (n, (u, v))), |(u, v)| {
        format!("{{\"value\":{v},\"unit\":{}}}", json_str(u))
    });
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics_json}}}",
        phase.failed == 0,
        phase.attempted,
        phase.failed
    );
    Ok(())
}

/// The traced run: an untraced phase and a traced phase of half the
/// time each, so the tracing overhead is measured, then the per-layer
/// metrics from the traced phase and its spans.
fn traced(args: &Args) -> Result<(Phase, Metrics), String> {
    let half = args.seconds / 2.0;
    let base = run_phase(args, half, Reps::ONCE, &mut Tracer::new(false))?;
    let mut tracer = Tracer::new(true);
    let phase = run_phase(args, half, Reps::ONCE, &mut tracer)?;

    let mut values = phase.layers.clone();
    let (self_ns, ops) = tracer.self_ns_per_op();
    for (layer, ns) in self_ns {
        values.insert(format!("self_us.{layer}"), ns / 1e3);
    }
    values.insert("trace.ops".into(), ops as f64);
    values.insert("ops_per_s".into(), iq_mean(&base.pass_rates));
    values.insert("p50_us".into(), iq_mean(&base.pass_p50_us));
    values.insert("p90_us".into(), iq_mean(&base.pass_p90_us));
    values.insert("p99_us".into(), iq_mean(&base.pass_p99_us));
    values.insert("cpu_us_per_op".into(), iq_mean(&base.pass_cpu_us_per_op));
    values.insert("setup_raw_s".into(), median(&base.setup_s).unwrap_or(0.0));
    values.insert("gauge_ns".into(), iq_mean(&base.pass_gauge_ns));
    values.insert("trace.spans".into(), tracer.spans().len() as f64);
    values.insert("trace.overhead.p50_us".into(), p50_ref_us(&phase) - p50_ref_us(&base));
    // Seconds per operation, so the rescaling applies as to any time.
    let secs_per_op = |p: &Phase| {
        let secs: Vec<f64> = p.pass_rates.iter().map(|r| 1.0 / r).collect();
        at_ref_iq_mean(p, &secs)
    };
    let (traced, untraced) = (secs_per_op(&phase), secs_per_op(&base));
    values.insert("trace.overhead.ops_pct".into(), (1.0 - untraced / traced) * 100.0);
    values.insert(
        "error_rate".into(),
        (base.failed + phase.failed) as f64 / (base.attempted + phase.attempted).max(1) as f64,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}.csv", args.workload));
    tracer.write_csv(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;

    let names = per_layer_metrics();
    if let Some(stray) = values.keys().find(|k| !names.iter().any(|(n, _)| n == *k)) {
        return Err(format!("workload produced an undeclared per-layer metric {stray}"));
    }
    let metrics = names
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            (name, unit, v)
        })
        .collect();
    let merged = Phase {
        attempted: base.attempted + phase.attempted,
        failed: base.failed + phase.failed,
        config: phase.config.clone(),
        ..Phase::default()
    };
    Ok((merged, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names the program prints must be exactly the ones
    /// `BENCHMARK.json` declares, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = doc.find(&format!("\"{key}\"")).expect(key);
            let body = &doc[start..];
            let body = &body[..body.find(']').expect("list end")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect(f) + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = open + rest[open..].find('"').expect("value end");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer_metrics().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(section("per_layer"), layers);
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let names = per_layer_metrics();
        assert!(names.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in &names {
            assert!(seen.insert(name.clone()), "duplicate {name}");
            assert!(name.len() <= 64);
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let mut r = Rng::new(1, 2);
        assert!((0..1000).map(|_| r.unit()).all(|u| (-1.0..1.0).contains(&u)));
    }
}

//! The serving side: a TCP listener whose connections feed a shared
//! [`StreamPipeline`].
//!
//! # Thread shape
//!
//! One **accept thread** polls a non-blocking listener; each connection
//! gets a **handler thread** that reads frames and submits symbols; each
//! channel gets a **router thread** that receives the channel's in-order
//! completions and writes them back to whichever connection submitted
//! them. Handlers and routers meet at a per-channel *pending map*
//! (pipeline seq → submitting connection): the handler inserts under
//! the map's lock **around** the `try_submit` call, so a completion can
//! never be routed before its origin is recorded.
//!
//! # Backpressure = load-shedding
//!
//! A full pipeline budget ([`SubmitError::QueueFull`]) or a connection
//! over its outstanding-frames cap is answered with a `RETRY_AFTER`
//! frame instead of queueing unboundedly — the symbol is *not* accepted
//! and its buffers go straight back to the channel's pool. Every frame
//! the pipeline *does* accept is answered eventually: a `RESULT`, an
//! `ERROR` carrying the backend's verdict, or — if a worker panic
//! poisons the pipeline — an `ERROR` from the router's drain.
//!
//! # Buffer recycling
//!
//! Payload buffers travel with the job and come back in the completion
//! (the stream crate's own contract); the router returns them to a
//! per-channel pool the handlers draw from, so the steady-state
//! per-frame path allocates nothing.
//!
//! # Graceful drain
//!
//! [`NetServer::shutdown`] stops accepting, closes the pipeline intake
//! (late frames are answered with `ERROR`), lets every handler drain
//! the frames already buffered on its socket, lets every router deliver
//! every accepted completion, then joins the pool — accepted work is
//! never dropped on the floor.

use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use afft_core::Direction;
use afft_num::{Complex, C64};
use afft_obs::json;
use afft_planner::RegistryFactory;
use afft_stream::{
    ChannelId, ChannelOp, ChannelSpec, Completion, RecvError, StreamPipeline, StreamStats,
    SubmitError,
};

use crate::proto::{
    self, ChannelInfo, Header, OpKind, BYTES_PER_SAMPLE, HEADER_LEN, OP_ERROR, OP_HELLO, OP_RESULT,
    OP_RETRY_AFTER, OP_STATS, OP_STATS_JSON, OP_SUBMIT,
};

/// How often blocked reads and waits re-check the shutdown flag.
const POLL_TICK: Duration = Duration::from_millis(50);
/// Accept-loop sleep between polls of the non-blocking listener.
const ACCEPT_TICK: Duration = Duration::from_millis(5);
/// Cap on pooled buffer pairs per channel — enough to cover the whole
/// submission budget without letting a burst pin memory forever.
const POOL_CAP: usize = 64;

/// Configures and launches a [`NetServer`]. Obtained from
/// [`NetServer::builder`].
#[derive(Debug)]
pub struct NetServerBuilder {
    factory: RegistryFactory,
    specs: Vec<ChannelSpec>,
    workers: usize,
    queue_depth: usize,
    retry_after_ms: u32,
    max_conn_outstanding: u64,
}

impl NetServerBuilder {
    /// Worker-pool size for the underlying pipeline (see
    /// [`afft_stream::StreamBuilder::workers`]).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Pipeline-wide submission budget; a full budget is what turns
    /// into `RETRY_AFTER` frames (see
    /// [`afft_stream::StreamBuilder::queue_depth`]).
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// The retry hint (milliseconds) carried in `RETRY_AFTER` frames.
    #[must_use]
    pub fn retry_after_ms(mut self, millis: u32) -> Self {
        self.retry_after_ms = millis;
        self
    }

    /// Per-connection cap on accepted-but-unanswered frames; a
    /// connection at its cap is shed with `RETRY_AFTER` even when the
    /// pipeline has budget, so one slow reader cannot monopolise the
    /// pool or balloon the server's reply backlog.
    #[must_use]
    pub fn max_conn_outstanding(mut self, frames: u64) -> Self {
        self.max_conn_outstanding = frames.max(1);
        self
    }

    /// Registers a serving channel; returns its **wire** index (the
    /// protocol's `channel` field, advertised in `HELLO`).
    pub fn channel(&mut self, spec: ChannelSpec) -> u16 {
        self.specs.push(spec);
        (self.specs.len() - 1) as u16
    }

    /// Builds the pipeline, binds `addr` (e.g. `"127.0.0.1:0"` for an
    /// ephemeral port), and spawns the accept and router threads.
    ///
    /// # Errors
    ///
    /// Any pipeline construction error (bad channel spec, unknown
    /// engine) mapped to [`std::io::Error`], or the bind failure
    /// itself.
    pub fn serve(self, addr: &str) -> std::io::Result<NetServer> {
        let mut builder = StreamPipeline::builder(self.factory)
            .workers(self.workers)
            .queue_depth(self.queue_depth);
        let mut channels = Vec::with_capacity(self.specs.len());
        let mut infos = Vec::with_capacity(self.specs.len());
        for (i, spec) in self.specs.iter().enumerate() {
            channels.push(builder.channel(spec.clone()));
            let (kind, cp) = match spec.op {
                ChannelOp::Transform(Direction::Forward) => (OpKind::Forward, 0),
                ChannelOp::Transform(Direction::Inverse) => (OpKind::Inverse, 0),
                ChannelOp::Modulate { cp } => (OpKind::Modulate, cp),
                ChannelOp::Demodulate { cp } => (OpKind::Demodulate, cp),
            };
            infos.push(ChannelInfo {
                index: i as u16,
                n: spec.n as u32,
                input_len: spec.input_len() as u32,
                output_len: spec.output_len() as u32,
                kind,
                cp: cp as u32,
                engine: spec.engine.clone(),
            });
        }
        let pipeline = builder.build().map_err(std::io::Error::other)?;

        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let hello = proto::encode_hello(&infos);
        let shared = Arc::new(ServerShared {
            pipeline,
            channels,
            chan: infos.iter().map(|_| ChanState::default()).collect(),
            infos,
            hello,
            shutdown: AtomicBool::new(false),
            retry_after_ms: self.retry_after_ms,
            max_conn_outstanding: self.max_conn_outstanding,
            connections: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        });

        let routers = (0..shared.channels.len())
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || router_loop(&shared, idx))
            })
            .collect();

        let handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::spawn(move || accept_loop(&listener, &shared, &handlers))
        };

        Ok(NetServer { shared, accept: Some(accept), routers, handlers, local_addr })
    }
}

/// The running server: owns the accept/router/handler threads and the
/// pipeline they share. See the [module docs](self) for the thread
/// shape and guarantees.
#[derive(Debug)]
pub struct NetServer {
    shared: Arc<ServerShared>,
    accept: Option<std::thread::JoinHandle<()>>,
    routers: Vec<std::thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    local_addr: SocketAddr,
}

impl NetServer {
    /// Starts configuring a server over a registry factory (the same
    /// entry point the pipeline itself uses).
    pub fn builder(factory: RegistryFactory) -> NetServerBuilder {
        NetServerBuilder {
            factory,
            specs: Vec::new(),
            workers: 4,
            queue_depth: 64,
            retry_after_ms: 10,
            max_conn_outstanding: 64,
        }
    }

    /// The bound address — with an ephemeral bind (`:0`), where clients
    /// should actually connect.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The admin stats document (the same JSON a `STATS` frame
    /// returns): server-level counters plus the full pipeline
    /// [`StreamStats::to_json`] snapshot, per-channel histograms
    /// included when observability is on.
    pub fn stats_json(&self) -> String {
        admin_stats_json(&self.shared)
    }

    /// Graceful drain: stop accepting, close the pipeline intake (late
    /// frames are answered with `ERROR`), let handlers flush what their
    /// sockets already buffered, let routers deliver every accepted
    /// completion, then join everything. Returns the pipeline's final
    /// stats. Connections close once their last response is written.
    pub fn shutdown(mut self) -> StreamStats {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // No new connections. Close the intake so frames still arriving
        // get a definitive ERROR instead of an accept they can't have.
        self.shared.pipeline.close();
        let handlers = std::mem::take(&mut *self.handlers.lock().expect("handler list poisoned"));
        for h in handlers {
            let _ = h.join();
        }
        // Handlers are gone: nothing submits any more. Wake the routers
        // so they notice shutdown once their pending maps drain.
        for st in &self.shared.chan {
            let _g = st.pending.lock().expect("pending map poisoned");
            st.work.notify_all();
        }
        for h in self.routers.drain(..) {
            let _ = h.join();
        }
        // Routers delivered everything accepted; the final snapshot is
        // the report. The pipeline itself is joined by its own Drop —
        // which, unlike StreamPipeline::shutdown, tolerates a poisoned
        // pool instead of re-raising the worker's panic.
        self.shared.pipeline.stats()
    }
}

/// Everything the accept, handler, and router threads share.
struct ServerShared {
    pipeline: StreamPipeline,
    /// Pipeline handles, index-aligned with `infos` and `chan`.
    channels: Vec<ChannelId>,
    infos: Vec<ChannelInfo>,
    /// Pre-encoded `HELLO` payload, one copy for every connection.
    hello: Vec<u8>,
    chan: Vec<ChanState>,
    shutdown: AtomicBool,
    retry_after_ms: u32,
    max_conn_outstanding: u64,
    connections: AtomicU64,
    frames_in: AtomicU64,
    shed: AtomicU64,
    protocol_errors: AtomicU64,
}

impl core::fmt::Debug for ServerShared {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ServerShared").finish_non_exhaustive()
    }
}

/// Per-channel rendezvous between handlers and the channel's router.
#[derive(Default)]
struct ChanState {
    /// pipeline seq → submitting connection. A handler inserts under
    /// this lock *around* its `try_submit`, so the router (which pops
    /// under the same lock) can never see a completion whose origin is
    /// not yet recorded.
    pending: Mutex<HashMap<u64, Pending>>,
    /// Wakes the router when the map goes non-empty (and at shutdown).
    work: Condvar,
    /// Recycled `(input, output)` buffer pairs.
    pool: Mutex<Vec<(Vec<C64>, Vec<C64>)>>,
}

/// Where an accepted symbol's answer must go.
struct Pending {
    writer: Arc<ConnWriter>,
    client_seq: u64,
}

/// The write half of a connection, shared by its handler and every
/// router delivering to it. The mutex keeps frames atomic on the wire;
/// `dead` latches the first write failure so a vanished client costs at
/// most one failed write per pending answer.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    outstanding: AtomicU64,
    dead: AtomicBool,
}

impl ConnWriter {
    fn send(&self, op: u8, channel: u16, seq: u64, payload: &[u8]) {
        if self.dead.load(Ordering::SeqCst) {
            return;
        }
        let mut stream = self.stream.lock().expect("connection writer poisoned");
        if proto::write_frame(&mut *stream, op, channel, seq, payload).is_err() {
            self.dead.store(true, Ordering::SeqCst);
        }
    }

    fn send_error(&self, channel: u16, seq: u64, message: &str) {
        self.send(OP_ERROR, channel, seq, message.as_bytes());
    }
}

/// Outcome of a polled exact-length read.
enum ReadStatus {
    /// The buffer is full.
    Done,
    /// Clean EOF on a frame boundary (before the first byte).
    Eof,
    /// The peer died mid-frame.
    TruncatedEof,
    /// The shutdown flag was raised while waiting for bytes.
    Shutdown,
}

/// Reads exactly `buf.len()` bytes from a stream whose read timeout is
/// [`POLL_TICK`], retrying timeout ticks so a frame split across
/// packets is never mis-framed — but bailing out once shutdown is
/// raised and the socket has gone quiet (anything already buffered
/// keeps draining: a tick only fires when no bytes are ready).
fn poll_read_exact(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
) -> std::io::Result<ReadStatus> {
    let mut at = 0;
    while at < buf.len() {
        match stream.read(&mut buf[at..]) {
            Ok(0) => return Ok(if at == 0 { ReadStatus::Eof } else { ReadStatus::TruncatedEof }),
            Ok(k) => at += k,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(ReadStatus::Shutdown);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadStatus::Done)
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<ServerShared>,
    handlers: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.connections.fetch_add(1, Ordering::SeqCst);
                let shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    let _ = handle_conn(&shared, stream);
                });
                handlers.lock().expect("handler list poisoned").push(handle);
            }
            // Non-blocking listener: no pending connection (or a
            // transient accept error) — sleep a tick and re-poll.
            Err(_) => std::thread::sleep(ACCEPT_TICK),
        }
    }
}

/// One connection's read loop: `HELLO`, then frames until EOF, a
/// protocol error, or shutdown (draining what the socket already
/// buffered first).
fn handle_conn(shared: &Arc<ServerShared>, stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(POLL_TICK))?;
    // Backstop against a peer that stops reading entirely: a stalled
    // response write marks the connection dead rather than wedging a
    // router. (The outstanding-frames cap sheds slow readers long
    // before this fires.)
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let writer = Arc::new(ConnWriter {
        stream: Mutex::new(stream.try_clone()?),
        outstanding: AtomicU64::new(0),
        dead: AtomicBool::new(false),
    });
    writer.send(OP_HELLO, 0, 0, &shared.hello);

    let mut stream = stream;
    let mut hdr_bytes = [0u8; HEADER_LEN];
    let mut payload: Vec<u8> = Vec::new();
    loop {
        if writer.dead.load(Ordering::SeqCst) {
            return Ok(());
        }
        match poll_read_exact(&mut stream, &mut hdr_bytes, &shared.shutdown)? {
            ReadStatus::Done => {}
            ReadStatus::Eof | ReadStatus::TruncatedEof | ReadStatus::Shutdown => return Ok(()),
        }
        let header = match proto::read_header(&mut &hdr_bytes[..]) {
            Ok(h) => h,
            Err(e) => {
                // Bad magic/version/length claim: the stream cannot be
                // resynchronised. Name the problem and hang up.
                shared.protocol_errors.fetch_add(1, Ordering::SeqCst);
                writer.send_error(0, 0, &e.to_string());
                return Ok(());
            }
        };
        // The payload is bounded (read_header enforced the cap), so it
        // is always drained — even for a frame that will be refused —
        // keeping the stream framed for the next round trip.
        match poll_read_exact(
            &mut stream,
            {
                payload.clear();
                payload.resize(header.payload_len as usize, 0);
                &mut payload
            },
            &shared.shutdown,
        )? {
            ReadStatus::Done => {}
            ReadStatus::Eof | ReadStatus::TruncatedEof | ReadStatus::Shutdown => return Ok(()),
        }
        shared.frames_in.fetch_add(1, Ordering::SeqCst);
        match header.op {
            OP_SUBMIT => {
                if handle_submit(shared, &writer, &header, &payload).is_err() {
                    return Ok(());
                }
            }
            OP_STATS => {
                let doc = admin_stats_json(shared);
                writer.send(OP_STATS_JSON, header.channel, header.seq, doc.as_bytes());
            }
            other => {
                shared.protocol_errors.fetch_add(1, Ordering::SeqCst);
                writer.send_error(header.channel, header.seq, &format!("unknown op {other:#04x}"));
            }
        }
    }
}

/// A submit frame: validate, draw pooled buffers, and run the
/// lock-bracketed `try_submit`. `Err(())` means the connection should
/// be dropped (the pipeline is dead).
fn handle_submit(
    shared: &Arc<ServerShared>,
    writer: &Arc<ConnWriter>,
    header: &Header,
    payload: &[u8],
) -> Result<(), ()> {
    let idx = header.channel as usize;
    let Some(info) = shared.infos.get(idx) else {
        writer.send_error(header.channel, header.seq, &format!("unknown channel {idx}"));
        return Ok(());
    };
    let expected = info.input_len as usize * BYTES_PER_SAMPLE;
    if payload.len() != expected {
        // Wrong shape is recoverable: the payload was bounded and fully
        // drained, so the stream is still framed.
        writer.send_error(
            header.channel,
            header.seq,
            &format!("channel {idx} takes {expected}-byte payloads, got {}", payload.len()),
        );
        return Ok(());
    }
    if writer.outstanding.load(Ordering::SeqCst) >= shared.max_conn_outstanding {
        shed(shared, writer, header);
        return Ok(());
    }

    let st = &shared.chan[idx];
    let (mut input, output) = st
        .pool
        .lock()
        .expect("buffer pool poisoned")
        .pop()
        .unwrap_or_else(|| (Vec::new(), vec![Complex::zero(); info.output_len as usize]));
    proto::take_samples(payload, &mut input).expect("length validated above");

    // The pending insert happens under the same lock that brackets
    // try_submit: the router pops under this lock, so a completion
    // cannot be routed before its origin is recorded.
    let mut pending = st.pending.lock().expect("pending map poisoned");
    match shared.pipeline.try_submit(shared.channels[idx], input, output) {
        Ok(seq) => {
            pending.insert(seq, Pending { writer: Arc::clone(writer), client_seq: header.seq });
            writer.outstanding.fetch_add(1, Ordering::SeqCst);
            st.work.notify_one();
            Ok(())
        }
        Err(e) => {
            drop(pending);
            let verdict = match &e {
                SubmitError::QueueFull { .. } => Verdict::Shed,
                SubmitError::Closed { .. } => Verdict::Refuse("server is shutting down"),
                SubmitError::Poisoned { .. } => {
                    Verdict::Dead("pipeline poisoned by a worker panic")
                }
                SubmitError::Shape { .. } => Verdict::Refuse("internal shape mismatch"),
            };
            // Every refusal hands the buffers back; recycle them.
            let (input, output) = e.into_buffers();
            recycle(st, input, output);
            match verdict {
                Verdict::Shed => {
                    shed(shared, writer, header);
                    Ok(())
                }
                Verdict::Refuse(why) => {
                    writer.send_error(header.channel, header.seq, why);
                    Ok(())
                }
                Verdict::Dead(why) => {
                    writer.send_error(header.channel, header.seq, why);
                    Err(())
                }
            }
        }
    }
}

/// How a refused submission is answered.
enum Verdict {
    Shed,
    Refuse(&'static str),
    Dead(&'static str),
}

/// Answers a load-shed with `RETRY_AFTER` and counts it.
fn shed(shared: &ServerShared, writer: &ConnWriter, header: &Header) {
    shared.shed.fetch_add(1, Ordering::SeqCst);
    writer.send(OP_RETRY_AFTER, header.channel, header.seq, &shared.retry_after_ms.to_le_bytes());
}

/// Returns a buffer pair to the channel's pool (bounded; overflow is
/// simply dropped).
fn recycle(st: &ChanState, input: Vec<C64>, output: Vec<C64>) {
    let mut pool = st.pool.lock().expect("buffer pool poisoned");
    if pool.len() < POOL_CAP {
        pool.push((input, output));
    }
}

/// One channel's delivery loop: wait for pending work, receive the
/// channel's completions in order, and write each back to its
/// submitting connection. Exits when shutdown has drained everything —
/// or, on a poisoned pipeline, after answering every pending frame
/// with an `ERROR`.
fn router_loop(shared: &Arc<ServerShared>, idx: usize) {
    let st = &shared.chan[idx];
    let ch = shared.channels[idx];
    let wire = idx as u16;
    let mut scratch: Vec<u8> = Vec::new();
    loop {
        // Park until a handler records pending work (or shutdown).
        {
            let mut pending = st.pending.lock().expect("pending map poisoned");
            while pending.is_empty() && !shared.shutdown.load(Ordering::SeqCst) {
                pending = st.work.wait_timeout(pending, POLL_TICK).expect("pending map poisoned").0;
            }
            if pending.is_empty() && shared.shutdown.load(Ordering::SeqCst) {
                // Every accepted symbol has a pending entry (inserted
                // under the submit bracket), so empty-at-shutdown means
                // fully drained.
                return;
            }
        }
        match shared.pipeline.recv_timeout(ch, POLL_TICK) {
            Ok(Some(done)) => deliver(st, wire, done, &mut scratch),
            // Nothing outstanding pipeline-side; loop back to the wait
            // (the pending map drives the exit decision).
            Ok(None) | Err(RecvError::Timeout) => {}
            Err(RecvError::Poisoned) => {
                // The channel's remaining symbols will never complete:
                // give every waiting connection a definitive answer.
                let mut pending = st.pending.lock().expect("pending map poisoned");
                for (_seq, p) in pending.drain() {
                    p.writer.send_error(wire, p.client_seq, "pipeline poisoned by a worker panic");
                    p.writer.outstanding.fetch_sub(1, Ordering::SeqCst);
                }
                return;
            }
        }
    }
}

/// Writes one completion back to its submitting connection and recycles
/// the payload buffers.
fn deliver(st: &ChanState, wire: u16, done: Completion, scratch: &mut Vec<u8>) {
    let entry = st.pending.lock().expect("pending map poisoned").remove(&done.seq);
    let Some(p) = entry else {
        // Unreachable by construction; tolerate rather than poison the
        // router.
        recycle(st, done.input, done.output);
        return;
    };
    match &done.error {
        Some(err) => p.writer.send_error(wire, p.client_seq, &err.to_string()),
        None => {
            scratch.clear();
            proto::put_samples(scratch, &done.output);
            p.writer.send(OP_RESULT, wire, p.client_seq, scratch);
        }
    }
    p.writer.outstanding.fetch_sub(1, Ordering::SeqCst);
    recycle(st, done.input, done.output);
}

/// The admin stats document: server-level counters wrapped around the
/// pipeline's own [`StreamStats::to_json`] snapshot.
fn admin_stats_json(shared: &ServerShared) -> String {
    json::Obj::new()
        .str("server", "afft_net")
        .num("channels", shared.infos.len() as f64)
        .num("connections", shared.connections.load(Ordering::SeqCst) as f64)
        .num("frames_in", shared.frames_in.load(Ordering::SeqCst) as f64)
        .num("shed", shared.shed.load(Ordering::SeqCst) as f64)
        .num("protocol_errors", shared.protocol_errors.load(Ordering::SeqCst) as f64)
        .bool("poisoned", shared.pipeline.is_poisoned())
        .raw("pipeline", shared.pipeline.stats().to_json())
        .finish()
}

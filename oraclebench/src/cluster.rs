//! An in-process Delphi cluster over loopback TCP, driven only through
//! the workspace's public API, with every output checked.
//!
//! Each node is a full deployment of its own (listener, dialers, dispatch
//! workers, egress lanes); they only share the benchmark process. The
//! benchmark hands each node its prices through a [`PriceSource`], tails
//! the agreements as they resolve, and afterwards checks ε-agreement and
//! relaxed validity of every `(epoch, asset)` against the inputs it
//! handed out.

use std::future::Future;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::Poll;
use std::time::{Duration, Instant};

use delphi_api::{
    ApiContext, ApiServer, FeedState, FeedUpdate, OracleHandle, QuorumSigner, ServiceBuilder,
    SubscriberHub,
};
use delphi_core::{DelphiConfig, DelphiNode, PriceSource, VectorDelphiNode};
use delphi_crypto::Keychain;
use delphi_net::{
    run_epoch_service, EpochServiceHandle, NetError, NetStats, RunOptions, ServiceStats,
};
use delphi_primitives::{
    AgreementId, EpochConfig, EpochEvent, EpochId, EpochMux, EpochOutcome, EpochStats, FlushPolicy,
    InstanceId, NodeId, Protocol,
};
use delphi_workloads::{EpochFeed, MultiAssetConfig};

use crate::procfs::{self, ProcCpu};
use crate::reader;
use crate::trace::{CpuSplit, Probe, ProbeCounts, Sampler, Traced};

/// Epochs in flight at once.
pub const DEPTH: usize = 2;
/// Epochs resident at once.
pub const WINDOW: usize = 6;
/// Agreement precision ε.
pub const EPSILON: f64 = 2.0;
/// Checkpoint spacing ρ0.
pub const RHO0: f64 = 2.0;
/// The deployment's shared key material (transport keys, attestations).
pub const DEPLOYMENT_SEED: &[u8] = b"oraclebench deployment seed";
/// How often the traced run samples per-thread counters.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// The cluster shape of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Nodes.
    pub n: usize,
    /// Assets per epoch.
    pub assets: u16,
    /// One vector instance per epoch instead of one scalar per asset.
    pub vector: bool,
    /// Full served deployment with an HTTP reader on node 0.
    pub serve: bool,
}

impl Shape {
    /// Fault threshold.
    pub fn t(&self) -> usize {
        (self.n - 1) / 3
    }

    pub fn config(&self) -> DelphiConfig {
        DelphiConfig::builder(self.n)
            .space(0.0, 100_000.0)
            .rho0(RHO0)
            .delta_max(2_000.0)
            .epsilon(EPSILON)
            .build()
            .expect("the oracle parameters are valid")
    }

    /// The price feed for workload seed `seed`.
    pub fn feed(&self, seed: u64) -> EpochFeed {
        let basket = if usize::from(self.assets) == MultiAssetConfig::default_basket().assets.len()
        {
            MultiAssetConfig::default_basket()
        } else {
            MultiAssetConfig::synthetic(usize::from(self.assets))
        };
        EpochFeed::new(basket, seed)
    }

    pub fn epoch_config(&self, epochs: u32) -> EpochConfig {
        EpochConfig::new(epochs, self.assets, DEPTH, WINDOW, self.t())
    }

    fn builder(&self, cfg: &DelphiConfig, me: NodeId, spec: &RunSpec) -> ServiceBuilder {
        ServiceBuilder::new(cfg.clone(), me)
            .epochs(spec.epochs)
            .assets(self.assets)
            .pipeline_depth(DEPTH)
            .window(WINDOW)
            .flush(FlushPolicy::adaptive())
            .recv_shards(1)
            .send_shards(1)
            .deadline(spec.deadline())
            .linger(spec.linger)
            .reconnect_delay(RECONNECT)
    }
}

/// How much longer than its window a stream may run before its nodes
/// abort it: room for set-up and for the epochs still in flight when the
/// window closes.
const DEADLINE_MARGIN: Duration = Duration::from_secs(60);
/// Post-completion linger of a measured stream (the service default).
pub const LINGER: Duration = Duration::from_millis(500);
/// Redial delay while the in-process peers come up.
const RECONNECT: Duration = Duration::from_millis(5);

fn run_options(spec: &RunSpec) -> RunOptions {
    RunOptions::default()
        .flush(FlushPolicy::adaptive())
        .recv_shards(1)
        .send_shards(1)
        .deadline(spec.deadline())
        .linger(spec.linger)
        .reconnect_delay(RECONNECT)
}

/// What the benchmark handed out and when: per-node first price request
/// of each epoch (the epoch's spawn) and every input value.
pub(crate) struct Recorder {
    base: Instant,
    epochs: usize,
    assets: usize,
    /// `[node][epoch]`: nanoseconds since `base` + 1; 0 = not yet.
    spawn: Vec<AtomicU64>,
    /// `[node][epoch][asset]`: input bits; `u64::MAX` = not handed out.
    inputs: Vec<AtomicU64>,
    /// Set when the measured window ends: no node starts another epoch.
    closed: AtomicBool,
    /// Whether epoch 0 starts on all nodes together (see [`price_source`]).
    start_together: bool,
    /// Nodes that asked for their epoch-0 prices.
    arrived: Mutex<usize>,
    all_arrived: Condvar,
}

impl Recorder {
    pub(crate) fn new(
        base: Instant,
        n: usize,
        epochs: u32,
        assets: u16,
        start_together: bool,
    ) -> Arc<Recorder> {
        let (epochs, assets) = (epochs as usize, usize::from(assets));
        Arc::new(Recorder {
            base,
            epochs,
            assets,
            spawn: (0..n * epochs).map(|_| AtomicU64::new(0)).collect(),
            inputs: (0..n * epochs * assets).map(|_| AtomicU64::new(u64::MAX)).collect(),
            closed: AtomicBool::new(false),
            start_together,
            arrived: Mutex::new(0),
            all_arrived: Condvar::new(),
        })
    }

    fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.base).as_nanos() as u64 + 1
    }

    /// Records `node`'s request for `epoch` as the epoch's spawn there,
    /// unless an earlier request already did.
    fn arrive(&self, node: usize, epoch: usize) {
        if epoch >= self.epochs {
            return;
        }
        let spawn = &self.spawn[node * self.epochs + epoch];
        if spawn.load(Ordering::Relaxed) == 0 {
            spawn.store(self.stamp(Instant::now()), Ordering::Relaxed);
        }
    }

    fn note(&self, node: usize, epoch: usize, asset: usize, value: f64) {
        if epoch >= self.epochs || asset >= self.assets {
            return;
        }
        self.inputs[(node * self.epochs + epoch) * self.assets + asset]
            .store(value.to_bits(), Ordering::Relaxed);
    }

    /// Holds a node that spawned epoch 0 until every node has, or until
    /// [`START_GATE`] passes.
    fn gate(&self, n: usize) {
        if !self.start_together {
            return;
        }
        let mut arrived = self.arrived.lock().expect("gate lock");
        *arrived += 1;
        if *arrived >= n {
            self.all_arrived.notify_all();
            return;
        }
        let _ = self
            .all_arrived
            .wait_timeout_while(arrived, START_GATE, |arrived| *arrived < n)
            .expect("gate lock");
    }

    /// Seconds since `base` at which `node` spawned `epoch`.
    fn spawned(&self, node: usize, epoch: usize) -> Option<f64> {
        match self.spawn[node * self.epochs + epoch].load(Ordering::Relaxed) {
            0 => None,
            ns => Some((ns - 1) as f64 / 1e9),
        }
    }

    fn input(&self, node: usize, epoch: usize, asset: usize) -> Option<f64> {
        match self.inputs[(node * self.epochs + epoch) * self.assets + asset]
            .load(Ordering::Relaxed)
        {
            u64::MAX => None,
            bits => Some(f64::from_bits(bits)),
        }
    }
}

/// Longest a node's epoch-0 price request waits for the other nodes.
const START_GATE: Duration = Duration::from_secs(10);

/// Node `me`'s prices from the feed, recorded as they are handed out.
/// Each epoch's quotes are generated once and cached.
///
/// A node's first request for an epoch is recorded as the epoch's spawn
/// there. When the recorder starts the nodes together, a node's epoch-0
/// request then waits until every node has made its own: a node whose
/// peers are still starting runs no rounds that compete with their
/// start-up for the cores, and `setup_s` times the set-up alone.
///
/// Once the recorder is closed the feed has run dry: the node's next
/// epoch waits for its prices forever. Every node stops there, the
/// cluster goes idle, and the process exit ends it. This is how a stream
/// ends at the end of the measured window; the workspace has no call
/// that stops a running service early.
pub(crate) fn price_source(
    feed: EpochFeed,
    me: NodeId,
    n: usize,
    rec: Arc<Recorder>,
) -> PriceSource {
    let mut cache: Option<(u32, Vec<Vec<f64>>)> = None;
    let mut gated = false;
    Box::new(move |epoch: EpochId, asset: InstanceId| {
        while rec.closed.load(Ordering::SeqCst) {
            std::thread::park();
        }
        rec.arrive(me.index(), epoch.index());
        if cache.as_ref().map(|(e, _)| *e) != Some(epoch.0) {
            cache = Some((epoch.0, feed.inputs(epoch.0, n)));
        }
        let value = cache.as_ref().map_or(f64::NAN, |(_, q)| q[asset.index()][me.index()]);
        rec.note(me.index(), epoch.index(), asset.index(), value);
        if epoch.0 == 0 && !gated {
            gated = true;
            rec.gate(n);
        }
        value
    })
}

/// A basket-valued instance output, flattened to per-asset values.
pub trait Basket: Clone + std::fmt::Debug + Send + 'static {
    /// Appends this output's per-asset values.
    fn extend_into(&self, out: &mut Vec<f64>);
}

impl Basket for f64 {
    fn extend_into(&self, out: &mut Vec<f64>) {
        out.push(*self);
    }
}

impl Basket for Vec<f64> {
    fn extend_into(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(self);
    }
}

/// Per-node agreed values, `[node][epoch]`, `None` where the epoch was
/// skipped or never resolved.
type Values = Vec<Vec<Option<Vec<f64>>>>;

fn record_event<O: Basket>(values: &mut [Option<Vec<f64>>], event: &EpochEvent<O>) {
    let Some(slot) = values.get_mut(event.epoch.index()) else { return };
    if let EpochOutcome::Agreed(outputs) = &event.outcome {
        let mut flat = Vec::new();
        for o in outputs {
            o.extend_into(&mut flat);
        }
        *slot = Some(flat);
    }
}

/// Transport counters summed over the cluster.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetTotals {
    /// Bytes written to sockets.
    pub sent_bytes: u64,
    /// Frames written.
    pub sent_frames: u64,
    /// Entries carried by those frames.
    pub sent_entries: u64,
    /// MAC computations and verifications.
    pub mac_ops: u64,
    /// Frames dropped on full egress queues.
    pub dropped_egress: u64,
    /// Entries for already-evicted epochs.
    pub late_entries: u64,
}

impl NetTotals {
    fn add(&mut self, s: &NetStats) {
        self.sent_bytes += s.sent_bytes;
        self.sent_frames += s.sent_frames;
        self.sent_entries += s.sent_entries;
        self.mac_ops += s.mac_ops;
        self.dropped_egress += s.dropped_egress;
        self.late_entries += s.late_entries;
    }
}

/// One measured stream.
pub struct StreamRun {
    /// Epochs every node resolved in the window.
    pub epochs: u32,
    /// Cluster agreements in the window: epochs resolved per node,
    /// averaged over the nodes, × assets.
    pub agreements: u64,
    /// First call into the program → every node spawned epoch 0.
    pub setup_s: f64,
    /// First epoch spawn → last decide on the slowest node.
    pub window_s: f64,
    /// Decide latency per (node, epoch), in milliseconds.
    pub decide_ms: Vec<f64>,
    /// Process CPU over the window.
    pub cpu: ProcCpu,
    /// Share of the machine's CPU ticks the hypervisor stole during the
    /// window: how much other tenants of the host took from the run.
    pub steal_share: f64,
    /// Transport counters.
    pub net: NetTotals,
    /// Most stale epochs on any node, and most epochs resident.
    pub epoch: EpochStats,
    /// (epoch, asset, node) triples checked.
    pub attempted: u64,
    /// Triples skipped, missing, unresolved, or outside ε-agreement or
    /// relaxed validity.
    pub failed: u64,
    /// The first few violations, for the log.
    pub problems: Vec<String>,
    /// Node 0's agreed values, `[epoch]`.
    pub agreed: Vec<Option<Vec<f64>>>,
    /// Cluster agreements per second in the first and the second half
    /// of the window.
    pub halves: (f64, f64),
    /// The per-thread CPU split, when sampled.
    pub split: Option<CpuSplit>,
    /// The probe's counters when the window closed, when traced.
    pub counts: Option<ProbeCounts>,
    /// The reader's reads (`serve` shape only).
    pub reads: Vec<reader::Read>,
}

impl StreamRun {
    /// Cluster agreements per second over the window.
    pub fn agreements_per_s(&self) -> f64 {
        self.agreements as f64 / self.window_s.max(1e-9)
    }
}

/// Ports for `n` loopback listeners.
fn free_addrs(n: usize) -> Result<Vec<SocketAddr>, String> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bind: {e}"))?;
    listeners.iter().map(|l| l.local_addr().map_err(|e| format!("addr: {e}"))).collect()
}

/// How to run one stream.
pub struct RunSpec {
    /// Cluster shape.
    pub shape: Shape,
    /// Stream length (an upper bound when `window` is set).
    pub epochs: u32,
    /// Measure at most this long, then close the feed (see
    /// [`price_source`]); `None` runs the stream to its end.
    pub window: Option<Duration>,
    /// Feed seed.
    pub seed: u64,
    /// Time protocol calls and split CPU by thread.
    pub probe: Option<Arc<Probe>>,
    /// Post-completion linger.
    pub linger: Duration,
}

impl RunSpec {
    /// The nodes' stream deadline, past which they abort the stream.
    fn deadline(&self) -> Duration {
        self.window.unwrap_or_default() + DEADLINE_MARGIN
    }
}

/// Runs one stream of `spec`, to its end or to the end of its window,
/// and checks it.
pub async fn run(spec: &RunSpec) -> Result<StreamRun, String> {
    let shape = spec.shape;
    match (shape.serve, shape.vector, &spec.probe) {
        (true, _, None) => run_served(spec).await,
        (true, _, Some(probe)) => {
            run_published(spec, |cfg, me, epochs, source| {
                traced_scalar_mux(cfg, me, epochs, source, probe)
            })
            .await
        }
        (false, false, None) => {
            run_tailed(spec, |cfg, me, _, source| {
                shape.builder(cfg, me, spec).build_service(source).into_mux()
            })
            .await
        }
        (false, false, Some(probe)) => {
            run_tailed(spec, |cfg, me, epochs, source| {
                traced_scalar_mux(cfg, me, epochs, source, probe)
            })
            .await
        }
        (false, true, None) => {
            run_tailed(spec, |cfg, me, _, source| {
                shape
                    .builder(cfg, me, spec)
                    .vector_baskets(true)
                    .build_vector_service(source)
                    .into_mux()
            })
            .await
        }
        (false, true, Some(probe)) => {
            run_tailed(spec, |cfg, me, epochs, source| {
                traced_vector_mux(cfg, me, epochs, source, probe)
            })
            .await
        }
    }
}

/// One traced scalar instance per `(epoch, asset)`, built the way
/// `OracleService` builds its instances.
pub(crate) fn traced_scalar_mux(
    cfg: &DelphiConfig,
    me: NodeId,
    epochs: EpochConfig,
    mut source: PriceSource,
    probe: &Arc<Probe>,
) -> EpochMux<Traced<DelphiNode>> {
    let (cfg, probe) = (cfg.clone(), probe.clone());
    EpochMux::new(
        epochs,
        me,
        cfg.n(),
        Box::new(move |epoch, asset| {
            let node = DelphiNode::new(cfg.clone(), me, source(epoch, asset))
                .with_round_probe(probe.rounds.clone());
            Traced::new(node, AgreementId::new(epoch, asset), probe.clone())
        }),
    )
}

/// One traced vector instance per epoch covering the whole basket, built
/// the way `VectorOracleService` builds its instances.
pub(crate) fn traced_vector_mux(
    cfg: &DelphiConfig,
    me: NodeId,
    epochs: EpochConfig,
    mut source: PriceSource,
    probe: &Arc<Probe>,
) -> EpochMux<Traced<VectorDelphiNode>> {
    let (cfg, probe) = (cfg.clone(), probe.clone());
    let dims = epochs.assets;
    EpochMux::new_vector(
        epochs,
        me,
        cfg.n(),
        Box::new(move |epoch| {
            let inputs: Vec<f64> = (0..dims).map(|a| source(epoch, InstanceId(a))).collect();
            let node = VectorDelphiNode::new(cfg.clone(), me, &inputs)
                .with_round_probe(probe.rounds.clone());
            Traced::new(node, AgreementId::new(epoch, InstanceId(0)), probe.clone())
        }),
    )
}

/// What every runner sets up before its first node.
struct Start {
    n: usize,
    addrs: Vec<SocketAddr>,
    rec: Arc<Recorder>,
    cfg: DelphiConfig,
    feed: EpochFeed,
}

impl Start {
    /// Picks the addresses, then starts the set-up clock.
    fn new(spec: &RunSpec) -> Result<Start, String> {
        let shape = spec.shape;
        let addrs = free_addrs(shape.n)?;
        // The first call into the program follows.
        let rec = Recorder::new(Instant::now(), shape.n, spec.epochs, shape.assets, true);
        Ok(Start { n: shape.n, addrs, rec, cfg: shape.config(), feed: shape.feed(spec.seed) })
    }

    fn source(&self, me: NodeId) -> PriceSource {
        price_source(self.feed.clone(), me, self.n, self.rec.clone())
    }
}

/// Process CPU and the host's tick counters, as of a moment or over a
/// window.
struct Usage {
    cpu: ProcCpu,
    host: (u64, u64),
}

impl Usage {
    fn now() -> Usage {
        Usage { cpu: procfs::process_cpu(), host: procfs::host_ticks() }
    }

    /// The usage from `self` until now.
    fn until_now(&self) -> Usage {
        let now = Usage::now();
        Usage {
            cpu: now.cpu.since(&self.cpu),
            host: (now.host.0.saturating_sub(self.host.0), now.host.1.saturating_sub(self.host.1)),
        }
    }

    fn steal_share(&self) -> f64 {
        self.host.0 as f64 / self.host.1.max(1) as f64
    }
}

/// The measured window, from the moment every node is up.
struct Window {
    start: Usage,
    /// The per-thread sampler of a traced run.
    sampler: Option<Sampler>,
}

/// What the window measured, taken as it closed.
struct Measured {
    usage: Usage,
    counts: Option<ProbeCounts>,
    split: Option<CpuSplit>,
}

impl Window {
    fn open(spec: &RunSpec) -> Window {
        Window {
            start: Usage::now(),
            sampler: spec.probe.as_ref().map(|_| Sampler::start(SAMPLE_EVERY)),
        }
    }

    /// Closes the window; `bench` are the benchmark's own threads.
    fn close(self, spec: &RunSpec, bench: &[u32]) -> Measured {
        let usage = self.start.until_now();
        let counts = spec.probe.as_ref().map(|p| p.counts());
        let split = self.sampler.map(|s| {
            let dispatch = spec.probe.as_ref().map(|p| p.dispatch_threads()).unwrap_or_default();
            s.finish(&dispatch, &bench.iter().copied().collect())
        });
        Measured { usage, counts, split }
    }
}

/// What tailing a stream collected.
struct Tail {
    /// `[node][epoch]` decide instants.
    decided: Vec<Vec<Option<Instant>>>,
    values: Values,
    /// Epochs each node resolved; nodes resolve their epochs in order.
    resolved: Vec<usize>,
    /// Whether the window closed before the stream ended.
    closed: bool,
    problems: Vec<String>,
}

impl Tail {
    fn new(n: usize, epochs: usize) -> Tail {
        Tail {
            decided: vec![vec![None; epochs]; n],
            values: vec![vec![None; epochs]; n],
            resolved: vec![0; n],
            closed: false,
            problems: Vec::new(),
        }
    }

    /// Marks `epoch` decided at `node` now.
    fn decide(&mut self, node: usize, epoch: usize) {
        if let Some(slot) = self.decided[node].get_mut(epoch) {
            *slot = Some(Instant::now());
        }
        self.resolved[node] = epoch + 1;
    }
}

fn merge_epoch(into: &mut EpochStats, s: &EpochStats) {
    into.stale_epochs = into.stale_epochs.max(s.stale_epochs);
    into.peak_resident = into.peak_resident.max(s.peak_resident);
    into.late_entries += s.late_entries;
}

/// Waits until the nodes left behind a closed window stop burning CPU:
/// epochs in flight when the feed closed still run to their end.
fn settle() {
    let mut last = procfs::process_cpu();
    for _ in 0..40 {
        std::thread::sleep(Duration::from_millis(50));
        let now = procfs::process_cpu();
        if now.since(&last).total_ms() < 5.0 {
            return;
        }
        last = now;
    }
}

/// Ends a stream's nodes and sums their counters. After a closed window
/// it takes each node's counters as they stand and leaves the idle nodes
/// to the process exit; after a full stream it awaits each node's end.
async fn close_nodes<H, F>(
    tail: &mut Tail,
    stats: &[ServiceStats],
    nodes: Vec<H>,
    finish: impl Fn(H) -> F,
) -> (NetTotals, EpochStats)
where
    F: Future<Output = Result<(EpochStats, NetStats), NetError>>,
{
    let mut net = NetTotals::default();
    let mut epoch = EpochStats::default();
    if tail.closed {
        for s in stats {
            net.add(&s.net_snapshot());
            merge_epoch(&mut epoch, &s.epoch_snapshot());
        }
        settle();
    } else {
        for (i, node) in nodes.into_iter().enumerate() {
            match finish(node).await {
                Ok((e, s)) => {
                    net.add(&s);
                    merge_epoch(&mut epoch, &e);
                }
                Err(e) => tail.problems.push(format!("node {i}: {e}")),
            }
        }
    }
    (net, epoch)
}

/// Everything a stream collected before it is checked.
struct Collected {
    rec: Arc<Recorder>,
    tail: Tail,
    measured: Measured,
    net: NetTotals,
    epoch: EpochStats,
    reads: Vec<reader::Read>,
}

/// Runs a stream through `run_epoch_service`, tailing every node's
/// [`EpochServiceHandle::next_event`].
async fn run_tailed<P>(
    spec: &RunSpec,
    make: impl Fn(&DelphiConfig, NodeId, EpochConfig, PriceSource) -> EpochMux<P>,
) -> Result<StreamRun, String>
where
    P: Protocol + Send + 'static,
    P::Output: Basket,
{
    let start = Start::new(spec)?;
    let mut handles: Vec<EpochServiceHandle<P::Output>> = Vec::with_capacity(start.n);
    for me in NodeId::all(start.n) {
        let keychain = Keychain::derive(DEPLOYMENT_SEED, me, start.n);
        let mux = make(&start.cfg, me, spec.shape.epoch_config(spec.epochs), start.source(me));
        let handle = run_epoch_service(mux, keychain, start.addrs.clone(), run_options(spec))
            .await
            .map_err(|e| format!("node {me}: {e}"))?;
        handles.push(handle);
    }
    let window = Window::open(spec);
    let mut tail = tail_events(&mut handles, spec.epochs as usize, spec.window, &start.rec).await;
    let measured = window.close(spec, &[procfs::current_tid()]);
    let stats: Vec<ServiceStats> = handles.iter().map(EpochServiceHandle::stats).collect();
    let (net, epoch) = close_nodes(&mut tail, &stats, handles, |h| async move {
        h.finish().await.map(|(_, e, s)| (e, s))
    })
    .await;
    let reads = Vec::new();
    Ok(check(spec, Collected { rec: start.rec, tail, measured, net, epoch, reads }))
}

/// Tails every node's [`EpochServiceHandle::next_event`] until every
/// stream ends, or until `window` passes, when it closes the recorder.
async fn tail_events<O: Basket>(
    handles: &mut [EpochServiceHandle<O>],
    epochs: usize,
    window: Option<Duration>,
    rec: &Recorder,
) -> Tail {
    let n = handles.len();
    let mut tail = Tail::new(n, epochs);
    let mut live = vec![true; n];
    let mut close = window.map(|w| Box::pin(tokio::time::sleep(w)));
    while live.iter().any(|&l| l) {
        let next = std::future::poll_fn(|cx| {
            for (i, handle) in handles.iter_mut().enumerate() {
                if !live[i] {
                    continue;
                }
                let next = std::pin::pin!(handle.next_event());
                if let Poll::Ready(event) = next.poll(cx) {
                    return Poll::Ready(Some((i, event)));
                }
            }
            match close.as_mut().map(|sleep| sleep.as_mut().poll(cx)) {
                Some(Poll::Ready(())) => Poll::Ready(None),
                _ => Poll::Pending,
            }
        })
        .await;
        match next {
            Some((i, Some(event))) => {
                tail.decide(i, event.epoch.index());
                record_event(&mut tail.values[i], &event);
            }
            Some((i, None)) => live[i] = false,
            None => {
                rec.closed.store(true, Ordering::SeqCst);
                tail.closed = true;
                break;
            }
        }
    }
    tail
}

/// Tails every node's published feed, one subscription per asset
/// (`subs[node][asset]`), until every node published every epoch or
/// closed its feed, or until `close_at`, when it closes the recorder and
/// calls `on_close`. It then takes the updates already published.
///
/// The publisher publishes an epoch's assets in order, so the last
/// asset's update marks the epoch decided at that node; draining the
/// subscriptions last asset first keeps each pass consistent.
///
/// It blocks the calling thread between updates; the vendored runtime
/// gives every task a thread of its own, so no node task waits on it.
fn tail_published(
    subs: &[Vec<delphi_api::Subscription>],
    epochs: usize,
    close_at: Option<Instant>,
    rec: &Recorder,
    on_close: impl FnOnce(),
) -> Tail {
    let n = subs.len();
    let mut out = Tail::new(n, epochs);
    let mut live = vec![true; n];
    let take = |i: usize,
                got: Result<Arc<FeedUpdate>, delphi_api::RecvError>,
                out: &mut Tail,
                live: &mut [bool]| match got {
        Ok(update) => {
            let (e, a) = (update.epoch.index(), update.asset.index());
            let assets = subs[i].len();
            if let Some(slot) = out.values[i].get_mut(e) {
                slot.get_or_insert_with(|| vec![f64::NAN; assets])[a] = update.value;
            }
            if a + 1 == assets && e < epochs {
                out.decide(i, e);
                live[i] = e + 1 < epochs;
            }
            true
        }
        Err(delphi_api::RecvError::Timeout) => false,
        // A closed feed may still hold the node's last updates on the
        // subscriptions of other assets; the final pass takes them, and
        // the check fails any epoch the node did not publish.
        Err(delphi_api::RecvError::Closed) => {
            live[i] = false;
            false
        }
        Err(delphi_api::RecvError::Lagged) => {
            out.problems.push(format!("node {i}: the benchmark's subscriber fell behind"));
            live[i] = false;
            false
        }
    };
    let drain = |out: &mut Tail, live: &mut [bool]| {
        for (i, node) in subs.iter().enumerate() {
            for sub in node.iter().rev() {
                while take(i, sub.recv_timeout(Duration::ZERO), out, live) {}
            }
        }
    };
    loop {
        drain(&mut out, &mut live);
        let Some(first) = live.iter().position(|&l| l) else { break };
        if close_at.is_some_and(|at| Instant::now() >= at) {
            rec.closed.store(true, Ordering::SeqCst);
            out.closed = true;
            on_close();
            break;
        }
        // Block briefly on one live feed; the next pass drains the rest.
        if let Some(Ok(update)) =
            subs[first].last().map(|s| s.recv_timeout(Duration::from_millis(1)))
        {
            take(first, Ok(update), &mut out, &mut live);
        }
    }
    // The updates published since the last pass.
    drain(&mut out, &mut live);
    out
}

/// Subscriptions to every asset of one node's hub.
fn subscribe_all(
    hub: &SubscriberHub,
    assets: u16,
) -> Result<Vec<delphi_api::Subscription>, String> {
    (0..assets)
        .map(|a| hub.subscribe(InstanceId(a)).ok_or_else(|| format!("no asset {a}")))
        .collect()
}

/// Updates a benchmark subscriber may buffer before the hub kicks it: the
/// tail drains every millisecond, so only a long stall of the benchmark
/// thread could fill this.
const SUBSCRIBER_CAPACITY: usize = 4096;

/// Opens the window and tails the published feeds while the reader
/// thread reads node 0's API at `api` (it starts once `feed` has its
/// first basket).
fn tail_served(
    spec: &RunSpec,
    subs: &[Vec<delphi_api::Subscription>],
    rec: &Recorder,
    api: SocketAddr,
    feed: Arc<FeedState>,
) -> Result<(Tail, Vec<reader::Read>, Measured), String> {
    let assets = spec.shape.assets;
    let window = Window::open(spec);
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let tid = procfs::current_tid();
            while feed.published() < u64::from(assets) && !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            (tid, reader::run(api, assets, stop))
        })
    };
    let close_at = spec.window.map(|w| Instant::now() + w);
    // The reader stops before the tail takes its last updates, so every
    // value it was served is among them.
    let mut reader = Some(reader);
    let mut joined = None;
    let mut stop_reader = || {
        if let Some(reader) = reader.take() {
            stop.store(true, Ordering::Relaxed);
            joined = Some(reader.join());
        }
    };
    let tail = tail_published(subs, spec.epochs as usize, close_at, rec, &mut stop_reader);
    stop_reader();
    let (reader_tid, reads) =
        joined.expect("the reader was stopped").map_err(|_| "reader thread panicked")?;
    let measured = window.close(spec, &[procfs::current_tid(), reader_tid]);
    Ok((tail, reads, measured))
}

/// The `serve-read` stream through [`ServiceBuilder::serve`]: every node
/// a full served deployment, node 0 also serving HTTP to the reader.
async fn run_served(spec: &RunSpec) -> Result<StreamRun, String> {
    let start = Start::new(spec)?;
    let assets = spec.shape.assets;
    let mut handles = Vec::with_capacity(start.n);
    let mut subs = Vec::with_capacity(start.n);
    for me in NodeId::all(start.n) {
        let mut builder =
            spec.shape.builder(&start.cfg, me, spec).subscriber_capacity(SUBSCRIBER_CAPACITY);
        if me.index() == 0 {
            builder = builder.api_bind(SocketAddr::from(([127, 0, 0, 1], 0)));
        }
        let handle = builder
            .serve(DEPLOYMENT_SEED, start.addrs.clone(), start.source(me))
            .await
            .map_err(|e| format!("node {me}: {e}"))?;
        subs.push(subscribe_all(&handle.hub(), assets)?);
        handles.push(handle);
    }
    let api = handles[0].api_addr().ok_or("node 0 serves no API")?;
    let (mut tail, reads, measured) = tail_served(spec, &subs, &start.rec, api, handles[0].feed())?;
    let stats: Vec<ServiceStats> = handles.iter().map(OracleHandle::stats).collect();
    let (net, epoch) = close_nodes(&mut tail, &stats, handles, |h| async move {
        h.finish().await.map(|(_, e, s)| (e, s))
    })
    .await;
    Ok(check(spec, Collected { rec: start.rec, tail, measured, net, epoch, reads }))
}

/// The traced `serve-read` stream: the served deployment
/// [`ServiceBuilder::serve`] assembles (signer, feed, hub, publisher, and
/// the API on node 0), built here from its public parts so the agreement
/// instances can be wrapped.
async fn run_published<P>(
    spec: &RunSpec,
    make: impl Fn(&DelphiConfig, NodeId, EpochConfig, PriceSource) -> EpochMux<P>,
) -> Result<StreamRun, String>
where
    P: Protocol<Output = f64> + Send + 'static,
{
    let start = Start::new(spec)?;
    let (n, t, assets) = (start.n, spec.shape.t(), spec.shape.assets);
    let mut nodes = Vec::with_capacity(n);
    let mut subs = Vec::with_capacity(n);
    let mut api = None;
    for me in NodeId::all(n) {
        let keychain = Keychain::derive(DEPLOYMENT_SEED, me, n);
        let mux = make(&start.cfg, me, spec.shape.epoch_config(spec.epochs), start.source(me));
        let mut handle = run_epoch_service(mux, keychain, start.addrs.clone(), run_options(spec))
            .await
            .map_err(|e| format!("node {me}: {e}"))?;
        let state = Arc::new(FeedState::new(assets, 64));
        let hub = Arc::new(SubscriberHub::new(assets, SUBSCRIBER_CAPACITY));
        subs.push(subscribe_all(&hub, assets)?);
        let mut rx = handle.take_events().ok_or("event tail already taken")?;
        let signer = QuorumSigner::new(DEPLOYMENT_SEED, t, EPSILON);
        let publisher = {
            let (state, hub) = (state.clone(), hub.clone());
            tokio::spawn(async move {
                while let Some(event) = rx.recv().await {
                    if let EpochOutcome::Agreed(values) = event.outcome {
                        for (a, value) in values.into_iter().enumerate() {
                            let asset = InstanceId(a as u16);
                            let attestation = Some(signer.attest(event.epoch, asset, value));
                            let update = state.publish(FeedUpdate {
                                epoch: event.epoch,
                                asset,
                                value,
                                attestation,
                            });
                            hub.broadcast(&update);
                        }
                    }
                }
                hub.close_all();
            })
        };
        if me.index() == 0 {
            let ctx = Arc::new(ApiContext {
                feed: state.clone(),
                hub: hub.clone(),
                stats: Some(handle.stats()),
                quorum: Some((n, t)),
            });
            let server = ApiServer::bind(SocketAddr::from(([127, 0, 0, 1], 0)), ctx)
                .await
                .map_err(|e| format!("api bind: {e}"))?;
            api = Some((server, state));
        }
        nodes.push((handle, publisher));
    }
    let (server, state0) = api.ok_or("node 0 serves no API")?;
    let (mut tail, reads, measured) =
        tail_served(spec, &subs, &start.rec, server.local_addr(), state0)?;
    let stats: Vec<ServiceStats> = nodes.iter().map(|(h, _)| h.stats()).collect();
    let (net, epoch) = close_nodes(&mut tail, &stats, nodes, |(h, publisher)| async move {
        let result = h.finish().await.map(|(_, e, s)| (e, s));
        let _ = publisher.await;
        result
    })
    .await;
    if !tail.closed {
        server.shutdown();
    }
    Ok(check(spec, Collected { rec: start.rec, tail, measured, net, epoch, reads }))
}

/// Checks every `(epoch, asset, node)` triple of a stream of `epochs`
/// epochs against the inputs `input(node, epoch, asset)` handed out;
/// returns the triples attempted and failed, and appends the first few
/// violations to `problems`.
///
/// Each node resolves its epochs in order, so what it resolved is a
/// prefix of the stream. After a full stream every epoch past a node's
/// prefix is unresolved, and fails. After a closed window, an epoch no
/// more than [`WINDOW`] epochs behind the furthest node may still have
/// been in flight at the node when the feed closed: it was not attempted
/// there. An epoch further behind fails as unresolved: the node has
/// stalled, and its peers have already evicted that epoch.
fn check_triples(
    assets: usize,
    epochs: usize,
    tail: &Tail,
    input: impl Fn(usize, usize, usize) -> Option<f64>,
    problems: &mut Vec<String>,
) -> (u64, u64) {
    let n = tail.resolved.len();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let slack = RHO0 + EPSILON;
    let last = if tail.closed { tail.resolved.iter().copied().max().unwrap_or(0) } else { epochs };
    for e in 0..last {
        for a in 0..assets {
            let got: Vec<Option<f64>> = (0..n)
                .map(|i| tail.values[i][e].as_ref().and_then(|v| (v.len() == assets).then(|| v[a])))
                .collect();
            let inputs: Vec<f64> = (0..n).filter_map(|i| input(i, e, a)).collect();
            let lo_in = inputs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi_in = inputs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let present: Vec<f64> = got.iter().flatten().copied().collect();
            let lo = present.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = present.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread_ok = present.is_empty() || hi - lo <= EPSILON + 1e-9;
            for (i, v) in got.iter().enumerate() {
                let in_flight = tail.closed && e >= tail.resolved[i] && e + WINDOW >= last;
                if in_flight {
                    continue;
                }
                attempted += 1;
                let why = match v {
                    None if e < tail.resolved[i] => Some("skipped".to_string()),
                    None => Some("unresolved".to_string()),
                    Some(_) if !spread_ok => Some(format!("spread {} > ε", hi - lo)),
                    Some(v) if !(*v >= lo_in - slack && *v <= hi_in + slack) => {
                        Some(format!("{v} outside inputs [{lo_in}, {hi_in}]"))
                    }
                    Some(_) => None,
                };
                if let Some(why) = why {
                    failed += 1;
                    if problems.len() < 8 {
                        problems.push(format!("epoch {e} asset {a} node {i}: {why}"));
                    }
                }
            }
        }
    }
    (attempted, failed)
}

/// Checks a stream's outputs and derives its timings.
fn check(spec: &RunSpec, c: Collected) -> StreamRun {
    let shape = spec.shape;
    let (n, assets, epochs) = (shape.n, usize::from(shape.assets), spec.epochs as usize);
    let Collected { rec, tail, measured, net, epoch, reads } = c;
    let mut problems = tail.problems.clone();
    let (attempted, failed) =
        check_triples(assets, epochs, &tail, |i, e, a| rec.input(i, e, a), &mut problems);

    let since = |t: Instant| t.saturating_duration_since(rec.base).as_secs_f64();
    let first_spawn = (0..n).filter_map(|i| rec.spawned(i, 0)).fold(f64::INFINITY, f64::min);
    let setup_s = (0..n).filter_map(|i| rec.spawned(i, 0)).fold(0.0, f64::max);
    let mut decides = Vec::with_capacity(n * epochs);
    let mut decide_ms = Vec::with_capacity(n * epochs);
    for i in 0..n {
        for e in 0..epochs {
            let (Some(at), Some(spawned)) = (tail.decided[i][e], rec.spawned(i, e)) else {
                continue;
            };
            let at = since(at);
            decides.push(at);
            decide_ms.push((at - spawned) * 1e3);
        }
    }
    let last_decide = decides.iter().copied().fold(first_spawn, f64::max);
    // A (node, epoch) decided is assets ÷ n cluster agreements.
    let per_decide = assets as f64 / n as f64;
    let mid = (first_spawn + last_decide) / 2.0;
    let early = decides.iter().filter(|&&t| t < mid).count() as f64;
    let late = decides.len() as f64 - early;
    let half = (mid - first_spawn).max(1e-9);
    let resolved = tail.resolved.iter().sum::<usize>() as f64 / n as f64;
    StreamRun {
        epochs: tail.resolved.iter().copied().min().unwrap_or(0) as u32,
        agreements: (resolved * assets as f64).round() as u64,
        setup_s,
        window_s: (last_decide - first_spawn).max(0.0),
        decide_ms,
        cpu: measured.usage.cpu,
        steal_share: measured.usage.steal_share(),
        net,
        epoch,
        attempted,
        failed,
        problems,
        agreed: tail.values.into_iter().next().unwrap_or_default(),
        halves: (early * per_decide / half, late * per_decide / half),
        split: measured.split,
        counts: measured.counts,
        reads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tail of `n` nodes in which node `i` agreed `value` on each of its
    /// first `resolved[i]` epochs, for every asset.
    fn tail(resolved: &[usize], epochs: usize, assets: usize, closed: bool) -> Tail {
        let mut tail = Tail::new(resolved.len(), epochs);
        for (i, &r) in resolved.iter().enumerate() {
            for e in 0..r {
                tail.values[i][e] = Some(vec![100.0; assets]);
            }
            tail.resolved[i] = r;
        }
        tail.closed = closed;
        tail
    }

    fn inputs(_: usize, _: usize, _: usize) -> Option<f64> {
        Some(100.0)
    }

    #[test]
    fn a_stalled_node_fails_the_epochs_it_missed_after_a_closed_window() {
        // Node 0 never got past epoch 0 while the others resolved 20;
        // node 3 is 2 epochs behind, within the window.
        let t = tail(&[0, 20, 20, 18], 40, 2, true);
        let mut problems = Vec::new();
        let (attempted, failed) = check_triples(2, 40, &t, inputs, &mut problems);
        // Epochs 0..14 lie more than WINDOW behind epoch 20.
        let stalled = 20 - WINDOW as u64;
        assert_eq!(failed, stalled * 2);
        assert_eq!(attempted, (20 + 20 + 18 + stalled) * 2);
        assert!(problems[0].contains("node 0: unresolved"), "{problems:?}");
    }

    #[test]
    fn a_closed_window_skips_only_epochs_in_flight() {
        let t = tail(&[20, 20, 15, 14], 40, 1, true);
        let mut problems = Vec::new();
        let (attempted, failed) = check_triples(1, 40, &t, inputs, &mut problems);
        assert_eq!((attempted, failed), (20 + 20 + 15 + 14, 0), "{problems:?}");
    }

    #[test]
    fn a_full_stream_fails_every_epoch_a_node_missed() {
        let t = tail(&[10, 10, 10, 8], 10, 1, false);
        let mut problems = Vec::new();
        let (attempted, failed) = check_triples(1, 10, &t, inputs, &mut problems);
        assert_eq!((attempted, failed), (40, 2));
    }

    #[test]
    fn disagreement_and_invalid_values_fail() {
        let mut t = tail(&[3, 3, 3, 3], 3, 1, false);
        t.values[1][0] = Some(vec![103.0]); // 3 > ε from the others
        t.values[2][1] = Some(vec![100.0 + RHO0 + EPSILON + 1.0]);
        t.values[3][1] = Some(vec![100.0 + RHO0 + EPSILON + 1.0]);
        t.values[0][1] = Some(vec![100.0 + RHO0 + EPSILON + 1.0]);
        t.values[1][1] = Some(vec![100.0 + RHO0 + EPSILON + 1.0]);
        t.values[0][2] = None; // skipped
        let mut problems = Vec::new();
        let (attempted, failed) = check_triples(1, 3, &t, inputs, &mut problems);
        assert_eq!(attempted, 12);
        // Epoch 0: all four outputs share the ε violation; epoch 1: all
        // four lie outside the inputs; epoch 2: node 0 skipped.
        assert_eq!(failed, 4 + 4 + 1, "{problems:?}");
    }
}

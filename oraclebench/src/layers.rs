//! Single-layer measurements made beside the cluster run:
//!
//! - the sans-io replay of a stream through `delphi-sim`, with the same
//!   protocol wrapper as the traced cluster;
//! - the frame replay, timing `encode_epoch_frame` and
//!   `decode_inbound_frame_ref` on payloads recorded from the run;
//! - the serving layer's per-agreement calls on the run's agreed values.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use delphi_api::{FeedState, FeedUpdate, QuorumSigner, SubscriberHub};
use delphi_crypto::Keychain;
use delphi_net::{decode_inbound_frame_ref, encode_epoch_frame};
use delphi_primitives::{
    AgreementId, EpochEvent, EpochId, EpochProtocol, FlushPolicy, InstanceId, NodeId, Protocol,
};
use delphi_sim::{Simulation, Topology};

use crate::cluster::{self, Recorder, Shape, DEPLOYMENT_SEED, EPSILON};
use crate::procfs;
use crate::trace::Probe;

/// One single-threaded simulator replay.
pub struct Replay {
    /// Cluster agreements in the replayed stream.
    pub agreements: u64,
    /// CPU of the replaying thread, nanoseconds.
    pub cpu_ns: u64,
    /// Nanoseconds inside agreement instances.
    pub step_ns: u64,
}

/// Replays a `shape` stream of `epochs` epochs through the simulator on
/// the calling thread, every instance wrapped as in the traced run.
pub fn sansio(shape: Shape, epochs: u32, seed: u64) -> Result<Replay, String> {
    let probe = Probe::new();
    let cfg = shape.config();
    let feed = shape.feed(seed);
    let rec = Recorder::new(Instant::now(), shape.n, epochs, shape.assets, false);
    let source = |me| cluster::price_source(feed.clone(), me, shape.n, rec.clone());
    let cpu_start = procfs::thread_cpu_ns();
    let finished = if shape.vector {
        let nodes = NodeId::all(shape.n)
            .map(|me| {
                let mux = cluster::traced_vector_mux(
                    &cfg,
                    me,
                    shape.epoch_config(epochs),
                    source(me),
                    &probe,
                );
                boxed(EpochProtocol::new(mux, FlushPolicy::adaptive()))
            })
            .collect();
        simulate(shape.n, seed, nodes)
    } else {
        let nodes = NodeId::all(shape.n)
            .map(|me| {
                let mux = cluster::traced_scalar_mux(
                    &cfg,
                    me,
                    shape.epoch_config(epochs),
                    source(me),
                    &probe,
                );
                boxed(EpochProtocol::new(mux, FlushPolicy::adaptive()))
            })
            .collect();
        simulate(shape.n, seed, nodes)
    };
    let cpu_ns = procfs::thread_cpu_ns().saturating_sub(cpu_start);
    if !finished {
        return Err("sans-io replay stalled".into());
    }
    Ok(Replay {
        agreements: u64::from(epochs) * u64::from(shape.assets),
        cpu_ns,
        step_ns: probe.step_ns.load(std::sync::atomic::Ordering::Relaxed),
    })
}

type Node<O> = Box<dyn Protocol<Output = Vec<EpochEvent<O>>>>;

fn boxed<P>(p: EpochProtocol<P>) -> Node<P::Output>
where
    P: Protocol + 'static,
{
    Box::new(p)
}

/// Runs the nodes on a LAN topology with the adaptive flush tick; whether
/// every node resolved every epoch.
fn simulate<O: Clone + std::fmt::Debug>(n: usize, seed: u64, nodes: Vec<Node<O>>) -> bool {
    let tick = FlushPolicy::adaptive();
    let FlushPolicy::Adaptive { max_delay, .. } = tick else { return false };
    let report = Simulation::new(Topology::lan(n))
        .seed(seed)
        .tick_interval_ns(max_delay.as_nanos().max(1) as u64)
        .run(nodes);
    report.all_honest_finished()
}

/// Nanoseconds to hand every node its prices for a `shape` stream of
/// `epochs` epochs, in the order the nodes ask for them. Replayed on one
/// thread after the run: a span around each microsecond-long call inside
/// the cluster would mostly time preemption.
pub fn source(shape: Shape, epochs: u32, seed: u64) -> u64 {
    let feed = shape.feed(seed);
    let rec = Recorder::new(Instant::now(), shape.n, epochs, shape.assets, false);
    let started = Instant::now();
    for me in NodeId::all(shape.n) {
        let mut source = cluster::price_source(feed.clone(), me, shape.n, rec.clone());
        for e in 0..epochs {
            for a in 0..shape.assets {
                std::hint::black_box(source(EpochId(e), InstanceId(a)));
            }
        }
    }
    started.elapsed().as_nanos() as u64
}

/// Frame-layer costs on recorded payloads.
pub struct FrameCost {
    /// Nanoseconds to build and MAC one frame.
    pub encode_ns: f64,
    /// Nanoseconds to verify and split one frame.
    pub verify_ns: f64,
}

/// Times encoding and verifying frames of `per_frame` entries built from
/// `payloads` (node 0 → node 1 of an `n`-node deployment), repeating
/// until the timing covers at least `budget`.
pub fn frames(
    payloads: &[(AgreementId, usize, Bytes)],
    per_frame: usize,
    n: usize,
    budget: Duration,
) -> Result<FrameCost, String> {
    if payloads.is_empty() {
        return Err("no payloads recorded".into());
    }
    let sender = Keychain::derive(DEPLOYMENT_SEED, NodeId(0), n);
    let receiver = Keychain::derive(DEPLOYMENT_SEED, NodeId(1), n);
    let entries: Vec<(AgreementId, Bytes)> =
        payloads.iter().map(|(id, _, p)| (*id, p.clone())).collect();
    let chunks: Vec<&[(AgreementId, Bytes)]> = entries.chunks(per_frame.max(1)).collect();
    let (mut encode, mut verify, mut count) = (Duration::ZERO, Duration::ZERO, 0u64);
    while encode + verify < budget {
        let started = Instant::now();
        let frames: Vec<Bytes> =
            chunks.iter().map(|c| encode_epoch_frame(&sender, NodeId(1), c)).collect();
        encode += started.elapsed();
        let started = Instant::now();
        for frame in &frames {
            let (from, entries) = decode_inbound_frame_ref(&receiver, &frame[4..])
                .map_err(|e| format!("replayed frame rejected: {e:?}"))?;
            std::hint::black_box((from, entries));
        }
        verify += started.elapsed();
        count += frames.len() as u64;
    }
    Ok(FrameCost {
        encode_ns: encode.as_nanos() as f64 / count as f64,
        verify_ns: verify.as_nanos() as f64 / count as f64,
    })
}

/// Serving-layer costs per agreement.
pub struct ApiCost {
    /// `QuorumSigner::attest`, nanoseconds.
    pub attest_ns: f64,
    /// `FeedState::publish` + `SubscriberHub::broadcast`, nanoseconds.
    pub publish_ns: f64,
}

/// Times attesting and publishing every agreed `(epoch, asset)` value of
/// one node's stream, with one subscriber per asset.
pub fn api(agreed: &[Option<Vec<f64>>], assets: u16, t: usize) -> ApiCost {
    let signer = QuorumSigner::new(DEPLOYMENT_SEED, t, EPSILON);
    let state = FeedState::new(assets, 64);
    let hub = Arc::new(SubscriberHub::new(assets, agreed.len().max(1)));
    let subs: Vec<_> = (0..assets).filter_map(|a| hub.subscribe(InstanceId(a))).collect();
    let (mut attest, mut publish, mut count) = (Duration::ZERO, Duration::ZERO, 0u64);
    for (e, values) in agreed.iter().enumerate() {
        let Some(values) = values else { continue };
        let epoch = EpochId(e as u32);
        for (a, &value) in values.iter().enumerate() {
            let asset = InstanceId(a as u16);
            let started = Instant::now();
            let attestation = signer.attest(epoch, asset, value);
            attest += started.elapsed();
            let started = Instant::now();
            let update =
                state.publish(FeedUpdate { epoch, asset, value, attestation: Some(attestation) });
            hub.broadcast(&update);
            publish += started.elapsed();
            count += 1;
        }
    }
    drop(subs);
    let per = |d: Duration| d.as_nanos() as f64 / count.max(1) as f64;
    ApiCost { attest_ns: per(attest), publish_ns: per(publish) }
}

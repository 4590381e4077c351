//! The traced run's instruments, all in the benchmark's own code: a
//! [`Protocol`] wrapper timing every call into an agreement instance and
//! a sampler splitting the process CPU by thread.
//!
//! Counts and spans stay in memory ([`Probe`]) until the run ends.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use delphi_primitives::{AgreementId, Envelope, NodeId, Protocol, Recipient};

use crate::procfs::{self, ProcCpu, ThreadSample};

/// Outgoing payloads kept for the frame replay.
const PAYLOAD_SAMPLES: usize = 4096;

/// Source of unique [`Probe`] ids.
static NEXT_PROBE: AtomicU64 = AtomicU64::new(1);

/// Shared counters of one traced run.
#[derive(Debug, Default)]
pub struct Probe {
    /// Unique id, so a thread registers once per probe.
    id: u64,
    /// Calls into agreement instances (`start`, `on_message`, `on_tick`).
    pub step_calls: AtomicU64,
    /// Nanoseconds spent inside those calls.
    pub step_ns: AtomicU64,
    /// Rounds completed, from the instances' round probe.
    pub rounds: Arc<AtomicU64>,
    /// Threads that ran at least one protocol step.
    dispatch: Mutex<HashSet<u32>>,
    /// Outgoing `(agreement, destination count, payload)` samples.
    payloads: Mutex<Vec<(AgreementId, usize, Bytes)>>,
    /// Set once [`PAYLOAD_SAMPLES`] payloads are kept.
    payloads_full: AtomicBool,
}

thread_local! {
    /// Probes (by id) this thread has already registered with.
    static REGISTERED: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

impl Probe {
    /// A fresh probe.
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe { id: NEXT_PROBE.fetch_add(1, Ordering::Relaxed), ..Probe::default() })
    }

    /// Times `f` as one protocol step on the calling thread.
    fn step<T>(&self, f: impl FnOnce() -> T) -> T {
        let key = self.id;
        let fresh = REGISTERED.with(|r| {
            let mut r = r.borrow_mut();
            let fresh = !r.contains(&key);
            if fresh {
                r.push(key);
            }
            fresh
        });
        if fresh {
            let tid = procfs::current_tid();
            self.dispatch.lock().unwrap_or_else(|e| e.into_inner()).insert(tid);
        }
        let started = Instant::now();
        let out = f();
        self.step_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.step_calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn record(&self, id: AgreementId, n: usize, out: &[Envelope]) {
        if out.is_empty() || self.payloads_full.load(Ordering::Relaxed) {
            return;
        }
        let mut payloads = self.payloads.lock().unwrap_or_else(|e| e.into_inner());
        for env in out {
            if payloads.len() >= PAYLOAD_SAMPLES {
                self.payloads_full.store(true, Ordering::Relaxed);
                return;
            }
            let dests = match env.to {
                Recipient::All => n - 1,
                Recipient::One(_) => 1,
            };
            payloads.push((id, dests, env.payload.clone()));
        }
    }

    /// The counters right now.
    pub fn counts(&self) -> ProbeCounts {
        ProbeCounts {
            step_calls: self.step_calls.load(Ordering::Relaxed),
            step_ns: self.step_ns.load(Ordering::Relaxed),
            rounds: self.rounds.load(Ordering::Relaxed),
        }
    }

    /// Thread ids that ran a protocol step.
    pub fn dispatch_threads(&self) -> HashSet<u32> {
        self.dispatch.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The recorded outgoing payloads.
    pub fn payloads(&self) -> Vec<(AgreementId, usize, Bytes)> {
        self.payloads.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// A copy of a [`Probe`]'s counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeCounts {
    /// Calls into agreement instances.
    pub step_calls: u64,
    /// Nanoseconds inside them.
    pub step_ns: u64,
    /// Rounds completed.
    pub rounds: u64,
}

/// An agreement instance with every call timed into a [`Probe`].
pub struct Traced<P> {
    inner: P,
    id: AgreementId,
    probe: Arc<Probe>,
}

impl<P: Protocol> Traced<P> {
    /// Wraps the instance for agreement `id`.
    pub fn new(inner: P, id: AgreementId, probe: Arc<Probe>) -> Traced<P> {
        Traced { inner, id, probe }
    }

    fn traced(&mut self, f: impl FnOnce(&mut P) -> Vec<Envelope>) -> Vec<Envelope> {
        let probe = self.probe.clone();
        let out = probe.step(|| f(&mut self.inner));
        probe.record(self.id, self.inner.n(), &out);
        out
    }
}

impl<P: Protocol> Protocol for Traced<P> {
    type Output = P::Output;

    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn start(&mut self) -> Vec<Envelope> {
        self.traced(P::start)
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8]) -> Vec<Envelope> {
        self.traced(|p| p.on_message(from, payload))
    }

    fn on_tick(&mut self) -> Vec<Envelope> {
        self.traced(P::on_tick)
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }

    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

/// Per-thread totals over a sampled window.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadTotals {
    /// Threads with any CPU in the window.
    pub threads: u64,
    /// Nanoseconds on CPU.
    pub run_ns: u64,
    /// Nanoseconds waiting on a run queue.
    pub wait_ns: u64,
    /// Context switches.
    pub switches: u64,
}

impl ThreadTotals {
    fn add(&mut self, d: ThreadSample) {
        if d.run_ns > 0 {
            self.threads += 1;
        }
        self.run_ns += d.run_ns;
        self.wait_ns += d.wait_ns;
        self.switches += d.switches;
    }
}

/// The CPU split of one sampled window.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuSplit {
    /// Threads that ran a protocol step.
    pub dispatch: ThreadTotals,
    /// Every other thread of the nodes under test.
    pub transport: ThreadTotals,
    /// The benchmark's own threads (main loop, sampler, reader).
    pub bench: ThreadTotals,
    /// Process CPU over the window, from `/proc/self/stat`.
    pub process: ProcCpu,
}

impl CpuSplit {
    /// Summed thread CPU ÷ process CPU: how much of the process CPU the
    /// per-thread split accounts for.
    pub fn closure(&self) -> f64 {
        let threads = self.dispatch.run_ns + self.transport.run_ns + self.bench.run_ns;
        threads as f64 / 1e6 / self.process.total_ms().max(1e-9)
    }
}

/// Background sampler of every thread's counters. Keeps, per thread,
/// the first and the latest sample seen, so threads that exit during the
/// window still count up to their last sample.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    state: Arc<Mutex<SamplerState>>,
    thread: Option<JoinHandle<()>>,
}

#[derive(Default)]
struct SamplerState {
    first: HashMap<u32, ThreadSample>,
    last: HashMap<u32, ThreadSample>,
    cpu_start: ProcCpu,
    cpu_end: ProcCpu,
    sampler_tid: u32,
}

impl SamplerState {
    /// Records every live thread. Periodic samples skip context switches
    /// and keep the last count seen; the closing sample reads them.
    fn take(&mut self, with_switches: bool) {
        for (tid, mut sample) in procfs::thread_samples(with_switches) {
            // A thread first seen mid-window was born in it: its counters
            // started from zero.
            self.first.entry(tid).or_default();
            let last = self.last.entry(tid).or_default();
            if !with_switches {
                sample.switches = last.switches;
            }
            *last = sample;
        }
    }
}

impl Sampler {
    /// Starts sampling every `interval`; the window opens now.
    pub fn start(interval: Duration) -> Sampler {
        let mut state = SamplerState::default();
        for (tid, sample) in procfs::thread_samples(true) {
            state.first.insert(tid, sample);
            state.last.insert(tid, sample);
        }
        state.cpu_start = procfs::process_cpu();
        let state = Arc::new(Mutex::new(state));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (state, stop) = (state.clone(), stop.clone());
            std::thread::spawn(move || {
                state.lock().unwrap_or_else(|e| e.into_inner()).sampler_tid = procfs::current_tid();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    state.lock().unwrap_or_else(|e| e.into_inner()).take(false);
                }
            })
        };
        Sampler { stop, state, thread: Some(thread) }
    }

    /// Closes the window with a final sample, stops the sampler thread,
    /// and splits the window's CPU by thread class.
    pub fn finish(mut self, dispatch: &HashSet<u32>, bench: &HashSet<u32>) -> CpuSplit {
        let mut state = {
            let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
            s.take(true);
            s.cpu_end = procfs::process_cpu();
            std::mem::take(&mut *s)
        };
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let mut split =
            CpuSplit { process: state.cpu_end.since(&state.cpu_start), ..CpuSplit::default() };
        for (tid, last) in state.last.drain() {
            let first = state.first.get(&tid).copied().unwrap_or_default();
            let delta = ThreadSample {
                run_ns: last.run_ns.saturating_sub(first.run_ns),
                wait_ns: last.wait_ns.saturating_sub(first.wait_ns),
                switches: last.switches.saturating_sub(first.switches),
            };
            if dispatch.contains(&tid) {
                split.dispatch.add(delta);
            } else if bench.contains(&tid) || tid == state.sampler_tid {
                split.bench.add(delta);
            } else {
                split.transport.add(delta);
            }
        }
        split
    }
}

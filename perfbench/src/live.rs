//! Live runs: a 4-party group on a real runtime, driven through the
//! public `PartyHandle` API by one load-generator thread (the caller's).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sintra_core::channel::AtomicChannelConfig;
use sintra_core::ProtocolId;
use sintra_crypto::dealer::{deal, DealerConfig, PartyKeys};
use sintra_net::tcp::{TcpConfig, TcpGroup};
use sintra_net::threaded::ThreadedGroup;
use sintra_net::{ObservabilityConfig, PartyHandle};
use sintra_telemetry::Recorder;

use crate::check::Ledger;
use crate::recorder::BenchRecorder;
use crate::sys::{process_cpu_s, thread_cpu_s};
use crate::workload::{
    payload, request_id, Channel, Load, Runtime, Schedule, Workload, FAULTS, PARTIES, WARMUP_CLIENT,
};

/// Dealer seed: keys are fixed, only the workload inputs follow `--seed`.
pub const KEY_SEED: u64 = 2002;
/// Warm-up payloads per party during set-up.
const WARMUP_PER_PARTY: u32 = 2;
/// Longest a set-up warm-up may take before the run fails.
const WARMUP_DEADLINE: Duration = Duration::from_secs(60);
/// Longest the drain after the window may take; requests still missing
/// somewhere then count as failed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);
/// Longest a quiet conservation check waits for in-flight messages.
const CONSERVATION_DEADLINE: Duration = Duration::from_secs(5);
/// Generator nap when no party had anything to deliver.
const POLL_NAP: Duration = Duration::from_micros(100);

/// Deals the paper-default keys: 1024-bit, multi-signatures.
pub fn deal_keys() -> Vec<Arc<PartyKeys>> {
    let mut rng = StdRng::seed_from_u64(KEY_SEED);
    deal(&DealerConfig::new(PARTIES, FAULTS), &mut rng)
        .expect("fixture keys at 1024 bits")
        .into_iter()
        .map(Arc::new)
        .collect()
}

/// What the runtimes are spawned with besides their defaults.
#[derive(Default)]
pub struct Instruments {
    /// Telemetry sink passed to the spawn API.
    pub recorder: Option<Arc<BenchRecorder>>,
    /// Streaming traces and stall dumps.
    pub observability: Option<ObservabilityConfig>,
}

enum Group {
    Tcp(TcpGroup),
    Threaded(ThreadedGroup),
}

/// A running group with its channel open and warmed up.
pub struct Live {
    group: Option<Group>,
    handles: Vec<Box<dyn PartyHandle>>,
    pid: ProtocolId,
    seed: u64,
    payload_len: usize,
    /// When the group was spawned (close to the runtimes' trace anchor).
    pub spawned_at: Instant,
    /// Every submission and delivery of this group.
    pub ledger: Ledger,
}

impl Live {
    /// Deals keys, spawns the group, opens the channel and warms it up
    /// until every party has delivered every warm-up payload. Returns
    /// the group and the set-up time in seconds.
    pub fn setup(
        workload: &Workload,
        seed: u64,
        inst: &Instruments,
    ) -> Result<(Live, f64), String> {
        let start = Instant::now();
        let keys = deal_keys();
        let recorder = inst.recorder.clone().map(|r| r as Arc<dyn Recorder>);
        let spawned_at = Instant::now();
        let (group, handles): (Group, Vec<Box<dyn PartyHandle>>) = match workload.runtime {
            Runtime::Tcp => {
                let config = TcpConfig {
                    observability: inst.observability.clone(),
                    ..TcpConfig::default()
                };
                let (group, handles) = TcpGroup::spawn_with(keys, config, recorder)
                    .map_err(|e| format!("spawn tcp group: {e}"))?;
                let handles = handles
                    .into_iter()
                    .map(|h| Box::new(h) as Box<dyn PartyHandle>)
                    .collect();
                (Group::Tcp(group), handles)
            }
            Runtime::Threaded => {
                let (group, handles) =
                    ThreadedGroup::spawn_observable(keys, recorder, inst.observability.clone());
                let handles = handles
                    .into_iter()
                    .map(|h| Box::new(h) as Box<dyn PartyHandle>)
                    .collect();
                (Group::Threaded(group), handles)
            }
        };
        let pid = ProtocolId::new("perfbench");
        for handle in &handles {
            match workload.channel {
                Channel::Atomic => {
                    handle.create_atomic_channel(pid.clone(), AtomicChannelConfig::default())
                }
                Channel::Reliable => handle.create_reliable_channel(pid.clone()),
            }
        }
        let mut live = Live {
            group: Some(group),
            handles,
            pid,
            seed,
            payload_len: workload.payload_len,
            spawned_at,
            ledger: Ledger::new(
                PARTIES,
                workload.channel == Channel::Atomic,
                seed,
                workload.payload_len,
            ),
        };
        for party in 0..PARTIES {
            for k in 0..WARMUP_PER_PARTY {
                let id = request_id(WARMUP_CLIENT, party as u32 * WARMUP_PER_PARTY + k);
                live.submit(id, party, false);
            }
        }
        let deadline = Instant::now() + WARMUP_DEADLINE;
        let mut own = Vec::new();
        while live.ledger.pending() > 0 {
            if Instant::now() > deadline {
                return Err(format!(
                    "{}: warm-up incomplete after {WARMUP_DEADLINE:?}",
                    workload.name
                ));
            }
            if live.poll(&mut own) == 0 {
                std::thread::sleep(POLL_NAP);
            }
        }
        Ok((live, start.elapsed().as_secs_f64()))
    }

    fn submit(&mut self, id: u64, party: usize, counted: bool) {
        self.ledger.submit(id, party, counted);
        self.handles[party].send(&self.pid, payload(self.seed, id, self.payload_len));
    }

    /// Drains every party's deliveries into the ledger; pushes the ids
    /// delivered at the party they were submitted to onto `own`.
    /// Returns how many deliveries it saw.
    fn poll(&mut self, own: &mut Vec<u64>) -> usize {
        let mut seen = 0;
        for party in 0..PARTIES {
            while let Some(delivered) = self.handles[party].try_receive(&self.pid) {
                seen += 1;
                own.extend(self.ledger.deliver(party, &delivered.data));
            }
        }
        seen
    }

    /// Stops every runtime thread and waits for them.
    pub fn shutdown(&mut self) {
        match self.group.take() {
            Some(Group::Tcp(g)) => g.shutdown(),
            Some(Group::Threaded(g)) => g.shutdown(),
            None => {}
        }
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Window length, seconds.
    pub seconds: f64,
    /// Window plus drain, seconds.
    pub elapsed_s: f64,
    /// Requests submitted in the window.
    pub submitted: u64,
    /// Requests delivered at their own party within the window.
    pub committed: u64,
    /// Submit (closed loop) or due time (open loop) to delivery at the
    /// submitting party, for every request of the window that arrived.
    pub latencies_ms: Vec<f64>,
    /// Open loop: how late each request was sent after it was due.
    pub lags_ms: Vec<f64>,
    /// Process CPU seconds (all threads) during the window.
    pub cpu_s: f64,
    /// CPU seconds of the generator thread during the window.
    pub generator_cpu_s: f64,
    /// Whether everything submitted reached every party in time.
    pub drained: bool,
}

impl Window {
    /// Adds another window's measurements to this one.
    pub fn absorb(&mut self, other: &Window) {
        self.seconds += other.seconds;
        self.elapsed_s += other.elapsed_s;
        self.submitted += other.submitted;
        self.committed += other.committed;
        self.latencies_ms.extend_from_slice(&other.latencies_ms);
        self.lags_ms.extend_from_slice(&other.lags_ms);
        self.cpu_s += other.cpu_s;
        self.generator_cpu_s += other.generator_cpu_s;
        self.drained = self.drained && other.drained;
    }
}

/// Runs `workload`'s load against `live` for `seconds`, then drains.
pub fn drive(live: &mut Live, workload: &Workload, schedule: &Schedule, seconds: f64) -> Window {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let (cpu0, gen0) = (process_cpu_s(), thread_cpu_s());
    let mut window = Window {
        seconds,
        ..Window::default()
    };
    // id → (time the latency is measured from, closed-loop client).
    let mut outstanding: HashMap<u64, (Instant, Option<usize>)> = HashMap::new();
    let mut next_seq: Vec<u32> = Vec::new();
    let mut next_arrival = 0;
    if let Load::Closed { clients } = workload.load {
        next_seq = vec![0; clients];
        for (c, &party) in schedule.client_party.iter().enumerate() {
            let id = request_id(c as u32, 0);
            live.submit(id, party, true);
            outstanding.insert(id, (start, Some(c)));
        }
        window.submitted += clients as u64;
    }
    let mut own = Vec::new();
    let mut cpu_end = None;
    loop {
        let now = Instant::now();
        if now < end {
            while let Some(a) = schedule.arrivals.get(next_arrival) {
                let due = start + Duration::from_micros(a.due_us);
                if due > now {
                    break;
                }
                let id = request_id(0, next_arrival as u32);
                live.submit(id, a.party, true);
                window
                    .lags_ms
                    .push(now.duration_since(due).as_secs_f64() * 1e3);
                outstanding.insert(id, (due, None));
                window.submitted += 1;
                next_arrival += 1;
            }
        } else if cpu_end.is_none() {
            cpu_end = Some((process_cpu_s(), thread_cpu_s()));
        }
        let seen = live.poll(&mut own);
        let at = Instant::now();
        for id in own.drain(..) {
            let Some((from, client)) = outstanding.remove(&id) else {
                continue;
            };
            window
                .latencies_ms
                .push(at.duration_since(from).as_secs_f64() * 1e3);
            if at <= end {
                window.committed += 1;
                if let Some(c) = client {
                    next_seq[c] += 1;
                    let next = request_id(c as u32, next_seq[c]);
                    live.submit(next, schedule.client_party[c], true);
                    outstanding.insert(next, (at, Some(c)));
                    window.submitted += 1;
                }
            }
        }
        if now >= end {
            if live.ledger.pending() == 0 {
                window.drained = true;
                break;
            }
            if now >= end + DRAIN_DEADLINE {
                break;
            }
        }
        if seen == 0 {
            let mut nap = POLL_NAP;
            if let Some(a) = schedule.arrivals.get(next_arrival) {
                let due = start + Duration::from_micros(a.due_us);
                nap = nap.min(due.saturating_duration_since(Instant::now()));
            }
            std::thread::sleep(nap);
        }
    }
    let (cpu1, gen1) = cpu_end.unwrap_or_else(|| (process_cpu_s(), thread_cpu_s()));
    window.cpu_s = cpu1 - cpu0;
    window.generator_cpu_s = gen1 - gen0;
    window.elapsed_s = start.elapsed().as_secs_f64();
    window
}

/// The threaded runtime's message conservation: once the group is quiet,
/// every envelope sent was delivered or dropped. Waits for in-flight
/// messages up to a deadline; a mismatch then fails the run.
pub fn check_conservation(recorder: &BenchRecorder, ledger: &mut Ledger) {
    let deadline = Instant::now() + CONSERVATION_DEADLINE;
    loop {
        let sent = recorder.conserved("msgs_sent");
        let delivered = recorder.conserved("msgs_delivered");
        let dropped = recorder.conserved("msgs_dropped");
        if sent == delivered + dropped {
            return;
        }
        if Instant::now() > deadline {
            ledger.fail_run(format!(
                "conservation: msgs_sent {sent} != msgs_delivered {delivered} + msgs_dropped {dropped}"
            ));
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

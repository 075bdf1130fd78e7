//! The traced run's deterministic pump: the workload's seeded client
//! logic replayed through `n` protocol nodes on one thread, over a FIFO
//! zero-latency network.
//!
//! Every envelope takes the path a real link gives it, one call per
//! layer: `Envelope::to_bytes` → `LinkKey::seal` → `LinkKey::open` →
//! `Envelope::from_bytes` → `Node::handle_envelope`. Each call is timed
//! from here, as a span naming the span that caused it, and each handle
//! call runs inside a `CostScope` for its crypto work units. The counts
//! depend only on the seed and repeat exactly; the times do not.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sintra_core::channel::AtomicChannelConfig;
use sintra_core::message::Envelope;
use sintra_core::node::Node;
use sintra_core::wire::Wire;
use sintra_core::{Event, GroupContext, Outgoing, PartyId, ProtocolId, Recipient};
use sintra_crypto::cost::CostScope;
use sintra_crypto::dealer::PartyKeys;
use sintra_net::link::{FrameKind, LinkKey};

use crate::check::{Audit, Ledger};
use crate::workload::{
    client_of, payload, request_id, Channel, Load, Schedule, Workload, PARTIES, WARMUP_CLIENT,
};

/// Protocol families whose per-delivery costs are reported.
pub const FAMILIES: [&str; 5] = ["rb", "vcb", "abba", "vba", "atomic"];

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call: `submit`, `encode`, `seal`, `open`, `decode`, `handle`.
    pub name: &'static str,
    /// Party whose node or link the call ran for.
    pub party: usize,
    /// Nanoseconds since the pump started.
    pub start_ns: u64,
    /// Nanoseconds since the pump started.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// The pump's exact counts.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PumpCounts {
    /// Requests submitted.
    pub requests: u64,
    /// Requests delivered at the party they were submitted to.
    pub deliveries: u64,
    /// Atomic rounds decided (counted at party 0).
    pub rounds: u64,
    /// Envelopes handled (one per recipient).
    pub envelopes: u64,
    /// Encoded envelope bytes.
    pub bytes: u64,
    /// Sealed frame bytes.
    pub frame_bytes: u64,
    /// Envelopes per protocol family.
    pub msgs: BTreeMap<&'static str, u64>,
    /// Crypto work per family, in thousandths of a work unit (rounded
    /// per call, as the runtimes attribute it).
    pub work_milli: BTreeMap<&'static str, u64>,
}

impl PumpCounts {
    /// Total crypto work units.
    pub fn work_units(&self) -> f64 {
        self.work_milli.values().sum::<u64>() as f64 / 1000.0
    }

    /// One line holding every count, for comparing runs.
    pub fn line(&self) -> String {
        let map = |m: &BTreeMap<&'static str, u64>| {
            m.iter()
                .map(|(k, v)| format!("{k}:{v}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "requests={} deliveries={} rounds={} envelopes={} bytes={} frame_bytes={} msgs={{{}}} work_milli={{{}}}",
            self.requests,
            self.deliveries,
            self.rounds,
            self.envelopes,
            self.bytes,
            self.frame_bytes,
            map(&self.msgs),
            map(&self.work_milli),
        )
    }
}

/// Summed call times, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct PumpTimes {
    /// `Node::handle_envelope` (plus the submits that start requests)
    /// per family.
    pub handle_ns: BTreeMap<&'static str, u64>,
    /// `Envelope::to_bytes`.
    pub encode_ns: u64,
    /// `LinkKey::seal`.
    pub seal_ns: u64,
    /// `LinkKey::open`.
    pub open_ns: u64,
    /// `Envelope::from_bytes`.
    pub decode_ns: u64,
}

/// Everything one pump pass produced.
#[derive(Debug)]
pub struct Pump {
    /// Exact counts.
    pub counts: PumpCounts,
    /// Summed times.
    pub times: PumpTimes,
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// The delivery audit.
    pub audit: Audit,
}

impl Pump {
    /// Writes the spans as JSON lines.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"party\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.party, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// An envelope in flight: sender, recipient, envelope, causing span.
type InFlight = (usize, usize, Envelope, Option<usize>);

struct State<'a> {
    workload: &'a Workload,
    seed: u64,
    pid: ProtocolId,
    nodes: Vec<Node>,
    /// `seal_keys[i][j]`: party `i`'s key for its link to `j`.
    seal_keys: Vec<Vec<LinkKey>>,
    queue: VecDeque<InFlight>,
    next_send_seq: Vec<u64>,
    epoch: Instant,
    spans: Vec<Span>,
    counts: PumpCounts,
    times: PumpTimes,
    ledger: Ledger,
    /// Requests delivered at their own party, not yet answered.
    committed: Vec<u64>,
    /// Whether counting has started (after the warm-up).
    counting: bool,
}

impl State<'_> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span(
        &mut self,
        name: &'static str,
        party: usize,
        start: u64,
        parent: Option<usize>,
    ) -> usize {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            party,
            start_ns: start,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    fn family_of_channel(&self) -> &'static str {
        match self.workload.channel {
            Channel::Atomic => "atomic",
            Channel::Reliable => "rb",
        }
    }

    fn submit(&mut self, id: u64, party: usize, counted: bool) {
        let data = payload(self.seed, id, self.workload.payload_len);
        self.ledger.submit(id, party, counted);
        if counted {
            self.counts.requests += 1;
        }
        let mut out = Outgoing::new();
        out.set_tracing(true);
        let start = self.now_ns();
        let scope = CostScope::enter();
        self.nodes[party].channel_send(&self.pid, data, &mut out);
        let work = scope.elapsed();
        let span = self.span("submit", party, start, None);
        let family = self.family_of_channel();
        self.charge(family, work, self.spans[span].end_ns - start);
        self.harvest(party, out, span);
    }

    fn charge(&mut self, family: &'static str, work: f64, ns: u64) {
        if self.counting {
            *self.counts.work_milli.entry(family).or_default() += (work * 1000.0).round() as u64;
            *self.times.handle_ns.entry(family).or_default() += ns;
        }
    }

    /// Queues a node's output and collects its deliveries and rounds.
    fn harvest(&mut self, party: usize, mut out: Outgoing, cause: usize) {
        for ev in out.drain_traces() {
            if self.counting && party == 0 && ev.family == "atomic" && ev.phase == "batch" {
                self.counts.rounds += 1;
            }
        }
        for (recipient, mut env) in out.drain() {
            env.send_seq = self.next_send_seq[party];
            self.next_send_seq[party] += 1;
            match recipient {
                Recipient::All => {
                    for to in 0..PARTIES {
                        self.queue.push_back((party, to, env.clone(), Some(cause)));
                    }
                }
                Recipient::One(p) => self.queue.push_back((party, p.0, env, Some(cause))),
            }
        }
        for event in self.nodes[party].take_events() {
            if let Event::ChannelDelivered { payload, .. } = event {
                if let Some(id) = self.ledger.deliver(party, &payload.data) {
                    if client_of(id) != WARMUP_CLIENT {
                        self.counts.deliveries += 1;
                        self.committed.push(id);
                    }
                }
            }
        }
    }

    /// Moves one envelope through encode → seal → open → decode → handle.
    fn step(&mut self, (from, to, env, cause): InFlight) {
        let t0 = self.now_ns();
        let bytes = env.to_bytes();
        let encode = self.span("encode", from, t0, cause);
        let t1 = self.spans[encode].end_ns;
        let frame = self.seal_keys[from][to].seal(&FrameKind::Data {
            seq: env.send_seq,
            payload: bytes,
        });
        let seal = self.span("seal", from, t1, Some(encode));
        let t2 = self.spans[seal].end_ns;
        let opened = self.seal_keys[to][from].open(&frame);
        let open = self.span("open", to, t2, Some(seal));
        let t3 = self.spans[open].end_ns;
        let Ok(FrameKind::Data { payload, .. }) = opened else {
            panic!("pump frame from {from} to {to} failed to open: {opened:?}");
        };
        let decoded = Envelope::from_bytes(&payload).expect("pump envelope decodes");
        let decode = self.span("decode", to, t3, Some(open));
        let t4 = self.spans[decode].end_ns;
        let mut out = Outgoing::new();
        out.set_tracing(true);
        let scope = CostScope::enter();
        self.nodes[to].handle_envelope(PartyId(from), &decoded, &mut out);
        let work = scope.elapsed();
        let handle = self.span("handle", to, t4, Some(decode));
        let t5 = self.spans[handle].end_ns;
        if self.counting {
            let family = decoded.body.family();
            self.counts.envelopes += 1;
            self.counts.bytes += payload.len() as u64;
            self.counts.frame_bytes += frame.len() as u64;
            *self.counts.msgs.entry(family).or_default() += 1;
            self.times.encode_ns += t1 - t0;
            self.times.seal_ns += t2 - t1;
            self.times.open_ns += t3 - t2;
            self.times.decode_ns += t4 - t3;
            self.charge(family, work, t5 - t4);
        }
        self.harvest(to, out, handle);
    }
}

/// Replays `workload`'s seeded client logic through the pump.
///
/// Closed loop: every client submits, and submits again when its request
/// is delivered at its own party, until `pump_requests` are in. Open
/// loop: the seeded arrivals are submitted one at a time, each after the
/// previous one has quiesced, which is the lone-request shape that a
/// moderate arrival rate approaches.
pub fn run(workload: &Workload, seed: u64, keys: &[Arc<PartyKeys>]) -> Pump {
    let pid = ProtocolId::new("perfbench");
    let mut nodes: Vec<Node> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| Node::new(GroupContext::new(Arc::clone(k)), i as u64 ^ 0x7EAD_ED01))
        .collect();
    for node in &mut nodes {
        match workload.channel {
            Channel::Atomic => {
                node.create_atomic_channel(pid.clone(), AtomicChannelConfig::default())
            }
            Channel::Reliable => node.create_reliable_channel(pid.clone()),
        }
    }
    let seal_keys = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            (0..keys.len())
                .map(|j| LinkKey::new(k.mac_keys[j].clone(), PartyId(i), PartyId(j)))
                .collect()
        })
        .collect();
    let mut s = State {
        workload,
        seed,
        pid,
        nodes,
        seal_keys,
        queue: VecDeque::new(),
        next_send_seq: vec![1; PARTIES],
        epoch: Instant::now(),
        spans: Vec::new(),
        counts: PumpCounts::default(),
        times: PumpTimes::default(),
        ledger: Ledger::new(
            PARTIES,
            workload.channel == Channel::Atomic,
            seed,
            workload.payload_len,
        ),
        committed: Vec::new(),
        counting: false,
    };
    // Warm-up, uncounted: one payload per party builds the lazy tables.
    for party in 0..PARTIES {
        s.submit(request_id(WARMUP_CLIENT, party as u32), party, false);
    }
    drain(&mut s);
    s.counting = true;

    let total = workload.pump_requests;
    match workload.load {
        Load::Closed { clients } => {
            let schedule = Schedule::new(workload, seed, 1.0);
            let mut next_seq = vec![0u32; clients];
            for c in 0..clients.min(total) {
                s.submit(request_id(c as u32, 0), schedule.client_party[c], true);
            }
            let mut submitted = clients.min(total);
            while let Some(item) = s.queue.pop_front() {
                s.step(item);
                for id in std::mem::take(&mut s.committed) {
                    let c = client_of(id) as usize;
                    if submitted < total {
                        next_seq[c] += 1;
                        s.submit(
                            request_id(c as u32, next_seq[c]),
                            schedule.client_party[c],
                            true,
                        );
                        submitted += 1;
                    }
                }
            }
        }
        Load::Open { rate_per_s } => {
            // Long enough for `total` arrivals with a wide margin.
            let window = 4.0 * total as f64 / rate_per_s + 10.0;
            let schedule = Schedule::new(workload, seed, window);
            for (i, arrival) in schedule.arrivals.iter().take(total).enumerate() {
                s.submit(request_id(0, i as u32), arrival.party, true);
                drain(&mut s);
            }
        }
    }
    drain(&mut s);
    Pump {
        audit: s.ledger.audit(),
        counts: s.counts,
        times: s.times,
        spans: s.spans,
    }
}

fn drain(s: &mut State<'_>) {
    while let Some(item) = s.queue.pop_front() {
        s.step(item);
    }
    s.committed.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::deal_keys;
    use crate::workload::by_name;

    #[test]
    fn same_seed_gives_identical_counts() {
        let keys = deal_keys();
        for name in ["rc-threaded-flood", "abc-tcp-paced"] {
            let w = by_name(name).expect("workload");
            let small = Workload {
                pump_requests: 6,
                ..*w
            };
            let a = run(&small, 11, &keys);
            let b = run(&small, 11, &keys);
            assert_eq!(a.counts, b.counts, "{name}");
            assert_eq!(a.counts.deliveries, 6, "{name}");
            assert_eq!(a.audit.failed, 0, "{name}: {:?}", a.audit.details);
            assert!(a.counts.envelopes > 0);
            assert!(a.spans.len() as u64 >= 5 * a.counts.envelopes + a.counts.requests);
        }
    }
}

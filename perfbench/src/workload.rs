//! The three workloads and the seeded input generator.
//!
//! The seed decides every input the program sees: payload bytes, which
//! party each client submits to, and (open loop) when each request is
//! due. Keys come from a fixed dealer seed, so two runs with different
//! workload seeds differ only in their inputs.

/// Group size: the paper's 4-server testbed.
pub const PARTIES: usize = 4;
/// Corruption bound at `PARTIES`.
pub const FAULTS: usize = 1;
/// Open-loop arrival rate of `abc-tcp-paced`, in requests per second
/// across the group: about 40% of the ~60 req/s the saturated atomic
/// workload reached on a 2-core host.
pub const PACED_RATE_PER_S: f64 = 25.0;

/// The runtime a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Runtime {
    /// Loopback TCP sockets (`sintra_net::tcp`).
    Tcp,
    /// In-process channels (`sintra_net::threaded`).
    Threaded,
}

/// The channel the requests travel on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Channel {
    /// Atomic broadcast: every party delivers every request in one
    /// total order.
    Atomic,
    /// Reliable channel: one Bracha broadcast per payload, FIFO per
    /// sender, no total order and no public-key operations.
    Reliable,
}

/// How requests arrive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// A fixed number of clients, each with one request outstanding.
    Closed {
        /// Client count, spread evenly over the parties.
        clients: usize,
    },
    /// Poisson arrivals at a fixed rate, each to a seeded party.
    Open {
        /// Mean arrivals per second across the group.
        rate_per_s: f64,
    },
}

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Runtime under the group.
    pub runtime: Runtime,
    /// Channel the requests use.
    pub channel: Channel,
    /// Arrival process.
    pub load: Load,
    /// Bytes per request payload.
    pub payload_len: usize,
    /// Requests the deterministic pump replays in the traced run.
    pub pump_requests: usize,
}

/// Every workload the benchmark knows.
pub const WORKLOADS: [Workload; 3] = [
    // The paper's headline service at capacity: CPU-bound on threshold
    // crypto and agreement. Eight clients (two per party) already
    // saturate the group; sixteen gave the same throughput with a p99
    // that swung by half across seeds (per-party queues four deep behind
    // two batch slots per round), too wide to compare two commits.
    Workload {
        name: "abc-tcp-saturated",
        runtime: Runtime::Tcp,
        channel: Channel::Atomic,
        load: Load::Closed { clients: 8 },
        payload_len: 64,
        pump_requests: 48,
    },
    // Moderate load: latency is set by wake-ups, fixed per-round cost
    // and link wait rather than by capacity.
    Workload {
        name: "abc-tcp-paced",
        runtime: Runtime::Tcp,
        channel: Channel::Atomic,
        load: Load::Open {
            rate_per_s: PACED_RATE_PER_S,
        },
        payload_len: 1024,
        pump_requests: 24,
    },
    // Per-envelope work only: wire codec, HMAC framing, routing and the
    // server loop; no bigint, public-key crypto or TCP.
    Workload {
        name: "rc-threaded-flood",
        runtime: Runtime::Threaded,
        channel: Channel::Reliable,
        load: Load::Closed { clients: 16 },
        payload_len: 64,
        pump_requests: 400,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: a small, fully specified generator, so a seed means the
/// same inputs on every build.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// A generator started from `seed`.
    pub fn new(seed: u64) -> Self {
        SeedRng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Client number reserved for the set-up warm-up payloads.
pub const WARMUP_CLIENT: u32 = u32::MAX;

/// Packs a request identity into the id carried in the payload header.
pub fn request_id(client: u32, seq: u32) -> u64 {
    (u64::from(client) << 32) | u64::from(seq)
}

/// The client half of a request id.
pub fn client_of(id: u64) -> u32 {
    (id >> 32) as u32
}

/// The payload for request `id`: the id in 8 big-endian header bytes,
/// then seeded filler up to `len` bytes.
pub fn payload(seed: u64, id: u64, len: usize) -> Vec<u8> {
    let mut data = Vec::with_capacity(len.max(8));
    data.extend_from_slice(&id.to_be_bytes());
    let mut rng = SeedRng::new(seed ^ id.wrapping_mul(0xA24B_AED4_963E_E407));
    while data.len() < len {
        let word = rng.next_u64().to_le_bytes();
        let take = (len - data.len()).min(8);
        data.extend_from_slice(&word[..take]);
    }
    data
}

/// The request id in a payload header.
pub fn payload_id(data: &[u8]) -> Option<u64> {
    let head: [u8; 8] = data.get(..8)?.try_into().ok()?;
    Some(u64::from_be_bytes(head))
}

/// One open-loop arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Due time, microseconds after the window opens.
    pub due_us: u64,
    /// Party the request is submitted to.
    pub party: usize,
}

/// The seeded inputs of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Workload seed.
    pub seed: u64,
    /// Closed loop: the party each client submits to (empty when open).
    pub client_party: Vec<usize>,
    /// Open loop: arrivals in due order (empty when closed).
    pub arrivals: Vec<Arrival>,
}

impl Schedule {
    /// The inputs of `workload` for a window of `window_s` seconds.
    /// Client `c` of a closed loop sends requests `request_id(c, 0..)`;
    /// open-loop arrival `i` is `request_id(0, i)`.
    pub fn new(workload: &Workload, seed: u64, window_s: f64) -> Schedule {
        let mut rng = SeedRng::new(seed);
        match workload.load {
            Load::Closed { clients } => {
                // Even spread, seeded shuffle (Fisher-Yates).
                let mut client_party: Vec<usize> = (0..clients).map(|c| c % PARTIES).collect();
                for i in (1..client_party.len()).rev() {
                    let j = rng.below(i + 1);
                    client_party.swap(i, j);
                }
                Schedule {
                    seed,
                    client_party,
                    arrivals: Vec::new(),
                }
            }
            Load::Open { rate_per_s } => {
                // A Poisson process conditioned on its count: exactly
                // `rate × window` arrivals at sorted uniform times, so
                // the offered load is the same for every seed and only
                // the arrival pattern varies.
                let count = (rate_per_s * window_s).round() as usize;
                let window_us = window_s * 1e6;
                let mut due: Vec<u64> = (0..count)
                    .map(|_| ((1.0 - rng.next_unit()) * window_us) as u64)
                    .collect();
                due.sort_unstable();
                let arrivals: Vec<Arrival> = due
                    .into_iter()
                    .map(|due_us| Arrival {
                        due_us,
                        party: rng.below(PARTIES),
                    })
                    .collect();
                Schedule {
                    seed,
                    client_party: Vec::new(),
                    arrivals,
                }
            }
        }
    }

    /// Segment `k` of `segments` equal parts of a `window_s` schedule:
    /// the clients unchanged, the arrivals due in that part re-based to
    /// its start.
    pub fn segment(&self, k: usize, segments: usize, window_s: f64) -> Schedule {
        let len_us = window_s * 1e6 / segments as f64;
        let (from, to) = ((k as f64 * len_us) as u64, ((k + 1) as f64 * len_us) as u64);
        Schedule {
            seed: self.seed,
            client_party: self.client_party.clone(),
            arrivals: self
                .arrivals
                .iter()
                .filter(|a| (from..to).contains(&a.due_us))
                .map(|a| Arrival {
                    due_us: a.due_us - from,
                    party: a.party,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in &WORKLOADS {
            let a = Schedule::new(w, 7, 20.0);
            let b = Schedule::new(w, 7, 20.0);
            let c = Schedule::new(w, 8, 20.0);
            assert_eq!(a, b, "{}", w.name);
            assert_ne!(a, c, "{}", w.name);
            let id = request_id(3, 5);
            assert_eq!(payload(7, id, w.payload_len), payload(7, id, w.payload_len));
            assert_ne!(payload(7, id, w.payload_len), payload(8, id, w.payload_len));
            assert_eq!(payload(7, id, w.payload_len).len(), w.payload_len);
        }
    }

    #[test]
    fn closed_loop_spreads_clients_evenly() {
        let w = by_name("abc-tcp-saturated").expect("workload");
        let s = Schedule::new(w, 1, 10.0);
        for p in 0..PARTIES {
            assert_eq!(s.client_party.iter().filter(|&&q| q == p).count(), 2);
        }
    }

    #[test]
    fn open_loop_offers_the_target_rate_in_due_order() {
        let w = by_name("abc-tcp-paced").expect("workload");
        for seed in 1..4 {
            let s = Schedule::new(w, seed, 40.0);
            assert_eq!(s.arrivals.len(), (PACED_RATE_PER_S * 40.0) as usize);
            assert!(s.arrivals.windows(2).all(|a| a[0].due_us <= a[1].due_us));
            assert!(s.arrivals.iter().all(|a| a.due_us < 40_000_000));
            // Poisson gaps: mean 1/rate, coefficient of variation near 1.
            let gaps: Vec<f64> = s
                .arrivals
                .windows(2)
                .map(|a| (a[1].due_us - a[0].due_us) as f64)
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            assert!((mean - 40_000.0).abs() < 4_000.0, "mean gap {mean}");
            assert!(
                (var.sqrt() / mean - 1.0).abs() < 0.2,
                "cv {}",
                var.sqrt() / mean
            );
        }
    }

    #[test]
    fn segments_partition_the_arrivals() {
        let w = by_name("abc-tcp-paced").expect("workload");
        let whole = Schedule::new(w, 3, 30.0);
        let parts: Vec<Schedule> = (0..3).map(|k| whole.segment(k, 3, 30.0)).collect();
        assert_eq!(
            parts.iter().map(|p| p.arrivals.len()).sum::<usize>(),
            whole.arrivals.len()
        );
        assert!(parts
            .iter()
            .all(|p| p.arrivals.iter().all(|a| a.due_us < 10_000_000)));
        assert_eq!(
            parts[0].arrivals[..],
            whole.arrivals[..parts[0].arrivals.len()]
        );
    }

    #[test]
    fn ids_round_trip_through_payloads() {
        let id = request_id(9, 77);
        assert_eq!(client_of(id), 9);
        assert_eq!(payload_id(&payload(1, id, 64)), Some(id));
        assert_eq!(payload_id(&[1, 2, 3]), None);
    }
}

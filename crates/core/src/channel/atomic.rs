//! The atomic broadcast channel (paper §2.5).
//!
//! The protocol proceeds in global rounds, following the structure of
//! Chandra–Toueg atomic broadcast transplanted to the Byzantine setting:
//!
//! 1. every party signs a list of its undelivered queued payloads, in
//!    queue order, at most `max_entry_payloads` of them and, beyond the
//!    front one, no more than fit the byte budget of
//!    [`entry_byte_budget`] (so a full batch always fits one wire
//!    message), together with the round number, and sends the signed
//!    *entry* to all parties; a
//!    party with nothing to send may *adopt* another party's entry and
//!    sign its whole list (with `max_entry_payloads = 1` this is the
//!    paper's one payload per party per round);
//! 2. once a party holds a *batch* of `n - f + 1` entries signed by
//!    distinct parties, it proposes the batch to a multi-valued agreement
//!    whose external validity predicate checks exactly that property;
//! 3. all payloads of the agreed batch are delivered in a fixed order
//!    (by signer index, then list order), deduplicated by
//!    `(origin, sequence-number)` — the paper's practical weakening of
//!    integrity.
//!
//! Fairness: with batch size `n - f + 1`, a payload known to `f` honest
//! parties is delivered within a bounded number of rounds, because every
//! agreed batch contains at least one entry signed by one of them. An
//! entry always starts with the front of its signer's queue, so a list of
//! several payloads only adds to what the paper's single payload carries.
//!
//! Termination: `close` enqueues a termination request as a regular
//! payload; the channel terminates at the end of the round in which
//! requests from `t + 1` distinct parties have been delivered.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sintra_telemetry::{SnapshotWriter, StateSnapshot, TraceEvent};

use crate::agreement::{CandidateOrder, MultiValuedAgreement};
use crate::config::GroupContext;
use crate::ids::{PartyId, ProtocolId};
use crate::invariant::OrInvariant;
use crate::invariant_unwrap;
use crate::message::{
    entry_byte_budget, statement_entry, Body, Entry, Payload, PayloadKind, MAX_ENTRY_PAYLOADS,
};
use crate::outgoing::Outgoing;
use crate::validator::ArrayValidator;
use crate::wire::Wire;

/// Configuration of an atomic channel.
#[derive(Debug, Clone, Copy)]
pub struct AtomicChannelConfig {
    /// The fairness parameter `f` (`t + 1 <= f <= n - t`); the batch size
    /// is `n - f + 1`. `None` selects the paper's experimental setup
    /// `f = n - t`, i.e. batch size `t + 1`.
    pub fairness: Option<usize>,
    /// Candidate order for the inner multi-valued agreements.
    pub order: CandidateOrder,
    /// Most payloads a party signs into its entry per round
    /// (`1..=MAX_ENTRY_PAYLOADS`); entries carrying more are rejected.
    /// `1` reproduces the paper prototype.
    pub max_entry_payloads: usize,
}

impl Default for AtomicChannelConfig {
    fn default() -> Self {
        AtomicChannelConfig {
            fairness: None,
            order: CandidateOrder::LocalRandom,
            max_entry_payloads: MAX_ENTRY_PAYLOADS,
        }
    }
}

/// An atomic broadcast channel endpoint at one party.
#[derive(Debug)]
pub struct AtomicChannel {
    pid: ProtocolId,
    ctx: GroupContext,
    batch_size: usize,
    order: CandidateOrder,
    max_entry_payloads: usize,
    /// Byte budget of a multi-payload entry's list ([`entry_byte_budget`]).
    entry_bytes: usize,
    round: u64,
    /// Own payloads not yet delivered.
    queue: VecDeque<Payload>,
    next_seq: u64,
    /// Delivered payload identities (the integrity filter).
    delivered: BTreeSet<(PartyId, u64)>,
    /// Application deliveries not yet drained by the runtime.
    deliveries: VecDeque<Payload>,
    /// Valid entries by round, in arrival order (the paper: "the protocol
    /// considers the messages in the order in which they arrive in the
    /// current round"), at most one per signer.
    entries: BTreeMap<u64, Vec<Entry>>,
    /// Whether we broadcast our own entry for a round.
    sent_entry: BTreeSet<u64>,
    /// Whether we proposed a batch for a round.
    proposed: BTreeSet<u64>,
    vbas: BTreeMap<u64, MultiValuedAgreement>,
    close_requested: bool,
    /// Origins whose termination requests have been delivered.
    close_origins: BTreeSet<PartyId>,
    closed: bool,
    closed_taken: bool,
}

/// Wire container for a batch of entries.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Batch(Vec<Entry>);

impl Wire for Batch {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.0.len() as u32).to_be_bytes());
        for e in &self.0 {
            e.encode(buf);
        }
    }
    fn decode(r: &mut crate::wire::Reader<'_>) -> Result<Self, crate::wire::WireError> {
        let len = r.u32()? as usize;
        if len > 4096 {
            return Err(crate::wire::WireError::LengthOverflow);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(Entry::decode(r)?);
        }
        Ok(Batch(out))
    }
}

impl AtomicChannel {
    /// Opens a channel endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the fairness parameter is outside `t + 1 ..= n - t`, or
    /// `max_entry_payloads` outside `1 ..= MAX_ENTRY_PAYLOADS`.
    pub fn new(pid: ProtocolId, ctx: GroupContext, config: AtomicChannelConfig) -> Self {
        let f = config.fairness.unwrap_or(ctx.n_minus_t());
        assert!(
            f >= ctx.one_honest() && f <= ctx.n_minus_t(),
            "fairness must satisfy t+1 <= f <= n-t"
        );
        assert!(
            (1..=MAX_ENTRY_PAYLOADS).contains(&config.max_entry_payloads),
            "max_entry_payloads must satisfy 1 <= cap <= MAX_ENTRY_PAYLOADS"
        );
        let batch_size = ctx.fairness_batch(f);
        AtomicChannel {
            pid,
            ctx,
            batch_size,
            order: config.order,
            max_entry_payloads: config.max_entry_payloads,
            entry_bytes: entry_byte_budget(batch_size),
            round: 0,
            queue: VecDeque::new(),
            next_seq: 0,
            delivered: BTreeSet::new(),
            deliveries: VecDeque::new(),
            entries: BTreeMap::new(),
            sent_entry: BTreeSet::new(),
            proposed: BTreeSet::new(),
            vbas: BTreeMap::new(),
            close_requested: false,
            close_origins: BTreeSet::new(),
            closed: false,
            closed_taken: false,
        }
    }

    /// The channel identifier.
    pub fn pid(&self) -> &ProtocolId {
        &self.pid
    }

    /// The configured batch size `n - f + 1`.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The current protocol round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Whether the channel accepts further `send` calls.
    pub fn can_send(&self) -> bool {
        !self.close_requested && !self.closed
    }

    /// Queues a payload for total-order delivery.
    ///
    /// # Panics
    ///
    /// Panics after `close` has been called.
    pub fn send(&mut self, data: Vec<u8>, out: &mut Outgoing) {
        assert!(self.can_send(), "channel is closing or closed");
        self.enqueue(PayloadKind::App, data);
        self.try_advance(out);
    }

    /// Requests channel termination: a termination request is sent as this
    /// party's last payload.
    pub fn close(&mut self, out: &mut Outgoing) {
        if self.close_requested || self.closed {
            return;
        }
        self.close_requested = true;
        self.enqueue(PayloadKind::Close, Vec::new());
        self.try_advance(out);
    }

    /// Appends an own payload to the queue under the next sequence number.
    fn enqueue(&mut self, kind: PayloadKind, data: Vec<u8>) {
        self.queue.push_back(Payload {
            origin: self.ctx.me(),
            seq: self.next_seq,
            kind,
            data,
        });
        self.next_seq += 1;
    }

    /// Whether a delivery is waiting to be received.
    pub fn can_receive(&self) -> bool {
        !self.deliveries.is_empty()
    }

    /// Takes the next delivered payload, in total order.
    pub fn take_delivery(&mut self) -> Option<Payload> {
        self.deliveries.pop_front()
    }

    /// Whether the channel has terminated.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Returns `true` exactly once, when the channel has terminated (used
    /// by runtimes to emit a single closed event).
    pub fn take_closed(&mut self) -> bool {
        if self.closed && !self.closed_taken {
            self.closed_taken = true;
            true
        } else {
            false
        }
    }

    /// Number of own payloads still waiting for delivery.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// External validity of a round's batch: `batch_size` well-formed
    /// entries (payload count and byte budget) from distinct signers, each
    /// signature covering exactly its payload list. Stateless, so every honest party judges a batch
    /// alike; payloads delivered in earlier rounds are dropped at delivery.
    fn batch_validator(&self, round: u64) -> ArrayValidator {
        let pid = self.pid.clone();
        let ctx = self.ctx.clone();
        let batch_size = self.batch_size;
        let cap = self.max_entry_payloads;
        let entry_bytes = self.entry_bytes;
        ArrayValidator::new(move |bytes| {
            let Ok(batch) = Batch::from_bytes(bytes) else {
                return false;
            };
            if batch.0.len() != batch_size {
                return false;
            }
            let mut signers = BTreeSet::new();
            batch.0.iter().all(|entry| {
                ctx.is_valid_party(entry.signer)
                    && signers.insert(entry.signer)
                    && entry.is_well_formed(cap, entry_bytes)
                    && ctx.verify_party_sig_cached(
                        entry.signer,
                        &statement_entry(&pid, round, &entry.payloads),
                        &entry.sig,
                    )
            })
        })
    }

    fn vba_instance(&mut self, round: u64) -> &mut MultiValuedAgreement {
        if !self.vbas.contains_key(&round) {
            let vba = MultiValuedAgreement::new(
                self.pid.child(format!("vba/{round}")),
                self.ctx.clone(),
                self.batch_validator(round),
                self.order,
            );
            self.vbas.insert(round, vba);
        }
        invariant_unwrap!(
            self.vbas.get_mut(&round),
            "vba for round {round} missing after insert"
        )
    }

    /// Processes a protocol message addressed to this channel or one of
    /// its agreement children.
    pub fn handle(&mut self, from: PartyId, msg_pid: &ProtocolId, body: &Body, out: &mut Outgoing) {
        if self.closed || !self.ctx.is_valid_party(from) {
            return;
        }
        if *msg_pid == self.pid {
            if let Body::AcEntry { round, entry } = body {
                self.on_entry(from, *round, entry);
            }
        } else if let Some(round) = Self::parse_vba_child(&self.pid, msg_pid) {
            // Ignore stale rounds entirely.
            if round >= self.round {
                let vba = self.vba_instance(round);
                vba.handle(from, msg_pid, body, out);
            }
        }
        self.try_advance(out);
    }

    fn parse_vba_child(parent: &ProtocolId, msg_pid: &ProtocolId) -> Option<u64> {
        let rest = msg_pid.as_str().strip_prefix(parent.as_str())?;
        let rest = rest.strip_prefix("/vba/")?;
        match rest.find('/') {
            Some(idx) => rest[..idx].parse().ok(),
            None => rest.parse().ok(),
        }
    }

    fn on_entry(&mut self, from: PartyId, round: u64, entry: &Entry) {
        // Entries are broadcast by their signer.
        if entry.signer != from
            || round < self.round
            || !entry.is_well_formed(self.max_entry_payloads, self.entry_bytes)
        {
            return;
        }
        if self
            .entries
            .get(&round)
            .is_some_and(|es| es.iter().any(|e| e.signer == from))
        {
            return;
        }
        if entry
            .payloads
            .iter()
            .any(|p| self.delivered.contains(&(p.origin, p.seq)))
        {
            return;
        }
        let statement = statement_entry(&self.pid, round, &entry.payloads);
        if !self
            .ctx
            .verify_party_sig_cached(from, &statement, &entry.sig)
        {
            return;
        }
        // The round slot is only created once the signature checked out,
        // so forged entries cannot grow the per-round map.
        self.entries.entry(round).or_default().push(entry.clone());
    }

    /// Drives the round state machine.
    fn try_advance(&mut self, out: &mut Outgoing) {
        loop {
            if self.closed {
                return;
            }
            let round = self.round;

            // Step 1: broadcast our signed entry for this round.
            if !self.sent_entry.contains(&round) {
                let delivered = &self.delivered;
                self.queue
                    .retain(|p| !delivered.contains(&(p.origin, p.seq)));
                let payloads = if self.queue.is_empty() {
                    // Adopt ("a party may also adopt a message that was
                    // first signed by another party and sign that"): relay
                    // the whole list of the first-arrived entry none of
                    // whose payloads is delivered. This keeps every honest
                    // party contributing an entry each round, which the
                    // proposal gate below relies on.
                    self.entries.get(&round).and_then(|entries| {
                        entries
                            .iter()
                            .find(|e| {
                                e.payloads
                                    .iter()
                                    .all(|p| !delivered.contains(&(p.origin, p.seq)))
                            })
                            .map(|e| e.payloads.clone())
                    })
                } else {
                    // The front payload always goes in; later ones join
                    // while the list stays within the byte budget.
                    let mut list_len = 4;
                    let mut payloads = Vec::new();
                    for p in self.queue.iter().take(self.max_entry_payloads) {
                        list_len += p.encoded_len();
                        if !payloads.is_empty() && list_len > self.entry_bytes {
                            break;
                        }
                        payloads.push(p.clone());
                    }
                    Some(payloads)
                };
                if let Some(payloads) = payloads {
                    let statement = statement_entry(&self.pid, round, &payloads);
                    let sig = self.ctx.keys().sig_key.sign(&statement);
                    let entry = Entry {
                        payloads,
                        signer: self.ctx.me(),
                        sig,
                    };
                    self.sent_entry.insert(round);
                    self.entries.entry(round).or_default().push(entry.clone());
                    out.send_all(&self.pid, Body::AcEntry { round, entry });
                }
            }

            // Step 2: propose a batch. We wait for n - t entries rather
            // than the bare batch size: every honest party contributes an
            // entry each active round (sending its own payload or
            // adopting one), so this cannot deadlock, and the extra
            // entries let the dedup pass below build batches of *distinct*
            // payloads instead of an adopter's duplicate crowding out a
            // real payload.
            let have = self.entries.get(&round).map_or(0, Vec::len);
            if have >= self.ctx.n_minus_t().max(self.batch_size) && !self.proposed.contains(&round)
            {
                self.proposed.insert(round);
                // Prefer entries that add payloads not yet covered (in
                // arrival order) so a batch delivers as many new payloads
                // as possible; pad with duplicates only if needed.
                let all = invariant_unwrap!(
                    self.entries.get(&round),
                    "entry set for round {round} missing at proposal"
                );
                let mut batch_entries: Vec<Entry> = Vec::with_capacity(self.batch_size);
                let mut seen_payloads = BTreeSet::new();
                for entry in all {
                    if batch_entries.len() == self.batch_size {
                        break;
                    }
                    let mut adds_new = false;
                    for p in &entry.payloads {
                        adds_new |= seen_payloads.insert((p.origin, p.seq));
                    }
                    if adds_new {
                        batch_entries.push(entry.clone());
                    }
                }
                for entry in all {
                    if batch_entries.len() == self.batch_size {
                        break;
                    }
                    if !batch_entries.iter().any(|e| e.signer == entry.signer) {
                        batch_entries.push(entry.clone());
                    }
                }
                let batch = Batch(batch_entries);
                let bytes = batch.to_bytes();
                let vba = self.vba_instance(round);
                vba.propose(bytes, out);
            }

            // Step 3: deliver the agreed batch.
            let Some(vba) = self.vbas.get_mut(&round) else {
                return;
            };
            let Some(decided) = vba.take_decision() else {
                return;
            };
            let batch = Batch::from_bytes(&decided)
                .or_invariant("externally validated batch failed to decode");
            let mut batch_entries = batch.0;
            // Fixed delivery order within the batch: by signer index, then
            // list order.
            batch_entries.sort_by_key(|e| e.signer);
            let mut fresh = 0u64;
            for payload in batch_entries.into_iter().flat_map(|e| e.payloads) {
                if !self.delivered.insert((payload.origin, payload.seq)) {
                    continue;
                }
                fresh += 1;
                match payload.kind {
                    PayloadKind::App => self.deliveries.push_back(payload),
                    PayloadKind::Close => {
                        self.close_origins.insert(payload.origin);
                    }
                }
            }
            // One `batch` event per round, carrying the payloads it newly
            // delivered.
            out.trace_with(|| {
                TraceEvent::new(self.ctx.me().0, self.pid.as_str(), "atomic")
                    .phase("batch")
                    .round(round)
                    .bytes(fresh)
            });
            // Clean up the finished round.
            self.vbas.remove(&round);
            self.entries.remove(&round);

            if self.close_origins.len() > self.ctx.fault_budget() {
                self.closed = true;
                return;
            }
            self.round += 1;
            out.trace_with(|| {
                TraceEvent::new(self.ctx.me().0, self.pid.as_str(), "atomic")
                    .phase("round")
                    .round(self.round)
            });
        }
    }
}

impl StateSnapshot for AtomicChannel {
    fn has_pending_work(&self) -> bool {
        if self.closed {
            return false;
        }
        !self.queue.is_empty()
            || self.close_requested
            || !self.entries.is_empty()
            || !self.vbas.is_empty()
    }

    fn snapshot_json(&self) -> String {
        let current_entries = self.entries.get(&self.round).map_or(0, Vec::len);
        let mut w = SnapshotWriter::new(self.pid.as_str(), "atomic")
            .num("round", self.round)
            .num("queue_depth", self.queue.len() as u64)
            .num("undrained_deliveries", self.deliveries.len() as u64)
            .num("entries", current_entries as u64)
            .num(
                "entry_quorum",
                self.ctx.n_minus_t().max(self.batch_size) as u64,
            )
            .num("batch_size", self.batch_size as u64)
            .flag("entry_sent", self.sent_entry.contains(&self.round))
            .flag("batch_proposed", self.proposed.contains(&self.round))
            .flag("close_requested", self.close_requested)
            .num("close_origins", self.close_origins.len() as u64)
            .flag("closed", self.closed);
        if let Some(vba) = self.vbas.get(&self.round) {
            w = w.raw("vba", &vba.snapshot_json());
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outgoing::Recipient;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sintra_crypto::dealer::{deal, DealerConfig};
    use std::sync::Arc;

    fn group(n: usize, t: usize) -> Vec<GroupContext> {
        let mut rng = StdRng::seed_from_u64(37);
        deal(&DealerConfig::small(n, t), &mut rng)
            .unwrap()
            .into_iter()
            .map(|k| GroupContext::new(Arc::new(k)))
            .collect()
    }

    fn channels(ctxs: &[GroupContext], tag: &str) -> Vec<AtomicChannel> {
        channels_with(ctxs, tag, AtomicChannelConfig::default())
    }

    fn channels_with(
        ctxs: &[GroupContext],
        tag: &str,
        config: AtomicChannelConfig,
    ) -> Vec<AtomicChannel> {
        ctxs.iter()
            .map(|c| AtomicChannel::new(ProtocolId::new(tag), c.clone(), config))
            .collect()
    }

    fn app(origin: usize, seq: u64) -> Payload {
        Payload {
            origin: PartyId(origin),
            seq,
            kind: PayloadKind::App,
            data: vec![seq as u8],
        }
    }

    /// An entry over `payloads` for `round`, signed by `ctx`'s party.
    fn signed(ctx: &GroupContext, pid: &ProtocolId, round: u64, payloads: Vec<Payload>) -> Entry {
        let sig = ctx
            .keys()
            .sig_key
            .sign(&statement_entry(pid, round, &payloads));
        Entry {
            payloads,
            signer: ctx.me(),
            sig,
        }
    }

    /// Delivers all queued messages FIFO until quiescence.
    fn pump(channels: &mut [AtomicChannel], outs: Vec<(usize, Outgoing)>) {
        let n = channels.len();
        let mut queue: std::collections::VecDeque<(PartyId, usize, ProtocolId, Body)> =
            std::collections::VecDeque::new();
        let push = |queue: &mut std::collections::VecDeque<_>, from: usize, mut out: Outgoing| {
            for (recipient, env) in out.drain() {
                match recipient {
                    Recipient::All => {
                        for to in 0..n {
                            queue.push_back((PartyId(from), to, env.pid.clone(), env.body.clone()));
                        }
                    }
                    Recipient::One(p) => {
                        queue.push_back((PartyId(from), p.0, env.pid, env.body));
                    }
                }
            }
        };
        for (from, out) in outs {
            push(&mut queue, from, out);
        }
        let mut steps = 0usize;
        while let Some((from, to, pid, body)) = queue.pop_front() {
            steps += 1;
            assert!(steps < 5_000_000, "atomic channel did not quiesce");
            let mut out = Outgoing::new();
            channels[to].handle(from, &pid, &body, &mut out);
            push(&mut queue, to, out);
        }
    }

    #[test]
    fn single_sender_total_order() {
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "ac-single");
        let mut outs = Vec::new();
        let mut out = Outgoing::new();
        for i in 0..5u8 {
            chans[0].send(vec![i], &mut out);
        }
        outs.push((0usize, out));
        pump(&mut chans, outs);
        // All parties deliver the same sequence, in send order.
        for (p, chan) in chans.iter_mut().enumerate() {
            let mut got = Vec::new();
            while let Some(payload) = chan.take_delivery() {
                assert_eq!(payload.origin, PartyId(0));
                got.push(payload.data[0]);
            }
            assert_eq!(got, vec![0, 1, 2, 3, 4], "party {p}");
        }
    }

    #[test]
    fn queued_payloads_share_one_entry() {
        // Five payloads queued before the channel first advances: the
        // default cap signs them into one entry and delivers them in one
        // round; cap 1 (the paper prototype) needs a round each.
        for (cap, rounds) in [(MAX_ENTRY_PAYLOADS, 1), (1, 5)] {
            let ctxs = group(4, 1);
            let config = AtomicChannelConfig {
                max_entry_payloads: cap,
                ..AtomicChannelConfig::default()
            };
            let mut chans = channels_with(&ctxs, "ac-queued", config);
            for i in 0..5u8 {
                chans[0].enqueue(PayloadKind::App, vec![i]);
            }
            let mut out = Outgoing::new();
            chans[0].try_advance(&mut out);
            pump(&mut chans, vec![(0, out)]);
            for (p, chan) in chans.iter_mut().enumerate() {
                let mut got = Vec::new();
                while let Some(payload) = chan.take_delivery() {
                    got.push(payload.data[0]);
                }
                assert_eq!(got, vec![0, 1, 2, 3, 4], "cap {cap}, party {p}");
                assert_eq!(chan.round(), rounds, "cap {cap}, party {p}");
            }
        }
    }

    #[test]
    fn tampered_entry_list_rejected() {
        let ctxs = group(4, 1);
        let pid = ProtocolId::new("ac-tamper");
        let mut chan = AtomicChannel::new(pid.clone(), ctxs[0].clone(), Default::default());
        let valid = signed(&ctxs[1], &pid, 0, vec![app(1, 0), app(1, 1), app(1, 2)]);
        let other = signed(&ctxs[2], &pid, 0, vec![app(2, 0)]);
        let validator = chan.batch_validator(0);
        let batch = |e: &Entry| Batch(vec![e.clone(), other.clone()]).to_bytes();
        assert!(validator.is_valid(&batch(&valid)));

        let mut dropped = valid.clone();
        dropped.payloads.remove(1);
        let mut reordered = valid.clone();
        reordered.payloads.swap(0, 1);
        for tampered in [dropped, reordered] {
            assert!(!validator.is_valid(&batch(&tampered)));
            chan.handle(
                PartyId(1),
                &pid,
                &Body::AcEntry {
                    round: 0,
                    entry: tampered,
                },
                &mut Outgoing::new(),
            );
            assert!(chan.entries.get(&0).is_none_or(|es| es.is_empty()));
        }
    }

    #[test]
    fn entry_repeating_a_payload_rejected() {
        let ctxs = group(4, 1);
        let pid = ProtocolId::new("ac-repeat");
        let mut chan = AtomicChannel::new(pid.clone(), ctxs[0].clone(), Default::default());
        let mut twin = app(1, 0);
        twin.data = b"twin".to_vec();
        let repeated = signed(&ctxs[1], &pid, 0, vec![app(1, 0), twin]);
        let other = signed(&ctxs[2], &pid, 0, vec![app(2, 0)]);
        assert!(!chan
            .batch_validator(0)
            .is_valid(&Batch(vec![repeated.clone(), other]).to_bytes()));
        chan.handle(
            PartyId(1),
            &pid,
            &Body::AcEntry {
                round: 0,
                entry: repeated,
            },
            &mut Outgoing::new(),
        );
        assert!(chan.entries.get(&0).is_none_or(|es| es.is_empty()));
    }

    #[test]
    fn entry_over_configured_cap_rejected() {
        let ctxs = group(4, 1);
        let pid = ProtocolId::new("ac-cap");
        let config = AtomicChannelConfig {
            max_entry_payloads: 2,
            ..AtomicChannelConfig::default()
        };
        let mut chan = AtomicChannel::new(pid.clone(), ctxs[0].clone(), config);
        let long = signed(&ctxs[1], &pid, 0, vec![app(1, 0), app(1, 1), app(1, 2)]);
        let other = signed(&ctxs[2], &pid, 0, vec![app(2, 0)]);
        assert!(!chan
            .batch_validator(0)
            .is_valid(&Batch(vec![long.clone(), other]).to_bytes()));
        chan.handle(
            PartyId(1),
            &pid,
            &Body::AcEntry {
                round: 0,
                entry: long,
            },
            &mut Outgoing::new(),
        );
        assert!(chan.entries.get(&0).is_none_or(|es| es.is_empty()));
    }

    #[test]
    fn entries_respect_the_byte_budget() {
        let ctxs = group(4, 1);
        let sized = |seq: u64, len: usize| Payload {
            data: vec![seq as u8; len],
            ..app(0, seq)
        };
        let own_entry = |payloads: Vec<Payload>| {
            let mut chan = AtomicChannel::new(
                ProtocolId::new("ac-bytes"),
                ctxs[0].clone(),
                Default::default(),
            );
            chan.queue.extend(payloads);
            chan.try_advance(&mut Outgoing::new());
            chan.entries[&0][0].payloads.len()
        };
        let budget = entry_byte_budget(2);
        // A quarter-budget payload fits three times, not four; the front
        // payload goes in even when it alone is over the budget.
        assert_eq!(own_entry((0..5).map(|s| sized(s, budget / 4)).collect()), 3);
        assert_eq!(own_entry(vec![sized(0, budget), sized(1, 1)]), 1);

        // A validly signed pair over the budget is ignored and fails the
        // batch validator.
        let pid = ProtocolId::new("ac-bytes");
        let mut chan = AtomicChannel::new(pid.clone(), ctxs[0].clone(), Default::default());
        let half = |seq| Payload {
            data: vec![0; budget / 2],
            ..app(1, seq)
        };
        let over = signed(&ctxs[1], &pid, 0, vec![half(0), half(1)]);
        let other = signed(&ctxs[2], &pid, 0, vec![app(2, 0)]);
        assert!(!chan
            .batch_validator(0)
            .is_valid(&Batch(vec![over.clone(), other]).to_bytes()));
        chan.handle(
            PartyId(1),
            &pid,
            &Body::AcEntry {
                round: 0,
                entry: over,
            },
            &mut Outgoing::new(),
        );
        assert!(chan.entries.get(&0).is_none_or(|es| es.is_empty()));
    }

    #[test]
    fn concurrent_senders_agree_on_order() {
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "ac-multi");
        let mut outs = Vec::new();
        for (i, chan) in chans.iter_mut().enumerate() {
            let mut out = Outgoing::new();
            for k in 0..3u8 {
                chan.send(format!("m{i}-{k}").into_bytes(), &mut out);
            }
            outs.push((i, out));
        }
        pump(&mut chans, outs);
        let sequences: Vec<Vec<Vec<u8>>> = chans
            .iter_mut()
            .map(|c| {
                let mut v = Vec::new();
                while let Some(p) = c.take_delivery() {
                    v.push(p.data);
                }
                v
            })
            .collect();
        assert_eq!(sequences[0].len(), 12, "all 12 payloads delivered");
        for (p, seq) in sequences.iter().enumerate().skip(1) {
            assert_eq!(seq, &sequences[0], "party {p} order differs");
        }
    }

    #[test]
    fn duplicate_sends_deliver_once_per_send() {
        // The paper's weakened integrity: the same bit string sent twice by
        // the same party is delivered twice (distinct sequence numbers),
        // but each (origin, seq) exactly once.
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "ac-dup");
        let mut out = Outgoing::new();
        chans[1].send(b"dup".to_vec(), &mut out);
        chans[1].send(b"dup".to_vec(), &mut out);
        pump(&mut chans, vec![(1, out)]);
        let mut count = 0;
        while let Some(p) = chans[2].take_delivery() {
            assert_eq!(p.data, b"dup");
            count += 1;
        }
        assert_eq!(count, 2);
    }

    #[test]
    fn close_terminates_all_parties() {
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "ac-close");
        let mut outs = Vec::new();
        let mut out0 = Outgoing::new();
        chans[0].send(b"final".to_vec(), &mut out0);
        chans[0].close(&mut out0);
        outs.push((0usize, out0));
        for (i, chan) in chans.iter_mut().enumerate().skip(1) {
            let mut out = Outgoing::new();
            chan.close(&mut out);
            outs.push((i, out));
        }
        pump(&mut chans, outs);
        for (i, chan) in chans.iter_mut().enumerate() {
            assert!(chan.is_closed(), "party {i} closed");
            assert!(chan.take_closed(), "closed event emitted once");
            assert!(!chan.take_closed());
        }
        // The pre-close payload was delivered.
        assert_eq!(chans[3].take_delivery().unwrap().data, b"final");
    }

    #[test]
    fn one_close_does_not_terminate() {
        // t+1 = 2 requests are needed; a single closer leaves the channel
        // open for everyone else.
        let ctxs = group(4, 1);
        let mut chans = channels(&ctxs, "ac-halfclose");
        let mut out = Outgoing::new();
        chans[0].close(&mut out);
        // Other parties keep sending so rounds continue.
        let mut out1 = Outgoing::new();
        chans[1].send(b"x".to_vec(), &mut out1);
        pump(&mut chans, vec![(0, out), (1, out1)]);
        for chan in &chans {
            assert!(!chan.is_closed());
        }
        assert!(!chans[0].can_send(), "closer cannot send anymore");
        assert!(chans[1].can_send());
    }

    #[test]
    fn forged_entry_rejected() {
        let ctxs = group(4, 1);
        let mut chan = AtomicChannel::new(
            ProtocolId::new("ac-forge"),
            ctxs[0].clone(),
            AtomicChannelConfig::default(),
        );
        let payload = Payload {
            origin: PartyId(2),
            seq: 0,
            kind: PayloadKind::App,
            data: b"evil".to_vec(),
        };
        // Signature by the wrong party.
        let payloads = vec![payload];
        let statement = statement_entry(&ProtocolId::new("ac-forge"), 0, &payloads);
        let sig = ctxs[3].keys().sig_key.sign(&statement);
        let entry = Entry {
            payloads,
            signer: PartyId(2),
            sig,
        };
        chan.handle(
            PartyId(2),
            &ProtocolId::new("ac-forge"),
            &Body::AcEntry { round: 0, entry },
            &mut Outgoing::new(),
        );
        assert!(chan.entries.get(&0).is_none_or(|m| m.is_empty()));
    }

    #[test]
    #[should_panic(expected = "closing or closed")]
    fn send_after_close_panics() {
        let ctxs = group(4, 1);
        let mut chan = AtomicChannel::new(
            ProtocolId::new("ac-sac"),
            ctxs[0].clone(),
            AtomicChannelConfig::default(),
        );
        let mut out = Outgoing::new();
        chan.close(&mut out);
        chan.send(b"too late".to_vec(), &mut out);
    }

    #[test]
    fn batch_size_respects_fairness() {
        let ctxs = group(7, 2);
        let chan = AtomicChannel::new(
            ProtocolId::new("ac-f"),
            ctxs[0].clone(),
            AtomicChannelConfig {
                fairness: Some(3), // t+1
                order: CandidateOrder::Fixed,
                ..AtomicChannelConfig::default()
            },
        );
        assert_eq!(chan.batch_size(), 7 - 3 + 1);
        let default = AtomicChannel::new(
            ProtocolId::new("ac-fd"),
            ctxs[0].clone(),
            AtomicChannelConfig::default(),
        );
        assert_eq!(default.batch_size(), 2 + 1, "paper setup: batch = t+1");
    }
}

//! Delivery accounting: which requests failed, and why.
//!
//! A request fails when it is missing at some party after the drain
//! deadline, delivered twice at one party, delivered with altered bytes,
//! or (total-order channels) delivered at different positions by
//! different parties. Run-level checks, such as message conservation on
//! the threaded runtime, add one failure each. Failures are counted and
//! reported, never dropped from the run.
//!
//! The ledger checks each delivery as it arrives and keeps state only
//! for requests still in flight plus one bit per finished request, so
//! its memory does not grow into the `peak_rss_mb` it sits beside.

use std::collections::{BTreeSet, HashMap};

use crate::workload::{client_of, payload, payload_id};

/// Failure details kept for the report; the counts stay exact beyond it.
const REPORTED_FAILURES: usize = 20;

/// A request not yet delivered everywhere.
#[derive(Debug)]
struct InFlight {
    /// The party it was submitted to.
    origin: usize,
    /// Bit `p` set while party `p` has not delivered it.
    due: u8,
    /// Total-order position of its first delivery.
    position: Option<usize>,
}

/// The outcome of [`Ledger::audit`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Audit {
    /// Requests submitted (warm-up payloads excluded).
    pub attempted: u64,
    /// Failed requests, plus spurious deliveries and failed run checks.
    pub failed: u64,
    /// Requests missing at one or more parties.
    pub missing: u64,
    /// Requests delivered more than once at some party.
    pub duplicated: u64,
    /// Requests delivered with bytes other than those submitted.
    pub altered: u64,
    /// Requests at different total-order positions across parties.
    pub misordered: u64,
    /// Deliveries of payloads nobody submitted.
    pub spurious: u64,
    /// The first failures, described.
    pub details: Vec<String>,
}

impl Audit {
    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    fn note(&mut self, detail: String) {
        if self.details.len() < REPORTED_FAILURES {
            self.details.push(detail);
        }
    }
}

/// The deliveries of one run, checked as they arrive.
#[derive(Debug)]
pub struct Ledger {
    seed: u64,
    payload_len: usize,
    total_order: bool,
    in_flight: HashMap<u64, InFlight>,
    /// Requests delivered everywhere: per client, a bit per sequence
    /// number.
    finished: HashMap<u32, Vec<u64>>,
    /// Deliveries so far at each party (the next total-order position).
    positions: Vec<usize>,
    /// Ids that failed a per-request check.
    failed: BTreeSet<u64>,
    audit: Audit,
}

impl Ledger {
    /// An empty ledger for `parties` parties (at most 8).
    pub fn new(parties: usize, total_order: bool, seed: u64, payload_len: usize) -> Self {
        assert!(parties <= 8, "the due mask holds 8 parties");
        Ledger {
            seed,
            payload_len,
            total_order,
            in_flight: HashMap::new(),
            finished: HashMap::new(),
            positions: vec![0; parties],
            failed: BTreeSet::new(),
            audit: Audit::default(),
        }
    }

    /// Records a submission; `counted` is false for warm-up payloads.
    pub fn submit(&mut self, id: u64, origin: usize, counted: bool) {
        let due = ((1u16 << self.positions.len()) - 1) as u8;
        self.in_flight.insert(
            id,
            InFlight {
                origin,
                due,
                position: None,
            },
        );
        if counted {
            self.audit.attempted += 1;
        }
    }

    /// Requests not yet delivered at every party.
    pub fn pending(&self) -> usize {
        self.in_flight.len()
    }

    fn is_finished(&self, id: u64) -> bool {
        let seq = id as u32 as usize;
        self.finished
            .get(&client_of(id))
            .and_then(|bits| bits.get(seq / 64))
            .is_some_and(|word| word & (1 << (seq % 64)) != 0)
    }

    fn finish(&mut self, id: u64) {
        let seq = id as u32 as usize;
        let bits = self.finished.entry(client_of(id)).or_default();
        if bits.len() <= seq / 64 {
            bits.resize(seq / 64 + 1, 0);
        }
        bits[seq / 64] |= 1 << (seq % 64);
    }

    fn fail(&mut self, id: u64, detail: String) {
        if self.failed.insert(id) {
            self.audit.note(detail);
        }
    }

    /// Records a delivery at `party`. Returns the id when the bytes are
    /// exactly those submitted and this is the first delivery at the
    /// party the request was submitted to.
    pub fn deliver(&mut self, party: usize, data: &[u8]) -> Option<u64> {
        let position = self.positions[party];
        self.positions[party] += 1;
        let Some(id) = payload_id(data) else {
            self.audit.spurious += 1;
            self.audit.note(format!(
                "party {party} position {position}: no request header"
            ));
            return None;
        };
        if data != payload(self.seed, id, self.payload_len).as_slice()
            && (self.in_flight.contains_key(&id) || self.is_finished(id))
        {
            self.audit.altered += 1;
            self.fail(
                id,
                format!("request {id:#x}: altered bytes at party {party}"),
            );
            return None;
        }
        let bit = 1u8 << party;
        let Some(req) = self.in_flight.get_mut(&id) else {
            if self.is_finished(id) {
                self.audit.duplicated += 1;
                self.fail(
                    id,
                    format!("request {id:#x}: delivered twice at party {party}"),
                );
            } else {
                self.audit.spurious += 1;
                self.audit.note(format!(
                    "party {party} position {position}: payload nobody submitted"
                ));
            }
            return None;
        };
        if req.due & bit == 0 {
            self.audit.duplicated += 1;
            self.fail(
                id,
                format!("request {id:#x}: delivered twice at party {party}"),
            );
            return None;
        }
        req.due &= !bit;
        let first = *req.position.get_or_insert(position);
        let own = req.origin == party;
        let done = req.due == 0;
        if self.total_order && first != position {
            self.audit.misordered += 1;
            self.fail(
                id,
                format!("request {id:#x}: position {position} at party {party}, {first} elsewhere"),
            );
        }
        if done {
            self.in_flight.remove(&id);
            self.finish(id);
        }
        own.then_some(id)
    }

    /// Records a failed run-level check.
    pub fn fail_run(&mut self, detail: String) {
        self.audit.failed += 1;
        self.audit.note(detail);
    }

    /// The audit so far: requests still in flight count as missing.
    pub fn audit(&self) -> Audit {
        let mut audit = self.audit.clone();
        let mut failed = self.failed.clone();
        let mut missing: Vec<(&u64, &InFlight)> = self.in_flight.iter().collect();
        missing.sort_by_key(|(id, _)| **id);
        for (&id, req) in missing {
            audit.missing += 1;
            if failed.insert(id) {
                audit.note(format!(
                    "request {id:#x}: not delivered at parties with mask {:#x}",
                    req.due
                ));
            }
        }
        audit.failed += failed.len() as u64 + audit.spurious;
        audit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::request_id;

    const SEED: u64 = 5;
    const LEN: usize = 64;

    /// Three requests delivered identically at three parties.
    fn clean(total_order: bool) -> Ledger {
        let mut ledger = Ledger::new(3, total_order, SEED, LEN);
        let ids: Vec<u64> = (0..3).map(|s| request_id(1, s)).collect();
        for (i, &id) in ids.iter().enumerate() {
            ledger.submit(id, i, true);
        }
        for party in 0..3 {
            for (i, &id) in ids.iter().enumerate() {
                let own = (i == party).then_some(id);
                assert_eq!(ledger.deliver(party, &payload(SEED, id, LEN)), own);
            }
        }
        assert_eq!(ledger.pending(), 0);
        ledger
    }

    #[test]
    fn clean_log_has_no_failures() {
        let audit = clean(true).audit();
        assert_eq!((audit.attempted, audit.failed), (3, 0));
        assert_eq!(audit.error_rate(), 0.0);
    }

    #[test]
    fn catches_missing_delivery() {
        let mut ledger = clean(true);
        ledger.submit(request_id(2, 0), 0, true);
        ledger.deliver(0, &payload(SEED, request_id(2, 0), LEN));
        let audit = ledger.audit();
        assert_eq!((audit.attempted, audit.failed, audit.missing), (4, 1, 1));
        assert_eq!(audit.error_rate(), 0.25);
    }

    #[test]
    fn catches_duplicate_delivery() {
        // After the request finished everywhere.
        let mut ledger = clean(false);
        ledger.deliver(2, &payload(SEED, request_id(1, 0), LEN));
        let audit = ledger.audit();
        assert_eq!((audit.failed, audit.duplicated), (1, 1));
        // While it is still in flight elsewhere.
        let mut ledger = Ledger::new(2, false, SEED, LEN);
        let id = request_id(1, 0);
        ledger.submit(id, 0, true);
        assert_eq!(ledger.deliver(0, &payload(SEED, id, LEN)), Some(id));
        assert_eq!(ledger.deliver(0, &payload(SEED, id, LEN)), None);
        ledger.deliver(1, &payload(SEED, id, LEN));
        let audit = ledger.audit();
        assert_eq!((audit.failed, audit.duplicated, audit.missing), (1, 1, 0));
    }

    #[test]
    fn catches_altered_bytes() {
        let mut ledger = Ledger::new(2, false, SEED, LEN);
        let id = request_id(1, 0);
        ledger.submit(id, 0, true);
        let mut bad = payload(SEED, id, LEN);
        bad[LEN - 1] ^= 1;
        assert_eq!(ledger.deliver(0, &payload(SEED, id, LEN)), Some(id));
        assert_eq!(ledger.deliver(1, &bad), None);
        // The intact copy that follows still completes the request.
        assert_eq!(ledger.deliver(1, &payload(SEED, id, LEN)), None);
        assert_eq!(ledger.pending(), 0);
        let audit = ledger.audit();
        assert_eq!((audit.failed, audit.altered), (1, 1));
    }

    #[test]
    fn catches_divergent_order_only_on_total_order_channels() {
        for total_order in [true, false] {
            let mut ledger = Ledger::new(2, total_order, SEED, LEN);
            let (a, b) = (request_id(1, 0), request_id(1, 1));
            ledger.submit(a, 0, true);
            ledger.submit(b, 1, true);
            for (party, order) in [(0, [a, b]), (1, [b, a])] {
                for id in order {
                    ledger.deliver(party, &payload(SEED, id, LEN));
                }
            }
            let audit = ledger.audit();
            let expected = if total_order { 2 } else { 0 };
            assert_eq!((audit.failed, audit.misordered), (expected, expected));
            assert_eq!(ledger.pending(), 0);
        }
    }

    #[test]
    fn spurious_payloads_and_run_checks_count_as_failures() {
        let mut ledger = clean(true);
        ledger.deliver(0, &payload(SEED, request_id(9, 9), LEN));
        ledger.fail_run("conservation: sent 10 != delivered 9 + dropped 0".into());
        let audit = ledger.audit();
        assert_eq!((audit.spurious, audit.failed), (1, 2));
        assert_eq!(audit.details.len(), 2);
        assert_eq!(ledger.deliver(0, &[1, 2]), None);
        assert_eq!(ledger.audit().spurious, 2);
    }

    #[test]
    fn warmup_payloads_are_checked_but_not_counted() {
        let mut ledger = clean(true);
        let warm = request_id(crate::workload::WARMUP_CLIENT, 0);
        ledger.submit(warm, 0, false);
        let audit = ledger.audit();
        assert_eq!((audit.attempted, audit.failed, audit.missing), (3, 1, 1));
    }
}

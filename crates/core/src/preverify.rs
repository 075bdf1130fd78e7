//! Stateless pre-verification of incoming envelopes, and the per-party
//! verified-once memo every signature check in the crate goes through.
//!
//! The expensive cryptographic checks on SINTRA's hot receive path —
//! Shoup signature-share verifies, DLEQ coin-share proofs, assembled
//! threshold signatures and plain RSA signatures — depend only on the
//! envelope itself plus the group's public keys, never on protocol state.
//! A [`PreVerifier`] performs exactly those checks through `&self`, so a
//! runtime can run them on worker threads without touching the [`Node`]
//! (verification needs no protocol state lock).
//!
//! # The verified-once memo
//!
//! The same signature reaches a party many times: an ABBA justification
//! rides on every vote that cites it, a consistent-broadcast closing on
//! every VBA vote, an entry signature on every proposal that batches it.
//! Each party's [`GroupContext`] therefore keeps a bounded memo of checks
//! that passed, and every signature check in the crate goes through it
//! ([`GroupContext::verify_share_cached`] and friends): a passed check
//! inserts a [`PreToken`], an identical later check is a lookup.
//!
//! * **What a token binds.** A token is the SHA-256 of the check kind
//!   (share, assembled signature, party signature, coin share), the key
//!   family (party RSA, `thsig_agreement`, `thsig_broadcast`, coin), the
//!   signer index for party signatures, the length-prefixed statement
//!   bytes and the wire encoding of the verified object. A hit therefore
//!   vouches only for the check that produced it: party 1's entry
//!   signature replayed under `signer = 2` hashes differently and is
//!   verified against party 2's key (and fails), and a `thsig_broadcast`
//!   token never satisfies a `thsig_agreement` check. Handlers recompute
//!   the statement from their own instance pid, so a token for a forged
//!   descendant pid never matches either.
//! * **Per party.** The memo lives only in the party's [`GroupContext`]:
//!   never in key material, a static or a thread-local. Several parties
//!   may share a process and their keys; one party's verdicts are never
//!   another's, and crypto micro-benchmarks keep timing the primitives.
//! * **Bounded.** At most `MEMO_CAP` (256) tokens, evicted oldest first
//!   (FIFO). Eviction only costs a repeated verification, so memory stays
//!   constant however many distinct valid signatures a keyed adversary
//!   sends.
//! * **Failures are never stored.** A failed check leaves no trace, so a
//!   forgery is re-verified (and rejected) every time it is presented and
//!   can neither evict anything nor poison a later verdict.
//! * **Pool receipts are ordinary inserts.** A successful pre-verification
//!   yields the token of the check it ran, built by the same
//!   `SigCheck::token` the inline helpers use; the runtime inserts it
//!   into the node's memo just before dispatching the envelope, and the
//!   handler's own check then hits. Skipping a check is only ever possible
//!   when the handler would have performed that same check on those same
//!   bytes.
//!
//! No message, wire byte or protocol decision depends on the memo; only
//! the number of exponentiations does.
//!
//! # Verdicts
//!
//! Invalid envelopes get a [`PreVerdict::Invalid`] with a blame reason
//! (per-share blame for batched coin verification comes from
//! `CoinScheme::verify_shares`); runtimes count and drop them instead of
//! dispatching. Messages whose checks need protocol state (`CbEcho`
//! needs the sender's payload, `ScShare` the ordered ciphertext, …)
//! return [`PreVerdict::Unchecked`] and are dispatched as today.
//!
//! [`Node`]: crate::node::Node

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sintra_crypto::coin::CoinShare;
use sintra_crypto::dealer::CommonKeys;
use sintra_crypto::hash::Sha256;
use sintra_crypto::rsa::RsaSignature;
use sintra_crypto::thsig::{SigShare, ThresholdSigPublic, ThresholdSignature};

use crate::config::GroupContext;
use crate::ids::PartyId;
use crate::message::{
    coin_name, statement_cb, statement_entry, statement_main_vote, statement_opt_ack,
    statement_pre_vote, Body, Envelope, MAX_ENTRY_BYTES, MAX_ENTRY_PAYLOADS,
};
use crate::wire::Wire;

/// An opaque receipt for one passed check: the hash of what was checked,
/// against which key (see the module docs).
pub type PreToken = [u8; 32];

/// Check kinds, the first byte of every token.
const KIND_SHARE: u8 = 1;
const KIND_THRESHOLD: u8 = 2;
const KIND_PARTY_SIG: u8 = 3;
const KIND_COIN: u8 = 4;

/// Key families, the second byte of every token.
const FAMILY_PARTY: u8 = 0;
const FAMILY_AGREEMENT: u8 = 1;
const FAMILY_BROADCAST: u8 = 2;
const FAMILY_COIN: u8 = 3;

/// Hashes `(kind, family, signer, statement, wire encoding of item)` into
/// a token. The prefix is fixed-width and the statement length-prefixed,
/// so distinct checks cannot collide by re-splitting the same bytes.
fn token(kind: u8, family: u8, signer: u64, statement: &[u8], item: &impl Wire) -> PreToken {
    let mut hasher = Sha256::new();
    hasher.update(&[kind, family]);
    hasher.update(&signer.to_be_bytes());
    hasher.update(&(statement.len() as u64).to_be_bytes());
    hasher.update(statement);
    hasher.update(&item.to_bytes());
    hasher.finalize()
}

/// Token for a verified share of coin `name`.
pub fn coin_token(name: &[u8], share: &CoinShare) -> PreToken {
    token(KIND_COIN, FAMILY_COIN, 0, name, share)
}

/// Which of the group's two threshold-signature keys a check runs
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdKey {
    /// `thsig_agreement` (`n - t` quorum): Byzantine agreement votes,
    /// justifications and decisions.
    Agreement,
    /// `thsig_broadcast` (broadcast quorum): consistent-broadcast echoes,
    /// finals and closing messages.
    Broadcast,
}

impl ThresholdKey {
    /// The public key this family names.
    pub(crate) fn public(self, common: &CommonKeys) -> &ThresholdSigPublic {
        match self {
            ThresholdKey::Agreement => &common.thsig_agreement,
            ThresholdKey::Broadcast => &common.thsig_broadcast,
        }
    }

    fn family(self) -> u8 {
        match self {
            ThresholdKey::Agreement => FAMILY_AGREEMENT,
            ThresholdKey::Broadcast => FAMILY_BROADCAST,
        }
    }
}

/// One signature check: what is verified over which statement, against
/// which key. The single place tokens for signatures are built.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SigCheck<'a> {
    /// A threshold-signature share.
    Share {
        /// The threshold key.
        key: ThresholdKey,
        /// The signed statement.
        statement: &'a [u8],
        /// The share.
        share: &'a SigShare,
    },
    /// An assembled threshold signature.
    Threshold {
        /// The threshold key.
        key: ThresholdKey,
        /// The signed statement.
        statement: &'a [u8],
        /// The signature.
        sig: &'a ThresholdSignature,
    },
    /// A party's standard RSA signature.
    Party {
        /// Whose key must verify it.
        signer: PartyId,
        /// The signed statement.
        statement: &'a [u8],
        /// The signature.
        sig: &'a RsaSignature,
    },
}

impl SigCheck<'_> {
    /// The memo token certifying this exact check.
    pub(crate) fn token(&self) -> PreToken {
        match *self {
            SigCheck::Share {
                key,
                statement,
                share,
            } => token(KIND_SHARE, key.family(), 0, statement, share),
            SigCheck::Threshold {
                key,
                statement,
                sig,
            } => token(KIND_THRESHOLD, key.family(), 0, statement, sig),
            SigCheck::Party {
                signer,
                statement,
                sig,
            } => token(
                KIND_PARTY_SIG,
                FAMILY_PARTY,
                signer.0 as u64,
                statement,
                sig,
            ),
        }
    }

    /// Runs the cryptographic check itself, bypassing any memo.
    pub(crate) fn run(&self, common: &CommonKeys) -> bool {
        match *self {
            SigCheck::Share {
                key,
                statement,
                share,
            } => key.public(common).verify_share(statement, share),
            SigCheck::Threshold {
                key,
                statement,
                sig,
            } => key.public(common).verify(statement, sig),
            SigCheck::Party {
                signer,
                statement,
                sig,
            } => common
                .sig_publics
                .get(signer.0)
                .is_some_and(|key| key.verify(statement, sig)),
        }
    }
}

/// Cap on memoized tokens per party. A round's distinct checks (a few
/// dozen at n = 4) stay resident for several rounds, which is all the
/// repeats need; memory stays fixed under Byzantine flooding.
pub(crate) const MEMO_CAP: usize = 256;

/// Bounded FIFO set of passed checks.
#[derive(Debug, Default)]
pub(crate) struct VerifiedMemo {
    set: BTreeSet<PreToken>,
    order: VecDeque<PreToken>,
}

impl VerifiedMemo {
    /// Records a passed check, evicting the oldest token past the cap.
    pub(crate) fn insert(&mut self, token: PreToken) {
        if self.set.insert(token) {
            self.order.push_back(token);
            if self.order.len() > MEMO_CAP {
                if let Some(oldest) = self.order.pop_front() {
                    self.set.remove(&oldest);
                }
            }
        }
    }

    /// Whether the check behind `token` already passed.
    pub(crate) fn contains(&self, token: &PreToken) -> bool {
        self.set.contains(token)
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.set.len()
    }
}

/// Outcome of pre-verifying one envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreVerdict {
    /// Every stateless check passed; `token` certifies it.
    Valid,
    /// A check failed that no honest sender can fail — the envelope is
    /// Byzantine and safe to drop with blame attached.
    Invalid(&'static str),
    /// The envelope carries no check derivable without protocol state;
    /// dispatch it exactly as without the pipeline.
    Unchecked,
}

/// One envelope's pre-verification result: the verdict plus the token to
/// memoize before dispatch (present only for [`PreVerdict::Valid`]).
#[derive(Debug, Clone)]
pub struct PreVerified {
    /// The verdict.
    pub verdict: PreVerdict,
    /// Token of the passed check, if any.
    pub token: Option<PreToken>,
}

impl PreVerified {
    fn valid(token: PreToken) -> Self {
        PreVerified {
            verdict: PreVerdict::Valid,
            token: Some(token),
        }
    }

    fn invalid(reason: &'static str) -> Self {
        PreVerified {
            verdict: PreVerdict::Invalid(reason),
            token: None,
        }
    }

    fn unchecked() -> Self {
        PreVerified {
            verdict: PreVerdict::Unchecked,
            token: None,
        }
    }
}

/// The pure verification stage: group public keys, callable from any
/// thread through `&self`.
#[derive(Debug, Clone)]
pub struct PreVerifier {
    ctx: GroupContext,
}

impl PreVerifier {
    /// Builds a pre-verifier sharing the party's key material.
    pub fn new(ctx: GroupContext) -> Self {
        PreVerifier { ctx }
    }

    /// Pre-verifies a single envelope.
    pub fn pre_verify(&self, from: PartyId, envelope: &Envelope) -> PreVerified {
        let mut out = self.pre_verify_batch(&[(from, envelope)]);
        match out.pop() {
            Some(result) => result,
            None => PreVerified::unchecked(),
        }
    }

    /// Pre-verifies a batch, amortizing fixed costs: coin shares for the
    /// same `(pid, round)` across the batch are checked through the
    /// coin scheme's batched multi-exponentiation (which falls back to
    /// per-share verification to blame the culprit when the batch check
    /// fails).
    pub fn pre_verify_batch(&self, batch: &[(PartyId, &Envelope)]) -> Vec<PreVerified> {
        let mut results: Vec<PreVerified> = Vec::with_capacity(batch.len());
        // Coin shares deferred for grouped verification: coin name →
        // (index into `results`, share).
        let mut coin_groups: BTreeMap<Vec<u8>, Vec<(usize, CoinShare)>> = BTreeMap::new();
        for (slot, (from, envelope)) in batch.iter().enumerate() {
            if !self.ctx.is_valid_party(*from) {
                results.push(PreVerified::invalid("unknown sender"));
                continue;
            }
            results.push(self.pre_verify_one(*from, envelope, slot, &mut coin_groups));
        }
        let common = &self.ctx.keys().common;
        for (name, entries) in coin_groups {
            let shares: Vec<CoinShare> = entries.iter().map(|(_, s)| s.clone()).collect();
            let verdicts = common.coin.verify_shares(&name, &shares);
            for ((slot, share), valid) in entries.into_iter().zip(verdicts) {
                results[slot] = if valid {
                    PreVerified::valid(coin_token(&name, &share))
                } else {
                    PreVerified::invalid("coin share proof")
                };
            }
        }
        results
    }

    /// Runs one signature check. The stage keeps no state: a pass yields
    /// the check's token for the node's memo, and nothing is memoized
    /// here.
    fn check(&self, check: SigCheck<'_>, blame: &'static str) -> PreVerified {
        if check.run(&self.ctx.keys().common) {
            PreVerified::valid(check.token())
        } else {
            PreVerified::invalid(blame)
        }
    }

    /// Dispatches one envelope to its per-kind check. Coin shares are
    /// parked in `coin_groups` (their slot pre-filled as `Unchecked`)
    /// for grouped verification by the caller.
    fn pre_verify_one(
        &self,
        from: PartyId,
        envelope: &Envelope,
        slot: usize,
        coin_groups: &mut BTreeMap<Vec<u8>, Vec<(usize, CoinShare)>>,
    ) -> PreVerified {
        let common = &self.ctx.keys().common;
        let pid = &envelope.pid;
        match &envelope.body {
            Body::BaPreVote {
                round,
                value,
                share,
                ..
            } => {
                if *round == 0 {
                    return PreVerified::invalid("pre-vote round 0");
                }
                if share.index != from.0 {
                    return PreVerified::invalid("pre-vote share index");
                }
                let statement = statement_pre_vote(pid, *round, *value);
                self.check(
                    SigCheck::Share {
                        key: ThresholdKey::Agreement,
                        statement: &statement,
                        share,
                    },
                    "pre-vote share",
                )
            }
            Body::BaMainVote {
                round, vote, share, ..
            } => {
                if *round == 0 {
                    return PreVerified::invalid("main-vote round 0");
                }
                if share.index != from.0 {
                    return PreVerified::invalid("main-vote share index");
                }
                let statement = statement_main_vote(pid, *round, *vote);
                self.check(
                    SigCheck::Share {
                        key: ThresholdKey::Agreement,
                        statement: &statement,
                        share,
                    },
                    "main-vote share",
                )
            }
            Body::BaCoinShare { round, share } => {
                // Round 0 at a multi-valued root is the permutation coin,
                // whose name derives differently — leave it to the
                // handler. (A binary instance rejects round 0 anyway.)
                if *round == 0 {
                    return PreVerified::unchecked();
                }
                if share.index >= common.coin.public_key().n {
                    return PreVerified::invalid("coin share index");
                }
                coin_groups
                    .entry(coin_name(pid, *round))
                    .or_default()
                    .push((slot, share.clone()));
                PreVerified::unchecked()
            }
            Body::BaDecide {
                round, value, sig, ..
            } => {
                if *round == 0 {
                    return PreVerified::invalid("decide round 0");
                }
                let statement =
                    statement_main_vote(pid, *round, crate::message::MainVote::Value(*value));
                self.check(
                    SigCheck::Threshold {
                        key: ThresholdKey::Agreement,
                        statement: &statement,
                        sig,
                    },
                    "decide signature",
                )
            }
            Body::CbFinal { payload, sig } => {
                let statement = statement_cb(pid, payload);
                self.check(
                    SigCheck::Threshold {
                        key: ThresholdKey::Broadcast,
                        statement: &statement,
                        sig,
                    },
                    "cb-final signature",
                )
            }
            Body::AcEntry { round, entry } => {
                if entry.signer != from {
                    return PreVerified::invalid("entry signer");
                }
                // The loosest bounds any channel accepts; the channel
                // re-checks its own configured cap and byte budget.
                if !entry.is_well_formed(MAX_ENTRY_PAYLOADS, MAX_ENTRY_BYTES) {
                    return PreVerified::invalid("entry payload list");
                }
                let statement = statement_entry(pid, *round, &entry.payloads);
                self.check(
                    SigCheck::Party {
                        signer: from,
                        statement: &statement,
                        sig: &entry.sig,
                    },
                    "entry signature",
                )
            }
            Body::OptAck {
                phase,
                epoch,
                seq,
                digest,
                sig,
            } => {
                if !(1..=2).contains(phase) {
                    return PreVerified::invalid("ack phase");
                }
                let statement = statement_opt_ack(pid, *phase, *epoch, *seq, digest);
                self.check(
                    SigCheck::Party {
                        signer: from,
                        statement: &statement,
                        sig,
                    },
                    "ack signature",
                )
            }
            // Everything else either carries no signature or needs
            // protocol state to check (CbEcho: the sender's own payload;
            // ScShare: the ordered ciphertext; OptState: epoch history;
            // VbaVote closings: the child broadcast's context).
            _ => PreVerified::unchecked(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProtocolId;
    use crate::message::{Entry, MainVote, Payload, PayloadKind, PreVoteJust};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sintra_crypto::cost::CostScope;
    use sintra_crypto::dealer::{deal, DealerConfig, PartyKeys};
    use std::sync::Arc;

    fn contexts(n: usize, t: usize) -> Vec<GroupContext> {
        let mut rng = StdRng::seed_from_u64(7);
        deal(&DealerConfig::small(n, t), &mut rng)
            .unwrap()
            .into_iter()
            .map(|k: PartyKeys| GroupContext::new(Arc::new(k)))
            .collect()
    }

    fn envelope(pid: &ProtocolId, body: Body) -> Envelope {
        Envelope {
            pid: pid.clone(),
            send_seq: 0,
            body,
        }
    }

    #[test]
    fn pre_vote_share_verdicts() {
        let ctxs = contexts(4, 1);
        let pid = ProtocolId::new("ba");
        let statement = statement_pre_vote(&pid, 1, true);
        let share = ctxs[1].keys().thsig_agreement.sign_share(&statement);
        let body = |share: SigShare| Body::BaPreVote {
            round: 1,
            value: true,
            just: PreVoteJust::Initial,
            share,
            proof: None,
        };
        let verifier = PreVerifier::new(ctxs[0].clone());
        let good = verifier.pre_verify(PartyId(1), &envelope(&pid, body(share.clone())));
        assert_eq!(good.verdict, PreVerdict::Valid);
        let agreement_share = |statement| SigCheck::Share {
            key: ThresholdKey::Agreement,
            statement,
            share: &share,
        };
        assert_eq!(good.token, Some(agreement_share(&statement).token()));
        // Wrong claimed sender: index mismatch.
        let stolen = verifier.pre_verify(PartyId(2), &envelope(&pid, body(share.clone())));
        assert!(matches!(stolen.verdict, PreVerdict::Invalid(_)));
        // Share transplanted onto a different statement (other value).
        let forged = verifier.pre_verify(
            PartyId(1),
            &envelope(
                &pid,
                Body::BaPreVote {
                    round: 1,
                    value: false,
                    just: PreVoteJust::Initial,
                    share: share.clone(),
                    proof: None,
                },
            ),
        );
        assert!(matches!(forged.verdict, PreVerdict::Invalid(_)));
        // A token for pid X never matches the statement for pid Y, so a
        // descendant-pid forgery never hits the memo.
        let other = statement_pre_vote(&ProtocolId::new("ba/child"), 1, true);
        assert_ne!(
            agreement_share(&statement).token(),
            agreement_share(&other).token()
        );
    }

    #[test]
    fn coin_shares_batch_with_blame() {
        let ctxs = contexts(4, 1);
        let pid = ProtocolId::new("ba");
        let name = coin_name(&pid, 3);
        let release = |i: usize, name: &[u8]| {
            ctxs[i]
                .keys()
                .common
                .coin
                .release_share(name, &ctxs[i].keys().coin_secret)
        };
        let mut envelopes = Vec::new();
        for i in 0..3usize {
            envelopes.push(envelope(
                &pid,
                Body::BaCoinShare {
                    round: 3,
                    share: release(i, &name),
                },
            ));
        }
        // A corrupted share: party 3 releases for the wrong coin name.
        let bogus = release(3, &coin_name(&pid, 4));
        envelopes.push(envelope(
            &pid,
            Body::BaCoinShare {
                round: 3,
                share: bogus,
            },
        ));
        let batch: Vec<(PartyId, &Envelope)> = envelopes
            .iter()
            .enumerate()
            .map(|(i, env)| (PartyId(i), env))
            .collect();
        let verifier = PreVerifier::new(ctxs[0].clone());
        let results = verifier.pre_verify_batch(&batch);
        assert_eq!(results.len(), 4);
        for result in &results[..3] {
            assert_eq!(result.verdict, PreVerdict::Valid);
            assert!(result.token.is_some());
        }
        assert!(matches!(results[3].verdict, PreVerdict::Invalid(_)));
    }

    #[test]
    fn stateful_kinds_stay_unchecked() {
        let ctxs = contexts(4, 1);
        let pid = ProtocolId::new("x");
        let verifier = PreVerifier::new(ctxs[0].clone());
        for body in [
            Body::RbSend(vec![1]),
            Body::RbEcho(vec![1]),
            Body::CbSend(vec![1]),
            Body::VbaVote {
                iteration: 1,
                yes: false,
                closing: None,
            },
            Body::OptComplain { epoch: 0 },
            // Round-0 coin shares are the multi-valued permutation coin.
            Body::BaCoinShare {
                round: 0,
                share: ctxs[1]
                    .keys()
                    .common
                    .coin
                    .release_share(b"perm", &ctxs[1].keys().coin_secret),
            },
        ] {
            let result = verifier.pre_verify(PartyId(1), &envelope(&pid, body));
            assert_eq!(result.verdict, PreVerdict::Unchecked, "{:?}", result);
        }
    }

    /// A validly signed single-payload entry of `signer` for round 0.
    fn signed_entry(ctxs: &[GroupContext], pid: &ProtocolId, signer: usize) -> (Vec<u8>, Entry) {
        let payloads: Vec<Payload> = (0..3u64)
            .map(|seq| Payload {
                origin: PartyId(signer),
                seq,
                kind: PayloadKind::App,
                data: b"x".to_vec(),
            })
            .collect();
        let statement = statement_entry(pid, 0, &payloads);
        let sig = ctxs[signer].keys().sig_key.sign(&statement);
        let entry = Entry {
            payloads,
            signer: PartyId(signer),
            sig,
        };
        (statement, entry)
    }

    #[test]
    fn pool_receipt_memoized_not_consumed() {
        let ctxs = contexts(4, 1);
        let pid = ProtocolId::new("ac");
        let (statement, entry) = signed_entry(&ctxs, &pid, 1);
        let sig = entry.sig.clone();
        // The pool verifies with a context of its own, as runtimes do.
        let pool_ctx = GroupContext::new(Arc::new(ctxs[0].keys().clone()));
        let verifier = PreVerifier::new(pool_ctx);
        let result = verifier.pre_verify(
            PartyId(1),
            &envelope(&pid, Body::AcEntry { round: 0, entry }),
        );
        assert_eq!(result.verdict, PreVerdict::Valid);
        let token = result.token.unwrap();
        ctxs[0].note_preverified([token]);
        assert_eq!(ctxs[0].memo_len(), 1);
        // The receipt is a memo entry, not a one-shot: every consult hits
        // and none runs an exponentiation.
        let scope = CostScope::enter();
        for _ in 0..3 {
            assert!(ctxs[0].verify_party_sig_cached(PartyId(1), &statement, &sig));
        }
        assert_eq!(scope.elapsed(), 0.0);
        assert_eq!(ctxs[0].memo_len(), 1);
        // A memoized token never lets a wrong signature through.
        let wrong = ctxs[2].keys().sig_key.sign(&statement);
        assert!(!ctxs[0].verify_party_sig_cached(PartyId(1), &statement, &wrong));
        assert_eq!(ctxs[0].memo_len(), 1);
    }

    #[test]
    fn failed_check_never_memoized() {
        let ctxs = contexts(4, 1);
        let pid = ProtocolId::new("ac");
        // Party 2 signs an entry that claims party 1 as its signer.
        let (statement, _) = signed_entry(&ctxs, &pid, 1);
        let forged = ctxs[2].keys().sig_key.sign(&statement);
        for _ in 0..2 {
            let scope = CostScope::enter();
            assert!(!ctxs[0].verify_party_sig_cached(PartyId(1), &statement, &forged));
            // Rejected by a real verification both times.
            assert!(scope.elapsed() > 0.0);
        }
        assert_eq!(ctxs[0].memo_len(), 0);
    }

    #[test]
    fn memo_binds_signer() {
        let ctxs = contexts(4, 1);
        let pid = ProtocolId::new("ac");
        let (statement, entry) = signed_entry(&ctxs, &pid, 1);
        assert!(ctxs[0].verify_party_sig_cached(PartyId(1), &statement, &entry.sig));
        // The same signature replayed under another signer's name must be
        // checked against that signer's key, which rejects it — otherwise
        // one signer could fill two batch slots.
        assert!(!ctxs[0].verify_party_sig_cached(PartyId(2), &statement, &entry.sig));
        let replayed = Entry {
            signer: PartyId(2),
            ..entry
        };
        let result = PreVerifier::new(ctxs[0].clone()).pre_verify(
            PartyId(2),
            &envelope(
                &pid,
                Body::AcEntry {
                    round: 0,
                    entry: replayed,
                },
            ),
        );
        assert_eq!(result.verdict, PreVerdict::Invalid("entry signature"));
    }

    #[test]
    fn memo_binds_threshold_key_family() {
        // t = 0 makes the two quorums differ (broadcast 3, agreement 4),
        // so a broadcast signature is not an agreement signature.
        let ctxs = contexts(4, 0);
        let statement = statement_cb(&ProtocolId::new("cb"), b"payload");
        let shares: Vec<SigShare> = ctxs
            .iter()
            .map(|c| c.keys().thsig_broadcast.sign_share(&statement))
            .collect();
        let sig = ctxs[0]
            .keys()
            .common
            .thsig_broadcast
            .assemble(&statement, &shares)
            .unwrap();
        assert!(ctxs[0].verify_threshold_cached(ThresholdKey::Broadcast, &statement, &sig));
        assert!(!ctxs[0].verify_threshold_cached(ThresholdKey::Agreement, &statement, &sig));
        // Shares: a broadcast token is never an agreement token.
        let share = |key| SigCheck::Share {
            key,
            statement: &statement,
            share: &shares[1],
        };
        assert_ne!(
            share(ThresholdKey::Broadcast).token(),
            share(ThresholdKey::Agreement).token()
        );
    }

    #[test]
    fn memo_stays_at_cap() {
        let ctxs = contexts(4, 1);
        let pid = ProtocolId::new("ac");
        let statements: Vec<Vec<u8>> = (0..MEMO_CAP as u64 + 8)
            .map(|seq| statement_opt_ack(&pid, 1, 0, seq, &[0; 32]))
            .collect();
        let sigs: Vec<RsaSignature> = statements
            .iter()
            .map(|s| ctxs[1].keys().sig_key.sign(s))
            .collect();
        for (statement, sig) in statements.iter().zip(&sigs) {
            assert!(ctxs[0].verify_party_sig_cached(PartyId(1), statement, sig));
            assert!(ctxs[0].memo_len() <= MEMO_CAP);
        }
        assert_eq!(ctxs[0].memo_len(), MEMO_CAP);
        // The first signature was evicted: it still verifies, for real.
        let scope = CostScope::enter();
        assert!(ctxs[0].verify_party_sig_cached(PartyId(1), &statements[0], &sigs[0]));
        assert!(scope.elapsed() > 0.0);
        assert_eq!(ctxs[0].memo_len(), MEMO_CAP);
        // The newest one is still a lookup.
        let scope = CostScope::enter();
        let last = statements.len() - 1;
        assert!(ctxs[0].verify_party_sig_cached(PartyId(1), &statements[last], &sigs[last]));
        assert_eq!(scope.elapsed(), 0.0);
    }

    #[test]
    fn malformed_entry_lists_invalid() {
        let ctxs = contexts(4, 1);
        let pid = ProtocolId::new("ac");
        let payload = Payload {
            origin: PartyId(1),
            seq: 0,
            kind: PayloadKind::App,
            data: b"x".to_vec(),
        };
        let verifier = PreVerifier::new(ctxs[0].clone());
        // Validly signed, but empty, repeating an (origin, seq), over the
        // cap, or two payloads over the byte budget.
        let half = Payload {
            data: vec![0; MAX_ENTRY_BYTES / 2],
            ..payload.clone()
        };
        for payloads in [
            vec![],
            vec![payload.clone(), payload.clone()],
            (0..=MAX_ENTRY_PAYLOADS as u64)
                .map(|seq| Payload {
                    seq,
                    ..payload.clone()
                })
                .collect(),
            vec![half.clone(), Payload { seq: 1, ..half }],
        ] {
            let sig = ctxs[1]
                .keys()
                .sig_key
                .sign(&statement_entry(&pid, 0, &payloads));
            let entry = Entry {
                payloads,
                signer: PartyId(1),
                sig,
            };
            let result = verifier.pre_verify(
                PartyId(1),
                &envelope(&pid, Body::AcEntry { round: 0, entry }),
            );
            assert_eq!(
                result.verdict,
                PreVerdict::Invalid("entry payload list"),
                "{result:?}"
            );
        }
    }

    #[test]
    fn decide_statement_binds_main_vote() {
        let ctxs = contexts(4, 1);
        let pid = ProtocolId::new("ba");
        let statement = statement_main_vote(&pid, 2, MainVote::Value(true));
        let shares: Vec<SigShare> = ctxs
            .iter()
            .map(|c| c.keys().thsig_agreement.sign_share(&statement))
            .collect();
        let sig = ctxs[0]
            .keys()
            .common
            .thsig_agreement
            .assemble_preverified(&statement, &shares)
            .unwrap();
        let verifier = PreVerifier::new(ctxs[0].clone());
        let good = verifier.pre_verify(
            PartyId(2),
            &envelope(
                &pid,
                Body::BaDecide {
                    round: 2,
                    value: true,
                    sig: sig.clone(),
                    proof: None,
                },
            ),
        );
        assert_eq!(good.verdict, PreVerdict::Valid);
        let flipped = verifier.pre_verify(
            PartyId(2),
            &envelope(
                &pid,
                Body::BaDecide {
                    round: 2,
                    value: false,
                    sig,
                    proof: None,
                },
            ),
        );
        assert!(matches!(flipped.verdict, PreVerdict::Invalid(_)));
    }
}

//! Per-party protocol context: group parameters and key material.

use std::sync::{Arc, Mutex, MutexGuard};

use sintra_crypto::dealer::PartyKeys;
use sintra_crypto::rsa::RsaSignature;
use sintra_crypto::thsig::{SigShare, ThresholdSignature};

use crate::ids::PartyId;
use crate::invariant::OrInvariant;
use crate::preverify::{PreToken, SigCheck, ThresholdKey, VerifiedMemo};

/// Everything a protocol instance needs to know about its environment:
/// the group size, resilience, this party's identity and key material —
/// plus the party's verified-once memo of passed signature checks (see
/// [`crate::preverify`]).
///
/// Cheaply cloneable (`Arc` inside); every instance hosted by a party
/// shares one context, so a signature one instance verified is a lookup
/// at every other instance's verify sites.
#[derive(Debug, Clone)]
pub struct GroupContext {
    keys: Arc<PartyKeys>,
    memo: Arc<Mutex<VerifiedMemo>>,
}

impl GroupContext {
    /// Wraps dealt key material.
    pub fn new(keys: Arc<PartyKeys>) -> Self {
        GroupContext {
            keys,
            memo: Arc::new(Mutex::new(VerifiedMemo::default())),
        }
    }

    /// This party's identity.
    pub fn me(&self) -> PartyId {
        PartyId(self.keys.index)
    }

    /// Group size `n`.
    pub fn n(&self) -> usize {
        self.keys.n()
    }

    /// Corruption bound `t`.
    pub fn t(&self) -> usize {
        self.keys.t()
    }

    /// The Byzantine quorum `⌈(n + t + 1) / 2⌉` used by both broadcast
    /// primitives (any two quorums intersect in an honest party).
    ///
    /// All threshold arithmetic lives in this file so protocol code
    /// never spells out `n`/`t` expressions inline — `sintra-lint`'s
    /// `quorum-arithmetic` rule enforces that.
    pub fn quorum(&self) -> usize {
        // lint:allow(quorum-arithmetic): definitional — this helper is where the bound lives
        (self.n() + self.t() + 1).div_ceil(2)
    }

    /// `n - t`: the number of messages a party can wait for without
    /// risking deadlock (paper §2: up to `t` parties may never answer).
    pub fn n_minus_t(&self) -> usize {
        // lint:allow(quorum-arithmetic): definitional — this helper is where the bound lives
        self.n() - self.t()
    }

    /// `t + 1`: the smallest set of parties guaranteed to contain at
    /// least one honest member. Used wherever a single honest witness
    /// suffices — echo amplification, close requests, complaints.
    pub fn one_honest(&self) -> usize {
        // lint:allow(quorum-arithmetic): definitional — this helper is where the bound lives
        self.t() + 1
    }

    /// `t`: the corruption budget itself, for "strictly more than the
    /// faulty parties could produce alone" comparisons
    /// (`count > fault_budget()` is equivalent to `count >= one_honest()`).
    pub fn fault_budget(&self) -> usize {
        self.t()
    }

    /// `2t + 1`: Bracha's ready quorum. A set of `2t + 1` ready senders
    /// contains `t + 1` honest ones, enough to make every honest party
    /// eventually ready, so delivery at this bound is irrevocable.
    pub fn ready_quorum(&self) -> usize {
        // lint:allow(quorum-arithmetic): definitional — this helper is where the bound lives
        2 * self.t() + 1
    }

    /// The atomic-channel batch size `n - f + 1` that guarantees
    /// `f`-fairness for a fairness parameter `t + 1 <= f <= n - t`
    /// (paper §2.6): any batch assembled from `n - t` received entry
    /// sets intersects the queues of at least `f` honest parties.
    pub fn fairness_batch(&self, f: usize) -> usize {
        // lint:allow(quorum-arithmetic): definitional — this helper is where the bound lives
        self.n() - f + 1
    }

    /// Access to this party's key material.
    pub fn keys(&self) -> &PartyKeys {
        &self.keys
    }

    /// Iterator over all party identities.
    pub fn parties(&self) -> impl Iterator<Item = PartyId> {
        (0..self.n()).map(PartyId)
    }

    /// Whether `id` is a valid party index in this group.
    pub fn is_valid_party(&self, id: PartyId) -> bool {
        id.0 < self.n()
    }

    // --- verified-once memo ----------------------------------------------
    //
    // Every signature check in the crate runs through the helpers below:
    // a check that passed before is a lookup, a new one runs and, if it
    // passes, is memoized. See `crate::preverify` for what a token binds
    // and why the memo is sound.

    fn memo(&self) -> MutexGuard<'_, VerifiedMemo> {
        self.memo
            .lock()
            .or_invariant("memo lock poisoned: a thread panicked while holding it")
    }

    /// Runs `check` unless an identical check already passed, memoizing
    /// a pass. Returns the check's token on success; failures leave no
    /// trace. The lock is not held across the check itself.
    pub(crate) fn check_once(&self, check: SigCheck<'_>) -> Option<PreToken> {
        let token = check.token();
        if self.memo().contains(&token) {
            return Some(token);
        }
        if !check.run(&self.keys.common) {
            return None;
        }
        self.memo().insert(token);
        Some(token)
    }

    /// Records the tokens of checks the off-thread verify stage passed.
    pub fn note_preverified<I: IntoIterator<Item = PreToken>>(&self, tokens: I) {
        let mut memo = self.memo();
        for token in tokens {
            memo.insert(token);
        }
    }

    /// Whether the check behind `token` already passed for this party.
    pub(crate) fn already_verified(&self, token: &PreToken) -> bool {
        self.memo().contains(token)
    }

    /// Number of memoized checks.
    #[cfg(test)]
    pub(crate) fn memo_len(&self) -> usize {
        self.memo().len()
    }

    /// Verifies a share under the threshold key `key`, once.
    pub fn verify_share_cached(
        &self,
        key: ThresholdKey,
        statement: &[u8],
        share: &SigShare,
    ) -> bool {
        self.check_once(SigCheck::Share {
            key,
            statement,
            share,
        })
        .is_some()
    }

    /// Verifies an assembled signature under the threshold key `key`,
    /// once.
    pub fn verify_threshold_cached(
        &self,
        key: ThresholdKey,
        statement: &[u8],
        sig: &ThresholdSignature,
    ) -> bool {
        self.check_once(SigCheck::Threshold {
            key,
            statement,
            sig,
        })
        .is_some()
    }

    /// Verifies `signer`'s standard RSA signature over `statement`, once.
    pub fn verify_party_sig_cached(
        &self,
        signer: PartyId,
        statement: &[u8],
        sig: &RsaSignature,
    ) -> bool {
        self.check_once(SigCheck::Party {
            signer,
            statement,
            sig,
        })
        .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sintra_crypto::dealer::{deal, DealerConfig};

    #[test]
    fn quorum_arithmetic() {
        let mut rng = StdRng::seed_from_u64(1);
        let parties = deal(&DealerConfig::small(4, 1), &mut rng).unwrap();
        let ctx = GroupContext::new(Arc::new(parties[2].clone()));
        assert_eq!(ctx.me(), PartyId(2));
        assert_eq!(ctx.n(), 4);
        assert_eq!(ctx.t(), 1);
        assert_eq!(ctx.quorum(), 3);
        assert_eq!(ctx.n_minus_t(), 3);
        assert_eq!(ctx.one_honest(), 2);
        assert_eq!(ctx.fault_budget(), 1);
        assert_eq!(ctx.ready_quorum(), 3);
        assert_eq!(ctx.fairness_batch(3), 2);
        assert_eq!(ctx.fairness_batch(2), 3);
        assert_eq!(ctx.parties().count(), 4);
        assert!(ctx.is_valid_party(PartyId(3)));
        assert!(!ctx.is_valid_party(PartyId(4)));
    }
}

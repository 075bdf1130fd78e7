//! The second file of the suppressed pair: the mutation evidence the
//! cross-file finding cites in its `related` locations.

impl Channel {
    fn on_echo(&mut self, from: PartyId, share: &SigShare) {
        self.pending.insert(from, share.clone());
        if !self.verify_share_cached(share) {
            self.pending.remove(&from);
        }
    }
}

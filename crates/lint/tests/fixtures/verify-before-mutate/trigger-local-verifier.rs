//! Trigger: AcEntry calls a handler-local function that shares its name
//! with the group context's memoized threshold check but records the
//! certificate in handler state before the entry signature is verified.
//! Only the helpers defined in config.rs / preverify.rs are exempt from
//! expansion, so this mutation is reported.

impl Channel {
    fn handle_envelope(&mut self, from: PartyId, body: &Body) {
        match body {
            Body::CbEcho(share) => {
                if !self.verify_share_cached(share) {
                    return;
                }
                self.echoes.insert(from, share.clone());
            }
            Body::AcEntry { round, entry } => self.on_entry(from, *round, entry),
        }
    }

    fn on_entry(&mut self, from: PartyId, round: u64, entry: &Entry) {
        if !self.verify_threshold_cached(&entry.cert) {
            return;
        }
        if !self.verify_party_sig_cached(from, entry) {
            return;
        }
        self.entries.entry(round).or_default().push(entry.clone());
    }

    fn verify_threshold_cached(&mut self, cert: &Cert) -> bool {
        self.certs.insert(cert.clone());
        cert.check()
    }
}

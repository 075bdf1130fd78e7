//! The group context's memoized checks, analyzed at the virtual path
//! `crates/core/src/config.rs`: a passed check is recorded in the
//! verified-once memo, which is verification state, not handler state.

impl GroupContext {
    fn verify_threshold_cached(&self, cert: &Cert) -> bool {
        let token = cert.token();
        if self.memo.contains(&token) {
            return true;
        }
        let ok = cert.check();
        if ok {
            self.memo.insert(token);
        }
        ok
    }
}

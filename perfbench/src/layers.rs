//! Per-operation timings of the `bigint` and `crypto` layers, taken on
//! the workload's own keys through their public functions.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sintra_bigint::{Montgomery, Ubig};
use sintra_crypto::dealer::PartyKeys;

use crate::stats::median;
use crate::workload::SeedRng;

/// Median microseconds per call of each primitive.
#[derive(Debug, Clone)]
pub struct OpTimes {
    /// One full 1024-bit Montgomery exponentiation (1.0 work unit).
    pub modexp_1024_us: f64,
    /// Threshold-signature share: sign.
    pub sig_share_sign_us: f64,
    /// Threshold-signature share: verify.
    pub sig_share_verify_us: f64,
    /// Threshold signature: assemble from a quorum of shares.
    pub sig_assemble_us: f64,
    /// Threshold signature: verify.
    pub sig_verify_us: f64,
    /// Coin share: release.
    pub coin_release_us: f64,
    /// Coin share: verify.
    pub coin_verify_us: f64,
    /// Coin: assemble from `t + 1` shares.
    pub coin_assemble_us: f64,
    /// HMAC over one frame of the workload's mean size.
    pub hmac_frame_us: f64,
}

/// Median time of `reps` batches of `per_batch` calls, per call.
fn time_us(reps: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// Times every primitive on `keys`; `frame_len` sizes the HMAC input.
pub fn time_ops(keys: &[Arc<PartyKeys>], frame_len: usize, seed: u64) -> OpTimes {
    let mut rng = SeedRng::new(seed);
    let mut random_bytes =
        |len: usize| -> Vec<u8> { (0..len).map(|_| rng.next_u64() as u8).collect() };
    let common = &keys[0].common;

    // A 1024-bit odd modulus (the coin group's prime) and full-size
    // base and exponent: the cost meter's unit of work.
    let modulus = common.coin.group().modulus().clone();
    let mont = Montgomery::new(&modulus);
    let base = Ubig::from_be_bytes(&random_bytes(127));
    let exp = Ubig::from_be_bytes(&{
        let mut e = random_bytes(128);
        e[0] |= 0x80;
        e
    });
    let modexp_1024_us = time_us(15, 2, || {
        black_box(mont.pow(black_box(&base), black_box(&exp)));
    });

    let message = b"perfbench threshold statement";
    let public = &common.thsig_broadcast;
    let quorum = public.threshold();
    let shares: Vec<_> = keys
        .iter()
        .take(quorum)
        .map(|k| k.thsig_broadcast.sign_share(message))
        .collect();
    let sig_share_sign_us = time_us(15, 2, || {
        black_box(keys[0].thsig_broadcast.sign_share(black_box(message)));
    });
    let sig_share_verify_us = time_us(15, 4, || {
        black_box(public.verify_share(black_box(message), &shares[0]));
    });
    let signature = public
        .assemble(message, &shares)
        .expect("valid shares assemble");
    let sig_assemble_us = time_us(15, 2, || {
        black_box(public.assemble(black_box(message), &shares).ok());
    });
    let sig_verify_us = time_us(15, 2, || {
        black_box(public.verify(black_box(message), &signature));
    });

    let coin = &common.coin;
    let name = b"perfbench coin";
    let coin_shares: Vec<_> = keys
        .iter()
        .take(coin.threshold())
        .map(|k| coin.release_share(name, &k.coin_secret))
        .collect();
    let coin_release_us = time_us(15, 2, || {
        black_box(coin.release_share(black_box(name), &keys[0].coin_secret));
    });
    let coin_verify_us = time_us(15, 2, || {
        black_box(coin.verify_share(black_box(name), &coin_shares[0]));
    });
    let coin_assemble_us = time_us(15, 2, || {
        black_box(coin.assemble(black_box(name), &coin_shares, 16).ok());
    });

    let frame = random_bytes(frame_len.max(1));
    let mac = &keys[0].mac_keys[1];
    let hmac_frame_us = time_us(21, 200, || {
        black_box(mac.sign(black_box(&frame)));
    });

    OpTimes {
        modexp_1024_us,
        sig_share_sign_us,
        sig_share_verify_us,
        sig_assemble_us,
        sig_verify_us,
        coin_release_us,
        coin_verify_us,
        coin_assemble_us,
        hmac_frame_us,
    }
}

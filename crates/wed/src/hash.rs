//! One multiplicative hash for the crate's symbol-keyed caches.
//!
//! [`Memo`](crate::models::Memo) and
//! [`SubProfile`](crate::dp::SubProfile) key their maps by one or two
//! symbols and probe them from DP loops, where std's SipHash costs more than
//! the lookup it guards. Symbols are small integers; a Fibonacci multiply
//! spreads them over the word and a fold brings the well-mixed high half
//! down to the low bits the table indexes by. Unlike SipHash this is not
//! keyed: a caller who picks symbols to collide degrades these caches to a
//! list walk, never to a wrong answer.

use std::hash::{BuildHasherDefault, Hasher};

/// `2^64 / φ`, odd: the multiply is a bijection on `u64`, and so is the fold.
pub(crate) fn mix64(k: u64) -> u64 {
    let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

/// Pass-through [`Hasher`] over [`mix64`] for `u32`/`u64` keys.
#[derive(Default)]
pub(crate) struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("MixHasher keys are single u32/u64 words");
    }
    fn write_u32(&mut self, k: u32) {
        self.0 = mix64(k as u64);
    }
    fn write_u64(&mut self, k: u64) {
        self.0 = mix64(k);
    }
}

pub(crate) type BuildMix = BuildHasherDefault<MixHasher>;

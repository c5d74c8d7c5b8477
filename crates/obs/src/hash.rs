//! 64-bit FNV-1a, the workspace's one content hash.
//!
//! Sweep cell keys, cache record checksums, trace ids and span ids all
//! hash with it: unlike `std::hash`'s `SipHash`, whose keys are
//! unspecified, FNV-1a is stable across platforms and releases, so every
//! persisted key stays valid. [`Fnv1a`] is a streaming state — hashing
//! `a` then `b` equals hashing `a ++ b` — and implements [`fmt::Write`],
//! so `write!(hasher, "{value:?}")` hashes a formatted value without
//! building the string first.

use std::fmt;

/// A streaming 64-bit FNV-1a state.
///
/// ```
/// use secloc_obs::{fnv1a, Fnv1a};
/// use std::fmt::Write as _;
///
/// let mut prefix = Fnv1a::new();
/// prefix.update(b"config;seed=");
/// // Continue a copy of one shared prefix per suffix.
/// let mut cell = prefix;
/// write!(cell, "{}", 42).unwrap();
/// assert_eq!(cell.finish(), fnv1a(b"config;seed=42"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The FNV-1a 64-bit offset basis: the state before any byte.
    pub(crate) const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The empty-input state.
    pub const fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// A state that starts from `state` instead of the offset basis, for
    /// seeded derivations such as child span ids.
    pub(crate) const fn from_state(state: u64) -> Self {
        Fnv1a(state)
    }

    /// Folds `bytes` into the state.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The hash of every byte folded in so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// 64-bit FNV-1a over `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.update(bytes);
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn matches_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut hash = Fnv1a::new();
        hash.update(b"foo");
        let (text, ch) = ("ba", 'r');
        write!(hash, "{text}{ch:?}").unwrap();
        let mut expected = Fnv1a::new();
        expected.update(b"fooba'r'");
        assert_eq!(hash, expected);
        assert_eq!(hash.finish(), fnv1a(b"fooba'r'"));
    }
}

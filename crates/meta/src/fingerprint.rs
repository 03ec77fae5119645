//! Order-insensitive metadata fingerprints.
//!
//! Equivalence testing compares the final metadata of a parallel run against
//! a sequential reference (and of the real-thread executor against the
//! deterministic simulator). Metadata lives in hash-map-backed and
//! concurrently-updated structures whose iteration order is unstable, so the
//! fingerprint must be commutative across `(key, value)` pairs.

/// Xor-folded accumulator for metadata fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

/// 2⁶⁴/φ, odd: multiplying by it is a bijection that spreads a key's low
/// bits across the word (splitmix64's increment).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

impl Fingerprint {
    /// Creates the initial fingerprint state.
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes one `(key, value)` pair; commutative across pairs via xor-fold
    /// so iteration order of hash maps does not matter.
    ///
    /// One pass of splitmix64's finaliser over `key·φ ⊕ value` (plus φ, so
    /// the pair `(0, 0)` still moves the state): two multiplies where a
    /// byte-wise FNV-1a takes sixteen dependent ones. A byte shadow's
    /// fingerprint calls this once per nonzero byte, at every report.
    #[inline]
    pub fn mix(&mut self, key: u64, value: u64) {
        let mut z = (key.wrapping_mul(GOLDEN) ^ value).wrapping_add(GOLDEN);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 ^= z ^ (z >> 31);
    }

    /// Final value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_insensitive() {
        let mut a = Fingerprint::new();
        a.mix(1, 10);
        a.mix(2, 20);
        let mut b = Fingerprint::new();
        b.mix(2, 20);
        b.mix(1, 10);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fingerprint_distinguishes_values() {
        let mut a = Fingerprint::new();
        a.mix(1, 10);
        let mut b = Fingerprint::new();
        b.mix(1, 11);
        assert_ne!(a.finish(), b.finish());
        // Nor does a clean pair vanish, or a key swap with its value.
        let mut c = Fingerprint::new();
        c.mix(0, 0);
        assert_ne!(c.finish(), Fingerprint::new().finish());
        let mut d = Fingerprint::new();
        d.mix(10, 1);
        let mut e = Fingerprint::new();
        e.mix(1, 10);
        assert_ne!(d.finish(), e.finish());
    }
}

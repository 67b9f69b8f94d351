//! A tiny, fully deterministic pseudo-random number generator.
//!
//! The workspace needs run-to-run *and* platform-to-platform reproducible
//! randomness: the paper's justification procedure makes random choices,
//! and the experimental tables must regenerate bit-identically from a
//! seed. External RNG crates do not guarantee stream stability across
//! versions, so we pin the well-known SplitMix64 generator (Steele, Lea &
//! Flood, OOPSLA 2014) — 64 bits of state, full period, excellent
//! statistical quality for non-cryptographic use.

/// A deterministic SplitMix64 pseudo-random number generator.
///
/// # Example
///
/// ```
/// use pdf_netlist::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds produce equal streams.
    #[must_use]
    pub const fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly distributed value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        // Lemire-style widening multiply avoids modulo bias well enough for
        // structural generation (bound << 2^64).
        let wide = u128::from(self.next_u64()) * bound as u128;
        (wide >> 64) as usize
    }

    /// A uniformly distributed boolean.
    #[inline]
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Picks a uniformly random element of `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is empty.
    #[inline]
    pub fn pick<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        &slice[self.next_below(slice.len())]
    }

    /// The raw generator state, for checkpointing. Feeding it back
    /// through [`SplitMix64::from_state`] resumes the stream exactly
    /// where it left off.
    #[must_use]
    pub const fn state(&self) -> u64 {
        self.state
    }

    /// Rebuilds a generator from a previously saved [`SplitMix64::state`].
    /// Identical to [`SplitMix64::new`] — the state *is* the seed
    /// counter — but named for intent at resume sites.
    #[must_use]
    pub const fn from_state(state: u64) -> SplitMix64 {
        SplitMix64 { state }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::new(0xDEADBEEF);
        let first: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let mut b = SplitMix64::new(0xDEADBEEF);
        let second: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn known_answer_vector() {
        // Reference values for seed 0 from the published SplitMix64 code.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut r = SplitMix64::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.next_below(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(9);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SplitMix64::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits}");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        let _ = SplitMix64::new(1).next_below(0);
    }

    #[test]
    fn state_round_trip_resumes_the_stream() {
        let mut a = SplitMix64::new(0xC0FFEE);
        for _ in 0..5 {
            a.next_u64();
        }
        let mut b = SplitMix64::from_state(a.state());
        let tail_a: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let tail_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(tail_a, tail_b);
    }
}

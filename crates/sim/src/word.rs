//! Width-generic simulation words: the lane-parallel tiles the bit-plane
//! kernel is written against.
//!
//! A [`SimWord`] is a fixed-size tile of test lanes — one bit per lane —
//! on which the kernel's rail algebra (`AND`/`OR`/`NOT` over six planes
//! per line) operates. It is implemented for every `[u64; N]`; every
//! production pass runs on [`Tile`], the 256-lane `[u64; 4]`.
//!
//! The array implementation uses plain word loops: on a
//! `-C target-cpu=native` build LLVM lowers them to single vector
//! instructions, and on scalar-only targets they still win through
//! instruction-level parallelism and fewer propagation passes. No
//! unstable `std::simd` is involved.

use core::fmt;

/// A fixed-width tile of simulation lanes, one bit per lane.
///
/// Implementations must behave as a plain bitset of [`SimWord::LANES`]
/// bits split into [`SimWord::WORDS`] little-endian `u64` words: lane `j`
/// is bit `j % 64` of word `j / 64`. All kernel algebra reduces to the
/// bitwise ops below, so a wider tile changes throughput, never results.
pub trait SimWord: Copy + PartialEq + Eq + Send + Sync + fmt::Debug + 'static {
    /// Number of 64-bit words in the tile.
    const WORDS: usize;
    /// Number of test lanes: `WORDS * 64`.
    const LANES: usize = Self::WORDS * 64;
    /// The all-zero tile.
    const ZERO: Self;
    /// The all-ones tile.
    const ONES: Self;

    /// Lane-wise AND.
    #[must_use]
    fn and(self, other: Self) -> Self;
    /// Lane-wise OR.
    #[must_use]
    fn or(self, other: Self) -> Self;
    /// Lane-wise NOT.
    #[must_use]
    fn not(self) -> Self;
    /// `true` if no lane is set.
    #[must_use]
    fn is_zero(self) -> bool;
    /// The mask with the low `n` lanes set (`n <= LANES`).
    #[must_use]
    fn low_lanes(n: usize) -> Self;
    /// Whether lane `lane` is set.
    #[must_use]
    fn lane(self, lane: usize) -> bool;
    /// Sets lane `lane`.
    fn set_lane(&mut self, lane: usize);
    /// The lowest set lane, if any.
    #[must_use]
    fn first_lane(self) -> Option<usize>;
    /// The `k`-th 64-bit word of the tile.
    #[must_use]
    fn word(self, k: usize) -> u64;
    /// Overwrites the `k`-th 64-bit word of the tile.
    fn set_word(&mut self, k: usize, value: u64);
}

/// `[u64; N]` tiles, written as explicit word loops — the shape LLVM
/// auto-vectorizes into one vector op per plane word.
impl<const N: usize> SimWord for [u64; N] {
    const WORDS: usize = N;
    const ZERO: [u64; N] = [0u64; N];
    const ONES: [u64; N] = [u64::MAX; N];

    #[inline(always)]
    fn and(self, other: [u64; N]) -> [u64; N] {
        let mut out = [0u64; N];
        for i in 0..N {
            out[i] = self[i] & other[i];
        }
        out
    }

    #[inline(always)]
    fn or(self, other: [u64; N]) -> [u64; N] {
        let mut out = [0u64; N];
        for i in 0..N {
            out[i] = self[i] | other[i];
        }
        out
    }

    #[inline(always)]
    fn not(self) -> [u64; N] {
        let mut out = [0u64; N];
        for i in 0..N {
            out[i] = !self[i];
        }
        out
    }

    #[inline(always)]
    fn is_zero(self) -> bool {
        self.iter().fold(0u64, |any, &w| any | w) == 0
    }

    #[inline]
    fn low_lanes(n: usize) -> [u64; N] {
        debug_assert!(n <= N * 64);
        let mut out = [0u64; N];
        for (i, w) in out.iter_mut().enumerate() {
            let lo = i * 64;
            *w = match n.saturating_sub(lo) {
                0 => 0,
                part if part >= 64 => u64::MAX,
                part => (1u64 << part) - 1,
            };
        }
        out
    }

    #[inline(always)]
    fn lane(self, lane: usize) -> bool {
        self[lane / 64] >> (lane % 64) & 1 == 1
    }

    #[inline(always)]
    fn set_lane(&mut self, lane: usize) {
        self[lane / 64] |= 1u64 << (lane % 64);
    }

    #[inline]
    fn first_lane(self) -> Option<usize> {
        self.iter()
            .position(|&w| w != 0)
            .map(|k| k * 64 + self[k].trailing_zeros() as usize)
    }

    #[inline(always)]
    fn word(self, k: usize) -> u64 {
        self[k]
    }

    #[inline(always)]
    fn set_word(&mut self, k: usize, value: u64) {
        self[k] = value;
    }
}

/// The tile type of every production simulation pass: 256 lanes, one
/// AVX2 register per plane word on x86-64 (two NEON registers on
/// aarch64). The differential tests pin it to the scalar oracle.
pub type Tile = [u64; 4];

/// The packed kernel's tile width. There is exactly one, [`Tile`]; this
/// handle only reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SimWidth {
    _private: (),
}

impl SimWidth {
    /// The compiled tile width.
    #[must_use]
    pub const fn auto() -> SimWidth {
        SimWidth { _private: () }
    }

    /// The number of test lanes per packed tile.
    #[must_use]
    pub const fn lanes(self) -> usize {
        Tile::LANES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bitset_contract<W: SimWord>() {
        assert_eq!(W::LANES, W::WORDS * 64);
        assert!(W::ZERO.is_zero());
        assert!(!W::ONES.is_zero());
        assert_eq!(W::ZERO.not(), W::ONES);
        assert_eq!(W::low_lanes(W::LANES), W::ONES);
        assert!(W::low_lanes(0).is_zero());
        assert_eq!(W::ZERO.first_lane(), None);
        assert_eq!(W::ONES.first_lane(), Some(0));

        // Per-lane set/query round trip, plus first_lane ordering.
        for lane in [0, 1, 63, W::LANES / 2, W::LANES - 1] {
            let mut w = W::ZERO;
            w.set_lane(lane);
            assert!(w.lane(lane), "lane {lane}");
            assert_eq!(w.first_lane(), Some(lane));
            assert!(w.and(W::ONES) == w);
            assert!(w.or(W::ZERO) == w);
            assert!(w.and(w.not()).is_zero());
            // low_lanes(k) contains lane iff lane < k.
            assert!(!W::low_lanes(lane).lane(lane));
            assert!(W::low_lanes(lane + 1).lane(lane));
        }

        // Word-level access agrees with lane-level access.
        let mut w = W::ZERO;
        w.set_word(W::WORDS - 1, 0b1010);
        assert_eq!(w.word(W::WORDS - 1), 0b1010);
        assert_eq!(w.first_lane(), Some((W::WORDS - 1) * 64 + 1));
    }

    #[test]
    fn every_word_satisfies_the_bitset_contract() {
        check_bitset_contract::<[u64; 1]>();
        check_bitset_contract::<Tile>();
    }

    #[test]
    fn the_one_width_is_the_tile() {
        assert_eq!(SimWidth::auto().lanes(), 256);
        assert_eq!(SimWidth::auto().lanes(), <Tile as SimWord>::LANES);
    }
}

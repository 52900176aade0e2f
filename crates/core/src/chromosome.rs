//! Binary chromosomes: the selection vector `x = [x_1, ..., x_w]` of §3.2.1.
//!
//! Each gene corresponds to one slot of the scheduling window; gene `i` is 1
//! iff job `J_i` is selected to execute. Chromosomes are stored as a compact
//! bitset over `u64` words so that crossover, mutation, and evaluation stay
//! cache-friendly for the window sizes the paper explores (up to 50, Table 3)
//! and well beyond.

use std::fmt;

/// Bits per storage word.
const WORD_BITS: usize = 64;

/// A binary selection vector over a scheduling window of `len` jobs.
///
/// The bit at position `i` encodes whether the job at window slot `i` is
/// selected to execute (`true`) or left waiting (`false`).
#[derive(PartialEq, Eq, Hash)]
pub struct Chromosome {
    words: Vec<u64>,
    len: usize,
}

impl Clone for Chromosome {
    fn clone(&self) -> Self {
        Self { words: self.words.clone(), len: self.len }
    }

    /// Reuses the existing word buffer, so the GA's crossover into its
    /// scratch children allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
}

impl Chromosome {
    /// Creates an all-zero chromosome (no job selected) of the given length.
    pub fn zeros(len: usize) -> Self {
        let n_words = len.div_ceil(WORD_BITS).max(1);
        Self { words: vec![0; n_words], len }
    }

    /// Builds a chromosome from a boolean slice.
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut c = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                c.set(i, true);
            }
        }
        c
    }

    /// Builds a chromosome of length `len` from the low bits of `mask`.
    ///
    /// Convenient for exhaustive enumeration of windows with `len <= 64`.
    ///
    /// # Panics
    /// Panics if `len > 64`.
    pub fn from_mask(mask: u64, len: usize) -> Self {
        assert!(len <= WORD_BITS, "from_mask supports at most 64 genes");
        let mut c = Self::zeros(len);
        c.words[0] = if len == WORD_BITS { mask } else { mask & ((1u64 << len) - 1) };
        c
    }

    /// Number of genes (window size `w`).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns gene `i`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets gene `i` to `value`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len);
        let w = i / WORD_BITS;
        let b = i % WORD_BITS;
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Flips gene `i` (the mutation primitive).
    #[inline]
    pub fn flip(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] ^= 1 << (i % WORD_BITS);
    }

    /// Number of selected jobs.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over the indices of selected jobs, in ascending order.
    pub fn selected(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(move |(wi, &word)| BitIter { word, base: wi * WORD_BITS })
    }

    /// Iterator over all genes as booleans.
    pub fn bits(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Single-point crossover: swaps all genes at positions `>= point`
    /// between `self` and `other`, producing two children.
    ///
    /// This is the crossover of §3.2.2 / Fig. 3: "generates two children by
    /// randomly selecting two parents ... and swapping genes of parents at a
    /// random position".
    ///
    /// # Panics
    /// Panics if the parents have different lengths or `point > len`.
    pub fn crossover(&self, other: &Self, point: usize) -> (Self, Self) {
        let mut a = self.clone();
        let mut b = other.clone();
        self.crossover_into(other, point, &mut a, &mut b);
        (a, b)
    }

    /// [`Chromosome::crossover`] writing into caller-provided children —
    /// the GA's allocation-free hot path, which breeds every child into
    /// the same two scratch chromosomes.
    ///
    /// # Panics
    /// Panics if the parents have different lengths or `point > len`.
    pub fn crossover_into(&self, other: &Self, point: usize, a: &mut Self, b: &mut Self) {
        assert_eq!(self.len, other.len, "crossover requires equal-length parents");
        assert!(point <= self.len);
        a.clone_from(self);
        b.clone_from(other);
        // Whole-word swap: the first affected word keeps its low `point % 64`
        // bits and takes the rest from the other parent; later words swap
        // entirely. Bits above `len` are zero in both parents, so they stay
        // zero in both children.
        let first = point / WORD_BITS;
        for w in first..self.words.len() {
            let keep = if w == first { (1u64 << (point % WORD_BITS)) - 1 } else { 0 };
            a.words[w] = (self.words[w] & keep) | (other.words[w] & !keep);
            b.words[w] = (other.words[w] & keep) | (self.words[w] & !keep);
        }
    }

    /// Lexicographic "front of window first" comparison used by the decision
    /// maker's tie-break (§3.2.4): among equal-objective solutions prefer the
    /// one whose selected jobs sit closest to the front of the window.
    ///
    /// Returns `std::cmp::Ordering::Less` when `self` is preferred.
    pub fn front_preference(&self, other: &Self) -> std::cmp::Ordering {
        debug_assert_eq!(self.len, other.len);
        for i in 0..self.len {
            match (self.get(i), other.get(i)) {
                (true, false) => return std::cmp::Ordering::Less,
                (false, true) => return std::cmp::Ordering::Greater,
                _ => {}
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Clears every gene.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// A cheap content hash (FNV-1a over the storage words), used to derive
    /// a pseudo-random yet deterministic starting point for constraint
    /// repair without threading an RNG through parallel code.
    pub fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in &self.words {
            h ^= w;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^ self.len as u64
    }
}

struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

impl fmt::Debug for Chromosome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Chromosome[")?;
        for b in self.bits() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_flip() {
        let mut c = Chromosome::zeros(70);
        assert_eq!(c.len(), 70);
        assert_eq!(c.count_ones(), 0);
        c.set(0, true);
        c.set(63, true);
        c.set(69, true);
        assert!(c.get(0) && c.get(63) && c.get(69));
        assert!(!c.get(1));
        assert_eq!(c.count_ones(), 3);
        c.flip(63);
        assert!(!c.get(63));
        assert_eq!(c.count_ones(), 2);
    }

    #[test]
    fn selected_indices() {
        let c = Chromosome::from_bits(&[true, false, true, false, true]);
        let sel: Vec<_> = c.selected().collect();
        assert_eq!(sel, vec![0, 2, 4]);
    }

    #[test]
    fn selected_crosses_word_boundary() {
        let mut c = Chromosome::zeros(130);
        for i in [0, 63, 64, 127, 129] {
            c.set(i, true);
        }
        let sel: Vec<_> = c.selected().collect();
        assert_eq!(sel, vec![0, 63, 64, 127, 129]);
    }

    #[test]
    fn from_mask_matches_bits() {
        let c = Chromosome::from_mask(0b10110, 5);
        let sel: Vec<_> = c.selected().collect();
        assert_eq!(sel, vec![1, 2, 4]);
        // Bits above len are masked off.
        let c = Chromosome::from_mask(u64::MAX, 3);
        assert_eq!(c.count_ones(), 3);
    }

    #[test]
    fn crossover_swaps_suffix() {
        let a = Chromosome::from_bits(&[true, true, true, true]);
        let b = Chromosome::from_bits(&[false, false, false, false]);
        let (c, d) = a.crossover(&b, 2);
        assert_eq!(c.bits().collect::<Vec<_>>(), vec![true, true, false, false]);
        assert_eq!(d.bits().collect::<Vec<_>>(), vec![false, false, true, true]);
    }

    #[test]
    fn crossover_at_ends_is_identity_or_swap() {
        let a = Chromosome::from_bits(&[true, false, true]);
        let b = Chromosome::from_bits(&[false, true, false]);
        let (c, d) = a.crossover(&b, 3);
        assert_eq!(c, a);
        assert_eq!(d, b);
        let (c, d) = a.crossover(&b, 0);
        assert_eq!(c, b);
        assert_eq!(d, a);
    }

    #[test]
    fn crossover_across_word_boundaries() {
        let mut a = Chromosome::zeros(130);
        let mut b = Chromosome::zeros(130);
        for i in 0..130 {
            if i % 3 == 0 {
                a.set(i, true);
            }
            if i % 2 == 0 {
                b.set(i, true);
            }
        }
        for point in [0usize, 1, 63, 64, 65, 127, 128, 130] {
            let (c, d) = a.crossover(&b, point);
            for i in 0..130 {
                let (want_c, want_d) =
                    if i < point { (a.get(i), b.get(i)) } else { (b.get(i), a.get(i)) };
                assert_eq!(c.get(i), want_c, "child c gene {i} at point {point}");
                assert_eq!(d.get(i), want_d, "child d gene {i} at point {point}");
            }
        }
    }

    #[test]
    fn clone_from_copies_content_at_any_length() {
        let src = Chromosome::from_bits(&[true, false, true, true]);
        let mut dst = Chromosome::zeros(4);
        dst.clone_from(&src);
        assert_eq!(dst, src);
        // Growing and shrinking through clone_from both land on equality.
        let long = Chromosome::from_bits(&[true; 100]);
        dst.clone_from(&long);
        assert_eq!(dst, long);
        dst.clone_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn front_preference_prefers_early_jobs() {
        let front = Chromosome::from_bits(&[true, false, false]);
        let back = Chromosome::from_bits(&[false, true, true]);
        assert_eq!(front.front_preference(&back), std::cmp::Ordering::Less);
        assert_eq!(back.front_preference(&front), std::cmp::Ordering::Greater);
        assert_eq!(front.front_preference(&front.clone()), std::cmp::Ordering::Equal);
    }

    #[test]
    fn clear_resets() {
        let mut c = Chromosome::from_bits(&[true; 10]);
        c.clear();
        assert_eq!(c.count_ones(), 0);
    }
}

//! A packed bitmap over row ids, used as the result of predicate evaluation.

/// A fixed-length bitset over `len` rows, stored as 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zero bitmap over `len` rows.
    pub fn new_empty(len: usize) -> Self {
        Bitmap { words: vec![0; len.div_ceil(64)], len }
    }

    /// Build from a per-row closure.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut bm = Bitmap::new_empty(len);
        for row in 0..len {
            if f(row) {
                bm.set(row);
            }
        }
        bm
    }

    /// Number of rows covered (set or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `row`.
    #[inline]
    pub fn set(&mut self, row: usize) {
        debug_assert!(row < self.len);
        self.words[row / 64] |= 1u64 << (row % 64);
    }

    /// Clear bit `row`.
    #[inline]
    pub fn clear(&mut self, row: usize) {
        debug_assert!(row < self.len);
        self.words[row / 64] &= !(1u64 << (row % 64));
    }

    /// Whether bit `row` is set.
    #[inline]
    pub fn get(&self, row: usize) -> bool {
        debug_assert!(row < self.len);
        (self.words[row / 64] >> (row % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
            end: self.len,
        }
    }

    /// Iterator over set bits within `[start, end)`, ascending. Used by the
    /// partitioned executors to scan one partition's slice of a filter.
    pub fn iter_ones_in(&self, start: usize, end: usize) -> Ones<'_> {
        let end = end.min(self.len);
        let start = start.min(end);
        let word_idx = start / 64;
        let mut current = self.words.get(word_idx).copied().unwrap_or(0);
        // Mask off bits below `start` within the first word.
        current &= u64::MAX << (start % 64);
        Ones { words: &self.words, word_idx, current, end }
    }

    /// The packed 64-bit words backing the bitmap, tail bits zeroed.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild a bitmap from its packed words (the inverse of
    /// [`Bitmap::words`]). The word count must match `len`; tail bits
    /// past `len` are masked off.
    pub fn from_words(words: Vec<u64>, len: usize) -> crate::Result<Bitmap> {
        if words.len() != len.div_ceil(64) {
            return Err(crate::TableError::invalid(format!(
                "bitmap word count {} does not cover {len} rows",
                words.len()
            )));
        }
        let mut bm = Bitmap { words, len };
        bm.mask_tail();
        Ok(bm)
    }

    /// Fraction of rows selected (0.0 for an empty bitmap).
    pub fn selectivity(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// Zero out the bits past `len` in the final word so that `count_ones`
    /// stays correct.
    fn mask_tail(&mut self) {
        let tail_bits = self.len % 64;
        if tail_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
    }
}

/// The word kernels' packing: bit `i % 64` of `words[i / 64]` becomes
/// `bit(i)` for every `i` below `len`, and the bits past `len` zero.
#[inline]
pub(crate) fn pack_words(words: &mut [u64], len: usize, bit: impl Fn(usize) -> bool) {
    for (w, word) in words[..len.div_ceil(64)].iter_mut().enumerate() {
        let base = w * 64;
        let mut packed = 0u64;
        for b in 0..(len - base).min(64) {
            packed |= u64::from(bit(base + b)) << b;
        }
        *word = packed;
    }
}

/// Every bit below `len` of `words` set, and the bits past it zero.
pub(crate) fn fill_ones(words: &mut [u64], len: usize) {
    for (w, word) in words[..len.div_ceil(64)].iter_mut().enumerate() {
        let bits = len - w * 64;
        *word = if bits >= 64 { u64::MAX } else { (1u64 << bits) - 1 };
    }
}

/// Iterator over set bits of a [`Bitmap`] (optionally bounded below `end`).
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
    end: usize,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() || self.word_idx * 64 >= self.end {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // drop lowest set bit
        let row = self.word_idx * 64 + bit;
        if row >= self.end {
            return None;
        }
        Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_and_full() {
        let e = Bitmap::new_empty(130);
        assert_eq!(e.count_ones(), 0);
        let f = Bitmap::from_fn(130, |_| true);
        assert_eq!(f.count_ones(), 130);
        assert!(f.get(129));
    }

    #[test]
    fn set_get_clear() {
        let mut bm = Bitmap::new_empty(100);
        bm.set(0);
        bm.set(63);
        bm.set(64);
        bm.set(99);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(99));
        assert!(!bm.get(1));
        assert_eq!(bm.count_ones(), 4);
        bm.clear(63);
        assert!(!bm.get(63));
        assert_eq!(bm.count_ones(), 3);
    }

    #[test]
    fn from_words_masks_tail() {
        let bm = Bitmap::from_words(vec![u64::MAX; 2], 70).unwrap();
        assert_eq!(bm.count_ones(), 70);
        assert_eq!(bm.iter_ones().last(), Some(69));
        assert!(Bitmap::from_words(vec![0; 3], 70).is_err());
    }

    #[test]
    fn iter_ones_matches_get() {
        let bm = Bitmap::from_fn(200, |i| i % 7 == 0);
        let ones: Vec<usize> = bm.iter_ones().collect();
        let expected: Vec<usize> = (0..200).filter(|i| i % 7 == 0).collect();
        assert_eq!(ones, expected);
    }

    #[test]
    fn selectivity() {
        let bm = Bitmap::from_fn(100, |i| i < 25);
        assert!((bm.selectivity() - 0.25).abs() < 1e-12);
        assert_eq!(Bitmap::new_empty(0).selectivity(), 0.0);
    }

    #[test]
    fn zero_length() {
        let bm = Bitmap::new_empty(0);
        assert_eq!(bm.count_ones(), 0);
        assert_eq!(bm.iter_ones().count(), 0);
    }

    #[test]
    fn iter_ones_in_bounds() {
        let bm = Bitmap::from_fn(300, |i| i % 5 == 0);
        let got: Vec<usize> = bm.iter_ones_in(63, 131).collect();
        let expected: Vec<usize> = (63..131).filter(|i| i % 5 == 0).collect();
        assert_eq!(got, expected);
        assert_eq!(bm.iter_ones_in(0, 300).count(), bm.iter_ones().count());
        assert_eq!(bm.iter_ones_in(100, 100).count(), 0);
        assert_eq!(bm.iter_ones_in(295, 10_000).collect::<Vec<_>>(), vec![295]);
    }

    proptest! {
        #[test]
        fn count_matches_iter(bits in proptest::collection::vec(any::<bool>(), 0..500)) {
            let bm = Bitmap::from_fn(bits.len(), |i| bits[i]);
            prop_assert_eq!(bm.count_ones(), bm.iter_ones().count());
            prop_assert_eq!(bm.count_ones(), bits.iter().filter(|&&b| b).count());
        }
    }
}

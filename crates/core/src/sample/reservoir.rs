//! Reservoir sampling (Li's Algorithm L).
//!
//! The stratified draw keeps one [`Reservoir`] per stratum (the paper's
//! "second pass"). Algorithm L never reads an item — which items it keeps
//! depends only on how many it is offered — so the draw offers each
//! reservoir a *count* ([`Reservoir::offer_count`]): the stream's ordinals,
//! which the caller resolves to rows wherever the rows live. It needs only
//! O(k·(1 + log(n/k))) random numbers, and the skips between two
//! replacements are one subtraction.

use rand::{Rng, RngExt};

/// Uniform without-replacement reservoir of fixed capacity.
#[derive(Debug, Clone)]
pub struct Reservoir {
    capacity: usize,
    items: Vec<u32>,
    seen: u64,
    /// Algorithm L state: current `W`.
    w: f64,
    /// Items left to skip before the next replacement.
    skip: u64,
}

impl Reservoir {
    /// Reservoir holding up to `capacity` items, using Algorithm L.
    pub fn new(capacity: usize) -> Self {
        Reservoir {
            capacity,
            items: Vec::with_capacity(capacity.min(1 << 20)),
            seen: 0,
            w: 1.0,
            skip: 0,
        }
    }

    /// Number of items offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Current number of held items (= min(capacity, seen)).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the reservoir holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Offer the next stream item.
    #[inline]
    pub fn offer(&mut self, item: u32, rng: &mut impl Rng) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
            if self.items.len() == self.capacity {
                self.advance_w(rng);
                self.compute_skip(rng);
            }
            return;
        }
        if self.capacity == 0 {
            return;
        }
        if self.skip > 0 {
            self.skip -= 1;
        } else {
            let slot = rng.random_range(0..self.capacity);
            self.items[slot] = item;
            self.advance_w(rng);
            self.compute_skip(rng);
        }
    }

    /// Offer the next `count` stream items, each its ordinal in the stream
    /// (`seen`, `seen + 1`, …): the same reservoir state and the same RNG
    /// draws in the same order as calling [`Reservoir::offer`] once per
    /// ordinal, for any split of a stream into counts. A full reservoir
    /// jumps its pending skip over the count instead of counting it down
    /// item by item, so the cost is the fills and replacements, not the
    /// count.
    pub fn offer_count(&mut self, count: u64, rng: &mut impl Rng) {
        let end = self.seen + count;
        if self.capacity == 0 {
            self.seen = end;
            return;
        }
        while self.seen < end {
            if self.items.len() == self.capacity && self.skip > 0 {
                let jump = self.skip.min(end - self.seen);
                self.skip -= jump;
                self.seen += jump;
            } else {
                // A fill or a replacement.
                let ordinal = u32::try_from(self.seen).expect("ordinals are u32 row positions");
                self.offer(ordinal, rng);
            }
        }
    }

    /// The sampled items (order unspecified).
    pub fn into_items(self) -> Vec<u32> {
        self.items
    }

    /// Borrow the sampled items.
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    #[inline]
    fn advance_w(&mut self, rng: &mut impl Rng) {
        // u ∈ (0, 1] so ln(u) is finite.
        let u: f64 = 1.0 - rng.random::<f64>();
        self.w *= (u.ln() / self.capacity as f64).exp();
    }

    #[inline]
    fn compute_skip(&mut self, rng: &mut impl Rng) {
        let u: f64 = 1.0 - rng.random::<f64>();
        self.skip = (u.ln() / (1.0 - self.w).ln()).floor() as u64;
    }
}

/// Sample `k` distinct values from `0..n` (Floyd's algorithm, O(k) expected).
pub fn sample_distinct(rng: &mut impl Rng, n: u64, k: usize) -> Vec<u64> {
    use std::collections::HashSet;
    let k = k.min(n as usize);
    if k == 0 {
        return Vec::new();
    }
    if (k as u64) == n {
        return (0..n).collect();
    }
    let mut chosen: HashSet<u64> = HashSet::with_capacity(k);
    let mut out = Vec::with_capacity(k);
    for j in (n - k as u64)..n {
        let t = rng.random_range(0..=j);
        if chosen.insert(t) {
            out.push(t);
        } else {
            chosen.insert(j);
            out.push(j);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_reservoir(n: u32, k: usize, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = Reservoir::new(k);
        for i in 0..n {
            r.offer(i, &mut rng);
        }
        r.into_items()
    }

    #[test]
    fn holds_all_when_stream_small() {
        let mut items = run_reservoir(5, 10, 1);
        items.sort_unstable();
        assert_eq!(items, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn exact_capacity() {
        let mut items = run_reservoir(1000, 100, 2);
        assert_eq!(items.len(), 100);
        items.sort_unstable();
        items.dedup();
        assert_eq!(items.len(), 100, "items must be distinct");
        assert!(items.iter().all(|&x| x < 1000));
    }

    #[test]
    fn zero_capacity() {
        assert!(run_reservoir(100, 0, 3).is_empty());
    }

    /// Each item should appear with probability ≈ k/n. With n=200, k=20 and
    /// 5000 trials the expected inclusion count is 500 with σ ≈ 21; the
    /// ±27% band is ≈ 6.4σ per item, comfortably safe across 200 checks.
    #[test]
    fn approximately_uniform() {
        let n = 200u32;
        let k = 20usize;
        let trials = 5000u64;
        let mut counts = vec![0u64; n as usize];
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..trials {
            let mut r = Reservoir::new(k);
            for i in 0..n {
                r.offer(i, &mut rng);
            }
            for item in r.into_items() {
                counts[item as usize] += 1;
            }
        }
        let expected = trials as f64 * k as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expected * 0.73 && (c as f64) < expected * 1.27,
                "item {i} sampled {c} times, expected ~{expected}"
            );
        }
        // Aggregate check: total inclusions are exactly trials × k.
        let total: u64 = counts.iter().sum();
        assert_eq!(total, trials * k as u64);
    }

    #[test]
    fn sample_distinct_properties() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = sample_distinct(&mut rng, 1000, 50);
        assert_eq!(s.len(), 50);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 50);
        assert!(sorted.iter().all(|&x| x < 1000));

        assert_eq!(sample_distinct(&mut rng, 10, 10), (0..10).collect::<Vec<_>>());
        assert_eq!(sample_distinct(&mut rng, 10, 20).len(), 10);
        assert!(sample_distinct(&mut rng, 10, 0).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// Offering a stream of ordinals as counts — any split of it —
        /// leaves the reservoir and the RNG exactly where per-item offers
        /// leave them.
        #[test]
        fn offer_count_equals_per_item_offers(
            n in 0usize..500,
            kind in 0usize..5,
            cuts in proptest::collection::vec(0usize..500, 0..5),
            seed in 0u64..1000,
        ) {
            let capacity = [0, 1, n / 7, n, n + 3][kind];

            let (mut one, mut one_rng) = (Reservoir::new(capacity), StdRng::seed_from_u64(seed));
            for ordinal in 0..n as u32 {
                one.offer(ordinal, &mut one_rng);
            }

            let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
            bounds.extend([0, n]);
            bounds.sort_unstable();
            let (mut counted, mut counted_rng) =
                (Reservoir::new(capacity), StdRng::seed_from_u64(seed));
            for window in bounds.windows(2) {
                counted.offer_count((window[1] - window[0]) as u64, &mut counted_rng);
            }

            proptest::prop_assert_eq!(counted.items(), one.items());
            proptest::prop_assert_eq!(
                (counted.seen, counted.skip, counted.w.to_bits()),
                (one.seen, one.skip, one.w.to_bits())
            );
            proptest::prop_assert_eq!(counted_rng.random::<u64>(), one_rng.random::<u64>());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_reservoir(500, 25, 99);
        let b = run_reservoir(500, 25, 99);
        assert_eq!(a, b);
    }
}

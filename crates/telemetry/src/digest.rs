//! Exact-percentile latency digests: a log-linear (HDR-style) sketch
//! over `u64` nanosecond values — the crate's one distribution type.
//!
//! Fixed 1–2–5 bucket histograms answer latency SLO questions badly: a
//! p99 read off a bucket whose bounds are 2 ms and 5 ms can be wrong by
//! 2.5×. A [`Digest`] instead stores values below 128 ns exactly and
//! everything above in sub-buckets of 7 mantissa bits per power of two,
//! bounding the relative quantile error at `2⁻⁷ < 0.8%` while keeping
//! the state mergeable (bucket-wise addition) and compact (a sparse
//! index→count map; a typical latency stream touches a few dozen
//! buckets).
//!
//! `count`, `sum`, `min`, and `max` are tracked exactly, and quantiles
//! are clamped into `[min, max]`, so `p0`/`p100` are always true
//! observed extremes.

use std::collections::BTreeMap;
use tm_testkit::json::Json;

/// Values strictly below this record exactly (one bucket per value).
const EXACT_LIMIT: u64 = 128;
/// Mantissa bits kept per power-of-two group above [`EXACT_LIMIT`].
const SUB_BITS: u32 = 7;

/// A mergeable log-linear quantile sketch with ≤0.8% relative error.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Digest {
    /// Sparse bucket-index → count map, ascending by index (and
    /// therefore by represented value).
    pub buckets: BTreeMap<u16, u64>,
    /// Total recorded values.
    pub count: u64,
    /// Exact sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

/// The bucket index a value lands in. Indices are monotone in the
/// value, exact below [`EXACT_LIMIT`], log-linear above.
pub fn bucket_index(v: u64) -> u16 {
    if v < EXACT_LIMIT {
        return v as u16;
    }
    let exp = 63 - v.leading_zeros(); // ≥ SUB_BITS since v ≥ 128
    let group = (exp - SUB_BITS + 1) as u16;
    let sub = ((v >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as u16;
    (group << SUB_BITS) | sub
}

/// The largest value that maps to bucket `idx` (the quantile estimate
/// reported for ranks landing in that bucket).
pub fn bucket_upper(idx: u16) -> u64 {
    let idx = idx as u64;
    if idx < EXACT_LIMIT {
        return idx;
    }
    let group = idx >> SUB_BITS;
    let sub = idx & ((1 << SUB_BITS) - 1);
    let exp = group as u32 + SUB_BITS - 1;
    ((EXACT_LIMIT + sub + 1) << (exp - SUB_BITS)) - 1
}

impl Digest {
    /// Records one value.
    pub fn record(&mut self, v: u64) {
        *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.count = self.count.saturating_add(1);
        self.sum += v as f64;
    }

    /// Folds another digest into this one (bucket-wise addition; exact
    /// extremes combine as min/max).
    pub fn merge(&mut self, other: &Digest) {
        if other.count == 0 {
            return;
        }
        for (idx, n) in &other.buckets {
            let c = self.buckets.entry(*idx).or_insert(0);
            *c = c.saturating_add(*n);
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.count = self.count.saturating_add(other.count);
        self.sum += other.sum;
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) of the recorded values, or
    /// `None` when empty. Exact for values below 128; within 0.8%
    /// relative error above; always clamped into `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, n) in &self.buckets {
            cum += n;
            if cum >= rank {
                return Some(bucket_upper(*idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Renders one digest entry for the metrics-report JSON.
    pub fn to_json(&self, name: &str) -> Json {
        let buckets = self
            .buckets
            .iter()
            .map(|(idx, n)| {
                Json::obj([("b", Json::Num(*idx as f64)), ("count", Json::Num(*n as f64))])
            })
            .collect();
        let q = |q: f64| Json::Num(self.quantile(q).unwrap_or(0) as f64);
        Json::obj([
            ("name", Json::str(name)),
            ("count", Json::Num(self.count as f64)),
            ("sum", Json::Num(self.sum)),
            ("min", Json::Num(self.min as f64)),
            ("max", Json::Num(self.max as f64)),
            ("p50", q(0.50)),
            ("p90", q(0.90)),
            ("p95", q(0.95)),
            ("p99", q(0.99)),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_testkit::rng::Rng;

    #[test]
    fn small_values_are_exact() {
        let mut d = Digest::default();
        for v in 0..128u64 {
            d.record(v);
        }
        assert_eq!(d.count, 128);
        assert_eq!(d.min, 0);
        assert_eq!(d.max, 127);
        // Every distinct small value occupies its own bucket, so every
        // quantile is an exactly-recorded value.
        assert_eq!(d.quantile(0.5), Some(63));
        assert_eq!(d.quantile(1.0), Some(127));
        assert_eq!(d.quantile(0.0), Some(0));
    }

    #[test]
    fn bucket_index_is_monotone_and_upper_bound_tight() {
        let mut prev_idx = 0u16;
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let idx = bucket_index(v);
            assert!(idx >= prev_idx, "index not monotone at v={v}");
            prev_idx = idx;
            let upper = bucket_upper(idx);
            assert!(upper >= v, "upper bound {upper} < value {v}");
            // Relative error of reporting `upper` for `v` is < 2^-7.
            let err = (upper - v) as f64 / v as f64;
            assert!(err < 1.0 / 127.0, "relative error {err} too large at v={v}");
            v = v * 3 + 1;
        }
    }

    #[test]
    fn quantiles_bounded_error_on_random_stream() {
        let mut rng = Rng::seed_from_u64(0x0d19e57);
        let mut d = Digest::default();
        let mut values: Vec<u64> = (0..5000)
            .map(|_| {
                // Log-uniform over ~9 decades, like latencies.
                let exp = rng.gen_range(0..30u32);
                (rng.next_u64() % 1000).saturating_add(1) << exp
            })
            .collect();
        for &v in &values {
            d.record(v);
        }
        values.sort_unstable();
        for &q in &[0.5, 0.9, 0.95, 0.99] {
            let exact = values[(((q * values.len() as f64).ceil() as usize) - 1).min(values.len() - 1)];
            let est = d.quantile(q).unwrap();
            let err = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(err < 0.01, "q={q}: est {est} vs exact {exact} (err {err})");
        }
        assert_eq!(d.quantile(0.0), Some(values[0]));
        assert_eq!(d.quantile(1.0), Some(*values.last().unwrap()));
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut rng = Rng::seed_from_u64(42);
        let mut a = Digest::default();
        let mut b = Digest::default();
        let mut all = Digest::default();
        for i in 0..2000 {
            let v = rng.next_u64() % 10_000_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all, "merge must equal recording the combined stream");
        // Merging an empty digest is the identity.
        let before = merged.clone();
        merged.merge(&Digest::default());
        assert_eq!(merged, before);
    }

    #[test]
    fn json_shape_has_ordered_percentiles() {
        let mut d = Digest::default();
        for v in [100u64, 2000, 300_000, 4_000_000] {
            d.record(v);
        }
        let j = d.to_json("serve.request_ns");
        let rendered = j.render();
        let parsed = Json::parse(&rendered).expect("parses");
        let p50 = parsed.get("p50").and_then(Json::as_num).unwrap();
        let p99 = parsed.get("p99").and_then(Json::as_num).unwrap();
        let min = parsed.get("min").and_then(Json::as_num).unwrap();
        let max = parsed.get("max").and_then(Json::as_num).unwrap();
        assert!(min <= p50 && p50 <= p99 && p99 <= max);
    }
}

//! A typed metrics registry: counters, gauges and log₂-bucket
//! histograms under static keys, with deterministic (sorted-key)
//! snapshots. The engine's scattered per-subsystem counters fold into
//! one of these; the JSON report serializes the snapshot.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::JsonWriter;

/// A log₂-bucketed histogram: bucket `i` holds values whose bit length
/// is `i` (bucket 0 holds zero), so `[1,1]→b1`, `[2,3]→b2`, `[4,7]→b3`…
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Per-bucket counts (65 buckets: bit lengths 0..=64).
    pub buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; 65],
        }
    }
}

impl Histogram {
    fn record(&mut self, v: u64) {
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.max = self.max.max(v);
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        let bucket = (u64::BITS - v.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
    }

    /// Mean of the recorded values (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// Thread-safe metrics store keyed by `&'static str`. Cheap enough to
/// update from any pipeline stage; a single mutex suffices because
/// updates are rare next to the work they annotate (never on the VM's
/// per-op path).
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Adds `n` to counter `key` (creating it at 0).
    pub fn count(&self, key: &'static str, n: u64) {
        *self.lock().counters.entry(key).or_insert(0) += n;
    }

    /// Sets gauge `key` to `v` (last write wins).
    pub fn gauge(&self, key: &'static str, v: f64) {
        self.lock().gauges.insert(key, v);
    }

    /// Records `v` into histogram `key`.
    pub fn observe(&self, key: &'static str, v: u64) {
        self.lock().histograms.entry(key).or_default().record(v);
    }

    /// Deterministic (key-sorted) copy of the current state.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        }
    }
}

/// Owned, sorted snapshot of a [`MetricsRegistry`]. Report code may add
/// derived entries (cache hit totals, shard counts) before serializing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counts.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time values.
    pub gauges: BTreeMap<String, f64>,
    /// Distributions.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{k:{count,sum,min,max,mean}}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes [`MetricsSnapshot::to_json`]'s object into `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("counters").object(|w| {
                for (k, v) in &self.counters {
                    w.field(k, v);
                }
            });
            w.key("gauges").object(|w| {
                for (k, v) in &self.gauges {
                    w.field(k, v);
                }
            });
            w.key("histograms").object(|w| {
                for (k, h) in &self.histograms {
                    w.key(k).object(|w| {
                        w.field("count", h.count)
                            .field("sum", h.sum)
                            .field("min", h.min)
                            .field("max", h.max)
                            .field("mean", h.mean());
                    });
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2,3
        assert_eq!(h.buckets[3], 2); // 4,7
        assert_eq!(h.buckets[4], 1); // 8
        assert_eq!(h.buckets[64], 1); // u64::MAX
    }

    #[test]
    fn snapshot_is_sorted_and_escapes_json() {
        let r = MetricsRegistry::new();
        r.count("b", 2);
        r.count("a", 1);
        r.gauge("g\"x", 1.5);
        r.observe("h", 3);
        let s = r.snapshot();
        let keys: Vec<&str> = s.counters.keys().map(String::as_str).collect();
        assert_eq!(keys, ["a", "b"]);
        let json = s.to_json();
        assert!(json.contains("\"a\":1"));
        assert!(json.contains("\"g\\\"x\":1.5"));
        assert!(json.contains("\"h\":{\"count\":1,\"sum\":3,"));
    }
}

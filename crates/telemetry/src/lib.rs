//! Lock-free telemetry spine for the Rijndael IP stack.
//!
//! The paper's value proposition is quantitative — cycles per block, bus
//! occupancy, throughput per device (Table 2) — so the live stack must be
//! able to report the same numbers at runtime, not only in offline
//! benches. This crate provides the shared instrumentation layer:
//!
//! * [`Counter`] — a monotone `u64` (blocks processed, requests served);
//! * [`Gauge`] — a signed point-in-time level (queue depth, connections);
//! * [`Histogram`] — a distribution (latency cycles, occupancy, frame
//!   sizes) with count/sum for mean derivation, on one log-linear bucket
//!   layout shared by every histogram: a bucket's upper bound is within
//!   25% of any value in it, so histograms need no bounds of their own
//!   and merge exactly;
//! * [`Registry`] — a named collection of instruments handing out cheap
//!   clonable handles; registration takes a lock once, the hot paths are
//!   pure atomics;
//! * [`Snapshot`] — a point-in-time copy that subtracts ([`Snapshot::delta`]),
//!   sums across registries ([`Snapshot::merge`]), renders as aligned
//!   human text, and serializes to the stable `telemetry/1` JSON schema
//!   via [`testkit::json`] — the same writer the bench harness uses, so
//!   bench output and live stats cannot drift. [`Snapshot::from_json`]
//!   is the one reader of that schema: every consumer of a `GET_STATS`
//!   reply, a node's or a fleet's, parses it back into a `Snapshot`.
//!
//! Handles are `Arc`-backed: cloning one is a pointer copy, and updates
//! from any thread are visible to every snapshot. Instruments are
//! registered idempotently — asking the registry for an existing name
//! returns a handle to the *same* underlying instrument, which is how
//! independent layers (engine cores, service sessions) aggregate into one
//! coherent snapshot.
//!
//! ```
//! let reg = telemetry::Registry::new();
//! let hits = reg.counter("cache.hits");
//! hits.add(3);
//! reg.counter("cache.hits").incr(); // same instrument
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("cache.hits"), Some(4));
//! assert!(snap.to_json().starts_with("{\"schema\":\"telemetry/1\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use testkit::json::{json_f64, json_string, Json};

/// A monotonically increasing event counter.
///
/// Cloning is cheap (an `Arc` bump); all clones share the same value.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed point-in-time level (queue depth, active connections).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative) and returns the new value, wrapping
    /// at the `i64` edges as the atomic add itself does.
    #[inline]
    pub fn add(&self, n: i64) -> i64 {
        self.0.fetch_add(n, Ordering::Relaxed).wrapping_add(n)
    }

    /// Subtracts `n` and returns the new value.
    #[inline]
    pub fn sub(&self, n: i64) -> i64 {
        self.add(-n)
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Buckets in the one histogram layout: 0..=3 exactly, then four equal
/// sub-buckets for each power of two from 2^2 to 2^63.
const BUCKETS: usize = 4 + 4 * 62;

/// The layout bucket holding `v`. Within `[2^k, 2^(k+1))` the buckets
/// are `2^(k-2)` wide, so a bucket's upper bound exceeds any value `x`
/// in it by less than `x / 4`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let k = 63 - v.leading_zeros();
    4 * (k as usize - 1) + ((v >> (k - 2)) & 3) as usize
}

/// The inclusive upper bound of layout bucket `i`; bucket
/// `BUCKETS - 1` ends at `u64::MAX`.
fn bucket_bound(i: usize) -> u64 {
    if i < 4 {
        return i as u64;
    }
    let width = 1u64 << (i / 4 - 1);
    (4 + (i % 4) as u64) * width + (width - 1)
}

#[derive(Debug)]
struct HistogramInner {
    /// One slot per bucket of the layout.
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A distribution: latencies, occupancies, frame sizes.
///
/// Every histogram shares one log-linear bucket layout: values 0 to 3
/// get a bucket each, and each power of two above splits into four
/// equal buckets, up to `u64::MAX`. A bucket's inclusive upper bound is
/// within 25% of any value in it. Recording finds the bucket from the
/// value's leading zeros and makes three relaxed atomic adds — no
/// locks, no allocation, no scan.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &*self.0;
        inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations recorded so far.
    #[inline]
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations recorded so far.
    #[inline]
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of instruments.
///
/// The registry itself is clonable and shareable (`Arc` inside); the map
/// lock is taken only at registration and snapshot time, never on the
/// instrument hot paths. Registering a name twice returns a handle to the
/// existing instrument (and panics if the kinds disagree — one name, one
/// meaning).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    instruments: Arc<Mutex<BTreeMap<String, Instrument>>>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide registry used by library-level instrumentation
    /// (the `rijndael` mode and bitslice-lane counters).
    #[must_use]
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Returns the counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.instruments.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Counter(Counter::default()))
        {
            Instrument::Counter(c) => c.clone(),
            other => panic!("instrument {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Returns the gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.instruments.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Gauge(Gauge::default()))
        {
            Instrument::Gauge(g) => g.clone(),
            other => panic!("instrument {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Returns the histogram named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    #[must_use]
    pub fn hist(&self, name: &str) -> Histogram {
        let mut map = self.instruments.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Histogram(Histogram::new()))
        {
            Instrument::Histogram(h) => h.clone(),
            other => panic!("instrument {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// [`Registry::hist`] under its old signature, which took bucket
    /// bounds; `bounds` is ignored. Kept only for the benchmark package
    /// (`perf_ledger/`), which still calls it, and deleted once that
    /// package calls `hist`.
    ///
    /// # Panics
    ///
    /// As [`Registry::hist`].
    #[must_use]
    pub fn histogram(&self, name: &str, _bounds: &[u64]) -> Histogram {
        self.hist(name)
    }

    /// Takes a point-in-time copy of every instrument, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let map = self.instruments.lock().unwrap();
        let entries = map
            .iter()
            .map(|(name, inst)| Entry {
                name: name.clone(),
                value: match inst {
                    Instrument::Counter(c) => Value::Counter(c.get()),
                    Instrument::Gauge(g) => Value::Gauge(g.get()),
                    Instrument::Histogram(h) => Value::Histogram(HistogramSnapshot {
                        buckets: Box::new(std::array::from_fn(|i| {
                            h.0.buckets[i].load(Ordering::Relaxed)
                        })),
                        count: h.count(),
                        sum: h.sum(),
                    }),
                },
            })
            .collect();
        Snapshot { entries }
    }
}

/// The captured value of one instrument inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A counter's total.
    Counter(u64),
    /// A gauge's level.
    Gauge(i64),
    /// A histogram's buckets, count and sum.
    Histogram(HistogramSnapshot),
}

impl Value {
    /// `self + other`, wrapping as the instruments' own atomic adds do,
    /// or `None` when the kinds differ.
    fn plus(self, other: &Value) -> Option<Value> {
        Some(match (self, other) {
            (Value::Counter(a), Value::Counter(b)) => Value::Counter(a.wrapping_add(*b)),
            (Value::Gauge(a), Value::Gauge(b)) => Value::Gauge(a.wrapping_add(*b)),
            (Value::Histogram(mut a), Value::Histogram(b)) => {
                for (x, y) in a.buckets.iter_mut().zip(b.buckets.iter()) {
                    *x = x.wrapping_add(*y);
                }
                a.count = a.count.wrapping_add(b.count);
                a.sum = a.sum.wrapping_add(b.sum);
                Value::Histogram(a)
            }
            _ => return None,
        })
    }

    /// One element of a `telemetry/1` document's `instruments` array,
    /// as [`Snapshot::to_json`] writes it.
    fn from_json(name: &str, item: &Json) -> Result<Value, String> {
        let uint = |field: &Json, what: &str| {
            field
                .as_u64()
                .ok_or_else(|| format!("{name:?}: {what} is not a u64"))
        };
        let member = |key: &str| {
            item.get(key)
                .ok_or_else(|| format!("{name:?}: no {key:?} member"))
        };
        Ok(match item.get("type").and_then(Json::as_str) {
            Some("counter") => Value::Counter(uint(member("value")?, "value")?),
            Some("gauge") => Value::Gauge(
                member("value")?
                    .as_i64()
                    .ok_or_else(|| format!("{name:?}: value is not an i64"))?,
            ),
            Some("histogram") => {
                // Each bucket names its layout bucket by its upper bound,
                // in increasing order. `mean` is derived.
                let mut buckets = Box::new([0; BUCKETS]);
                let mut next = 0;
                for bucket in member("buckets")?
                    .as_array()
                    .ok_or_else(|| format!("{name:?}: buckets is not an array"))?
                {
                    let le = uint(bucket.get("le").unwrap_or(&Json::Null), "le")?;
                    let i = bucket_index(le);
                    if bucket_bound(i) != le {
                        return Err(format!("{name:?}: le {le} is not a bucket bound"));
                    }
                    if i < next {
                        return Err(format!("{name:?}: le {le} is out of order"));
                    }
                    buckets[i] = uint(bucket.get("count").unwrap_or(&Json::Null), "bucket count")?;
                    next = i + 1;
                }
                Value::Histogram(HistogramSnapshot {
                    buckets,
                    count: uint(member("count")?, "count")?,
                    sum: uint(member("sum")?, "sum")?,
                })
            }
            _ => return Err(format!("{name:?}: unknown instrument type")),
        })
    }
}

/// Captured state of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts, one per bucket of the layout in increasing
    /// order: 0, 1, 2 and 3, then four equal buckets per power of two.
    pub buckets: Box<[u64; BUCKETS]>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The non-empty buckets as (inclusive upper bound, count) pairs,
    /// in increasing order.
    fn filled(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bound(i), c))
    }

    /// Mean observation, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q` quantile (`0.0 ..= 1.0`) to bucket precision: the
    /// inclusive upper bound `u` of the bucket holding the ⌈q·n⌉-th
    /// smallest of the `n` observations the buckets hold, so the exact
    /// quantile `x` satisfies `x ≤ u ≤ x + x/4`. `None` when the
    /// buckets are empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        // Wide sums: merged or hostile counts can pass u64::MAX.
        let n: u128 = self.buckets.iter().map(|&c| u128::from(c)).sum();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u128)
            .min(n)
            .max(1);
        let mut seen = 0u128;
        self.filled()
            .find(|&(_, c)| {
                seen += u128::from(c);
                seen >= rank
            })
            .map(|(le, _)| le)
    }
}

/// One named instrument captured in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The instrument's registered name.
    pub name: String,
    /// Its captured value.
    pub value: Value,
}

/// A point-in-time copy of a [`Registry`], sorted by instrument name.
///
/// Snapshots subtract: [`Snapshot::delta`] yields the activity between
/// two captures, which is how benches report per-phase figures from
/// process-lifetime instruments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    entries: Vec<Entry>,
}

impl Snapshot {
    /// The captured entries, sorted by name.
    #[must_use]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of captured instruments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing was captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn find(&self, name: &str) -> Option<&Value> {
        self.entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].value)
    }

    /// The captured value of counter `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.find(name)? {
            Value::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The captured value of gauge `name`, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.find(name)? {
            Value::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The captured state of histogram `name`, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.find(name)? {
            Value::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Sum of every counter whose name starts with `prefix` — how callers
    /// aggregate families like `engine.core.*.blocks`.
    #[must_use]
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name.starts_with(prefix))
            .filter_map(|e| match &e.value {
                Value::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// The activity between `earlier` and `self`: counters and histogram
    /// buckets subtract (saturating, so a restarted instrument reads as
    /// zero rather than wrapping), gauges keep their later level.
    /// Instruments absent from `earlier` pass through unchanged.
    #[must_use]
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let value = match (&e.value, earlier.find(&e.name)) {
                    (Value::Counter(now), Some(Value::Counter(then))) => {
                        Value::Counter(now.saturating_sub(*then))
                    }
                    (Value::Histogram(now), Some(Value::Histogram(then))) => {
                        Value::Histogram(HistogramSnapshot {
                            buckets: Box::new(std::array::from_fn(|i| {
                                now.buckets[i].saturating_sub(then.buckets[i])
                            })),
                            count: now.count.saturating_sub(then.count),
                            sum: now.sum.saturating_sub(then.sum),
                        })
                    }
                    _ => e.value.clone(),
                };
                Entry {
                    name: e.name.clone(),
                    value,
                }
            })
            .collect();
        Snapshot { entries }
    }

    /// Sums snapshots of several registries — one per node of a fleet —
    /// into one: counters, gauges, and histogram buckets, counts and
    /// sums add by name. Sums wrap as the instruments' atomic adds do,
    /// so the merge of registries that each saw part of the observations
    /// equals the snapshot of one registry that saw them all; histograms
    /// share one bucket layout, so their merge is exact. An instrument
    /// whose kind differs anywhere in `parts` is left out. The result
    /// does not depend on the order of `parts`.
    #[must_use]
    pub fn merge(parts: &[Snapshot]) -> Snapshot {
        let mut sums: BTreeMap<&str, Option<Value>> = BTreeMap::new();
        for e in parts.iter().flat_map(|s| &s.entries) {
            sums.entry(&e.name)
                .and_modify(|sum| *sum = sum.take().and_then(|sum| sum.plus(&e.value)))
                .or_insert_with(|| Some(e.value.clone()));
        }
        let entries = sums
            .into_iter()
            .filter_map(|(name, value)| {
                Some(Entry {
                    name: name.to_string(),
                    value: value?,
                })
            })
            .collect();
        Snapshot { entries }
    }

    /// Renders the snapshot as aligned human-readable text, one
    /// instrument per line.
    #[must_use]
    pub fn render_text(&self) -> String {
        let width = self.entries.iter().map(|e| e.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for e in &self.entries {
            match &e.value {
                Value::Counter(v) => {
                    out.push_str(&format!("counter    {:<width$}  {v}\n", e.name));
                }
                Value::Gauge(v) => {
                    out.push_str(&format!("gauge      {:<width$}  {v}\n", e.name));
                }
                Value::Histogram(h) => {
                    out.push_str(&format!(
                        "histogram  {:<width$}  count={} sum={} mean={:.1}",
                        e.name,
                        h.count,
                        h.sum,
                        h.mean()
                    ));
                    if let (Some(p50), Some(p99)) = (h.quantile(0.50), h.quantile(0.99)) {
                        out.push_str(&format!(" p50={p50} p99={p99}"));
                    }
                    for (le, c) in h.filled() {
                        out.push_str(&format!(" le{le}:{c}"));
                    }
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Serializes to the stable `telemetry/1` JSON schema:
    ///
    /// ```json
    /// {"schema":"telemetry/1","instruments":[
    ///   {"name":"a.hits","type":"counter","value":4},
    ///   {"name":"a.depth","type":"gauge","value":-1},
    ///   {"name":"a.lat","type":"histogram","count":2,"sum":70,"mean":35.000,
    ///    "buckets":[{"le":31,"count":1},{"le":47,"count":1}]}
    /// ]}
    /// ```
    ///
    /// Instruments appear sorted by name. A histogram lists only its
    /// non-empty buckets, each by its inclusive upper bound, in
    /// increasing order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let body = self
            .entries
            .iter()
            .map(|e| {
                let name = json_string(&e.name);
                match &e.value {
                    Value::Counter(v) => {
                        format!("{{\"name\":{name},\"type\":\"counter\",\"value\":{v}}}")
                    }
                    Value::Gauge(v) => {
                        format!("{{\"name\":{name},\"type\":\"gauge\",\"value\":{v}}}")
                    }
                    Value::Histogram(h) => {
                        let buckets = h
                            .filled()
                            .map(|(le, c)| format!("{{\"le\":{le},\"count\":{c}}}"))
                            .collect::<Vec<_>>()
                            .join(",");
                        format!(
                            "{{\"name\":{name},\"type\":\"histogram\",\"count\":{},\
                             \"sum\":{},\"mean\":{},\"buckets\":[{buckets}]}}",
                            h.count,
                            h.sum,
                            json_f64(h.mean()),
                        )
                    }
                }
            })
            .collect::<Vec<_>>()
            .join(",");
        format!("{{\"schema\":\"telemetry/1\",\"instruments\":[{body}]}}")
    }

    /// Reads a `telemetry/1` document back: the inverse of
    /// [`Snapshot::to_json`], so `from_json(&s.to_json()) == Ok(s)`.
    ///
    /// Counters parse as `u64` and gauges as `i64` straight from their
    /// text. A histogram is rebuilt from its buckets' `le`/`count`; each
    /// `le` must be a bucket bound of the layout, in increasing order.
    /// `mean` is ignored. Members this version does not know are ignored too, as
    /// the schema's additive changes require. Entries come back sorted
    /// by name.
    ///
    /// # Errors
    ///
    /// A message for text that is not JSON or not `telemetry/1`, and for
    /// a duplicate name, an unknown instrument type, a value out of its
    /// kind's range, or malformed histogram buckets.
    pub fn from_json(doc: &str) -> Result<Snapshot, String> {
        let json = Json::parse(doc)?;
        if json.get("schema").and_then(Json::as_str) != Some("telemetry/1") {
            return Err("not a telemetry/1 document".into());
        }
        let items = json
            .get("instruments")
            .and_then(Json::as_array)
            .ok_or("telemetry/1 document without an instruments array")?;
        let mut entries = items
            .iter()
            .map(|item| {
                let name = item
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("instrument without a name")?;
                Ok(Entry {
                    name: name.to_string(),
                    value: Value::from_json(name, item)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        if let Some(pair) = entries.windows(2).find(|w| w[0].name == w[1].name) {
            return Err(format!("instrument {:?} appears twice", pair[0].name));
        }
        Ok(Snapshot { entries })
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_gauges_and_histograms_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("c");
        c.add(2);
        c.incr();
        assert_eq!(c.get(), 3);

        let g = reg.gauge("g");
        g.set(5);
        assert_eq!(g.add(-2), 3);
        assert_eq!(g.sub(4), -1);
        assert_eq!(g.get(), -1);

        let h = reg.hist("h");
        h.record(5);
        h.record(50);
        h.record(5000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 5055);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(3));
        assert_eq!(snap.gauge("g"), Some(-1));
        let hs = snap.histogram("h").unwrap();
        // 5 has a bucket of its own; 50 shares [48, 55], 5000 [4096, 5119].
        let filled: Vec<_> = hs.filled().collect();
        assert_eq!(filled, [(5, 1), (55, 1), (5119, 1)]);
        assert_eq!(hs.quantile(0.5), Some(55));
        assert_eq!(hs.quantile(1.0), Some(5119));
        assert!((hs.mean() - 1685.0).abs() < 1e-9);
    }

    #[test]
    fn a_gauge_wraps_at_the_i64_edges_as_its_atomic_does() {
        let g = Registry::new().gauge("g");
        g.set(i64::MAX);
        assert_eq!(g.add(1), i64::MIN);
        assert_eq!(g.get(), i64::MIN);
        assert_eq!(g.sub(1), i64::MAX);
        assert_eq!(g.get(), i64::MAX);
    }

    #[test]
    fn quantiles_name_the_upper_bound_of_their_bucket() {
        let reg = Registry::new();
        let h = reg.hist("mixed");
        for _ in 0..95 {
            h.record(5);
        }
        for _ in 0..5 {
            h.record(99);
        }
        let hs = reg.snapshot().histogram("mixed").unwrap().clone();
        assert_eq!(hs.quantile(0.50), Some(5));
        // 99 lands in [96, 111].
        assert_eq!(hs.quantile(0.99), Some(111));
        // No value is too large for the layout.
        reg.hist("top").record(u64::MAX);
        // An empty histogram is the only "no data" case.
        let _ = reg.hist("empty");
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("top").unwrap().quantile(0.5), Some(u64::MAX));
        assert_eq!(snap.histogram("empty").unwrap().quantile(0.99), None);
        let text = snap.render_text();
        assert!(
            text.contains("p50=5 p99=111 le5:95 le111:5\n"),
            "got: {text}"
        );
    }

    #[test]
    fn registration_is_idempotent_and_shares_the_instrument() {
        let reg = Registry::new();
        reg.counter("same").add(1);
        reg.counter("same").add(1);
        assert_eq!(reg.snapshot().counter("same"), Some(2));
        let h1 = reg.hist("lat");
        let h2 = reg.hist("lat");
        h1.record(7);
        assert_eq!(h2.count(), 1);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn snapshot_accessors_reject_wrong_kinds_and_missing_names() {
        let reg = Registry::new();
        let _ = reg.counter("c");
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("c"), None);
        assert_eq!(snap.counter("missing"), None);
        assert!(snap.histogram("c").is_none());
        assert_eq!(snap.len(), 1);
        assert!(!snap.is_empty());
    }

    #[test]
    fn counter_sum_aggregates_by_prefix() {
        let reg = Registry::new();
        reg.counter("core.0.blocks").add(3);
        reg.counter("core.1.blocks").add(4);
        reg.counter("other").add(100);
        reg.gauge("core.depth").set(9); // gauges don't count
        assert_eq!(reg.snapshot().counter_sum("core."), 7);
    }

    #[test]
    fn delta_subtracts_counters_and_histograms_but_not_gauges() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let g = reg.gauge("g");
        let h = reg.hist("h");
        c.add(5);
        g.set(1);
        h.record(3);
        let before = reg.snapshot();
        c.add(2);
        g.set(9);
        h.record(30);
        let after = reg.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.counter("c"), Some(2));
        assert_eq!(d.gauge("g"), Some(9));
        let hs = d.histogram("h").unwrap();
        assert_eq!((hs.count, hs.sum), (1, 30));
        assert_eq!(hs.filled().collect::<Vec<_>>(), [(31, 1)]);
        // An instrument born after `before` passes through unchanged.
        reg.counter("new").add(4);
        assert_eq!(reg.snapshot().delta(&before).counter("new"), Some(4));
    }

    #[test]
    fn text_and_json_are_stable() {
        let reg = Registry::new();
        reg.counter("b.count").add(4);
        reg.gauge("a.depth").set(-1);
        reg.hist("c.lat").record(20);
        let _ = reg.hist("d.idle");
        let snap = reg.snapshot();
        let text = snap.render_text();
        // Sorted by name, one line each.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("gauge") && lines[0].contains("a.depth"));
        assert!(lines[1].starts_with("counter") && lines[1].contains("b.count  4"));
        assert!(lines[2].ends_with("p50=23 p99=23 le23:1"));
        assert!(lines[3].ends_with("count=0 sum=0 mean=0.0"));
        assert_eq!(format!("{snap}"), text);

        let json = snap.to_json();
        assert_eq!(
            json,
            "{\"schema\":\"telemetry/1\",\"instruments\":[\
             {\"name\":\"a.depth\",\"type\":\"gauge\",\"value\":-1},\
             {\"name\":\"b.count\",\"type\":\"counter\",\"value\":4},\
             {\"name\":\"c.lat\",\"type\":\"histogram\",\"count\":1,\"sum\":20,\
             \"mean\":20.000,\"buckets\":[{\"le\":23,\"count\":1}]},\
             {\"name\":\"d.idle\",\"type\":\"histogram\",\"count\":0,\"sum\":0,\
             \"mean\":0.000,\"buckets\":[]}]}"
        );
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let name = "telemetry.selftest.global";
        let c = Registry::global().counter(name);
        let before = c.get();
        Registry::global().counter(name).add(2);
        assert_eq!(c.get(), before + 2);
    }

    #[test]
    fn eight_threads_hammering_one_registry_keep_exact_totals() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let reg = Registry::new();
        // Pre-register so every thread shares the same instruments.
        let _ = reg.counter("hammer.count");
        let _ = reg.hist("hammer.lat");

        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let reg = reg.clone();
                thread::spawn(move || {
                    let c = reg.counter("hammer.count");
                    let g = reg.gauge(&format!("hammer.level.{t}"));
                    let h = reg.hist("hammer.lat");
                    let mut monotone_floor = 0u64;
                    for i in 0..PER_THREAD {
                        c.incr();
                        g.set(i as i64);
                        h.record(i % 7);
                        // Snapshots taken mid-hammer must be monotone in
                        // every counter (each thread checks the shared
                        // counter never goes backwards).
                        if i % 1000 == 0 {
                            let seen = reg.snapshot().counter("hammer.count").unwrap();
                            assert!(
                                seen >= monotone_floor,
                                "counter went backwards: {seen} < {monotone_floor}"
                            );
                            monotone_floor = seen;
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let snap = reg.snapshot();
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(snap.counter("hammer.count"), Some(total));
        let h = snap.histogram("hammer.lat").unwrap();
        assert_eq!(h.count, total);
        assert_eq!(h.buckets.iter().sum::<u64>(), total);
        // 0..PER_THREAD mod 7 per thread: values 0 to 6 each have a bucket.
        for v in 0..7 {
            let per_thread = (0..PER_THREAD).filter(|i| i % 7 == v).count() as u64;
            assert_eq!(h.buckets[v as usize], THREADS as u64 * per_thread);
        }
        for t in 0..THREADS {
            assert_eq!(
                snap.gauge(&format!("hammer.level.{t}")),
                Some(PER_THREAD as i64 - 1)
            );
        }
    }
}

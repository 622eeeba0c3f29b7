//! Lock-free telemetry spine for the Rijndael IP stack.
//!
//! The paper's value proposition is quantitative — cycles per block, bus
//! occupancy, throughput per device (Table 2) — so the live stack must be
//! able to report the same numbers at runtime, not only in offline
//! benches. This crate provides the shared instrumentation layer:
//!
//! * [`Counter`] — a monotone `u64` (blocks processed, requests served);
//! * [`Gauge`] — a signed point-in-time level (queue depth, connections);
//! * [`Histogram`] — fixed-bucket distribution (latency cycles,
//!   occupancy, frame sizes) with count/sum for mean derivation;
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

    /// Adds `n` (may be negative) and returns the new value.
    #[inline]
    pub fn add(&self, n: i64) -> i64 {
        self.0.fetch_add(n, Ordering::Relaxed) + n
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

#[derive(Debug)]
struct HistogramInner {
    /// Inclusive upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<u64>,
    /// One slot per bound plus a final overflow (`+Inf`) bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket distribution: latencies, occupancies, frame sizes.
///
/// Buckets are defined by inclusive upper bounds chosen at registration;
/// a value larger than every bound lands in the implicit overflow bucket.
/// Recording is a short linear scan plus three relaxed atomic adds — no
/// locks, no allocation.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &*self.0;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(inner.bounds.len());
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
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

    /// Returns the histogram named `name`, registering it with `bounds`
    /// (strictly increasing inclusive upper bounds) on first use. Later
    /// calls return the existing instrument; its original bounds win.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind, or if
    /// `bounds` is not strictly increasing.
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut map = self.instruments.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Histogram(Histogram::new(bounds)))
        {
            Instrument::Histogram(h) => h.clone(),
            other => panic!("instrument {name:?} is a {}, not a histogram", other.kind()),
        }
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
                    Instrument::Histogram(h) => {
                        let inner = &*h.0;
                        Value::Histogram(HistogramSnapshot {
                            bounds: inner.bounds.clone(),
                            buckets: inner
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                            count: h.count(),
                            sum: h.sum(),
                        })
                    }
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
    /// or `None` when the kinds or the histogram bounds differ.
    fn plus(self, other: &Value) -> Option<Value> {
        Some(match (self, other) {
            (Value::Counter(a), Value::Counter(b)) => Value::Counter(a.wrapping_add(*b)),
            (Value::Gauge(a), Value::Gauge(b)) => Value::Gauge(a.wrapping_add(*b)),
            (Value::Histogram(mut a), Value::Histogram(b)) if a.bounds == b.bounds => {
                for (x, y) in a.buckets.iter_mut().zip(&b.buckets) {
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
                let buckets = member("buckets")?
                    .as_array()
                    .ok_or_else(|| format!("{name:?}: buckets is not an array"))?;
                // Every bucket but the last has a finite bound; the last
                // is the overflow bucket, `le:null`. `mean` is derived.
                let Some((overflow, finite)) = buckets.split_last() else {
                    return Err(format!("{name:?}: no buckets"));
                };
                if overflow.get("le") != Some(&Json::Null) {
                    return Err(format!("{name:?}: last bucket is not le:null"));
                }
                let mut bounds = Vec::with_capacity(finite.len());
                for bucket in finite {
                    let le = uint(bucket.get("le").unwrap_or(&Json::Null), "le")?;
                    if bounds.last().is_some_and(|&prev| prev >= le) {
                        return Err(format!("{name:?}: bounds are not strictly increasing"));
                    }
                    bounds.push(le);
                }
                let counts = buckets
                    .iter()
                    .map(|b| uint(b.get("count").unwrap_or(&Json::Null), "bucket count"))
                    .collect::<Result<_, _>>()?;
                Value::Histogram(HistogramSnapshot {
                    bounds,
                    buckets: counts,
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
    /// Inclusive upper bounds of the finite buckets.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one entry per bound plus the final overflow
    /// bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
}

/// A bucketed quantile estimate from [`HistogramSnapshot::quantile`].
///
/// Fixed-bucket histograms cannot name an exact quantile, only the
/// bucket it fell in. A quantile that lands in a finite bucket is
/// *at most* that bucket's bound; one that lands in the overflow
/// bucket is *at least* the last finite bound — still a real number a
/// dashboard can print, where the old `None` read as "no data" exactly
/// when the tail was hottest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantileEstimate {
    /// The quantile is at or below this finite bucket bound.
    AtMost(u64),
    /// The quantile landed in the overflow bucket: it is at least this
    /// value (the last finite bound, or 0 for a histogram with no
    /// finite buckets). Treat it as a lower bound, not an estimate.
    Overflow(u64),
}

impl QuantileEstimate {
    /// The bucket bound either way: an upper bound for
    /// [`QuantileEstimate::AtMost`], a lower bound for
    /// [`QuantileEstimate::Overflow`].
    #[must_use]
    pub fn bound(self) -> u64 {
        match self {
            QuantileEstimate::AtMost(b) | QuantileEstimate::Overflow(b) => b,
        }
    }

    /// `true` when the quantile fell in the overflow bucket and
    /// [`QuantileEstimate::bound`] is only a lower bound.
    #[must_use]
    pub fn is_overflow(self) -> bool {
        matches!(self, QuantileEstimate::Overflow(_))
    }
}

impl fmt::Display for QuantileEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantileEstimate::AtMost(b) => write!(f, "{b}"),
            QuantileEstimate::Overflow(b) => write!(f, ">{b}"),
        }
    }
}

impl HistogramSnapshot {
    /// Mean observation, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucketed estimate of the `q` quantile (`0.0 ..= 1.0`): the
    /// smallest bucket at which the cumulative count reaches
    /// `q * count`. Returns `None` only when the histogram is empty; a
    /// quantile that lands in the overflow bucket comes back as
    /// [`QuantileEstimate::Overflow`] carrying the last finite bound as
    /// a lower bound, so a hot p99 is still a number instead of
    /// reading as "no data".
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<QuantileEstimate> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Some(match self.bounds.get(i) {
                    Some(&b) => QuantileEstimate::AtMost(b),
                    None => QuantileEstimate::Overflow(self.bounds.last().copied().unwrap_or(0)),
                });
            }
        }
        // Unreachable in practice (count equals the bucket sum), but a
        // racing snapshot could observe count ahead of the buckets.
        Some(QuantileEstimate::Overflow(
            self.bounds.last().copied().unwrap_or(0),
        ))
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
                    (Value::Histogram(now), Some(Value::Histogram(then)))
                        if now.bounds == then.bounds =>
                    {
                        Value::Histogram(HistogramSnapshot {
                            bounds: now.bounds.clone(),
                            buckets: now
                                .buckets
                                .iter()
                                .zip(&then.buckets)
                                .map(|(n, t)| n.saturating_sub(*t))
                                .collect(),
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
    /// equals the snapshot of one registry that saw them all. An
    /// instrument whose kind or histogram bounds differ anywhere in
    /// `parts` is left out, so a merged histogram is exact or absent.
    /// The result does not depend on the order of `parts`.
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
                    // Quantiles render even when they land in the
                    // overflow bucket (as ">last-finite-bound").
                    if let (Some(p50), Some(p99)) = (h.quantile(0.50), h.quantile(0.99)) {
                        out.push_str(&format!(" p50={p50} p99={p99}"));
                    }
                    for (i, c) in h.buckets.iter().enumerate() {
                        match h.bounds.get(i) {
                            Some(b) => out.push_str(&format!(" le{b}:{c}")),
                            None => out.push_str(&format!(" inf:{c}")),
                        }
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
    ///    "buckets":[{"le":50,"count":2},{"le":null,"count":0}]}
    /// ]}
    /// ```
    ///
    /// Instruments appear sorted by name; the final histogram bucket is
    /// the overflow bucket with `"le":null`.
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
                            .buckets
                            .iter()
                            .enumerate()
                            .map(|(i, c)| match h.bounds.get(i) {
                                Some(b) => format!("{{\"le\":{b},\"count\":{c}}}"),
                                None => format!("{{\"le\":null,\"count\":{c}}}"),
                            })
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
    /// text. A histogram is rebuilt from its buckets' `le`/`count`, the
    /// last bucket (`le:null`) being the overflow bucket; `mean` is
    /// ignored. Members this version does not know are ignored too, as
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

        let h = reg.histogram("h", &[10, 100]);
        h.record(5);
        h.record(50);
        h.record(5000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 5055);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(3));
        assert_eq!(snap.gauge("g"), Some(-1));
        let hs = snap.histogram("h").unwrap();
        assert_eq!(hs.buckets, vec![1, 1, 1]);
        assert_eq!(hs.quantile(0.5), Some(QuantileEstimate::AtMost(100)));
        // The top quantile lands in the overflow bucket: still a number
        // (the last finite bound, as a lower bound), never "no data".
        assert_eq!(hs.quantile(1.0), Some(QuantileEstimate::Overflow(100)));
        assert!((hs.mean() - 1685.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_survive_the_overflow_bucket() {
        let reg = Registry::new();
        let h = reg.histogram("hot", &[10, 20]);
        // Every observation overflows: p50 and p99 must still report.
        for _ in 0..100 {
            h.record(1_000);
        }
        let hs = reg.snapshot().histogram("hot").unwrap().clone();
        let p50 = hs.quantile(0.50).expect("p50 reports");
        let p99 = hs.quantile(0.99).expect("p99 reports");
        assert_eq!(p50, QuantileEstimate::Overflow(20));
        assert!(p99.is_overflow() && p99.bound() == 20);
        assert_eq!(p99.to_string(), ">20");
        // A mixed distribution: p50 finite, p99 overflowed.
        let h = reg.histogram("mixed", &[10, 20]);
        for _ in 0..95 {
            h.record(5);
        }
        for _ in 0..5 {
            h.record(99);
        }
        let hs = reg.snapshot().histogram("mixed").unwrap().clone();
        assert_eq!(hs.quantile(0.50), Some(QuantileEstimate::AtMost(10)));
        assert_eq!(hs.quantile(0.99), Some(QuantileEstimate::Overflow(20)));
        // Empty histograms are the only "no data" case.
        let empty = reg.histogram("empty", &[1]);
        assert_eq!(empty.count(), 0);
        assert_eq!(
            reg.snapshot().histogram("empty").unwrap().quantile(0.99),
            None
        );
        // Degenerate: no finite buckets at all still reports a bound.
        let bare = reg.histogram("bare", &[]);
        bare.record(7);
        assert_eq!(
            reg.snapshot().histogram("bare").unwrap().quantile(0.5),
            Some(QuantileEstimate::Overflow(0))
        );
        // render_text carries the quantile columns, overflow marked.
        let text = reg.snapshot().render_text();
        assert!(text.contains("p50=>20 p99=>20"), "got: {text}");
        assert!(text.contains("p50=10 p99=>20"), "got: {text}");
    }

    #[test]
    fn registration_is_idempotent_and_shares_the_instrument() {
        let reg = Registry::new();
        reg.counter("same").add(1);
        reg.counter("same").add(1);
        assert_eq!(reg.snapshot().counter("same"), Some(2));
        // Histogram bounds from the first registration win.
        let h1 = reg.histogram("lat", &[10]);
        let h2 = reg.histogram("lat", &[99, 100]);
        h1.record(7);
        assert_eq!(h2.count(), 1);
        assert_eq!(reg.snapshot().histogram("lat").unwrap().bounds, vec![10]);
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
        let h = reg.histogram("h", &[10]);
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
        assert_eq!(hs.buckets, vec![0, 1]);
        // An instrument born after `before` passes through unchanged.
        reg.counter("new").add(4);
        assert_eq!(reg.snapshot().delta(&before).counter("new"), Some(4));
    }

    #[test]
    fn text_and_json_are_stable() {
        let reg = Registry::new();
        reg.counter("b.count").add(4);
        reg.gauge("a.depth").set(-1);
        reg.histogram("c.lat", &[50]).record(20);
        let snap = reg.snapshot();
        let text = snap.render_text();
        // Sorted by name, one line each.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("gauge") && lines[0].contains("a.depth"));
        assert!(lines[1].starts_with("counter") && lines[1].contains("b.count  4"));
        assert!(lines[2].contains("le50:1") && lines[2].contains("inf:0"));
        assert_eq!(format!("{snap}"), text);

        let json = snap.to_json();
        assert_eq!(
            json,
            "{\"schema\":\"telemetry/1\",\"instruments\":[\
             {\"name\":\"a.depth\",\"type\":\"gauge\",\"value\":-1},\
             {\"name\":\"b.count\",\"type\":\"counter\",\"value\":4},\
             {\"name\":\"c.lat\",\"type\":\"histogram\",\"count\":1,\"sum\":20,\
             \"mean\":20.000,\"buckets\":[{\"le\":50,\"count\":1},\
             {\"le\":null,\"count\":0}]}]}"
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
        let _ = reg.histogram("hammer.lat", &[2, 5]);

        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let reg = reg.clone();
                thread::spawn(move || {
                    let c = reg.counter("hammer.count");
                    let g = reg.gauge(&format!("hammer.level.{t}"));
                    let h = reg.histogram("hammer.lat", &[2, 5]);
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
        // 0..PER_THREAD mod 7 per thread: values 0,1,2 -> le2 bucket, etc.
        let per_thread_le2 = (0..PER_THREAD).filter(|i| i % 7 <= 2).count() as u64;
        assert_eq!(h.buckets[0], THREADS as u64 * per_thread_le2);
        for t in 0..THREADS {
            assert_eq!(
                snap.gauge(&format!("hammer.level.{t}")),
                Some(PER_THREAD as i64 - 1)
            );
        }
    }
}

//! Numbers out of samples and out of the service's `GET_STATS` reply.
//!
//! The service answers `GET_STATS` with a `telemetry/1` JSON document;
//! the telemetry crate writes that format but has no reader, so this
//! module carries a small JSON reader and the per-window delta the
//! ledger needs: counters and histogram count/sum subtract, gauges keep
//! their later level.

use std::collections::BTreeMap;
use std::time::Duration;

/// A parsed JSON value. Numbers keep their source text so that `u64`
/// counters survive without a trip through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as written.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.ws();
        if p.at != p.s.len() {
            return Err(format!("trailing bytes at offset {}", p.at));
        }
        Ok(value)
    }

    /// The member `key` of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A number as `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// A non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// A string's contents.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An array's elements.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.at))
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", byte as char))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.s[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            self.err("unknown literal")
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if *c == b'-' || c.is_ascii_digit() => {
                let start = self.at;
                while self
                    .s
                    .get(self.at)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.at]).expect("ASCII digits");
                Ok(Json::Num(text.to_string()))
            }
            _ => self.err("expected a value"),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.ws();
        if self.s.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            members.push((key, self.value()?));
            self.ws();
            match self.s.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.s.get(self.at) == Some(&b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.s.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.at) != Some(&b'"') {
            return self.err("expected a string");
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.at) else {
                return self.err("unterminated string");
            };
            self.at += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.s.get(self.at) else {
                        return self.err("unterminated escape");
                    };
                    self.at += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            let Some(ch) = hex else {
                                return self.err("bad \\u escape");
                            };
                            self.at += 4;
                            out.extend_from_slice(ch.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).or_else(|_| self.err("string is not UTF-8"))
    }
}

/// One node's instruments from a `GET_STATS` reply: what the ledger
/// reads, keyed by instrument name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram `(count, sum)` pairs.
    pub histograms: BTreeMap<String, (u64, u64)>,
}

impl ServerStats {
    /// Reads a `telemetry/1` document.
    ///
    /// # Errors
    ///
    /// A message when the text is not JSON or not the expected schema.
    pub fn parse(doc: &str) -> Result<ServerStats, String> {
        let json = Json::parse(doc)?;
        if json.get("schema").and_then(Json::as_str) != Some("telemetry/1") {
            return Err("GET_STATS reply is not a telemetry/1 document".into());
        }
        let items = json
            .get("instruments")
            .and_then(Json::as_array)
            .ok_or("telemetry/1 document without instruments")?;
        let mut stats = ServerStats::default();
        for item in items {
            let name = item
                .get("name")
                .and_then(Json::as_str)
                .ok_or("instrument without a name")?
                .to_string();
            let field = |key: &str| item.get(key).ok_or(format!("{name}: no {key}"));
            match item.get("type").and_then(Json::as_str) {
                Some("counter") => {
                    let v = field("value")?.as_u64().ok_or("counter is not a u64")?;
                    stats.counters.insert(name, v);
                }
                Some("gauge") => {
                    let v = field("value")?.as_f64().ok_or("gauge is not a number")?;
                    stats.gauges.insert(name, v as i64);
                }
                Some("histogram") => {
                    let count = field("count")?.as_u64().ok_or("bad histogram count")?;
                    let sum = field("sum")?.as_u64().ok_or("bad histogram sum")?;
                    stats.histograms.insert(name, (count, sum));
                }
                _ => return Err(format!("{name}: unknown instrument type")),
            }
        }
        Ok(stats)
    }

    /// Activity between `earlier` and `self`.
    #[must_use]
    pub fn since(&self, earlier: &ServerStats) -> ServerStats {
        let before = |name: &str| earlier.counters.get(name).copied().unwrap_or(0);
        ServerStats {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(before(k))))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, &(count, sum))| {
                    let (c0, s0) = earlier.histograms.get(k).copied().unwrap_or((0, 0));
                    (
                        k.clone(),
                        (count.saturating_sub(c0), sum.saturating_sub(s0)),
                    )
                })
                .collect(),
        }
    }

    /// Adds another node's activity into this one (counters, gauges and
    /// histograms all sum), for fleet-wide audits.
    pub fn absorb(&mut self, other: &ServerStats) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_default() += v;
        }
        for (k, &(count, sum)) in &other.histograms {
            let slot = self.histograms.entry(k.clone()).or_default();
            slot.0 += count;
            slot.1 += sum;
        }
    }

    /// A histogram's mean over the window, `None` when it saw nothing.
    #[must_use]
    pub fn mean(&self, name: &str) -> Option<f64> {
        let &(count, sum) = self.histograms.get(name)?;
        (count > 0).then(|| sum as f64 / count as f64)
    }

    /// Instruments the node has registered.
    #[must_use]
    pub fn instruments(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }
}

/// Target length of one slice of a measured window.
pub const SLICE: Duration = Duration::from_secs(1);

/// Timed samples from one measured window, cut into slices of about
/// [`SLICE`] for per-slice statistics.
///
/// A run's numbers are medians over slices: on a shared virtual
/// machine noise comes in bursts of a second or two, and a median over
/// many short slices ignores a burst that a mean over the whole window
/// would absorb.
#[derive(Debug, Clone, Default)]
pub struct Series {
    span: Duration,
    /// (offset into the window, value) pairs.
    points: Vec<(Duration, u64)>,
}

impl Series {
    /// An empty series over a measured window of `span`.
    #[must_use]
    pub fn new(span: Duration) -> Series {
        Series {
            span,
            points: Vec::new(),
        }
    }

    /// Records `value` at `offset` into the window; offsets past the end
    /// count in the last slice.
    pub fn push(&mut self, offset: Duration, value: u64) {
        self.points.push((offset, value));
    }

    /// Every value, in recording order.
    pub fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.points.iter().map(|&(_, v)| v)
    }

    /// Whole slices in the window (at least one) and their length.
    fn slicing(&self) -> (usize, Duration) {
        let n = ((self.span.as_secs_f64() / SLICE.as_secs_f64()) as usize).max(1);
        (n, self.span / n as u32)
    }

    fn by_slice(&self) -> Vec<Vec<(Duration, u64)>> {
        let (n, len) = self.slicing();
        let mut slices = vec![Vec::new(); n];
        for &(at, v) in &self.points {
            let i = if len.is_zero() {
                0
            } else {
                ((at.as_nanos() / len.as_nanos()) as usize).min(n - 1)
            };
            slices[i].push((at, v));
        }
        slices
    }

    /// The `q` quantile of the values in each slice that has any.
    #[must_use]
    pub fn slice_quantiles(&self, q: f64) -> Vec<f64> {
        self.by_slice()
            .into_iter()
            .filter(|s| !s.is_empty())
            .map(|s| {
                let mut values: Vec<u64> = s.iter().map(|&(_, v)| v).collect();
                quantile(&mut values, q) as f64
            })
            .collect()
    }

    /// Points per second in each slice with at least two points, from
    /// the gaps between its first and last point (a count over the
    /// slice's length would only take whole-point steps).
    #[must_use]
    pub fn slice_rates(&self) -> Vec<f64> {
        self.by_slice()
            .iter()
            .filter(|s| s.len() >= 2)
            .map(|s| {
                let first = s.iter().map(|&(at, _)| at).min().expect("two points");
                let last = s.iter().map(|&(at, _)| at).max().expect("two points");
                (s.len() - 1) as f64 / (last - first).as_secs_f64()
            })
            .filter(|r| r.is_finite())
            .collect()
    }
}

/// The `q` quantile of `samples` by nearest rank; sorts in place.
/// Returns 0 for an empty slice.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

/// The median of `values` (mean of the middle pair for even lengths);
/// NaN for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_telemetry_document_and_subtracts_windows() {
        let reg = telemetry::Registry::new();
        reg.counter("service.op.ping.requests").add(3);
        reg.gauge("service.pipeline.inflight").set(-2);
        reg.histogram("service.loop.dispatch_micros", &[10, 50])
            .record(7);
        let before = ServerStats::parse(&reg.snapshot().to_json()).unwrap();
        reg.counter("service.op.ping.requests").add(2);
        reg.histogram("service.loop.dispatch_micros", &[10, 50])
            .record(40);
        let after = ServerStats::parse(&reg.snapshot().to_json()).unwrap();
        let window = after.since(&before);
        assert_eq!(window.counters["service.op.ping.requests"], 2);
        assert_eq!(window.gauges["service.pipeline.inflight"], -2);
        assert_eq!(window.mean("service.loop.dispatch_micros"), Some(40.0));
        assert_eq!(window.instruments(), 3);
    }

    #[test]
    fn json_reader_handles_escapes_nesting_and_errors() {
        let doc = Json::parse(r#"{"a":[1,-2.5e3,true,null],"b":"x\"A"}"#).unwrap();
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x\"A"));
        let items = doc.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(items[1].as_f64(), Some(-2500.0));
        assert_eq!(items[3], Json::Null);
        assert!(Json::parse(r#"{"a":}"#).is_err());
        assert!(Json::parse("[1] x").is_err());
    }

    #[test]
    fn series_cut_into_whole_slices() {
        let mut s = Series::new(Duration::from_millis(2500));
        for ms in [0u64, 100, 900, 1000, 1100, 2400, 3000] {
            s.push(Duration::from_millis(ms), ms);
        }
        // Two slices of 1.25 s; the 3 s point lands in the last one.
        assert_eq!(s.slice_quantiles(0.5), vec![900.0, 2400.0]);
        // Four gaps over 1.1 s, then one gap over 0.6 s.
        assert_eq!(s.slice_rates(), vec![4.0 / 1.1, 1.0 / 0.6]);
        let mut short = Series::new(Duration::from_millis(300));
        short.push(Duration::from_millis(10), 0);
        assert!(short.slice_rates().is_empty());
    }

    #[test]
    fn nearest_rank_quantiles_and_medians() {
        let mut s = vec![5, 1, 4, 2, 3];
        assert_eq!(quantile(&mut s, 0.5), 3);
        assert_eq!(quantile(&mut s, 0.9), 5);
        assert_eq!(quantile(&mut [], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

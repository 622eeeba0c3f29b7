//! Laws for the one `telemetry/1` reader, [`Snapshot::from_json`], for
//! [`Snapshot::merge`], and for the one histogram layout:
//!
//! * (a) round trip: `from_json(&s.to_json()) == Ok(s)` over seeded
//!   registries whose names carry quotes, backslashes and control
//!   characters, with counters up to `u64::MAX`, gauges across the whole
//!   `i64` range, and empty histograms and ones holding 0 and `u64::MAX`;
//! * (b) merge: observations dealt across k registries merge, in any
//!   order, to the snapshot of one registry that saw them all, and an
//!   instrument whose kind disagrees is left out in every order;
//! * (c) robustness: every prefix of a real `GET_STATS` reply, and seeded
//!   byte flips in it, give `Err` or a snapshot, never a panic;
//! * (d) quantile: `quantile(q)` is the upper bound `u` of a bucket with
//!   `x ≤ u ≤ x + x/4`, `x` the exact ⌈q·n⌉-th smallest sample;
//! * (e) index: every bucket's lower and upper edge is recorded in the
//!   bucket a scan of the layout's bounds picks, and `from_json` accepts
//!   only those bounds, in increasing order.
//!
//! `get_stats.json` is a `GET_STATS` reply captured from a default-config
//! node after keyed ECB, CTR, GCM and XTS traffic, a ragged-length error
//! and a pipelined burst.

use telemetry::{Entry, Registry, Snapshot};
use testkit::forall;
use testkit::prop::any;
use testkit::Rng;

const GET_STATS: &str = include_str!("get_stats.json");

/// Characters instrument names are drawn from: the ones `to_json` must
/// escape (quote, backslash, controls) beside plain and non-ASCII ones.
const NAME_CHARS: [char; 12] = [
    'a', 'z', '.', '_', '"', '\\', '\u{0}', '\n', '\u{1f}', '\u{7f}', 'é', '😀',
];

fn name(rng: &mut Rng) -> String {
    let len = rng.gen_range(0..6);
    (0..len)
        .map(|_| NAME_CHARS[rng.gen_range(0..NAME_CHARS.len())])
        .collect()
}

/// A value that lands on the type's edges one time in four.
fn edgy_u64(rng: &mut Rng) -> u64 {
    match rng.gen_range(0..8) {
        0 => u64::MAX,
        1 => 0,
        _ => rng.next_u64(),
    }
}

fn edgy_i64(rng: &mut Rng) -> i64 {
    match rng.gen_range(0..8) {
        0 => i64::MIN,
        1 => i64::MAX,
        _ => rng.next_u64() as i64,
    }
}

/// The layout's inclusive bucket upper bounds, written out apart from
/// the crate: 0 to 3, then four equal buckets per power of two 2^k from
/// 2^2 to 2^63, the last ending at `u64::MAX`.
fn layout_bounds() -> Vec<u64> {
    let mut bounds = vec![0, 1, 2, 3];
    for k in 2..64 {
        for sub in 1..=4u128 {
            bounds.push(((1u128 << k) + (sub << (k - 2)) - 1) as u64);
        }
    }
    bounds
}

forall!(cases = 128, fn a_snapshot_reads_back_as_itself(seed in any::<u64>(), n in 0usize..24) {
    let mut rng = Rng::seed_from_u64(seed);
    let reg = Registry::new();
    let mut kinds = std::collections::BTreeMap::new();
    for _ in 0..n {
        let name = name(&mut rng);
        let kind = *kinds.entry(name.clone()).or_insert_with(|| rng.gen_range(0..3));
        match kind {
            0 => reg.counter(&name).add(edgy_u64(&mut rng)),
            1 => reg.gauge(&name).set(edgy_i64(&mut rng)),
            _ => {
                let h = reg.hist(&name);
                // Zero observations leaves the histogram empty.
                for _ in 0..rng.gen_range(0..5) {
                    h.record(edgy_u64(&mut rng));
                }
            }
        }
    }
    let snap = reg.snapshot();
    assert_eq!(Snapshot::from_json(&snap.to_json()), Ok(snap));
});

/// The kind of an instrument whose updates the merge law deals out.
#[derive(Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

fn observe(reg: &Registry, name: &str, kind: Kind, v: u64) {
    match kind {
        Kind::Counter => reg.counter(name).add(v),
        Kind::Gauge => {
            reg.gauge(name).add(v as i64);
        }
        Kind::Histogram => reg.hist(name).record(v),
    }
}

fn shuffled<T: Clone>(items: &[T], rng: &mut Rng) -> Vec<T> {
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..i + 1));
    }
    out
}

forall!(cases = 128, fn dealt_observations_merge_to_one_registrys_snapshot(
    seed in any::<u64>(),
    k in 1usize..6,
    n in 0usize..64,
) {
    let mut rng = Rng::seed_from_u64(seed);
    let instruments: Vec<(String, Kind)> = (0..6)
        .map(|i| {
            let kind = [Kind::Counter, Kind::Gauge, Kind::Histogram][rng.gen_range(0..3)];
            (format!("i.{i}"), kind)
        })
        .collect();
    let whole = Registry::new();
    let parts: Vec<Registry> = (0..k).map(|_| Registry::new()).collect();
    for _ in 0..n {
        let (name, kind) = &instruments[rng.gen_range(0..instruments.len())];
        let v = edgy_u64(&mut rng);
        observe(&whole, name, *kind, v);
        observe(&parts[rng.gen_range(0..k)], name, *kind, v);
    }
    let mut snaps: Vec<Snapshot> = parts.iter().map(Registry::snapshot).collect();
    let want = whole.snapshot();
    let mut orders = vec![snaps.clone(), snaps.iter().rev().cloned().collect()];
    orders.extend((0..3).map(|_| shuffled(&snaps, &mut rng)));
    for order in &orders {
        assert_eq!(Snapshot::merge(order), want);
    }

    // One more registry names an instrument the others hold with a
    // different kind: that name drops out of the merge, whatever the
    // order, and nothing else moves.
    let Some(victim) = want.entries().first().map(|e| e.name.clone()) else {
        assert!(Snapshot::merge(&snaps).is_empty());
        return;
    };
    let odd = Registry::new();
    let (_, kind) = instruments.iter().find(|(n, _)| *n == victim).expect("dealt");
    match kind {
        Kind::Counter => odd.gauge(&victim).set(1),
        Kind::Gauge | Kind::Histogram => odd.counter(&victim).add(1),
    }
    snaps.insert(rng.gen_range(0..snaps.len() + 1), odd.snapshot());
    let kept: Vec<Entry> = want.entries().iter().filter(|e| e.name != victim).cloned().collect();
    for _ in 0..4 {
        assert_eq!(Snapshot::merge(&shuffled(&snaps, &mut rng)).entries(), &kept[..]);
    }
});

/// A sample that lands on 0 to 7, a power of two or one off it, or
/// `u64::MAX` about half the time, and anywhere in a random magnitude
/// otherwise.
fn sample(rng: &mut Rng) -> u64 {
    match rng.gen_range(0..6) {
        0 => rng.gen_range(0..8) as u64,
        1 => (1u64 << rng.gen_range(0..64))
            .wrapping_add(rng.gen_range(0..3) as u64)
            .wrapping_sub(1),
        2 => u64::MAX,
        _ => rng.next_u64() >> rng.gen_range(0..64),
    }
}

forall!(cases = 256, fn a_quantile_is_within_a_quarter_above_the_exact_one(
    seed in any::<u64>(),
    n in 1usize..200,
) {
    let mut rng = Rng::seed_from_u64(seed);
    let reg = Registry::new();
    let h = reg.hist("h");
    let mut samples: Vec<u64> = (0..n).map(|_| sample(&mut rng)).collect();
    for &x in &samples {
        h.record(x);
    }
    samples.sort_unstable();
    let snap = reg.snapshot();
    let hs = snap.histogram("h").expect("registered");
    let random_q = rng.next_u64() as f64 / u64::MAX as f64;
    for q in [0.0, 0.5, 0.9, 0.99, 1.0, random_q] {
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let x = samples[rank - 1];
        let u = hs.quantile(q).expect("not empty");
        assert!(x <= u && u <= x.saturating_add(x / 4), "q {q}: exact {x}, bucket bound {u}");
    }
});

#[test]
fn every_bucket_edge_is_recorded_where_a_scan_of_the_bounds_puts_it() {
    let bounds = layout_bounds();
    assert_eq!(bounds.len(), 252);
    assert_eq!(bounds.last(), Some(&u64::MAX));
    for (i, &upper) in bounds.iter().enumerate() {
        let lower = if i == 0 { 0 } else { bounds[i - 1] + 1 };
        for x in [lower, upper] {
            let scanned = bounds
                .iter()
                .position(|&b| x <= b)
                .expect("u64::MAX bounds all");
            let reg = Registry::new();
            reg.hist("h").record(x);
            let snap = reg.snapshot();
            let hs = snap.histogram("h").expect("registered");
            assert_eq!(hs.buckets[scanned], 1, "{x} is not in bucket {scanned}");
            assert_eq!(hs.quantile(1.0), Some(bounds[scanned]), "{x}");
        }
    }
}

/// A document holding one histogram, `h`, with this `count` and these
/// `buckets` members.
fn hist_doc(count: u64, buckets: &str) -> String {
    format!(
        "{{\"schema\":\"telemetry/1\",\"instruments\":[{{\"name\":\"h\",\"type\":\"histogram\",\
         \"count\":{count},\"sum\":0,\"buckets\":[{buckets}]}}]}}"
    )
}

forall!(cases = 256, fn from_json_accepts_only_layout_bounds_in_increasing_order(
    i in 0usize..252,
    j in 0usize..252,
    nudge in 0usize..5,
) {
    let bounds = layout_bounds();
    let ones = |les: &[u64]| {
        let buckets: Vec<String> =
            les.iter().map(|le| format!("{{\"le\":{le},\"count\":1}}")).collect();
        hist_doc(0, &buckets.join(","))
    };
    let le = bounds[i].wrapping_add(nudge as u64).wrapping_sub(2);
    let parsed = Snapshot::from_json(&ones(&[le]));
    assert_eq!(parsed.is_ok(), bounds.contains(&le), "le {le}: {parsed:?}");
    // A repeated or decreasing `le` is rejected.
    let parsed = Snapshot::from_json(&ones(&[bounds[i], bounds[j]]));
    assert_eq!(parsed.is_ok(), i < j, "les {} {}: {parsed:?}", bounds[i], bounds[j]);
});

#[test]
fn counts_past_u64_max_still_give_quantiles_and_text() {
    let max = u64::MAX;
    let doc = hist_doc(
        max,
        &format!("{{\"le\":5,\"count\":1}},{{\"le\":{max},\"count\":{max}}}"),
    );
    let snap = Snapshot::from_json(&doc).expect("a well-formed document");
    let hs = snap.histogram("h").expect("a histogram");
    assert_eq!(hs.quantile(0.0), Some(5));
    assert_eq!(hs.quantile(0.5), Some(u64::MAX));
    assert!(snap
        .render_text()
        .contains("p50=18446744073709551615 p99=18446744073709551615 le5:1"));
}

#[test]
fn merge_of_nothing_is_empty_and_of_one_is_itself() {
    assert!(Snapshot::merge(&[]).is_empty());
    let real = Snapshot::from_json(GET_STATS).expect("the captured reply parses");
    assert_eq!(Snapshot::merge(std::slice::from_ref(&real)), real);
}

#[test]
fn a_real_get_stats_reply_reads_back_exactly_and_no_prefix_of_it_parses() {
    let real = Snapshot::from_json(GET_STATS).expect("the captured reply parses");
    assert!(real.histogram("service.frame.request_bytes").is_some());
    assert_eq!(real.to_json(), GET_STATS.trim_end());
    // A proper prefix never closes the top-level object.
    for end in 0..GET_STATS.trim_end().len() {
        assert!(
            Snapshot::from_json(&GET_STATS[..end]).is_err(),
            "prefix {end} parsed"
        );
    }
}

forall!(cases = 512, fn flipped_bytes_give_an_error_or_a_snapshot(
    flips in testkit::vec_of(any::<(u16, u8)>(), 1..6),
) {
    let mut bytes = GET_STATS.as_bytes().to_vec();
    for (at, mask) in flips {
        let at = usize::from(at) % bytes.len();
        bytes[at] ^= mask.max(1);
    }
    if let Ok(snap) = Snapshot::from_json(&String::from_utf8_lossy(&bytes)) {
        // Whatever the reader accepts is a well-formed snapshot.
        assert_eq!(Snapshot::from_json(&snap.to_json()), Ok(snap));
    }
});

#[test]
fn malformed_documents_are_rejected_with_a_reason() {
    let doc = |instruments: &str| {
        format!("{{\"schema\":\"telemetry/1\",\"instruments\":[{instruments}]}}")
    };
    let hist = |buckets: &str| hist_doc(0, buckets);
    for (bad, why) in [
        (
            "{\"schema\":\"telemetry/2\",\"instruments\":[]}".to_string(),
            "telemetry/1",
        ),
        (
            doc("{\"name\":\"c\",\"type\":\"counter\",\"value\":1},\
              {\"name\":\"d\",\"type\":\"counter\",\"value\":1},\
              {\"name\":\"c\",\"type\":\"gauge\",\"value\":1}"),
            "twice",
        ),
        (
            doc("{\"name\":\"c\",\"type\":\"meter\",\"value\":1}"),
            "unknown instrument type",
        ),
        (
            doc("{\"name\":\"c\",\"type\":\"counter\",\"value\":-1}"),
            "not a u64",
        ),
        (
            doc("{\"name\":\"c\",\"type\":\"counter\",\"value\":1.0}"),
            "not a u64",
        ),
        (
            doc("{\"name\":\"g\",\"type\":\"gauge\",\"value\":9223372036854775808}"),
            "not an i64",
        ),
        (hist("{\"le\":10,\"count\":1}"), "not a bucket bound"),
        (
            hist("{\"le\":7,\"count\":1},{\"le\":5,\"count\":1}"),
            "out of order",
        ),
        (hist("{\"le\":null,\"count\":0}"), "not a u64"),
        (hist("{\"le\":5}"), "bucket count"),
    ] {
        let err = Snapshot::from_json(&bad).expect_err(&bad);
        assert!(err.contains(why), "{bad}: {err}");
    }
    // Members the schema may add later are ignored.
    let extra = doc("{\"name\":\"c\",\"type\":\"counter\",\"value\":3,\"unit\":\"ops\"}");
    assert_eq!(
        Snapshot::from_json(&extra).map(|s| s.counter("c")),
        Ok(Some(3))
    );
}

#[test]
fn instruments_in_any_order_read_back_sorted() {
    let doc = "{\"schema\":\"telemetry/1\",\"instruments\":[\
               {\"name\":\"z\",\"type\":\"counter\",\"value\":1},\
               {\"name\":\"a\",\"type\":\"gauge\",\"value\":-2},\
               {\"name\":\"m\",\"type\":\"counter\",\"value\":3}]}";
    let snap = Snapshot::from_json(doc).expect("a telemetry/1 document");
    let names: Vec<&str> = snap.entries().iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["a", "m", "z"]);
    assert_eq!(
        (snap.gauge("a"), snap.counter("m"), snap.counter("z")),
        (Some(-2), Some(3), Some(1))
    );
}

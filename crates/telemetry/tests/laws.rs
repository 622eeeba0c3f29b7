//! Laws for the one `telemetry/1` reader, [`Snapshot::from_json`], and
//! for [`Snapshot::merge`]:
//!
//! * (a) round trip: `from_json(&s.to_json()) == Ok(s)` over seeded
//!   registries whose names carry quotes, backslashes and control
//!   characters, with counters up to `u64::MAX`, gauges across the whole
//!   `i64` range, and empty and overflow-only histograms;
//! * (b) merge: observations dealt across k registries merge, in any
//!   order, to the snapshot of one registry that saw them all, and an
//!   instrument whose kind or bounds disagree is left out in every order;
//! * (c) robustness: every prefix of a real `GET_STATS` reply, and seeded
//!   byte flips in it, give `Err` or a snapshot, never a panic.
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

/// Strictly increasing bounds; none at all one time in four, which
/// leaves only the overflow bucket.
fn bounds(rng: &mut Rng) -> Vec<u64> {
    let n = if rng.gen_range(0..4) == 0 {
        0
    } else {
        rng.gen_range(1..5)
    };
    let mut next = 0u64;
    (0..n)
        .map(|_| {
            next += 1 + rng.gen_index(1_000);
            next
        })
        .collect()
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
                let h = reg.histogram(&name, &bounds(&mut rng));
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

fn observe(reg: &Registry, name: &str, kind: Kind, bounds: &[u64], v: u64) {
    match kind {
        Kind::Counter => reg.counter(name).add(v),
        // `Gauge::add` returns the new level, whose `+` overflows in a
        // debug build near the `i64` edges; 64 adds of at most 2^55 stay
        // clear of them.
        Kind::Gauge => {
            reg.gauge(name).add((v as i64) >> 8);
        }
        Kind::Histogram => reg.histogram(name, bounds).record(v),
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
    let instruments: Vec<(String, Kind, Vec<u64>)> = (0..6)
        .map(|i| {
            let kind = [Kind::Counter, Kind::Gauge, Kind::Histogram][rng.gen_range(0..3)];
            (format!("i.{i}"), kind, bounds(&mut rng))
        })
        .collect();
    let whole = Registry::new();
    let parts: Vec<Registry> = (0..k).map(|_| Registry::new()).collect();
    for _ in 0..n {
        let (name, kind, bounds) = &instruments[rng.gen_range(0..instruments.len())];
        let v = edgy_u64(&mut rng);
        observe(&whole, name, *kind, bounds, v);
        observe(&parts[rng.gen_range(0..k)], name, *kind, bounds, v);
    }
    let mut snaps: Vec<Snapshot> = parts.iter().map(Registry::snapshot).collect();
    let want = whole.snapshot();
    let mut orders = vec![snaps.clone(), snaps.iter().rev().cloned().collect()];
    orders.extend((0..3).map(|_| shuffled(&snaps, &mut rng)));
    for order in &orders {
        assert_eq!(Snapshot::merge(order), want);
    }

    // One more registry names an instrument the others hold with a
    // different kind, or a histogram with different bounds: that name
    // drops out of the merge, whatever the order, and nothing else moves.
    let Some(victim) = want.entries().first().map(|e| e.name.clone()) else {
        assert!(Snapshot::merge(&snaps).is_empty());
        return;
    };
    let odd = Registry::new();
    let (_, kind, bounds) = instruments.iter().find(|(n, ..)| *n == victim).expect("dealt");
    match kind {
        Kind::Counter => odd.gauge(&victim).set(1),
        Kind::Gauge => odd.counter(&victim).add(1),
        Kind::Histogram => {
            let mut other = bounds.clone();
            other.push(bounds.last().map_or(0, |b| b + 1));
            odd.histogram(&victim, &other).record(1);
        }
    }
    snaps.insert(rng.gen_range(0..snaps.len() + 1), odd.snapshot());
    let kept: Vec<Entry> = want.entries().iter().filter(|e| e.name != victim).cloned().collect();
    for _ in 0..4 {
        assert_eq!(Snapshot::merge(&shuffled(&snaps, &mut rng)).entries(), &kept[..]);
    }
});

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
    let hist = |buckets: &str| {
        doc(&format!(
            "{{\"name\":\"h\",\"type\":\"histogram\",\"count\":0,\"sum\":0,\"buckets\":[{buckets}]}}"
        ))
    };
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
        (hist(""), "no buckets"),
        (hist("{\"le\":5,\"count\":0}"), "le:null"),
        (
            hist("{\"le\":5,\"count\":0},{\"le\":5,\"count\":0},{\"le\":null,\"count\":0}"),
            "increasing",
        ),
        (
            hist("{\"le\":null,\"count\":0},{\"le\":null,\"count\":0}"),
            "not a u64",
        ),
        (hist("{\"le\":null}"), "bucket count"),
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

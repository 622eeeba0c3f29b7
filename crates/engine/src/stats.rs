//! Farm throughput statistics derived from telemetry snapshots.
//!
//! The interesting figure for the paper's Table 2 is cycles/block: one IP
//! core sustains ~[`LATENCY_CYCLES`](aes_ip::core::LATENCY_CYCLES) cycles
//! per block once its decoupled bus is kept saturated, and a farm of `k`
//! cores divides that by `k` in wall-clock terms because the cores clock
//! concurrently. The engine models that concurrency in *virtual time*:
//! each core carries its own cycle counter and the farm's wall clock is
//! the maximum over them.
//!
//! Unlike the old ad-hoc metrics struct, these views are *derived*: the
//! engine publishes raw per-core counters into a [`telemetry::Registry`]
//! under `engine.core.<index>.<backend>.<field>` names, and
//! [`FarmStats::from_snapshot`] re-assembles the Table-2 figures from any
//! [`Snapshot`] of that registry — the engine's own, a service-wide one,
//! or a [`Snapshot::delta`] between two captures. Benches and the wire
//! `GET_STATS` reply therefore compute throughput from the *same*
//! numbers; there is no private counter path to drift.

use core::fmt;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use telemetry::{Counter, Registry, Snapshot, Value};

use crate::backend::Backend;

/// The instrument-name prefix the engine publishes per-core counters
/// under: `engine.core.<index>.<backend>.<field>`.
pub const CORE_PREFIX: &str = "engine.core.";

/// The one writer of the per-core counters: one backend's
/// `engine.core.<index>.<backend>.*` counters and the backend totals
/// already pushed into them. The backend owns the authoritative counts;
/// [`CoreTel::sync`] publishes their growth since the last push, so the
/// engine, the farm's workers and every handle's caller-runs lane can
/// share one registry and its counters still sum coherently.
pub(crate) struct CoreTel {
    /// The backend name the counters are registered under.
    pub(crate) name: &'static str,
    counters: [Counter; 4],
    pushed: Cell<[u64; 4]>,
}

impl CoreTel {
    pub(crate) fn register(registry: &Registry, index: usize, name: &'static str) -> CoreTel {
        let counter =
            |field: &str| registry.counter(&format!("{CORE_PREFIX}{index}.{name}.{field}"));
        CoreTel {
            name,
            counters: ["blocks", "cycles", "setup_cycles", "busy_cycles"].map(counter),
            pushed: Cell::new([0; 4]),
        }
    }

    /// Counts a new backend of the same name from zero.
    pub(crate) fn restart(&self) {
        self.pushed.set([0; 4]);
    }

    /// Pushes `backend`'s growth since the last push. Saturating, so a
    /// backend that counts from zero again never wraps a counter.
    pub(crate) fn sync(&self, backend: &dyn Backend) {
        let now = [
            backend.blocks(),
            backend.cycles(),
            backend.setup_cycles(),
            backend.busy_cycles(),
        ];
        let last = self.pushed.replace(now);
        for ((counter, now), last) in self.counters.iter().zip(now).zip(last) {
            counter.add(now.saturating_sub(last));
        }
    }
}

/// One farm member's raw counters, re-assembled from a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreStats {
    /// The core's farm slot.
    pub index: usize,
    /// Backend name (`ip-encrypt`, `soft-ref`, …).
    pub name: String,
    /// Blocks the backend processed.
    pub blocks: u64,
    /// Total virtual cycles, key setup included.
    pub cycles: u64,
    /// Cycles spent loading keys before any data moved.
    pub setup_cycles: u64,
    /// Cycles the datapath was computing (occupancy numerator).
    pub busy_cycles: u64,
}

impl CoreStats {
    /// Cycles spent processing blocks after key setup — the core's
    /// contribution to the farm wall clock.
    #[must_use]
    pub fn operation_cycles(&self) -> u64 {
        self.cycles.saturating_sub(self.setup_cycles)
    }

    /// Datapath occupancy in percent: `busy / operation × 100`
    /// (100 for an idle core that was never asked to work).
    #[must_use]
    pub fn occupancy_pct(&self) -> f64 {
        let op = self.operation_cycles();
        if op == 0 {
            100.0
        } else {
            100.0 * self.busy_cycles as f64 / op as f64
        }
    }

    /// Mean operation cycles per block (0 for an idle core).
    #[must_use]
    pub fn cycles_per_block(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.operation_cycles() as f64 / self.blocks as f64
        }
    }
}

/// Farm-aggregate view over the `engine.core.*` counters of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmStats {
    /// One entry per farm slot, in slot order.
    pub per_core: Vec<CoreStats>,
}

impl FarmStats {
    /// Re-assembles per-core stats from every
    /// `engine.core.<index>.<backend>.<field>` counter in `snap`.
    /// Non-matching instruments, and anything under that name shape that
    /// is not a counter, are ignored.
    ///
    /// The index space is *not* assumed dense or fixed: an elastic pool
    /// adds and removes cores at runtime (leaving holes), and a hot-swap
    /// retires one backend's counters at an index and starts another's.
    /// Entries are therefore keyed by `(index, backend name)` — after a
    /// swap the same slot reports one line per backend that lived there,
    /// each with the blocks it actually processed.
    #[must_use]
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let mut cores: BTreeMap<(usize, String), CoreStats> = BTreeMap::new();
        for e in snap.entries() {
            let Some(rest) = e.name.strip_prefix(CORE_PREFIX) else {
                continue;
            };
            let Some((index, rest)) = rest.split_once('.') else {
                continue;
            };
            let Ok(index) = index.parse::<usize>() else {
                continue;
            };
            // Backend names never contain '.', field names never do
            // either, so the last dot separates them.
            let Some((backend, field)) = rest.rsplit_once('.') else {
                continue;
            };
            let Value::Counter(v) = e.value else { continue };
            let core = cores
                .entry((index, backend.to_string()))
                .or_insert_with(|| CoreStats {
                    index,
                    name: backend.to_string(),
                    blocks: 0,
                    cycles: 0,
                    setup_cycles: 0,
                    busy_cycles: 0,
                });
            match field {
                "blocks" => core.blocks = v,
                "cycles" => core.cycles = v,
                "setup_cycles" => core.setup_cycles = v,
                "busy_cycles" => core.busy_cycles = v,
                _ => {}
            }
        }
        FarmStats {
            per_core: cores.into_values().collect(),
        }
    }

    /// Blocks processed across the farm.
    #[must_use]
    pub fn total_blocks(&self) -> u64 {
        self.per_core.iter().map(|c| c.blocks).sum()
    }

    /// Virtual wall-clock cycles: the cores clock concurrently, so this
    /// is the *maximum* per-core operation time, not the sum.
    #[must_use]
    pub fn wall_cycles(&self) -> u64 {
        self.per_core
            .iter()
            .map(CoreStats::operation_cycles)
            .max()
            .unwrap_or(0)
    }

    /// Aggregate throughput figure: `wall_cycles / total_blocks`
    /// (0 when the farm processed nothing).
    #[must_use]
    pub fn cycles_per_block(&self) -> f64 {
        let blocks = self.total_blocks();
        if blocks == 0 {
            0.0
        } else {
            self.wall_cycles() as f64 / blocks as f64
        }
    }

    /// Minimum occupancy over the cores that did any work (100 when the
    /// whole farm idled) — the saturation criterion for scaling reports.
    #[must_use]
    pub fn min_occupancy_pct(&self) -> f64 {
        self.per_core
            .iter()
            .filter(|c| c.blocks > 0)
            .map(CoreStats::occupancy_pct)
            .fold(f64::INFINITY, f64::min)
            .min(100.0)
    }

    /// Renders a fixed-width text table in the style of the repo's other
    /// report binaries.
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>10} {:>10} {:>11} {:>12}",
            "core", "blocks", "op cycles", "busy", "occupancy", "cycles/block"
        );
        for c in &self.per_core {
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>10} {:>10} {:>10.1}% {:>12.2}",
                c.name,
                c.blocks,
                c.operation_cycles(),
                c.busy_cycles,
                c.occupancy_pct(),
                c.cycles_per_block()
            );
        }
        let _ = writeln!(
            out,
            "farm: {} blocks in {} wall cycles = {:.2} cycles/block",
            self.total_blocks(),
            self.wall_cycles(),
            self.cycles_per_block()
        );
        out
    }
}

impl fmt::Display for FarmStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::Registry;

    fn publish(reg: &Registry, index: usize, name: &str, blocks: u64, op: u64, busy: u64) {
        let prefix = format!("engine.core.{index}.{name}");
        reg.counter(&format!("{prefix}.blocks")).add(blocks);
        reg.counter(&format!("{prefix}.cycles")).add(op + 10);
        reg.counter(&format!("{prefix}.setup_cycles")).add(10);
        reg.counter(&format!("{prefix}.busy_cycles")).add(busy);
    }

    #[test]
    fn wall_clock_is_the_maximum_not_the_sum() {
        let reg = Registry::new();
        publish(&reg, 0, "ip-encrypt", 8, 401, 400);
        publish(&reg, 1, "ip-encrypt", 8, 401, 400);
        publish(&reg, 2, "soft-ref", 4, 201, 200);
        let s = FarmStats::from_snapshot(&reg.snapshot());
        assert_eq!(s.per_core.len(), 3);
        assert_eq!(s.total_blocks(), 20);
        assert_eq!(s.wall_cycles(), 401);
        assert!((s.cycles_per_block() - 401.0 / 20.0).abs() < 1e-9);
        // Slot order and setup-cycle subtraction survive the round trip.
        assert_eq!(s.per_core[2].name, "soft-ref");
        assert_eq!(s.per_core[2].cycles, 211);
        assert_eq!(s.per_core[2].operation_cycles(), 201);
    }

    #[test]
    fn min_occupancy_ignores_idle_cores() {
        let reg = Registry::new();
        publish(&reg, 0, "ip-encrypt", 8, 401, 400);
        publish(&reg, 1, "ip-decrypt", 0, 0, 0);
        let s = FarmStats::from_snapshot(&reg.snapshot());
        assert!((s.min_occupancy_pct() - 100.0 * 400.0 / 401.0).abs() < 1e-9);
        assert_eq!(s.per_core[1].occupancy_pct(), 100.0);
        assert_eq!(s.per_core[1].cycles_per_block(), 0.0);

        let idle = Registry::new();
        publish(&idle, 0, "ip-encrypt", 0, 0, 0);
        assert_eq!(
            FarmStats::from_snapshot(&idle.snapshot()).min_occupancy_pct(),
            100.0
        );
    }

    #[test]
    fn empty_snapshot_divides_by_nothing() {
        let s = FarmStats::from_snapshot(&Registry::new().snapshot());
        assert!(s.per_core.is_empty());
        assert_eq!(s.total_blocks(), 0);
        assert_eq!(s.wall_cycles(), 0);
        assert_eq!(s.cycles_per_block(), 0.0);
        assert_eq!(s.min_occupancy_pct(), 100.0);
    }

    #[test]
    fn unrelated_instruments_are_ignored() {
        let reg = Registry::new();
        publish(&reg, 0, "ip-encrypt", 8, 401, 400);
        reg.counter("engine.submit.accepted").add(99);
        reg.gauge("engine.queue.depth").set(7);
        reg.hist("engine.core.0.ip-encrypt.latency_us").record(9975);
        reg.counter("engine.core.bogus").add(1); // no index.backend.field
        let s = FarmStats::from_snapshot(&reg.snapshot());
        assert_eq!(s.per_core.len(), 1);
        assert_eq!(s.total_blocks(), 8);
    }

    #[test]
    fn sparse_indices_and_swapped_backends_each_get_a_line() {
        let reg = Registry::new();
        publish(&reg, 0, "ip-encdec", 8, 401, 400);
        // Elastic farms leave holes: slots 1..4 were removed at runtime.
        publish(&reg, 5, "soft-ttable", 4, 201, 200);
        // A hot-swap retires one backend at a slot and starts another:
        // the same index reports one line per backend that lived there.
        publish(&reg, 5, "soft-aesni", 2, 101, 100);
        let s = FarmStats::from_snapshot(&reg.snapshot());
        assert_eq!(s.per_core.len(), 3);
        assert_eq!(s.total_blocks(), 14);
        let seen: Vec<(usize, &str, u64)> = s
            .per_core
            .iter()
            .map(|c| (c.index, c.name.as_str(), c.blocks))
            .collect();
        assert_eq!(
            seen,
            vec![
                (0, "ip-encdec", 8),
                (5, "soft-aesni", 2),
                (5, "soft-ttable", 4),
            ]
        );
    }

    #[test]
    fn report_lists_every_core_and_the_farm_line() {
        let reg = Registry::new();
        publish(&reg, 0, "ip-encrypt", 8, 401, 400);
        let s = FarmStats::from_snapshot(&reg.snapshot());
        let text = s.report();
        assert!(text.contains("ip-encrypt"));
        assert!(text.contains("farm: 8 blocks"));
        assert_eq!(text, s.to_string());
    }
}

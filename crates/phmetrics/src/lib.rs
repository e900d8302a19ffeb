//! # phmetrics — zero-overhead runtime metrics for the PH-tree stack
//!
//! A std-only, dependency-free, lock-free metrics core. The serving
//! and durability layers (`phshard`, `phstore`) and the tree itself
//! (via `phtree`'s `telemetry` sink, feature `metrics`) record into
//! handles issued by a [`Registry`]:
//!
//! * [`Counter`] — monotone `u64`, one relaxed `fetch_add` per record.
//! * [`Gauge`] — signed level with a built-in high-water mark (queue
//!   depths, entry counts).
//! * [`Histogram`] — fixed-bucket log₂ histogram; recording is one
//!   relaxed atomic add, p50/p90/p99/max are estimated from bucket
//!   counts to within one power-of-two bucket.
//!
//! **The disabled path is the design center**: a [`Registry::disabled`]
//! registry hands out handles whose record calls compile to a branch on
//! a null `Option` — no atomics, no clock reads ([`Histogram::start`]
//! skips `Instant::now`), no allocation. Instrumented code therefore
//! records unconditionally and lets the handle decide, instead of
//! sprinkling `if metrics_enabled` everywhere.
//!
//! Reading happens out-of-band: [`Registry::snapshot`] collects every
//! instrument (plus per-counter rates since the previous snapshot) and
//! [`Registry::render_prometheus`] emits the standard text exposition.
//! A [`MetricsReporter`] can flush either on a background thread.
//!
//! ```
//! use phmetrics::Registry;
//!
//! let r = Registry::new();
//! let ops = r.counter("myapp_ops_total");
//! let lat = r.histogram("myapp_op_latency_ns");
//! let t = lat.start();
//! ops.inc();
//! lat.finish(t);
//! let snap = r.snapshot();
//! assert_eq!(snap.counter("myapp_ops_total"), Some(1));
//! assert!(r.render_prometheus().contains("myapp_ops_total 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod report;

pub use hist::{
    bucket_index, bucket_upper_bound, exact_percentile, HistSnapshot, Histogram, OpTimer,
    NUM_BUCKETS,
};
pub use report::MetricsReporter;

use hist::HistCells;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Instrument handles
// ---------------------------------------------------------------------

/// A monotonically increasing counter handle.
///
/// Cheap to clone; all clones share one atomic cell. Handles from a
/// disabled registry are no-ops (a branch, no atomic).
#[derive(Clone)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A detached handle that records nothing.
    pub fn noop() -> Counter {
        Counter { cell: None }
    }

    /// Whether increments are actually stored.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (one relaxed atomic add).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.cell {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

struct GaugeCell {
    value: AtomicI64,
    high: AtomicI64,
}

/// A signed level gauge with a built-in high-water mark.
///
/// Every mutation also raises the high-water mark if exceeded, so a
/// sampled reader (snapshots run out-of-band) still sees the true peak
/// — the instrument queue depths and fan-out widths need.
#[derive(Clone)]
pub struct Gauge {
    cell: Option<Arc<GaugeCell>>,
}

impl Gauge {
    /// A detached handle that records nothing.
    pub fn noop() -> Gauge {
        Gauge { cell: None }
    }

    /// Whether updates are actually stored.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(c) = &self.cell {
            c.value.store(v, Ordering::Relaxed);
            c.high.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Adjusts the level by `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        if let Some(c) = &self.cell {
            let now = c.value.fetch_add(d, Ordering::Relaxed) + d;
            c.high.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// Current level (0 for a no-op handle).
    pub fn get(&self) -> i64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }

    /// Highest level ever set/reached (0 for a no-op handle).
    pub fn high_water(&self) -> i64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.high.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

struct RateState {
    prev: HashMap<String, u64>,
    at: Option<Instant>,
}

struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeCell>>>,
    hists: Mutex<BTreeMap<String, Arc<HistCells>>>,
    rate: Mutex<RateState>,
    created: Instant,
}

/// A named collection of instruments.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a mutex and is
/// meant to happen once at wiring time; the returned handles are
/// lock-free. Requesting the same name twice returns handles sharing
/// one cell. Instrument names follow Prometheus conventions and may
/// carry inline labels: `phshard_ops_total{op="insert"}`.
///
/// Registries are cheaply clonable (all clones share the instruments)
/// and `Send + Sync`.
#[derive(Clone)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A live registry.
    pub fn new() -> Registry {
        Registry {
            inner: Some(Arc::new(Inner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
                rate: Mutex::new(RateState {
                    prev: HashMap::new(),
                    at: None,
                }),
                created: Instant::now(),
            })),
        }
    }

    /// A disabled registry: every handle it issues is a no-op, and
    /// snapshots/expositions are empty. This is the zero-overhead
    /// configuration instrumented code ships with by default.
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// Whether this registry stores anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|i| {
                Arc::clone(
                    i.counters
                        .lock()
                        .unwrap()
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(AtomicU64::new(0))),
                )
            }),
        }
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.inner.as_ref().map(|i| {
                Arc::clone(
                    i.gauges
                        .lock()
                        .unwrap()
                        .entry(name.to_string())
                        .or_insert_with(|| {
                            Arc::new(GaugeCell {
                                value: AtomicI64::new(0),
                                high: AtomicI64::new(0),
                            })
                        }),
                )
            }),
        }
    }

    /// Gets or creates the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            cell: self.inner.as_ref().map(|i| {
                Arc::clone(
                    i.hists
                        .lock()
                        .unwrap()
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(HistCells::new())),
                )
            }),
        }
    }

    /// Collects a consistent point-in-time view of every instrument.
    ///
    /// "Consistent" per instrument: each value is one relaxed atomic
    /// load, and since counter handles only add, successive snapshots
    /// of the same counter never go backwards (the monotonicity the
    /// snapshot tests pin). Counter rates are computed against the
    /// previous `snapshot()` call on any clone of this registry.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let now = Instant::now();
        let counters: Vec<CounterSnap> = inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(name, c)| CounterSnap {
                name: name.clone(),
                value: c.load(Ordering::Relaxed),
                rate: None,
            })
            .collect();
        let mut counters = counters;
        {
            let mut rs = inner.rate.lock().unwrap();
            let dt = rs
                .at
                .map(|t| now.saturating_duration_since(t).as_secs_f64());
            for c in counters.iter_mut() {
                if let (Some(dt), Some(&prev)) = (dt, rs.prev.get(&c.name)) {
                    if dt > 0.0 {
                        c.rate = Some((c.value.saturating_sub(prev)) as f64 / dt);
                    }
                }
            }
            rs.prev = counters.iter().map(|c| (c.name.clone(), c.value)).collect();
            rs.at = Some(now);
        }
        let gauges = inner
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, g)| GaugeSnap {
                name: name.clone(),
                value: g.value.load(Ordering::Relaxed),
                high_water: g.high.load(Ordering::Relaxed),
            })
            .collect();
        let hists = inner
            .hists
            .lock()
            .unwrap()
            .iter()
            .map(|(name, h)| {
                let mut counts = [0u64; NUM_BUCKETS];
                for (out, b) in counts.iter_mut().zip(h.buckets.iter()) {
                    *out = b.load(Ordering::Relaxed);
                }
                (name.clone(), HistSnapshot { counts })
            })
            .collect();
        Snapshot {
            uptime: now.saturating_duration_since(inner.created),
            counters,
            gauges,
            hists,
        }
    }

    /// Renders the Prometheus text exposition format (counters,
    /// gauges — with a `_peak` series for the high-water mark — and
    /// cumulative-`le` histogram buckets). Deterministic order.
    pub fn render_prometheus(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        let mut last_type_line = String::new();
        let mut type_line = |out: &mut String, base: &str, kind: &str| {
            let line = format!("# TYPE {base} {kind}\n");
            if line != last_type_line {
                out.push_str(&line);
                last_type_line = line;
            }
        };
        for c in &snap.counters {
            let (base, labels) = split_name(&c.name);
            type_line(&mut out, base, "counter");
            let _ = writeln!(out, "{base}{labels} {}", c.value);
        }
        for g in &snap.gauges {
            let (base, labels) = split_name(&g.name);
            type_line(&mut out, base, "gauge");
            let _ = writeln!(out, "{base}{labels} {}", g.value);
            let _ = writeln!(out, "{base}_peak{labels} {}", g.high_water);
        }
        for (name, h) in &snap.hists {
            let (base, labels) = split_name(name);
            type_line(&mut out, base, "histogram");
            let mut cum = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                cum += c;
                // Keep the exposition compact: elide empty buckets, but
                // always emit the final (+Inf) cumulative bucket.
                if c == 0 && i != NUM_BUCKETS - 1 {
                    continue;
                }
                let le = if i == NUM_BUCKETS - 1 {
                    "+Inf".to_string()
                } else {
                    bucket_upper_bound(i).to_string()
                };
                let _ = writeln!(out, "{base}_bucket{} {cum}", with_label(labels, "le", &le));
            }
            let _ = writeln!(out, "{base}_count{labels} {}", h.count());
        }
        out
    }
}

/// Splits an instrument name into base name and `{...}` label block.
fn split_name(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

/// Appends `key="value"` to a (possibly empty) label block.
fn with_label(labels: &str, key: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{{{key}=\"{value}\"}}")
    } else {
        format!("{},{key}=\"{value}\"}}", &labels[..labels.len() - 1])
    }
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// One counter in a [`Snapshot`].
#[derive(Clone, Debug)]
pub struct CounterSnap {
    /// Instrument name (with inline labels, if any).
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
    /// Increase per second since the previous snapshot (None on the
    /// first snapshot).
    pub rate: Option<f64>,
}

/// One gauge in a [`Snapshot`].
#[derive(Clone, Debug)]
pub struct GaugeSnap {
    /// Instrument name (with inline labels, if any).
    pub name: String,
    /// Level at snapshot time.
    pub value: i64,
    /// Highest level ever reached.
    pub high_water: i64,
}

/// A point-in-time view of every instrument in a [`Registry`].
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Time since the registry was created.
    pub uptime: Duration,
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnap>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnap>,
    /// All histograms, sorted by name.
    pub hists: Vec<(String, HistSnapshot)>,
}

impl Snapshot {
    /// Value of the counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<&GaugeSnap> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// The histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_all_noop() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("x_total");
        let g = r.gauge("x_depth");
        let h = r.histogram("x_ns");
        c.inc();
        g.set(5);
        h.record(123);
        assert!(!c.is_enabled() && !g.is_enabled() && !h.is_enabled());
        assert_eq!(c.get(), 0);
        let snap = r.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.hists.is_empty());
        assert_eq!(r.render_prometheus(), "");
    }

    #[test]
    fn same_name_shares_cell() {
        let r = Registry::new();
        let a = r.counter("shared_total");
        let b = r.counter("shared_total");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        assert_eq!(r.snapshot().counter("shared_total"), Some(7));
    }

    #[test]
    fn gauge_tracks_high_water() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.set(3);
        g.set(9);
        g.set(2);
        g.add(-2);
        assert_eq!(g.get(), 0);
        assert_eq!(g.high_water(), 9);
        let snap = r.snapshot();
        assert_eq!(snap.gauge("depth").unwrap().value, 0);
        assert_eq!(snap.gauge("depth").unwrap().high_water, 9);
    }

    #[test]
    fn snapshot_rates() {
        let r = Registry::new();
        let c = r.counter("r_total");
        c.add(10);
        let s1 = r.snapshot();
        assert!(s1.counters[0].rate.is_none(), "no rate on first snapshot");
        c.add(30);
        std::thread::sleep(Duration::from_millis(20));
        let s2 = r.snapshot();
        let rate = s2.counters[0].rate.expect("second snapshot has a rate");
        assert!(rate > 0.0, "rate {rate} must be positive");
        assert_eq!(s2.counters[0].value, 40);
    }

    #[test]
    fn prometheus_rendering_shapes() {
        let r = Registry::new();
        r.counter("app_ops_total{op=\"get\"}").add(2);
        r.counter("app_ops_total{op=\"insert\"}").add(5);
        r.gauge("app_queue_depth").set(4);
        r.histogram("app_lat_ns{op=\"get\"}").record(100);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE app_ops_total counter"));
        assert!(text.contains("app_ops_total{op=\"get\"} 2"));
        assert!(text.contains("app_ops_total{op=\"insert\"} 5"));
        assert!(text.contains("# TYPE app_queue_depth gauge"));
        assert!(text.contains("app_queue_depth 4"));
        assert!(text.contains("app_queue_depth_peak 4"));
        assert!(text.contains("# TYPE app_lat_ns histogram"));
        assert!(text.contains("app_lat_ns_bucket{op=\"get\",le=\"127\"} 1"));
        assert!(text.contains("app_lat_ns_bucket{op=\"get\",le=\"+Inf\"} 1"));
        assert!(text.contains("app_lat_ns_count{op=\"get\"} 1"));
        // TYPE line appears once per base name even with two series.
        assert_eq!(text.matches("# TYPE app_ops_total counter").count(), 1);
    }
}

//! Optional runtime telemetry hooks (cargo feature `metrics`).
//!
//! The tree's hot paths (`get`, `insert`, `remove`, window queries)
//! can report **per-operation probe telemetry** — which operation ran
//! and how many nodes it visited — plus HC↔LHC representation
//! switches, to a process-global [`TreeSink`] installed once via
//! [`set_sink`] (the `log`-crate pattern: the tree stays a plain value
//! type with no metrics field, so serialisation, `Clone` and the raw
//! codec are untouched).
//!
//! ## Overhead contract
//!
//! * Feature **off** (the default): every hook in this module is a
//!   zero-sized no-op — [`Visits`] is a ZST and the record functions
//!   have empty bodies, so the optimiser erases the instrumentation
//!   entirely. The perf-regression harness (`scripts/bench_baseline.sh`
//!   + CI perf-smoke) gates this path against the committed baseline.
//! * Feature **on**, no sink installed: one `OnceLock` load (a single
//!   acquire atomic read) and a predictable branch per operation, plus
//!   one register increment per node visited.
//! * Feature on, sink installed: the above plus one virtual call per
//!   operation — the sink itself decides what recording costs (the
//!   intended sink is a `phmetrics` counter/histogram: one relaxed
//!   atomic add).
//!
//! Only [`crate::PhTree`]'s own operations report. The traversals in
//! [`crate::walk`] count the nodes they visit whoever runs them, but
//! it is `PhTree::get` and the live [`crate::Query`] that hand the
//! count to the sink; a packed tree walking the same code reports
//! nothing here.
//!
//! This seam doubles as the request-tracing bridge: `phserve`'s
//! `trace` feature installs a forwarding sink that adds each op's
//! `nodes_visited` to the calling thread's open `phtrace` descent
//! span, so slow-query breakdowns carry tree work without the tree
//! knowing about tracing (DESIGN.md §18).

/// Which tree operation a telemetry record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeOp {
    /// Point query ([`crate::PhTree::get`] / `contains`).
    Get,
    /// Insert or overwrite ([`crate::PhTree::insert`]).
    Insert,
    /// Remove ([`crate::PhTree::remove`]).
    Remove,
    /// Window query iterator lifetime ([`crate::PhTree::query`] /
    /// `query_approx`); nodes are counted across the whole iteration
    /// and reported when the iterator is dropped.
    Query,
}

impl TreeOp {
    /// Stable lower-case name, usable as a metrics label.
    pub fn name(self) -> &'static str {
        match self {
            TreeOp::Get => "get",
            TreeOp::Insert => "insert",
            TreeOp::Remove => "remove",
            TreeOp::Query => "query",
        }
    }
}

/// Receiver for tree telemetry. Implementations must be cheap: these
/// methods run inside `get`/`insert`/`remove`/query iteration.
#[cfg(feature = "metrics")]
pub trait TreeSink: Sync {
    /// One operation completed, having visited `nodes_visited` nodes
    /// (for [`TreeOp::Query`]: across the whole iteration).
    fn op(&self, op: TreeOp, nodes_visited: u32);

    /// A node switched representation (`to_hc`: LHC→HC, else HC→LHC).
    fn repr_switch(&self, to_hc: bool) {
        let _ = to_hc;
    }
}

#[cfg(feature = "metrics")]
static SINK: std::sync::OnceLock<&'static dyn TreeSink> = std::sync::OnceLock::new();

/// Installs the process-global telemetry sink. Returns `false` if a
/// sink was already installed (the first one wins, like `log`).
#[cfg(feature = "metrics")]
pub fn set_sink(sink: &'static dyn TreeSink) -> bool {
    SINK.set(sink).is_ok()
}

/// Whether a sink is installed.
#[cfg(feature = "metrics")]
pub fn sink_installed() -> bool {
    SINK.get().is_some()
}

#[cfg(feature = "metrics")]
#[inline]
fn sink() -> Option<&'static dyn TreeSink> {
    SINK.get().copied()
}

/// Per-operation node-visit counter threaded through the hot paths.
///
/// With the `metrics` feature off this is a ZST with empty methods, so
/// passing it around costs nothing; with the feature on it is a plain
/// `u32` register.
#[derive(Clone, Copy)]
pub(crate) struct Visits {
    #[cfg(feature = "metrics")]
    n: u32,
}

impl Visits {
    #[inline]
    pub(crate) const fn new() -> Self {
        Visits {
            #[cfg(feature = "metrics")]
            n: 0,
        }
    }

    /// Counts one node visited.
    #[inline]
    pub(crate) fn bump(&mut self) {
        #[cfg(feature = "metrics")]
        {
            self.n += 1;
        }
    }
}

/// Reports a completed operation to the installed sink, if any.
#[inline]
pub(crate) fn record_op(op: TreeOp, visits: Visits) {
    #[cfg(feature = "metrics")]
    if let Some(s) = sink() {
        s.op(op, visits.n);
    }
    #[cfg(not(feature = "metrics"))]
    let _ = (op, visits);
}

/// Reports an HC↔LHC representation switch to the installed sink.
#[inline]
pub(crate) fn record_repr_switch(to_hc: bool) {
    #[cfg(feature = "metrics")]
    if let Some(s) = sink() {
        s.repr_switch(to_hc);
    }
    #[cfg(not(feature = "metrics"))]
    let _ = to_hc;
}

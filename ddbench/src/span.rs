//! In-memory spans for the traced driver.
//!
//! The traced driver is single-threaded, so the tracer is a thread-local:
//! [`span`] opens a span under whatever span is open, the returned guard
//! closes it. Spans stay in memory and are written out when the run
//! ends. A layer's *self time* is its spans' duration minus the part
//! their child spans cover, so the self times of one run sum to the wall
//! time of its root span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// "No parent" / "no serial" marker.
pub const NONE: u64 = u64::MAX;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.operation`, e.g. `vc.step`.
    pub name: &'static str,
    /// A sub-kind (the message kind of a step), or "".
    pub label: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NONE`].
    pub parent: u64,
    /// Serial of the ballot being cast, or [`NONE`] outside a cast.
    pub serial: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    serial: u64,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        serial: NONE,
    });
}

/// Starts a fresh trace on this thread; with `enabled` false every span
/// call is a no-op (the "spans off" side of the overhead measurement).
pub fn start(enabled: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.enabled = enabled;
        t.epoch = Instant::now();
        t.spans = Vec::new();
        t.open.clear();
        t.serial = NONE;
    });
}

/// Ends the trace and hands the spans over.
///
/// # Panics
/// If a span is still open.
pub fn finish() -> Vec<Span> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(
            t.open.is_empty(),
            "finish() with {} spans open",
            t.open.len()
        );
        t.enabled = false;
        std::mem::take(&mut t.spans)
    })
}

/// Tags the spans opened from now on with the ballot being cast.
pub fn set_serial(serial: Option<u64>) {
    TRACER.with(|t| t.borrow_mut().serial = serial.unwrap_or(NONE));
}

/// Nanoseconds since the trace started (the driver's monotonic clock).
pub fn now_ns() -> u64 {
    TRACER.with(|t| t.borrow().epoch.elapsed().as_nanos() as u64)
}

/// Closes its span when dropped.
#[must_use = "a span covers the scope its guard lives in"]
pub struct Guard {
    index: Option<usize>,
}

/// Opens a span around the code up to the guard's drop.
pub fn span(name: &'static str, label: &'static str) -> Guard {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return Guard { index: None };
        }
        let index = t.spans.len();
        let parent = t.open.last().map_or(NONE, |&p| p as u64);
        let serial = t.serial;
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            label,
            start_ns,
            end_ns: start_ns,
            parent,
            serial,
        });
        t.open.push(index);
        Guard { index: Some(index) }
    })
}

impl Guard {
    /// Closes the span now and returns its duration (0 with spans off).
    pub fn close(mut self) -> u64 {
        self.end()
    }

    fn end(&mut self) -> u64 {
        let Some(index) = self.index.take() else {
            return 0;
        };
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end_ns = t.epoch.elapsed().as_nanos() as u64;
            let popped = t.open.pop();
            debug_assert_eq!(popped, Some(index), "spans must nest");
            let span = &mut t.spans[index];
            span.end_ns = end_ns;
            span.duration_ns()
        })
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.end();
    }
}

/// The cost of opening and closing one span, in nanoseconds, measured on
/// this machine now (a fresh trace is started and discarded).
pub fn cost_ns() -> f64 {
    const PAIRS: u32 = 100_000;
    start(true);
    let root = span("driver", "");
    let t0 = Instant::now();
    for _ in 0..PAIRS {
        drop(std::hint::black_box(span("calibrate", "")));
    }
    let elapsed = t0.elapsed();
    drop(root);
    finish();
    elapsed.as_nanos() as f64 / f64::from(PAIRS)
}

/// Totals of one span name (optionally one label of it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name and per-(name, label) totals of a finished trace.
pub struct Ledger {
    by_name: BTreeMap<&'static str, Totals>,
    by_label: BTreeMap<(&'static str, &'static str), Totals>,
}

impl Ledger {
    /// Totals over the whole trace.
    pub fn new(spans: &[Span]) -> Ledger {
        Ledger::build(spans, None)
    }

    /// Totals over the spans that have a span named `root` as an
    /// ancestor (one phase of the run).
    pub fn under(spans: &[Span], root: &str) -> Ledger {
        Ledger::build(spans, Some(root))
    }

    fn build(spans: &[Span], root: Option<&str>) -> Ledger {
        let mut covered = vec![0u64; spans.len()];
        // Parents are opened before their children, so one forward pass
        // settles which spans lie under `root`.
        let mut inside = vec![root.is_none(); spans.len()];
        for (i, span) in spans.iter().enumerate() {
            if span.parent != NONE {
                let parent = span.parent as usize;
                covered[parent] += span.duration_ns();
                inside[i] |= inside[parent] || Some(spans[parent].name) == root;
            }
        }
        let mut by_name: BTreeMap<&'static str, Totals> = BTreeMap::new();
        let mut by_label: BTreeMap<(&'static str, &'static str), Totals> = BTreeMap::new();
        for ((span, covered), _) in spans
            .iter()
            .zip(covered)
            .zip(inside)
            .filter(|(_, inside)| *inside)
        {
            let self_ns = span.duration_ns().saturating_sub(covered);
            for totals in [
                by_name.entry(span.name).or_default(),
                by_label.entry((span.name, span.label)).or_default(),
            ] {
                totals.count += 1;
                totals.total_ns += span.duration_ns();
                totals.self_ns += self_ns;
            }
        }
        Ledger { by_name, by_label }
    }

    pub fn name(&self, name: &str) -> Totals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    pub fn label(&self, name: &'static str, label: &'static str) -> Totals {
        self.by_label
            .get(&(name, label))
            .copied()
            .unwrap_or_default()
    }

    /// Self time summed over every span whose name starts with `prefix`.
    pub fn self_ns_of_layer(&self, prefix: &str) -> u64 {
        self.by_name
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    /// Self time of every span, summed: the root spans' wall time.
    pub fn self_ns_total(&self) -> u64 {
        self.by_name.values().map(|t| t.self_ns).sum()
    }

    /// `name self_ms total_ms count`, largest self time first.
    pub fn table(&self) -> String {
        let mut rows: Vec<(&&'static str, &Totals)> = self.by_name.iter().collect();
        rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        let mut out = format!(
            "# {:<24} {:>12} {:>12} {:>9}\n",
            "span", "self ms", "total ms", "count"
        );
        for (name, t) in rows {
            let _ = writeln!(
                out,
                "# {:<24} {:>12.3} {:>12.3} {:>9}",
                name,
                t.self_ns as f64 / 1e6,
                t.total_ns as f64 / 1e6,
                t.count
            );
        }
        out
    }
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let opt = |v: u64| {
        if v == NONE {
            "null".to_string()
        } else {
            v.to_string()
        }
    };
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"label\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"serial\": {}}}",
            s.name,
            s.label,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.serial)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t0 = Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_sum_to_the_root() {
        start(true);
        {
            let _root = span("driver", "");
            busy(200_000);
            set_serial(Some(7));
            {
                let _a = span("vc.step", "Vote");
                busy(300_000);
                let inner = span("storage.commit", "");
                busy(100_000);
                assert!(inner.close() >= 100_000);
            }
            set_serial(None);
            let _b = span("vc.step", "VoteP");
            busy(100_000);
        }
        let spans = finish();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NONE);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!((spans[1].serial, spans[3].serial), (7, NONE));
        let ledger = Ledger::new(&spans);
        assert_eq!(ledger.self_ns_total(), spans[0].duration_ns());
        let step = ledger.name("vc.step");
        assert_eq!(step.count, 2);
        assert!(step.self_ns < step.total_ns);
        assert_eq!(ledger.label("vc.step", "Vote").count, 1);
        assert_eq!(
            ledger.name("storage.commit").self_ns,
            spans[2].duration_ns()
        );
        assert_eq!(
            ledger.self_ns_of_layer("vc."),
            step.self_ns,
            "layer prefix sums its spans"
        );
        let under = Ledger::under(&spans, "vc.step");
        assert_eq!(under.name("storage.commit").count, 1);
        assert_eq!(under.name("vc.step").count, 0, "the root itself is outside");
        assert_eq!(Ledger::under(&spans, "driver").name("vc.step").count, 2);
        assert_eq!(to_jsonl(&spans).lines().count(), 4);
        assert!(to_jsonl(&spans).contains("\"parent\": null"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        start(false);
        {
            let g = span("driver", "");
            assert_eq!(g.close(), 0);
        }
        assert!(finish().is_empty());
    }
}

//! The benchmark-side telemetry sink handed to the runtimes' public
//! spawn APIs. It keeps counters and gauge samples in memory.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sintra_telemetry::{Recorder, TraceEvent};

/// Running summary of one gauge's samples.
#[derive(Debug, Default, Clone, Copy)]
pub struct GaugeSamples {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl GaugeSamples {
    /// Mean sample (0 when none were taken).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

type Table<T> = HashMap<&'static str, HashMap<String, T>>;

/// The counters of the threaded runtime's conservation law.
const CONSERVED: [&str; 3] = ["msgs_sent", "msgs_delivered", "msgs_dropped"];

/// Counters and gauge samples by `(name, scope)`.
///
/// With `enabled` false the runtimes keep their metered and tracing
/// paths off and report only the counters they count unconditionally
/// (`msgs_sent`, `msgs_delivered`, `msgs_dropped`). Those three are
/// summed lock-free, so the timed runs' conservation check costs one
/// atomic add per message.
#[derive(Debug)]
pub struct BenchRecorder {
    enabled: bool,
    /// [`CONSERVED`] counters summed over every scope.
    conserved: [AtomicU64; 3],
    counters: Mutex<Table<u64>>,
    gauges: Mutex<Table<GaugeSamples>>,
    /// Counter values at the last [`BenchRecorder::mark`].
    baseline: Mutex<Table<u64>>,
}

impl BenchRecorder {
    /// A recorder that leaves the runtimes' metered paths off.
    pub fn counting() -> Self {
        Self::new(false)
    }

    /// A recorder that turns the runtimes' metered paths on.
    pub fn metered() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        BenchRecorder {
            enabled,
            conserved: Default::default(),
            counters: Mutex::new(HashMap::new()),
            gauges: Mutex::new(HashMap::new()),
            baseline: Mutex::new(HashMap::new()),
        }
    }

    /// Starts a measurement window: later `*_since_mark` readings count
    /// from here, and gauge samples restart.
    pub fn mark(&self) {
        let counters = self.counters.lock().expect("recorder lock poisoned");
        *self.baseline.lock().expect("recorder lock poisoned") = counters.clone();
        self.gauges.lock().expect("recorder lock poisoned").clear();
    }

    /// A counter in one scope, counted from the last mark.
    pub fn since_mark(&self, scope: &str, name: &str) -> u64 {
        let base = lookup(
            &self.baseline.lock().expect("recorder lock poisoned"),
            scope,
            name,
        );
        self.counter(scope, name) - base
    }

    /// A counter summed over every scope, counted from the last mark.
    pub fn total_since_mark(&self, name: &str) -> u64 {
        let base: u64 = self
            .baseline
            .lock()
            .expect("recorder lock poisoned")
            .get(name)
            .map_or(0, |by_scope| by_scope.values().sum());
        self.total(name) - base
    }

    /// One of the conservation counters, summed over every scope.
    pub fn conserved(&self, name: &str) -> u64 {
        CONSERVED
            .iter()
            .position(|&c| c == name)
            .map_or(0, |i| self.conserved[i].load(Ordering::Relaxed))
    }

    /// A counter summed over every scope.
    pub fn total(&self, name: &str) -> u64 {
        let counters = self.counters.lock().expect("recorder lock poisoned");
        counters
            .get(name)
            .map_or(0, |by_scope| by_scope.values().sum())
    }

    /// A counter in one scope.
    pub fn counter(&self, scope: &str, name: &str) -> u64 {
        lookup(
            &self.counters.lock().expect("recorder lock poisoned"),
            scope,
            name,
        )
    }

    /// The samples of one gauge in one scope.
    pub fn gauge(&self, scope: &str, name: &str) -> GaugeSamples {
        let gauges = self.gauges.lock().expect("recorder lock poisoned");
        gauges
            .get(name)
            .and_then(|by_scope| by_scope.get(scope))
            .copied()
            .unwrap_or_default()
    }
}

fn lookup(table: &Table<u64>, scope: &str, name: &str) -> u64 {
    table
        .get(name)
        .and_then(|by_scope| by_scope.get(scope))
        .copied()
        .unwrap_or(0)
}

fn slot<'a, T: Default>(table: &'a mut Table<T>, scope: &str, name: &'static str) -> &'a mut T {
    let by_scope = table.entry(name).or_default();
    if !by_scope.contains_key(scope) {
        by_scope.insert(scope.to_string(), T::default());
    }
    by_scope.get_mut(scope).expect("slot inserted above")
}

impl Recorder for BenchRecorder {
    fn enabled(&self) -> bool {
        self.enabled
    }

    fn counter_add(&self, scope: &str, name: &'static str, delta: u64) {
        if let Some(i) = CONSERVED.iter().position(|&c| c == name) {
            // A statistic only: publishes no other data.
            self.conserved[i].fetch_add(delta, Ordering::Relaxed);
        }
        if !self.enabled {
            return;
        }
        let mut counters = self.counters.lock().expect("recorder lock poisoned");
        *slot(&mut counters, scope, name) += delta;
    }

    fn gauge_set(&self, scope: &str, name: &'static str, value: u64) {
        let mut gauges = self.gauges.lock().expect("recorder lock poisoned");
        let g = slot(&mut gauges, scope, name);
        g.count += 1;
        g.sum += value;
        g.max = g.max.max(value);
    }

    fn observe(&self, _scope: &str, _name: &'static str, _value: u64) {}

    fn trace(&self, _event: TraceEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_samples_by_scope() {
        let r = BenchRecorder::metered();
        r.counter_add("a", "msgs_sent", 2);
        r.counter_add("b", "msgs_sent", 3);
        r.gauge_set("server", "inbox_depth", 4);
        r.gauge_set("server", "inbox_depth", 0);
        assert_eq!(r.total("msgs_sent"), 5);
        assert_eq!(r.counter("b", "msgs_sent"), 3);
        let g = r.gauge("server", "inbox_depth");
        assert_eq!((g.count, g.max, g.mean()), (2, 4, 2.0));
        r.mark();
        r.counter_add("a", "msgs_sent", 1);
        assert_eq!(
            (
                r.total_since_mark("msgs_sent"),
                r.since_mark("a", "msgs_sent")
            ),
            (1, 1)
        );
        assert_eq!(r.gauge("server", "inbox_depth").count, 0);
        assert_eq!(r.conserved("msgs_sent"), 6);
        let quiet = BenchRecorder::counting();
        assert!(!quiet.enabled());
        quiet.counter_add("a", "msgs_delivered", 2);
        quiet.counter_add("a", "bytes_sent", 2);
        assert_eq!(
            (quiet.conserved("msgs_delivered"), quiet.total("bytes_sent")),
            (2, 0)
        );
    }
}

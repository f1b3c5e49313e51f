//! The named-metric registry.
//!
//! `SocStats`, `SyncStats`, energy reports, and application counters each
//! accumulate in their own struct; this registry flattens them behind one
//! `name → value` interface so any run can be snapshotted to CSV without
//! bespoke glue per experiment. Subsystems implement [`MetricSource`] for
//! their stats types; the registry stays ignorant of their layouts (and
//! this crate stays below every simulator crate in the dependency graph).
//!
//! The registry holds scalars only: counters and gauges. Distributions
//! are not summarised here; the per-sample values stay where they are
//! recorded (trace span args, the flight recorder's ring, the
//! application's latency log) and are read from there.

use rose_sim_core::csv::{CsvCell, CsvLog};
use std::collections::BTreeMap;

/// A scalar metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// A monotonically accumulated count.
    Counter(u64),
    /// A point-in-time real value.
    Gauge(f64),
}

/// Anything that can dump its counters into a [`MetricRegistry`].
///
/// Implementations should use a stable dotted prefix per subsystem
/// (`soc.*`, `sync.*`, `energy.*`, `app.*`) so snapshots from different
/// runs line up row-for-row.
pub trait MetricSource {
    /// Records every metric this source owns into `registry`.
    fn record_metrics(&self, registry: &mut MetricRegistry);
}

/// A named counter/gauge store with CSV snapshot export.
///
/// Names sort lexicographically in the snapshot (a `BTreeMap` underneath),
/// so output order is deterministic across runs and platforms.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    values: BTreeMap<String, MetricValue>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> MetricRegistry {
        MetricRegistry::default()
    }

    /// Sets counter `name` to an absolute total (for sources that already
    /// accumulate internally).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.values
            .insert(name.to_string(), MetricValue::Counter(value));
    }

    /// Sets gauge `name`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.values
            .insert(name.to_string(), MetricValue::Gauge(value));
    }

    /// The value of a scalar metric.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        self.values.get(name).copied()
    }

    /// The value of counter `name`, if it exists as a counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value of gauge `name`, if it exists as a gauge.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.values.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Pulls every metric out of `source`.
    pub fn record<S: MetricSource + ?Sized>(&mut self, source: &S) {
        source.record_metrics(self);
    }

    /// Snapshots the registry as a `metric,kind,value` CSV table.
    pub fn to_csv(&self) -> CsvLog {
        let mut log = CsvLog::new(&["metric", "kind", "value"]);
        for (name, value) in &self.values {
            let (kind, cell) = match value {
                MetricValue::Counter(v) => ("counter", CsvCell::from(*v)),
                MetricValue::Gauge(v) => ("gauge", CsvCell::Float(*v)),
            };
            log.push_row(vec![
                CsvCell::from(name.as_str()),
                CsvCell::from(kind),
                cell,
            ]);
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeStats {
        hits: u64,
        ratio: f64,
    }

    impl MetricSource for FakeStats {
        fn record_metrics(&self, registry: &mut MetricRegistry) {
            registry.set_counter("fake.hits", self.hits);
            registry.gauge("fake.ratio", self.ratio);
        }
    }

    #[test]
    fn counters_and_gauges_keep_the_last_value() {
        let mut reg = MetricRegistry::new();
        reg.set_counter("a", 2);
        reg.set_counter("a", 5);
        reg.gauge("g", 1.0);
        reg.gauge("g", 2.5);
        assert_eq!(reg.counter_value("a"), Some(5));
        assert_eq!(reg.gauge_value("g"), Some(2.5));
        assert_eq!(reg.counter_value("g"), None);
        assert_eq!(reg.get("missing"), None);
    }

    #[test]
    fn sources_record_through_the_trait() {
        let mut reg = MetricRegistry::new();
        reg.record(&FakeStats {
            hits: 41,
            ratio: 0.9,
        });
        assert_eq!(reg.counter_value("fake.hits"), Some(41));
        assert_eq!(reg.gauge_value("fake.ratio"), Some(0.9));
    }

    #[test]
    fn csv_snapshot_is_sorted_and_typed() {
        let mut reg = MetricRegistry::new();
        reg.gauge("z.last", 0.5);
        reg.set_counter("a.first", 7);
        reg.set_counter("m.mid", 3);
        let csv = reg.to_csv();
        let text = csv.to_csv_string();
        assert_eq!(
            text,
            "metric,kind,value\n\
             a.first,counter,7\n\
             m.mid,counter,3\n\
             z.last,gauge,0.5\n"
        );
        assert_eq!(reg.len(), 3);
        assert!(!reg.is_empty());
        assert!(MetricRegistry::new().is_empty());
    }
}

//! Declarative threshold alerting over registry snapshots.
//!
//! An [`AlertRule`] names a metric family and a condition — a gauge held
//! above a limit for N seconds, or a counter increasing faster than a
//! rate.  [`Alerts::evaluate`] folds a registry [`Snapshot`] (summing a
//! family's samples across label sets) through every rule and returns the
//! firing/resolved state plus lifetime fire/resolve counts.
//!
//! Evaluation is **poll-driven**: state advances when somebody asks (the
//! `alerts` wire frame, the `/alerts` HTTP route, a test).  A gauge rule
//! starts a hold timer the first evaluation that sees the value above the
//! limit and fires once the value has stayed above it for the configured
//! hold; a rate rule compares consecutive evaluations, so its first
//! evaluation never fires.
//!
//! The default rule set ([`default_rules`]) covers the two conditions the
//! roadmap called out: scheduler queue-depth saturation
//! (`sfi_sched_queue_depth` summed over priority classes) and trace-store
//! overflow (`sfi_trace_records_dropped_total` increasing between polls).

use crate::clock;
use crate::registry::{SampleValue, Snapshot};
use std::sync::{Mutex, OnceLock};

/// The threshold condition of a rule.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertCondition {
    /// Fires while the summed gauge value has been strictly above
    /// `limit` for at least `for_seconds` consecutive seconds; resolves
    /// as soon as the value drops to the limit or below.
    GaugeAbove {
        /// Metric family the rule watches.
        family: String,
        /// Exclusive threshold.
        limit: f64,
        /// How long the value must stay above the limit before firing.
        for_seconds: f64,
    },
    /// Fires while the summed counter grows faster than `per_second`
    /// between consecutive evaluations (a limit of 0 fires on any
    /// growth); resolves after an evaluation interval at or below the
    /// rate.
    CounterRateAbove {
        /// Metric family the rule watches.
        family: String,
        /// Exclusive rate threshold, in units per second.
        per_second: f64,
    },
}

impl AlertCondition {
    /// The watched family name.
    pub fn family(&self) -> &str {
        match self {
            AlertCondition::GaugeAbove { family, .. } => family,
            AlertCondition::CounterRateAbove { family, .. } => family,
        }
    }

    /// The threshold value (gauge limit or rate limit).
    pub fn threshold(&self) -> f64 {
        match self {
            AlertCondition::GaugeAbove { limit, .. } => *limit,
            AlertCondition::CounterRateAbove { per_second, .. } => *per_second,
        }
    }

    /// The wire/display spelling of the condition kind.
    pub fn kind(&self) -> &'static str {
        match self {
            AlertCondition::GaugeAbove { .. } => "gauge_above",
            AlertCondition::CounterRateAbove { .. } => "counter_rate_above",
        }
    }
}

/// A named threshold rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name, unique within a rule set.
    pub name: String,
    /// The condition.
    pub condition: AlertCondition,
}

impl AlertRule {
    /// A gauge-above-limit-for-N-seconds rule.
    pub fn gauge_above(name: &str, family: &str, limit: f64, for_seconds: f64) -> AlertRule {
        AlertRule {
            name: name.to_string(),
            condition: AlertCondition::GaugeAbove {
                family: family.to_string(),
                limit,
                for_seconds: for_seconds.max(0.0),
            },
        }
    }

    /// A counter-rate-above-limit rule.
    pub fn counter_rate_above(name: &str, family: &str, per_second: f64) -> AlertRule {
        AlertRule {
            name: name.to_string(),
            condition: AlertCondition::CounterRateAbove {
                family: family.to_string(),
                per_second: per_second.max(0.0),
            },
        }
    }
}

/// The built-in rule set: queue-depth saturation and trace-store drops.
pub fn default_rules(
    queue_depth_limit: f64,
    queue_hold_seconds: f64,
    drop_rate_per_second: f64,
) -> Vec<AlertRule> {
    vec![
        AlertRule::gauge_above(
            "scheduler_queue_saturated",
            "sfi_sched_queue_depth",
            queue_depth_limit,
            queue_hold_seconds,
        ),
        AlertRule::counter_rate_above(
            "trace_store_dropping",
            "sfi_trace_records_dropped_total",
            drop_rate_per_second,
        ),
    ]
}

/// One rule's evaluated state.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertStatus {
    /// The rule name.
    pub rule: String,
    /// The watched family.
    pub family: String,
    /// The condition kind (`gauge_above` / `counter_rate_above`).
    pub kind: &'static str,
    /// The configured threshold.
    pub threshold: f64,
    /// The evaluated value: the summed gauge, or the observed rate.
    pub value: f64,
    /// Whether the rule is currently firing.
    pub firing: bool,
    /// When the current firing episode started, if firing.
    pub since_us: Option<u64>,
    /// Lifetime count of resolved→firing transitions.
    pub fired_total: u64,
    /// Lifetime count of firing→resolved transitions.
    pub resolved_total: u64,
}

/// Per-rule evaluation state.
#[derive(Debug, Default)]
struct RuleState {
    firing: bool,
    firing_since_us: Option<u64>,
    /// For gauge rules: when the value first went above the limit.
    above_since_us: Option<u64>,
    /// For rate rules: the previous `(ts_us, value)` observation.
    last: Option<(u64, f64)>,
    fired_total: u64,
    resolved_total: u64,
}

impl RuleState {
    fn fire(&mut self, now_us: u64) {
        if !self.firing {
            self.firing = true;
            self.firing_since_us = Some(now_us);
            self.fired_total += 1;
        }
    }

    fn resolve(&mut self) {
        if self.firing {
            self.firing = false;
            self.firing_since_us = None;
            self.resolved_total += 1;
        }
    }
}

/// A rule set with its evaluation state.
#[derive(Debug, Default)]
pub struct Alerts {
    inner: Mutex<Vec<(AlertRule, RuleState)>>,
}

impl Alerts {
    /// An alert set over `rules`.
    pub fn new(rules: Vec<AlertRule>) -> Alerts {
        let alerts = Alerts::default();
        alerts.install(rules);
        alerts
    }

    /// Replaces the rule set, resetting all evaluation state.
    pub fn install(&self, rules: Vec<AlertRule>) {
        let mut inner = self.inner.lock().expect("alerts poisoned");
        *inner = rules
            .into_iter()
            .map(|rule| (rule, RuleState::default()))
            .collect();
    }

    /// The installed rules.
    pub fn rules(&self) -> Vec<AlertRule> {
        self.inner
            .lock()
            .expect("alerts poisoned")
            .iter()
            .map(|(rule, _)| rule.clone())
            .collect()
    }

    /// Evaluates every rule against `snapshot` at the current time.
    pub fn evaluate(&self, snapshot: &Snapshot) -> Vec<AlertStatus> {
        self.evaluate_at(snapshot, clock::now_micros())
    }

    /// Evaluates every rule against `snapshot` as of `now_us` (monotonic
    /// micros; exposed for deterministic tests).
    pub fn evaluate_at(&self, snapshot: &Snapshot, now_us: u64) -> Vec<AlertStatus> {
        let mut inner = self.inner.lock().expect("alerts poisoned");
        inner
            .iter_mut()
            .map(|(rule, state)| {
                let total = family_total(snapshot, rule.condition.family()).unwrap_or(0.0);
                let value = match &rule.condition {
                    AlertCondition::GaugeAbove {
                        limit, for_seconds, ..
                    } => {
                        if total > *limit {
                            let since = *state.above_since_us.get_or_insert(now_us);
                            if clock::seconds_between(since, now_us) >= *for_seconds {
                                state.fire(now_us);
                            }
                        } else {
                            state.above_since_us = None;
                            state.resolve();
                        }
                        total
                    }
                    AlertCondition::CounterRateAbove { per_second, .. } => {
                        let rate = match state.last {
                            Some((then_us, then)) if now_us > then_us => {
                                (total - then).max(0.0) / clock::seconds_between(then_us, now_us)
                            }
                            _ => 0.0,
                        };
                        let warmed_up = state.last.is_some();
                        state.last = Some((now_us, total));
                        if warmed_up && rate > *per_second {
                            state.fire(now_us);
                        } else {
                            state.resolve();
                        }
                        rate
                    }
                };
                AlertStatus {
                    rule: rule.name.clone(),
                    family: rule.condition.family().to_string(),
                    kind: rule.condition.kind(),
                    threshold: rule.condition.threshold(),
                    value,
                    firing: state.firing,
                    since_us: state.firing_since_us,
                    fired_total: state.fired_total,
                    resolved_total: state.resolved_total,
                }
            })
            .collect()
    }
}

/// The summed value of a family's samples: counters and gauges add up
/// across label sets; histograms have no single value and yield `None`.
fn family_total(snapshot: &Snapshot, family: &str) -> Option<f64> {
    let family = snapshot.families.iter().find(|f| f.name == family)?;
    let mut total = 0.0;
    for sample in &family.samples {
        match &sample.value {
            SampleValue::Counter(value) => total += *value as f64,
            SampleValue::Gauge(value) => total += *value as f64,
            SampleValue::Histogram(_) => return None,
        }
    }
    Some(total)
}

/// The process-wide alert set singleton, seeded with [`default_rules`]
/// (queue depth above 8 held for 5 s; any trace-store drops).  Servers
/// replace the set at startup via [`Alerts::install`].
pub fn alerts() -> &'static Alerts {
    static ALERTS: OnceLock<Alerts> = OnceLock::new();
    ALERTS.get_or_init(|| Alerts::new(default_rules(8.0, 5.0, 0.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Family, FamilyKind, Sample, SampleValue};

    /// A snapshot with one gauge family (two labelled samples summing to
    /// `depth`) and one counter family at `dropped`.
    fn snapshot(depth: i64, dropped: u64) -> Snapshot {
        Snapshot {
            families: vec![
                Family {
                    name: "sfi_sched_queue_depth",
                    help: "",
                    kind: FamilyKind::Gauge,
                    samples: vec![
                        Sample {
                            labels: vec![("priority", "low".to_string())],
                            value: SampleValue::Gauge(depth - depth / 2),
                        },
                        Sample {
                            labels: vec![("priority", "high".to_string())],
                            value: SampleValue::Gauge(depth / 2),
                        },
                    ],
                },
                Family {
                    name: "sfi_trace_records_dropped_total",
                    help: "",
                    kind: FamilyKind::Counter,
                    samples: vec![Sample {
                        labels: Vec::new(),
                        value: SampleValue::Counter(dropped),
                    }],
                },
            ],
        }
    }

    #[test]
    fn a_gauge_rule_fires_after_the_hold_and_resolves() {
        let alerts = Alerts::new(vec![AlertRule::gauge_above(
            "saturated",
            "sfi_sched_queue_depth",
            4.0,
            2.0,
        )]);
        // Above the limit, but not yet for two seconds: pending.
        let s = alerts.evaluate_at(&snapshot(6, 0), 1_000_000);
        assert!(!s[0].firing);
        assert_eq!(s[0].value, 6.0);
        // Still above at +1 s: hold not met.
        assert!(!alerts.evaluate_at(&snapshot(6, 0), 2_000_000)[0].firing);
        // Still above at +2 s: fires.
        let s = alerts.evaluate_at(&snapshot(7, 0), 3_000_000);
        assert!(s[0].firing);
        assert_eq!(s[0].since_us, Some(3_000_000));
        assert_eq!(s[0].fired_total, 1);
        // Dips to the limit: resolves (the threshold is exclusive).
        let s = alerts.evaluate_at(&snapshot(4, 0), 4_000_000);
        assert!(!s[0].firing);
        assert_eq!(s[0].resolved_total, 1);
        assert_eq!(s[0].since_us, None);
        // A fresh excursion restarts the hold from scratch.
        assert!(!alerts.evaluate_at(&snapshot(9, 0), 5_000_000)[0].firing);
        assert!(alerts.evaluate_at(&snapshot(9, 0), 8_000_000)[0].firing);
        assert_eq!(
            alerts.evaluate_at(&snapshot(9, 0), 8_000_001)[0].fired_total,
            2
        );
    }

    #[test]
    fn a_rate_rule_compares_consecutive_evaluations() {
        let alerts = Alerts::new(vec![AlertRule::counter_rate_above(
            "dropping",
            "sfi_trace_records_dropped_total",
            0.0,
        )]);
        // First evaluation: no previous point, never fires.
        let s = alerts.evaluate_at(&snapshot(0, 5), 1_000_000);
        assert!(!s[0].firing);
        assert_eq!(s[0].value, 0.0);
        // 10 drops over one second: fires at rate 10/s.
        let s = alerts.evaluate_at(&snapshot(0, 15), 2_000_000);
        assert!(s[0].firing);
        assert_eq!(s[0].value, 10.0);
        assert_eq!(s[0].fired_total, 1);
        // Flat interval: resolves.
        let s = alerts.evaluate_at(&snapshot(0, 15), 3_000_000);
        assert!(!s[0].firing);
        assert_eq!(s[0].resolved_total, 1);
    }

    #[test]
    fn missing_and_histogram_families_read_as_zero() {
        let alerts = Alerts::new(vec![AlertRule::gauge_above(
            "ghost",
            "sfi_nonexistent",
            -1.0,
            0.0,
        )]);
        // Value 0 > -1: even an absent family can fire, proving the
        // evaluation defaulted to zero rather than erroring.
        assert!(alerts.evaluate_at(&snapshot(0, 0), 1_000_000)[0].firing);
    }

    #[test]
    fn install_resets_state_and_the_singleton_has_default_rules() {
        let alerts = Alerts::new(vec![AlertRule::gauge_above(
            "saturated",
            "sfi_sched_queue_depth",
            0.0,
            0.0,
        )]);
        assert!(alerts.evaluate_at(&snapshot(3, 0), 1_000_000)[0].firing);
        alerts.install(default_rules(8.0, 5.0, 0.0));
        let rules = alerts.rules();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].name, "scheduler_queue_saturated");
        assert_eq!(rules[1].condition.kind(), "counter_rate_above");
        let s = alerts.evaluate_at(&snapshot(3, 0), 2_000_000);
        assert!(s
            .iter()
            .all(|status| !status.firing && status.fired_total == 0));
        assert_eq!(super::alerts().rules().len(), 2);
    }
}

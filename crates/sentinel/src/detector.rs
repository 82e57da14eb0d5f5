//! The anomaly detector suite: per-window predicates over [`Series`],
//! emitting structured [`HealthEvent`]s with reason codes and firing
//! cycles.

use asc_core::json::Value;

use crate::window::{Series, WindowSample};

/// How a detector decides whether a window is anomalous.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DetectorKind {
    /// Fires when the series exceeds `max`. A `max` of 0 fires on any
    /// nonzero reading — the "this must never happen" shape (alerts,
    /// cache fallbacks, scrubs).
    Threshold {
        /// Largest healthy reading.
        max: f64,
    },
    /// Fires when the series drops below `min`, after `warmup` evaluable
    /// windows have established the steady state (a cold cache legally
    /// starts at a 0% hit ratio).
    Ratio {
        /// Smallest healthy reading.
        min: f64,
        /// Evaluable windows ignored before enforcement.
        warmup: usize,
    },
    /// Fires when the series drifts more than `band` (relative) away
    /// from a seeded exponentially-weighted moving average. The EWMA is
    /// seeded deterministically with the mean of the first `warmup`
    /// evaluable windows, then updated as `ewma = α·v + (1−α)·ewma`.
    Ewma {
        /// Smoothing factor α in `(0, 1]`.
        alpha: f64,
        /// Evaluable windows averaged into the seed.
        warmup: usize,
        /// Relative drift band (0.5 = fire beyond ±50%).
        band: f64,
    },
}

/// A named detector: one [`Series`] watched by one [`DetectorKind`].
#[derive(Clone, Debug, PartialEq)]
pub struct Detector {
    /// Stable detector name (reports, SLO verdicts).
    pub name: String,
    /// The per-window series this detector watches.
    pub series: Series,
    /// The anomaly predicate.
    pub kind: DetectorKind,
    /// SLO: when true, a healthy fleet must keep this detector quiet —
    /// any firing fails the verdict. Detectors used purely as detection
    /// *signals* (fault campaigns) set this false.
    pub quiet_slo: bool,
    /// Minimum underlying observations ([`Series::samples`]) a window
    /// needs before this detector evaluates it: statistical detectors
    /// gate out low-traffic windows (run tails, drained fleets) whose
    /// ratios are noise, while count-style series are always evaluable.
    pub min_samples: u64,
}

impl Detector {
    /// A threshold detector (fires above `max`), quiet-SLO by default.
    pub fn threshold(name: &str, series: Series, max: f64) -> Detector {
        Detector {
            name: name.to_string(),
            series,
            kind: DetectorKind::Threshold { max },
            quiet_slo: true,
            min_samples: 0,
        }
    }

    /// A ratio-floor detector (fires below `min` after `warmup` windows).
    pub fn ratio(name: &str, series: Series, min: f64, warmup: usize) -> Detector {
        Detector {
            name: name.to_string(),
            series,
            kind: DetectorKind::Ratio { min, warmup },
            quiet_slo: true,
            min_samples: 0,
        }
    }

    /// A seeded-EWMA drift detector.
    pub fn ewma(name: &str, series: Series, alpha: f64, warmup: usize, band: f64) -> Detector {
        Detector {
            name: name.to_string(),
            series,
            kind: DetectorKind::Ewma {
                alpha,
                warmup,
                band,
            },
            quiet_slo: true,
            min_samples: 0,
        }
    }

    /// Marks this detector as a detection signal rather than a quiet-SLO
    /// guard (its firings do not fail the health verdict).
    pub fn signal(mut self) -> Detector {
        self.quiet_slo = false;
        self
    }

    /// Requires at least `n` underlying observations in a window before
    /// evaluating it (see [`Series::samples`]).
    pub fn with_min_samples(mut self, n: u64) -> Detector {
        self.min_samples = n;
        self
    }

    /// The default fleet-health suite: every operator-visible failure
    /// surface the stack exposes, tuned so a healthy steady-state fleet
    /// keeps all of them quiet.
    ///
    /// * `alert-burst` — any [`asc_kernel::Alert`] (every kill class
    ///   raises one before the kill lands);
    /// * `cache-fallback` — any stale/poisoned-entry degradation
    ///   (cache-poison faults);
    /// * `cache-scrub` — any impossible-epoch scrub (epoch-skew faults);
    /// * `warm-hit-floor` — warm-path collapse after cache warmup;
    /// * `verify-drift` — per-call verify-cost drift off its EWMA.
    pub fn default_suite() -> Vec<Detector> {
        vec![
            Detector::threshold("alert-burst", Series::AlertRate, 0.0),
            Detector::threshold("cache-fallback", Series::CacheFallbacks, 0.0),
            Detector::threshold("cache-scrub", Series::CacheScrubs, 0.0),
            Detector::ratio("warm-hit-floor", Series::WarmHitRatio, 0.05, 2).with_min_samples(32),
            Detector::ewma("verify-drift", Series::VerifyCyclesPerCall, 0.3, 3, 0.5)
                .with_min_samples(32),
        ]
    }

    /// The minimal detection-signal suite a fault campaign needs: the
    /// three never-fires-when-healthy detectors covering every fault
    /// surface (kills alert, cache poison falls back, epoch skew
    /// scrubs), marked as signals so firings measure latency instead of
    /// failing an SLO.
    pub fn signal_suite() -> Vec<Detector> {
        vec![
            Detector::threshold("alert-burst", Series::AlertRate, 0.0).signal(),
            Detector::threshold("cache-fallback", Series::CacheFallbacks, 0.0).signal(),
            Detector::threshold("cache-scrub", Series::CacheScrubs, 0.0).signal(),
        ]
    }
}

/// Per-detector mutable evaluation state, kept by the sentinel.
#[derive(Clone, Debug, Default)]
pub(crate) struct DetectorState {
    /// Evaluable windows seen so far.
    seen: usize,
    /// Values collected while seeding an EWMA.
    warmup_values: Vec<f64>,
    /// The seeded EWMA, once warm.
    ewma: Option<f64>,
    /// Firings so far.
    pub(crate) fired: u64,
}

impl DetectorState {
    /// Evaluates `detector` over `sample`, updating state; returns the
    /// event if it fired.
    pub(crate) fn evaluate(
        &mut self,
        detector: &Detector,
        sample: &WindowSample,
    ) -> Option<HealthEvent> {
        if detector.series.samples(sample) < detector.min_samples {
            return None;
        }
        let value = detector.series.value(sample)?;
        self.seen += 1;
        let (fired, bound, reason) = match detector.kind {
            DetectorKind::Threshold { max } => (value > max, max, "above-threshold"),
            DetectorKind::Ratio { min, warmup } => {
                if self.seen <= warmup {
                    return None;
                }
                (value < min, min, "below-ratio-floor")
            }
            DetectorKind::Ewma {
                alpha,
                warmup,
                band,
            } => match self.ewma {
                None => {
                    self.warmup_values.push(value);
                    if self.warmup_values.len() >= warmup {
                        let mean = self.warmup_values.iter().sum::<f64>()
                            / self.warmup_values.len() as f64;
                        self.ewma = Some(mean);
                        self.warmup_values.clear();
                    }
                    return None;
                }
                Some(ewma) => {
                    let drift = (value - ewma).abs();
                    let fired = drift > band * ewma.max(1.0);
                    self.ewma = Some(alpha * value + (1.0 - alpha) * ewma);
                    (fired, ewma, "ewma-drift")
                }
            },
        };
        if !fired {
            return None;
        }
        self.fired += 1;
        Some(HealthEvent {
            detector: detector.name.clone(),
            series: detector.series,
            window: sample.index,
            fired_clock: sample.end,
            value,
            bound,
            reason,
        })
    }
}

/// One detector firing: the structured, operator-visible health signal.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthEvent {
    /// Name of the detector that fired.
    pub detector: String,
    /// The series it was watching.
    pub series: Series,
    /// Window index the anomalous reading came from.
    pub window: u64,
    /// Virtual clock at the window close that fired the detector — the
    /// timestamp detection latency is measured against.
    pub fired_clock: u64,
    /// The anomalous reading.
    pub value: f64,
    /// The bound it violated (threshold, floor, or EWMA reference).
    pub bound: f64,
    /// Stable kebab-case reason code (`above-threshold`,
    /// `below-ratio-floor`, `ewma-drift`).
    pub reason: &'static str,
}

impl HealthEvent {
    /// Renders as an [`asc_core::json`] object.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("detector".to_string(), Value::Str(self.detector.clone())),
            (
                "series".to_string(),
                Value::Str(self.series.name().to_string()),
            ),
            ("window".to_string(), Value::Num(self.window as f64)),
            (
                "fired_clock".to_string(),
                Value::Num(self.fired_clock as f64),
            ),
            ("value".to_string(), Value::Num(self.value)),
            ("bound".to_string(), Value::Num(self.bound)),
            ("reason".to_string(), Value::Str(self.reason.to_string())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window_with_alerts(index: u64, alerts: u64) -> WindowSample {
        WindowSample {
            index,
            start: index * 1000,
            end: (index + 1) * 1000,
            alerts_total: alerts,
            ..WindowSample::default()
        }
    }

    #[test]
    fn threshold_fires_on_any_alert() {
        let det = Detector::threshold("alert-burst", Series::AlertRate, 0.0);
        let mut state = DetectorState::default();
        assert!(state.evaluate(&det, &window_with_alerts(0, 0)).is_none());
        let event = state
            .evaluate(&det, &window_with_alerts(1, 3))
            .expect("alerts fire the detector");
        assert_eq!(event.reason, "above-threshold");
        assert_eq!(event.fired_clock, 2000);
        assert_eq!(event.value, 3.0);
        assert_eq!(state.fired, 1);
    }

    #[test]
    fn ratio_respects_warmup_then_enforces() {
        let det = Detector::ratio("warm-hit-floor", Series::WarmHitRatio, 0.5, 2);
        let mut state = DetectorState::default();
        let cold = WindowSample {
            verified: 10,
            warm_hits: 0,
            ..WindowSample::default()
        };
        // Two warmup windows pass silently despite the 0% ratio.
        assert!(state.evaluate(&det, &cold).is_none());
        assert!(state.evaluate(&det, &cold).is_none());
        let event = state.evaluate(&det, &cold).expect("floor enforced");
        assert_eq!(event.reason, "below-ratio-floor");
        // Not-evaluable windows (nothing verified) never count or fire.
        let idle = WindowSample::default();
        assert!(state.evaluate(&det, &idle).is_none());
    }

    #[test]
    fn ewma_seeds_then_detects_drift() {
        let det = Detector::ewma("verify-drift", Series::VerifyCyclesPerCall, 0.5, 2, 0.5);
        let mut state = DetectorState::default();
        let per_call = |cycles: u64| WindowSample {
            verified: 1,
            verify_cycles: cycles,
            ..WindowSample::default()
        };
        // Warmup: seeds EWMA with mean(100, 120) = 110.
        assert!(state.evaluate(&det, &per_call(100)).is_none());
        assert!(state.evaluate(&det, &per_call(120)).is_none());
        // 112 is within ±50% of 110: quiet.
        assert!(state.evaluate(&det, &per_call(112)).is_none());
        // 400 is far outside the band: drift.
        let event = state.evaluate(&det, &per_call(400)).expect("drift fires");
        assert_eq!(event.reason, "ewma-drift");
        assert!(
            event.bound > 100.0 && event.bound < 120.0,
            "{}",
            event.bound
        );
    }

    #[test]
    fn default_suite_is_quiet_on_an_idle_window() {
        let mut states: Vec<DetectorState> = Detector::default_suite()
            .iter()
            .map(|_| DetectorState::default())
            .collect();
        let idle = window_with_alerts(0, 0);
        for (det, state) in Detector::default_suite().iter().zip(states.iter_mut()) {
            assert!(
                state.evaluate(det, &idle).is_none(),
                "{} fired on an idle window",
                det.name
            );
        }
    }
}

//! Exact noise gates: deciding, before drawing a supply-noise sample,
//! whether the sample can matter.
//!
//! Models B+ and C draw one clipped Box–Muller sample per cycle and turn
//! it into a delay factor through the Vdd–delay curve.  An instruction
//! whose worst delay `d` meets the noise-scaled period for *every*
//! reachable sample never violates, and one that meets it for every
//! sample whose Box–Muller radius stays below some critical radius only
//! violates on the droops beyond it.  A [`NoiseGate`] captures that per
//! (operating point, worst delay) in one of three states:
//!
//! * [`NoiseGate::Never`]: no clipped noise value makes `d` violate;
//! * [`NoiseGate::Radius`]: a uniform pair `(u1, u2)` with `u1 ≥ u1_min`
//!   has a radius too small to reach the critical droop, and one with
//!   `u2` outside `(0.25 − δ, 0.75 + δ)` has `cos(2πu2) > 0`, i.e. a rise,
//!   not a droop; either way the sample cannot cause a violation;
//! * [`NoiseGate::Always`]: every sample goes through the full path.
//!
//! A gated sample still consumes exactly the random words
//! [`VoltageNoise::sample_volts`] would, so fault sequences are
//! bit-identical to evaluating every sample.  The bounds are closed-form
//! over the curve's segments and tightened by a relative margin of
//! 1e-9 in the safe direction, which dwarfs the rounding error of
//! the full path; a gate may send a harmless sample down the full path,
//! never the reverse.  Curves that are not non-increasing over the
//! reachable voltage range fall back to [`NoiseGate::Always`].

use crate::operating_point::OperatingPoint;
use rand::Rng;
use sfi_timing::{VddDelayCurve, VoltageNoise};

/// Relative safety margin of every gate bound.
const MARGIN: f64 = 1e-9;

/// `u2` at or below this maps to `cos(2πu2) > 0` (a rise).
const RISE_BELOW: f64 = 0.25 - MARGIN;
/// `u2` at or above this maps to `cos(2πu2) > 0` (a rise).
const RISE_ABOVE: f64 = 0.75 + MARGIN;

/// Which noise samples of one (operating point, worst delay) pair can
/// cause a period violation.  See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseGate {
    /// No sample can cause a violation.
    Never,
    /// Only samples with `u1 < u1_min` and `u2` inside the droop band
    /// can cause a violation.
    Radius {
        /// Smallest radius uniform that provably stays short of the
        /// critical droop (may exceed 1, then only the angle test skips),
        /// rounded up to `f32` so a model's per-instruction gates stay
        /// compact: the rounding only ever skips less.
        u1_min: f32,
    },
    /// Every sample may cause a violation.
    Always,
}

/// Everything the gates of one operating point share: the reach of its
/// noise along the Vdd–delay curve.  Computed once per injector, then
/// [`NoiseReach::gate`] is cheap per guarded path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NoiseReach<'a> {
    curve: &'a VddDelayCurve,
    period_ps: f64,
    vdd: f64,
    sigma_volts: f64,
    /// Whether every sample is ±0 V (σ = 0 or a zero clip point).
    silent: bool,
    /// Whether the curve is non-increasing over the reachable voltages.
    monotone: bool,
    /// The lowest reachable voltage, `vdd − clip · σ`.
    lowest: f64,
    /// `curve.delay_factor(vdd)`, exactly the models' nominal factor.
    nominal_factor: f64,
    /// `curve.delay_factor(lowest)`, the worst droop's factor.
    lowest_factor: f64,
}

impl<'a> NoiseReach<'a> {
    /// The reach of `point`'s noise model along `curve`.
    pub(crate) fn new(curve: &'a VddDelayCurve, point: OperatingPoint) -> Self {
        let noise = point.noise();
        let excursion = noise.max_excursion_volts();
        let vdd = point.vdd();
        let lowest = vdd - excursion;
        NoiseReach {
            curve,
            period_ps: point.period_ps(),
            vdd,
            sigma_volts: noise.sigma_volts(),
            silent: excursion == 0.0,
            monotone: non_increasing_over(curve, lowest, vdd + excursion),
            lowest,
            nominal_factor: curve.delay_factor(vdd),
            lowest_factor: curve.delay_factor(lowest),
        }
    }

    /// The gate of a path with worst delay `max_delay_ps`.
    ///
    /// The full path it guards violates when
    /// `max_delay_ps > period / factor`, with `factor =
    /// curve.delay_factor(vdd + noise) / curve.delay_factor(vdd)`.
    pub(crate) fn gate(&self, max_delay_ps: f64) -> NoiseGate {
        if self.silent {
            // Every sample is ±0 V, the factor is exactly 1.0 and the full
            // path compares `max_delay_ps <= period`: decide it exactly.
            return if max_delay_ps <= self.period_ps {
                NoiseGate::Never
            } else {
                NoiseGate::Always
            };
        }
        if !self.monotone {
            return NoiseGate::Always;
        }
        // The largest curve factor the path tolerates, tightened by the
        // margin.
        let limit = self.period_ps / max_delay_ps * self.nominal_factor * (1.0 - MARGIN);
        if self.lowest_factor <= limit {
            return NoiseGate::Never;
        }
        if self.nominal_factor > limit {
            return NoiseGate::Always;
        }
        match crossing_voltage(self.curve, limit, self.lowest, self.vdd) {
            Some(critical) => {
                // Box–Muller radius of the critical droop, in sigmas:
                // r < critical_r  <=>  -2 ln u1 < critical_r²; the margin
                // is applied in the log domain.
                let critical_r = (self.vdd - critical) / self.sigma_volts;
                NoiseGate::Radius {
                    u1_min: round_up_f32((MARGIN - 0.5 * critical_r * critical_r).exp()),
                }
            }
            None => NoiseGate::Always,
        }
    }
}

impl NoiseGate {
    /// Whether the sample the uniforms `(u1, u2)` map to (see
    /// [`VoltageNoise::volts_from_uniforms`]) provably causes no
    /// violation.
    #[inline]
    pub fn skips(self, u1: f64, u2: f64) -> bool {
        match self {
            NoiseGate::Never => true,
            NoiseGate::Radius { u1_min } => {
                u1 >= f64::from(u1_min) || u2 <= RISE_BELOW || u2 >= RISE_ABOVE
            }
            NoiseGate::Always => false,
        }
    }

    /// Draws this cycle's noise sample in volts, or `None` when the gate
    /// proves it causes no violation.  Either way `rng` advances exactly
    /// as [`VoltageNoise::sample_volts`] advances it.
    #[inline]
    pub(crate) fn sample_volts<R: Rng + ?Sized>(
        self,
        noise: &VoltageNoise,
        rng: &mut R,
    ) -> Option<f64> {
        match self {
            NoiseGate::Never => {
                noise.skip_sample(rng);
                None
            }
            NoiseGate::Always => Some(noise.sample_volts(rng)),
            // Radius gates exist only for σ > 0, where `sample_volts`
            // draws exactly these two uniforms.
            NoiseGate::Radius { .. } => {
                let (u1, u2) = noise.uniforms(rng);
                (!self.skips(u1, u2)).then(|| noise.volts_from_uniforms(u1, u2))
            }
        }
    }
}

/// The smallest `f32` at or above `x`.
fn round_up_f32(x: f64) -> f32 {
    let nearest = x as f32;
    if f64::from(nearest) < x {
        nearest.next_up()
    } else {
        nearest
    }
}

/// Whether `curve` is non-increasing on `[lo, hi]`: every sampled segment
/// touching the range (widened by the margin) falls or stays flat.
/// Outside its samples the curve is clamped, hence flat.
fn non_increasing_over(curve: &VddDelayCurve, lo: f64, hi: f64) -> bool {
    let slack = MARGIN * hi.abs().max(lo.abs());
    let (v, f) = (curve.voltages(), curve.factors());
    (0..v.len() - 1)
        .filter(|&k| v[k + 1] >= lo - slack && v[k] <= hi + slack)
        .all(|k| f[k + 1] <= f[k])
}

/// The voltage in `[lo, hi]` where the non-increasing `curve` falls to
/// `limit`, given `curve(lo) > limit >= curve(hi)`: linear interpolation
/// inside the one segment that crosses it.
fn crossing_voltage(curve: &VddDelayCurve, limit: f64, lo: f64, hi: f64) -> Option<f64> {
    let (v, f) = (curve.voltages(), curve.factors());
    (0..v.len() - 1)
        .filter(|&k| v[k + 1] > lo && v[k] < hi)
        .find(|&k| f[k] > limit && f[k + 1] <= limit)
        .map(|k| v[k] + (f[k] - limit) / (f[k] - f[k + 1]) * (v[k + 1] - v[k]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_netlist::VoltageScaling;

    fn curve() -> VddDelayCurve {
        VddDelayCurve::from_scaling(&VoltageScaling::default_28nm(), 0.6, 1.0, 5)
    }

    fn gate(curve: &VddDelayCurve, point: OperatingPoint, max_delay_ps: f64) -> NoiseGate {
        NoiseReach::new(curve, point).gate(max_delay_ps)
    }

    /// 1000 MHz (a 1000 ps period) at 0.7 V.
    fn point(sigma_mv: f64) -> OperatingPoint {
        OperatingPoint::new(1000.0, 0.7).with_noise_sigma_mv(sigma_mv)
    }

    #[test]
    fn noiseless_gates_are_exact() {
        let c = curve();
        let p = point(0.0);
        assert_eq!(gate(&c, p, p.period_ps()), NoiseGate::Never);
        let longer = p.period_ps() * (1.0 + f64::EPSILON);
        assert_eq!(gate(&c, p, longer), NoiseGate::Always);
        // A zero clip point silences any sigma.
        let clipped =
            point(10.0).with_noise(VoltageNoise::with_sigma_mv(10.0).with_clip_sigmas(0.0));
        assert_eq!(gate(&c, clipped, 999.0), NoiseGate::Never);
    }

    #[test]
    fn states_follow_the_worst_delay() {
        let c = curve();
        let p = point(10.0);
        let worst = c.delay_factor(0.7 - 0.020) / c.delay_factor(0.7);
        let edge = p.period_ps() / worst;
        assert_eq!(gate(&c, p, edge * 0.999), NoiseGate::Never);
        assert!(matches!(
            gate(&c, p, edge * 1.001),
            NoiseGate::Radius { u1_min } if u1_min > 0.0 && u1_min < 1.0
        ));
        assert_eq!(gate(&c, p, p.period_ps() * 1.001), NoiseGate::Always);
        assert_eq!(gate(&c, p, 0.0), NoiseGate::Never);
    }

    #[test]
    fn radius_grows_toward_the_clip_point() {
        let c = curve();
        let p = point(10.0);
        let u1_min = |delay: f64| match gate(&c, p, delay) {
            NoiseGate::Radius { u1_min } => u1_min,
            other => panic!("expected a radius gate, got {other:?}"),
        };
        // A longer path violates at a smaller droop, so a smaller radius
        // (a larger u1) already reaches it.
        assert!(u1_min(990.0) > u1_min(960.0));
        // At the nominal limit the critical radius is ~0: only the angle
        // test skips.
        assert!(u1_min(p.period_ps() * (1.0 - 2.0 * MARGIN)) >= 1.0);
    }

    #[test]
    fn rounding_up_to_f32_never_lowers_the_bound() {
        for x in [
            0.0,
            1e-50,
            0.1,
            0.428_168_154_312_350_4,
            1.0 - 1e-12,
            1.0,
            1.0 + 1e-9,
        ] {
            let up = round_up_f32(x);
            assert!(f64::from(up) >= x, "{x}");
            assert!(up == 0.0 || f64::from(up.next_down()) < x, "{x}");
        }
    }

    #[test]
    fn angle_test_skips_rises_only() {
        let gate = NoiseGate::Radius { u1_min: 2.0 };
        for u2 in [0.0, 0.1, 0.2499, 0.7501, 0.9] {
            assert!(gate.skips(0.5, u2), "u2 {u2} is a rise");
        }
        for u2 in [0.25, 0.5, 0.75] {
            assert!(!gate.skips(0.5, u2), "u2 {u2} may droop");
        }
        assert!(NoiseGate::Never.skips(0.0, 0.5));
        assert!(!NoiseGate::Always.skips(1.0, 0.0));
    }

    #[test]
    fn non_monotone_curves_fall_back() {
        let bumpy =
            VddDelayCurve::from_samples(&[(0.6, 1.3), (0.69, 1.0), (0.71, 1.1), (0.8, 0.8)]);
        assert_eq!(gate(&bumpy, point(10.0), 100.0), NoiseGate::Always);
        // Out of the noise's reach the bump does not matter.
        let far = OperatingPoint::new(1000.0, 0.75).with_noise_sigma_mv(10.0);
        assert_eq!(gate(&bumpy, far, 100.0), NoiseGate::Never);
    }

    #[test]
    fn gated_sampling_keeps_the_stream_aligned() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let c = curve();
        let p = point(25.0);
        let noise = p.noise();
        for gate in [NoiseGate::Never, gate(&c, p, 990.0), NoiseGate::Always] {
            let mut gated = SmallRng::seed_from_u64(3);
            let mut full = SmallRng::seed_from_u64(3);
            for _ in 0..1000 {
                let sample = gate.sample_volts(&noise, &mut gated);
                let reference = noise.sample_volts(&mut full);
                if let Some(volts) = sample {
                    assert_eq!(volts.to_bits(), reference.to_bits());
                }
            }
            assert_eq!(gated, full, "{gate:?}");
        }
    }
}

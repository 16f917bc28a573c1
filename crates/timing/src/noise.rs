//! Supply-voltage noise model.
//!
//! The paper models high-frequency supply noise as a zero-mean normal
//! distribution with standard deviation `σ`, clipped at `±2σ` to avoid
//! physically unrealistic spikes from the tails.  A fresh independent sample
//! is drawn every simulated cycle.

use rand::Rng;

/// Zero-mean, clipped Gaussian supply-voltage noise.
///
/// # Example
///
/// ```
/// use rand::{rngs::SmallRng, SeedableRng};
/// use sfi_timing::VoltageNoise;
///
/// let noise = VoltageNoise::with_sigma_mv(10.0);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let v = noise.sample_volts(&mut rng);
/// assert!(v.abs() <= 0.020 + 1e-12); // clipped at 2 sigma = 20 mV
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageNoise {
    sigma_volts: f64,
    clip_sigmas: f64,
}

impl VoltageNoise {
    /// Creates a noise source with standard deviation `sigma_volts` (in
    /// volts) and the paper's default clipping at two standard deviations.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_volts` is negative.
    pub fn new(sigma_volts: f64) -> Self {
        assert!(
            sigma_volts >= 0.0,
            "noise sigma must be non-negative, got {sigma_volts}"
        );
        VoltageNoise {
            sigma_volts,
            clip_sigmas: 2.0,
        }
    }

    /// Convenience constructor taking the standard deviation in millivolts,
    /// the unit the paper quotes (σ = 0, 10, 25 mV).
    pub fn with_sigma_mv(sigma_mv: f64) -> Self {
        VoltageNoise::new(sigma_mv * 1e-3)
    }

    /// A noiseless source (σ = 0).
    pub fn none() -> Self {
        VoltageNoise::new(0.0)
    }

    /// Returns a copy with a different clipping point, expressed in standard
    /// deviations.  The paper uses 2σ.
    ///
    /// # Panics
    ///
    /// Panics if `clip_sigmas` is negative.
    pub fn with_clip_sigmas(mut self, clip_sigmas: f64) -> Self {
        assert!(
            clip_sigmas >= 0.0,
            "clip point must be non-negative, got {clip_sigmas}"
        );
        self.clip_sigmas = clip_sigmas;
        self
    }

    /// The standard deviation in volts.
    pub fn sigma_volts(&self) -> f64 {
        self.sigma_volts
    }

    /// The standard deviation in millivolts.
    pub fn sigma_mv(&self) -> f64 {
        self.sigma_volts * 1e3
    }

    /// The clipping point in standard deviations.
    pub fn clip_sigmas(&self) -> f64 {
        self.clip_sigmas
    }

    /// Maximum magnitude a sample can take, in volts.
    pub fn max_excursion_volts(&self) -> f64 {
        self.sigma_volts * self.clip_sigmas
    }

    /// Whether this source produces any noise at all.
    pub fn is_none(&self) -> bool {
        self.sigma_volts == 0.0
    }

    /// Draws one independent noise sample in volts.
    ///
    /// Uses the Box–Muller transform so only the `rand` core is required:
    /// the composition of [`VoltageNoise::uniforms`] and
    /// [`VoltageNoise::volts_from_uniforms`].  A noiseless source draws
    /// nothing.
    pub fn sample_volts<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.sigma_volts == 0.0 {
            return 0.0;
        }
        let (u1, u2) = self.uniforms(rng);
        self.volts_from_uniforms(u1, u2)
    }

    /// Draws the two Box–Muller uniforms of one sample: `u1` in
    /// `[f64::MIN_POSITIVE, 1)` (the radius) and `u2` in `[0, 1)` (the
    /// angle).  Always consumes two words of `rng`.
    pub fn uniforms<R: Rng + ?Sized>(&self, rng: &mut R) -> (f64, f64) {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (u1, u2)
    }

    /// The clipped noise sample, in volts, that the uniforms `(u1, u2)`
    /// map to under the Box–Muller transform.
    pub fn volts_from_uniforms(&self, u1: f64, u2: f64) -> f64 {
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let clipped = z.clamp(-self.clip_sigmas, self.clip_sigmas);
        clipped * self.sigma_volts
    }

    /// Advances `rng` exactly as [`VoltageNoise::sample_volts`] does,
    /// without computing the sample: for callers that can prove the value
    /// does not matter but must keep the random stream aligned.
    pub fn skip_sample<R: Rng + ?Sized>(&self, rng: &mut R) {
        if self.sigma_volts != 0.0 {
            self.uniforms(rng);
        }
    }
}

impl Default for VoltageNoise {
    fn default() -> Self {
        VoltageNoise::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zero_sigma_is_silent() {
        let n = VoltageNoise::none();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(n.sample_volts(&mut rng), 0.0);
        }
        assert!(n.is_none());
        assert_eq!(n.max_excursion_volts(), 0.0);
    }

    #[test]
    fn samples_respect_clipping() {
        let n = VoltageNoise::with_sigma_mv(25.0);
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let v = n.sample_volts(&mut rng);
            assert!(v.abs() <= n.max_excursion_volts() + 1e-15);
        }
    }

    #[test]
    fn sample_statistics_roughly_gaussian() {
        let n = VoltageNoise::with_sigma_mv(10.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let count = 50_000;
        let samples: Vec<f64> = (0..count).map(|_| n.sample_volts(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / count as f64;
        assert!(mean.abs() < 0.5e-3, "mean {mean} should be close to zero");
        // Clipping at 2 sigma removes a bit of variance; expect ~0.95 sigma.
        let std = var.sqrt();
        assert!(
            (0.0085..=0.0105).contains(&std),
            "std {std} out of expected range"
        );
    }

    #[test]
    fn unit_conversions() {
        let n = VoltageNoise::with_sigma_mv(10.0);
        assert!((n.sigma_volts() - 0.010).abs() < 1e-12);
        assert!((n.sigma_mv() - 10.0).abs() < 1e-9);
        assert_eq!(n.clip_sigmas(), 2.0);
        let wide = n.with_clip_sigmas(3.0);
        assert_eq!(wide.clip_sigmas(), 3.0);
        assert!(wide.max_excursion_volts() > n.max_excursion_volts());
    }

    #[test]
    fn skip_sample_consumes_what_sample_volts_consumes() {
        for sigma_mv in [0.0, 10.0] {
            let n = VoltageNoise::with_sigma_mv(sigma_mv);
            let mut sampled = SmallRng::seed_from_u64(11);
            let mut skipped = SmallRng::seed_from_u64(11);
            for _ in 0..100 {
                n.sample_volts(&mut sampled);
                n.skip_sample(&mut skipped);
            }
            assert_eq!(sampled, skipped, "sigma {sigma_mv} mV");
        }
    }

    #[test]
    fn sample_is_the_transform_of_the_uniforms() {
        let n = VoltageNoise::with_sigma_mv(25.0);
        let mut a = SmallRng::seed_from_u64(5);
        let mut b = SmallRng::seed_from_u64(5);
        for _ in 0..1000 {
            let (u1, u2) = n.uniforms(&mut b);
            assert_eq!(
                n.sample_volts(&mut a).to_bits(),
                n.volts_from_uniforms(u1, u2).to_bits()
            );
        }
    }

    #[test]
    fn default_is_noiseless() {
        assert!(VoltageNoise::default().is_none());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_panics() {
        VoltageNoise::new(-1.0);
    }
}

//! Deterministic open-loop request-arrival generators.
//!
//! A serving deployment does not wait for the accelerator: requests arrive
//! when users send them. This module generates those arrival times — per
//! tenant, seeded, and **deterministic**: the sequence is a pure function of
//! the [`ArrivalConfig`], with a ChaCha8 stream cipher as the entropy source
//! (`seed_from_u64`, no wall clocks, no `RandomState`, no environment — the
//! D002 lint keeps it that way). Identical configs produce identical
//! sequences on every thread count, which is what lets the serving artifacts
//! stay byte-identical across `--threads 1` and `--threads 4`.
//!
//! Three trace shapes cover the canonical serving regimes:
//!
//! * [`ArrivalShape::Poisson`] — memoryless arrivals at a constant mean rate
//!   (the classic open-loop load model),
//! * [`ArrivalShape::Bursty`] — an interrupted Poisson process: exponential
//!   bursts of back-to-back arrivals separated by idle gaps, with the gap
//!   length chosen so the long-run mean rate still matches the configured
//!   rate,
//! * [`ArrivalShape::Diurnal`] — a sinusoidally modulated rate (day/night
//!   traffic), sampled by thinning against the peak rate; the modulation
//!   averages out, so the long-run mean rate again matches the configuration.

use rand::distributions::{Distribution, Open01, Standard};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use crate::error::SimError;

/// The shape of an arrival process (all shapes share the mean rate and the
/// seed held by the enclosing [`ArrivalConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ArrivalShape {
    /// Memoryless arrivals: exponential inter-arrival times at the mean rate.
    Poisson,
    /// Interrupted Poisson: bursts of arrivals at an elevated in-burst rate,
    /// separated by exponential idle gaps sized to preserve the mean rate.
    Bursty {
        /// Mean number of arrivals per burst (≥ 1).
        mean_burst_arrivals: f64,
        /// Fraction of time spent inside bursts, in `(0, 1]`. The in-burst
        /// rate is `mean rate / duty_fraction`; a duty of 1 degenerates to
        /// plain Poisson.
        duty_fraction: f64,
    },
    /// Sinusoidally rate-modulated arrivals (day/night traffic):
    /// `rate(t) = mean · (1 + A·sin(2πt/period))` with
    /// `A = 1 − trough_fraction`, sampled by thinning. The sine averages to
    /// zero, so the long-run mean rate is exactly the configured mean.
    Diurnal {
        /// Cycle count of one full day/night period (> 0).
        period_cycles: u64,
        /// Trough rate as a fraction of the mean, in `[0, 1]`. `1.0` means no
        /// modulation (plain Poisson); `0.0` means the rate dips to zero at
        /// the trough.
        trough_fraction: f64,
    },
}

impl ArrivalShape {
    /// Short label for artifact rows.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalShape::Poisson => "poisson",
            ArrivalShape::Bursty { .. } => "bursty",
            ArrivalShape::Diurnal { .. } => "diurnal",
        }
    }
}

/// A complete, validated description of one tenant's arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ArrivalConfig {
    /// Trace shape.
    pub shape: ArrivalShape,
    /// Mean arrival rate in requests per million cycles (> 0, finite).
    pub rate_per_mcycle: f64,
    /// Generation horizon: arrivals are generated in `[0, horizon_cycles)`.
    pub horizon_cycles: u64,
    /// Seed of the tenant's private ChaCha8 stream.
    pub seed: u64,
}

impl ArrivalConfig {
    /// Poisson arrivals at the given rate over the given horizon.
    #[must_use]
    pub fn poisson(rate_per_mcycle: f64, horizon_cycles: u64, seed: u64) -> Self {
        ArrivalConfig {
            shape: ArrivalShape::Poisson,
            rate_per_mcycle,
            horizon_cycles,
            seed,
        }
    }

    /// Validates the configuration. Invalid rate parameters (NaN, zero,
    /// negative, infinite) are rejected here with a clear error — a NaN rate
    /// fed to the exponential sampler would otherwise produce NaN timestamps
    /// and a generator loop that never terminates.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        let invalid = |reason: String| Err(SimError::InvalidConfig { reason });
        if !self.rate_per_mcycle.is_finite() || self.rate_per_mcycle <= 0.0 {
            return invalid(format!(
                "arrival rate must be positive and finite, got {} requests/Mcycle",
                self.rate_per_mcycle
            ));
        }
        if self.horizon_cycles == 0 {
            return invalid("arrival horizon must be at least one cycle".to_string());
        }
        match self.shape {
            ArrivalShape::Poisson => {}
            ArrivalShape::Bursty {
                mean_burst_arrivals,
                duty_fraction,
            } => {
                if !mean_burst_arrivals.is_finite() || mean_burst_arrivals < 1.0 {
                    return invalid(format!(
                        "bursty shape needs a finite mean of at least one arrival per burst, \
                         got {mean_burst_arrivals}"
                    ));
                }
                if !duty_fraction.is_finite() || duty_fraction <= 0.0 || duty_fraction > 1.0 {
                    return invalid(format!(
                        "bursty duty fraction must lie in (0, 1], got {duty_fraction}"
                    ));
                }
            }
            ArrivalShape::Diurnal {
                period_cycles,
                trough_fraction,
            } => {
                if period_cycles == 0 {
                    return invalid("diurnal period must be at least one cycle".to_string());
                }
                if !trough_fraction.is_finite() || !(0.0..=1.0).contains(&trough_fraction) {
                    return invalid(format!(
                        "diurnal trough fraction must lie in [0, 1], got {trough_fraction}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Generates the full arrival sequence: non-decreasing cycle timestamps
    /// in `[0, horizon_cycles)`, a pure function of this config.
    ///
    /// # Errors
    ///
    /// Propagates [`ArrivalConfig::validate`] failures.
    pub fn generate(&self) -> Result<Vec<u64>, SimError> {
        self.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let rate = self.rate_per_mcycle / 1e6;
        let horizon = self.horizon_cycles as f64;
        let mut arrivals = Vec::new();
        match self.shape {
            ArrivalShape::Poisson => {
                let mut t = exponential(&mut rng, 1.0 / rate);
                while t < horizon {
                    arrivals.push(t as u64);
                    t += exponential(&mut rng, 1.0 / rate);
                }
            }
            ArrivalShape::Bursty {
                mean_burst_arrivals,
                duty_fraction,
            } => {
                // In-burst rate compresses the mean rate into the duty
                // fraction; the idle gap restores the long-run mean
                // (renewal-reward: arrivals per burst over burst + gap time).
                let burst_rate = rate / duty_fraction;
                let mean_busy = mean_burst_arrivals / burst_rate;
                let mean_gap = mean_busy * (1.0 - duty_fraction) / duty_fraction;
                let mut t = 0.0f64;
                while t < horizon {
                    // Geometric-like burst size with the configured mean:
                    // one guaranteed arrival plus an exponential surplus.
                    let surplus = exponential(&mut rng, (mean_burst_arrivals - 1.0).max(1e-12));
                    let burst = 1 + surplus as u64;
                    for _ in 0..burst {
                        t += exponential(&mut rng, 1.0 / burst_rate);
                        if t >= horizon {
                            break;
                        }
                        arrivals.push(t as u64);
                    }
                    if mean_gap > 0.0 {
                        t += exponential(&mut rng, mean_gap);
                    }
                }
            }
            ArrivalShape::Diurnal {
                period_cycles,
                trough_fraction,
            } => {
                // Thinning (Lewis–Shedler): sample at the peak rate, accept
                // with probability rate(t)/peak.
                let amplitude = 1.0 - trough_fraction;
                let peak = rate * (1.0 + amplitude);
                let omega = std::f64::consts::TAU / period_cycles as f64;
                let mut t = 0.0f64;
                loop {
                    t += exponential(&mut rng, 1.0 / peak);
                    if t >= horizon {
                        break;
                    }
                    let rate_at_t = rate * (1.0 + amplitude * (omega * t).sin());
                    let u: f64 = Standard.sample(&mut rng);
                    if u * peak <= rate_at_t {
                        arrivals.push(t as u64);
                    }
                }
            }
        }
        Ok(arrivals)
    }
}

/// One exponential sample with the given mean, strictly positive.
fn exponential<R: rand::RngCore>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = Open01.sample(rng);
    -u.ln() * mean
}

/// Derives a decorrelated child seed from a base seed and a lane index
/// (tenant number) via two SplitMix64 steps — the standard way this workspace
/// fans one experiment seed out into per-tenant streams.
#[must_use]
pub fn derive_seed(base: u64, lane: u64) -> u64 {
    let mut state = base;
    let mut mixed = rand::splitmix64(&mut state) ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    rand::splitmix64(&mut mixed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_rejected(config: ArrivalConfig) {
        assert!(
            matches!(config.generate(), Err(SimError::InvalidConfig { .. })),
            "{config:?} should be rejected"
        );
    }

    #[test]
    fn invalid_rates_are_rejected_not_hung() {
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_rejected(ArrivalConfig::poisson(rate, 1000, 1));
        }
        assert_rejected(ArrivalConfig::poisson(10.0, 0, 1));
    }

    #[test]
    fn invalid_shape_parameters_are_rejected() {
        let base = |shape| ArrivalConfig {
            shape,
            rate_per_mcycle: 100.0,
            horizon_cycles: 10_000,
            seed: 7,
        };
        for (mean, duty) in [
            (0.5, 0.5),
            (f64::NAN, 0.5),
            (4.0, 0.0),
            (4.0, 1.5),
            (4.0, f64::NAN),
        ] {
            assert_rejected(base(ArrivalShape::Bursty {
                mean_burst_arrivals: mean,
                duty_fraction: duty,
            }));
        }
        for (period, trough) in [(0u64, 0.5), (100, -0.1), (100, 1.1), (100, f64::NAN)] {
            assert_rejected(base(ArrivalShape::Diurnal {
                period_cycles: period,
                trough_fraction: trough,
            }));
        }
    }

    #[test]
    fn sequences_are_non_decreasing_in_horizon_and_seed_stable() {
        let shapes = [
            ArrivalShape::Poisson,
            ArrivalShape::Bursty {
                mean_burst_arrivals: 6.0,
                duty_fraction: 0.25,
            },
            ArrivalShape::Diurnal {
                period_cycles: 50_000,
                trough_fraction: 0.2,
            },
        ];
        for shape in shapes {
            let config = ArrivalConfig {
                shape,
                rate_per_mcycle: 20_000.0,
                horizon_cycles: 200_000,
                seed: 42,
            };
            let arrivals = config.generate().unwrap();
            assert!(!arrivals.is_empty(), "{} generated nothing", shape.label());
            assert!(
                arrivals.windows(2).all(|w| w[0] <= w[1]),
                "{} timestamps decrease",
                shape.label()
            );
            assert!(*arrivals.last().unwrap() < config.horizon_cycles);
            assert_eq!(
                arrivals,
                config.generate().unwrap(),
                "{} is not seed-stable",
                shape.label()
            );
            let mut other = config;
            other.seed = 43;
            assert_ne!(
                arrivals,
                other.generate().unwrap(),
                "{} ignores its seed",
                shape.label()
            );
        }
    }

    #[test]
    fn empirical_rates_match_the_configured_mean() {
        // Long horizons tighten the empirical rate around the mean; 15% is
        // ~5σ for the Poisson case and generous for the modulated shapes.
        let shapes = [
            ArrivalShape::Poisson,
            ArrivalShape::Bursty {
                mean_burst_arrivals: 8.0,
                duty_fraction: 0.25,
            },
            ArrivalShape::Diurnal {
                period_cycles: 100_000,
                trough_fraction: 0.3,
            },
        ];
        for shape in shapes {
            let config = ArrivalConfig {
                shape,
                rate_per_mcycle: 5_000.0,
                horizon_cycles: 1_000_000, // expect ~5000 arrivals
                seed: 9,
            };
            let count = config.generate().unwrap().len() as f64;
            let expected = config.rate_per_mcycle * config.horizon_cycles as f64 / 1e6;
            let relative_error = (count - expected).abs() / expected;
            assert!(
                relative_error < 0.15,
                "{}: {count} arrivals vs {expected} expected ({relative_error:.3} off)",
                shape.label()
            );
        }
    }

    #[test]
    fn duty_one_bursty_and_trough_one_diurnal_stay_close_to_poisson_statistics() {
        // Degenerate parameters collapse the modulated shapes back to
        // constant-rate processes; their counts should land near Poisson's.
        let horizon = 500_000;
        let rate = 2_000.0;
        let poisson = ArrivalConfig::poisson(rate, horizon, 3).generate().unwrap();
        let flat_diurnal = ArrivalConfig {
            shape: ArrivalShape::Diurnal {
                period_cycles: 10_000,
                trough_fraction: 1.0,
            },
            rate_per_mcycle: rate,
            horizon_cycles: horizon,
            seed: 3,
        }
        .generate()
        .unwrap();
        let expected = rate * horizon as f64 / 1e6;
        for (label, count) in [
            ("poisson", poisson.len()),
            ("flat diurnal", flat_diurnal.len()),
        ] {
            let relative_error = (count as f64 - expected).abs() / expected;
            assert!(relative_error < 0.2, "{label}: {count} vs {expected}");
        }
    }

    #[test]
    fn derived_seeds_decorrelate_lanes() {
        let a = derive_seed(0xBEEF, 0);
        let b = derive_seed(0xBEEF, 1);
        let c = derive_seed(0xBEF0, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(0xBEEF, 0));
    }
}

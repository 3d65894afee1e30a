//! Open-loop arrival generation: seeded Poisson and diurnal processes.
//!
//! The generator is a *pure function* of `(seed, process, horizon)` and is
//! evaluated before the simulation starts, so the arrival trace — and
//! therefore the whole schedule — is identical from run to run by
//! construction. Open-loop means arrivals do not react to the system:
//! a congested cluster keeps receiving jobs at the offered rate, which is
//! exactly what makes tail latency and SLO attainment interesting.
//!
//! Randomness comes from a SplitMix64 stream: a fixed, dependency-free
//! generator whose output is stable across platforms and toolchains (the
//! golden registry pins tables derived from these draws).

/// The offered-load shape of one traffic source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateProcess {
    /// Homogeneous Poisson arrivals at `rate_per_s`.
    Poisson {
        /// Mean arrival rate, jobs per virtual second.
        rate_per_s: f64,
    },
    /// Non-homogeneous Poisson with a raised-cosine daily envelope:
    /// `rate(t) = base + (peak - base) * (1 - cos(2*pi*t/period)) / 2`,
    /// starting at the trough (t = 0 is "4 AM").
    Diurnal {
        /// Trough arrival rate, jobs per virtual second.
        base_per_s: f64,
        /// Peak arrival rate, jobs per virtual second.
        peak_per_s: f64,
        /// Length of one day, virtual seconds.
        period_s: f64,
    },
}

impl RateProcess {
    /// Instantaneous rate at virtual second `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        match *self {
            RateProcess::Poisson { rate_per_s } => rate_per_s,
            RateProcess::Diurnal {
                base_per_s,
                peak_per_s,
                period_s,
            } => {
                let phase = 2.0 * std::f64::consts::PI * t / period_s;
                base_per_s + (peak_per_s - base_per_s) * (1.0 - phase.cos()) / 2.0
            }
        }
    }

    /// An upper bound on the instantaneous rate (thinning envelope).
    fn rate_max(&self) -> f64 {
        match *self {
            RateProcess::Poisson { rate_per_s } => rate_per_s,
            RateProcess::Diurnal {
                base_per_s,
                peak_per_s,
                ..
            } => peak_per_s.max(base_per_s),
        }
    }
}

/// SplitMix64: deterministic 64-bit stream used for arrival draws.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeded stream.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in the open interval (0, 1).
    pub fn next_unit(&mut self) -> f64 {
        // 53 significant bits; +1 keeps the draw strictly positive so
        // -ln(u) below is always finite.
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Generate the arrival instants (virtual nanoseconds, strictly
/// increasing order of generation) of `process` over `[0, horizon_s)`.
///
/// Poisson arrivals use inverse-CDF exponential gaps; diurnal arrivals
/// use Lewis-Shedler thinning against the peak-rate envelope. Both
/// consume the SplitMix64 stream in a fixed order, so the trace is a
/// pure function of the seed.
pub fn arrivals(seed: u64, process: RateProcess, horizon_s: f64) -> Vec<u64> {
    let lambda_max = process.rate_max();
    // NaN rates/horizons fall through to the empty trace too.
    if lambda_max.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
        || horizon_s.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
    {
        return Vec::new();
    }
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    let mut t = 0.0_f64;
    loop {
        // Candidate gap at the envelope rate.
        let gap = -rng.next_unit().ln() / lambda_max;
        t += gap;
        if t >= horizon_s {
            return out;
        }
        let accept = match process {
            RateProcess::Poisson { .. } => true,
            RateProcess::Diurnal { .. } => rng.next_unit() < process.rate_at(t) / lambda_max,
        };
        if accept {
            out.push((t * 1e9).round() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_rate_is_close() {
        let a = arrivals(42, RateProcess::Poisson { rate_per_s: 5.0 }, 2000.0);
        let rate = a.len() as f64 / 2000.0;
        assert!((rate - 5.0).abs() < 0.25, "observed rate {rate}");
    }

    #[test]
    fn diurnal_peak_outdraws_trough() {
        let p = RateProcess::Diurnal {
            base_per_s: 0.5,
            peak_per_s: 8.0,
            period_s: 1000.0,
        };
        let a = arrivals(7, p, 1000.0);
        // First quarter (trough side) vs middle half (peak).
        let q1 = a.iter().filter(|t| **t < 250_000_000_000).count();
        let mid = a
            .iter()
            .filter(|t| (250_000_000_000..750_000_000_000).contains(*t))
            .count();
        assert!(mid > 2 * q1, "trough {q1} vs peak {mid}");
    }

    #[test]
    fn zero_rate_or_horizon_is_empty() {
        assert!(arrivals(1, RateProcess::Poisson { rate_per_s: 0.0 }, 100.0).is_empty());
        assert!(arrivals(1, RateProcess::Poisson { rate_per_s: 1.0 }, 0.0).is_empty());
    }
}

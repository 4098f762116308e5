//! Deterministic random-number streams.
//!
//! Every stochastic component (workload generators, SSD service times,
//! failure injectors, ...) derives its own independent stream from the run
//! seed and a label, so adding a new component never perturbs the draws of
//! existing ones — runs stay reproducible as the simulator grows.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Derive an independent RNG stream from `(seed, label)`.
///
/// The label is folded with FNV-1a and mixed with SplitMix64 so that
/// similar labels ("server-1", "server-2") still yield uncorrelated
/// streams.
pub fn stream(seed: u64, label: &str) -> SmallRng {
    SmallRng::seed_from_u64(splitmix64(seed ^ label_hash(label)))
}

/// Derive an independent RNG stream from `(seed, label, index)`; handy for
/// per-server or per-flow streams.
pub fn stream_indexed(seed: u64, label: &str, index: u64) -> SmallRng {
    let h = label_hash(label);
    SmallRng::seed_from_u64(splitmix64(seed ^ h ^ splitmix64(index.wrapping_add(1))))
}

fn label_hash(label: &str) -> u64 {
    let mut h = crate::Fnv1a::default();
    h.bytes(label.as_bytes());
    h.finish()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Draw from a log-normal distribution with median `mu.exp()` and shape
/// sigma (latency tails in the SSD / BN models). Callers pass the log of
/// the median, computed once per stream rather than once per draw.
pub fn lognormal(rng: &mut impl Rng, mu: f64, sigma: f64) -> f64 {
    // Box-Muller transform.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (mu + sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a1 = stream(7, "alpha");
        let mut a2 = stream(7, "alpha");
        let draws1: Vec<u64> = (0..10).map(|_| a1.gen()).collect();
        let draws2: Vec<u64> = (0..10).map(|_| a2.gen()).collect();
        assert_eq!(draws1, draws2);
    }

    #[test]
    fn different_labels_differ() {
        let mut a = stream(7, "alpha");
        let mut b = stream(7, "beta");
        let da: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let db: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn indexed_streams_differ() {
        let mut a = stream_indexed(7, "server", 1);
        let mut b = stream_indexed(7, "server", 2);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn lognormal_median_is_close() {
        let mut rng = stream(1, "logn");
        let mut draws: Vec<f64> = (0..20_001)
            .map(|_| lognormal(&mut rng, 10f64.ln(), 0.5))
            .collect();
        draws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = draws[draws.len() / 2];
        assert!((median - 10.0).abs() < 0.5, "median {median}");
    }
}

//! Simulated time.
//!
//! All simulator timestamps are unsigned nanoseconds from the start of the
//! current simulation. Nanosecond resolution is fine-grained enough that
//! GPU-clock rounding error is negligible for the microsecond-scale kernels
//! we study, while `u64` keeps every comparison exact and deterministic.

/// A point in simulated time, in nanoseconds.
pub type SimTime = u64;

/// Nanoseconds per microsecond.
pub const NS_PER_US: u64 = 1_000;

/// One microsecond, in [`SimTime`] units.
pub const US: u64 = NS_PER_US;

/// Converts a GPU-cycle count to nanoseconds for a core clock in GHz.
///
/// Rounds up so that a nonzero amount of work never takes zero time.
#[inline]
pub fn cycles_to_ns(cycles: u64, clock_ghz: f64) -> u64 {
    debug_assert!(clock_ghz > 0.0, "clock must be positive");
    let ns = (cycles as f64) / clock_ghz;
    // `ceil` by truncation (`ns` is finite and non-negative), which keeps
    // the libm call off the per-op path on the baseline target.
    let whole = ns as u64;
    whole + u64::from((whole as f64) < ns)
}

/// Converts nanoseconds to milliseconds as a float, for reporting.
#[inline]
pub fn ns_to_ms(ns: SimTime) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_round_up() {
        // 1 cycle at 1.41 GHz is 0.709 ns, which must round to 1 ns.
        assert_eq!(cycles_to_ns(1, 1.41), 1);
        assert_eq!(cycles_to_ns(0, 1.41), 0);
    }

    #[test]
    fn cycles_scale_linearly() {
        let one_k = cycles_to_ns(1_000, 1.0);
        assert_eq!(one_k, 1_000);
        assert_eq!(cycles_to_ns(2_000, 2.0), 1_000);
    }

    #[test]
    fn truncating_ceil_matches_libm() {
        for clock in [0.7, 1.0, 1.38, 1.41, 1.5, 2.0] {
            for cycles in (0..200_000u64).step_by(7).chain([u32::MAX as u64, 1 << 60]) {
                let ns = (cycles as f64) / clock;
                assert_eq!(cycles_to_ns(cycles, clock), ns.ceil() as u64, "{cycles} @ {clock}");
            }
        }
    }

    #[test]
    fn ms_conversion() {
        assert!((ns_to_ms(1_500_000) - 1.5).abs() < 1e-12);
    }
}

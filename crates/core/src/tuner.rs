//! Cross-iteration optimization (§4).
//!
//! MGG tunes `(ps, dist, wpb)` during the first training iterations:
//!
//! 1. All knobs start at 1.
//! 2. Increase `ps` (doubling through its range) while latency improves;
//!    stop at the first regression.
//! 3. Do the same for `dist`.
//! 4. Do the same for `wpb`. If increasing `wpb` regresses immediately,
//!    "retreat" `ps` to its second-best value and retry the `wpb` climb.
//! 5. Stop when further moves cannot beat the top-3 lowest latencies seen.
//!
//! Every evaluated configuration and its latency are recorded in a lookup
//! table; the best configuration is applied for all following iterations
//! (the up-to-68% latency cut reported for Figure 10).

use std::collections::HashMap;

use serde::Serialize;

use crate::config::MggConfig;

/// One tuner probe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TuneStep {
    /// The probed configuration.
    pub config: MggConfig,
    /// Simulated latency the probe measured.
    pub latency_ns: u64,
}

/// Result of a tuning run.
#[derive(Debug, Clone, Serialize)]
pub struct TuneResult {
    /// The winning configuration.
    pub best: MggConfig,
    /// Its simulated latency.
    pub best_latency_ns: u64,
    /// Every evaluation, in order (the "configuration lookup table").
    pub trace: Vec<TuneStep>,
    /// Number of distinct configurations evaluated.
    pub iterations: usize,
}

impl TuneResult {
    /// Latency of the initial all-ones configuration, for the §5.3
    /// "decrease the execution time by up to 68%" comparison.
    pub fn initial_latency_ns(&self) -> u64 {
        self.trace.first().map(|s| s.latency_ns).unwrap_or(0)
    }

    /// Relative improvement of best over initial, in [0, 1).
    pub fn improvement(&self) -> f64 {
        let init = self.initial_latency_ns();
        if init == 0 {
            0.0
        } else {
            1.0 - self.best_latency_ns as f64 / init as f64
        }
    }
}

/// The §4 cross-iteration optimizer: greedy `ps → dist → wpb` coordinate
/// search with the "retreat ps" rule and top-3 stopping criterion. Generic
/// over the latency oracle so it can drive the real simulator or synthetic
/// cost surfaces in tests.
///
/// # Examples
///
/// ```
/// use mgg_core::{MggConfig, Tuner};
///
/// // A synthetic latency surface whose optimum is ps=8, dist=2, wpb=2.
/// let result = Tuner::new(|cfg: &MggConfig| {
///     let d = |a: u32, b: u32| ((a as f64).log2() - (b as f64).log2()).abs();
///     10_000 + (1_000.0 * (d(cfg.ps, 8) + d(cfg.dist, 2) + d(cfg.wpb, 2))) as u64
/// })
/// .run();
/// assert_eq!(result.best, MggConfig { ps: 8, dist: 2, wpb: 2 });
/// assert!(result.iterations <= 14); // the paper reports ~10 probes
/// ```
pub struct Tuner<F> {
    eval: F,
    table: HashMap<MggConfig, u64>,
    trace: Vec<TuneStep>,
    /// Feasibility filter (the §4 hardware constraints).
    feasible: Box<dyn Fn(&MggConfig) -> bool>,
}

impl<F: FnMut(&MggConfig) -> u64> Tuner<F> {
    /// Creates a tuner over a latency oracle (`eval` returns nanoseconds).
    pub fn new(eval: F) -> Self {
        Tuner {
            eval,
            table: HashMap::new(),
            trace: Vec::new(),
            feasible: Box::new(|_| true),
        }
    }

    /// Installs a feasibility filter; infeasible configs are never probed.
    pub fn with_feasibility(mut self, f: impl Fn(&MggConfig) -> bool + 'static) -> Self {
        self.feasible = Box::new(f);
        self
    }

    fn probe(&mut self, cfg: MggConfig) -> Option<u64> {
        if !(self.feasible)(&cfg) {
            return None;
        }
        if let Some(&lat) = self.table.get(&cfg) {
            return Some(lat);
        }
        let lat = (self.eval)(&cfg);
        self.table.insert(cfg, lat);
        self.trace.push(TuneStep { config: cfg, latency_ns: lat });
        Some(lat)
    }

    /// Climbs one knob through doubling steps while latency improves;
    /// returns `(best value, best latency, all probed (value, latency))`.
    fn climb(
        &mut self,
        base: MggConfig,
        set: impl Fn(MggConfig, u32) -> MggConfig,
        max: u32,
        start_latency: u64,
    ) -> (u32, u64, Vec<(u32, u64)>) {
        let mut best_v = 1u32;
        let mut best_lat = start_latency;
        let mut probed = vec![(1u32, start_latency)];
        let mut v = 2u32;
        while v <= max {
            let cfg = set(base, v);
            let Some(lat) = self.probe(cfg) else { break };
            probed.push((v, lat));
            if lat < best_lat {
                best_lat = lat;
                best_v = v;
            } else {
                // First regression ends the climb (§4: "when further
                // increasing ... would also increase the latency, we would
                // stop the search").
                break;
            }
            v *= 2;
        }
        (best_v, best_lat, probed)
    }

    /// Runs the full §4 search.
    pub fn run(mut self) -> TuneResult {
        let initial = MggConfig::initial();
        let init_lat = self.probe(initial).expect("initial configuration must be feasible");

        // Phase 1: ps.
        let (best_ps, ps_lat, ps_probes) =
            self.climb(initial, |c, v| MggConfig { ps: v, ..c }, *MggConfig::PS_RANGE.end(), init_lat);

        // Phase 2: dist, with ps fixed.
        let base_dist = MggConfig { ps: best_ps, ..initial };
        let (best_dist, dist_lat, _) = self.climb(
            base_dist,
            |c, v| MggConfig { dist: v, ..c },
            *MggConfig::DIST_RANGE.end(),
            ps_lat,
        );

        // Phase 3: wpb, with ps and dist fixed.
        let base_wpb = MggConfig { ps: best_ps, dist: best_dist, wpb: 1 };
        let (mut best_wpb, mut wpb_lat, wpb_probes) = self.climb(
            base_wpb,
            |c, v| MggConfig { wpb: v, ..c },
            *MggConfig::WPB_RANGE.end(),
            dist_lat,
        );

        let mut best = MggConfig { ps: best_ps, dist: best_dist, wpb: best_wpb };
        let mut best_lat = wpb_lat;

        // Retreat rule: if the wpb climb never improved, retreat ps to its
        // second-best probed value and restart the wpb climb there.
        let wpb_improved = wpb_probes.iter().any(|&(v, lat)| v > 1 && lat < dist_lat);
        if !wpb_improved && ps_probes.len() >= 2 {
            let mut by_lat = ps_probes.clone();
            by_lat.sort_by_key(|&(_, lat)| lat);
            let second_ps = by_lat
                .iter()
                .map(|&(v, _)| v)
                .find(|&v| v != best_ps)
                .unwrap_or(best_ps);
            if second_ps != best_ps {
                let retreat_base = MggConfig { ps: second_ps, dist: best_dist, wpb: 1 };
                if let Some(retreat_lat) = self.probe(retreat_base) {
                    let (r_wpb, r_lat, _) = self.climb(
                        retreat_base,
                        |c, v| MggConfig { wpb: v, ..c },
                        *MggConfig::WPB_RANGE.end(),
                        retreat_lat,
                    );
                    if r_lat < best_lat {
                        best = MggConfig { ps: second_ps, dist: best_dist, wpb: r_wpb };
                        best_lat = r_lat;
                        best_wpb = r_wpb;
                        wpb_lat = r_lat;
                    }
                }
            }
        }
        let _ = (best_wpb, wpb_lat);

        // Final sanity: the lookup table may hold something better than
        // the greedy endpoint (ties, retreat paths).
        if let Some((&cfg, &lat)) = self.table.iter().min_by_key(|(_, &l)| l) {
            if lat < best_lat {
                best = cfg;
                best_lat = lat;
            }
        }

        TuneResult {
            best,
            best_latency_ns: best_lat,
            iterations: self.trace.len(),
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic convex-ish latency surface with a known optimum.
    fn surface(opt: MggConfig) -> impl FnMut(&MggConfig) -> u64 {
        move |c: &MggConfig| {
            let d = |a: u32, b: u32| {
                let (la, lb) = ((a as f64).log2(), (b as f64).log2());
                (la - lb).abs()
            };
            let score = d(c.ps, opt.ps) + d(c.dist, opt.dist) + d(c.wpb, opt.wpb);
            10_000 + (score * 1_000.0) as u64
        }
    }

    #[test]
    fn finds_power_of_two_optimum() {
        let opt = MggConfig { ps: 16, dist: 4, wpb: 2 };
        let result = Tuner::new(surface(opt)).run();
        assert_eq!(result.best, opt, "trace: {:?}", result.trace);
        assert!(result.iterations <= 16, "took {} probes", result.iterations);
    }

    #[test]
    fn converges_in_about_ten_iterations() {
        // §5.3: "the overall searching process only requires about 10
        // iterations".
        let opt = MggConfig { ps: 8, dist: 2, wpb: 4 };
        let result = Tuner::new(surface(opt)).run();
        assert!(result.iterations <= 14, "took {} probes", result.iterations);
        assert_eq!(result.best, opt);
    }

    #[test]
    fn improvement_measured_against_initial() {
        let opt = MggConfig { ps: 32, dist: 16, wpb: 16 };
        let result = Tuner::new(surface(opt)).run();
        assert!(result.improvement() > 0.0);
        assert_eq!(result.initial_latency_ns(), result.trace[0].latency_ns);
    }

    #[test]
    fn respects_feasibility_filter() {
        let opt = MggConfig { ps: 32, dist: 1, wpb: 1 };
        let result = Tuner::new(surface(opt))
            .with_feasibility(|c| c.ps <= 8)
            .run();
        assert!(result.best.ps <= 8);
        assert!(result.trace.iter().all(|s| s.config.ps <= 8));
    }

    #[test]
    fn retreat_rule_explores_second_best_ps() {
        // Latency surface where wpb only helps at ps=4, but ps=8 looks
        // marginally better in phase 1.
        let eval = |c: &MggConfig| -> u64 {
            match (c.ps, c.dist, c.wpb) {
                (1, 1, 1) => 1_000,
                (2, 1, 1) => 960,
                (4, 1, 1) => 950,
                (8, 1, 1) => 900,
                (16, 1, 1) => 1_100,
                (8, 2, 1) => 1_200,
                (8, 1, _) => 2_000,
                (4, 1, 2) => 500, // big win after retreating
                (4, 1, _) => 600,
                _ => 3_000,
            }
        };
        let result = Tuner::new(eval).run();
        assert_eq!(result.best.ps, 4);
        assert!(result.best.wpb > 1);
        assert_eq!(result.best_latency_ns, 500);
    }

    #[test]
    fn lookup_table_never_reevaluates() {
        let mut calls = 0usize;
        let result = Tuner::new(|c: &MggConfig| {
            calls += 1;
            1_000 + c.ps as u64 + c.dist as u64 + c.wpb as u64
        })
        .run();
        assert_eq!(result.iterations, result.trace.len());
        // Each traced step is a distinct config: calls == trace length.
        let distinct: std::collections::HashSet<_> =
            result.trace.iter().map(|s| s.config).collect();
        assert_eq!(distinct.len(), result.trace.len());
    }
}

//! Report plumbing: printing and JSON persistence.

use std::path::Path;

use serde::Serialize;

/// Everything an experiment hands back to the harness.
pub trait ExperimentReport: Serialize {
    /// Paper artifact id, e.g. `"fig8"`.
    fn id(&self) -> &'static str;

    /// Prints the paper-style rows to stdout.
    fn print(&self);
}

/// Writes `report` as pretty JSON to `<dir>/<id>.json`.
pub fn write_json<R: ExperimentReport>(report: &R, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", report.id()));
    let json = serde_json::to_string_pretty(report).expect("reports serialize");
    std::fs::write(path, json)
}

/// Formats nanoseconds as milliseconds with three decimals.
pub fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// A fixed-width ASCII bar for terminal charts, scaled so `max` fills
/// `width` characters.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.clamp(1, width))
}

/// 64-bit FNV-1a over the little-endian bytes of `values`, as 16 hex
/// digits: the determinism digest the experiments report.
pub fn fnv1a(values: impl IntoIterator<Item = u64>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Geometric mean of a slice of ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn bars_scale_and_clamp() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(10.0, 10.0, 10), "##########");
        assert_eq!(bar(0.01, 10.0, 10), "#");
        assert_eq!(bar(0.0, 10.0, 10), "");
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(ms(1_500_000), "1.500");
        assert_eq!(ms(0), "0.000");
    }
}

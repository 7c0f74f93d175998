//! Micro-calibration: the simulator's first-order operation costs.
//!
//! §4 notes the parameter search space was defined "based on our
//! micro-benchmarking results on diverse datasets"; this experiment is
//! the reproduction's equivalent: targeted single-op kernels measure the
//! platform model's primitive costs, so readers can sanity-check every
//! constant behind the headline results (and see the latency/bandwidth
//! regimes that make the knobs matter).

use mgg_sim::{
    Cluster, ClusterSpec, GpuSim, KernelLaunch, KernelProgram, NoPaging, WarpOp,
};
use serde::Serialize;

/// One calibrated primitive (latency/bandwidth point).
#[derive(Debug, Clone, Serialize)]
pub struct MicrocalRow {
    /// What.
    pub what: String,
    /// , in simulated ns.
    pub ns: u64,
}

/// Microbenchmark calibration against vendor numbers.
#[derive(Debug, Clone, Serialize)]
pub struct MicrocalReport {
    /// Platform preset label.
    pub platform: String,
    /// Per-cell sweep rows.
    pub rows: Vec<MicrocalRow>,
}

/// One warp running one fixed trace.
struct OneWarp {
    ops: Vec<WarpOp>,
}

impl KernelProgram for OneWarp {
    fn launch(&self, pe: usize) -> KernelLaunch {
        KernelLaunch {
            blocks: if pe == 0 { 1 } else { 0 },
            warps_per_block: 1,
            smem_per_block: 0,
        }
    }
    fn warp_ops(&self, _pe: usize, _b: u32, _w: u32, out: &mut Vec<WarpOp>) {
        out.extend_from_slice(&self.ops);
    }
}

fn measure(spec: &ClusterSpec, ops: Vec<WarpOp>) -> u64 {
    let mut cluster = Cluster::new(spec.clone());
    GpuSim::run(&mut cluster, &OneWarp { ops }, &mut NoPaging)
        .expect("valid launch")
        .makespan_ns()
}

/// Measures the primitive costs on the given platform.
pub fn run_on(spec: ClusterSpec) -> MicrocalReport {
    let name = format!("{} x{}", spec.gpu.name, spec.num_gpus);
    let mut rows = Vec::new();
    let mut probe = |what: &str, ops: Vec<WarpOp>| {
        rows.push(MicrocalRow { what: what.to_string(), ns: measure(&spec, ops) });
    };

    probe("compute: 1000 cycles", vec![WarpOp::compute(1_000)]);
    probe("local read: 64 B row", vec![WarpOp::GlobalRead { bytes: 64 }]);
    probe("local read: 2.4 KiB row (dim 602)", vec![WarpOp::GlobalRead { bytes: 2_408 }]);
    probe(
        "blocking remote get: 64 B row",
        vec![WarpOp::RemoteGet { peer: 1, bytes: 64, nbi: false }],
    );
    probe(
        "blocking remote get: 2.4 KiB row",
        vec![WarpOp::RemoteGet { peer: 1, bytes: 2_408, nbi: false }],
    );
    probe(
        "nbi remote get + wait: 64 B row",
        vec![WarpOp::RemoteGet { peer: 1, bytes: 64, nbi: true }, WarpOp::WaitRemote],
    );
    probe(
        "nbi get hidden behind 3000 cycles",
        vec![
            WarpOp::RemoteGet { peer: 1, bytes: 64, nbi: true },
            WarpOp::compute(3_000),
            WarpOp::WaitRemote,
        ],
    );
    probe(
        "16 serialized blocking gets (direct-NVSHMEM pattern)",
        (0..16)
            .map(|_| WarpOp::RemoteGet { peer: 1, bytes: 64, nbi: false })
            .collect(),
    );
    probe(
        "16 nbi gets + one wait (MGG pattern)",
        (0..16)
            .map(|_| WarpOp::RemoteGet { peer: 1, bytes: 64, nbi: true })
            .chain([WarpOp::WaitRemote])
            .collect(),
    );
    MicrocalReport { platform: name, rows }
}

/// Measures A100 and V100 platforms.
pub fn run() -> Vec<MicrocalReport> {
    vec![run_on(ClusterSpec::dgx_a100(2)), run_on(ClusterSpec::dgx1_v100(2))]
}

impl crate::report::ExperimentReport for Vec<MicrocalReport> {
    fn id(&self) -> &'static str {
        "microcal"
    }

    fn print(&self) {
        println!("Micro-calibration: primitive operation costs of the platform model");
        for report in self {
            println!("\n{}", report.platform);
            for r in &report.rows {
                println!("  {:<48} {:>9} ns", r.what, r.ns);
            }
        }
        println!(
            "\n(the gap between the serialized-gets and nbi-gets rows is the \
             intra-warp pipelining headroom MGG exploits)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_have_sane_ordering() {
        let r = run_on(ClusterSpec::dgx_a100(2));
        let get = |what: &str| {
            r.rows
                .iter()
                .find(|row| row.what.starts_with(what))
                .unwrap_or_else(|| panic!("missing row {what}"))
                .ns
        };
        // Remote costs more than local; blocking chains cost more than
        // pipelined ones; hiding works.
        assert!(get("blocking remote get: 64") > get("local read: 64"));
        assert!(
            get("16 serialized blocking gets") > 4 * get("16 nbi gets"),
            "serialized {} vs pipelined {}",
            get("16 serialized blocking gets"),
            get("16 nbi gets")
        );
        let hidden = get("nbi get hidden behind 3000 cycles");
        let compute_only = get("compute: 1000 cycles") * 3;
        assert!(
            hidden < compute_only + 1_000,
            "a hidden get must cost barely more than the compute ({hidden})"
        );
    }

    #[test]
    fn v100_remote_costs_more_than_a100() {
        let a = run_on(ClusterSpec::dgx_a100(2));
        let v = run_on(ClusterSpec::dgx1_v100(2));
        let pick = |r: &MicrocalReport| {
            r.rows
                .iter()
                .find(|row| row.what.starts_with("blocking remote get: 2.4"))
                .unwrap()
                .ns
        };
        assert!(pick(&v) > pick(&a));
    }
}

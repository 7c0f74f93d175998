//! UVM oversubscription: what happens when the working set exceeds the
//! per-GPU page-cache capacity (the §2.2 thrashing regime).
//!
//! Sweeps the residency capacity from "everything fits" down to a small
//! fraction of the table and reports faults, thrash refetches, and the
//! resulting aggregation time — the pathology that motivates MGG's
//! explicit placement.
//!
//! ```sh
//! cargo run --release --example out_of_core
//! ```

use mgg::graph::datasets::DatasetSpec;
use mgg::sim::{Cluster, ClusterSpec, GpuSim, KernelLaunch, KernelProgram, WarpOp};
use mgg::uvm::UvmSpace;

/// Minimal per-node UVM aggregation kernel over the whole graph.
struct Kernel<'a> {
    graph: &'a mgg::graph::CsrGraph,
    dim: usize,
    page_bytes: u64,
    gpus: usize,
}

const WPB: u32 = 4;

impl KernelProgram for Kernel<'_> {
    fn launch(&self, _pe: usize) -> KernelLaunch {
        let nodes_per_gpu = self.graph.num_nodes().div_ceil(self.gpus) as u32;
        KernelLaunch {
            blocks: nodes_per_gpu.div_ceil(WPB).max(1),
            warps_per_block: WPB,
            smem_per_block: 2 * (self.dim as u32) * 4,
        }
    }

    fn warp_ops(&self, pe: usize, block: u32, warp: u32, out: &mut Vec<WarpOp>) {
        let nodes_per_gpu = self.graph.num_nodes().div_ceil(self.gpus);
        let i = pe * nodes_per_gpu + (block * WPB + warp) as usize;
        if i >= self.graph.num_nodes() || i >= (pe + 1) * nodes_per_gpu {
            return;
        }
        let row_bytes = (self.dim * 4) as u32;
        out.extend(self.graph.neighbors(i as u32).iter().map(|&u| WarpOp::PageAccess {
            page: u as u64 * self.dim as u64 * 4 / self.page_bytes,
            bytes: row_bytes,
        }));
        out.push(WarpOp::GlobalWrite { bytes: row_bytes });
    }
}

fn main() {
    let d = DatasetSpec::orkt().build(0.5);
    let dim = d.spec.dim;
    let gpus = 4;
    let table_bytes = d.graph.num_nodes() as u64 * dim as u64 * 4;
    let page_bytes = UvmSpace::new(gpus, 1).page_bytes();
    let table_pages = table_bytes.div_ceil(page_bytes) as usize;
    println!(
        "com-orkut stand-in: {} nodes, {} edges, dim {dim}; table = {} pages of {} KiB\n",
        d.graph.num_nodes(),
        d.graph.num_edges(),
        table_pages,
        page_bytes / 1024
    );
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>12}",
        "capacity", "faults", "thrash", "evictions", "time (ms)"
    );
    for frac in [1.0f64, 0.5, 0.25, 0.125] {
        let capacity = ((table_pages as f64 * frac) as usize).max(4);
        let mut uvm = UvmSpace::new(gpus, capacity);
        let mut cluster = Cluster::new(ClusterSpec::dgx_a100(gpus));
        let kernel = Kernel { graph: &d.graph, dim, page_bytes, gpus };
        let stats = GpuSim::run(&mut cluster, &kernel, &mut uvm).expect("valid launch");
        let u = uvm.stats();
        let thrash: u64 = u.per_gpu.iter().map(|g| g.thrash_refetches).sum();
        let evictions: u64 = u.per_gpu.iter().map(|g| g.evictions).sum();
        println!(
            "{:>9.0}% {:>10} {:>10} {:>10} {:>12.3}",
            100.0 * frac,
            u.total_faults(),
            thrash,
            evictions,
            stats.makespan_ns() as f64 / 1e6
        );
    }
    println!(
        "\nBelow full residency, pages bounce (thrash) and fault handling dominates —\n\
         the paper's motivation for replacing driver paging with explicit placement."
    );
}

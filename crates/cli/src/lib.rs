//! `mgg-cli`: end-user command line for the MGG reproduction.
//!
//! ```text
//! mgg-cli generate --dataset rdd --scale 1.0 -o graph.csr
//! mgg-cli generate --rmat 12,40000 --seed 7 -o graph.csr
//! mgg-cli stats graph.csr
//! mgg-cli partition graph.csr --gpus 8 [--multilevel]
//! mgg-cli reorder graph.csr -o better.csr
//! mgg-cli simulate graph.csr --gpus 8 --dim 64 --engine mgg [--tune] [--platform a100|v100|pcie]
//! mgg-cli serve graph.csr --gpus 8 --arrival poisson --qps 2e7 --deadline-us 1000 --zipf 0.9
//! mgg-cli train --communities 8 --size 150 --epochs 80 --gpus 8
//! ```
//!
//! Graph files ending in `.txt` use the whitespace edge-list format; any
//! other extension uses the compact binary CSR format.

#![deny(missing_docs)]

pub mod perfdiff;

use std::path::{Path, PathBuf};

use mgg_baselines::{DgclEngine, DirectNvshmemEngine, UvmGnnEngine};
use mgg_core::{
    AnalyticalModel, CacheConfig, CachePolicy, MggConfig, MggEngine, RecoveryAction,
    ReplicatedEngine, Tuner,
};
use mgg_churn::{ChurnSchedule, ChurnSpec, MembershipChange, MembershipEvent};
use mgg_fault::{FaultSchedule, FaultSpec, PermanentFault};
use mgg_gnn::reference::AggregateMode;
use mgg_graph::datasets::DatasetSpec;
use mgg_graph::generators::rmat::{rmat, RmatConfig};
use mgg_graph::partition::{locality, multilevel, reorder};
use mgg_graph::{io, CsrGraph, NodeSplit};
use mgg_serve::{
    ArrivalKind, Calibration, PriorityMix, ServeConfig, ServeSummary, Server, WorkloadSpec,
};
use mgg_sim::ClusterSpec;
use mgg_telemetry::Telemetry;
use serde::Serialize;

/// A parsed CLI invocation.
// One short-lived value per process; the size skew between variants is
// irrelevant, so boxing `Serve`'s fields would only add noise.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `generate`: write a synthetic graph to disk.
    Generate {
        /// Dataset recipe or R-MAT parameters.
        source: GraphSource,
        /// Output path (`-o`).
        out: PathBuf,
    },
    /// `stats`: print a graph's degree distribution.
    Stats {
        /// Graph file to inspect.
        graph: PathBuf,
    },
    /// `partition`: report the edge-balanced (or multilevel) node split.
    Partition {
        /// Graph file to partition.
        graph: PathBuf,
        /// Number of GPUs to split across.
        gpus: usize,
        /// Use the multilevel partitioner (`--multilevel`).
        multilevel: bool,
    },
    /// `reorder`: write a locality-improved node ordering.
    Reorder {
        /// Input graph file.
        graph: PathBuf,
        /// Output path (`-o`).
        out: PathBuf,
    },
    /// `simulate`: run one aggregation on a simulated platform.
    Simulate {
        /// Graph file to aggregate over.
        graph: PathBuf,
        /// Number of GPUs (`--gpus`).
        gpus: usize,
        /// Embedding dimension (`--dim`).
        dim: usize,
        /// Execution engine (`--engine mgg|uvm|direct|dgcl|replicated`).
        engine: Engine,
        /// Run the cross-iteration tuner first (`--tune`).
        tune: bool,
        /// Platform preset (`--platform a100|v100|pcie`).
        platform: Platform,
        /// Transient fault scenario (`--fault-*` knobs).
        fault: Option<FaultSpec>,
        /// Pinned permanent failures (`--fault-gpu-fail`, `--fault-link-down`).
        permanent: Vec<PermanentFault>,
        /// Chrome-trace output path (`--trace-out`).
        trace_out: Option<PathBuf>,
        /// Metrics JSON output path (`--metrics-out`).
        metrics_out: Option<PathBuf>,
        /// Worker-pool width (`--threads N`; None = all cores, 1 = sequential).
        threads: Option<usize>,
        /// Remote-embedding cache (`--cache-mb N [--cache-policy lru|lfu]`;
        /// None = caching disabled).
        cache: Option<CacheConfig>,
    },
    /// `profile`: attribute simulated time across pipeline phases.
    Profile {
        /// Graph file to aggregate over.
        graph: PathBuf,
        /// Number of GPUs (`--gpus`).
        gpus: usize,
        /// Embedding dimension (`--dim`).
        dim: usize,
        /// Execution engine (`--engine`).
        engine: Engine,
        /// Platform preset (`--platform`).
        platform: Platform,
        /// Chrome-trace output path (`--trace-out`).
        trace_out: Option<PathBuf>,
        /// Metrics JSON output path (`--metrics-out`).
        metrics_out: Option<PathBuf>,
        /// Worker-pool width (`--threads N`; None = all cores, 1 = sequential).
        threads: Option<usize>,
        /// Host-runtime attribution mode (`--host`): sequential-vs-parallel
        /// sweep with the worker-pool profiler, "where did the speedup go".
        host: bool,
    },
    /// `perfdiff`: compare two benchmark JSON reports.
    PerfDiff {
        /// The committed baseline report.
        baseline: PathBuf,
        /// The freshly regenerated report.
        candidate: PathBuf,
        /// Emit GitHub Actions `::warning::`/`::error::` annotations.
        annotate: bool,
        /// Exit non-zero when any metric regresses (default: report only).
        strict: bool,
        /// Machine-readable verdict (`--json-out`).
        json_out: Option<PathBuf>,
    },
    /// `train`: end-to-end GCN training on a synthetic SBM graph.
    Train {
        /// Number of planted communities.
        communities: usize,
        /// Nodes per community.
        size: usize,
        /// Training epochs.
        epochs: usize,
        /// Number of GPUs.
        gpus: usize,
    },
    /// `serve`: drive the async serving layer with a query workload.
    Serve {
        /// Graph file the server answers queries over.
        graph: PathBuf,
        /// Number of GPUs (`--gpus`).
        gpus: usize,
        /// Embedding dimension (`--dim`).
        dim: usize,
        /// Platform preset (`--platform`).
        platform: Platform,
        /// Arrival process shape (`--arrival poisson|bursty[:PERIOD,DUTY%]|ramp[:FROM,TO]`).
        arrival: ArrivalKind,
        /// Offered load in queries/s (`--qps`; None = 1.5x calibrated saturation).
        qps: Option<f64>,
        /// Per-query latency budget (`--deadline-us`).
        deadline_ns: u64,
        /// Zipf skew of the query mix (`--zipf`).
        zipf_s: f64,
        /// Workload window (`--duration`, ns/us/ms suffix).
        duration_ns: u64,
        /// Workload RNG seed (`--seed`).
        seed: u64,
        /// Maximum queries folded into one batch (`--batch-cap`).
        batch_cap: usize,
        /// Admission-queue depth (`--queue-cap`).
        queue_cap: usize,
        /// Transient fault scenario (`--fault-*` knobs).
        fault: Option<FaultSpec>,
        /// Pinned permanent failures (`--fault-gpu-fail`, `--fault-link-down`).
        permanent: Vec<PermanentFault>,
        /// Worker-pool width (`--threads N`).
        threads: Option<usize>,
        /// Priority-class weights (`--priority-mix GOLD,SILVER,BRONZE`;
        /// default all gold).
        mix: PriorityMix,
        /// Live-churn plane (`--churn-*`, `--drain/--leave/--join`;
        /// None = static graph, fixed membership).
        churn: Option<ChurnSpec>,
        /// Machine-readable run report (`--json-out`).
        json_out: Option<PathBuf>,
        /// Metrics JSON output path (`--metrics-out`).
        metrics_out: Option<PathBuf>,
    },
}

/// Where `generate` gets its graph.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSource {
    /// A named Table-3 dataset recipe (`--dataset NAME --scale S`).
    Dataset {
        /// Dataset name (e.g. `rdd`, `enwiki`).
        name: String,
        /// Size multiplier relative to the paper's dimensions.
        scale: f64,
    },
    /// An R-MAT sample (`--rmat SCALE,EDGES`).
    Rmat {
        /// log2 of the node count.
        scale: u32,
        /// Edges to sample.
        edges: usize,
        /// RNG seed (`--seed`).
        seed: u64,
    },
}

/// Which execution engine `simulate` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The pipelined MGG engine (this paper).
    Mgg,
    /// The unified-virtual-memory baseline.
    Uvm,
    /// The direct-NVSHMEM (unpipelined GET) strawman.
    Direct,
    /// The DGCL-like partition-and-relay baseline.
    Dgcl,
    /// Full-replication engine (every GPU holds all embeddings).
    Replicated,
}

/// Which platform preset `simulate` targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// DGX-A100: NVSwitch fabric, A100-class GPUs.
    A100,
    /// DGX-1 V100: hybrid-cube-mesh NVLink.
    V100,
    /// PCIe-only box (no fast fabric).
    Pcie,
}

/// Largest GPU count of every platform preset (each is one 8-GPU box).
const PLATFORM_MAX_GPUS: usize = 8;

impl Platform {
    fn spec(self, gpus: usize) -> ClusterSpec {
        match self {
            Platform::A100 => ClusterSpec::dgx_a100(gpus),
            Platform::V100 => ClusterSpec::dgx1_v100(gpus),
            Platform::Pcie => ClusterSpec::pcie_box(gpus),
        }
    }
}

/// Parses a duration with an `ms`/`us`/`ns` suffix (bare numbers are
/// nanoseconds) into nanoseconds.
fn parse_time_ns(s: &str) -> Result<u64, String> {
    let (num, mult) = if let Some(v) = s.strip_suffix("ms") {
        (v, 1_000_000)
    } else if let Some(v) = s.strip_suffix("us") {
        (v, 1_000)
    } else if let Some(v) = s.strip_suffix("ns") {
        (v, 1)
    } else {
        (s, 1)
    };
    num.trim()
        .parse::<u64>()
        .map(|n| n * mult)
        .map_err(|_| format!("bad time '{s}' (use e.g. 2ms, 500us or 1500)"))
}

/// Parses `--fault-gpu-fail GPU@TIME[,GPU@TIME...]` (e.g. `3@2ms`).
fn parse_gpu_fail(spec: &str, gpus: usize) -> Result<Vec<PermanentFault>, String> {
    spec.split(',')
        .map(|entry| {
            let (gpu, at) = entry
                .split_once('@')
                .ok_or_else(|| format!("--fault-gpu-fail expects GPU@TIME, got '{entry}'"))?;
            let gpu: usize =
                gpu.trim().parse().map_err(|_| format!("bad GPU index '{gpu}'"))?;
            if gpu >= gpus {
                return Err(format!("GPU {gpu} out of range for {gpus} GPUs"));
            }
            Ok(PermanentFault::GpuFailure { gpu, at_ns: parse_time_ns(at)? })
        })
        .collect()
}

/// Parses `--fault-link-down A-B@TIME[,A-B@TIME...]` (e.g. `0-1@500us`).
fn parse_link_down(spec: &str, gpus: usize) -> Result<Vec<PermanentFault>, String> {
    spec.split(',')
        .map(|entry| {
            let (pair, at) = entry
                .split_once('@')
                .ok_or_else(|| format!("--fault-link-down expects A-B@TIME, got '{entry}'"))?;
            let (a, b) = pair
                .split_once('-')
                .ok_or_else(|| format!("bad link pair '{pair}' (expected A-B)"))?;
            let src: usize = a.trim().parse().map_err(|_| format!("bad GPU index '{a}'"))?;
            let dst: usize = b.trim().parse().map_err(|_| format!("bad GPU index '{b}'"))?;
            if src >= gpus || dst >= gpus {
                return Err(format!("link {src}-{dst} out of range for {gpus} GPUs"));
            }
            if src == dst {
                return Err(format!("link {src}-{dst} needs two distinct GPUs"));
            }
            Ok(PermanentFault::LinkDown { src, dst, at_ns: parse_time_ns(at)? })
        })
        .collect()
}

/// Parses `--drain/--leave/--join SHARD@TIME[,SHARD@TIME...]` into
/// membership events (e.g. `--drain 2@500us`).
fn parse_membership(
    spec: &str,
    change: MembershipChange,
    gpus: usize,
) -> Result<Vec<MembershipEvent>, String> {
    spec.split(',')
        .map(|entry| {
            let (shard, at) = entry.split_once('@').ok_or_else(|| {
                format!("--{} expects SHARD@TIME, got '{entry}'", change.name())
            })?;
            let shard: u16 =
                shard.trim().parse().map_err(|_| format!("bad shard index '{shard}'"))?;
            if shard as usize >= gpus {
                return Err(format!("shard {shard} out of range for {gpus} GPUs"));
            }
            Ok(MembershipEvent { shard, at_ns: parse_time_ns(at)?, change })
        })
        .collect()
}

/// Names of a command's value flags and of its switches.
type FlagNames = (&'static [&'static str], &'static [&'static str]);

/// The value flags and the switches `cmd` reads (`-o` is the value flag
/// `out`). [`parse`] rejects any other flag, so a misspelt flag is an
/// error instead of being ignored.
fn command_flags(cmd: &str) -> Result<FlagNames, String> {
    Ok(match cmd {
        "generate" => (&["dataset", "scale", "rmat", "seed", "out"], &[]),
        "stats" => (&[], &[]),
        "partition" => (&["gpus"], &["multilevel"]),
        "reorder" => (&["out"], &[]),
        "train" => (&["communities", "size", "epochs", "gpus"], &[]),
        "simulate" => (
            &[
                "gpus", "dim", "engine", "platform", "fault-seed", "fault-link-degrade",
                "fault-straggler", "fault-drop-rate", "fault-gpu-fail", "fault-link-down",
                "trace-out", "metrics-out", "threads", "cache-mb", "cache-policy",
            ],
            &["tune"],
        ),
        "serve" => (
            &[
                "gpus", "dim", "platform", "arrival", "qps", "deadline-us", "zipf", "duration",
                "seed", "batch-cap", "queue-cap", "threads", "fault-seed", "fault-link-degrade",
                "fault-straggler", "fault-drop-rate", "fault-gpu-fail", "fault-link-down",
                "priority-mix", "churn-seed", "churn-deltas", "churn-fence-us",
                "churn-warmup-us", "drain", "leave", "join", "json-out", "metrics-out",
            ],
            &[],
        ),
        "profile" => (
            &["gpus", "dim", "engine", "platform", "trace-out", "metrics-out", "threads"],
            &["host"],
        ),
        "perfdiff" => (&["json-out"], &["annotate", "strict"]),
        other => return Err(format!("unknown command '{other}'")),
    })
}

/// Parses an argument vector (without the binary name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or("no command given")?;
    let (value_flags, switch_flags) = command_flags(cmd)?;
    let mut positional: Vec<String> = Vec::new();
    let mut flags: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    let mut switches: std::collections::HashSet<String> = std::collections::HashSet::new();
    while let Some(a) = it.next() {
        let name = match a.strip_prefix("--") {
            Some(name) => name,
            None if a == "-o" => "out",
            None => {
                positional.push(a.clone());
                continue;
            }
        };
        if switch_flags.contains(&name) {
            switches.insert(name.to_string());
        } else if value_flags.contains(&name) {
            let v = it.next().ok_or_else(|| format!("missing value for {a}"))?;
            flags.insert(name.to_string(), v.clone());
        } else {
            return Err(format!("unknown flag {a} for {cmd}"));
        }
    }
    let get_usize = |k: &str, default: usize| -> Result<usize, String> {
        flags
            .get(k)
            .map(|v| v.parse::<usize>().map_err(|_| format!("--{k} expects an integer")))
            .unwrap_or(Ok(default))
    };
    // `max` bounds commands that simulate a platform box; `partition` only
    // splits the graph, so any positive count works there.
    let get_gpus = |max: usize| -> Result<usize, String> {
        match get_usize("gpus", 8)? {
            0 => Err("--gpus must be >= 1".into()),
            n if n > max => Err(format!("--gpus must be <= {max} (one simulated {max}-GPU box)")),
            n => Ok(n),
        }
    };
    let get_dim = || -> Result<usize, String> {
        match get_usize("dim", 64)? {
            0 => Err("--dim must be >= 1".into()),
            d => Ok(d),
        }
    };
    let get_f64 = |k: &str, default: f64| -> Result<f64, String> {
        flags
            .get(k)
            .map(|v| v.parse::<f64>().map_err(|_| format!("--{k} expects a number")))
            .unwrap_or(Ok(default))
    };
    // The fault scenario of `simulate` and `serve` on `gpus` GPUs: the
    // seeded spec, if any fault flag is given, and the pinned permanent
    // faults.
    let get_fault_scenario =
        |gpus: usize| -> Result<(Option<FaultSpec>, Vec<PermanentFault>), String> {
            let fault_flags =
                ["fault-seed", "fault-link-degrade", "fault-straggler", "fault-drop-rate"];
            let fault = if fault_flags.iter().any(|k| flags.contains_key(*k)) {
                let spec = FaultSpec {
                    seed: get_usize("fault-seed", 0)? as u64,
                    link_degrade: get_f64("fault-link-degrade", 1.0)?,
                    straggler: get_f64("fault-straggler", 1.0)?,
                    drop_rate: get_f64("fault-drop-rate", 0.0)?,
                    ..FaultSpec::quiet()
                };
                spec.validate()?;
                Some(spec)
            } else {
                None
            };
            let mut permanent = Vec::new();
            if let Some(spec) = flags.get("fault-gpu-fail") {
                permanent.extend(parse_gpu_fail(spec, gpus)?);
            }
            if let Some(spec) = flags.get("fault-link-down") {
                permanent.extend(parse_link_down(spec, gpus)?);
            }
            Ok((fault, permanent))
        };
    let graph_path = |positional: &[String]| -> Result<PathBuf, String> {
        positional.first().map(PathBuf::from).ok_or_else(|| "missing graph file".to_string())
    };
    let get_threads =
        |flags: &std::collections::HashMap<String, String>| -> Result<Option<usize>, String> {
            match flags.get("threads") {
                None => Ok(None),
                Some(v) => {
                    let n: usize =
                        v.parse().map_err(|_| "--threads expects a positive integer")?;
                    if n == 0 {
                        return Err("--threads must be >= 1 (1 = sequential)".into());
                    }
                    Ok(Some(n))
                }
            }
        };
    let get_engine = |flags: &std::collections::HashMap<String, String>| -> Result<Engine, String> {
        match flags.get("engine").map(|s| s.as_str()).unwrap_or("mgg") {
            "mgg" => Ok(Engine::Mgg),
            "uvm" => Ok(Engine::Uvm),
            "direct" => Ok(Engine::Direct),
            "dgcl" => Ok(Engine::Dgcl),
            "replicated" => Ok(Engine::Replicated),
            other => Err(format!("unknown engine '{other}'")),
        }
    };
    let get_platform =
        |flags: &std::collections::HashMap<String, String>| -> Result<Platform, String> {
            match flags.get("platform").map(|s| s.as_str()).unwrap_or("a100") {
                "a100" => Ok(Platform::A100),
                "v100" => Ok(Platform::V100),
                "pcie" => Ok(Platform::Pcie),
                other => Err(format!("unknown platform '{other}'")),
            }
        };

    match cmd.as_str() {
        "generate" => {
            let out = flags.get("out").map(PathBuf::from).ok_or("generate needs -o <file>")?;
            let source = if let Some(name) = flags.get("dataset") {
                let scale = flags
                    .get("scale")
                    .map(|v| v.parse::<f64>().map_err(|_| "--scale expects a number"))
                    .unwrap_or(Ok(1.0))?;
                GraphSource::Dataset { name: name.clone(), scale }
            } else if let Some(spec) = flags.get("rmat") {
                let (s, e) = spec
                    .split_once(',')
                    .ok_or("--rmat expects <scale,edges>, e.g. 12,40000")?;
                GraphSource::Rmat {
                    scale: s
                        .trim()
                        .parse()
                        .ok()
                        .filter(|s| (1..=30).contains(s))
                        .ok_or("--rmat scale must be an integer in 1..=30")?,
                    edges: e.trim().parse().map_err(|_| "bad rmat edge count")?,
                    seed: get_usize("seed", 42)? as u64,
                }
            } else {
                return Err("generate needs --dataset <name> or --rmat <scale,edges>".into());
            };
            Ok(Command::Generate { source, out })
        }
        "stats" => Ok(Command::Stats { graph: graph_path(&positional)? }),
        "partition" => Ok(Command::Partition {
            graph: graph_path(&positional)?,
            gpus: get_gpus(usize::MAX)?,
            multilevel: switches.contains("multilevel"),
        }),
        "reorder" => Ok(Command::Reorder {
            graph: graph_path(&positional)?,
            out: flags.get("out").map(PathBuf::from).ok_or("reorder needs -o <file>")?,
        }),
        "train" => Ok(Command::Train {
            communities: get_usize("communities", 8)?,
            size: get_usize("size", 150)?,
            epochs: get_usize("epochs", 80)?,
            gpus: get_gpus(PLATFORM_MAX_GPUS)?,
        }),
        "simulate" => {
            let engine = get_engine(&flags)?;
            let platform = get_platform(&flags)?;
            let gpus = get_gpus(PLATFORM_MAX_GPUS)?;
            let (fault, permanent) = get_fault_scenario(gpus)?;
            let cache = match flags.get("cache-mb") {
                Some(v) => {
                    let mb = v
                        .parse::<u32>()
                        .ok()
                        .filter(|&m| m > 0)
                        .ok_or("--cache-mb expects a positive integer (MiB per GPU)")?;
                    let policy = match flags.get("cache-policy") {
                        Some(p) => p.parse::<CachePolicy>()?,
                        None => CachePolicy::Lru,
                    };
                    Some(CacheConfig::from_mb(mb).with_policy(policy))
                }
                None if flags.contains_key("cache-policy") => {
                    return Err("--cache-policy requires --cache-mb".into());
                }
                None => None,
            };
            Ok(Command::Simulate {
                graph: graph_path(&positional)?,
                gpus,
                dim: get_dim()?,
                engine,
                tune: switches.contains("tune"),
                platform,
                fault,
                permanent,
                trace_out: flags.get("trace-out").map(PathBuf::from),
                metrics_out: flags.get("metrics-out").map(PathBuf::from),
                threads: get_threads(&flags)?,
                cache,
            })
        }
        "serve" => {
            let gpus = get_gpus(PLATFORM_MAX_GPUS)?;
            let (fault, permanent) = get_fault_scenario(gpus)?;
            let arrival = match flags.get("arrival").map(|s| s.as_str()).unwrap_or("poisson") {
                "poisson" => ArrivalKind::Poisson,
                "bursty" => ArrivalKind::Bursty { period_ns: 400_000, duty_pct: 25 },
                "ramp" => ArrivalKind::Ramp { from_mult: 0.2, to_mult: 2.0 },
                s if s.starts_with("bursty:") => {
                    let (p, d) = s["bursty:".len()..]
                        .split_once(',')
                        .ok_or("--arrival bursty takes PERIOD,DUTY%, e.g. bursty:400us,25")?;
                    let duty_pct: u8 = d
                        .trim()
                        .trim_end_matches('%')
                        .parse()
                        .ok()
                        .filter(|&d| d <= 100)
                        .ok_or("bursty duty cycle must be 0..=100 (percent)")?;
                    ArrivalKind::Bursty { period_ns: parse_time_ns(p)?, duty_pct }
                }
                s if s.starts_with("ramp:") => {
                    let (a, b) = s["ramp:".len()..]
                        .split_once(',')
                        .ok_or("--arrival ramp takes FROM,TO multipliers, e.g. ramp:0.2,2.0")?;
                    let parse = |v: &str| {
                        v.trim()
                            .parse::<f64>()
                            .ok()
                            .filter(|m| *m >= 0.0)
                            .ok_or_else(|| format!("bad ramp multiplier '{v}'"))
                    };
                    ArrivalKind::Ramp { from_mult: parse(a)?, to_mult: parse(b)? }
                }
                other => {
                    return Err(format!(
                        "unknown arrival shape '{other}' (poisson, bursty[:PERIOD,DUTY%] or ramp[:FROM,TO])"
                    ));
                }
            };
            let qps = match flags.get("qps") {
                Some(v) => Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|q| *q > 0.0)
                        .ok_or("--qps expects a positive number (queries/s)")?,
                ),
                None => None,
            };
            let zipf_s = get_f64("zipf", 0.9)?;
            if !(0.0..=10.0).contains(&zipf_s) {
                return Err("--zipf expects a skew exponent in 0..=10".into());
            }
            let duration_ns =
                flags.get("duration").map(|v| parse_time_ns(v)).unwrap_or(Ok(2_000_000))?;
            let mix = match flags.get("priority-mix") {
                Some(v) => {
                    let parts: Vec<&str> = v.split(',').collect();
                    if parts.len() != 3 {
                        return Err(
                            "--priority-mix expects GOLD,SILVER,BRONZE weights, e.g. 0.2,0.3,0.5"
                                .into(),
                        );
                    }
                    let w = |s: &str| {
                        s.trim()
                            .parse::<f64>()
                            .ok()
                            .filter(|x| *x >= 0.0)
                            .ok_or_else(|| format!("bad priority weight '{s}'"))
                    };
                    let (g, s, b) = (w(parts[0])?, w(parts[1])?, w(parts[2])?);
                    if g + s + b <= 0.0 {
                        return Err("--priority-mix weights must not all be zero".into());
                    }
                    PriorityMix::new(g, s, b)
                }
                None => PriorityMix::gold_only(),
            };
            let churn_keys =
                ["churn-seed", "churn-deltas", "churn-fence-us", "churn-warmup-us", "drain", "leave", "join"];
            let churn = if churn_keys.iter().any(|k| flags.contains_key(*k)) {
                let seed = get_usize("churn-seed", 0)? as u64;
                let mut cs = match flags.get("churn-deltas") {
                    Some(v) => {
                        let rate = v
                            .parse::<f64>()
                            .ok()
                            .filter(|r| *r >= 0.0)
                            .ok_or("--churn-deltas expects a non-negative rate (deltas/s)")?;
                        ChurnSpec::steady(seed, duration_ns, rate)
                    }
                    None => {
                        let mut q = ChurnSpec::quiet(duration_ns);
                        q.seed = seed;
                        q
                    }
                };
                if flags.contains_key("churn-fence-us") {
                    let us = get_usize("churn-fence-us", 250)?;
                    if us == 0 {
                        return Err("--churn-fence-us must be >= 1".into());
                    }
                    cs.fence_interval_ns = us as u64 * 1_000;
                }
                if flags.contains_key("churn-warmup-us") {
                    cs.warmup_ns = get_usize("churn-warmup-us", 200)? as u64 * 1_000;
                }
                for (flag, change) in [
                    ("drain", MembershipChange::Drain),
                    ("leave", MembershipChange::Leave),
                    ("join", MembershipChange::Join),
                ] {
                    if let Some(v) = flags.get(flag) {
                        cs.membership.extend(parse_membership(v, change, gpus)?);
                    }
                }
                Some(cs)
            } else {
                None
            };
            let defaults = ServeConfig::default();
            Ok(Command::Serve {
                graph: graph_path(&positional)?,
                gpus,
                dim: get_dim()?,
                platform: get_platform(&flags)?,
                arrival,
                qps,
                deadline_ns: get_usize("deadline-us", 1_000)? as u64 * 1_000,
                zipf_s,
                duration_ns,
                seed: get_usize("seed", 42)? as u64,
                batch_cap: get_usize("batch-cap", defaults.batch_cap)?,
                queue_cap: get_usize("queue-cap", defaults.queue_cap)?,
                fault,
                permanent,
                threads: get_threads(&flags)?,
                mix,
                churn,
                json_out: flags.get("json-out").map(PathBuf::from),
                metrics_out: flags.get("metrics-out").map(PathBuf::from),
            })
        }
        "profile" => Ok(Command::Profile {
            graph: graph_path(&positional)?,
            gpus: get_gpus(PLATFORM_MAX_GPUS)?,
            dim: get_dim()?,
            engine: get_engine(&flags)?,
            platform: get_platform(&flags)?,
            trace_out: flags.get("trace-out").map(PathBuf::from),
            metrics_out: flags.get("metrics-out").map(PathBuf::from),
            threads: get_threads(&flags)?,
            host: switches.contains("host"),
        }),
        "perfdiff" => {
            if positional.len() != 2 {
                return Err(
                    "perfdiff expects two paths: <baseline.json> <candidate.json> \
                     (or two bench-results directories)"
                        .into(),
                );
            }
            Ok(Command::PerfDiff {
                baseline: PathBuf::from(&positional[0]),
                candidate: PathBuf::from(&positional[1]),
                annotate: switches.contains("annotate"),
                strict: switches.contains("strict"),
                json_out: flags.get("json-out").map(PathBuf::from),
            })
        }
        other => unreachable!("command_flags accepted unknown command '{other}'"),
    }
}

/// The fault schedule of a `simulate` or `serve` run on `gpus` GPUs: the
/// events `fault` derives, if given, plus every `permanent` fault.
fn fault_schedule(
    fault: &Option<FaultSpec>,
    permanent: &[PermanentFault],
    gpus: usize,
) -> Result<FaultSchedule, String> {
    let mut sched = match fault {
        Some(fs) => {
            fs.validate()?;
            FaultSchedule::derive(fs, gpus)
        }
        None => FaultSchedule::quiet(gpus),
    };
    for f in permanent {
        sched = sched.with_permanent(*f);
    }
    Ok(sched)
}

fn load_graph(path: &Path) -> Result<CsrGraph, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if path.extension().is_some_and(|e| e == "txt") {
        io::read_edge_list(file, 0).map_err(|e| e.to_string())
    } else {
        io::read_csr_binary(file).map_err(|e| e.to_string())
    }
}

fn save_graph(graph: &CsrGraph, path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if path.extension().is_some_and(|e| e == "txt") {
        io::write_edge_list(graph, file).map_err(|e| e.to_string())
    } else {
        io::write_csr_binary(graph, file).map_err(|e| e.to_string())
    }
}

/// Executes a parsed command, returning the text to print.
pub fn execute(cmd: &Command) -> Result<String, String> {
    match cmd {
        Command::Generate { source, out } => {
            let graph = match source {
                GraphSource::Dataset { name, scale } => {
                    let spec = DatasetSpec::by_name(name)
                        .ok_or_else(|| format!("unknown dataset '{name}' (try rdd/enwiki/prod/prot/orkt)"))?;
                    spec.build(*scale).graph
                }
                GraphSource::Rmat { scale, edges, seed } => {
                    rmat(&RmatConfig::graph500(*scale, *edges, *seed))
                }
            };
            save_graph(&graph, out)?;
            Ok(format!(
                "wrote {} nodes / {} edges to {}\n",
                graph.num_nodes(),
                graph.num_edges(),
                out.display()
            ))
        }
        Command::Stats { graph } => {
            let g = load_graph(graph)?;
            let s = mgg_graph::stats::degree_stats(&g);
            Ok(format!(
                "nodes {}\nedges {}\navg degree {:.2}\ndegree min/p50/p90/p99/max {}/{}/{}/{}/{}\n\
                 degree cv {:.2}\ntop-1% nodes hold {:.1}% of edges\nisolated nodes {}\n",
                s.nodes,
                s.edges,
                s.avg,
                s.min,
                s.p50,
                s.p90,
                s.p99,
                s.max,
                s.cv,
                100.0 * s.top1pct_edge_share,
                s.isolated
            ))
        }
        Command::Partition { graph, gpus, multilevel: use_ml } => {
            let g = load_graph(graph)?;
            let mut out = String::new();
            if *use_ml {
                let t0 = std::time::Instant::now();
                let p = multilevel::partition(&g, &multilevel::MultilevelConfig::new(*gpus));
                out.push_str(&format!(
                    "multilevel partition: edge cut {} of {} ({:.1}%), {} levels, {:.1} ms wall\n",
                    p.edge_cut,
                    g.num_edges(),
                    100.0 * p.edge_cut as f64 / g.num_edges().max(1) as f64,
                    p.levels,
                    t0.elapsed().as_secs_f64() * 1e3
                ));
            } else {
                let t0 = std::time::Instant::now();
                let split = NodeSplit::edge_balanced(&g, *gpus);
                let parts = locality::build(&g, &split);
                out.push_str(&format!(
                    "edge-balanced split (Algorithm 1): {:.1} ms wall, imbalance {:.3}\n",
                    t0.elapsed().as_secs_f64() * 1e3,
                    split.edge_imbalance(&g)
                ));
                for p in &parts {
                    out.push_str(&format!(
                        "  gpu {}: nodes {:>8} local edges {:>9} remote edges {:>9} ({:.1}% remote)\n",
                        p.pe,
                        p.node_range.len(),
                        p.local.num_entries(),
                        p.remote.num_entries(),
                        100.0 * p.remote_fraction()
                    ));
                }
            }
            Ok(out)
        }
        Command::Reorder { graph, out } => {
            let g = load_graph(graph)?;
            let (relabeled, _) = reorder::reorder(&g);
            save_graph(&relabeled, out)?;
            Ok(format!("wrote BFS-reordered graph to {}\n", out.display()))
        }
        Command::Train { communities, size, epochs, gpus } => {
            run_train(*communities, *size, *epochs, *gpus)
        }
        Command::Simulate {
            graph,
            gpus,
            dim,
            engine,
            tune,
            platform,
            fault,
            permanent,
            trace_out,
            metrics_out,
            threads,
            cache,
        } => {
            if let Some(n) = threads {
                mgg_runtime::set_threads(*n);
            }
            if !permanent.is_empty() && !matches!(engine, Engine::Mgg) {
                return Err(
                    "--fault-gpu-fail/--fault-link-down are only supported with --engine mgg"
                        .into(),
                );
            }
            if cache.is_some() && !matches!(engine, Engine::Mgg) {
                return Err("--cache-mb is only supported with --engine mgg".into());
            }
            let g = load_graph(graph)?;
            let spec = platform.spec(*gpus);
            let mode = AggregateMode::Sum;
            let want_telemetry = trace_out.is_some() || metrics_out.is_some();
            if want_telemetry && !matches!(engine, Engine::Mgg | Engine::Uvm) {
                return Err(
                    "--trace-out/--metrics-out are only supported with --engine mgg or uvm".into()
                );
            }
            let tel =
                if want_telemetry { Telemetry::enabled() } else { Telemetry::disabled() };
            let (label, ns, extra) = match engine {
                Engine::Mgg => {
                    let mut e = MggEngine::try_new_with_telemetry(
                        &g,
                        spec.clone(),
                        MggConfig::default_fixed(),
                        mode,
                        tel.clone(),
                    )
                    .map_err(|e| e.to_string())?;
                    e.set_cache(*cache);
                    let mut note = String::new();
                    if fault.is_some() || !permanent.is_empty() {
                        e.install_fault_schedule(fault_schedule(fault, permanent, *gpus)?);
                        let action = match e.recovery_action() {
                            RecoveryAction::None => "absorb via retries",
                            RecoveryAction::Rebalance => "re-balance placement",
                            RecoveryAction::UvmFallback => {
                                "re-balance placement; UVM fallback recommended"
                            }
                            RecoveryAction::Reroute => "relay traffic around the dead link",
                            RecoveryAction::Evacuate => {
                                "evacuate the dead GPU's shard onto survivors"
                            }
                        };
                        let seed = fault.as_ref().map(|fs| fs.seed).unwrap_or(0);
                        note.push_str(&format!(
                            "faults installed (seed {seed}): recovery plan: {action}\n",
                        ));
                    }
                    if *tune {
                        let model = AnalyticalModel::new(spec.gpu.clone(), *dim);
                        let result = {
                            let cell = std::cell::RefCell::new(&mut e);
                            Tuner::new(|cfg: &MggConfig| {
                                let mut e = cell.borrow_mut();
                                if e.set_config(*cfg).is_err() {
                                    return u64::MAX;
                                }
                                e.simulate_aggregation_ns(*dim).unwrap_or(u64::MAX)
                            })
                            .with_feasibility(move |cfg| model.feasible(cfg))
                            .run()
                        };
                        e.set_config(result.best).map_err(|e| e.to_string())?;
                        note.push_str(&format!(
                            "tuned to {} in {} probes ({:.0}% below initial)\n",
                            result.best,
                            result.iterations,
                            100.0 * result.improvement()
                        ));
                    }
                    let stats = e.simulate_aggregation(*dim).map_err(|e| e.to_string())?;
                    let ns = stats.makespan_ns() + spec.kernel_launch_ns;
                    note.push_str(&format!(
                        "occupancy {:.1}%, SM utilization {:.1}%, fabric {:.2} MiB in {} requests\n",
                        100.0 * stats.achieved_occupancy(),
                        100.0 * stats.sm_utilization(),
                        stats.traffic.remote_bytes() as f64 / (1 << 20) as f64,
                        stats.traffic.remote_requests()
                    ));
                    if let Some(cfg) = cache {
                        let c = stats.cache;
                        note.push_str(&format!(
                            "cache ({} MiB/GPU, {}): {} hits, {} misses, {} coalesced, {} evictions, hit rate {:.1}%\n",
                            cfg.capacity_bytes / (1024 * 1024),
                            cfg.policy,
                            c.hits,
                            c.misses,
                            c.coalesced,
                            c.evictions,
                            100.0 * c.hit_rate()
                        ));
                    }
                    if fault.is_some() || !permanent.is_empty() {
                        let r = stats.recovery;
                        note.push_str(&format!(
                            "recovery: {} retried gets, {} timed-out completions, {} degraded transfers, {} replans, recovery latency {:.3} ms\n",
                            r.retried_gets,
                            r.dropped_completions,
                            r.degraded_transfers,
                            r.replans,
                            r.recovery_latency_ns as f64 / 1e6
                        ));
                        if !permanent.is_empty() {
                            note.push_str(&format!(
                                "failover: {} evacuations, {} rerouted transfers, {} host-staged transfers, {} dead-peer gets, {} halted warps\n",
                                r.evacuations,
                                r.rerouted_transfers,
                                r.host_staged_transfers,
                                r.dead_peer_gets,
                                r.halted_warps
                            ));
                        }
                    }
                    ("MGG", ns, note)
                }
                Engine::Uvm => {
                    let mut e = UvmGnnEngine::new(&g, spec, mode);
                    e.set_telemetry(tel.clone());
                    if let Some(fs) = fault {
                        e.cluster.install_faults(FaultSchedule::derive(fs, *gpus));
                    }
                    let ns = e.simulate_aggregation_ns(*dim);
                    let faults = e.last_uvm_stats.as_ref().map(|s| s.total_faults()).unwrap_or(0);
                    ("UVM", ns, format!("{faults} page faults\n"))
                }
                Engine::Direct => {
                    let mut e = DirectNvshmemEngine::new(&g, spec);
                    ("direct NVSHMEM", e.simulate_aggregation_ns(*dim), String::new())
                }
                Engine::Dgcl => {
                    let (mut e, prep) = DgclEngine::new(&g, spec);
                    let ns = e.simulate_aggregation_ns(*dim);
                    (
                        "DGCL-like",
                        ns,
                        format!("preprocessing {:.1} ms wall\n", prep.dgcl_wall_ns as f64 / 1e6),
                    )
                }
                Engine::Replicated => {
                    let mut e = ReplicatedEngine::new(&g, spec, 16);
                    ("replicated", e.simulate_aggregation_ns(*dim), String::new())
                }
            };
            let exports = write_telemetry_outputs(&tel, trace_out, metrics_out)?;
            Ok(format!(
                "{label} aggregation of dim {dim} on {gpus} GPUs: {:.3} ms (simulated)\n{extra}{exports}",
                ns as f64 / 1e6
            ))
        }
        Command::Serve {
            graph,
            gpus,
            dim,
            platform,
            arrival,
            qps,
            deadline_ns,
            zipf_s,
            duration_ns,
            seed,
            batch_cap,
            queue_cap,
            fault,
            permanent,
            threads,
            mix,
            churn,
            json_out,
            metrics_out,
        } => {
            if let Some(n) = threads {
                mgg_runtime::set_threads(*n);
            }
            if *batch_cap == 0 || *queue_cap == 0 {
                return Err("--batch-cap and --queue-cap must be >= 1".into());
            }
            let g = load_graph(graph)?;
            let mut engine = MggEngine::new(
                &g,
                platform.spec(*gpus),
                MggConfig::default_fixed(),
                AggregateMode::Sum,
            );
            let cfg = ServeConfig { batch_cap: *batch_cap, queue_cap: *queue_cap };
            let server = Server::new(&mut engine, *dim, cfg).map_err(|e| e.to_string())?;
            let cal = server.calibration();
            // Default to a 1.5x overload of the calibrated saturation rate,
            // so a bare `mgg-cli serve graph.csr` demonstrates shedding.
            let qps = qps.unwrap_or(cal.saturation_qps * 1.5);
            let spec = WorkloadSpec {
                seed: *seed,
                arrival: *arrival,
                qps,
                duration_ns: *duration_ns,
                deadline_ns: *deadline_ns,
                zipf_s: *zipf_s,
                num_nodes: g.num_nodes(),
                mix: *mix,
            };
            let sched = fault_schedule(fault, permanent, *gpus)?;
            let churn_sched = match churn {
                Some(cs) => {
                    let mut cs = cs.clone();
                    cs.duration_ns = *duration_ns;
                    ChurnSchedule::derive(&cs, g.num_nodes())
                }
                None => ChurnSchedule::quiet(*duration_ns),
            };
            let tel =
                if metrics_out.is_some() { Telemetry::enabled() } else { Telemetry::disabled() };
            let out = server.run_scenario(&spec, &sched, &churn_sched, &tel);
            let s = &out.summary;
            let mut text = format!(
                "served {} offered queries over {:.3} ms (simulated, {} arrivals, zipf {zipf_s}):\n\
                 \x20 admitted {} | shed {} (queue {}, rate {}, infeasible {}, unavailable {})\n\
                 \x20 offered {:.2} Mq/s, saturation {:.2} Mq/s, goodput {:.2} Mq/s\n\
                 \x20 latency p50/p95/p99 {:.1}/{:.1}/{:.1} us, deadline violations {} (routing-attributable {})\n\
                 \x20 {} batches (mean size {:.1}), rerouted {}, hedged {}, breaker transitions {}\n\
                 \x20 decision digest {}\n",
                s.offered,
                *duration_ns as f64 / 1e6,
                arrival.name(),
                s.admitted,
                s.shed_queue + s.shed_rate + s.shed_infeasible + s.shed_unavailable,
                s.shed_queue,
                s.shed_rate,
                s.shed_infeasible,
                s.shed_unavailable,
                s.offered_qps / 1e6,
                s.saturation_qps / 1e6,
                s.goodput_qps / 1e6,
                s.p50_ns as f64 / 1e3,
                s.p95_ns as f64 / 1e3,
                s.p99_ns as f64 / 1e3,
                s.deadline_violations,
                s.routing_violations,
                s.batches,
                s.mean_batch,
                s.rerouted,
                s.hedges,
                out.transitions.len(),
                s.digest,
            );
            if fault.is_some() || !permanent.is_empty() {
                text.push_str(&format!(
                    "  faults: impaired GPUs {:?}, dead GPUs {:?}\n",
                    sched.impaired_gpus(),
                    sched.dead_gpus()
                ));
            }
            if !churn_sched.is_quiet() {
                let c = &s.churn;
                text.push_str(&format!(
                    "  churn: {} fences ({} deltas, {:.1} us stalled) | membership {} \
                     (drains {}, leaves {}, joins {}, rejected {}) | migrated {}\n",
                    c.fences,
                    c.deltas_applied,
                    c.fence_stall_ns as f64 / 1e3,
                    c.membership_events,
                    c.drains,
                    c.leaves,
                    c.joins,
                    c.join_rejections,
                    c.migrated_queries,
                ));
            }
            if !mix.is_gold_only() {
                for pc in &s.per_class {
                    text.push_str(&format!(
                        "  class {:<6} offered {} | admitted {} | shed {} | in-deadline {} | violations {} | p99 {:.1} us\n",
                        pc.class,
                        pc.offered,
                        pc.admitted,
                        pc.shed,
                        pc.completed_in_deadline,
                        pc.deadline_violations,
                        pc.p99_ns as f64 / 1e3,
                    ));
                }
            }
            if let Some(path) = json_out {
                let report = ServeJson {
                    calibration: cal,
                    config: cfg,
                    summary: s.clone(),
                    breaker_transitions: out.transitions.len() as u64,
                };
                let json = serde_json::to_string_pretty(&report)
                    .map_err(|e| format!("serialize serve report: {e}"))?;
                std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
                text.push_str(&format!("wrote serve report to {}\n", path.display()));
            }
            text.push_str(&write_telemetry_outputs(&tel, &None, metrics_out)?);
            Ok(text)
        }
        Command::Profile {
            graph,
            gpus,
            dim,
            engine,
            platform,
            trace_out,
            metrics_out,
            threads,
            host,
        } => {
            if let Some(n) = threads {
                mgg_runtime::set_threads(*n);
            }
            if *host {
                if !matches!(engine, Engine::Mgg) {
                    return Err("profile --host supports --engine mgg only".into());
                }
                let g = load_graph(graph)?;
                let spec = platform.spec(*gpus);
                return run_host_profile(&g, spec, *dim, *threads, trace_out, metrics_out);
            }
            let g = load_graph(graph)?;
            let spec = platform.spec(*gpus);
            let mode = AggregateMode::Sum;
            let tel = Telemetry::enabled();
            let (label, ns) = match engine {
                Engine::Mgg => {
                    let mut e = MggEngine::try_new_with_telemetry(
                        &g,
                        spec.clone(),
                        MggConfig::default_fixed(),
                        mode,
                        tel.clone(),
                    )
                    .map_err(|e| e.to_string())?;
                    let stats = e.simulate_aggregation(*dim).map_err(|e| e.to_string())?;
                    ("MGG", stats.makespan_ns() + spec.kernel_launch_ns)
                }
                Engine::Uvm => {
                    let mut e = UvmGnnEngine::new(&g, spec, mode);
                    e.set_telemetry(tel.clone());
                    ("UVM", e.simulate_aggregation_ns(*dim))
                }
                _ => {
                    return Err("profile supports --engine mgg or uvm".into());
                }
            };
            let exports = write_telemetry_outputs(&tel, trace_out, metrics_out)?;
            Ok(format!(
                "{label} aggregation of dim {dim} on {gpus} GPUs: {:.3} ms (simulated)\n\n{}{exports}",
                ns as f64 / 1e6,
                tel.snapshot().render_text()
            ))
        }
        Command::PerfDiff { baseline, candidate, annotate, strict, json_out } => {
            perfdiff::run(baseline, candidate, *annotate, *strict, json_out.as_deref())
                .map_err(|e| e.to_string())
        }
    }
}

/// The `profile --host` body: runs the same simulation sweep once at one
/// worker and once at the requested width under the worker-pool attribution
/// profiler, checks the two runs are bit-identical, and prints the
/// "where did the speedup go" table.
fn run_host_profile(
    g: &CsrGraph,
    spec: ClusterSpec,
    dim: usize,
    threads: Option<usize>,
    trace_out: &Option<PathBuf>,
    metrics_out: &Option<PathBuf>,
) -> Result<String, String> {
    // Eight independent jobs at graduated dims, so lanes get uneven work
    // (the interesting case for idle/merge-wait attribution).
    let dims: Vec<usize> = (1..=8).map(|i| (dim * i / 8).max(1)).collect();
    let run = |threads: usize| -> Result<(u64, Vec<u64>), String> {
        let start = std::time::Instant::now();
        let results = mgg_runtime::with_threads(threads, || {
            let _lbl = mgg_runtime::profile::region_label("cli.host");
            mgg_runtime::par_map(&dims, |&dm| {
                let mut e =
                    MggEngine::new(g, spec.clone(), MggConfig::default_fixed(), AggregateMode::Sum);
                e.simulate_aggregation_ns(dm).map_err(|e| e.to_string())
            })
        });
        let lats = results.into_iter().collect::<Result<Vec<u64>, String>>()?;
        Ok((start.elapsed().as_nanos() as u64, lats))
    };
    let par_threads = threads.unwrap_or_else(mgg_runtime::threads).max(1);
    let (seq_wall, seq_lats) = run(1)?;
    let (par_res, profile) = mgg_runtime::profile::collect(|| run(par_threads));
    let (par_wall, par_lats) = par_res?;
    if seq_lats != par_lats {
        return Err(format!(
            "host profile: parallel run diverged from sequential at {par_threads} threads \
             (this is a runtime bug — the pool must be bit-identical)"
        ));
    }
    let mut out = profile.render_attribution(seq_wall, par_wall);
    out.push_str(&format!(
        "bit-identity: {} jobs, sequential == {}-thread results (profiled)\n",
        dims.len(),
        par_threads
    ));
    if trace_out.is_some() || metrics_out.is_some() {
        let tel = Telemetry::enabled();
        tel.attach_runtime_profile(profile);
        out.push_str(&write_telemetry_outputs(&tel, trace_out, metrics_out)?);
    }
    Ok(out)
}

/// The `serve --json-out` report: calibration, tunables and run summary.
#[derive(Debug, Clone, Serialize)]
struct ServeJson {
    calibration: Calibration,
    config: ServeConfig,
    summary: ServeSummary,
    breaker_transitions: u64,
}

/// Writes the Chrome-trace and metrics-snapshot files a command asked for;
/// returns the lines to append to its output.
fn write_telemetry_outputs(
    tel: &Telemetry,
    trace_out: &Option<PathBuf>,
    metrics_out: &Option<PathBuf>,
) -> Result<String, String> {
    let mut out = String::new();
    if let Some(path) = trace_out {
        std::fs::write(path, tel.chrome_trace())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.push_str(&format!("wrote Chrome trace to {}\n", path.display()));
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, tel.snapshot().to_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.push_str(&format!("wrote metrics snapshot to {}\n", path.display()));
    }
    Ok(out)
}

/// Runs the `train` demo: a GCN trained through the MGG engine on a
/// planted-community task.
fn run_train(communities: usize, size: usize, epochs: usize, gpus: usize) -> Result<String, String> {
    use mgg_core::{MggConfig, MggEngine};
    use mgg_gnn::features::{label_features, split_masks};
    use mgg_gnn::models::DenseCostModel;
    use mgg_gnn::train::{train_gcn_on_engine, TrainConfig};
    use mgg_graph::generators::random::{sbm, SbmConfig};

    if communities < 2 {
        return Err("need at least 2 communities".into());
    }
    let out = sbm(&SbmConfig {
        block_sizes: vec![size.max(20); communities],
        avg_degree_in: 14.0,
        avg_degree_out: 5.0,
        seed: 7,
    });
    let x = label_features(&out.labels, communities, 32, 0.15, 8);
    let (tr, va, te) = split_masks(out.graph.num_nodes(), 0.3, 0.2, 9);
    let mut engine = MggEngine::new(
        &out.graph,
        ClusterSpec::dgx_a100(gpus),
        MggConfig::default_fixed(),
        AggregateMode::GcnNorm,
    );
    let r = train_gcn_on_engine(
        &mut engine,
        &x,
        &out.labels,
        communities,
        &tr,
        &va,
        &te,
        &TrainConfig::paper(epochs, 10),
        &DenseCostModel::a100(gpus),
    );
    Ok(format!(
        "trained a 2-layer GCN on {} nodes / {} edges ({communities} communities) through MGG on {gpus} GPUs\nloss {:.3} -> {:.3} over {epochs} epochs\nval accuracy {:.3}, test accuracy {:.3}\nsimulated epoch {:.3} ms, whole run {:.1} ms\n",
        out.graph.num_nodes(),
        out.graph.num_edges(),
        r.result.train_losses.first().unwrap_or(&0.0),
        r.result.train_losses.last().unwrap_or(&0.0),
        r.result.val_accuracy,
        r.result.test_accuracy,
        r.epoch_ns as f64 / 1e6,
        r.total_ns as f64 / 1e6,
    ))
}

/// The usage text.
pub fn usage() -> &'static str {
    "usage:
  mgg-cli generate --dataset <rdd|enwiki|prod|prot|orkt> [--scale S] -o <file>
  mgg-cli generate --rmat <scale,edges> [--seed N] -o <file>
  mgg-cli stats <graph>
  mgg-cli partition <graph> [--gpus N] [--multilevel]
  mgg-cli reorder <graph> -o <file>
  mgg-cli simulate <graph> [--gpus N] [--dim D] [--engine mgg|uvm|direct|dgcl|replicated]
                   [--tune] [--platform a100|v100|pcie]
                   [--fault-seed N] [--fault-link-degrade F] [--fault-straggler F]
                   [--fault-drop-rate F]
                   [--fault-gpu-fail GPU@TIME[,..]] [--fault-link-down A-B@TIME[,..]]
                   (TIME takes an ns/us/ms suffix, e.g. --fault-gpu-fail 3@2ms)
                   [--trace-out <file>] [--metrics-out <file>]   (mgg/uvm engines)
                   [--threads N]   (worker pool; default all cores, 1 = sequential)
                   [--cache-mb N] [--cache-policy lru|lfu]   (remote-embedding cache, mgg engine)
  mgg-cli serve <graph> [--gpus N] [--dim D] [--platform a100|v100|pcie]
                [--arrival poisson|bursty[:PERIOD,DUTY%]|ramp[:FROM,TO]]
                [--qps Q]   (offered queries/s; default 1.5x calibrated saturation)
                [--deadline-us U] [--zipf S] [--duration TIME] [--seed N]
                [--batch-cap N] [--queue-cap N] [--threads N]
                [--fault-seed N] [--fault-straggler F] [--fault-link-degrade F]
                [--fault-drop-rate F] [--fault-gpu-fail GPU@TIME[,..]]
                [--fault-link-down A-B@TIME[,..]]
                [--priority-mix G,S,B]   (gold/silver/bronze class weights; default gold-only)
                [--churn-deltas RATE]   (graph deltas/s applied at epoch fences)
                [--churn-seed N] [--churn-fence-us U] [--churn-warmup-us U]
                [--drain SHARD@TIME[,..]] [--leave SHARD@TIME[,..]] [--join SHARD@TIME[,..]]
                [--json-out <file>] [--metrics-out <file>]
  mgg-cli profile <graph> [--gpus N] [--dim D] [--engine mgg|uvm]
                  [--platform a100|v100|pcie] [--trace-out <file>] [--metrics-out <file>]
                  [--threads N]
                  [--host]   (worker-pool attribution: sequential-vs-parallel sweep,
                              bit-identity check, \"where did the speedup go\" table)
  mgg-cli perfdiff <baseline.json> <candidate.json> [--annotate] [--strict]
                   [--json-out <file>]
                   (also takes two bench-results directories, pairing files by name)
  mgg-cli train [--communities K] [--size NODES_PER_COMMUNITY] [--epochs E] [--gpus N]

graph files: .txt = edge list, anything else = binary CSR\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_generate_dataset() {
        let cmd = parse(&args("generate --dataset rdd --scale 0.5 -o g.csr")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                source: GraphSource::Dataset { name: "rdd".into(), scale: 0.5 },
                out: PathBuf::from("g.csr"),
            }
        );
    }

    #[test]
    fn parse_generate_rmat() {
        let cmd = parse(&args("generate --rmat 12,40000 --seed 7 -o g.csr")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                source: GraphSource::Rmat { scale: 12, edges: 40_000, seed: 7 },
                out: PathBuf::from("g.csr"),
            }
        );
    }

    #[test]
    fn parse_simulate_defaults() {
        let cmd = parse(&args("simulate g.csr")).unwrap();
        assert_eq!(
            cmd,
            Command::Simulate {
                graph: PathBuf::from("g.csr"),
                gpus: 8,
                dim: 64,
                engine: Engine::Mgg,
                tune: false,
                platform: Platform::A100,
                fault: None,
                permanent: vec![],
                trace_out: None,
                metrics_out: None,
                threads: None,
                cache: None,
            }
        );
    }

    #[test]
    fn parse_cache_flags() {
        match parse(&args("simulate g.csr --cache-mb 16")).unwrap() {
            Command::Simulate { cache, .. } => {
                assert_eq!(cache, Some(CacheConfig::from_mb(16)));
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&args("simulate g.csr --cache-mb 4 --cache-policy lfu")).unwrap() {
            Command::Simulate { cache, .. } => {
                assert_eq!(cache, Some(CacheConfig::from_mb(4).with_policy(CachePolicy::Lfu)));
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&args("simulate g.csr --cache-mb 0")).is_err());
        assert!(parse(&args("simulate g.csr --cache-mb lots")).is_err());
        assert!(parse(&args("simulate g.csr --cache-mb 4 --cache-policy random")).is_err());
        assert!(parse(&args("simulate g.csr --cache-policy lru")).is_err());
    }

    #[test]
    fn parse_threads_flag() {
        match parse(&args("simulate g.csr --threads 4")).unwrap() {
            Command::Simulate { threads, .. } => assert_eq!(threads, Some(4)),
            other => panic!("parsed {other:?}"),
        }
        match parse(&args("profile g.csr --threads 1")).unwrap() {
            Command::Profile { threads, .. } => assert_eq!(threads, Some(1)),
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&args("simulate g.csr --threads 0")).is_err());
        assert!(parse(&args("simulate g.csr --threads x")).is_err());
    }

    #[test]
    fn parse_permanent_fault_flags() {
        let cmd = parse(&args(
            "simulate g.csr --gpus 4 --fault-gpu-fail 3@2ms --fault-link-down 0-1@500us",
        ))
        .unwrap();
        match cmd {
            Command::Simulate { permanent, .. } => {
                assert_eq!(
                    permanent,
                    vec![
                        PermanentFault::GpuFailure { gpu: 3, at_ns: 2_000_000 },
                        PermanentFault::LinkDown { src: 0, dst: 1, at_ns: 500_000 },
                    ]
                );
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn invalid_permanent_fault_flags_are_rejected() {
        let err = parse(&args("simulate g.csr --gpus 4 --fault-gpu-fail 9@2ms")).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = parse(&args("simulate g.csr --fault-gpu-fail 3")).unwrap_err();
        assert!(err.contains("GPU@TIME"), "{err}");
        let err = parse(&args("simulate g.csr --fault-link-down 1-1@2ms")).unwrap_err();
        assert!(err.contains("distinct"), "{err}");
        let err = parse(&args("simulate g.csr --fault-link-down 0@2ms")).unwrap_err();
        assert!(err.contains("expected A-B"), "{err}");
        let err = parse(&args("simulate g.csr --fault-gpu-fail 3@2lightyears")).unwrap_err();
        assert!(err.contains("time"), "{err}");
    }

    #[test]
    fn parse_fault_flags() {
        let cmd = parse(&args(
            "simulate g.csr --fault-seed 42 --fault-link-degrade 0.5 --fault-drop-rate 0.01",
        ))
        .unwrap();
        match cmd {
            Command::Simulate { fault: Some(spec), .. } => {
                assert_eq!(spec.seed, 42);
                assert_eq!(spec.link_degrade, 0.5);
                assert_eq!(spec.straggler, 1.0);
                assert_eq!(spec.drop_rate, 0.01);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn invalid_fault_flags_are_rejected() {
        let err = parse(&args("simulate g.csr --fault-link-degrade 0")).unwrap_err();
        assert!(err.contains("link_degrade"), "{err}");
        let err = parse(&args("simulate g.csr --fault-drop-rate 1.5")).unwrap_err();
        assert!(err.contains("drop_rate"), "{err}");
        let err = parse(&args("simulate g.csr --fault-straggler 0.5")).unwrap_err();
        assert!(err.contains("straggler"), "{err}");
        let err = parse(&args("simulate g.csr --fault-seed nope")).unwrap_err();
        assert!(err.contains("integer"), "{err}");
    }

    #[test]
    fn parse_simulate_full() {
        let cmd = parse(&args(
            "simulate g.csr --gpus 4 --dim 128 --engine dgcl --platform pcie --tune",
        ))
        .unwrap();
        match cmd {
            Command::Simulate { gpus, dim, engine, tune, platform, .. } => {
                assert_eq!(gpus, 4);
                assert_eq!(dim, 128);
                assert_eq!(engine, Engine::Dgcl);
                assert!(tune);
                assert_eq!(platform, Platform::Pcie);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_helpful() {
        assert!(parse(&args("generate -o g.csr")).unwrap_err().contains("--dataset"));
        assert!(parse(&args("simulate g.csr --engine nope")).unwrap_err().contains("nope"));
        assert!(parse(&args("frobnicate")).unwrap_err().contains("unknown command"));
        assert!(parse(&[]).unwrap_err().contains("no command"));
        for cmd in ["simulate g.csr", "profile g.csr", "serve g.csr", "train"] {
            for gpus in [0, 9] {
                let err = parse(&args(&format!("{cmd} --gpus {gpus}"))).unwrap_err();
                assert!(err.contains("--gpus"), "{cmd} --gpus {gpus}: {err}");
            }
        }
        assert!(parse(&args("partition g.csr --gpus 0")).unwrap_err().contains("--gpus"));
        assert!(parse(&args("partition g.csr --gpus 70000")).is_ok());
        for cmd in ["simulate g.csr", "profile g.csr", "serve g.csr"] {
            let err = parse(&args(&format!("{cmd} --dim 0"))).unwrap_err();
            assert!(err.contains("--dim"), "{cmd} --dim 0: {err}");
        }
        for spec in ["0,100", "40,100"] {
            let err = parse(&args(&format!("generate --rmat {spec} -o g.csr"))).unwrap_err();
            assert!(err.contains("--rmat"), "--rmat {spec}: {err}");
        }
    }

    #[test]
    fn parse_rejects_flags_a_command_does_not_take() {
        for (line, flag, cmd) in [
            ("perfdiff a.json a.json --strcit yes", "--strcit", "perfdiff"),
            ("simulate g.csr --qps 5", "--qps", "simulate"),
            ("simulate g.csr --strict", "--strict", "simulate"),
            ("serve g.csr --batchcap 8", "--batchcap", "serve"),
            ("simulate g.csr -o out.csr", "-o", "simulate"),
        ] {
            let err = parse(&args(line)).unwrap_err();
            assert_eq!(err, format!("unknown flag {flag} for {cmd}"), "{line}");
        }
    }

    #[test]
    fn roundtrip_generate_stats_partition_simulate() {
        let dir = std::env::temp_dir().join(format!("mgg-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.csr");
        let p = path.to_str().unwrap();

        let out = execute(&parse(&args(&format!("generate --rmat 9,4000 -o {p}"))).unwrap())
            .unwrap();
        assert!(out.contains("nodes"), "{out}");

        let out = execute(&parse(&args(&format!("stats {p}"))).unwrap()).unwrap();
        assert!(out.contains("avg degree"), "{out}");

        let out = execute(&parse(&args(&format!("partition {p} --gpus 4"))).unwrap()).unwrap();
        assert!(out.contains("gpu 3"), "{out}");

        let out =
            execute(&parse(&args(&format!("simulate {p} --gpus 4 --dim 32"))).unwrap()).unwrap();
        assert!(out.contains("simulated"), "{out}");

        let out2 = dir.join("r.csr");
        let out = execute(
            &parse(&args(&format!("reorder {p} -o {}", out2.to_str().unwrap()))).unwrap(),
        )
        .unwrap();
        assert!(out.contains("BFS-reordered"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_demo_learns() {
        let out = execute(
            &parse(&args("train --communities 4 --size 60 --epochs 40 --gpus 4")).unwrap(),
        )
        .unwrap();
        assert!(out.contains("test accuracy"), "{out}");
        // Parse the test accuracy and require better than chance (0.25).
        let acc: f64 = out
            .split("test accuracy ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .expect("accuracy in output");
        assert!(acc > 0.5, "accuracy {acc}");
    }

    #[test]
    fn simulate_all_engines_run() {
        let dir = std::env::temp_dir().join(format!("mgg-cli-eng-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.csr");
        let p = path.to_str().unwrap();
        execute(&parse(&args(&format!("generate --rmat 8,2000 -o {p}"))).unwrap()).unwrap();
        for engine in ["mgg", "uvm", "direct", "dgcl", "replicated"] {
            let out = execute(
                &parse(&args(&format!("simulate {p} --gpus 2 --dim 16 --engine {engine}")))
                    .unwrap(),
            )
            .unwrap();
            assert!(out.contains("simulated"), "{engine}: {out}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_with_cache_reports_hits() {
        let dir = std::env::temp_dir().join(format!("mgg-cli-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.csr");
        let p = path.to_str().unwrap();
        execute(&parse(&args(&format!("generate --rmat 9,8000 -o {p}"))).unwrap()).unwrap();

        let out = execute(
            &parse(&args(&format!(
                "simulate {p} --gpus 4 --dim 16 --cache-mb 16 --cache-policy lru"
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("cache (16 MiB/GPU, lru):"), "{out}");
        let hits: u64 = out
            .split("): ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .expect("hit count in output");
        assert!(hits > 0, "expected cache hits, got: {out}");

        // The cache flag is an MGG-engine feature; other engines must reject it.
        let err = execute(
            &parse(&args(&format!("simulate {p} --gpus 4 --dim 16 --engine uvm --cache-mb 16")))
                .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("--engine mgg"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_profile_and_trace_flags() {
        let cmd = parse(&args(
            "profile g.csr --gpus 4 --dim 32 --engine uvm --trace-out t.json --metrics-out m.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Profile {
                graph: PathBuf::from("g.csr"),
                gpus: 4,
                dim: 32,
                engine: Engine::Uvm,
                platform: Platform::A100,
                trace_out: Some(PathBuf::from("t.json")),
                metrics_out: Some(PathBuf::from("m.json")),
                threads: None,
                host: false,
            }
        );
        match parse(&args("simulate g.csr --trace-out t.json")).unwrap() {
            Command::Simulate { trace_out, metrics_out, .. } => {
                assert_eq!(trace_out, Some(PathBuf::from("t.json")));
                assert_eq!(metrics_out, None);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn parse_perfdiff_and_host_flags() {
        let cmd =
            parse(&args("perfdiff base.json cand.json --annotate --json-out v.json")).unwrap();
        assert_eq!(
            cmd,
            Command::PerfDiff {
                baseline: PathBuf::from("base.json"),
                candidate: PathBuf::from("cand.json"),
                annotate: true,
                strict: false,
                json_out: Some(PathBuf::from("v.json")),
            }
        );
        assert!(parse(&args("perfdiff only-one.json")).is_err());
        match parse(&args("profile g.csr --host --threads 4")).unwrap() {
            Command::Profile { host, threads, .. } => {
                assert!(host);
                assert_eq!(threads, Some(4));
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn host_profile_attributes_the_speedup_gap() {
        let dir = std::env::temp_dir().join(format!("mgg-cli-host-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.csr");
        let p = path.to_str().unwrap();
        execute(&parse(&args(&format!("generate --rmat 9,6000 -o {p}"))).unwrap()).unwrap();

        let metrics = dir.join("m.json");
        let out = execute(
            &parse(&args(&format!(
                "profile {p} --gpus 4 --dim 32 --host --threads 4 --metrics-out {}",
                metrics.display()
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("task-exec"), "{out}");
        assert!(out.contains("bit-identity"), "{out}");
        // The metrics snapshot must carry the attached runtime profile.
        let snap = std::fs::read_to_string(&metrics).unwrap();
        assert!(snap.contains("cli.host"), "{snap}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn perfdiff_command_runs_end_to_end() {
        let dir = std::env::temp_dir().join(format!("mgg-cli-pd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let cand = dir.join("cand.json");
        let verdict = dir.join("verdict.json");
        std::fs::write(&base, r#"{"rows": [{"threads": 4, "speedup": 3.0}]}"#).unwrap();
        std::fs::write(&cand, r#"{"rows": [{"threads": 4, "speedup": 2.0}]}"#).unwrap();

        let out = execute(
            &parse(&args(&format!(
                "perfdiff {} {} --annotate --json-out {}",
                base.display(),
                cand.display(),
                verdict.display()
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("REGRESSED"), "{out}");
        assert!(out.contains("::warning::"), "{out}");
        assert!(std::fs::read_to_string(&verdict).unwrap().contains("regressed"));

        // --strict turns the same regression into a hard failure.
        let err = execute(
            &parse(&args(&format!(
                "perfdiff {} {} --strict",
                base.display(),
                cand.display()
            )))
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("--strict"), "{err}");

        // Identical inputs are clean even under --strict.
        let out = execute(
            &parse(&args(&format!("perfdiff {} {} --strict", base.display(), base.display())))
                .unwrap(),
        )
        .unwrap();
        assert!(out.contains("CLEAN"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_exports_valid_trace_and_metrics() {
        let dir = std::env::temp_dir().join(format!("mgg-cli-prof-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("g.csr");
        let p = p.to_str().unwrap().to_string();
        execute(&parse(&args(&format!("generate --rmat 8,2000 -o {p}"))).unwrap()).unwrap();

        let trace = dir.join("t.json");
        let metrics = dir.join("m.json");
        let out = execute(
            &parse(&args(&format!(
                "simulate {p} --gpus 2 --dim 16 --engine mgg --trace-out {} --metrics-out {}",
                trace.display(),
                metrics.display()
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("wrote Chrome trace"), "{out}");
        assert!(out.contains("wrote metrics snapshot"), "{out}");

        // The Chrome trace must parse and hold at least one event per GPU.
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents");
        assert!(!events.is_empty());
        for gpu in 0..2u64 {
            let pid = 1 + gpu;
            assert!(
                events.iter().any(|e| {
                    e.get("pid").and_then(|p| p.as_u64()) == Some(pid)
                        && e.get("ph").and_then(|p| p.as_str()) == Some("X")
                }),
                "no events for gpu {gpu}"
            );
        }

        // The metrics snapshot must parse and expose the pipeline section.
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let pipeline = doc.get("pipeline").expect("pipeline section");
        assert!(pipeline.get("overlap_efficiency").and_then(|v| v.as_f64()).is_some());

        // Unsupported engines reject the flags instead of writing nothing.
        let err = execute(
            &parse(&args(&format!(
                "simulate {p} --gpus 2 --dim 16 --engine dgcl --trace-out {}",
                trace.display()
            )))
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("only supported"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_prints_phase_breakdown() {
        let dir = std::env::temp_dir().join(format!("mgg-cli-prof2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("g.csr");
        let p = p.to_str().unwrap().to_string();
        execute(&parse(&args(&format!("generate --rmat 8,2000 -o {p}"))).unwrap()).unwrap();

        let out = execute(
            &parse(&args(&format!("profile {p} --gpus 2 --dim 16 --engine mgg"))).unwrap(),
        )
        .unwrap();
        for phase in ["partition", "plan", "launch", "aggregate", "barrier"] {
            assert!(out.contains(phase), "missing phase {phase} in:\n{out}");
        }
        assert!(out.contains("overlap"), "{out}");

        let err = execute(
            &parse(&args(&format!("profile {p} --engine dgcl"))).unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("profile supports"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_under_faults_reports_recovery() {
        let dir = std::env::temp_dir().join(format!("mgg-cli-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.csr");
        let p = path.to_str().unwrap();
        execute(&parse(&args(&format!("generate --rmat 8,2000 -o {p}"))).unwrap()).unwrap();

        let out = execute(
            &parse(&args(&format!(
                "simulate {p} --gpus 4 --dim 16 --fault-seed 42 --fault-link-degrade 0.5"
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("re-balance placement"), "{out}");
        assert!(out.contains("replans"), "{out}");

        // The UVM baseline accepts the same fault scenario.
        let out = execute(
            &parse(&args(&format!(
                "simulate {p} --gpus 4 --dim 16 --engine uvm --fault-seed 42 --fault-link-degrade 0.5"
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("simulated"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_under_permanent_faults_reports_failover() {
        let dir = std::env::temp_dir().join(format!("mgg-cli-perm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.csr");
        let p = path.to_str().unwrap();
        execute(&parse(&args(&format!("generate --rmat 8,2000 -o {p}"))).unwrap()).unwrap();

        let out = execute(
            &parse(&args(&format!(
                "simulate {p} --gpus 4 --dim 16 --fault-gpu-fail 3@2ms"
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("evacuate the dead GPU's shard"), "{out}");
        assert!(out.contains("failover:"), "{out}");
        assert!(out.contains("evacuations"), "{out}");

        // Permanent faults are an MGG-engine feature; baselines reject them.
        let err = execute(
            &parse(&args(&format!(
                "simulate {p} --gpus 4 --dim 16 --engine uvm --fault-gpu-fail 3@2ms"
            )))
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("--engine mgg"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_serve_defaults() {
        let cmd = parse(&args("serve g.csr")).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                graph: PathBuf::from("g.csr"),
                gpus: 8,
                dim: 64,
                platform: Platform::A100,
                arrival: ArrivalKind::Poisson,
                qps: None,
                deadline_ns: 1_000_000,
                zipf_s: 0.9,
                duration_ns: 2_000_000,
                seed: 42,
                batch_cap: 32,
                queue_cap: 2048,
                fault: None,
                permanent: vec![],
                threads: None,
                mix: PriorityMix::gold_only(),
                churn: None,
                json_out: None,
                metrics_out: None,
            }
        );
    }

    #[test]
    fn parse_serve_arrival_shapes() {
        match parse(&args("serve g.csr --arrival bursty")).unwrap() {
            Command::Serve { arrival, .. } => {
                assert_eq!(arrival, ArrivalKind::Bursty { period_ns: 400_000, duty_pct: 25 });
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&args("serve g.csr --arrival bursty:1ms,40%")).unwrap() {
            Command::Serve { arrival, .. } => {
                assert_eq!(arrival, ArrivalKind::Bursty { period_ns: 1_000_000, duty_pct: 40 });
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&args("serve g.csr --arrival ramp:0.5,3.0")).unwrap() {
            Command::Serve { arrival, .. } => {
                assert_eq!(arrival, ArrivalKind::Ramp { from_mult: 0.5, to_mult: 3.0 });
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&args("serve g.csr --arrival sawtooth")).is_err());
        assert!(parse(&args("serve g.csr --arrival bursty:1ms,150%")).is_err());
        assert!(parse(&args("serve g.csr --arrival ramp:-1,2")).is_err());
    }

    #[test]
    fn parse_serve_flags_and_validation() {
        match parse(&args(
            "serve g.csr --gpus 4 --qps 2000000 --deadline-us 500 --zipf 1.2 \
             --duration 4ms --seed 9 --batch-cap 16 --queue-cap 64 --fault-straggler 4.0",
        ))
        .unwrap()
        {
            Command::Serve { gpus, qps, deadline_ns, zipf_s, duration_ns, seed, batch_cap, queue_cap, fault, .. } => {
                assert_eq!(gpus, 4);
                assert_eq!(qps, Some(2_000_000.0));
                assert_eq!(deadline_ns, 500_000);
                assert_eq!(zipf_s, 1.2);
                assert_eq!(duration_ns, 4_000_000);
                assert_eq!(seed, 9);
                assert_eq!(batch_cap, 16);
                assert_eq!(queue_cap, 64);
                assert_eq!(fault.unwrap().straggler, 4.0);
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&args("serve g.csr --qps 0")).is_err());
        assert!(parse(&args("serve g.csr --qps lots")).is_err());
        assert!(parse(&args("serve g.csr --zipf -1")).is_err());
        assert!(parse(&args("serve")).is_err());
        let err = execute(&Command::Serve {
            graph: PathBuf::from("missing.csr"),
            gpus: 4,
            dim: 32,
            platform: Platform::A100,
            arrival: ArrivalKind::Poisson,
            qps: None,
            deadline_ns: 1_000_000,
            zipf_s: 0.9,
            duration_ns: 2_000_000,
            seed: 1,
            batch_cap: 0,
            queue_cap: 256,
            fault: None,
            permanent: vec![],
            threads: None,
            mix: PriorityMix::gold_only(),
            churn: None,
            json_out: None,
            metrics_out: None,
        })
        .unwrap_err();
        assert!(err.contains("--batch-cap"), "{err}");
    }

    #[test]
    fn parse_serve_churn_and_priority_flags() {
        match parse(&args(
            "serve g.csr --gpus 4 --duration 3ms --priority-mix 0.2,0.3,0.5 \
             --churn-deltas 400000 --churn-seed 11 --churn-fence-us 100 --churn-warmup-us 300 \
             --drain 1@500us --leave 1@1ms --join 1@2ms",
        ))
        .unwrap()
        {
            Command::Serve { mix, churn, .. } => {
                assert!(!mix.is_gold_only());
                let cs = churn.expect("churn spec");
                assert_eq!(cs.seed, 11);
                assert_eq!(cs.fence_interval_ns, 100_000);
                assert_eq!(cs.warmup_ns, 300_000);
                assert!(cs.deltas_per_sec > 0.0);
                assert_eq!(cs.membership.len(), 3);
                assert_eq!(cs.membership[0].shard, 1);
                assert_eq!(cs.membership[0].at_ns, 500_000);
                assert_eq!(cs.membership[0].change, MembershipChange::Drain);
                assert_eq!(cs.membership[1].change, MembershipChange::Leave);
                assert_eq!(cs.membership[2].change, MembershipChange::Join);
                assert_eq!(cs.membership[2].at_ns, 2_000_000);
            }
            other => panic!("parsed {other:?}"),
        }
        // Membership flags alone yield a quiet (no-delta) churn spec.
        match parse(&args("serve g.csr --gpus 2 --drain 0@1ms")).unwrap() {
            Command::Serve { mix, churn, .. } => {
                assert!(mix.is_gold_only());
                let cs = churn.expect("churn spec");
                assert_eq!(cs.deltas_per_sec, 0.0);
                assert_eq!(cs.membership.len(), 1);
            }
            other => panic!("parsed {other:?}"),
        }
        // No churn flags: no churn plane at all.
        match parse(&args("serve g.csr")).unwrap() {
            Command::Serve { churn, .. } => assert!(churn.is_none()),
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&args("serve g.csr --priority-mix 1,2")).is_err());
        assert!(parse(&args("serve g.csr --priority-mix 0,0,0")).is_err());
        assert!(parse(&args("serve g.csr --priority-mix a,b,c")).is_err());
        assert!(parse(&args("serve g.csr --gpus 4 --drain 9@1ms")).is_err());
        assert!(parse(&args("serve g.csr --drain 1")).is_err());
        assert!(parse(&args("serve g.csr --churn-deltas -5")).is_err());
        assert!(parse(&args("serve g.csr --churn-fence-us 0")).is_err());
    }

    #[test]
    fn serve_overload_end_to_end_writes_json() {
        let dir = std::env::temp_dir().join(format!("mgg-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("g.csr");
        let p = p.to_str().unwrap().to_string();
        execute(&parse(&args(&format!("generate --rmat 9,8000 -o {p}"))).unwrap()).unwrap();

        let json = dir.join("serve.json");
        // Default load is 1.5x saturation: shedding must engage.
        let out = execute(
            &parse(&args(&format!(
                "serve {p} --gpus 4 --dim 32 --seed 7 --json-out {}",
                json.display()
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("admitted"), "{out}");
        assert!(out.contains("decision digest"), "{out}");
        assert!(out.contains("wrote serve report"), "{out}");

        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
        let summary = doc.get("summary").expect("summary section");
        let shed = summary.get("shed_fraction").and_then(|v| v.as_f64()).unwrap();
        assert!(shed > 0.0, "1.5x overload must shed");
        assert_eq!(
            summary.get("routing_violations").and_then(|v| v.as_u64()),
            Some(0)
        );
        let cal = doc.get("calibration").expect("calibration section");
        assert!(cal.get("saturation_qps").and_then(|v| v.as_f64()).unwrap() > 0.0);

        // Degraded-GPU scenario: breaker transitions recorded, no routing
        // violations, run completes.
        let out = execute(
            &parse(&args(&format!(
                "serve {p} --gpus 4 --dim 32 --seed 7 --fault-seed 5 --fault-straggler 4.0"
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("impaired GPUs"), "{out}");
        assert!(out.contains("routing-attributable 0"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_is_deterministic_across_invocations() {
        let dir = std::env::temp_dir().join(format!("mgg-cli-serve-det-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("g.csr");
        let p = p.to_str().unwrap().to_string();
        execute(&parse(&args(&format!("generate --rmat 8,2000 -o {p}"))).unwrap()).unwrap();
        let run = |threads: usize| {
            execute(
                &parse(&args(&format!("serve {p} --gpus 2 --dim 16 --seed 3 --threads {threads}")))
                    .unwrap(),
            )
            .unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a, b, "serve output must not depend on the thread count");
        std::fs::remove_dir_all(&dir).ok();
    }
}

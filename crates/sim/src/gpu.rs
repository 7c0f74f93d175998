//! Event-driven execution of kernels on the simulated GPUs.
//!
//! Execution model, per GPU:
//!
//! * Blocks from the grid are admitted to SMs in launch order whenever an SM
//!   has a free residency slot (bounded by warp slots, shared memory, and
//!   the hardware block cap — see [`KernelLaunch::max_resident_blocks`]).
//! * Each SM has `schedulers_per_sm` scheduler slots. A
//!   [`WarpOp::Compute`] occupies one slot for its duration; an `nbi`
//!   remote get occupies one slot for the request-issue overhead. Other
//!   memory operations need a free scheduler at the moment they issue but
//!   do not hold it, so a warp stalled on memory leaves the SM free to
//!   issue other warps — the latency-hiding slack MGG's interleaving fills.
//! * Warps blocked on memory wake when their transfer completes; ready
//!   warps are served FIFO, deterministically.

use std::cell::RefCell;
use std::collections::VecDeque;

use mgg_fault::{FaultSchedule, COMPLETION_TIMEOUT_NS, PEER_DEATH_TIMEOUT_NS, RETRY_BACKOFF_NS};

use crate::cluster::{Cluster, PageHandler};
use crate::engine::EventQueue;
use crate::kernel::{
    GpuKernelStats, KernelLaunch, KernelProgram, KernelStats, LaunchError, RecoveryStats,
};
use crate::spec::GpuSpec;
use crate::time::SimTime;
use crate::trace::{TraceEvent, TraceKind};
use crate::warp::WarpOp;

/// Namespace for kernel execution on a cluster.
pub struct GpuSim;

/// One admitted warp. Its trace is `ops[pc..end]` of its GPU's op arena.
#[derive(Debug)]
struct WarpRt {
    /// Arena index of the warp's next op.
    pc: u32,
    /// Arena index one past the warp's last op.
    end: u32,
    block_slot: u32,
    /// Completion time of the latest outstanding `nbi` transfer.
    pending_remote: SimTime,
}

#[derive(Debug)]
struct BlockRt {
    live_warps: u32,
}

#[derive(Debug)]
struct SmRt {
    free_scheds: u32,
    ready: VecDeque<u32>,
    resident_blocks: u32,
    resident_warps: u32,
    /// Resident warps that are not blocked on memory (ready or computing).
    active_warps: u32,
    last_change: SimTime,
    warp_ns: u64,
    active_warp_ns: u64,
    live_ns: u64,
}

impl SmRt {
    fn new(scheds: u32) -> Self {
        SmRt {
            free_scheds: scheds,
            ready: VecDeque::new(),
            resident_blocks: 0,
            resident_warps: 0,
            active_warps: 0,
            last_change: 0,
            warp_ns: 0,
            active_warp_ns: 0,
            live_ns: 0,
        }
    }

    /// Integrates the occupancy counters up to `now`.
    fn touch(&mut self, now: SimTime) {
        let dt = now.saturating_sub(self.last_change);
        self.warp_ns += self.resident_warps as u64 * dt;
        self.active_warp_ns += self.active_warps as u64 * dt;
        if self.active_warps > 0 {
            self.live_ns += dt;
        }
        self.last_change = now;
    }
}

#[derive(Debug)]
struct GpuRt {
    launch: KernelLaunch,
    next_block: u32,
    blocks: Vec<BlockRt>,
    warps: Vec<WarpRt>,
    /// Op arena: every admitted warp's trace, appended at admission.
    ops: Vec<WarpOp>,
    /// Arena ops that live warps have yet to execute; the rest of the
    /// arena is spent and is reclaimed by [`compact_ops`].
    live_ops: usize,
    /// No block below this slot has a live warp.
    first_live_block: usize,
    sms: Vec<SmRt>,
    finish_ns: SimTime,
    sched_busy_ns: u64,
    warps_done: u64,
    blocks_done: u64,
    /// Set once the GPU dies permanently; its events are ignored from then
    /// on and no further blocks are admitted.
    halted: bool,
}

#[derive(Debug, Clone, Copy)]
struct Ev {
    gpu: u16,
    sm: u16,
    warp: u32,
    kind: EvKind,
}

/// Per-run fault state: the installed schedule (if any) plus the mutable
/// counters the drop decisions and recovery accounting need.
#[derive(Debug)]
struct FaultCtx {
    schedule: Option<FaultSchedule>,
    /// Per-GPU compute slowdown, 1.0 everywhere when healthy.
    compute_scale: Vec<f64>,
    /// Per-GPU permanent death instant, `None` everywhere when healthy.
    dead_at: Vec<Option<SimTime>>,
    /// Per-GPU count of one-sided GETs issued so far (the drop decision is
    /// a pure function of (pe, serial)).
    remote_serial: Vec<u64>,
    recovery: RecoveryStats,
}

impl FaultCtx {
    fn new(cluster: &Cluster) -> Self {
        let n = cluster.num_gpus();
        let schedule = cluster.faults().cloned();
        let compute_scale = (0..n)
            .map(|pe| schedule.as_ref().map_or(1.0, |s| s.compute_scale(pe)))
            .collect();
        let dead_at = (0..n)
            .map(|pe| schedule.as_ref().and_then(|s| s.gpu_dead_at(pe)))
            .collect();
        FaultCtx {
            schedule,
            compute_scale,
            dead_at,
            remote_serial: vec![0; n],
            recovery: RecoveryStats::default(),
        }
    }

    /// Whether `pe` is permanently dead at `now`.
    fn is_dead(&self, pe: usize, now: SimTime) -> bool {
        matches!(self.dead_at[pe], Some(d) if now >= d)
    }

    /// Drop decisions for the next GET issued by `pe`: whether the GET
    /// itself is dropped, and (for `nbi` ops) whether its completion
    /// signal is lost.
    fn next_get(&mut self, pe: usize, nbi: bool) -> (bool, bool) {
        let Some(s) = &self.schedule else { return (false, false) };
        let serial = self.remote_serial[pe];
        self.remote_serial[pe] += 1;
        (s.drops_get(pe, serial), nbi && s.drops_completion(pe, serial))
    }
}

#[derive(Debug, Clone, Copy)]
enum EvKind {
    /// A scheduler slot frees and its warp becomes ready again.
    SchedFree,
    /// A blocking memory operation completed; the warp becomes ready.
    Wake,
}

/// Spent arena ops are reclaimed only past this many, so small kernels
/// never pay for a compaction.
const COMPACT_MIN_OPS: usize = 1 << 14;

/// Per-host-thread reusable simulator state. Worker threads on the
/// persistent `mgg-runtime` pool run many simulations back to back (one
/// sweep cell each); reusing the event queue's heap allocation and one op
/// arena per GPU slot across runs removes the per-cell allocator storm
/// that used to inflate parallel exec time. Purely host-side: recycled
/// buffers are emptied before reuse, so simulated results are unchanged.
#[derive(Default)]
struct SimScratch {
    arenas: Vec<Vec<WarpOp>>,
    queue: Option<EventQueue<Ev>>,
}

thread_local! {
    static SIM_SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::default());
}

impl GpuSim {
    /// Runs the SPMD `program` on every GPU of `cluster` concurrently and
    /// returns timing statistics. Functionally inert: only time and traffic
    /// are produced.
    pub fn run(
        cluster: &mut Cluster,
        program: &dyn KernelProgram,
        handler: &mut dyn PageHandler,
    ) -> Result<KernelStats, LaunchError> {
        Self::run_impl(cluster, program, handler, &mut None)
    }

    /// Like [`GpuSim::run`], additionally recording a per-operation trace
    /// (see [`crate::trace`]). Tracing does not change the simulation.
    pub fn run_traced(
        cluster: &mut Cluster,
        program: &dyn KernelProgram,
        handler: &mut dyn PageHandler,
    ) -> Result<(KernelStats, Vec<TraceEvent>), LaunchError> {
        let mut events = Vec::new();
        let stats = {
            let mut sink = Some(&mut events);
            Self::run_impl(cluster, program, handler, &mut sink)?
        };
        Ok((stats, events))
    }

    fn run_impl(
        cluster: &mut Cluster,
        program: &dyn KernelProgram,
        handler: &mut dyn PageHandler,
        trace: &mut Option<&mut Vec<TraceEvent>>,
    ) -> Result<KernelStats, LaunchError> {
        let spec = cluster.spec.gpu.clone();
        let n = cluster.num_gpus();
        // Pull this host thread's recycled arenas: one op arena per GPU
        // slot, and the event queue, each emptied and reused.
        let (mut arenas, recycled_queue) = SIM_SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            (std::mem::take(&mut s.arenas), s.queue.take())
        });
        arenas.resize_with(arenas.len().max(n), Vec::new);
        let mut gpus: Vec<GpuRt> = Vec::with_capacity(n);
        for (pe, ops) in arenas.iter_mut().take(n).enumerate() {
            let launch = program.launch(pe);
            // Validate even for empty grids so misconfigurations surface.
            let _ = launch.max_resident_blocks(&spec)?;
            let mut ops = std::mem::take(ops);
            ops.clear();
            gpus.push(GpuRt {
                launch,
                next_block: 0,
                blocks: Vec::new(),
                warps: Vec::new(),
                ops,
                live_ops: 0,
                first_live_block: 0,
                sms: (0..spec.num_sms).map(|_| SmRt::new(spec.schedulers_per_sm)).collect(),
                finish_ns: 0,
                sched_busy_ns: 0,
                warps_done: 0,
                blocks_done: 0,
                halted: false,
            });
        }

        let mut q = recycled_queue.unwrap_or_default();
        q.clear();

        // Initial block admission: fill every SM up to its residency limit,
        // round-robin over SMs the way the hardware rasterizes a grid.
        for (pe, gpu) in gpus.iter_mut().enumerate() {
            let max_res = gpu.launch.max_resident_blocks(&spec)?;
            'fill: for _round in 0..max_res {
                for sm in 0..spec.num_sms as usize {
                    if gpu.next_block >= gpu.launch.blocks {
                        break 'fill;
                    }
                    admit_block(pe, sm, gpu, program, 0);
                }
            }
        }

        let mut faults = FaultCtx::new(cluster);

        // Prime the pipelines.
        for (pe, gpu) in gpus.iter_mut().enumerate() {
            for sm in 0..spec.num_sms as usize {
                issue(pe, sm, 0, gpu, cluster, handler, &mut q, program, &spec, &mut faults, trace);
            }
        }

        while let Some((now, ev)) = q.pop() {
            let pe = ev.gpu as usize;
            let sm = ev.sm as usize;
            // Events of a permanently dead GPU are ignored: its first event
            // at or past the death instant performs the one-time halt sweep,
            // and the queue drains without re-arming anything on the GPU —
            // termination is guaranteed.
            if faults.is_dead(pe, now) {
                if !gpus[pe].halted {
                    halt_gpu(&mut gpus[pe], faults.dead_at[pe].expect("dead"), &mut faults.recovery);
                }
                continue;
            }
            match ev.kind {
                EvKind::SchedFree => {
                    gpus[pe].sms[sm].free_scheds += 1;
                    gpus[pe].sms[sm].ready.push_back(ev.warp);
                }
                EvKind::Wake => {
                    gpus[pe].sms[sm].touch(now);
                    gpus[pe].sms[sm].active_warps += 1;
                    gpus[pe].sms[sm].ready.push_back(ev.warp);
                }
            }
            issue(
                pe, sm, now, &mut gpus[pe], cluster, handler, &mut q, program, &spec, &mut faults,
                trace,
            );
        }

        faults.recovery.degraded_transfers = cluster.ic.degraded_requests();
        faults.recovery.rerouted_transfers = cluster.ic.rerouted_transfers();
        faults.recovery.host_staged_transfers = cluster.ic.host_staged_transfers();
        let mut stats = KernelStats {
            per_gpu: Vec::with_capacity(n),
            traffic: cluster.ic.traffic(),
            recovery: faults.recovery,
            cache: mgg_cache::CacheStats::default(),
            num_sms: spec.num_sms,
            warp_slots_per_sm: spec.warp_slots_per_sm,
        };
        for gpu in &mut gpus {
            let finish = gpu.finish_ns;
            for sm in &mut gpu.sms {
                sm.touch(finish);
            }
            stats.per_gpu.push(GpuKernelStats {
                finish_ns: finish,
                warp_residency_ns: gpu.sms.iter().map(|s| s.warp_ns).sum(),
                active_warp_ns: gpu.sms.iter().map(|s| s.active_warp_ns).sum(),
                sm_active_ns: gpu.sms.iter().map(|s| s.live_ns).sum(),
                sched_busy_ns: gpu.sched_busy_ns,
                warps: gpu.warps_done,
                blocks: gpu.blocks_done,
            });
        }
        // Return the arenas for the next run on this host thread.
        for (arena, gpu) in arenas.iter_mut().zip(&mut gpus) {
            *arena = std::mem::take(&mut gpu.ops);
        }
        SIM_SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            s.arenas = arenas;
            s.queue = Some(q);
        });
        Ok(stats)
    }
}

/// One-time halt sweep of a permanently dead GPU: occupancy integrates up
/// to the death instant, all resident state zeroes, no further blocks are
/// admitted, and every live warp counts as halted. The caller discards the
/// GPU's queued events from then on.
fn halt_gpu(gpu: &mut GpuRt, death: SimTime, recovery: &mut RecoveryStats) {
    for sm in &mut gpu.sms {
        sm.touch(death);
        recovery.halted_warps += sm.resident_warps as u64;
        sm.resident_warps = 0;
        sm.active_warps = 0;
        sm.resident_blocks = 0;
        sm.ready.clear();
    }
    for warp in &mut gpu.warps {
        warp.pc = warp.end;
    }
    gpu.live_ops = 0;
    gpu.next_block = gpu.launch.blocks;
    gpu.finish_ns = gpu.finish_ns.max(death);
    gpu.halted = true;
}

/// Admits the next pending block of `gpu` onto SM `sm` (if any remain).
fn admit_block(pe: usize, sm: usize, gpu: &mut GpuRt, program: &dyn KernelProgram, now: SimTime) {
    if gpu.next_block >= gpu.launch.blocks {
        return;
    }
    if gpu.ops.len() - gpu.live_ops > gpu.live_ops.max(COMPACT_MIN_OPS) {
        compact_ops(gpu);
    }
    let block_id = gpu.next_block;
    gpu.next_block += 1;
    let wpb = gpu.launch.warps_per_block;
    let block_slot = gpu.blocks.len() as u32;
    gpu.blocks.push(BlockRt { live_warps: wpb });
    gpu.sms[sm].touch(now);
    gpu.sms[sm].resident_blocks += 1;
    gpu.sms[sm].resident_warps += wpb;
    gpu.sms[sm].active_warps += wpb;
    for w in 0..wpb {
        let pc = gpu.ops.len();
        program.warp_ops(pe, block_id, w, &mut gpu.ops);
        let end = u32::try_from(gpu.ops.len()).expect("op arena fits u32 indices");
        gpu.live_ops += end as usize - pc;
        let idx = gpu.warps.len() as u32;
        gpu.warps.push(WarpRt { pc: pc as u32, end, block_slot, pending_remote: 0 });
        gpu.sms[sm].ready.push_back(idx);
    }
}

/// Reclaims the spent part of `gpu`'s op arena: the live warps' remaining
/// ops move to the front, in warp order, and each live warp's `pc`/`end`
/// follow them. Warps are admitted block by block, so block slot `b` owns
/// warps `b * wpb ..` and the scan starts at the oldest live block.
fn compact_ops(gpu: &mut GpuRt) {
    while gpu.blocks.get(gpu.first_live_block).is_some_and(|b| b.live_warps == 0) {
        gpu.first_live_block += 1;
    }
    let first_warp = gpu.first_live_block * gpu.launch.warps_per_block as usize;
    let mut at = 0u32;
    for warp in &mut gpu.warps[first_warp..] {
        if warp.pc < warp.end {
            let len = warp.end - warp.pc;
            gpu.ops.copy_within(warp.pc as usize..warp.end as usize, at as usize);
            warp.pc = at;
            at += len;
            warp.end = at;
        }
    }
    gpu.ops.truncate(at as usize);
    debug_assert_eq!(gpu.ops.len(), gpu.live_ops);
}

/// Issues operations for ready warps on `(pe, sm)` until the ready queue
/// drains or a scheduler-consuming operation finds no free slot.
#[allow(clippy::too_many_arguments)]
fn issue(
    pe: usize,
    sm: usize,
    now: SimTime,
    gpu: &mut GpuRt,
    cluster: &mut Cluster,
    handler: &mut dyn PageHandler,
    q: &mut EventQueue<Ev>,
    program: &dyn KernelProgram,
    spec: &GpuSpec,
    faults: &mut FaultCtx,
    trace: &mut Option<&mut Vec<TraceEvent>>,
) {
    let overhead = cluster.ic.request_overhead_ns;
    // A dead GPU issues nothing. This also catches death at the priming
    // instant (before any event fires).
    if faults.is_dead(pe, now) {
        if !gpu.halted {
            halt_gpu(gpu, faults.dead_at[pe].expect("dead"), &mut faults.recovery);
        }
        return;
    }
    macro_rules! record {
        ($w:expr, $kind:expr, $start:expr, $end:expr) => {
            if let Some(t) = trace.as_deref_mut() {
                t.push(TraceEvent {
                    gpu: pe as u16,
                    sm: sm as u16,
                    warp: $w,
                    kind: $kind,
                    start: $start,
                    end: $end,
                });
            }
        };
    }
    while let Some(&w) = gpu.sms[sm].ready.front() {
        // A warp at the head whose next op needs a scheduler slot blocks
        // the queue when none is free (issue-port contention).
        let head = &gpu.warps[w as usize];
        let needs_sched = head.pc < head.end
            && matches!(
                gpu.ops[head.pc as usize],
                WarpOp::Compute { .. }
                    | WarpOp::RemoteGet { nbi: true, .. }
                    | WarpOp::CacheHit { .. }
            );
        if needs_sched && gpu.sms[sm].free_scheds == 0 {
            break;
        }
        gpu.sms[sm].ready.pop_front();

        // Execute ops of warp `w` until it blocks, takes a scheduler slot,
        // or retires. Posted operations (writes, puts) fall through.
        loop {
            let warp = &gpu.warps[w as usize];
            if warp.pc == warp.end {
                // Warp retires; its spent ops are reclaimed by the next
                // compaction of the arena.
                let block_slot = warp.block_slot as usize;
                gpu.warps_done += 1;
                gpu.finish_ns = gpu.finish_ns.max(now);
                gpu.sms[sm].touch(now);
                gpu.sms[sm].resident_warps -= 1;
                gpu.sms[sm].active_warps -= 1;
                gpu.blocks[block_slot].live_warps -= 1;
                if gpu.blocks[block_slot].live_warps == 0 {
                    gpu.blocks_done += 1;
                    gpu.sms[sm].resident_blocks -= 1;
                    admit_block(pe, sm, gpu, program, now);
                }
                break;
            }
            let op = gpu.ops[warp.pc as usize];
            // A scheduler-consuming op can be reached mid-burst (after a
            // posted write or a satisfied WaitRemote fell through); if no
            // slot is free, requeue the warp at the head — the next
            // SchedFree event re-issues it.
            if matches!(
                op,
                WarpOp::Compute { .. }
                    | WarpOp::RemoteGet { nbi: true, .. }
                    | WarpOp::CacheHit { .. }
            ) && gpu.sms[sm].free_scheds == 0
            {
                gpu.sms[sm].ready.push_front(w);
                break;
            }
            gpu.warps[w as usize].pc += 1;
            gpu.live_ops -= 1;
            match op {
                WarpOp::Compute { cycles } => {
                    let mut dur = spec.cycles_to_ns(cycles as u64).max(1);
                    // Straggler GPUs run their compute slower. The 1.0 path
                    // skips the float round-trip so healthy runs stay
                    // bit-identical to the pre-fault-layer model.
                    let scale = faults.compute_scale[pe];
                    if scale != 1.0 {
                        dur = ((dur as f64) * scale).round() as u64;
                    }
                    gpu.sms[sm].free_scheds -= 1;
                    gpu.sched_busy_ns += dur;
                    record!(w, TraceKind::Compute, now, now + dur);
                    q.push(
                        now + dur,
                        Ev { gpu: pe as u16, sm: sm as u16, warp: w, kind: EvKind::SchedFree },
                    );
                    break;
                }
                WarpOp::GlobalRead { bytes } => {
                    let done = cluster.ic.hbm_transfer(now, pe, bytes as u64);
                    record!(w, TraceKind::GlobalRead, now, done);
                    q.push(done, Ev { gpu: pe as u16, sm: sm as u16, warp: w, kind: EvKind::Wake });
                    gpu.sms[sm].touch(now);
                    gpu.sms[sm].active_warps -= 1;
                    break;
                }
                WarpOp::GlobalWrite { bytes } => {
                    // Posted: charge the channel, keep executing.
                    let _ = cluster.ic.hbm_transfer(now, pe, bytes as u64);
                }
                WarpOp::CacheHit { bytes } => {
                    // A cached remote row: local HBM read instead of a
                    // fabric round trip. The LSU posts an async local copy
                    // and the read joins the pair's WaitRemote, exactly
                    // like a GET that happens to be local. Blocking here
                    // instead would stall the warp through the HBM FIFO
                    // queue, which under GET-source-read load runs far
                    // deeper than a fabric round trip.
                    let done = cluster.ic.hbm_transfer(now, pe, bytes as u64);
                    record!(w, TraceKind::CacheHit, now, done);
                    let warp = &mut gpu.warps[w as usize];
                    warp.pending_remote = warp.pending_remote.max(done);
                    gpu.sms[sm].free_scheds -= 1;
                    gpu.sched_busy_ns += 1;
                    q.push(
                        now + 1,
                        Ev { gpu: pe as u16, sm: sm as u16, warp: w, kind: EvKind::SchedFree },
                    );
                    break;
                }
                WarpOp::RemoteGet { peer, bytes, nbi } => {
                    if faults.is_dead(peer as usize, now) {
                        // Dead target PE: no wire traffic; the operation
                        // completes after the bounded peer-death timeout
                        // and counts as a dead-peer GET — never a hang.
                        let done = now + overhead + PEER_DEATH_TIMEOUT_NS;
                        faults.recovery.dead_peer_gets += 1;
                        faults.recovery.recovery_latency_ns += PEER_DEATH_TIMEOUT_NS;
                        if nbi {
                            let warp = &mut gpu.warps[w as usize];
                            warp.pending_remote = warp.pending_remote.max(done);
                            gpu.sms[sm].free_scheds -= 1;
                            gpu.sched_busy_ns += overhead.max(1);
                            record!(w, TraceKind::RemoteIssue, now, now + overhead.max(1));
                            q.push_sorted(
                                now + overhead.max(1),
                                Ev { gpu: pe as u16, sm: sm as u16, warp: w, kind: EvKind::SchedFree },
                            );
                        } else {
                            record!(w, TraceKind::RemoteWire, now, done);
                            q.push(done, Ev { gpu: pe as u16, sm: sm as u16, warp: w, kind: EvKind::Wake });
                            gpu.sms[sm].touch(now);
                            gpu.sms[sm].active_warps -= 1;
                        }
                        break;
                    }
                    let (drop_get, drop_completion) = faults.next_get(pe, nbi);
                    // The first wire attempt always happens (and its
                    // occupancy is charged — the data was lost in flight,
                    // not un-sent); a dropped GET re-issues after a
                    // detection backoff and only the retry's arrival
                    // matters.
                    let first =
                        cluster.ic.remote_transfer(now + overhead, peer as usize, pe, bytes as u64);
                    let mut done = first;
                    if drop_get {
                        let retry_at = first + RETRY_BACKOFF_NS;
                        done = cluster.ic.remote_transfer(retry_at, peer as usize, pe, bytes as u64);
                        faults.recovery.retried_gets += 1;
                        faults.recovery.recovery_latency_ns += done.saturating_sub(first);
                        record!(w, TraceKind::RemoteWire, retry_at, done);
                    }
                    if nbi {
                        if drop_completion {
                            // The data arrived but its completion flag was
                            // lost; the waiter recovers by timeout.
                            done += COMPLETION_TIMEOUT_NS;
                            faults.recovery.dropped_completions += 1;
                            faults.recovery.recovery_latency_ns += COMPLETION_TIMEOUT_NS;
                        }
                        let warp = &mut gpu.warps[w as usize];
                        warp.pending_remote = warp.pending_remote.max(done);
                        gpu.sms[sm].free_scheds -= 1;
                        gpu.sched_busy_ns += overhead.max(1);
                        record!(w, TraceKind::RemoteIssue, now, now + overhead.max(1));
                        record!(w, TraceKind::RemoteWire, now + overhead, first);
                        // `now` never decreases and `overhead` is fixed per
                        // cluster, so these frees arrive in time order.
                        q.push_sorted(
                            now + overhead.max(1),
                            Ev { gpu: pe as u16, sm: sm as u16, warp: w, kind: EvKind::SchedFree },
                        );
                    } else {
                        record!(w, TraceKind::RemoteWire, now, first);
                        q.push(done, Ev { gpu: pe as u16, sm: sm as u16, warp: w, kind: EvKind::Wake });
                        gpu.sms[sm].touch(now);
                        gpu.sms[sm].active_warps -= 1;
                    }
                    break;
                }
                WarpOp::RemotePut { peer, bytes } => {
                    // Posted one-sided put; a put to a dead PE is silently
                    // absorbed (no wire charge, no completion to wait on).
                    if !faults.is_dead(peer as usize, now) {
                        let _ = cluster.ic.remote_transfer(now + overhead, pe, peer as usize, bytes as u64);
                    }
                }
                WarpOp::WaitRemote => {
                    let pending = gpu.warps[w as usize].pending_remote;
                    if pending > now {
                        record!(w, TraceKind::WaitRemote, now, pending);
                        q.push(
                            pending,
                            Ev { gpu: pe as u16, sm: sm as u16, warp: w, kind: EvKind::Wake },
                        );
                        gpu.sms[sm].touch(now);
                        gpu.sms[sm].active_warps -= 1;
                        break;
                    }
                    // Already complete: fall through to the next op.
                }
                WarpOp::PageAccess { page, bytes } => {
                    let outcome = handler.access(now, pe, page, &mut cluster.ic);
                    let start = outcome.ready_at.max(now);
                    let done = cluster.ic.hbm_transfer(start, pe, bytes as u64);
                    record!(w, TraceKind::PageAccess, now, done);
                    q.push(done, Ev { gpu: pe as u16, sm: sm as u16, warp: w, kind: EvKind::Wake });
                    gpu.sms[sm].touch(now);
                    gpu.sms[sm].active_warps -= 1;
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::NoPaging;
    use crate::spec::ClusterSpec;

    /// A kernel whose every warp runs the same fixed trace.
    struct Uniform {
        launch: KernelLaunch,
        ops: Vec<WarpOp>,
    }

    impl KernelProgram for Uniform {
        fn launch(&self, _pe: usize) -> KernelLaunch {
            self.launch
        }
        fn warp_ops(&self, pe: usize, _b: u32, _w: u32, out: &mut Vec<WarpOp>) {
            // SPMD: every PE runs the trace; rewrite remote-get peers so a
            // PE never targets itself.
            out.extend(self.ops.iter().map(|op| match *op {
                WarpOp::RemoteGet { peer, bytes, nbi } if peer as usize == pe => {
                    WarpOp::RemoteGet { peer: (pe as u16 + 1) % 2, bytes, nbi }
                }
                other => other,
            }));
        }
    }

    fn small_cluster() -> Cluster {
        Cluster::new(ClusterSpec::dgx_a100(2))
    }

    #[test]
    fn empty_grid_finishes_at_zero() {
        let mut c = small_cluster();
        let k = Uniform {
            launch: KernelLaunch { blocks: 0, warps_per_block: 1, smem_per_block: 0 },
            ops: vec![],
        };
        let stats = GpuSim::run(&mut c, &k, &mut NoPaging).unwrap();
        assert_eq!(stats.makespan_ns(), 0);
    }

    #[test]
    fn single_compute_warp_takes_its_cycles() {
        let mut c = small_cluster();
        let k = Uniform {
            launch: KernelLaunch { blocks: 1, warps_per_block: 1, smem_per_block: 0 },
            ops: vec![WarpOp::compute(1_410)], // 1 µs at 1.41 GHz
        };
        let stats = GpuSim::run(&mut c, &k, &mut NoPaging).unwrap();
        assert_eq!(stats.makespan_ns(), 1_000);
        assert_eq!(stats.per_gpu[0].warps, 1);
    }

    #[test]
    fn compute_saturates_schedulers() {
        // 8 warps of equal compute on one SM with 4 schedulers must take
        // twice as long as 4 warps.
        let mut c = small_cluster();
        let mk = |warps| Uniform {
            launch: KernelLaunch { blocks: 1, warps_per_block: warps, smem_per_block: 0 },
            ops: vec![WarpOp::compute(14_100)],
        };
        let t4 = GpuSim::run(&mut c, &mk(4), &mut NoPaging).unwrap().makespan_ns();
        c.reset();
        let t8 = GpuSim::run(&mut c, &mk(8), &mut NoPaging).unwrap().makespan_ns();
        assert_eq!(t8, 2 * t4);
    }

    #[test]
    fn memory_latency_is_hidden_by_other_warps() {
        // Warps alternating read+compute: with many warps the reads overlap
        // each other and compute, so 8 warps take far less than 8x one warp.
        let ops = vec![
            WarpOp::GlobalRead { bytes: 2_048 },
            WarpOp::compute(1_410),
            WarpOp::GlobalRead { bytes: 2_048 },
            WarpOp::compute(1_410),
        ];
        let mut c = small_cluster();
        let mk = |warps| Uniform {
            launch: KernelLaunch { blocks: 1, warps_per_block: warps, smem_per_block: 0 },
            ops: ops.clone(),
        };
        let t1 = GpuSim::run(&mut c, &mk(1), &mut NoPaging).unwrap().makespan_ns();
        c.reset();
        let t8 = GpuSim::run(&mut c, &mk(8), &mut NoPaging).unwrap().makespan_ns();
        assert!(t8 < 2 * t1, "t8={t8} t1={t1}: expected latency hiding");
    }

    #[test]
    fn nbi_get_overlaps_with_compute() {
        // Async: issue get, compute, then wait — the transfer hides behind
        // the compute. Sync: get then compute serialize.
        let dim_bytes = 256 * 4;
        let sync_ops = vec![
            WarpOp::RemoteGet { peer: 1, bytes: dim_bytes, nbi: false },
            WarpOp::compute(5_000),
        ];
        let async_ops = vec![
            WarpOp::RemoteGet { peer: 1, bytes: dim_bytes, nbi: true },
            WarpOp::compute(5_000),
            WarpOp::WaitRemote,
        ];
        let mk = |ops: &Vec<WarpOp>| Uniform {
            launch: KernelLaunch { blocks: 1, warps_per_block: 1, smem_per_block: 0 },
            ops: ops.clone(),
        };
        let mut c = small_cluster();
        let t_sync = GpuSim::run(&mut c, &mk(&sync_ops), &mut NoPaging).unwrap().makespan_ns();
        c.reset();
        let t_async = GpuSim::run(&mut c, &mk(&async_ops), &mut NoPaging).unwrap().makespan_ns();
        assert!(
            t_async < t_sync,
            "async ({t_async}) must beat sync ({t_sync}) by overlapping"
        );
    }

    #[test]
    fn determinism() {
        let ops = vec![
            WarpOp::RemoteGet { peer: 1, bytes: 512, nbi: true },
            WarpOp::compute(700),
            WarpOp::WaitRemote,
            WarpOp::GlobalRead { bytes: 2_048 },
            WarpOp::compute(300),
        ];
        let k = Uniform {
            launch: KernelLaunch { blocks: 64, warps_per_block: 4, smem_per_block: 1024 },
            ops,
        };
        let mut c1 = small_cluster();
        let mut c2 = small_cluster();
        let s1 = GpuSim::run(&mut c1, &k, &mut NoPaging).unwrap();
        let s2 = GpuSim::run(&mut c2, &k, &mut NoPaging).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn launch_validation_propagates() {
        let mut c = small_cluster();
        let k = Uniform {
            launch: KernelLaunch { blocks: 1, warps_per_block: 0, smem_per_block: 0 },
            ops: vec![],
        };
        assert!(GpuSim::run(&mut c, &k, &mut NoPaging).is_err());
    }

    #[test]
    fn occupancy_reflects_residency() {
        // One warp on a 108-SM GPU: occupancy must be tiny but positive.
        let mut c = small_cluster();
        let k = Uniform {
            launch: KernelLaunch { blocks: 1, warps_per_block: 1, smem_per_block: 0 },
            ops: vec![WarpOp::compute(10_000)],
        };
        let stats = GpuSim::run(&mut c, &k, &mut NoPaging).unwrap();
        let occ = stats.achieved_occupancy();
        assert!(occ > 0.0 && occ < 0.01, "occ={occ}");
    }

    #[test]
    fn tracing_does_not_change_the_simulation() {
        let ops = vec![
            WarpOp::RemoteGet { peer: 1, bytes: 512, nbi: true },
            WarpOp::compute(700),
            WarpOp::WaitRemote,
            WarpOp::GlobalRead { bytes: 2_048 },
            WarpOp::compute(300),
        ];
        let k = Uniform {
            launch: KernelLaunch { blocks: 16, warps_per_block: 4, smem_per_block: 512 },
            ops,
        };
        let mut c1 = small_cluster();
        let plain = GpuSim::run(&mut c1, &k, &mut NoPaging).unwrap();
        let mut c2 = small_cluster();
        let (traced, events) = GpuSim::run_traced(&mut c2, &k, &mut NoPaging).unwrap();
        assert_eq!(plain, traced);
        assert!(!events.is_empty());
        // Every span is well-formed and inside the makespan.
        let mk = traced.makespan_ns();
        for e in &events {
            assert!(e.start <= e.end);
            assert!(e.end <= mk, "span past makespan: {e:?}");
        }
        // The async gets must produce both issue and wire spans.
        use crate::trace::TraceKind;
        assert!(events.iter().any(|e| e.kind == TraceKind::RemoteIssue));
        assert!(events.iter().any(|e| e.kind == TraceKind::RemoteWire));
        assert!(events.iter().any(|e| e.kind == TraceKind::WaitRemote));
    }

    #[test]
    fn quiet_fault_schedule_is_bit_identical() {
        use mgg_fault::{FaultSchedule, FaultSpec};
        let ops = vec![
            WarpOp::RemoteGet { peer: 1, bytes: 512, nbi: true },
            WarpOp::compute(700),
            WarpOp::WaitRemote,
            WarpOp::GlobalRead { bytes: 2_048 },
            WarpOp::compute(300),
        ];
        let k = Uniform {
            launch: KernelLaunch { blocks: 32, warps_per_block: 4, smem_per_block: 512 },
            ops,
        };
        let mut plain = small_cluster();
        let s_plain = GpuSim::run(&mut plain, &k, &mut NoPaging).unwrap();
        let mut quiet = small_cluster();
        quiet.install_faults(FaultSchedule::derive(&FaultSpec::quiet(), 2));
        let s_quiet = GpuSim::run(&mut quiet, &k, &mut NoPaging).unwrap();
        assert_eq!(s_plain, s_quiet);
        assert_eq!(s_quiet.recovery, crate::kernel::RecoveryStats::default());
    }

    #[test]
    fn straggler_slows_only_the_chosen_gpu() {
        use mgg_fault::{FaultSchedule, FaultSpec};
        let k = Uniform {
            launch: KernelLaunch { blocks: 8, warps_per_block: 4, smem_per_block: 0 },
            ops: vec![WarpOp::compute(14_100)],
        };
        let mut healthy = small_cluster();
        let base = GpuSim::run(&mut healthy, &k, &mut NoPaging).unwrap();
        let mut faulty = small_cluster();
        let spec = FaultSpec { seed: 5, straggler: 2.0, ..FaultSpec::quiet() };
        let sched = FaultSchedule::derive(&spec, 2);
        let slow: Vec<usize> = (0..2).filter(|&g| sched.compute_scale(g) > 1.0).collect();
        assert_eq!(slow.len(), 1);
        faulty.install_faults(sched);
        let s = GpuSim::run(&mut faulty, &k, &mut NoPaging).unwrap();
        for pe in 0..2 {
            if slow.contains(&pe) {
                assert_eq!(s.per_gpu[pe].finish_ns, 2 * base.per_gpu[pe].finish_ns);
            } else {
                assert_eq!(s.per_gpu[pe].finish_ns, base.per_gpu[pe].finish_ns);
            }
        }
    }

    #[test]
    fn dropped_gets_are_retried_and_slow_the_kernel() {
        use mgg_fault::{FaultSchedule, FaultSpec};
        let ops = vec![
            WarpOp::RemoteGet { peer: 1, bytes: 1_024, nbi: true },
            WarpOp::compute(500),
            WarpOp::WaitRemote,
        ];
        let k = Uniform {
            launch: KernelLaunch { blocks: 16, warps_per_block: 8, smem_per_block: 0 },
            ops,
        };
        let mut healthy = small_cluster();
        let base = GpuSim::run(&mut healthy, &k, &mut NoPaging).unwrap();
        let mut faulty = small_cluster();
        let spec = FaultSpec { seed: 9, drop_rate: 0.3, ..FaultSpec::quiet() };
        faulty.install_faults(FaultSchedule::derive(&spec, 2));
        let s = GpuSim::run(&mut faulty, &k, &mut NoPaging).unwrap();
        assert!(
            s.recovery.retried_gets > 0 || s.recovery.dropped_completions > 0,
            "a 30% drop rate over 256 GETs must hit something"
        );
        assert!(s.recovery.recovery_latency_ns > 0);
        assert!(
            s.makespan_ns() > base.makespan_ns(),
            "recovery must cost time: {} vs {}",
            s.makespan_ns(),
            base.makespan_ns()
        );
        // Determinism under faults.
        let mut again = small_cluster();
        again.install_faults(FaultSchedule::derive(&spec, 2));
        assert_eq!(s, GpuSim::run(&mut again, &k, &mut NoPaging).unwrap());
    }

    #[test]
    fn degraded_link_window_shows_up_in_recovery_stats() {
        use mgg_fault::{FaultSchedule, LinkFaultWindow};
        let ops = vec![WarpOp::RemoteGet { peer: 1, bytes: 8_192, nbi: false }];
        let k = Uniform {
            launch: KernelLaunch { blocks: 8, warps_per_block: 4, smem_per_block: 0 },
            ops,
        };
        let mut healthy = small_cluster();
        let base = GpuSim::run(&mut healthy, &k, &mut NoPaging).unwrap();
        let mut faulty = small_cluster();
        faulty.install_faults(FaultSchedule::link_outage(
            2,
            1,
            LinkFaultWindow { start_ns: 0, end_ns: u64::MAX, bw_multiplier: 0.25, jitter_ns: 5 },
        ));
        let s = GpuSim::run(&mut faulty, &k, &mut NoPaging).unwrap();
        assert!(s.recovery.degraded_transfers > 0);
        assert!(s.makespan_ns() > base.makespan_ns());
    }

    #[test]
    fn dead_gpu_halts_and_the_run_terminates() {
        use mgg_fault::FaultSchedule;
        let ops = vec![
            WarpOp::compute(5_000),
            WarpOp::RemoteGet { peer: 1, bytes: 1_024, nbi: true },
            WarpOp::compute(5_000),
            WarpOp::WaitRemote,
            WarpOp::compute(5_000),
        ];
        let k = Uniform {
            launch: KernelLaunch { blocks: 8, warps_per_block: 4, smem_per_block: 0 },
            ops,
        };
        let mut c = small_cluster();
        c.install_faults(FaultSchedule::gpu_failure(2, 1, 2_000));
        let s = GpuSim::run(&mut c, &k, &mut NoPaging).unwrap();
        assert!(s.recovery.halted_warps > 0, "GPU 1's warps must halt");
        // The dead GPU stops at its death instant.
        assert_eq!(s.per_gpu[1].finish_ns, 2_000);
        // The survivor still finishes, paying dead-peer timeouts for GETs
        // issued after the death.
        assert!(s.per_gpu[0].finish_ns > 2_000);
        assert!(s.recovery.dead_peer_gets > 0);
        // Determinism under permanent faults.
        let mut again = small_cluster();
        again.install_faults(FaultSchedule::gpu_failure(2, 1, 2_000));
        assert_eq!(s, GpuSim::run(&mut again, &k, &mut NoPaging).unwrap());
    }

    #[test]
    fn death_at_time_zero_halts_everything_on_that_gpu() {
        use mgg_fault::FaultSchedule;
        let k = Uniform {
            launch: KernelLaunch { blocks: 4, warps_per_block: 4, smem_per_block: 0 },
            ops: vec![WarpOp::compute(1_000)],
        };
        let mut c = small_cluster();
        c.install_faults(FaultSchedule::gpu_failure(2, 0, 0));
        let s = GpuSim::run(&mut c, &k, &mut NoPaging).unwrap();
        assert_eq!(s.per_gpu[0].finish_ns, 0);
        assert_eq!(s.per_gpu[0].warps, 0, "no warp may retire on a GPU dead at t=0");
        assert!(s.recovery.halted_warps > 0);
        assert_eq!(s.per_gpu[1].warps, 16);
    }

    #[test]
    fn dead_peer_get_completes_by_the_bounded_timeout() {
        use mgg_fault::FaultSchedule;
        // A sync GET to a dead peer: completes at overhead + timeout.
        let ops = vec![WarpOp::RemoteGet { peer: 1, bytes: 4_096, nbi: false }];
        let k = Uniform {
            launch: KernelLaunch { blocks: 1, warps_per_block: 1, smem_per_block: 0 },
            ops,
        };
        let mut c = small_cluster();
        let overhead = c.ic.request_overhead_ns;
        c.install_faults(FaultSchedule::gpu_failure(2, 1, 0));
        let s = GpuSim::run(&mut c, &k, &mut NoPaging).unwrap();
        assert_eq!(s.per_gpu[0].finish_ns, overhead + PEER_DEATH_TIMEOUT_NS);
        assert_eq!(s.recovery.dead_peer_gets, 1);
        // No wire traffic flowed to or from the dead peer.
        assert_eq!(s.traffic.remote_bytes(), 0);
    }

    #[test]
    fn cache_hit_is_cheaper_than_the_fabric() {
        // The same bytes as a hit joined by WaitRemote vs a GET joined the
        // same way: the hit must be strictly faster (no request overhead,
        // higher bandwidth) and must leave the fabric untouched.
        let bytes = 64 * 512;
        let mk = |ops: Vec<WarpOp>| Uniform {
            launch: KernelLaunch { blocks: 1, warps_per_block: 1, smem_per_block: 0 },
            ops,
        };
        let mut c = small_cluster();
        let hit = GpuSim::run(
            &mut c,
            &mk(vec![WarpOp::CacheHit { bytes }, WarpOp::WaitRemote]),
            &mut NoPaging,
        )
        .unwrap();
        assert_eq!(hit.traffic.remote_bytes(), 0, "a hit must not touch the fabric");
        let mut c2 = small_cluster();
        let miss = GpuSim::run(
            &mut c2,
            &mk(vec![WarpOp::RemoteGet { peer: 1, bytes, nbi: true }, WarpOp::WaitRemote]),
            &mut NoPaging,
        )
        .unwrap();
        assert!(
            hit.makespan_ns() < miss.makespan_ns(),
            "hit ({}) must beat remote miss ({})",
            hit.makespan_ns(),
            miss.makespan_ns()
        );
    }

    #[test]
    fn global_write_is_posted() {
        // A write charges the HBM channel but must not stall the warp: a
        // compute op after the write starts immediately.
        let mk = |ops: Vec<WarpOp>| Uniform {
            launch: KernelLaunch { blocks: 1, warps_per_block: 1, smem_per_block: 0 },
            ops,
        };
        let mut c = small_cluster();
        let plain = GpuSim::run(&mut c, &mk(vec![WarpOp::compute(1_410)]), &mut NoPaging)
            .unwrap()
            .makespan_ns();
        let mut c2 = small_cluster();
        let written = GpuSim::run(
            &mut c2,
            &mk(vec![WarpOp::GlobalWrite { bytes: 1 << 20 }, WarpOp::compute(1_410)]),
            &mut NoPaging,
        )
        .unwrap();
        assert!(written.traffic.hbm[0].bytes >= 1 << 20, "the write is charged");
        assert_eq!(plain, written.makespan_ns(), "a posted write must not delay the warp");
    }

    #[test]
    fn cache_hit_is_traced() {
        let k = Uniform {
            launch: KernelLaunch { blocks: 1, warps_per_block: 1, smem_per_block: 0 },
            ops: vec![WarpOp::CacheHit { bytes: 2_048 }, WarpOp::WaitRemote, WarpOp::compute(100)],
        };
        let mut c = small_cluster();
        let (_, events) = GpuSim::run_traced(&mut c, &k, &mut NoPaging).unwrap();
        assert!(events.iter().any(|e| e.kind == TraceKind::CacheHit));
    }

    #[test]
    fn blocks_queue_behind_residency_limit() {
        // Each block claims all 64 warp slots, so blocks on one SM must
        // serialize: many blocks take proportionally longer.
        let mk = |blocks| Uniform {
            launch: KernelLaunch { blocks, warps_per_block: 64, smem_per_block: 0 },
            ops: vec![WarpOp::compute(14_100)],
        };
        let mut c = small_cluster();
        let t1 = GpuSim::run(&mut c, &mk(108), &mut NoPaging).unwrap().makespan_ns();
        c.reset();
        let t2 = GpuSim::run(&mut c, &mk(216), &mut NoPaging).unwrap().makespan_ns();
        assert!(t2 >= 2 * t1, "t2={t2} t1={t1}");
    }

    /// Many waves of blocks with mixed traces: two blocks fit an SM (by
    /// shared memory), so about ten waves pass through each SM and the op
    /// arena is compacted many times over.
    struct Waves;

    impl KernelProgram for Waves {
        fn launch(&self, pe: usize) -> KernelLaunch {
            KernelLaunch {
                blocks: 108 * 2 * 10 + 5 + pe as u32,
                warps_per_block: 4,
                smem_per_block: 80 * 1024,
            }
        }
        fn warp_ops(&self, pe: usize, block: u32, warp: u32, out: &mut Vec<WarpOp>) {
            let mut h = ((pe as u64) << 40 | (block as u64) << 8 | warp as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let peer = (pe as u16 + 1) % 2;
            for _ in 0..1 + (h >> 61) {
                h = h.rotate_left(17).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                out.push(WarpOp::RemoteGet { peer, bytes: 256 << (h % 3), nbi: true });
                if h & 8 != 0 {
                    out.push(WarpOp::RemoteGet { peer, bytes: 512, nbi: true });
                }
                if h & 16 != 0 {
                    out.push(WarpOp::CacheHit { bytes: 1_024 });
                }
                out.push(WarpOp::GlobalRead { bytes: 2_048 });
                out.push(WarpOp::compute(200 + (h >> 40) as u32 % 900));
                out.push(WarpOp::GlobalWrite { bytes: 256 });
                out.push(WarpOp::WaitRemote);
                out.push(WarpOp::compute(150));
                if h & 32 != 0 {
                    out.push(WarpOp::GlobalWrite { bytes: 512 });
                }
                if h & 64 != 0 {
                    out.push(WarpOp::RemoteGet { peer, bytes: 256, nbi: false });
                }
                if h & 128 != 0 {
                    out.push(WarpOp::RemotePut { peer, bytes: 128 });
                }
                if h & 256 != 0 {
                    out.push(WarpOp::GlobalRead { bytes: 256 });
                }
                out.push(WarpOp::GlobalWrite { bytes: 256 });
            }
        }
    }

    /// The `KernelStats` figures the multi-wave golden pins: per GPU
    /// finish, residency, active-warp, SM-active and scheduler time, warps
    /// and blocks; then the recovery counters; then fabric and HBM traffic.
    fn wave_pins(s: &KernelStats) -> Vec<u64> {
        let mut v = Vec::new();
        for g in &s.per_gpu {
            v.extend([
                g.finish_ns,
                g.warp_residency_ns,
                g.active_warp_ns,
                g.sm_active_ns,
                g.sched_busy_ns,
                g.warps,
                g.blocks,
            ]);
        }
        let r = &s.recovery;
        v.extend([
            r.retried_gets,
            r.dropped_completions,
            r.degraded_transfers,
            r.halted_warps,
            r.dead_peer_gets,
            r.recovery_latency_ns,
        ]);
        v.extend([s.traffic.remote_bytes(), s.traffic.remote_requests()]);
        v.extend(s.traffic.hbm.iter().flat_map(|c| [c.bytes, c.requests, c.busy_ns]));
        v
    }

    #[test]
    fn multi_wave_golden() {
        use mgg_fault::{FaultSchedule, FaultSpec};
        let run = |faults: Option<FaultSchedule>| {
            let mut c = small_cluster();
            if let Some(f) = faults {
                c.install_faults(f);
            }
            wave_pins(&GpuSim::run(&mut c, &Waves, &mut NoPaging).unwrap())
        };
        assert_eq!(
            run(None),
            [
                695_370, 363_385_057, 31_395_398, 22_103_255, 30_913_692, 8_660, 2_165, 694_511,
                365_274_961, 31_311_300, 22_172_393, 30_957_230, 8_664, 2_166, 0, 0, 0, 0, 0, 0,
                81_591_424, 195_001, 175_360_128, 272_618, 686_200, 175_733_760, 273_262, 687_789,
            ]
        );
        // A straggler, degraded links and dropped GETs.
        let spec = FaultSpec {
            seed: 11,
            straggler: 1.7,
            link_degrade: 0.4,
            drop_rate: 0.02,
            ..FaultSpec::quiet()
        };
        assert_eq!(
            run(Some(FaultSchedule::derive(&spec, 2))),
            [
                3_243_366, 1_718_076_078, 46_898_284, 34_886_448, 46_407_336, 8_660, 2_165,
                3_239_289, 1_716_798_384, 31_284_545, 23_497_523, 30_957_230, 8_664, 2_166,
                3_038, 2_335, 1_904, 0, 0, 9_545_771, 83_050_368, 198_039, 176_065_408, 274_077,
                689_685, 176_487_424, 274_841, 691_552,
            ]
        );
        // GPU 1 dies in its second wave; GPU 0 runs on against a dead peer.
        assert_eq!(
            run(Some(FaultSchedule::gpu_failure(2, 1, 40_000))),
            [
                1_843_518, 638_453_943, 31_192_485, 22_035_956, 30_913_692, 8_660, 2_165, 40_000,
                29_420_640, 2_145_317, 1_474_645, 2_011_155, 306, 0, 0, 0, 0, 558, 72_918,
                364_590_000, 4_996_096, 11_434, 137_308_544, 181_498, 473_372, 11_603_712,
                17_142, 43_611,
            ]
        );
    }

    #[test]
    fn multi_wave_arena_holds_only_resident_ops() {
        // Spent ops are reclaimed as waves retire, so the arena this
        // thread keeps after the run is far smaller than the whole
        // kernel's trace.
        let mut c = small_cluster();
        GpuSim::run(&mut c, &Waves, &mut NoPaging).unwrap();
        for pe in 0..2 {
            let launch = Waves.launch(pe);
            let mut ops = Vec::new();
            for b in 0..launch.blocks {
                for w in 0..launch.warps_per_block {
                    Waves.warp_ops(pe, b, w, &mut ops);
                }
            }
            let kept = SIM_SCRATCH.with(|s| s.borrow().arenas[pe].capacity());
            assert!(kept < ops.len() / 2, "GPU {pe}: arena kept {kept} of {} ops", ops.len());
        }
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;
    use crate::cluster::NoPaging;
    use crate::spec::ClusterSpec;

    /// A kernel whose warps run arbitrary (sanitized) op traces.
    struct FuzzKernel {
        launch: KernelLaunch,
        traces: Vec<Vec<WarpOp>>,
    }

    impl KernelProgram for FuzzKernel {
        fn launch(&self, _pe: usize) -> KernelLaunch {
            self.launch
        }
        fn warp_ops(&self, pe: usize, block: u32, warp: u32, out: &mut Vec<WarpOp>) {
            let idx = (block * self.launch.warps_per_block + warp) as usize;
            let Some(trace) = self.traces.get(idx % self.traces.len().max(1)) else { return };
            out.extend(trace.iter().map(|&op| match op {
                // A PE never GETs from itself.
                WarpOp::RemoteGet { peer, bytes, nbi } if peer as usize == pe => {
                    WarpOp::RemoteGet { peer: (peer + 1) % 3, bytes, nbi }
                }
                WarpOp::RemotePut { peer, bytes } if peer as usize == pe => {
                    WarpOp::RemotePut { peer: (peer + 1) % 3, bytes }
                }
                other => other,
            }));
        }
    }

    fn arb_op() -> impl Strategy<Value = WarpOp> {
        prop_oneof![
            (1u32..5_000).prop_map(|cycles| WarpOp::Compute { cycles }),
            (1u32..100_000).prop_map(|bytes| WarpOp::GlobalRead { bytes }),
            (1u32..100_000).prop_map(|bytes| WarpOp::GlobalWrite { bytes }),
            (0u16..3, 1u32..10_000, proptest::bool::ANY)
                .prop_map(|(peer, bytes, nbi)| WarpOp::RemoteGet { peer, bytes, nbi }),
            (0u16..3, 1u32..10_000)
                .prop_map(|(peer, bytes)| WarpOp::RemotePut { peer, bytes }),
            Just(WarpOp::WaitRemote),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any sanitized trace must terminate with consistent accounting
        /// and run deterministically.
        #[test]
        fn random_traces_terminate_consistently(
            traces in proptest::collection::vec(
                proptest::collection::vec(arb_op(), 0..12), 1..6),
            blocks in 0u32..20,
            wpb in 1u32..8,
        ) {
            let kernel = FuzzKernel {
                launch: KernelLaunch { blocks, warps_per_block: wpb, smem_per_block: 256 },
                traces,
            };
            let run = || {
                let mut cluster = Cluster::new(ClusterSpec::dgx_a100(3));
                GpuSim::run(&mut cluster, &kernel, &mut NoPaging).expect("valid launch")
            };
            let stats = run();
            for g in &stats.per_gpu {
                prop_assert_eq!(g.warps, (blocks * wpb) as u64);
                prop_assert_eq!(g.blocks, blocks as u64);
            }
            let occ = stats.achieved_occupancy();
            prop_assert!((0.0..=1.0).contains(&occ), "occupancy {occ}");
            let util = stats.sm_utilization();
            prop_assert!((0.0..=1.0).contains(&util), "utilization {util}");
            // Determinism.
            prop_assert_eq!(stats, run());
        }
    }
}

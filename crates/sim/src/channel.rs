//! Bandwidth-latency pipe model shared by every memory and link resource.

use mgg_fault::LinkFaultWindow;

use crate::spec::LinkSpec;
use crate::time::SimTime;

/// A serialized transfer resource with fixed latency and finite bandwidth.
///
/// A transfer of `b` bytes submitted at time `t` occupies the channel for
/// `b / bandwidth` after any already-queued occupancy drains, and the data
/// arrives one `latency` after its occupancy ends:
///
/// ```text
/// start      = max(t, busy_until)
/// busy_until = start + b / bw
/// done       = busy_until + latency
/// ```
///
/// This is the standard "pipe" approximation: concurrent requesters contend
/// for bandwidth (their occupancies serialize) while latency overlaps.
///
/// # Examples
///
/// ```
/// use mgg_sim::BandwidthChannel;
///
/// let mut hbm = BandwidthChannel::new(100.0, 500); // 100 GB/s, 500 ns
/// let first = hbm.transfer(0, 10_000);             // 100 ns occupancy
/// let second = hbm.transfer(0, 10_000);            // queues behind it
/// assert_eq!(first, 600);
/// assert_eq!(second, 700);
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthChannel {
    /// Bandwidth in bytes per nanosecond (numerically equal to GB/s).
    bytes_per_ns: f64,
    latency_ns: u64,
    /// Fixed occupancy charged per transfer on top of `bytes / bw`,
    /// modeling transaction overhead: DRAM row activation and command
    /// slots for memory, packet headers and flow-control credits for
    /// fabric ports. This is what makes many small transfers cost more
    /// than one large transfer of the same total bytes.
    per_request_ns: f64,
    /// Time at which all accepted occupancy has drained.
    busy_until: SimTime,
    /// Fractional occupancy carry so that many small transfers do not each
    /// round up and overstate contention.
    carry_frac_ns: f64,
    bytes_total: u64,
    requests: u64,
    /// Total occupancy accepted, for utilization reporting.
    busy_ns_total: u64,
    /// Injected degradation windows (empty on a healthy channel). When
    /// empty — the default — `transfer` follows exactly the fault-free
    /// arithmetic, so installing no faults is bit-identical to a build
    /// without the fault layer.
    faults: Vec<LinkFaultWindow>,
    /// Transfers that started inside a degradation window.
    degraded_requests: u64,
}

impl BandwidthChannel {
    /// Creates a channel from bandwidth (GB/s) and latency (ns).
    pub fn new(bw_gbps: f64, latency_ns: u64) -> Self {
        assert!(bw_gbps > 0.0, "bandwidth must be positive");
        BandwidthChannel {
            bytes_per_ns: bw_gbps,
            latency_ns,
            per_request_ns: 0.0,
            busy_until: 0,
            carry_frac_ns: 0.0,
            bytes_total: 0,
            requests: 0,
            busy_ns_total: 0,
            faults: Vec::new(),
            degraded_requests: 0,
        }
    }

    /// Sets the fixed per-transfer occupancy (builder style).
    pub fn with_request_cost(mut self, per_request_ns: f64) -> Self {
        assert!(per_request_ns >= 0.0, "request cost must be non-negative");
        self.per_request_ns = per_request_ns;
        self
    }

    /// Creates a channel from a [`LinkSpec`] (ignores the request overhead,
    /// which callers charge themselves since it is spent on the requester's
    /// side, not on the wire).
    pub fn from_link(link: &LinkSpec) -> Self {
        Self::new(link.bw_gbps, link.latency_ns)
    }

    /// Submits a transfer of `bytes` at `now`; returns the completion time.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = self.busy_until.max(now);
        let mut extra_latency = 0u64;
        let occupancy = if self.faults.is_empty() {
            bytes as f64 / self.bytes_per_ns + self.per_request_ns + self.carry_frac_ns
        } else {
            let (mult, jitter) = self.fault_state(start);
            if mult < 1.0 || jitter > 0 {
                self.degraded_requests += 1;
                extra_latency = jitter;
            }
            bytes as f64 / (self.bytes_per_ns * mult) + self.per_request_ns + self.carry_frac_ns
        };
        // `occupancy` is finite and non-negative (bandwidth > 0 is
        // asserted, fault multipliers lie in (0, 1]), so truncation is
        // `floor` — without the libm call the baseline target cannot
        // inline.
        let occ_ns = occupancy as u64;
        self.carry_frac_ns = occupancy - occ_ns as f64;
        self.busy_until = start + occ_ns;
        self.bytes_total += bytes;
        self.requests += 1;
        self.busy_ns_total += occ_ns;
        self.busy_until + self.latency_ns + extra_latency
    }

    /// Bandwidth multiplier and latency jitter in effect at time `t`.
    fn fault_state(&self, t: SimTime) -> (f64, u64) {
        for w in &self.faults {
            if w.start_ns <= t && t < w.end_ns {
                return (w.bw_multiplier, w.jitter_ns);
            }
        }
        (1.0, 0)
    }

    /// Installs degradation windows (appending to any already present).
    pub fn install_faults(&mut self, windows: &[LinkFaultWindow]) {
        self.faults.extend_from_slice(windows);
        self.faults.sort_by_key(|w| (w.start_ns, w.end_ns));
    }

    /// Removes all installed degradation windows.
    pub fn clear_faults(&mut self) {
        self.faults.clear();
    }

    /// Transfers that started inside a degradation window so far.
    pub fn degraded_requests(&self) -> u64 {
        self.degraded_requests
    }

    /// Total bytes accepted so far.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }

    /// Number of transfers accepted so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Total nanoseconds of occupancy accepted so far.
    pub fn busy_ns_total(&self) -> u64 {
        self.busy_ns_total
    }

    /// Fixed latency of this channel.
    pub fn latency_ns(&self) -> u64 {
        self.latency_ns
    }

    /// Resets queueing state and counters (new simulation, same wiring —
    /// installed fault windows persist, like the physical link state they
    /// model).
    pub fn reset(&mut self) {
        self.busy_until = 0;
        self.carry_frac_ns = 0.0;
        self.bytes_total = 0;
        self.requests = 0;
        self.busy_ns_total = 0;
        self.degraded_requests = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_transfer_latency_plus_occupancy() {
        let mut ch = BandwidthChannel::new(100.0, 500); // 100 B/ns
        let done = ch.transfer(0, 10_000); // 100 ns occupancy
        assert_eq!(done, 100 + 500);
    }

    #[test]
    fn back_to_back_transfers_serialize() {
        let mut ch = BandwidthChannel::new(100.0, 500);
        let d1 = ch.transfer(0, 10_000);
        let d2 = ch.transfer(0, 10_000);
        assert_eq!(d1, 600);
        assert_eq!(d2, 700); // second waits for first's occupancy
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let mut ch = BandwidthChannel::new(100.0, 0);
        let _ = ch.transfer(0, 1_000); // busy until 10
        let d = ch.transfer(1_000, 1_000); // starts at 1000, not 10
        assert_eq!(d, 1_010);
    }

    #[test]
    fn small_transfers_accumulate_fractions() {
        // 1000 transfers of 1 byte at 10 B/ns = 100 ns of occupancy total,
        // not 0 (floor) and not 1000 (ceil).
        let mut ch = BandwidthChannel::new(10.0, 0);
        for _ in 0..1_000 {
            let _ = ch.transfer(0, 1);
        }
        let occ = ch.busy_ns_total();
        assert!((99..=100).contains(&occ), "occupancy {occ} out of range");
    }

    #[test]
    fn counters_track() {
        let mut ch = BandwidthChannel::new(1.0, 1);
        let _ = ch.transfer(0, 5);
        let _ = ch.transfer(0, 7);
        assert_eq!(ch.bytes_total(), 12);
        assert_eq!(ch.requests(), 2);
        ch.reset();
        assert_eq!(ch.bytes_total(), 0);
        assert_eq!(ch.requests(), 0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = BandwidthChannel::new(0.0, 10);
    }

    #[test]
    fn fault_window_halves_bandwidth_inside_only() {
        let window = LinkFaultWindow {
            start_ns: 1_000,
            end_ns: 2_000,
            bw_multiplier: 0.5,
            jitter_ns: 0,
        };
        let mut faulty = BandwidthChannel::new(100.0, 500);
        faulty.install_faults(&[window]);
        let mut healthy = BandwidthChannel::new(100.0, 500);
        // Before the window: identical.
        assert_eq!(faulty.transfer(0, 10_000), healthy.transfer(0, 10_000));
        assert_eq!(faulty.degraded_requests(), 0);
        // Inside the window: occupancy doubles.
        let f = faulty.transfer(1_200, 10_000);
        let h = healthy.transfer(1_200, 10_000);
        assert_eq!(f, h + 100, "0.5x bandwidth doubles the 100 ns occupancy");
        assert_eq!(faulty.degraded_requests(), 1);
        // After the window: back to parity (carry state now differs by the
        // doubled occupancy, so compare fresh channels).
        let mut faulty2 = BandwidthChannel::new(100.0, 500);
        faulty2.install_faults(&[window]);
        let mut healthy2 = BandwidthChannel::new(100.0, 500);
        assert_eq!(faulty2.transfer(5_000, 10_000), healthy2.transfer(5_000, 10_000));
    }

    #[test]
    fn fault_jitter_adds_latency() {
        let mut ch = BandwidthChannel::new(100.0, 500);
        ch.install_faults(&[LinkFaultWindow {
            start_ns: 0,
            end_ns: 10_000,
            bw_multiplier: 1.0,
            jitter_ns: 25,
        }]);
        assert_eq!(ch.transfer(0, 10_000), 100 + 500 + 25);
        assert_eq!(ch.degraded_requests(), 1);
    }

    #[test]
    fn empty_fault_list_is_bit_identical() {
        let mut plain = BandwidthChannel::new(37.0, 113).with_request_cost(1.5);
        let mut armed = BandwidthChannel::new(37.0, 113).with_request_cost(1.5);
        armed.install_faults(&[]);
        for i in 0..100u64 {
            assert_eq!(plain.transfer(i * 13, i * 7 + 1), armed.transfer(i * 13, i * 7 + 1));
        }
        assert_eq!(plain.busy_ns_total(), armed.busy_ns_total());
    }

    #[test]
    fn reset_keeps_windows_but_clears_degraded_count() {
        let mut ch = BandwidthChannel::new(100.0, 0);
        ch.install_faults(&[LinkFaultWindow {
            start_ns: 0,
            end_ns: u64::MAX,
            bw_multiplier: 0.5,
            jitter_ns: 0,
        }]);
        let _ = ch.transfer(0, 1_000);
        assert_eq!(ch.degraded_requests(), 1);
        ch.reset();
        assert_eq!(ch.degraded_requests(), 0);
        let _ = ch.transfer(0, 1_000);
        assert_eq!(ch.degraded_requests(), 1, "windows survive reset");
        ch.clear_faults();
        ch.reset();
        let _ = ch.transfer(0, 1_000);
        assert_eq!(ch.degraded_requests(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        #[test]
        fn completions_are_monotone_in_submission_order(
            transfers in proptest::collection::vec((0u64..10_000, 1u64..100_000), 1..50),
            bw in 1u32..2_000,
            latency in 0u64..5_000,
        ) {
            // Submit in non-decreasing time order; completions must also be
            // non-decreasing (the channel is FIFO).
            let mut ch = BandwidthChannel::new(bw as f64, latency);
            let mut times: Vec<u64> = transfers.iter().map(|&(t, _)| t).collect();
            times.sort_unstable();
            let mut last = 0;
            for (&now, &(_, bytes)) in times.iter().zip(&transfers) {
                let done = ch.transfer(now, bytes);
                prop_assert!(done >= last, "completion went backwards");
                prop_assert!(done >= now + latency, "faster than latency allows");
                last = done;
            }
        }

        #[test]
        fn occupancy_accounts_for_all_bytes(
            sizes in proptest::collection::vec(1u64..1_000_000, 1..60),
            bw in 1u32..4_000,
        ) {
            let mut ch = BandwidthChannel::new(bw as f64, 0);
            for &b in &sizes {
                let _ = ch.transfer(0, b);
            }
            let total: u64 = sizes.iter().sum();
            let ideal = total as f64 / bw as f64;
            let got = ch.busy_ns_total() as f64;
            // Fractional carry keeps the error within one nanosecond per
            // accepted transfer.
            prop_assert!((got - ideal).abs() <= sizes.len() as f64 + 1.0,
                "occupancy {got} vs ideal {ideal}");
        }

        #[test]
        fn per_request_cost_only_adds_time(
            sizes in proptest::collection::vec(1u64..100_000, 1..40),
            cost in 0u32..100,
        ) {
            let mut plain = BandwidthChannel::new(100.0, 10);
            let mut taxed =
                BandwidthChannel::new(100.0, 10).with_request_cost(cost as f64);
            let mut last_plain = 0;
            let mut last_taxed = 0;
            for &b in &sizes {
                last_plain = plain.transfer(0, b);
                last_taxed = taxed.transfer(0, b);
            }
            prop_assert!(last_taxed >= last_plain);
        }
    }
}

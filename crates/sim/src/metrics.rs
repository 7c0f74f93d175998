//! Counters and snapshots reported by simulation runs.

use serde::Serialize;

use crate::channel::BandwidthChannel;

/// Snapshot of one channel's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ChannelStats {
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Total requests issued (each pays the per-request cost).
    pub requests: u64,
    /// Total nanoseconds the channel cursor was occupied.
    pub busy_ns: u64,
}

impl ChannelStats {
    /// Captures the current counters of `ch`.
    pub fn snapshot(ch: &BandwidthChannel) -> Self {
        ChannelStats {
            bytes: ch.bytes_total(),
            requests: ch.requests(),
            busy_ns: ch.busy_ns_total(),
        }
    }
}

/// Fabric traffic between one ordered `(source, destination)` GPU pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PairStats {
    /// Source GPU of the transfers.
    pub src: u16,
    /// Destination GPU of the transfers.
    pub dst: u16,
    /// Payload bytes moved between the pair.
    pub bytes: u64,
    /// Requests issued between the pair.
    pub requests: u64,
}

/// Aggregate traffic snapshot across the cluster's resources.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TrafficStats {
    /// Per-GPU HBM traffic.
    pub hbm: Vec<ChannelStats>,
    /// Per-GPU interconnect ingress traffic.
    pub link_in: Vec<ChannelStats>,
    /// Per-GPU interconnect egress traffic.
    pub link_out: Vec<ChannelStats>,
    /// Shared host (PCIe) path traffic.
    pub host: ChannelStats,
    /// Per-ordered-pair fabric traffic (nonzero pairs only, sorted by
    /// `(src, dst)`). Counted once per transfer at the fabric entry point,
    /// so cube-mesh relays do not double-count.
    pub pairs: Vec<PairStats>,
}

impl TrafficStats {
    /// Total bytes that crossed the inter-GPU fabric.
    pub fn remote_bytes(&self) -> u64 {
        self.link_in.iter().map(|c| c.bytes).sum()
    }

    /// Total number of inter-GPU requests.
    pub fn remote_requests(&self) -> u64 {
        self.link_in.iter().map(|c| c.requests).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_diff() {
        let mut ch = BandwidthChannel::new(1.0, 0);
        let _ = ch.transfer(0, 100);
        let _ = ch.transfer(0, 50);
        let s = ChannelStats::snapshot(&ch);
        assert_eq!(s.bytes, 150);
        assert_eq!(s.requests, 2);
        assert_eq!(s.busy_ns, ch.busy_ns_total());
    }
}

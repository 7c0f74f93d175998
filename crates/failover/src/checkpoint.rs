//! Epoch-boundary checkpoints for failover resume.
//!
//! A checkpoint captures everything needed to resume aggregation after a
//! permanent failure without redoing finished epochs: the partition bound
//! vector (ownership ranges), the feature dimension, and the aggregated
//! feature matrix at the last epoch boundary. A FNV-1a checksum over the
//! payload guards against torn or corrupted snapshots — a restore that
//! fails validation is treated as "no checkpoint" rather than silently
//! resuming from bad state.

use serde::Serialize;

/// One epoch-boundary snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Checkpoint {
    /// Epoch this snapshot closes (resume starts at `epoch + 1`).
    pub epoch: u64,
    /// Feature dimension of `features`.
    pub dim: usize,
    /// Partition bound vector (`NodeSplit::bounds`) active at the snapshot.
    pub bounds: Vec<u32>,
    /// Aggregated features, row-major `[num_nodes x dim]`.
    pub features: Vec<f32>,
    /// FNV-1a over the payload; see [`Checkpoint::is_valid`].
    pub checksum: u64,
}

/// FNV-1a over a byte stream, seeded with the standard offset basis.
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn payload_checksum(epoch: u64, dim: usize, bounds: &[u32], features: &[f32]) -> u64 {
    let header = epoch
        .to_le_bytes()
        .into_iter()
        .chain((dim as u64).to_le_bytes());
    let bounds_bytes = bounds.iter().flat_map(|b| b.to_le_bytes());
    // Hash the exact bit patterns so restore equality is bit-equality.
    let feature_bytes = features.iter().flat_map(|f| f.to_bits().to_le_bytes());
    fnv1a(header.chain(bounds_bytes).chain(feature_bytes))
}

impl Checkpoint {
    /// Builds a checkpoint, computing its checksum.
    pub fn new(epoch: u64, dim: usize, bounds: Vec<u32>, features: Vec<f32>) -> Self {
        let checksum = payload_checksum(epoch, dim, &bounds, &features);
        Checkpoint { epoch, dim, bounds, features, checksum }
    }

    /// True when the stored checksum matches the payload.
    pub fn is_valid(&self) -> bool {
        self.checksum == payload_checksum(self.epoch, self.dim, &self.bounds, &self.features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(epoch: u64) -> Checkpoint {
        Checkpoint::new(
            epoch,
            2,
            vec![0, 4, 8],
            vec![1.0, 2.5, -0.25, 0.0, 3.5, 1.5, 0.75, -1.0],
        )
    }

    #[test]
    fn checksum_validates_and_detects_corruption() {
        let mut c = sample(3);
        assert!(c.is_valid());
        c.features[1] += 1.0;
        assert!(!c.is_valid());
    }
}

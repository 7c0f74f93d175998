//! Warp-scope request coalescing.

use crate::hash::KeySet;
use crate::CacheKey;

/// Merges duplicate in-flight GETs to the same `(PE, row)` into one fabric
/// transaction.
///
/// MGG's async schedule (Figure 7(b)) issues a warp's non-blocking GETs as
/// a batch and joins them at the next `WaitRemote`. Within that window two
/// requests for the same remote row are redundant: the second can ride on
/// the first's landing buffer instead of crossing NVLink again. The window
/// is warp-scoped — [`WarpCoalescer::begin`] opens it when the batch starts
/// issuing, and every duplicate [`WarpCoalescer::admit`] inside it is
/// reported as coalesced.
///
/// The coalescer is deliberately memoryless across windows: reuse *across*
/// batches is the cache's job (the row has landed by then and can be a
/// hit); reuse *within* a batch is coalescing (the row is still in flight).
#[derive(Debug, Default)]
pub struct WarpCoalescer {
    in_flight: KeySet,
}

impl WarpCoalescer {
    /// An empty coalescer with no open window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new in-flight window, forgetting the previous batch. The
    /// allocation is retained, so per-warp reuse is allocation-free in
    /// steady state.
    pub fn begin(&mut self) {
        self.in_flight.clear();
    }

    /// Admits a request for `key` into the current window. Returns `true`
    /// when this is the first request for the key (a real fabric
    /// transaction must be issued) and `false` when it duplicates an
    /// in-flight one (coalesced — no new transaction).
    pub fn admit(&mut self, key: CacheKey) -> bool {
        self.in_flight.insert(key.pack())
    }

    /// Distinct keys currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(pe: u16, row: u32) -> CacheKey {
        CacheKey { pe, row }
    }

    #[test]
    fn duplicates_within_a_window_coalesce() {
        let mut c = WarpCoalescer::new();
        c.begin();
        assert!(c.admit(k(1, 5)));
        assert!(!c.admit(k(1, 5)), "second request for the same row must coalesce");
        assert!(c.admit(k(2, 5)), "same row on a different PE is a different key");
        assert_eq!(c.in_flight(), 2);
    }

    #[test]
    fn windows_do_not_leak_into_each_other() {
        let mut c = WarpCoalescer::new();
        c.begin();
        assert!(c.admit(k(0, 1)));
        c.begin();
        assert!(c.admit(k(0, 1)), "a new window must forget the previous batch");
    }
}

//! Idealized baseline hardware prefetchers.
//!
//! The paper compares Voyager against spatial and temporal prefetchers,
//! all *idealized*: unbounded metadata, accessed at zero cost (Section
//! 5.1, "Baseline Prefetchers"). This crate implements each of them:
//!
//! * [`Stms`] — global-stream address correlation (Wenisch et al.),
//!   `P(addr_{t+1} | addr_t)` over the global access stream (Eq. 2).
//! * [`Isb`] — PC-localized address correlation (Jain & Lin),
//!   `P(addr_PC | addr_t)` (Eq. 3).
//! * [`Domino`] — two-address global correlation (Bakhshalipour et
//!   al.), `P(addr_{t+1} | addr_{t-1}, addr_t)` (Eq. 4).
//! * [`BestOffset`] — Michaud's offset prefetcher (spatial baseline).
//! * [`StridePc`] — a classical per-PC stride prefetcher (used in the
//!   feature-ablation experiments).
//! * [`IsbBoHybrid`] — the ISB+BO hybrid of Fig. 9, which splits the
//!   prefetch degree between the two components.
//!
//! The broader design space the paper's Section 2 surveys is also
//! implemented, for ablations and as substrates in their own right:
//! [`NextLine`] (sequential), [`Markov`] (frequency-based address
//! correlation), [`Vldp`] (variable-length delta correlation, Eq. 7),
//! [`Sms`] (spatial footprints), [`IsbStructural`] — the full MICRO
//! 2013 ISB mechanism with an explicit structural address space — and
//! [`Throttled`], a feedback-directed degree controller for any of
//! them (the dynamic counterpart of the Fig. 9 degree sweep).
//!
//! All prefetchers implement the [`Prefetcher`] trait: they observe an
//! access stream (normally the LLC-filtered stream produced by
//! `voyager-sim`) and emit prefetch candidates as cache-line numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bo;
mod domino;
mod fasthash;
mod hybrid;
mod isb;
mod isb_structural;
mod markov;
mod nextline;
mod sms;
mod stms;
mod stride;
mod throttle;
mod vldp;

pub use bo::BestOffset;
pub use domino::Domino;
pub use hybrid::IsbBoHybrid;
pub use isb::Isb;
pub use isb_structural::IsbStructural;
pub use markov::Markov;
pub use nextline::NextLine;
pub use sms::Sms;
pub use stms::Stms;
pub use stride::StridePc;
pub use throttle::Throttled;
pub use vldp::Vldp;

use voyager_trace::MemoryAccess;

/// A data prefetcher observing an access stream.
///
/// Implementations are *idealized*: metadata is unbounded and lookup is
/// free, exactly as in the paper's methodology. `access` both trains the
/// prefetcher on the new access and returns up to [`Prefetcher::degree`]
/// prefetch candidates, as cache-line numbers.
pub trait Prefetcher {
    /// Short display name (as used in the paper's figure legends).
    fn name(&self) -> &'static str;

    /// Observes `access`, updates internal state, and writes prefetch
    /// candidates into `out` (cache-line numbers, highest confidence
    /// first, at most [`Prefetcher::degree`] entries).
    ///
    /// The callee **clears `out` first**: after the call, `out` holds
    /// exactly this access's candidates. Callers on the simulation hot
    /// path reuse one scratch `Vec` across the whole run so the
    /// per-access path allocates only when a prediction burst exceeds
    /// every previous burst's capacity.
    fn access(&mut self, access: &MemoryAccess, out: &mut Vec<u64>);

    /// Convenience wrapper over [`access`](Prefetcher::access) that
    /// allocates a fresh `Vec` per call. Prefer `access` with a reused
    /// scratch buffer on hot paths.
    fn access_collect(&mut self, access: &MemoryAccess) -> Vec<u64> {
        let mut out = Vec::new();
        self.access(access, &mut out);
        out
    }

    /// Current prefetch degree (predictions per trigger access).
    fn degree(&self) -> usize;

    /// Sets the prefetch degree.
    ///
    /// # Panics
    ///
    /// Implementations panic if `degree == 0`.
    fn set_degree(&mut self, degree: usize);

    /// Estimated metadata size in bytes at the current point of the
    /// run (used by the Fig. 17 storage comparison).
    fn metadata_bytes(&self) -> usize;
}

/// The no-op prefetcher (the paper's no-prefetcher baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoPrefetcher;

impl NoPrefetcher {
    /// Creates the no-op prefetcher.
    pub fn new() -> Self {
        NoPrefetcher
    }
}

impl Prefetcher for NoPrefetcher {
    fn name(&self) -> &'static str {
        "none"
    }

    fn access(&mut self, _access: &MemoryAccess, out: &mut Vec<u64>) {
        out.clear();
    }

    fn degree(&self) -> usize {
        1
    }

    fn set_degree(&mut self, _degree: usize) {}

    fn metadata_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_prefetcher_is_silent() {
        let mut p = NoPrefetcher::new();
        assert!(p.access_collect(&MemoryAccess::new(1, 64)).is_empty());
        assert_eq!(p.metadata_bytes(), 0);
        assert_eq!(p.name(), "none");
    }

    #[test]
    fn trait_is_object_safe() {
        let mut boxed: Box<dyn Prefetcher> = Box::new(NoPrefetcher::new());
        assert!(boxed.access_collect(&MemoryAccess::new(1, 64)).is_empty());
    }

    #[test]
    fn access_clears_stale_scratch_contents() {
        let mut p = NoPrefetcher::new();
        let mut out = vec![7, 8, 9];
        p.access(&MemoryAccess::new(1, 64), &mut out);
        assert!(out.is_empty());
    }
}

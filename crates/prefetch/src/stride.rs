//! Per-PC stride prefetching (the classical IP-stride design).

use voyager_trace::MemoryAccess;

use crate::fasthash::FastMap;
use crate::Prefetcher;

#[derive(Debug, Clone, Copy)]
struct StrideEntry {
    last_line: u64,
    stride: i64,
    confidence: u8,
}

/// A classical per-PC stride prefetcher: for each load PC it tracks the
/// last address and last stride, and prefetches `line + stride` once the
/// same stride has been observed twice in a row (2-bit confidence).
///
/// This learns `P(stride_PC | stride_t)` (the paper's Eq. 6) and is used
/// in the feature/labeling ablations as the representative
/// delta-correlation hardware baseline.
#[derive(Debug, Default)]
pub struct StridePc {
    table: FastMap<u64, StrideEntry>,
    degree: usize,
}

impl StridePc {
    /// Creates a stride prefetcher with degree 1.
    pub fn new() -> Self {
        StridePc {
            table: FastMap::default(),
            degree: 1,
        }
    }
}

impl Prefetcher for StridePc {
    fn name(&self) -> &'static str {
        "stride"
    }

    fn access(&mut self, access: &MemoryAccess, out: &mut Vec<u64>) {
        out.clear();
        let line = access.line();
        let entry = self.table.entry(access.pc).or_insert(StrideEntry {
            last_line: line,
            stride: 0,
            confidence: 0,
        });
        let new_stride = line as i64 - entry.last_line as i64;
        if new_stride == entry.stride && new_stride != 0 {
            entry.confidence = (entry.confidence + 1).min(3);
        } else {
            entry.stride = new_stride;
            entry.confidence = 0;
        }
        entry.last_line = line;
        if entry.confidence >= 1 && entry.stride != 0 {
            let stride = entry.stride;
            out.extend(
                (1..=self.degree as i64).filter_map(|k| line.checked_add_signed(stride * k)),
            );
        }
    }

    fn degree(&self) -> usize {
        self.degree
    }

    fn set_degree(&mut self, degree: usize) {
        assert!(degree > 0, "degree must be positive");
        self.degree = degree;
    }

    fn metadata_bytes(&self) -> usize {
        self.table.len() * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(pc: u64, line: u64) -> MemoryAccess {
        MemoryAccess::new(pc, line * 64)
    }

    #[test]
    fn detects_constant_stride_after_confirmation() {
        let mut p = StridePc::new();
        assert!(p.access_collect(&acc(1, 100)).is_empty());
        assert!(
            p.access_collect(&acc(1, 104)).is_empty(),
            "first stride unconfirmed"
        );
        assert_eq!(
            p.access_collect(&acc(1, 108)),
            vec![112],
            "stride 4 confirmed"
        );
    }

    #[test]
    fn strides_are_per_pc() {
        let mut p = StridePc::new();
        for i in 0..4 {
            p.access_collect(&acc(1, 100 + 4 * i));
            p.access_collect(&acc(2, 900 - 2 * i));
        }
        assert_eq!(p.access_collect(&acc(1, 116)), vec![120]);
        assert_eq!(p.access_collect(&acc(2, 892)), vec![890]);
    }

    #[test]
    fn irregular_pc_stays_silent() {
        let mut p = StridePc::new();
        for l in [5u64, 900, 17, 33_000, 2] {
            assert!(p.access_collect(&acc(3, l)).is_empty());
        }
    }

    #[test]
    fn degree_extends_stride_run() {
        let mut p = StridePc::new();
        p.set_degree(4);
        p.access_collect(&acc(1, 10));
        p.access_collect(&acc(1, 11));
        assert_eq!(p.access_collect(&acc(1, 12)), vec![13, 14, 15, 16]);
    }
}

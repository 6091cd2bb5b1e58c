//! Iterates a field whose type is the alias of another file.

pub(crate) struct Recent {
    blocks: crate::fasthash::LineMap<u64, u64>,
}

impl Recent {
    pub(crate) fn members(&self) -> u32 {
        self.blocks.values().map(|b| b.count_ones()).sum()
    }
}

//! The Translation Path Register (TPreg).
//!
//! Each page-table walker carries one 16-byte register holding the L4/L3/L2
//! entries of its most recent walk, tagged by the corresponding virtual-address
//! indices (a single-entry, Intel-TPC-style translation path cache,
//! Section IV-C). When a new walk's upper indices match the register, the
//! walker skips reading those levels from memory, which is where the paper's
//! 2.5×+ reduction in walk-invoked memory transactions comes from.

use serde::Serialize;

use neummu_vmem::PathTag;

/// How much of a walk's upper path matched the register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PathMatch {
    /// The L4 index matched.
    pub l4: bool,
    /// The L4 and L3 indices matched.
    pub l3: bool,
    /// The L4, L3 and L2 indices all matched.
    pub l2: bool,
}

impl PathMatch {
    /// Number of upper page-table levels (out of L4/L3/L2) whose memory reads
    /// can be skipped.
    #[must_use]
    pub fn skippable_levels(&self) -> u32 {
        u32::from(self.l4) + u32::from(self.l3) + u32::from(self.l2)
    }

    /// A miss on every level.
    #[must_use]
    pub fn miss() -> Self {
        PathMatch {
            l4: false,
            l3: false,
            l2: false,
        }
    }
}

/// A single-entry translation path register.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TranslationPathRegister {
    tag: Option<PathTag>,
}

impl TranslationPathRegister {
    /// Creates an empty (invalid) register.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Compares a new walk's path tag against the register.
    ///
    /// Matching is hierarchical (as in a translation path cache): the L3 entry
    /// is only usable if the L4 index also matches, and the L2 entry only if
    /// L4 and L3 match.
    #[must_use]
    pub fn probe(&self, tag: PathTag) -> PathMatch {
        match self.tag {
            None => PathMatch::miss(),
            Some(held) => {
                let l4 = held.l4 == tag.l4;
                let l3 = l4 && held.l3 == tag.l3;
                let l2 = l3 && held.l2 == tag.l2;
                PathMatch { l4, l3, l2 }
            }
        }
    }

    /// Updates the register with the path of the walk that just completed.
    pub fn fill(&mut self, tag: PathTag) {
        self.tag = Some(tag);
    }

    /// Invalidates the register (page-table update / TLB shootdown).
    pub fn invalidate(&mut self) {
        self.tag = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neummu_vmem::VirtAddr;

    fn tag(l4: u64, l3: u64, l2: u64) -> PathTag {
        PathTag::of(VirtAddr::new((l4 << 39) | (l3 << 30) | (l2 << 21)))
    }

    #[test]
    fn empty_register_misses() {
        let reg = TranslationPathRegister::new();
        assert_eq!(reg.probe(tag(1, 2, 3)), PathMatch::miss());
        assert_eq!(PathMatch::miss().skippable_levels(), 0);
    }

    #[test]
    fn full_match_skips_three_levels() {
        let mut reg = TranslationPathRegister::new();
        reg.fill(tag(1, 2, 3));
        let m = reg.probe(tag(1, 2, 3));
        assert!(m.l4 && m.l3 && m.l2);
        assert_eq!(m.skippable_levels(), 3);
    }

    #[test]
    fn matching_is_hierarchical() {
        let mut reg = TranslationPathRegister::new();
        reg.fill(tag(1, 2, 3));
        // Same L4/L3, different L2: can skip two levels.
        let m = reg.probe(tag(1, 2, 9));
        assert!(m.l4 && m.l3 && !m.l2);
        assert_eq!(m.skippable_levels(), 2);
        // Different L4: nothing can be skipped, even though L3/L2 match
        // numerically.
        let m = reg.probe(tag(7, 2, 3));
        assert_eq!(m, PathMatch::miss());
    }

    #[test]
    fn fill_replaces_and_invalidate_clears() {
        let mut reg = TranslationPathRegister::new();
        reg.fill(tag(1, 1, 1));
        reg.fill(tag(2, 2, 2));
        assert_eq!(reg.probe(tag(1, 1, 1)), PathMatch::miss());
        assert_eq!(reg.probe(tag(2, 2, 2)).skippable_levels(), 3);
        reg.invalidate();
        assert_eq!(reg.probe(tag(2, 2, 2)), PathMatch::miss());
    }

    #[test]
    fn consecutive_pages_share_paths_until_a_2mb_boundary() {
        // Pages within the same 2 MB region share the full path; crossing the
        // boundary loses only the L2 component.
        let mut reg = TranslationPathRegister::new();
        let page_a = VirtAddr::new(0x4000_0000);
        let page_b = page_a.add(4096);
        let page_c = page_a.add(2 << 20);
        reg.fill(PathTag::of(page_a));
        assert_eq!(reg.probe(PathTag::of(page_b)).skippable_levels(), 3);
        assert_eq!(reg.probe(PathTag::of(page_c)).skippable_levels(), 2);
    }
}

//! Address-space identifiers (ASIDs).
//!
//! NeuMMU as published models a single unified address space per NPU. A
//! serving deployment, however, time-shares one NPU between many models and
//! users; every tenant then owns a private page table, and all shared
//! translation state (the IOTLB, the pending-translation scoreboard, the
//! per-walker merge buffers) must be *tagged* so that one tenant's entries
//! can neither answer nor evict-by-aliasing another tenant's requests.
//!
//! [`Asid`] is that tag: a small integer identifying one translation context.
//! Callers number their tenants densely from zero, so downstream per-tenant
//! accounting can use the raw ASID as a vector index.

use std::fmt;

use serde::Serialize;

/// An address-space identifier: tags translation state (IOTLB entries, PTS
/// keys, per-tenant counters) with the tenant context that owns it.
///
/// The default/zero ASID is [`Asid::GLOBAL`], the single-tenant context every
/// untagged legacy entry point uses — a single-tenant run through the tagged
/// structures is cycle-identical to the pre-ASID model.
///
/// # Example
///
/// ```
/// use neummu_vmem::Asid;
///
/// let tenant = Asid::new(3);
/// assert_eq!(tenant.raw(), 3);
/// assert!(!tenant.is_global());
/// assert!(Asid::GLOBAL.is_global());
/// assert_eq!(Asid::default(), Asid::GLOBAL);
/// assert_eq!(tenant.to_string(), "asid:3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Asid(u16);

impl Asid {
    /// The single-tenant (legacy) context. Untagged translation entry points
    /// operate on this ASID.
    pub const GLOBAL: Asid = Asid(0);

    /// Creates an ASID from its raw value.
    #[must_use]
    pub const fn new(raw: u16) -> Self {
        Asid(raw)
    }

    /// Raw numeric value.
    #[must_use]
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// Raw value widened for use as a vector index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// True for the single-tenant [`Asid::GLOBAL`] context.
    #[must_use]
    pub const fn is_global(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Asid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asid:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        assert_eq!(Asid::GLOBAL.to_string(), "asid:0");
        assert_eq!(Asid::new(512).index(), 512);
    }
}

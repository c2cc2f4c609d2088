//! Errors raised by the guest-memory substrate.

use crate::memory::Gpa;
use std::fmt;

/// Failures of guest-memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// The access `[gpa, gpa+len)` falls (partly) outside the address space.
    OutOfBounds {
        /// Start of the faulting access.
        gpa: Gpa,
        /// Length of the faulting access in bytes.
        len: usize,
        /// Size of the address space in bytes.
        size: u64,
    },
    /// A DMA touched a page that was not pinned.
    NotPinned {
        /// The unpinned page's base address.
        page_base: Gpa,
    },
    /// The allocator ran out of guest-physical space.
    OutOfMemory {
        /// Pages requested.
        requested_pages: u64,
        /// Pages remaining.
        available_pages: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { gpa, len, size } => write!(
                f,
                "guest-physical access out of bounds: [{gpa:?}, +{len}) in {size}-byte space"
            ),
            MemError::NotPinned { page_base } => {
                write!(f, "DMA to unpinned page at {page_base:?}")
            }
            MemError::OutOfMemory {
                requested_pages,
                available_pages,
            } => write!(
                f,
                "guest memory exhausted: requested {requested_pages} pages, {available_pages} free"
            ),
        }
    }
}

impl std::error::Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MemError::OutOfBounds {
            gpa: Gpa::new(4096),
            len: 8,
            size: 4096,
        };
        let msg = format!("{e}");
        assert!(msg.contains("out of bounds"));
        let e = MemError::NotPinned {
            page_base: Gpa::new(0),
        };
        assert!(format!("{e}").contains("unpinned"));
    }
}

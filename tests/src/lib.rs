//! Cross-crate integration and property tests for the SOL reproduction.
//!
//! The actual tests live in `tests/tests/`; this library only exists to make
//! the directory a workspace member.

#![forbid(unsafe_code)]

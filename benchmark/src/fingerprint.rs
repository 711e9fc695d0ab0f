//! `sim_fingerprint`: one number for everything a fleet run simulated.
//!
//! The repo holds no hardware reference data, so the benchmark reports no
//! accuracy figure. What it can pin is that a change meant only to speed the
//! simulator up leaves every simulated statistic identical: the fingerprint
//! is a 64-bit FNV-1a over the `Debug` rendering of the whole report — roles,
//! metrics, placement, learning, trust, epochs, and per node the seed,
//! lifecycle, trust record, agent stats, metrics and workloads — with every
//! `mem_bytes` field zeroed first, because host memory is a cost the
//! benchmark measures, not a simulated outcome.

use std::fmt::Write;

use sol_core::prelude::FleetReport;

/// FNV-1a, fed straight from the `Debug` formatter so a 2048-node report is
/// never materialized as one string.
struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &byte in s.as_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Fingerprints a report's simulated statistics, zeroing its `mem_bytes`
/// fields in place (read them before calling this).
pub fn sim_fingerprint(report: &mut FleetReport) -> u64 {
    report.mem_bytes_per_node = 0;
    for node in &mut report.nodes {
        node.mem_bytes = 0;
    }
    let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
    write!(hash, "{report:?}").expect("hashing never fails");
    hash.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
            h.write_str(s).unwrap();
            h.0
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }
}

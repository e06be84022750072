//! Canonical content addresses for packing jobs.
//!
//! A job's address is the checkpoint-fingerprint of its *resolved, then
//! canonicalized* parameters: the submitted YAML is parsed into
//! [`PackingParams`] (so key order, comments, quoting style and spelled-out
//! defaults all collapse into one struct value), the target count is
//! resolved from the container the same way the runner resolves it, and
//! perf-only knobs that are proven not to change the packed bytes never
//! reach the hash:
//!
//! * `neighbor.strategy` — every strategy sums contacts in index order and
//!   packs bitwise-identical bytes (DESIGN.md §9), so the fingerprint
//!   leaves the neighbor settings out and `verlet`/`naive` spellings of
//!   one job coalesce;
//! * `params.threads` never reaches [`PackingParams`] at all, so thread
//!   counts coalesce for free.
//!
//! Everything that *can* change the artifact — seed, PSD, learning-rate
//! schedule, acceptance thresholds, container geometry — stays in the
//! hash. So does the kernel: `scalar` and `simd` pack identical bytes, but
//! folding them together would re-address every cached `scalar` artifact.
//! The container's AABB and volume are folded in by the fingerprint
//! itself, so two configs pointing at different STL files collide only if
//! the hulls are geometrically indistinguishable to the packer.

use adampack_core::checkpoint::fnv1a;
use adampack_core::prelude::*;

/// Domain-separation salt for content addresses (never reused for run
/// checkpoints, so an address can't be mistaken for a resume fingerprint).
const ADDR_SALT_DOMAIN: &str = "adampack-server/addr/v1";

/// Domain-separation salt mixed into the checkpoint fingerprints of runs
/// executed by the server: a server checkpoint resumes only under the
/// server context (and vice versa), mirroring the CLI's context salt.
const RUN_SALT_DOMAIN: &str = "adampack-server/run/v1";

/// The fingerprint salt for server-executed runs.
pub fn run_salt() -> u64 {
    fnv1a(RUN_SALT_DOMAIN.as_bytes())
}

/// The canonical content address of a job: its checkpoint fingerprint
/// under the address domain salt.
pub fn content_address(container: &Container, params: &PackingParams) -> u64 {
    let mut probe = CollectivePacker::new(container.clone(), params.clone());
    probe.set_fingerprint_context(fnv1a(ADDR_SALT_DOMAIN.as_bytes()));
    probe.fingerprint()
}

/// Renders an address as its canonical 16-digit lowercase hex form (the
/// job id used in URLs and artifact file names).
pub fn format_address(addr: u64) -> String {
    format!("{addr:016x}")
}

/// Parses the canonical hex form back into an address.
pub fn parse_address(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn box_container() -> Container {
        let mesh = adampack_geometry::shapes::box_mesh(
            adampack_geometry::Vec3::ZERO,
            adampack_geometry::Vec3::splat(1.0),
        );
        Container::from_mesh(&mesh).unwrap()
    }

    #[test]
    fn address_roundtrips_through_hex() {
        let c = box_container();
        let p = PackingParams::default();
        let a = content_address(&c, &p);
        assert_eq!(parse_address(&format_address(a)), Some(a));
        assert_eq!(parse_address("nope"), None);
        assert_eq!(parse_address("00112233445566"), None, "too short");
    }

    #[test]
    fn strategy_is_normalized_but_seed_and_kernel_are_not() {
        let c = box_container();
        let base = PackingParams::default();
        let a = content_address(&c, &base);
        for strategy in NeighborStrategy::ALL {
            let mut spelled = base.clone();
            spelled.neighbor.strategy = strategy;
            assert_eq!(
                a,
                content_address(&c, &spelled),
                "{strategy:?} must coalesce"
            );
        }

        let mut seeded = base.clone();
        seeded.seed = base.seed.wrapping_add(1);
        assert_ne!(a, content_address(&c, &seeded), "seed changes the bytes");
        let mut scalar = base.clone();
        scalar.kernel = Kernel::Scalar;
        assert_ne!(a, content_address(&c, &scalar), "kernel stays hashed");
    }

    #[test]
    fn address_domain_is_separated_from_run_fingerprints() {
        let c = box_container();
        let p = PackingParams::default();
        let mut probe = CollectivePacker::new(c.clone(), p.clone());
        probe.set_fingerprint_context(run_salt());
        assert_ne!(content_address(&c, &p), probe.fingerprint());
    }
}

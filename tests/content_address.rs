//! Property tests for job content-address canonicalization
//! (`adampack_server::address`): semantically-equal configurations must
//! hash to one address — YAML key order, spelled-out defaults, quoting
//! style, thread counts and neighbor strategies are all presentation,
//! not semantics — while anything that changes the packed bytes (seed,
//! learning rate, PSD, kernel) must produce a distinct address.

use adampack_config::PackingConfig;
use adampack_core::prelude::*;
use adampack_geometry::{shapes, Vec3};
use adampack_server::address::{content_address, format_address, parse_address};
use proptest::prelude::*;

fn container() -> Container {
    let mesh = shapes::box_mesh(Vec3::ZERO, Vec3::splat(1.0));
    Container::from_mesh(&mesh).unwrap()
}

/// Parses a YAML config and resolves it into a content address exactly
/// the way the server's submit path does (target count from the capacity
/// estimate; container fixed to the unit box — these tests are about the
/// parameter side of the hash).
fn addr_of(yaml: &str) -> u64 {
    let cfg = PackingConfig::from_str(yaml).expect(yaml);
    let container = container();
    let psd = cfg.psds().into_iter().next().unwrap();
    let mut params = cfg.to_packing_params();
    params.target_count = container.capacity_estimate(psd.mean(), 0.6);
    content_address(&container, &params)
}

#[test]
fn presentation_differences_collapse_to_one_address() {
    // The same job spelled four ways: canonical; keys permuted; defaults
    // spelled out with different quoting; perf-only knobs (threads,
    // neighbor strategy) varied.
    let canonical = r#"
container:
    path: "box.stl"
algorithm: "COLLECTIVE_ARRANGEMENT"
params:
    lr: 0.01
    seed: 42
particle_sets:
    - radius_distribution: "constant"
      radius_value: 0.1
"#;
    let permuted = r#"
particle_sets:
    - radius_value: 0.1
      radius_distribution: "constant"
params:
    seed: 42
    lr: 0.01
algorithm: "COLLECTIVE_ARRANGEMENT"
container:
    path: "box.stl"
"#;
    let spelled_defaults = r#"
container:
    path: 'box.stl'
algorithm: 'COLLECTIVE_ARRANGEMENT'
gravity_axis: z
params:
    lr: 0.01
    seed: 42
    threads: 0
particle_sets:
    - radius_distribution: 'constant'
      radius_value: 0.1
"#;
    let perf_knobs = r#"
container:
    path: "box.stl"
algorithm: "COLLECTIVE_ARRANGEMENT"
neighbor:
    strategy: "naive"
params:
    lr: 0.01
    seed: 42
    threads: 7
particle_sets:
    - radius_distribution: "constant"
      radius_value: 0.1
"#;
    let a = addr_of(canonical);
    assert_eq!(a, addr_of(permuted), "key order is presentation");
    assert_eq!(
        a,
        addr_of(spelled_defaults),
        "spelled defaults are presentation"
    );
    assert_eq!(
        a,
        addr_of(perf_knobs),
        "threads and neighbor strategy are presentation"
    );

    // The canonical hex form is stable and parseable.
    assert_eq!(parse_address(&format_address(a)), Some(a));
}

/// One parameter point in the collision corpus. Every field changes the
/// packed bytes, so distinct points must get distinct addresses.
#[derive(Clone, Debug, PartialEq)]
struct Point {
    seed: u64,
    lr_milli: u32,
    radius_centi: u32,
    kernel: u32,
}

fn point() -> impl Strategy<Value = Point> {
    (0u64..64, 1u32..40, 5u32..25, 0u32..2).prop_map(|(seed, lr_milli, radius_centi, kernel)| {
        Point {
            seed,
            lr_milli,
            radius_centi,
            kernel,
        }
    })
}

fn params_for(p: &Point, container: &Container) -> PackingParams {
    let mut params = PackingParams {
        seed: p.seed,
        kernel: Kernel::ALL[p.kernel as usize],
        ..PackingParams::default()
    };
    params.lr = LrPolicy::Fixed(p.lr_milli as f64 * 1e-3);
    let radius = p.radius_centi as f64 * 1e-2;
    params.target_count = container.capacity_estimate(radius, 0.6);
    params
}

proptest! {
    /// Equal parameter points hash equal; unequal points never collide
    /// across the corpus (FNV-1a over the full parameter debug form plus
    /// container geometry — a collision here means the cache would serve
    /// the wrong artifact).
    #[test]
    fn distinct_parameters_never_collide(points in proptest::collection::vec(point(), 2..20)) {
        let container = container();
        let mut seen: Vec<(Point, u64)> = Vec::new();
        for p in points {
            let addr = content_address(&container, &params_for(&p, &container));
            // Recomputing is deterministic.
            prop_assert_eq!(addr, content_address(&container, &params_for(&p, &container)));
            for (q, qaddr) in &seen {
                if *q == p {
                    prop_assert_eq!(addr, *qaddr);
                } else {
                    prop_assert_ne!(addr, *qaddr);
                }
            }
            seen.push((p, addr));
        }
    }

    /// The neighbor strategy never reaches the address or the checkpoint
    /// fingerprint; seeds always do. (The YAML route is covered above;
    /// this drives the params route across the whole corpus.)
    #[test]
    fn strategy_is_normalized_for_every_point(p in point()) {
        let container = container();
        let base = params_for(&p, &container);
        let fingerprint = |params: &PackingParams| {
            CollectivePacker::new(container.clone(), params.clone()).fingerprint()
        };
        for strategy in NeighborStrategy::ALL {
            let mut variant = base.clone();
            variant.neighbor.strategy = strategy;
            prop_assert_eq!(
                content_address(&container, &base),
                content_address(&container, &variant)
            );
            prop_assert_eq!(fingerprint(&base), fingerprint(&variant));
        }
        let mut reseeded = base.clone();
        reseeded.seed = base.seed.wrapping_add(1);
        prop_assert_ne!(content_address(&container, &base), content_address(&container, &reseeded));
    }
}

/// The checkpoint fingerprint and the content address of the canonical
/// `configs/box_simple.yaml` job, pinned to their hex values: refactors
/// that leave `PackingParams` unchanged must keep existing checkpoints
/// resumable and cached artifacts addressable. The target count is
/// resolved the way the CLI and the server resolve it.
#[test]
fn box_simple_hashes_are_pinned() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../configs/box_simple.yaml");
    let cfg = PackingConfig::from_file(&path).unwrap();
    let mesh = adampack_io::read_stl_path(&cfg.container_path).unwrap();
    let container = Container::from_mesh(&mesh).unwrap();
    let psd = cfg.psds().into_iter().next().unwrap();
    let mut params = cfg.to_packing_params();
    params.target_count = container.capacity_estimate(psd.mean(), 0.6);
    let fingerprint = CollectivePacker::new(container.clone(), params.clone()).fingerprint();
    assert_eq!(format_address(fingerprint), "ebfcea9e518afc2d");
    assert_eq!(
        format_address(content_address(&container, &params)),
        "b6c2a9c63ce1c229"
    );
}

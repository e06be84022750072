//! The soft-sphere DEM simulation.

use adampack_core::neighbor::CsrGrid;
use adampack_core::particle::Particle;
use adampack_geometry::{HalfSpaceSet, Vec3};
use rayon::par;

/// DEM material / integration parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemParams {
    /// Normal spring stiffness `kₙ` (N/m).
    pub kn: f64,
    /// Damping ratio ζ in `[0, 1]`; the dashpot coefficient is derived per
    /// contact as `cₙ = 2ζ√(kₙ·m_eff)` (critical damping at ζ = 1).
    pub damping_ratio: f64,
    /// Gravitational acceleration vector (set to zero for pure relaxation).
    pub gravity: Vec3,
    /// Material density (kg/m³) used to derive particle masses.
    pub density: f64,
    /// Integration time step; must satisfy the stability bound checked in
    /// [`DemSimulation::new`].
    pub dt: f64,
    /// Tangential (sliding-friction surrogate) damping coefficient μₜ: a
    /// viscous force `−μₜ·cₙ·v_t` opposing the tangential relative velocity
    /// at each contact. 0 disables tangential coupling. A full
    /// history-dependent Coulomb spring is out of scope — viscous sliding
    /// friction is the standard simplification for settling/validation
    /// use-cases like this crate's.
    pub tangential_damping: f64,
}

impl Default for DemParams {
    fn default() -> Self {
        DemParams {
            kn: 1e5,
            damping_ratio: 0.3,
            gravity: Vec3::new(0.0, 0.0, -9.81),
            density: 2500.0,
            dt: 1e-5,
            tangential_damping: 0.0,
        }
    }
}

/// Aggregate state diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemStats {
    /// Total kinetic energy (J).
    pub kinetic_energy: f64,
    /// Largest particle speed (m/s).
    pub max_speed: f64,
    /// Largest contact penetration relative to the smaller radius.
    pub max_overlap_ratio: f64,
    /// Highest sphere-top altitude along +z.
    pub bed_height: f64,
}

/// A soft-sphere DEM world.
pub struct DemSimulation {
    positions: Vec<Vec3>,
    velocities: Vec<Vec3>,
    radii: Vec<f64>,
    masses: Vec<f64>,
    walls: HalfSpaceSet,
    params: DemParams,
    time: f64,
    grid: CsrGrid,
    skin: f64,
    /// Positions at the last grid build; the grid is refreshed only when a
    /// particle has moved more than `skin / 2` since then, which keeps the
    /// padded candidate set valid (each of a pair contributes at most
    /// `skin / 2` of approach).
    ref_positions: Vec<Vec3>,
    padded_radii: Vec<f64>,
    forces: Vec<Vec3>,
    grid_rebuilds: usize,
}

impl DemSimulation {
    /// Builds a simulation from packed particles and container walls.
    ///
    /// Panics when `dt` violates the contact-resolution stability bound
    /// `dt ≤ 0.2·√(m_min/kₙ)` (the usual DEM rule of thumb).
    pub fn new(particles: &[Particle], walls: HalfSpaceSet, params: DemParams) -> DemSimulation {
        assert!(!particles.is_empty(), "DEM needs at least one particle");
        assert!(params.kn > 0.0, "kn must be positive");
        assert!(
            (0.0..=1.0).contains(&params.damping_ratio),
            "damping ratio in [0, 1]"
        );
        assert!(params.density > 0.0, "density must be positive");
        assert!(params.dt > 0.0, "dt must be positive");

        let positions: Vec<Vec3> = particles.iter().map(|p| p.center).collect();
        let radii: Vec<f64> = particles.iter().map(|p| p.radius).collect();
        let masses: Vec<f64> = radii
            .iter()
            .map(|r| params.density * 4.0 / 3.0 * std::f64::consts::PI * r * r * r)
            .collect();
        let m_min = masses.iter().copied().fold(f64::INFINITY, f64::min);
        let dt_max = 0.2 * (m_min / params.kn).sqrt();
        assert!(
            params.dt <= dt_max,
            "dt = {} unstable; stability requires dt <= {dt_max:.3e} for kn = {} and m_min = {m_min:.3e}",
            params.dt,
            params.kn
        );

        let r_min = radii.iter().copied().fold(f64::INFINITY, f64::min);
        let skin = 0.3 * r_min;
        let padded_radii: Vec<f64> = radii.iter().map(|r| r + skin).collect();
        let grid = CsrGrid::build(&positions, &padded_radii);
        DemSimulation {
            velocities: vec![Vec3::ZERO; positions.len()],
            ref_positions: positions.clone(),
            forces: vec![Vec3::ZERO; positions.len()],
            positions,
            radii,
            masses,
            walls,
            params,
            time: 0.0,
            grid,
            skin,
            padded_radii,
            grid_rebuilds: 0,
        }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the simulation holds no particles (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Simulated time (s).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Particle positions.
    pub fn positions(&self) -> &[Vec3] {
        &self.positions
    }

    /// Particle velocities.
    pub fn velocities(&self) -> &[Vec3] {
        &self.velocities
    }

    /// Particle radii.
    pub fn radii(&self) -> &[f64] {
        &self.radii
    }

    /// Contact-grid rebuilds so far (diagnostic: the displacement criterion
    /// makes this far smaller than the step count for quasi-static beds).
    pub fn grid_rebuilds(&self) -> usize {
        self.grid_rebuilds
    }

    /// Advances one time step (semi-implicit Euler: forces → velocities →
    /// positions). The contact grid is rebuilt only when some particle has
    /// drifted more than half the skin since the last build, not on a fixed
    /// cadence.
    pub fn step(&mut self) {
        let _span = adampack_telemetry::span(adampack_telemetry::Phase::DemStep);
        adampack_telemetry::metrics::DEM_STEPS_TOTAL.inc();
        let limit_sq = (0.5 * self.skin) * (0.5 * self.skin);
        let stale = self
            .positions
            .iter()
            .zip(&self.ref_positions)
            .any(|(p, q)| p.distance_sq(*q) > limit_sq);
        if stale {
            self.grid.rebuild(&self.positions, &self.padded_radii);
            self.ref_positions.copy_from_slice(&self.positions);
            self.grid_rebuilds += 1;
        }

        let DemParams {
            kn,
            damping_ratio,
            gravity,
            dt,
            tangential_damping,
            ..
        } = self.params;
        let positions = &self.positions;
        let velocities = &self.velocities;
        let radii = &self.radii;
        let masses = &self.masses;
        let walls = &self.walls;
        let grid = &self.grid;

        let skin = self.skin;
        // Forces are accumulated per particle; each pair is evaluated twice
        // (once from each side), which keeps the loop embarrassingly
        // parallel at the cost of one redundant sqrt per pair. The buffer is
        // reused across steps, so the force pass allocates nothing.
        par::fill_with(&mut self.forces, 1, |i| {
            let pi = positions[i];
            let vi = velocities[i];
            let ri = radii[i];
            let mut f = gravity * masses[i];

            grid.for_neighbors(pi, ri + skin, |j, _, _| {
                if j == i {
                    return;
                }
                let pj = positions[j];
                let sum_r = ri + radii[j];
                let delta_vec = pi - pj;
                let dist = delta_vec.norm();
                let overlap = sum_r - dist;
                if overlap > 0.0 && dist > 1e-12 {
                    let n = delta_vec / dist;
                    let m_eff = masses[i] * masses[j] / (masses[i] + masses[j]);
                    let cn = 2.0 * damping_ratio * (kn * m_eff).sqrt();
                    let v_rel = vi - velocities[j];
                    let v_rel_n = v_rel.dot(n);
                    f += n * (kn * overlap - cn * v_rel_n);
                    if tangential_damping > 0.0 {
                        let v_t = v_rel - n * v_rel_n;
                        f -= v_t * (tangential_damping * cn);
                    }
                }
            });

            // Wall contacts against every container plane.
            for plane in walls.planes() {
                let gap = plane.sphere_excess(pi, ri);
                if gap > 0.0 {
                    // Sphere penetrates the wall by `gap` along the
                    // outward normal: push back inward.
                    let m_eff = masses[i];
                    let cn = 2.0 * damping_ratio * (kn * m_eff).sqrt();
                    let v_n = vi.dot(plane.normal);
                    f -= plane.normal * (kn * gap + cn * v_n.max(0.0));
                    if tangential_damping > 0.0 {
                        let v_t = vi - plane.normal * v_n;
                        f -= v_t * (tangential_damping * cn);
                    }
                }
            }
            f
        });

        // Symplectic-Euler integration, one writer per slot: chunking
        // cannot change the arithmetic.
        let (forces, masses) = (&self.forces, &self.masses);
        par::for_each_slot_zip2(&mut self.positions, &mut self.velocities, 1, |i, p, v| {
            *v += forces[i] * (dt / masses[i]);
            *p += *v * dt;
        });
        self.time += dt;
    }

    /// Advances `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Runs until the kinetic energy drops below `ke_tol` or `max_steps`
    /// elapse; returns the steps taken.
    pub fn settle(&mut self, ke_tol: f64, max_steps: usize) -> usize {
        for s in 0..max_steps {
            self.step();
            if s % 50 == 0 && self.stats().kinetic_energy < ke_tol {
                return s + 1;
            }
        }
        max_steps
    }

    /// Current diagnostics.
    pub fn stats(&self) -> DemStats {
        let mut ke = 0.0;
        let mut max_speed: f64 = 0.0;
        let mut bed_height = f64::NEG_INFINITY;
        for i in 0..self.positions.len() {
            let sp = self.velocities[i].norm();
            ke += 0.5 * self.masses[i] * sp * sp;
            max_speed = max_speed.max(sp);
            bed_height = bed_height.max(self.positions[i].z + self.radii[i]);
        }
        // Worst pairwise overlap via a fresh exact grid.
        let grid = CsrGrid::build(&self.positions, &self.radii);
        let mut max_ratio: f64 = 0.0;
        for i in 0..self.positions.len() {
            grid.for_neighbors(self.positions[i], self.radii[i], |j, pj, rj| {
                if j > i {
                    let pen = self.radii[i] + rj - self.positions[i].distance(pj);
                    if pen > 0.0 {
                        max_ratio = max_ratio.max(pen / self.radii[i].min(rj));
                    }
                }
            });
        }
        DemStats {
            kinetic_energy: ke,
            max_speed,
            max_overlap_ratio: max_ratio,
            bed_height,
        }
    }

    /// Extracts the current state as particles (batch/set preserved from
    /// indices is not tracked; both reset to 0).
    pub fn to_particles(&self) -> Vec<Particle> {
        self.positions
            .iter()
            .zip(&self.radii)
            .map(|(&c, &r)| Particle::new(c, r))
            .collect()
    }

    /// Zero-gravity overlap relaxation: runs with gravity disabled and
    /// strong damping until contacts relax or the step budget is exhausted.
    /// Returns the worst remaining overlap ratio.
    pub fn relax_overlaps(&mut self, target_ratio: f64, max_steps: usize) -> f64 {
        let saved = self.params;
        self.params.gravity = Vec3::ZERO;
        self.params.damping_ratio = 0.9;
        let mut worst = self.stats().max_overlap_ratio;
        let mut steps = 0;
        while worst > target_ratio && steps < max_steps {
            self.run(50);
            steps += 50;
            // Bleed kinetic energy so the relaxation stays quasi-static
            // (gentle enough that contacts can still push spheres apart).
            for v in &mut self.velocities {
                *v *= 0.9;
            }
            worst = self.stats().max_overlap_ratio;
        }
        self.params = saved;
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adampack_core::Container;
    use adampack_geometry::shapes;

    fn floor_box() -> HalfSpaceSet {
        Container::from_mesh(&shapes::box_mesh(
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(2.0, 2.0, 2.0),
        ))
        .unwrap()
        .halfspaces()
        .clone()
    }

    fn params() -> DemParams {
        DemParams {
            kn: 1e4,
            dt: 2e-5,
            ..DemParams::default()
        }
    }

    #[test]
    fn single_sphere_falls_and_rests_on_floor() {
        let p = vec![Particle::new(Vec3::new(0.0, 0.0, 0.5), 0.1)];
        let mut sim = DemSimulation::new(&p, floor_box(), params());
        sim.run(150_000);
        let z = sim.positions()[0].z;
        // Rest position: r minus the static spring compression mg/kn.
        let m = 2500.0 * 4.0 / 3.0 * std::f64::consts::PI * 0.1f64.powi(3);
        let sag = m * 9.81 / 1e4;
        assert!(
            (z - (0.1 - sag)).abs() < 0.01,
            "resting z = {z}, expected ≈ {}",
            0.1 - sag
        );
        assert!(sim.stats().max_speed < 0.05, "should be nearly at rest");
    }

    #[test]
    fn overlapping_pair_repels() {
        let p = vec![
            Particle::new(Vec3::new(-0.05, 0.0, 1.0), 0.1),
            Particle::new(Vec3::new(0.05, 0.0, 1.0), 0.1),
        ];
        let mut sim = DemSimulation::new(
            &p,
            floor_box(),
            DemParams {
                gravity: Vec3::ZERO,
                ..params()
            },
        );
        let d0 = sim.positions()[0].distance(sim.positions()[1]);
        sim.run(2_000);
        let d1 = sim.positions()[0].distance(sim.positions()[1]);
        assert!(d1 > d0, "overlap must push spheres apart ({d0} → {d1})");
    }

    #[test]
    fn energy_decays_with_damping() {
        let p = vec![Particle::new(Vec3::new(0.0, 0.0, 1.0), 0.1)];
        let mut sim = DemSimulation::new(&p, floor_box(), params());
        // Give it a kick and watch damped wall bounces shed energy.
        sim.velocities[0] = Vec3::new(1.0, 0.5, 0.0);
        let e0 = sim.stats().kinetic_energy
            + 2500.0 * 4.0 / 3.0 * std::f64::consts::PI * 0.001 * 9.81 * 1.0;
        sim.run(100_000);
        let s = sim.stats();
        let e1 = s.kinetic_energy;
        assert!(e1 < e0 * 0.2, "energy should decay: {e0} → {e1}");
    }

    #[test]
    fn settle_reports_convergence() {
        let p = vec![Particle::new(Vec3::new(0.0, 0.0, 0.15), 0.1)];
        let mut sim = DemSimulation::new(&p, floor_box(), params());
        let steps = sim.settle(1e-9, 200_000);
        assert!(steps < 200_000, "should settle before the step cap");
        assert!(sim.stats().kinetic_energy < 1e-9);
    }

    #[test]
    fn relax_overlaps_reduces_penetration() {
        // A deliberately overlapped pair (5 % of radius).
        let p = vec![
            Particle::new(Vec3::new(0.0, 0.0, 0.5), 0.1),
            Particle::new(Vec3::new(0.195, 0.0, 0.5), 0.1),
        ];
        let mut sim = DemSimulation::new(
            &p,
            floor_box(),
            DemParams {
                gravity: Vec3::ZERO,
                ..params()
            },
        );
        let before = sim.stats().max_overlap_ratio;
        assert!(before > 0.02);
        let after = sim.relax_overlaps(0.005, 20_000);
        assert!(after < 0.005, "relaxation left overlap ratio {after}");
    }

    #[test]
    fn contained_bed_stays_contained() {
        // A small grid of spheres dropped from low height must stay inside.
        let mut particles = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                particles.push(Particle::new(
                    Vec3::new(-0.4 + 0.4 * i as f64, -0.4 + 0.4 * j as f64, 0.3),
                    0.12,
                ));
            }
        }
        let walls = floor_box();
        let mut sim = DemSimulation::new(&particles, walls.clone(), params());
        sim.run(50_000);
        for (k, &p) in sim.positions().iter().enumerate() {
            let excess = walls.sphere_max_excess(p, sim.radii()[k]);
            assert!(excess < 0.02, "particle {k} escaped by {excess}");
        }
        let s = sim.stats();
        assert!(s.bed_height < 0.6, "bed should have collapsed to a layer");
    }

    #[test]
    fn restitution_matches_damping_theory() {
        // A sphere bouncing on the floor with ζ = 0.3 should rebound with
        // e = exp(−πζ/√(1−ζ²)) ≈ 0.37 of its impact speed.
        let p = vec![Particle::new(Vec3::new(0.0, 0.0, 0.5), 0.1)];
        let mut sim = DemSimulation::new(&p, floor_box(), params());
        // Let it fall; record speed just before and just after the bounce.
        let mut v_impact: f64 = 0.0;
        let mut v_rebound: f64 = 0.0;
        let mut bounced = false;
        for _ in 0..50_000 {
            sim.step();
            let vz = sim.velocities()[0].z;
            if !bounced {
                if vz < 0.0 {
                    v_impact = v_impact.max(-vz);
                } else if v_impact > 0.5 {
                    bounced = true;
                }
            } else {
                v_rebound = v_rebound.max(vz);
                if sim.velocities()[0].z < 0.0 {
                    break; // apex passed
                }
            }
        }
        assert!(bounced, "sphere never bounced");
        let zeta: f64 = 0.3;
        let e_expect = (-std::f64::consts::PI * zeta / (1.0 - zeta * zeta).sqrt()).exp();
        let e = v_rebound / v_impact;
        // The approach-only dashpot dissipates about half a full cycle, so
        // the effective restitution is noticeably above the two-sided
        // theory; bound it loosely on both sides.
        assert!(
            e > e_expect && e < 0.95,
            "restitution {e:.3} vs two-sided theory {e_expect:.3}"
        );
    }

    #[test]
    fn tangential_damping_slows_sliding() {
        // A sphere sliding along the floor with only normal contact keeps
        // its horizontal speed; with tangential damping it slows down.
        let make = |mu| {
            let p = vec![Particle::new(Vec3::new(-0.8, 0.0, 0.1 - 0.005), 0.1)];
            let mut sim = DemSimulation::new(
                &p,
                floor_box(),
                DemParams {
                    tangential_damping: mu,
                    ..params()
                },
            );
            sim.velocities[0] = Vec3::new(1.0, 0.0, 0.0);
            sim.run(20_000);
            sim.velocities()[0].x
        };
        let frictionless = make(0.0);
        let with_friction = make(1.0);
        assert!(
            with_friction < frictionless * 0.8,
            "tangential damping should slow sliding: {with_friction} vs {frictionless}"
        );
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn unstable_dt_rejected() {
        let p = vec![Particle::new(Vec3::new(0.0, 0.0, 0.5), 0.05)];
        let _ = DemSimulation::new(
            &p,
            floor_box(),
            DemParams {
                dt: 1e-2,
                ..DemParams::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "at least one particle")]
    fn empty_input_rejected() {
        let _ = DemSimulation::new(&[], floor_box(), DemParams::default());
    }
}

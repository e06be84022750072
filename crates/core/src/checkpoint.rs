//! Versioned binary run-state checkpoints.
//!
//! A checkpoint captures everything [`crate::CollectivePacker`] needs to
//! continue a packing run **bitwise identically** to an uninterrupted one:
//! the RNG state, every packed particle and the per-batch statistics.
//! Checkpoints are only ever taken at batch boundaries, where that state is
//! complete and capturing it is a pure read, so checkpointing never changes
//! the packing.
//!
//! ## Format
//!
//! ```text
//! magic    8 bytes  b"ADPKCKP1"
//! version  u32 LE   FORMAT_VERSION
//! section* ...      [tag u32][len u64][crc32 u32][payload: len bytes]
//! ```
//!
//! Every section payload carries its own CRC-32 (IEEE), so torn writes and
//! bit rot are detected per section rather than silently resumed from.
//! Integers are little-endian; `f64`s are stored as their IEEE-754 bit
//! patterns (`to_bits`), which is what makes restored trajectories bitwise
//! rather than merely approximately equal.
//!
//! The codec is self-contained (no serde): the format is small, fixed and
//! versioned, and decoding validates every length against the remaining
//! buffer so corrupt headers cannot trigger huge allocations.

use std::time::Duration;

use crate::collective::{BatchPhaseBreakdown, BatchStats};
use crate::particle::Particle;
use adampack_geometry::Vec3;

/// File magic: "ADamPacK ChecKPoint v1-family".
pub const MAGIC: [u8; 8] = *b"ADPKCKP1";
/// Current encoder output version. Decoders reject anything newer.
pub const FORMAT_VERSION: u32 = 1;

const TAG_META: u32 = 1;
const TAG_PARTICLES: u32 = 2;
const TAG_BATCHES: u32 = 3;
/// Retired: older builds wrote the optimizer loop of an unfinished batch
/// here. Such a file cannot resume bitwise (its RNG is already past that
/// batch's spawn), so [`decode`] refuses it instead of skipping it.
const TAG_MID_BATCH: u32 = 4;
/// End-of-stream footer (empty payload). A file torn at an exact section
/// boundary would otherwise decode as complete with its trailing sections
/// silently dropped; the mandatory footer makes every truncation
/// detectable.
const TAG_END: u32 = 0xFFFF_FFFF;
/// Batched-run header (sweep fingerprint, thread knob, pass counter,
/// system count). Present only in multi-system checkpoints, which keeps
/// the single-run decoder rejecting them via its required-section check.
const TAG_BATCHED_META: u32 = 16;
/// One system of a batched run: its label plus a complete nested
/// single-run checkpoint stream.
const TAG_SYSTEM: u32 = 17;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a checkpoint could not be decoded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream ended before a complete header or section.
    Truncated {
        /// Offset at which more bytes were needed.
        at: usize,
        /// How many more bytes the decoder expected.
        needed: usize,
    },
    /// The first 8 bytes are not the checkpoint magic.
    BadMagic,
    /// The format version is newer than this decoder understands.
    UnsupportedVersion(u32),
    /// A section's payload does not match its stored CRC-32.
    CrcMismatch {
        /// Which section failed its integrity check.
        section: &'static str,
    },
    /// The payload decoded but violated an internal invariant.
    Malformed(String),
    /// The checkpoint is internally valid but belongs to a different run
    /// (seed or parameter fingerprint mismatch) or an incompatible state.
    StateMismatch(String),
    /// The checkpoint was taken in the middle of a batch by an older build
    /// (it carries the retired `batch` section, tag 4). It cannot resume
    /// bitwise, so it is refused rather than half-restored.
    MidBatch,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated { at, needed } => {
                write!(
                    f,
                    "checkpoint truncated at byte {at} ({needed} more needed)"
                )
            }
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "checkpoint format version {v} is newer than supported {FORMAT_VERSION}"
                )
            }
            CheckpointError::CrcMismatch { section } => {
                write!(f, "checkpoint section '{section}' failed its CRC-32 check")
            }
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
            CheckpointError::StateMismatch(msg) => {
                write!(f, "checkpoint does not match this run: {msg}")
            }
            CheckpointError::MidBatch => write!(
                f,
                "mid-batch checkpoint from an older build (retired section 'batch', \
                 tag {TAG_MID_BATCH}); only batch-boundary checkpoints resume, so \
                 start the run afresh"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn malformed(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Malformed(msg.into())
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE) and FNV-1a
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// FNV-1a over `bytes` — the parameter-fingerprint hash stored in every
/// checkpoint so a resume against different hyper-parameters is rejected
/// instead of silently producing a non-reproducible hybrid run.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Run state
// ---------------------------------------------------------------------------

/// Everything needed to continue a packing run bitwise identically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunState {
    /// The run's RNG seed (checked on resume).
    pub seed: u64,
    /// FNV-1a fingerprint of the hyper-parameters + container (checked on
    /// resume).
    pub params_fingerprint: u64,
    /// Optimizer steps taken across the whole run
    /// ([`crate::RunProgress::steps_taken`] at capture time).
    pub global_step: u64,
    /// Divergence-sentinel recoveries so far.
    pub recoveries: u64,
    /// Particles that existed before the run (the fixed bed passed to
    /// `begin_run`).
    pub preexisting: u64,
    /// Requested particle count.
    pub target: u64,
    /// Next batch index.
    pub batch_index: u64,
    /// Particles packed by this run so far.
    pub packed: u64,
    /// Current batch size (after any halvings).
    pub batch_size: u64,
    /// Run wall time consumed before the checkpoint, nanoseconds.
    pub elapsed_ns: u64,
    /// Workspace objective evaluations served so far.
    pub evals: u64,
    /// Workspace Verlet rebuilds served so far.
    pub verlet_rebuilds: u64,
    /// Xoshiro generator state (see `StdRng::state`).
    pub rng: [u64; 4],
    /// All particles (preexisting first, then packed, in bed order).
    pub particles: Vec<Particle>,
    /// Per-batch statistics of every attempted batch so far.
    pub batches: Vec<BatchStats>,
}

/// One system's entry inside a batched (multi-system) checkpoint.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchedSystemState {
    /// The sweep label of the system (e.g. `s7_lr0.01`).
    pub label: String,
    /// `Some((batch, step, recoveries))` when the system terminally
    /// diverged before the checkpoint; it is never advanced again and a
    /// resume re-reports the same `PackError::Diverged`.
    pub diverged: Option<[u64; 3]>,
    /// The system's complete single-run state at a batch boundary.
    pub state: RunState,
}

/// Everything needed to continue a batched multi-system run bitwise
/// identically: the engine header plus one nested [`RunState`] per system.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchedRunState {
    /// FNV-1a over every system's parameter fingerprint, the labels, the
    /// thread knob and the system count — checked on resume so a different
    /// sweep configuration is rejected instead of silently diverging.
    pub sweep_fingerprint: u64,
    /// Resolved thread-count knob the run was started with.
    pub threads: u64,
    /// Engine passes completed (each pass advances every live system by
    /// one batch attempt).
    pub pass: u64,
    /// Per-system states, in sweep-expansion order.
    pub systems: Vec<BatchedSystemState>,
}

// ---------------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Buf(Vec<u8>);

impl Buf {
    fn u8(&mut self, x: u8) {
        self.0.push(x);
    }
    fn u64(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }
    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated {
                at: self.pos,
                needed: n - self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

fn push_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

fn encode_duration(b: &mut Buf, d: Duration) {
    b.u64(d.as_nanos().min(u64::MAX as u128) as u64);
}

fn decode_duration(r: &mut Reader<'_>) -> Result<Duration, CheckpointError> {
    Ok(Duration::from_nanos(r.u64()?))
}

/// Serializes a run state to the versioned checkpoint byte format.
pub fn encode(state: &RunState) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + state.particles.len() * 48 + state.batches.len() * 120);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());

    let mut b = Buf::default();
    b.u64(state.seed);
    b.u64(state.params_fingerprint);
    b.u64(state.global_step);
    b.u64(state.recoveries);
    b.u64(state.preexisting);
    b.u64(state.target);
    b.u64(state.batch_index);
    b.u64(state.packed);
    b.u64(state.batch_size);
    b.u64(state.elapsed_ns);
    b.u64(state.evals);
    b.u64(state.verlet_rebuilds);
    for &w in &state.rng {
        b.u64(w);
    }
    push_section(&mut out, TAG_META, &b.0);

    let mut b = Buf::default();
    b.u64(state.particles.len() as u64);
    for p in &state.particles {
        b.f64(p.center.x);
        b.f64(p.center.y);
        b.f64(p.center.z);
        b.f64(p.radius);
        b.u64(p.batch as u64);
        b.u64(p.set as u64);
    }
    push_section(&mut out, TAG_PARTICLES, &b.0);

    let mut b = Buf::default();
    b.u64(state.batches.len() as u64);
    for s in &state.batches {
        b.u64(s.index as u64);
        b.u64(s.requested as u64);
        b.u8(s.accepted as u8);
        b.u64(s.steps as u64);
        b.f64(s.best_fitness);
        b.f64(s.mean_overlap_ratio);
        b.f64(s.mean_boundary_ratio);
        encode_duration(&mut b, s.duration);
        b.u64(s.verlet_rebuilds as u64);
        encode_duration(&mut b, s.phase.spawn);
        encode_duration(&mut b, s.phase.optimize);
        encode_duration(&mut b, s.phase.gradient);
        encode_duration(&mut b, s.phase.optimizer);
        encode_duration(&mut b, s.phase.acceptance);
    }
    push_section(&mut out, TAG_BATCHES, &b.0);

    push_section(&mut out, TAG_END, &[]);
    out
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

fn section_name(tag: u32) -> &'static str {
    match tag {
        TAG_META => "meta",
        TAG_PARTICLES => "particles",
        TAG_BATCHES => "batches",
        TAG_MID_BATCH => "batch",
        TAG_BATCHED_META => "batched-meta",
        TAG_SYSTEM => "system",
        _ => "unknown",
    }
}

/// Decodes a checkpoint byte stream, verifying magic, version and every
/// section CRC. Unknown sections (future extensions) are skipped as long as
/// their CRC holds; the retired mid-batch section is refused with
/// [`CheckpointError::MidBatch`].
pub fn decode(bytes: &[u8]) -> Result<RunState, CheckpointError> {
    let mut r = Reader::new(bytes);
    if r.remaining() < MAGIC.len() {
        return Err(CheckpointError::Truncated {
            at: 0,
            needed: MAGIC.len() - r.remaining(),
        });
    }
    if r.bytes(MAGIC.len())? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.u32()?;
    if version == 0 || version > FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }

    let mut state = RunState::default();
    let (mut have_meta, mut have_particles, mut have_batches) = (false, false, false);
    let mut have_end = false;
    while r.remaining() > 0 {
        let tag = r.u32()?;
        let len = r.u64()? as usize;
        let crc = r.u32()?;
        let payload = r.bytes(len)?;
        if crc32(payload) != crc {
            return Err(CheckpointError::CrcMismatch {
                section: section_name(tag),
            });
        }
        let mut s = Reader::new(payload);
        match tag {
            TAG_META => {
                state.seed = s.u64()?;
                state.params_fingerprint = s.u64()?;
                state.global_step = s.u64()?;
                state.recoveries = s.u64()?;
                state.preexisting = s.u64()?;
                state.target = s.u64()?;
                state.batch_index = s.u64()?;
                state.packed = s.u64()?;
                state.batch_size = s.u64()?;
                state.elapsed_ns = s.u64()?;
                state.evals = s.u64()?;
                state.verlet_rebuilds = s.u64()?;
                for w in &mut state.rng {
                    *w = s.u64()?;
                }
                have_meta = true;
            }
            TAG_PARTICLES => {
                let n = s.u64()? as usize;
                if n.checked_mul(48).is_none_or(|b| b > s.remaining()) {
                    return Err(malformed(format!("particle count {n} exceeds payload")));
                }
                state.particles = Vec::with_capacity(n);
                for _ in 0..n {
                    let center = Vec3::new(s.f64()?, s.f64()?, s.f64()?);
                    let radius = s.f64()?;
                    let batch = s.u64()? as usize;
                    let set = s.u64()? as usize;
                    state.particles.push(Particle {
                        center,
                        radius,
                        batch,
                        set,
                    });
                }
                have_particles = true;
            }
            TAG_BATCHES => {
                let n = s.u64()? as usize;
                // 105 = the exact encoded size of one BatchStats entry.
                if n.checked_mul(105).is_none_or(|b| b > s.remaining()) {
                    return Err(malformed(format!("batch count {n} exceeds payload")));
                }
                state.batches = Vec::with_capacity(n);
                for _ in 0..n {
                    state.batches.push(BatchStats {
                        index: s.u64()? as usize,
                        requested: s.u64()? as usize,
                        accepted: s.u8()? != 0,
                        steps: s.u64()? as usize,
                        best_fitness: s.f64()?,
                        mean_overlap_ratio: s.f64()?,
                        mean_boundary_ratio: s.f64()?,
                        duration: decode_duration(&mut s)?,
                        verlet_rebuilds: s.u64()? as usize,
                        phase: BatchPhaseBreakdown {
                            spawn: decode_duration(&mut s)?,
                            optimize: decode_duration(&mut s)?,
                            gradient: decode_duration(&mut s)?,
                            optimizer: decode_duration(&mut s)?,
                            acceptance: decode_duration(&mut s)?,
                        },
                    });
                }
                have_batches = true;
            }
            TAG_MID_BATCH => return Err(CheckpointError::MidBatch),
            TAG_END => have_end = true,
            _ => { /* unknown but CRC-valid section: skip (forward compat) */ }
        }
    }

    if !have_end {
        return Err(malformed(
            "missing end-of-checkpoint marker (torn write at a section boundary)".to_string(),
        ));
    }
    if !(have_meta && have_particles && have_batches) {
        return Err(malformed(format!(
            "missing required sections (meta: {have_meta}, particles: {have_particles}, \
             batches: {have_batches})"
        )));
    }
    if state.particles.len() as u64 != state.preexisting + state.packed {
        return Err(malformed(format!(
            "{} particles but preexisting {} + packed {}",
            state.particles.len(),
            state.preexisting,
            state.packed
        )));
    }
    Ok(state)
}

// ---------------------------------------------------------------------------
// Batched (multi-system) checkpoints
// ---------------------------------------------------------------------------

/// Serializes a batched multi-system run state. Same container format as
/// [`encode`] (magic, version, CRC'd sections, mandatory footer); each
/// system's [`RunState`] is nested as a complete single-run stream, so the
/// per-system payload reuses the whole single-run codec including its
/// validation.
pub fn encode_batched(state: &BatchedRunState) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + state.systems.len() * 256);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());

    let mut b = Buf::default();
    b.u64(state.sweep_fingerprint);
    b.u64(state.threads);
    b.u64(state.pass);
    b.u64(state.systems.len() as u64);
    push_section(&mut out, TAG_BATCHED_META, &b.0);

    for sys in &state.systems {
        let mut b = Buf::default();
        b.u64(sys.label.len() as u64);
        b.0.extend_from_slice(sys.label.as_bytes());
        match sys.diverged {
            Some(d) => {
                b.u8(1);
                for w in d {
                    b.u64(w);
                }
            }
            None => {
                b.u8(0);
                for _ in 0..3 {
                    b.u64(0);
                }
            }
        }
        let nested = encode(&sys.state);
        b.u64(nested.len() as u64);
        b.0.extend_from_slice(&nested);
        push_section(&mut out, TAG_SYSTEM, &b.0);
    }
    push_section(&mut out, TAG_END, &[]);
    out
}

/// Decodes a batched multi-system checkpoint. A single-run stream is
/// rejected (it has no `batched-meta` section), mirroring how [`decode`]
/// rejects batched streams via its own required-section check.
pub fn decode_batched(bytes: &[u8]) -> Result<BatchedRunState, CheckpointError> {
    let mut r = Reader::new(bytes);
    if r.remaining() < MAGIC.len() {
        return Err(CheckpointError::Truncated {
            at: 0,
            needed: MAGIC.len() - r.remaining(),
        });
    }
    if r.bytes(MAGIC.len())? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.u32()?;
    if version == 0 || version > FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }

    let mut state = BatchedRunState::default();
    let mut declared_systems = 0usize;
    let (mut have_meta, mut have_end) = (false, false);
    while r.remaining() > 0 {
        let tag = r.u32()?;
        let len = r.u64()? as usize;
        let crc = r.u32()?;
        let payload = r.bytes(len)?;
        if crc32(payload) != crc {
            return Err(CheckpointError::CrcMismatch {
                section: section_name(tag),
            });
        }
        let mut s = Reader::new(payload);
        match tag {
            TAG_BATCHED_META => {
                state.sweep_fingerprint = s.u64()?;
                state.threads = s.u64()?;
                state.pass = s.u64()?;
                declared_systems = s.u64()? as usize;
                have_meta = true;
            }
            TAG_SYSTEM => {
                let label_len = s.u64()? as usize;
                if label_len > s.remaining() || label_len > 4096 {
                    return Err(malformed(format!(
                        "system label length {label_len} exceeds payload"
                    )));
                }
                let label = std::str::from_utf8(s.bytes(label_len)?)
                    .map_err(|_| malformed("system label is not UTF-8"))?
                    .to_string();
                let flag = s.u8()?;
                let mut d = [0u64; 3];
                for w in &mut d {
                    *w = s.u64()?;
                }
                let diverged = (flag != 0).then_some(d);
                let nested_len = s.u64()? as usize;
                if nested_len > s.remaining() {
                    return Err(malformed(format!(
                        "nested system state length {nested_len} exceeds payload"
                    )));
                }
                let nested = decode(s.bytes(nested_len)?)?;
                state.systems.push(BatchedSystemState {
                    label,
                    diverged,
                    state: nested,
                });
            }
            TAG_END => have_end = true,
            _ => { /* unknown but CRC-valid section: skip (forward compat) */ }
        }
    }

    if !have_end {
        return Err(malformed(
            "missing end-of-checkpoint marker (torn write at a section boundary)".to_string(),
        ));
    }
    if !have_meta {
        return Err(malformed(
            "missing batched-meta section (not a batched checkpoint)".to_string(),
        ));
    }
    if state.systems.len() != declared_systems {
        return Err(malformed(format!(
            "batched checkpoint declares {declared_systems} systems but carries {}",
            state.systems.len()
        )));
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> RunState {
        let particles: Vec<Particle> = (0..17)
            .map(|i| Particle {
                center: Vec3::new(i as f64 * 0.31, -(i as f64) * 0.07, (i % 5) as f64),
                radius: 0.1 + i as f64 * 1e-3,
                batch: i / 6,
                set: i % 2,
            })
            .collect();
        let batches = vec![BatchStats {
            index: 0,
            requested: 17,
            accepted: true,
            steps: 212,
            best_fitness: 3.5e-2,
            mean_overlap_ratio: 0.011,
            mean_boundary_ratio: 0.002,
            duration: Duration::from_millis(37),
            verlet_rebuilds: 9,
            phase: BatchPhaseBreakdown {
                spawn: Duration::from_micros(412),
                optimize: Duration::from_millis(35),
                gradient: Duration::from_millis(20),
                optimizer: Duration::from_millis(8),
                acceptance: Duration::from_micros(881),
            },
        }];
        RunState {
            seed: 42,
            params_fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            global_step: 999,
            recoveries: 2,
            preexisting: 0,
            target: 100,
            batch_index: 1,
            packed: 17,
            batch_size: 40,
            elapsed_ns: 123_456_789,
            evals: 1234,
            verlet_rebuilds: 56,
            rng: [1, 2, 3, u64::MAX],
            particles,
            batches,
        }
    }

    #[test]
    fn round_trip_is_bitwise_exact() {
        let state = sample_state();
        let bytes = encode(&state);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, state);
        // Float equality above uses PartialEq (NaN-hostile); spot-check
        // the bit patterns of a few floats explicitly.
        assert_eq!(
            back.particles[3].center.x.to_bits(),
            state.particles[3].center.x.to_bits()
        );
    }

    #[test]
    fn nan_fitness_survives_the_round_trip() {
        let mut state = sample_state();
        state.batches[0].best_fitness = f64::NAN;
        let back = decode(&encode(&state)).unwrap();
        assert!(back.batches[0].best_fitness.is_nan());
    }

    #[test]
    fn retired_mid_batch_section_is_refused_not_skipped() {
        // Older builds wrote a CRC-valid tag-4 `batch` section before the
        // footer. Skipping it would resume with the RNG already past that
        // batch's spawn, so the decoder must refuse it by name.
        let mut bytes = encode(&sample_state());
        let footer = bytes.split_off(bytes.len() - 16);
        let payload = [0x5Au8; 24];
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&footer);
        let err = decode(&bytes).expect_err("mid-batch checkpoint accepted");
        assert_eq!(err, CheckpointError::MidBatch);
        let msg = err.to_string();
        assert!(
            msg.contains("mid-batch") && msg.contains("'batch'"),
            "{msg}"
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&sample_state());
        bytes[0] ^= 0xFF;
        assert_eq!(decode(&bytes), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn newer_version_rejected() {
        let mut bytes = encode(&sample_state());
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert_eq!(
            decode(&bytes),
            Err(CheckpointError::UnsupportedVersion(FORMAT_VERSION + 1))
        );
    }

    #[test]
    fn every_truncation_point_is_detected() {
        let bytes = encode(&sample_state());
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).expect_err("truncated checkpoint accepted");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. }
                        | CheckpointError::CrcMismatch { .. }
                        | CheckpointError::Malformed(_)
                        | CheckpointError::BadMagic
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn single_bit_flips_fail_the_crc() {
        let bytes = encode(&sample_state());
        // Flip one bit in each section's payload region (skip the 12-byte
        // header so the magic/version checks don't mask the CRC).
        for &offset in &[20usize, bytes.len() / 2, bytes.len() - 3] {
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= 0x10;
            let err = decode(&corrupt).expect_err("corrupt checkpoint accepted");
            assert!(
                matches!(
                    err,
                    CheckpointError::CrcMismatch { .. }
                        | CheckpointError::Truncated { .. }
                        | CheckpointError::Malformed(_)
                ),
                "offset {offset}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let state = sample_state();
        let mut bytes = encode(&state);
        // Append a future-format section with a valid CRC.
        let payload = b"future payload";
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        assert_eq!(decode(&bytes).unwrap(), state);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    fn sample_batched() -> BatchedRunState {
        let mut healthy = sample_state();
        healthy.seed = 11;
        let mut dead = sample_state();
        dead.seed = 22;
        BatchedRunState {
            sweep_fingerprint: 0xFEED_FACE_0123_4567,
            threads: 4,
            pass: 9,
            systems: vec![
                BatchedSystemState {
                    label: "s11_lr0.01".to_string(),
                    diverged: None,
                    state: healthy,
                },
                BatchedSystemState {
                    label: "s22_lr0.02".to_string(),
                    diverged: Some([3, 417, 5]),
                    state: dead,
                },
            ],
        }
    }

    #[test]
    fn batched_round_trip_is_bitwise_exact() {
        let state = sample_batched();
        let back = decode_batched(&encode_batched(&state)).unwrap();
        assert_eq!(back, state);
        assert_eq!(
            back.systems[0].state.particles[3].center.x.to_bits(),
            state.systems[0].state.particles[3].center.x.to_bits()
        );
    }

    #[test]
    fn batched_and_single_decoders_reject_each_other() {
        let single = encode(&sample_state());
        assert!(matches!(
            decode_batched(&single),
            Err(CheckpointError::Malformed(_))
        ));
        let batched = encode_batched(&sample_batched());
        assert!(matches!(
            decode(&batched),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn batched_truncations_and_bit_flips_are_detected() {
        let bytes = encode_batched(&sample_batched());
        for cut in [0, 5, 13, bytes.len() / 3, bytes.len() - 1] {
            assert!(decode_batched(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for &offset in &[16usize, bytes.len() / 2, bytes.len() - 20] {
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= 0x04;
            assert!(decode_batched(&corrupt).is_err(), "flip at {offset}");
        }
    }
}

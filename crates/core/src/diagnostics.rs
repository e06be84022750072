//! Convergence diagnostics for the packing loop.
//!
//! A [`DiagEngine`] rides along inside [`crate::collective::CollectivePacker`]
//! when diagnostics are enabled (`DiagMode::Summary` or `::Events`; the
//! default `Off` costs nothing). It is a [`TraceSink`]: it consumes the
//! packer's one per-step record stream, the same [`StepRecord`]s a trace
//! file receives, drained at each batch boundary — so it reads each step's
//! loss and gradient norm exactly as the trace persists them, and never
//! sees a step a sentinel rollback reverted. After each drain it distills
//! the batch's trailing window into one [`DiagRecord`]:
//!
//! * **loss slope** — per-step slope of the least-squares line through the
//!   window's losses (negative = improving),
//! * **grad trend** — mean gradient norm over the window's last half
//!   divided by its first half (< 1 = gradients shrinking),
//! * **oscillation rate** — fraction of window steps whose loss delta
//!   flipped sign (≈ 1 means the step size overshoots every step),
//! * **acceptance rate** — accepted fraction of the recent batches.
//!
//! Classification (see DESIGN.md §12 for the exact thresholds): a clearly
//! positive relative slope is **diverging**; a sign-flip rate above ½ is
//! **oscillating**; a flat slope is **stalled**; anything else is
//! **improving**. The stall signal is advisory — it is surfaced to the log
//! and the report next to the divergence sentinel's hard rollbacks, never
//! instead of them.
//!
//! The engine is preallocated (`window` slots) and allocation-free per
//! record; it is off by default because the record stream it reads costs
//! every step a fused breakdown evaluation and two reductions when no
//! trace sink is already paying for them.

use adampack_telemetry::diag::DiagRecord;
use adampack_telemetry::{timeline, StepRecord, TraceSink};

pub use adampack_telemetry::diag::{Convergence, DiagMode};

/// Relative loss slope above which a window counts as diverging.
const DIVERGING_REL_SLOPE: f64 = 1e-6;
/// Relative loss slope magnitude below which a window counts as flat.
const STALL_REL_SLOPE: f64 = 1e-6;
/// Sign-flip rate above which a window counts as oscillating.
const OSCILLATION_RATE: f64 = 0.5;

/// How many recent batches the acceptance-rate trajectory covers.
const ACCEPT_WINDOW: usize = 16;

/// Per-run convergence-diagnostics state. See the module docs.
#[derive(Debug)]
pub struct DiagEngine {
    mode: DiagMode,
    label: String,
    /// Ring of the last `window` losses (insertion order via `head`/`len`).
    losses: Vec<f64>,
    /// Ring of the last `window` gradient norms, aligned with `losses`.
    grads: Vec<f64>,
    head: usize,
    len: usize,
    /// Steps seen this batch (window may be smaller).
    batch_steps: u64,
    /// Sign flips of the loss delta this batch.
    flips: u64,
    prev_loss: f64,
    prev_delta_sign: i8,
    /// Accepted/rejected outcomes of the last [`ACCEPT_WINDOW`] batches.
    accepts: Vec<bool>,
    accept_head: usize,
    accept_len: usize,
    records: Vec<DiagRecord>,
    stall_streak: u64,
}

impl DiagEngine {
    /// The sliding window, in steps, the packer runs diagnostics with.
    pub const WINDOW: usize = 64;

    /// Creates an engine with a `window`-step sliding window (clamped to
    /// at least 4 steps).
    pub fn new(mode: DiagMode, window: usize) -> DiagEngine {
        let window = window.max(4);
        DiagEngine {
            mode,
            label: String::new(),
            losses: vec![0.0; window],
            grads: vec![0.0; window],
            head: 0,
            len: 0,
            batch_steps: 0,
            flips: 0,
            prev_loss: f64::NAN,
            prev_delta_sign: 0,
            accepts: vec![false; ACCEPT_WINDOW],
            accept_head: 0,
            accept_len: 0,
            records: Vec::new(),
            stall_streak: 0,
        }
    }

    /// The diagnostics mode this engine runs at.
    pub fn mode(&self) -> DiagMode {
        self.mode
    }

    /// Sets the system label stamped into records (batched sweeps).
    pub fn set_label(&mut self, label: &str) {
        self.label.clear();
        self.label.push_str(label);
    }

    /// Window value at logical position `i` (0 = oldest).
    fn at(&self, buf: &[f64], i: usize) -> f64 {
        buf[(self.head + i) % buf.len()]
    }

    /// Distills the steps recorded since the previous call into a
    /// [`DiagRecord`], appends it to the run's record list, updates the
    /// stall streak and (in `Events` mode) emits timeline instants, then
    /// clears the per-batch window. Returns a copy of the record.
    pub fn finish_batch(&mut self, batch: u64, accepted: bool) -> DiagRecord {
        // Acceptance trajectory over recent batches.
        let cap = self.accepts.len();
        let idx = (self.accept_head + self.accept_len) % cap;
        self.accepts[idx] = accepted;
        if self.accept_len == cap {
            self.accept_head = (self.accept_head + 1) % cap;
        } else {
            self.accept_len += 1;
        }
        let accept_rate = if self.accept_len == 0 {
            f64::NAN
        } else {
            let mut hits = 0usize;
            for i in 0..self.accept_len {
                if self.accepts[(self.accept_head + i) % cap] {
                    hits += 1;
                }
            }
            hits as f64 / self.accept_len as f64
        };

        let n = self.len;
        // Least-squares slope of loss over the window (x = 0..n-1).
        let (loss_slope, mean_abs) = if n >= 2 {
            let nf = n as f64;
            let mean_x = (nf - 1.0) / 2.0;
            let mut mean_y = 0.0;
            let mut mean_abs = 0.0;
            for i in 0..n {
                let y = self.at(&self.losses, i);
                mean_y += y;
                mean_abs += y.abs();
            }
            mean_y /= nf;
            mean_abs /= nf;
            let mut num = 0.0;
            let mut den = 0.0;
            for i in 0..n {
                let dx = i as f64 - mean_x;
                num += dx * (self.at(&self.losses, i) - mean_y);
                den += dx * dx;
            }
            (num / den.max(1e-300), mean_abs)
        } else {
            (f64::NAN, 0.0)
        };
        // Gradient trend: last-half mean over first-half mean.
        let grad_trend = if n >= 4 {
            let half = n / 2;
            let first: f64 = (0..half).map(|i| self.at(&self.grads, i)).sum::<f64>() / half as f64;
            let last: f64 =
                (n - half..n).map(|i| self.at(&self.grads, i)).sum::<f64>() / half as f64;
            last / first.max(1e-300)
        } else {
            f64::NAN
        };
        let osc_rate = if self.batch_steps >= 2 {
            self.flips as f64 / (self.batch_steps - 1) as f64
        } else {
            0.0
        };

        let rel_slope = loss_slope / mean_abs.max(1e-12);
        let classification = if osc_rate > OSCILLATION_RATE {
            Convergence::Oscillating
        } else if rel_slope.is_nan() {
            Convergence::Stalled
        } else if rel_slope > DIVERGING_REL_SLOPE {
            Convergence::Diverging
        } else if rel_slope.abs() <= STALL_REL_SLOPE {
            Convergence::Stalled
        } else {
            Convergence::Improving
        };
        if classification == Convergence::Stalled {
            self.stall_streak += 1;
        } else {
            self.stall_streak = 0;
        }

        let record = DiagRecord {
            system: self.label.clone(),
            batch,
            steps: self.batch_steps,
            loss_slope,
            grad_trend,
            accept_rate,
            osc_rate,
            classification,
        };
        if self.mode == DiagMode::Events {
            timeline::instant("diag.loss_slope", loss_slope);
            timeline::instant("diag.grad_trend", grad_trend);
            timeline::instant("diag.accept_rate", accept_rate);
            timeline::instant("diag.osc_rate", osc_rate);
            if classification == Convergence::Stalled {
                timeline::instant("diag.stalled", self.stall_streak as f64);
            }
        }
        // Fresh window for the next batch's records.
        self.head = 0;
        self.len = 0;
        self.batch_steps = 0;
        self.flips = 0;
        self.prev_loss = f64::NAN;
        self.prev_delta_sign = 0;
        self.records.push(record.clone());
        record
    }

    /// Consecutive batches classified as stalled, ending at the last one.
    pub fn stall_streak(&self) -> u64 {
        self.stall_streak
    }

    /// All records so far.
    pub fn records(&self) -> &[DiagRecord] {
        &self.records
    }

    /// Takes the accumulated records, leaving the engine reusable.
    pub fn take_records(&mut self) -> Vec<DiagRecord> {
        std::mem::take(&mut self.records)
    }
}

/// Feeds one step record into the batch window. Allocation-free.
impl TraceSink for DiagEngine {
    fn record(&mut self, record: &StepRecord) {
        let (loss, grad_norm) = (record.loss, record.grad_norm);
        let cap = self.losses.len();
        let idx = (self.head + self.len) % cap;
        self.losses[idx] = loss;
        self.grads[idx] = grad_norm;
        if self.len == cap {
            self.head = (self.head + 1) % cap;
        } else {
            self.len += 1;
        }
        if self.prev_loss.is_finite() && loss.is_finite() {
            let delta = loss - self.prev_loss;
            let sign = if delta > 0.0 {
                1
            } else if delta < 0.0 {
                -1
            } else {
                0
            };
            if sign != 0 && self.prev_delta_sign != 0 && sign != self.prev_delta_sign {
                self.flips += 1;
            }
            if sign != 0 {
                self.prev_delta_sign = sign;
            }
        }
        self.prev_loss = loss;
        self.batch_steps += 1;
    }
}

/// A run-level digest of the per-batch diagnostics, for the quality
/// report and the provenance manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagSummary {
    /// Batches diagnosed.
    pub batches: u64,
    /// Batches classified stalled.
    pub stalled: u64,
    /// Batches classified oscillating.
    pub oscillating: u64,
    /// Batches classified diverging.
    pub diverging: u64,
    /// The last batch's classification.
    pub last: Convergence,
    /// The last batch's loss slope.
    pub last_loss_slope: f64,
    /// Mean acceptance rate over the records' trailing windows.
    pub mean_accept_rate: f64,
}

impl DiagSummary {
    /// Summarizes a record list (`None` when empty).
    pub fn from_records(records: &[DiagRecord]) -> Option<DiagSummary> {
        let last = records.last()?;
        let finite_rates: Vec<f64> = records
            .iter()
            .map(|r| r.accept_rate)
            .filter(|r| r.is_finite())
            .collect();
        Some(DiagSummary {
            batches: records.len() as u64,
            stalled: records
                .iter()
                .filter(|r| r.classification == Convergence::Stalled)
                .count() as u64,
            oscillating: records
                .iter()
                .filter(|r| r.classification == Convergence::Oscillating)
                .count() as u64,
            diverging: records
                .iter()
                .filter(|r| r.classification == Convergence::Diverging)
                .count() as u64,
            last: last.classification,
            last_loss_slope: last.loss_slope,
            mean_accept_rate: if finite_rates.is_empty() {
                f64::NAN
            } else {
                finite_rates.iter().sum::<f64>() / finite_rates.len() as f64
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(engine: &mut DiagEngine, losses: &[f64], grads: &[f64]) {
        for (&loss, &grad_norm) in losses.iter().zip(grads) {
            engine.record(&StepRecord {
                loss,
                grad_norm,
                ..StepRecord::default()
            });
        }
    }

    #[test]
    fn decreasing_loss_classifies_improving() {
        let mut e = DiagEngine::new(DiagMode::Summary, 32);
        let losses: Vec<f64> = (0..20).map(|i| 100.0 - 2.0 * i as f64).collect();
        let grads = vec![1.0; 20];
        drive(&mut e, &losses, &grads);
        let r = e.finish_batch(0, true);
        assert_eq!(r.classification, Convergence::Improving);
        assert!(r.loss_slope < 0.0, "slope {}", r.loss_slope);
        assert_eq!(r.accept_rate, 1.0);
        assert_eq!(r.steps, 20);
    }

    #[test]
    fn flat_loss_classifies_stalled_and_streak_counts() {
        let mut e = DiagEngine::new(DiagMode::Summary, 32);
        let losses = vec![5.0; 16];
        let grads = vec![1e-9; 16];
        drive(&mut e, &losses, &grads);
        let r = e.finish_batch(0, false);
        assert_eq!(r.classification, Convergence::Stalled);
        assert_eq!(e.stall_streak(), 1);
        drive(&mut e, &losses, &grads);
        e.finish_batch(1, false);
        assert_eq!(e.stall_streak(), 2);
        // A healthy batch resets the streak.
        let improving: Vec<f64> = (0..16).map(|i| 10.0 - i as f64).collect();
        drive(&mut e, &improving, &grads);
        e.finish_batch(2, true);
        assert_eq!(e.stall_streak(), 0);
    }

    #[test]
    fn alternating_loss_classifies_oscillating() {
        let mut e = DiagEngine::new(DiagMode::Summary, 32);
        let losses: Vec<f64> = (0..20)
            .map(|i| if i % 2 == 0 { 10.0 } else { 12.0 })
            .collect();
        let grads = vec![1.0; 20];
        drive(&mut e, &losses, &grads);
        let r = e.finish_batch(0, false);
        assert_eq!(r.classification, Convergence::Oscillating);
        assert!(r.osc_rate > 0.8, "osc_rate {}", r.osc_rate);
    }

    #[test]
    fn increasing_loss_classifies_diverging() {
        let mut e = DiagEngine::new(DiagMode::Summary, 32);
        let losses: Vec<f64> = (0..20).map(|i| 1.0 + 0.5 * i as f64).collect();
        let grads = vec![1.0; 20];
        drive(&mut e, &losses, &grads);
        let r = e.finish_batch(0, false);
        assert_eq!(r.classification, Convergence::Diverging);
    }

    #[test]
    fn window_slides_and_grad_trend_tracks_halves() {
        let mut e = DiagEngine::new(DiagMode::Summary, 8);
        // 100 steps into an 8-slot window: only the tail matters.
        let losses: Vec<f64> = (0..100).map(|i| 1000.0 - i as f64).collect();
        let grads: Vec<f64> = (0..100).map(|i| if i < 96 { 8.0 } else { 2.0 }).collect();
        drive(&mut e, &losses, &grads);
        let r = e.finish_batch(0, true);
        // Window holds steps 92..99: first half grads 8, last half grads 2.
        assert!(r.grad_trend < 0.5, "trend {}", r.grad_trend);
        assert!(r.loss_slope < 0.0);
        assert_eq!(r.steps, 100);
    }

    #[test]
    fn acceptance_window_is_bounded() {
        let mut e = DiagEngine::new(DiagMode::Summary, 8);
        let losses: Vec<f64> = (0..8).map(|i| 10.0 - i as f64).collect();
        let grads = vec![1.0; 8];
        // 20 rejected batches, then ACCEPT_WINDOW accepted ones: the rate
        // must fully recover to 1.0 (old rejections age out).
        for b in 0..20 {
            drive(&mut e, &losses, &grads);
            e.finish_batch(b, false);
        }
        let mut last = f64::NAN;
        for b in 20..(20 + ACCEPT_WINDOW as u64) {
            drive(&mut e, &losses, &grads);
            last = e.finish_batch(b, true).accept_rate;
        }
        assert_eq!(last, 1.0);
    }

    #[test]
    fn summary_counts_classifications() {
        let mut e = DiagEngine::new(DiagMode::Summary, 16);
        e.set_label("s0");
        let flat = vec![5.0; 12];
        let down: Vec<f64> = (0..12).map(|i| 100.0 - 5.0 * i as f64).collect();
        let grads = vec![1.0; 12];
        drive(&mut e, &flat, &grads);
        e.finish_batch(0, false);
        drive(&mut e, &down, &grads);
        e.finish_batch(1, true);
        let records = e.take_records();
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.system == "s0"));
        let s = DiagSummary::from_records(&records).unwrap();
        assert_eq!(s.batches, 2);
        assert_eq!(s.stalled, 1);
        assert_eq!(s.last, Convergence::Improving);
        assert!(s.mean_accept_rate > 0.0);
        assert!(DiagSummary::from_records(&[]).is_none());
        assert!(e.records().is_empty(), "take_records drains");
    }
}

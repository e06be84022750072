//! The convergence-trace pipeline.
//!
//! One [`StepRecord`] per optimizer step — everything needed to re-plot the
//! paper's Fig. 3 loss-vs-step curves (loss terms from the objective
//! breakdown, learning rate, gradient norm) plus the neighbor-pipeline
//! diagnostics (max displacement, Verlet rebuilds). Records are plain
//! `Copy` structs pushed into a preallocated overwrite-oldest
//! [`TraceRing`] inside the hot loop (zero allocation) and drained between
//! batches into every installed [`TraceSink`] — the [`JsonlWriter`], whose
//! line format is parsed back by [`StepRecord::parse`] for schema tests,
//! the packer's convergence diagnostics, or both. The record is the one
//! per-step record of the workspace: every consumer reads the same stream.

use std::io::Write;
use std::sync::{Arc, Mutex};

use crate::metrics::{TRACE_RECORDS_DROPPED_TOTAL, TRACE_RECORDS_TOTAL};

/// One optimizer step of one batch, as recorded by the packing loop.
///
/// Serialized as a flat JSON object with exactly the keys in
/// [`StepRecord::FIELDS`]; non-finite floats serialize as `null` and parse
/// back as NaN.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepRecord {
    /// Sequential batch index within the packing run.
    pub batch: u64,
    /// Step index within the batch (0-based, monotone per batch).
    pub step: u64,
    /// Weighted objective total `Z(C)` at this step (before the update).
    pub loss: f64,
    /// Unweighted intra-batch penetration `P(C,C)`.
    pub penetration_intra: f64,
    /// Unweighted cross-layer penetration `P(C,C')`.
    pub penetration_cross: f64,
    /// Unweighted altitude term `A(C)`.
    pub altitude: f64,
    /// Unweighted exterior distance `E_H(C)`.
    pub exterior: f64,
    /// Euclidean norm of the full gradient buffer.
    pub grad_norm: f64,
    /// Learning rate in effect for the update.
    pub lr: f64,
    /// Largest per-coordinate displacement since the previous record.
    pub max_disp: f64,
    /// Cumulative Verlet rebuilds served to this batch so far.
    pub verlet_rebuilds: u64,
}

/// Error from [`StepRecord::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// What went wrong, with byte context.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error: {}", self.message)
    }
}

impl std::error::Error for TraceParseError {}

fn parse_err(message: impl Into<String>) -> TraceParseError {
    TraceParseError {
        message: message.into(),
    }
}

/// Appends `x` as a JSON number (or `null` when non-finite).
fn push_json_f64(out: &mut String, x: f64) {
    use std::fmt::Write;
    if x.is_finite() {
        write!(out, "{x}").unwrap();
    } else {
        out.push_str("null");
    }
}

impl StepRecord {
    /// The JSONL schema: every serialized line contains exactly these keys,
    /// in this order.
    pub const FIELDS: [&'static str; 11] = [
        "batch",
        "step",
        "loss",
        "penetration_intra",
        "penetration_cross",
        "altitude",
        "exterior",
        "grad_norm",
        "lr",
        "max_disp",
        "verlet_rebuilds",
    ];

    /// Serializes the record as one JSON object (no trailing newline) into
    /// `out`, which is cleared first and can be reused across records.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        out.clear();
        write!(
            out,
            "{{\"batch\":{},\"step\":{},\"loss\":",
            self.batch, self.step
        )
        .unwrap();
        push_json_f64(out, self.loss);
        out.push_str(",\"penetration_intra\":");
        push_json_f64(out, self.penetration_intra);
        out.push_str(",\"penetration_cross\":");
        push_json_f64(out, self.penetration_cross);
        out.push_str(",\"altitude\":");
        push_json_f64(out, self.altitude);
        out.push_str(",\"exterior\":");
        push_json_f64(out, self.exterior);
        out.push_str(",\"grad_norm\":");
        push_json_f64(out, self.grad_norm);
        out.push_str(",\"lr\":");
        push_json_f64(out, self.lr);
        out.push_str(",\"max_disp\":");
        push_json_f64(out, self.max_disp);
        write!(out, ",\"verlet_rebuilds\":{}}}", self.verlet_rebuilds).unwrap();
    }

    /// Parses one JSONL line produced by [`StepRecord::write_json`].
    ///
    /// Accepts any flat JSON object with string keys and numeric/`null`
    /// values; unknown keys are ignored (forward compatibility), missing
    /// schema keys are an error, `null` parses as NaN.
    pub fn parse(line: &str) -> Result<StepRecord, TraceParseError> {
        let mut record = StepRecord::default();
        let mut seen = [false; Self::FIELDS.len()];

        let s = line.trim();
        let inner = s
            .strip_prefix('{')
            .and_then(|r| r.strip_suffix('}'))
            .ok_or_else(|| parse_err(format!("not a JSON object: {s:.40}")))?;

        let mut rest = inner.trim();
        while !rest.is_empty() {
            // Key: a double-quoted identifier (no escapes in this schema).
            let after_quote = rest
                .strip_prefix('"')
                .ok_or_else(|| parse_err(format!("expected '\"' at: {rest:.20}")))?;
            let end = after_quote
                .find('"')
                .ok_or_else(|| parse_err("unterminated key"))?;
            let key = &after_quote[..end];
            let after_key = after_quote[end + 1..].trim_start();
            let after_colon = after_key
                .strip_prefix(':')
                .ok_or_else(|| parse_err(format!("expected ':' after key '{key}'")))?
                .trim_start();

            // Value: a bare JSON number or null (strings/arrays/objects are
            // not part of this schema).
            let value_len = after_colon.find(',').unwrap_or(after_colon.len());
            let raw_value = after_colon[..value_len].trim();
            let value: f64 = if raw_value == "null" {
                f64::NAN
            } else {
                raw_value
                    .parse()
                    .map_err(|_| parse_err(format!("bad number '{raw_value}' for key '{key}'")))?
            };

            if let Some(idx) = Self::FIELDS.iter().position(|&f| f == key) {
                seen[idx] = true;
                match key {
                    "batch" => record.batch = value as u64,
                    "step" => record.step = value as u64,
                    "loss" => record.loss = value,
                    "penetration_intra" => record.penetration_intra = value,
                    "penetration_cross" => record.penetration_cross = value,
                    "altitude" => record.altitude = value,
                    "exterior" => record.exterior = value,
                    "grad_norm" => record.grad_norm = value,
                    "lr" => record.lr = value,
                    "max_disp" => record.max_disp = value,
                    "verlet_rebuilds" => record.verlet_rebuilds = value as u64,
                    _ => unreachable!("key in FIELDS"),
                }
            }

            rest = if value_len == after_colon.len() {
                ""
            } else {
                after_colon[value_len + 1..].trim_start()
            };
        }

        if let Some(idx) = seen.iter().position(|&s| !s) {
            return Err(parse_err(format!("missing key '{}'", Self::FIELDS[idx])));
        }
        Ok(record)
    }
}

// ---------------------------------------------------------------------------
// TraceRing
// ---------------------------------------------------------------------------

/// A preallocated overwrite-oldest ring of [`StepRecord`]s.
///
/// `push` never allocates; when the ring is full the oldest record is
/// overwritten and counted in [`TraceRing::dropped`] (and the global
/// `adampack_trace_records_dropped_total` counter). Drain between batches
/// with [`TraceRing::drain_into`].
#[derive(Debug)]
pub struct TraceRing {
    buf: Box<[StepRecord]>,
    /// Index of the oldest live record.
    head: usize,
    /// Live records (≤ capacity).
    len: usize,
    dropped: u64,
}

impl TraceRing {
    /// Allocates a ring holding up to `capacity` records (min 1).
    pub fn with_capacity(capacity: usize) -> TraceRing {
        TraceRing {
            buf: vec![StepRecord::default(); capacity.max(1)].into_boxed_slice(),
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Capacity in records.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Live records awaiting drain.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no records await drain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records overwritten before being drained, since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends a record, overwriting the oldest when full. Allocation-free.
    #[inline]
    pub fn push(&mut self, record: StepRecord) {
        let cap = self.buf.len();
        if self.len == cap {
            self.buf[self.head] = record;
            self.head = (self.head + 1) % cap;
            self.dropped += 1;
            TRACE_RECORDS_DROPPED_TOTAL.inc();
        } else {
            self.buf[(self.head + self.len) % cap] = record;
            self.len += 1;
        }
    }

    /// Discards records newer than the first `keep` live ones.
    ///
    /// Used by the divergence sentinel when it rolls a batch back: records
    /// written by the rolled-back steps would otherwise be drained alongside
    /// their replayed counterparts, duplicating (and misordering) steps in
    /// the JSONL trace. `keep` larger than the live count is a no-op.
    pub fn truncate(&mut self, keep: usize) {
        self.len = self.len.min(keep);
        if self.len == 0 {
            self.head = 0;
        }
    }

    /// Delivers all live records oldest-first to every present sink, in
    /// slice order, then clears the ring (capacity retained) and flushes
    /// the sinks. Each record counts once in
    /// `adampack_trace_records_total`, however many sinks receive it.
    pub fn drain_into(&mut self, sinks: &mut [Option<&mut dyn TraceSink>]) {
        let cap = self.buf.len();
        for i in 0..self.len {
            let record = &self.buf[(self.head + i) % cap];
            for sink in sinks.iter_mut().flatten() {
                sink.record(record);
            }
        }
        TRACE_RECORDS_TOTAL.add(self.len as u64);
        self.head = 0;
        self.len = 0;
        for sink in sinks.iter_mut().flatten() {
            sink.flush();
        }
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Receives drained trace records. Called between batches, never inside the
/// optimizer loop — implementations may allocate and do I/O.
pub trait TraceSink: Send {
    /// Handles one record.
    fn record(&mut self, record: &StepRecord);
    /// Flushes buffered output (end of a drain).
    fn flush(&mut self) {}
}

/// Writes records as JSON Lines (`application/jsonl`): one flat object per
/// line in the [`StepRecord::FIELDS`] schema.
///
/// Dropping the writer flushes it, so a trace file stays line-complete even
/// when the owning run unwinds mid-batch: every line that reached the sink
/// is parseable, the interrupted record simply never got in. Each record is
/// staged in an internal buffer and handed to the writer as one `write_all`
/// call, so a `BufWriter`-backed sink never persists half a line unless the
/// OS itself tears the write.
#[derive(Debug)]
pub struct JsonlWriter<W: Write + Send> {
    /// `None` only after [`JsonlWriter::into_inner`]; the `Option` exists so
    /// the drop guard and the by-value unwrap can coexist.
    writer: Option<W>,
    /// Reused per-record serialization buffer.
    line: String,
    written: u64,
    /// First I/O error encountered, reported once via the log facade.
    failed: bool,
}

impl<W: Write + Send> JsonlWriter<W> {
    /// Wraps a writer (use a `BufWriter` for files).
    pub fn new(writer: W) -> JsonlWriter<W> {
        JsonlWriter {
            writer: Some(writer),
            line: String::with_capacity(256),
            written: 0,
            failed: false,
        }
    }

    /// Records successfully written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Unwraps the inner writer after a final flush.
    pub fn into_inner(mut self) -> W {
        self.flush();
        self.writer.take().expect("writer present until into_inner")
    }
}

impl<W: Write + Send> Drop for JsonlWriter<W> {
    fn drop(&mut self) {
        // Flush even when dropped by an unwinding panic — a best-effort
        // guard that keeps the JSONL file valid up to the last full record.
        self.flush();
    }
}

impl<W: Write + Send> TraceSink for JsonlWriter<W> {
    fn record(&mut self, record: &StepRecord) {
        let Some(writer) = self.writer.as_mut() else {
            return;
        };
        if self.failed {
            return;
        }
        record.write_json(&mut self.line);
        self.line.push('\n');
        if let Err(e) = writer.write_all(self.line.as_bytes()) {
            self.failed = true;
            crate::error!("trace sink write failed, disabling: {e}");
            return;
        }
        self.written += 1;
    }

    fn flush(&mut self) {
        let Some(writer) = self.writer.as_mut() else {
            return;
        };
        if !self.failed {
            if let Err(e) = writer.flush() {
                self.failed = true;
                crate::error!("trace sink flush failed, disabling: {e}");
            }
        }
    }
}

/// A sink that collects records in memory (tests, experiments). Clones
/// share one buffer, so a clone kept by the caller reads what the clone
/// installed in a packer collected.
#[derive(Debug, Clone, Default)]
pub struct VecSink(Arc<Mutex<Vec<StepRecord>>>);

impl VecSink {
    /// The records collected so far, oldest first.
    pub fn records(&self) -> Vec<StepRecord> {
        self.0.lock().unwrap().clone()
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, record: &StepRecord) {
        self.0.lock().unwrap().push(*record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(step: u64) -> StepRecord {
        StepRecord {
            batch: 3,
            step,
            loss: 1234.5678,
            penetration_intra: 1.5,
            penetration_cross: 0.25,
            altitude: -42.0,
            exterior: 0.0,
            grad_norm: 9.875,
            lr: 0.01,
            max_disp: 0.003,
            verlet_rebuilds: 7,
        }
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let r = sample(11);
        let mut line = String::new();
        r.write_json(&mut line);
        assert!(line.starts_with('{') && line.ends_with('}'));
        let back = StepRecord::parse(&line).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn json_keys_match_the_declared_schema() {
        let mut line = String::new();
        sample(0).write_json(&mut line);
        for key in StepRecord::FIELDS {
            assert!(line.contains(&format!("\"{key}\":")), "missing {key}");
        }
        // Exactly the schema keys, no extras.
        assert_eq!(line.matches("\":").count(), StepRecord::FIELDS.len());
    }

    #[test]
    fn non_finite_floats_become_null_and_back_nan() {
        let mut r = sample(0);
        r.grad_norm = f64::INFINITY;
        r.loss = f64::NAN;
        let mut line = String::new();
        r.write_json(&mut line);
        assert!(line.contains("\"grad_norm\":null"));
        assert!(line.contains("\"loss\":null"));
        let back = StepRecord::parse(&line).unwrap();
        assert!(back.grad_norm.is_nan() && back.loss.is_nan());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(StepRecord::parse("").is_err());
        assert!(StepRecord::parse("not json").is_err());
        assert!(StepRecord::parse("{\"batch\":1}").is_err(), "missing keys");
        assert!(StepRecord::parse("{\"batch\":oops}").is_err());
        // Unknown keys are tolerated as long as the schema is complete.
        let mut line = String::new();
        sample(0).write_json(&mut line);
        let extended = format!("{}{}", &line[..line.len() - 1], ",\"future_field\":1}");
        assert_eq!(StepRecord::parse(&extended).unwrap(), sample(0));
    }

    #[test]
    fn ring_preserves_order_and_overwrites_oldest() {
        let mut ring = TraceRing::with_capacity(4);
        assert!(ring.is_empty());
        for step in 0..6 {
            ring.push(sample(step));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 2);
        let mut sink = VecSink::default();
        ring.drain_into(&mut [Some(&mut sink)]);
        let steps: Vec<u64> = sink.records().iter().map(|r| r.step).collect();
        assert_eq!(steps, vec![2, 3, 4, 5], "oldest two overwritten");
        assert!(ring.is_empty());
        // Ring is reusable after a drain.
        ring.push(sample(9));
        ring.drain_into(&mut [Some(&mut sink)]);
        assert_eq!(sink.records().last().unwrap().step, 9);
    }

    #[test]
    fn truncate_discards_newest_records_only() {
        let mut ring = TraceRing::with_capacity(8);
        for step in 0..6 {
            ring.push(sample(step));
        }
        ring.truncate(4); // sentinel rollback to the snapshot at step 4
        let mut sink = VecSink::default();
        ring.drain_into(&mut [Some(&mut sink)]);
        let steps: Vec<u64> = sink.records().iter().map(|r| r.step).collect();
        assert_eq!(steps, vec![0, 1, 2, 3], "newest records discarded");
        // Oversized keep is a no-op; truncate works across a wrap, too.
        let mut ring = TraceRing::with_capacity(4);
        for step in 0..7 {
            ring.push(sample(step)); // live: 3,4,5,6 (head wrapped)
        }
        ring.truncate(100);
        assert_eq!(ring.len(), 4);
        ring.truncate(2);
        let mut sink = VecSink::default();
        ring.drain_into(&mut [Some(&mut sink)]);
        let steps: Vec<u64> = sink.records().iter().map(|r| r.step).collect();
        assert_eq!(steps, vec![3, 4], "keeps the oldest live records");
    }

    #[test]
    fn drain_delivers_every_record_to_every_sink() {
        let mut ring = TraceRing::with_capacity(8);
        for step in 0..3 {
            ring.push(sample(step));
        }
        let (mut a, mut b) = (VecSink::default(), VecSink::default());
        ring.drain_into(&mut [Some(&mut a), None, Some(&mut b)]);
        assert_eq!(a.records().len(), 3);
        assert_eq!(a.records(), b.records(), "both sinks see one stream");
        assert!(ring.is_empty());
    }

    /// A `Write` impl that appends into shared storage, so the buffer's
    /// contents survive the `JsonlWriter` being dropped.
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_writer_flushes_on_drop_even_mid_panic() {
        let storage = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let result = std::panic::catch_unwind({
            let storage = storage.clone();
            move || {
                let inner = std::io::BufWriter::with_capacity(1 << 16, SharedBuf(storage));
                let mut sink = JsonlWriter::new(inner);
                for step in 0..3 {
                    sink.record(&sample(step));
                }
                // Nothing reached the shared storage yet: it all sits in the
                // BufWriter. The panic must not lose it.
                panic!("simulated mid-run crash");
            }
        });
        assert!(result.is_err());
        let bytes = storage.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "drop guard flushed the buffered records");
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(StepRecord::parse(line).unwrap().step, i as u64);
        }
    }

    #[test]
    fn jsonl_writer_emits_parseable_lines() {
        let mut ring = TraceRing::with_capacity(8);
        for step in 0..5 {
            ring.push(sample(step));
        }
        let mut sink = JsonlWriter::new(Vec::new());
        ring.drain_into(&mut [Some(&mut sink)]);
        assert_eq!(sink.written(), 5);
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for (i, line) in lines.iter().enumerate() {
            let r = StepRecord::parse(line).unwrap();
            assert_eq!(r.step, i as u64);
        }
    }
}

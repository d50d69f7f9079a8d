//! Per-iteration telemetry records and the sinks that receive them.

use std::fmt::Write as _;
use std::io::{self, Write};

use crate::{counter_snapshot, span_snapshot};

/// Which optimizer stage emitted a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Pixel-domain ILT (`run_pixel_ilt`), also CircleOpt's stage 1.
    PixelIlt,
    /// CircleOpt's stage 2, circle-level ILT (`cfaopc_core::run_circleopt`).
    CircleOpt,
}

impl Stage {
    /// Stable lowercase identifier used in JSONL output.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::PixelIlt => "pixel_ilt",
            Stage::CircleOpt => "circleopt",
        }
    }
}

/// One optimizer iteration's worth of telemetry.
///
/// `Copy`, fixed-size, and built on the stack each iteration — emitting
/// a record never allocates on the producer side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Optimizer stage that produced the record.
    pub stage: Stage,
    /// Zero-based iteration index within the stage.
    pub iteration: usize,
    /// Fidelity (L2) loss term.
    pub loss_l2: f64,
    /// Process-variation-band loss term.
    pub loss_pvb: f64,
    /// Weighted total loss.
    pub loss_total: f64,
    /// Lasso sparsity penalty (0 for the pixel stage).
    pub sparsity: f64,
    /// Active shots: circles with `q` above the activation floor
    /// (pixel stage: pixels above the print threshold).
    pub active: usize,
    /// Gradient L2 norm.
    pub grad_l2: f64,
    /// Gradient L∞ norm.
    pub grad_linf: f64,
}

/// Receiver for per-iteration optimizer telemetry, attached to a run
/// through the `sink` field of the optimizers' `RunOptions` (leave it
/// `None` for no telemetry).
///
/// Implementations must not assume records arrive for every iteration —
/// a health-guard abort stops the stream early — and should avoid
/// per-record allocation if attached to hot loops (see [`MemorySink`]).
pub trait TelemetrySink {
    /// Called once per optimizer iteration, after the step's bookkeeping.
    fn record(&mut self, rec: &IterationRecord);
}

/// Collects records into a pre-allocated `Vec`.
///
/// With [`MemorySink::with_capacity`] sized to the planned iteration
/// count, recording is allocation-free — this is what lets the
/// alloc-guard test run with a sink attached.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Vec<IterationRecord>,
}

impl MemorySink {
    /// Empty sink (grows on demand).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sink pre-sized for `cap` records; recording stays allocation-free
    /// until the capacity is exceeded.
    pub fn with_capacity(cap: usize) -> Self {
        MemorySink {
            records: Vec::with_capacity(cap),
        }
    }

    /// The records received so far, in arrival order.
    pub fn records(&self) -> &[IterationRecord] {
        &self.records
    }

    /// Drops all collected records, keeping the allocation.
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

impl TelemetrySink for MemorySink {
    fn record(&mut self, rec: &IterationRecord) {
        self.records.push(*rec);
    }
}

/// Streams records as JSON lines (one object per record) to a writer.
///
/// A reusable `String` buffer formats each line, so steady-state
/// recording allocates nothing beyond what the underlying writer does.
/// Non-finite floats serialize as `null` to stay valid JSON.
///
/// Recording never aborts an optimization, but write failures are not
/// lost either: the first `io::Error` is latched, further records are
/// dropped, and the error surfaces from [`JsonlSink::flush`],
/// [`JsonlSink::write_summary`], [`JsonlSink::write_error`] and
/// [`JsonlSink::take_error`]. This is how a long-running service detects
/// that a progress-streaming client has gone away.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    buf: String,
    error: Option<io::Error>,
}

fn push_f64(buf: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(buf, "{v}");
    } else {
        buf.push_str("null");
    }
}

/// Appends `s` to `buf` with JSON string escaping (`"`/`\`, common
/// control characters, `\u00XX` for the rest of C0). Shared by the
/// record and summary paths so no name interpolation can emit an
/// invalid line.
fn push_escaped(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
}

/// `io::Error` is not `Clone`; reconstruct a same-kind, same-message
/// error so a latched failure can be reported more than once.
fn copy_error(e: &io::Error) -> io::Error {
    io::Error::new(e.kind(), e.to_string())
}

impl<W: Write> JsonlSink<W> {
    /// Wraps `out`; each record becomes one JSON line.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            buf: String::with_capacity(256),
            error: None,
        }
    }

    /// The first write error seen, if any. The sink stops writing once
    /// an error is latched; callers polling between records (e.g. a
    /// streaming daemon) use this to detect a dead client without
    /// consuming the error.
    pub fn write_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Takes the latched write error, resetting the sink to a writable
    /// state (subsequent records go to the writer again).
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Writes one `{"kind":"counters",...}` line with the current
    /// counter values and one `{"kind":"span",...}` line per span node
    /// (preorder). Call after a run to append the aggregate picture.
    ///
    /// Returns the latched record-path error, if one occurred, without
    /// attempting further writes.
    pub fn write_summary(&mut self) -> io::Result<()> {
        if let Some(e) = &self.error {
            return Err(copy_error(e));
        }
        self.buf.clear();
        self.buf.push_str("{\"kind\":\"counters\"");
        for (name, value) in counter_snapshot() {
            self.buf.push_str(",\"");
            push_escaped(&mut self.buf, name);
            let _ = write!(self.buf, "\":{value}");
        }
        self.buf.push_str("}\n");
        for s in span_snapshot() {
            self.buf.push_str("{\"kind\":\"span\",\"name\":\"");
            push_escaped(&mut self.buf, s.name);
            let _ = writeln!(
                self.buf,
                "\",\"depth\":{},\"calls\":{},\"total_ns\":{}}}",
                s.depth, s.calls, s.total_ns
            );
        }
        match self.out.write_all(self.buf.as_bytes()) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.error = Some(copy_error(&e));
                Err(e)
            }
        }
    }

    /// Flushes the underlying writer; returns the latched record-path
    /// error first if one occurred.
    pub fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = &self.error {
            return Err(copy_error(e));
        }
        match self.out.flush() {
            Ok(()) => Ok(()),
            Err(e) => {
                self.error = Some(copy_error(&e));
                Err(e)
            }
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> TelemetrySink for JsonlSink<W> {
    fn record(&mut self, rec: &IterationRecord) {
        // Telemetry must never abort an optimization: the first I/O
        // error is latched (dropping this and later records) and
        // surfaces through `flush`/`write_summary`/`take_error`.
        if self.error.is_some() {
            return;
        }
        self.buf.clear();
        self.buf.push_str("{\"kind\":\"iter\",\"stage\":\"");
        push_escaped(&mut self.buf, rec.stage.as_str());
        let _ = write!(self.buf, "\",\"iteration\":{}", rec.iteration);
        for (key, v) in [
            ("loss_l2", rec.loss_l2),
            ("loss_pvb", rec.loss_pvb),
            ("loss_total", rec.loss_total),
            ("sparsity", rec.sparsity),
        ] {
            let _ = write!(self.buf, ",\"{key}\":");
            push_f64(&mut self.buf, v);
        }
        let _ = write!(self.buf, ",\"active\":{}", rec.active);
        self.buf.push_str(",\"grad_l2\":");
        push_f64(&mut self.buf, rec.grad_l2);
        self.buf.push_str(",\"grad_linf\":");
        push_f64(&mut self.buf, rec.grad_linf);
        self.buf.push_str("}\n");
        if let Err(e) = self.out.write_all(self.buf.as_bytes()) {
            self.error = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(iteration: usize) -> IterationRecord {
        IterationRecord {
            stage: Stage::CircleOpt,
            iteration,
            loss_l2: 1.5,
            loss_pvb: 0.25,
            loss_total: 1.75,
            sparsity: 3.0,
            active: 42,
            grad_l2: 0.5,
            grad_linf: 0.125,
        }
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let mut sink = MemorySink::with_capacity(4);
        sink.record(&rec(0));
        sink.record(&rec(1));
        assert_eq!(sink.records().len(), 2);
        assert_eq!(sink.records()[1].iteration, 1);
        sink.clear();
        assert!(sink.records().is_empty());
    }

    #[test]
    fn jsonl_sink_emits_one_line_per_record() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&rec(0));
        sink.record(&rec(7));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"stage\":\"circleopt\""));
        assert!(lines[0].contains("\"iteration\":0"));
        assert!(lines[1].contains("\"iteration\":7"));
        assert!(lines[0].contains("\"loss_total\":1.75"));
        assert!(lines[0].contains("\"active\":42"));
    }

    #[test]
    fn non_finite_values_become_null() {
        let mut sink = JsonlSink::new(Vec::new());
        let mut r = rec(0);
        r.loss_total = f64::NAN;
        r.grad_linf = f64::INFINITY;
        sink.record(&r);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.contains("\"loss_total\":null"));
        assert!(text.contains("\"grad_linf\":null"));
    }

    #[test]
    fn summary_lines_are_emitted() {
        let _g = crate::test_lock();
        let mut sink = JsonlSink::new(Vec::new());
        sink.write_summary().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.starts_with("{\"kind\":\"counters\""));
        assert!(text.contains("\"fft_2d\":"));
    }

    /// A writer that fails every call after the first `ok_writes`.
    struct FailAfter {
        ok_writes: usize,
        written: Vec<u8>,
        attempts: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.attempts += 1;
            if self.attempts > self.ok_writes {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "client gone"));
            }
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_errors_latch_and_surface() {
        let mut sink = JsonlSink::new(FailAfter {
            ok_writes: 1,
            written: Vec::new(),
            attempts: 0,
        });
        sink.record(&rec(0));
        assert!(sink.write_error().is_none(), "first write succeeds");
        sink.record(&rec(1));
        let err = sink.write_error().expect("second write must latch");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // Latched: later records are dropped without touching the writer,
        // and flush/write_summary report the original failure.
        sink.record(&rec(2));
        assert_eq!(sink.flush().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(
            sink.write_summary().unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        let taken = sink.take_error().expect("take_error returns the error");
        assert_eq!(taken.kind(), io::ErrorKind::BrokenPipe);
        assert!(sink.write_error().is_none(), "take_error clears the latch");
        let out = sink.into_inner();
        assert_eq!(out.attempts, 2, "no writes attempted after the latch");
        let text = String::from_utf8(out.written).unwrap();
        assert_eq!(text.lines().count(), 1, "only the successful record landed");
        assert!(text.contains("\"iteration\":0"));
    }

    #[test]
    fn flush_errors_latch_too() {
        struct BadFlush;
        impl Write for BadFlush {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "nope"))
            }
        }
        let mut sink = JsonlSink::new(BadFlush);
        assert_eq!(sink.flush().unwrap_err().kind(), io::ErrorKind::WouldBlock);
        assert_eq!(
            sink.write_error().map(io::Error::kind),
            Some(io::ErrorKind::WouldBlock)
        );
    }

    #[test]
    fn summary_escapes_counter_and_span_names() {
        let _g = crate::test_lock();
        crate::reset();
        crate::set_enabled(true);
        {
            let _evil = crate::span("evil \"name\"\\with\n\tstuff");
        }
        crate::set_enabled(false);
        let mut sink = JsonlSink::new(Vec::new());
        let result = sink.write_summary();
        crate::reset();
        result.unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let line = text
            .lines()
            .find(|l| l.contains("evil"))
            .expect("span line present");
        assert!(
            line.contains("\"name\":\"evil \\\"name\\\"\\\\with\\n\\tstuff\""),
            "escaped span name, got: {line}"
        );
        // Every emitted line must round-trip as JSON-shaped: balanced
        // quotes outside escapes is the property the bug violated.
        let quote_count = line
            .as_bytes()
            .iter()
            .enumerate()
            .filter(|&(i, &b)| b == b'"' && (i == 0 || line.as_bytes()[i - 1] != b'\\'))
            .count();
        assert_eq!(quote_count % 2, 0, "unescaped quote broke the line: {line}");
    }

    #[test]
    fn record_stage_goes_through_escape_helper() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&rec(3));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.contains("\"stage\":\"circleopt\""));
    }
}

//! Streaming observation of transient runs.
//!
//! The steppers ([`crate::engines::Engine`]) report their progress through an
//! [`Observer`] instead of buffering results internally. Three built-ins
//! cover the common cases:
//!
//! * [`RecordingObserver`] — accumulates every accepted point and reproduces
//!   the classic [`TransientResult`] (what [`crate::Simulator::transient`]
//!   returns).
//! * [`StreamingObserver`] — keeps a fixed-memory, progressively decimated
//!   view of the probed waveform; suitable for arbitrarily long runs.
//! * [`CsvObserver`] — writes every accepted point as a CSV/TSV row to any
//!   [`std::io::Write`] sink as the run progresses (the `exi-cli` waveform
//!   path); memory use is fixed regardless of run length.
//! * [`NullObserver`] — discards everything; measures pure solver throughput.
//!
//! Every callback invocation is counted into
//! [`RunStats::observer_callbacks`](crate::RunStats::observer_callbacks) by
//! the calling stepper.

use std::io::Write;

use crate::output::{Probe, TransientResult};
use crate::stats::RunStats;

/// Receives simulation events as a transient run progresses.
///
/// All methods have empty default implementations, so an observer only needs
/// to override the events it cares about. The state slices are only valid for
/// the duration of the call — copy what must be kept.
pub trait Observer {
    /// The run's starting point: time `t0` (the DC operating point for a
    /// fresh run, the checkpoint time for a restarted one) and state `x0`.
    fn on_dc(&mut self, t0: f64, x0: &[f64]) {
        let _ = (t0, x0);
    }

    /// An accepted step advanced the simulation to time `t` with state `x`.
    fn on_step_accepted(&mut self, t: f64, x: &[f64]) {
        let _ = (t, x);
    }

    /// A step attempt of size `h` at time `t` was rejected (error estimator
    /// over budget or Newton non-convergence).
    fn on_step_rejected(&mut self, t: f64, h: f64) {
        let _ = (t, h);
    }

    /// The run finished (reached `t_stop` or was finalized early); receives
    /// the final state and the run's statistics.
    fn on_finish(&mut self, final_state: &[f64], stats: &RunStats) {
        let _ = (final_state, stats);
    }
}

/// A borrowed observer observes for its owner, so a `&mut dyn Observer`
/// can drive a generic run.
impl<O: Observer + ?Sized> Observer for &mut O {
    fn on_dc(&mut self, t0: f64, x0: &[f64]) {
        (**self).on_dc(t0, x0);
    }

    fn on_step_accepted(&mut self, t: f64, x: &[f64]) {
        (**self).on_step_accepted(t, x);
    }

    fn on_step_rejected(&mut self, t: f64, h: f64) {
        (**self).on_step_rejected(t, h);
    }

    fn on_finish(&mut self, final_state: &[f64], stats: &RunStats) {
        (**self).on_finish(final_state, stats);
    }
}

/// An observer that ignores every event.
///
/// Useful for benchmarking the pure solver throughput without any recording
/// overhead, and as the default observer for convenience entry points.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Accumulates every accepted point and reproduces the classic
/// [`TransientResult`].
///
/// Probed samples (and, when `record_full` is set, full state snapshots) are
/// appended to flat, amortized-growth buffers — the hot loop performs no
/// per-step allocation. The rows of [`TransientResult`] are materialized once
/// in [`RecordingObserver::into_result`].
#[derive(Debug)]
pub struct RecordingObserver {
    probes: Vec<Probe>,
    record_full: bool,
    times: Vec<f64>,
    /// Probed values, row-major: `times.len() × probes.len()`.
    samples_flat: Vec<f64>,
    /// Full states, row-major: `times.len() × n` (empty unless `record_full`).
    full_flat: Vec<f64>,
    state_len: usize,
    final_state: Vec<f64>,
    stats: RunStats,
}

impl RecordingObserver {
    /// Creates a recorder for the given probes; `record_full` additionally
    /// snapshots the entire state vector at every accepted step.
    pub fn new(probes: Vec<Probe>, record_full: bool) -> Self {
        RecordingObserver {
            probes,
            record_full,
            times: Vec::new(),
            samples_flat: Vec::new(),
            full_flat: Vec::new(),
            state_len: 0,
            final_state: Vec::new(),
            stats: RunStats::new(),
        }
    }

    fn record(&mut self, t: f64, x: &[f64]) {
        self.state_len = x.len();
        self.times.push(t);
        for p in &self.probes {
            self.samples_flat.push(x[p.unknown]);
        }
        if self.record_full {
            self.full_flat.extend_from_slice(x);
        }
    }

    /// Number of recorded time points so far.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Finalizes the recording into a [`TransientResult`].
    ///
    /// The statistics and final state are those delivered by
    /// [`Observer::on_finish`]; if the run was never finalized the counters
    /// are zeroed and the final state falls back to the last full snapshot
    /// when `record_full` was set (empty otherwise) — the hot loop never
    /// copies the full state speculatively.
    pub fn into_result(mut self) -> TransientResult {
        let p = self.probes.len();
        let samples = if p == 0 {
            self.times.iter().map(|_| Vec::new()).collect()
        } else {
            self.samples_flat.chunks(p).map(<[f64]>::to_vec).collect()
        };
        let full_states: Vec<Vec<f64>> = if self.record_full && self.state_len > 0 {
            self.full_flat
                .chunks(self.state_len)
                .map(<[f64]>::to_vec)
                .collect()
        } else {
            Vec::new()
        };
        if self.final_state.is_empty() {
            if let Some(last) = full_states.last() {
                self.final_state = last.clone();
            }
        }
        TransientResult {
            times: self.times,
            probes: self.probes,
            samples,
            full_states,
            final_state: self.final_state,
            stats: self.stats,
        }
    }
}

impl Observer for RecordingObserver {
    fn on_dc(&mut self, t0: f64, x0: &[f64]) {
        self.record(t0, x0);
    }

    fn on_step_accepted(&mut self, t: f64, x: &[f64]) {
        self.record(t, x);
    }

    fn on_finish(&mut self, final_state: &[f64], stats: &RunStats) {
        self.final_state = final_state.to_vec();
        self.stats = stats.clone();
    }
}

/// A fixed-memory, progressively decimated view of the probed waveform.
///
/// At most `capacity` points are retained. Initially every accepted step is
/// kept; whenever the buffer fills up, every other retained point is dropped
/// and the sampling stride doubles, so an arbitrarily long run occupies a
/// bounded amount of memory while preserving the overall waveform shape.
#[derive(Debug)]
pub struct StreamingObserver {
    probes: Vec<Probe>,
    capacity: usize,
    stride: usize,
    times: Vec<f64>,
    /// Retained probe values, row-major: `times.len() × probes.len()`.
    values: Vec<f64>,
    observed: usize,
}

impl StreamingObserver {
    /// Creates a streaming observer retaining at most `capacity` points
    /// (minimum 2) for the given probes.
    pub fn new(probes: Vec<Probe>, capacity: usize) -> Self {
        let capacity = capacity.max(2);
        StreamingObserver {
            probes,
            capacity,
            stride: 1,
            times: Vec::with_capacity(capacity),
            values: Vec::new(),
            observed: 0,
        }
    }

    fn record(&mut self, t: f64, x: &[f64]) {
        let index = self.observed;
        self.observed += 1;
        // Points on the current stride grid are retained; the grid only ever
        // coarsens (stride doubles), so decimation keeps exactly the
        // points that remain on the new grid.
        if !index.is_multiple_of(self.stride) {
            return;
        }
        self.times.push(t);
        for p in &self.probes {
            self.values.push(x[p.unknown]);
        }
        if self.times.len() >= self.capacity {
            self.decimate();
        }
    }

    /// Drops every other retained point and doubles the stride.
    fn decimate(&mut self) {
        let p = self.probes.len();
        let kept = self.times.len().div_ceil(2);
        for k in 1..kept {
            self.times[k] = self.times[2 * k];
            for j in 0..p {
                self.values[k * p + j] = self.values[2 * k * p + j];
            }
        }
        self.times.truncate(kept);
        self.values.truncate(kept * p);
        self.stride *= 2;
    }

    /// Number of points currently retained (bounded by the capacity).
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` when no point has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Total number of accepted points observed (retained or not).
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// The retained (decimated) waveform of probe `p` as `(time, value)`
    /// pairs.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn waveform(&self, p: usize) -> Vec<(f64, f64)> {
        assert!(p < self.probes.len(), "probe index out of range");
        let np = self.probes.len();
        self.times
            .iter()
            .enumerate()
            .map(|(k, &t)| (t, self.values[k * np + p]))
            .collect()
    }

    /// Finalizes the observer into its retained decimated waveform — the
    /// fixed-memory result a batch job with a
    /// [`JobSink::Stream`](crate::JobSink::Stream) sink returns.
    pub fn into_waveform(self) -> DecimatedWaveform {
        DecimatedWaveform {
            probes: self.probes,
            times: self.times,
            values: self.values,
            stride: self.stride,
            observed: self.observed,
        }
    }
}

/// The retained output of a [`StreamingObserver`]: at most `capacity` probed
/// points on a power-of-two stride grid, however long the run was.
#[derive(Debug, Clone, PartialEq)]
pub struct DecimatedWaveform {
    /// The probes that were recorded (columns of `values`).
    pub probes: Vec<Probe>,
    /// Retained time points, in order.
    pub times: Vec<f64>,
    /// Retained probe values, row-major: `times.len() × probes.len()`.
    pub values: Vec<f64>,
    /// Final sampling stride (1 if the run never filled the buffer).
    pub stride: usize,
    /// Total accepted points observed, retained or not.
    pub observed: usize,
}

impl DecimatedWaveform {
    /// Number of retained time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` when nothing was retained (an empty run).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The retained waveform of probe `p` as `(time, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn waveform(&self, p: usize) -> Vec<(f64, f64)> {
        assert!(p < self.probes.len(), "probe index out of range");
        let np = self.probes.len();
        self.times
            .iter()
            .enumerate()
            .map(|(k, &t)| (t, self.values[k * np + p]))
            .collect()
    }
}

impl Observer for StreamingObserver {
    fn on_dc(&mut self, t0: f64, x0: &[f64]) {
        self.record(t0, x0);
    }

    fn on_step_accepted(&mut self, t: f64, x: &[f64]) {
        self.record(t, x);
    }
}

/// Streams accepted points as delimiter-separated rows (`time` plus one
/// column per probe) into any [`std::io::Write`] sink — the waveform path of
/// the `exi-cli` front-end.
///
/// A header row is written with the run's starting point, then one data row
/// per accepted step, so the sink holds the complete waveform the moment the
/// run finishes — no buffering, fixed memory for arbitrarily long runs.
/// Values are printed with 17 significant digits, so every `f64` survives a
/// parse round-trip bit-for-bit (the same contract as the golden-waveform
/// fixtures).
///
/// [`Observer`] callbacks cannot fail, so I/O errors are latched: the first
/// error stops further writing and is surfaced by [`CsvObserver::finish`].
/// [`Observer::on_finish`] flushes the sink (latching any flush error), so a
/// buffered socket or file sink holds every row the moment the run ends even
/// if the caller forgets to call [`CsvObserver::finish`]; dropping an
/// observer whose latched error was never consumed flushes best-effort and
/// reports the error on stderr rather than discarding it silently.
///
/// # Examples
///
/// ```
/// use exi_sim::{CsvObserver, Observer, Probe};
///
/// let mut csv = CsvObserver::new(Vec::new(), vec![Probe::new("out", 1)]);
/// csv.on_dc(0.0, &[0.0, 0.25]);
/// csv.on_step_accepted(1e-12, &[0.0, 0.5]);
/// assert_eq!(csv.rows(), 2);
/// let bytes = csv.finish().unwrap();
/// let text = String::from_utf8(bytes).unwrap();
/// assert!(text.starts_with("time,out\n"));
/// assert_eq!(text.lines().count(), 3);
/// ```
#[derive(Debug)]
pub struct CsvObserver<W: Write> {
    /// `None` only after [`CsvObserver::finish`] has handed the sink back
    /// (so the `Drop` impl knows nothing is left to flush).
    writer: Option<W>,
    probes: Vec<Probe>,
    delimiter: char,
    rows: usize,
    wrote_header: bool,
    error: Option<std::io::Error>,
}

impl<W: Write> CsvObserver<W> {
    /// Creates a comma-separated observer recording the given probes into
    /// `writer`.
    pub fn new(writer: W, probes: Vec<Probe>) -> Self {
        CsvObserver {
            writer: Some(writer),
            probes,
            delimiter: ',',
            rows: 0,
            wrote_header: false,
            error: None,
        }
    }

    /// Replaces the column delimiter (e.g. `'\t'` for TSV output).
    #[must_use]
    pub fn delimiter(mut self, delimiter: char) -> Self {
        self.delimiter = delimiter;
        self
    }

    /// Number of data rows written so far (the header is not counted).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Flushes the sink and returns it.
    ///
    /// # Errors
    ///
    /// Returns the first latched write error, or the flush error.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut writer = self.writer.take().expect("sink already taken");
        match writer.flush() {
            Ok(()) => Ok(writer),
            Err(e) => Err(e),
        }
    }

    /// Flushes the sink in place, latching (not returning) any error — the
    /// infallible-callback form of [`CsvObserver::finish`] used by
    /// [`Observer::on_finish`].
    fn flush_latching(&mut self) {
        if self.error.is_some() {
            return;
        }
        if let Some(writer) = self.writer.as_mut() {
            if let Err(e) = writer.flush() {
                self.error = Some(e);
            }
        }
    }

    fn write_row(&mut self, t: f64, x: &[f64]) {
        if self.error.is_some() {
            return;
        }
        let CsvObserver {
            writer,
            probes,
            delimiter,
            wrote_header,
            ..
        } = self;
        let Some(writer) = writer.as_mut() else {
            return;
        };
        let result = (|| -> std::io::Result<()> {
            if !*wrote_header {
                write!(writer, "time")?;
                for p in probes.iter() {
                    write!(writer, "{}{}", delimiter, p.label)?;
                }
                writeln!(writer)?;
                *wrote_header = true;
            }
            write!(writer, "{t:.17e}")?;
            for p in probes.iter() {
                write!(writer, "{}{:.17e}", delimiter, x[p.unknown])?;
            }
            writeln!(writer)
        })();
        match result {
            Ok(()) => self.rows += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

impl<W: Write> Observer for CsvObserver<W> {
    fn on_dc(&mut self, t0: f64, x0: &[f64]) {
        self.write_row(t0, x0);
    }

    fn on_step_accepted(&mut self, t: f64, x: &[f64]) {
        self.write_row(t, x);
    }

    fn on_finish(&mut self, _final_state: &[f64], _stats: &RunStats) {
        // Push buffered rows to the sink the moment the run ends, so a
        // socket/file sink never truncates the tail even when the observer
        // is dropped without a `finish()` call.
        self.flush_latching();
    }
}

impl<W: Write> Drop for CsvObserver<W> {
    fn drop(&mut self) {
        // `finish()` took the writer (and the error): nothing left to do.
        // Otherwise flush best-effort and make sure a latched error the
        // caller never consumed is reported rather than silently dropped.
        if self.writer.is_some() {
            self.flush_latching();
        }
        if let Some(e) = self.error.take() {
            eprintln!("exi-sim: CsvObserver dropped with unreported I/O error: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_observer_reproduces_transient_result() {
        let mut rec = RecordingObserver::new(vec![Probe::new("a", 0)], true);
        rec.on_dc(0.0, &[1.0, 2.0]);
        rec.on_step_accepted(1.0, &[3.0, 4.0]);
        let mut stats = RunStats::new();
        stats.accepted_steps = 1;
        rec.on_finish(&[3.0, 4.0], &stats);
        let result = rec.into_result();
        assert_eq!(result.len(), 2);
        assert_eq!(result.samples[1][0], 3.0);
        assert_eq!(result.full_states.len(), 2);
        assert_eq!(result.full_states[0], vec![1.0, 2.0]);
        assert_eq!(result.final_state, vec![3.0, 4.0]);
        assert_eq!(result.stats.accepted_steps, 1);
    }

    #[test]
    fn recording_observer_without_probes_or_full_states() {
        let mut rec = RecordingObserver::new(Vec::new(), false);
        rec.on_dc(0.0, &[1.0]);
        rec.on_step_accepted(1.0, &[2.0]);
        let result = rec.into_result();
        assert_eq!(result.len(), 2);
        assert!(result.full_states.is_empty());
        // Without on_finish (and without full snapshots) there is no final
        // state to report — the hot loop does not copy it speculatively.
        assert!(result.final_state.is_empty());
    }

    #[test]
    fn unfinished_recording_falls_back_to_last_full_snapshot() {
        let mut rec = RecordingObserver::new(Vec::new(), true);
        rec.on_dc(0.0, &[1.0, 2.0]);
        rec.on_step_accepted(1.0, &[3.0, 4.0]);
        // No on_finish: the last full snapshot stands in for the final state.
        let result = rec.into_result();
        assert_eq!(result.final_state, vec![3.0, 4.0]);
    }

    #[test]
    fn streaming_observer_stays_within_capacity() {
        let mut s = StreamingObserver::new(vec![Probe::new("a", 0)], 8);
        for k in 0..1000 {
            s.on_step_accepted(k as f64, &[k as f64]);
        }
        assert!(s.len() < 8, "len {} should stay under capacity", s.len());
        assert_eq!(s.observed(), 1000);
        assert!(s.stride > 1);
        let wf = s.waveform(0);
        // The retained points are genuine (time, value) samples in order.
        for w in wf.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        for &(t, v) in &wf {
            assert_eq!(t, v);
        }
    }

    #[test]
    fn streaming_observer_keeps_everything_below_capacity() {
        let mut s = StreamingObserver::new(vec![Probe::new("a", 0)], 64);
        for k in 0..10 {
            s.on_step_accepted(k as f64, &[2.0 * k as f64]);
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.stride, 1);
        assert_eq!(s.waveform(0)[3], (3.0, 6.0));
    }

    #[test]
    fn streaming_observer_decimates_exactly_at_the_capacity_boundary() {
        // capacity 4: indices 0..3 are retained verbatim; the moment the 4th
        // point lands the buffer decimates to indices {0, 2} and the stride
        // doubles, so index 4 (on the new grid) is retained and index 5 is
        // not.
        let mut s = StreamingObserver::new(vec![Probe::new("a", 0)], 4);
        for k in 0..4 {
            s.on_step_accepted(k as f64, &[k as f64]);
        }
        assert_eq!(s.stride, 2, "filling to capacity must trigger decimation");
        assert_eq!(s.waveform(0), vec![(0.0, 0.0), (2.0, 2.0)]);
        s.on_step_accepted(4.0, &[4.0]);
        s.on_step_accepted(5.0, &[5.0]);
        assert_eq!(s.waveform(0), vec![(0.0, 0.0), (2.0, 2.0), (4.0, 4.0)]);
        // The next boundary: index 6 fills the buffer to capacity again and
        // the stride doubles to 4, keeping exactly the multiples of 4.
        s.on_step_accepted(6.0, &[6.0]);
        assert_eq!(s.stride, 4);
        assert_eq!(s.waveform(0), vec![(0.0, 0.0), (4.0, 4.0)]);
        assert_eq!(s.observed(), 7);
    }

    #[test]
    fn streaming_observer_empty_run_edge_case() {
        // A run that never produces a point (or is never started) leaves a
        // well-defined empty waveform with the initial stride.
        let s = StreamingObserver::new(vec![Probe::new("a", 0)], 8);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.observed(), 0);
        assert_eq!(s.stride, 1);
        assert!(s.waveform(0).is_empty());
        let w = s.into_waveform();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(w.observed, 0);
        assert_eq!(w.stride, 1);
        assert!(w.waveform(0).is_empty());
    }

    #[test]
    fn into_waveform_preserves_the_retained_points() {
        let mut s = StreamingObserver::new(vec![Probe::new("a", 0), Probe::new("b", 1)], 16);
        for k in 0..5 {
            s.on_step_accepted(k as f64, &[k as f64, -(k as f64)]);
        }
        let expected_a = s.waveform(0);
        let expected_b = s.waveform(1);
        let w = s.into_waveform();
        assert_eq!(w.waveform(0), expected_a);
        assert_eq!(w.waveform(1), expected_b);
        assert_eq!(w.observed, 5);
        assert_eq!(w.stride, 1);
        assert_eq!(w.probes.len(), 2);
    }

    #[test]
    fn csv_observer_streams_bit_exact_rows() {
        let mut csv = CsvObserver::new(Vec::new(), vec![Probe::new("a", 0), Probe::new("b", 1)]);
        let rows = [
            (0.0, [1.0, -0.0]),
            (1.5e-12, [0.12345678901234567, 2.0]),
            (3.0e-12, [-3.123456789012345e-7, 4.0]),
        ];
        csv.on_dc(rows[0].0, &rows[0].1);
        for (t, x) in &rows[1..] {
            csv.on_step_accepted(*t, x);
        }
        assert_eq!(csv.rows(), 3);
        assert!(csv.error.is_none());
        let text = String::from_utf8(csv.finish().unwrap()).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("time,a,b"));
        for ((t, x), line) in rows.iter().zip(lines) {
            let cols: Vec<f64> = line.split(',').map(|c| c.parse().unwrap()).collect();
            assert_eq!(cols[0].to_bits(), t.to_bits());
            assert_eq!(cols[1].to_bits(), x[0].to_bits());
            assert_eq!(cols[2].to_bits(), x[1].to_bits());
        }
    }

    #[test]
    fn csv_observer_supports_tsv_and_latches_io_errors() {
        let mut tsv = CsvObserver::new(Vec::new(), vec![Probe::new("a", 0)]).delimiter('\t');
        tsv.on_step_accepted(1.0, &[2.0]);
        let text = String::from_utf8(tsv.finish().unwrap()).unwrap();
        assert!(text.starts_with("time\ta\n"));

        /// A sink that always fails.
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("sink is broken"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut bad = CsvObserver::new(Broken, vec![Probe::new("a", 0)]);
        bad.on_dc(0.0, &[1.0]);
        bad.on_step_accepted(1.0, &[1.0]);
        assert_eq!(bad.rows(), 0);
        assert!(bad.error.is_some());
        assert!(bad.finish().is_err());
    }

    #[test]
    fn csv_observer_flushes_on_finish_event() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        /// A buffering sink that counts flushes — rows are only "durable"
        /// once flushed, like a `BufWriter<TcpStream>`.
        struct CountingSink(Arc<AtomicUsize>);
        impl Write for CountingSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.0.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        }

        let flushes = Arc::new(AtomicUsize::new(0));
        let mut csv =
            CsvObserver::new(CountingSink(Arc::clone(&flushes)), vec![Probe::new("a", 0)]);
        csv.on_dc(0.0, &[1.0]);
        csv.on_step_accepted(1.0, &[2.0]);
        assert_eq!(flushes.load(Ordering::SeqCst), 0);
        // The run-finished event pushes everything to the sink...
        csv.on_finish(&[2.0], &RunStats::new());
        assert_eq!(flushes.load(Ordering::SeqCst), 1);
        // ...and dropping without `finish()` flushes once more, best-effort.
        drop(csv);
        assert_eq!(flushes.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn csv_observer_finish_consumes_the_latched_error_exactly_once() {
        /// A sink whose flush fails (writes succeed).
        struct FailingFlush;
        impl Write for FailingFlush {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("flush refused"))
            }
        }

        let mut csv = CsvObserver::new(FailingFlush, vec![Probe::new("a", 0)]);
        csv.on_step_accepted(1.0, &[2.0]);
        assert!(csv.error.is_none());
        // on_finish latches the flush error instead of losing it...
        csv.on_finish(&[2.0], &RunStats::new());
        assert!(csv.error.is_some());
        // ...and finish() hands exactly that error to the caller (the drop
        // that follows has nothing left to report).
        assert!(csv.finish().is_err());
    }

    #[test]
    fn null_observer_ignores_everything() {
        let mut n = NullObserver;
        n.on_dc(0.0, &[1.0]);
        n.on_step_accepted(1.0, &[1.0]);
        n.on_step_rejected(1.0, 0.5);
        n.on_finish(&[1.0], &RunStats::new());
    }
}

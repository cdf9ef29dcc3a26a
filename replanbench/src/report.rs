//! What a workload hands back — its set-up times, its timed windows, the
//! outcome of its checks and, when traced, its per-layer numbers — and how
//! that becomes the result line.

use crate::speed::Speed;
use crate::stats::{self, Histogram};
use crate::trace::Tracer;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Per-layer metrics and their units, in report order.  Every traced run
/// reports all of them; a layer its workload does not exercise reads 0 with
/// 0 samples.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("runtime.replan_ms", "ms"),
    ("core.grouping_ms", "ms"),
    ("core.division_ms", "ms"),
    ("core.ordering_ms", "ms"),
    ("core.assignment_ms", "ms"),
    ("core.planner_other_us", "us"),
    ("core.candidates_evaluated", "count"),
    ("core.memo_reuse_ratio", "ratio"),
    ("sim.step_us", "us"),
    ("runtime.profiler_us", "us"),
    ("runtime.migrate_us", "us"),
    ("core.migration_plan_us", "us"),
    ("sim.migration_time_us", "us"),
    ("sim.step_time_s", "s"),
    ("sim.migration_gb", "GB"),
    ("service.l1_hit_us", "us"),
    ("service.l1_miss_us", "us"),
    ("service.l1_hit_ratio", "ratio"),
    ("service.l1_drift_evicted", "count"),
    ("service.l2_hit_ratio", "ratio"),
    ("service.planner_invocations", "count"),
    ("service.server_us", "us"),
    ("wire.request_bytes", "B"),
    ("wire.response_bytes", "B"),
    ("wire.encode_request_us", "us"),
    ("wire.decode_request_us", "us"),
    ("wire.encode_response_us", "us"),
    ("wire.decode_response_us", "us"),
    ("socket.residual_us", "us"),
    ("trace.op_self_us", "us"),
    ("trace.overhead_p50_ms", "ms"),
    ("host.scale", "ratio"),
    ("raw.ops_per_s", "1/s"),
    ("raw.latency_p50_ms", "ms"),
    ("raw.latency_p90_ms", "ms"),
    ("raw.cpu_ms_per_op", "ms"),
];

/// A timed window in progress.
///
/// Between ops it times the reference kernel every
/// [`crate::speed::INTERVAL`] (that time is left out of the window), which
/// cuts the window into slices.  Each op's latency is scaled by the host
/// speed of the latest samples, and each slice's wall and CPU time by the
/// samples that close it.  Every slice counts: throughput is all completed
/// ops over the sum of scaled slice wall times, and CPU time per op the sum
/// of scaled slice CPU times over all ops.
#[derive(Debug)]
pub struct Window {
    started: Instant,
    rss_start_mb: f64,
    /// Per-op latency as measured and at nominal host speed, ns.
    raw: Histogram,
    latency: Histogram,
    failed: u64,
    speed: Speed,
    /// Start and process CPU time of the open slice.
    slice_started: Instant,
    slice_cpu_s: f64,
    time: SliceTime,
}

/// Wall and CPU seconds (every thread) of a window's closed slices, as
/// measured and each slice scaled to nominal host speed.
#[derive(Debug, Default, Clone, Copy)]
struct SliceTime {
    slices: u64,
    wall_s: f64,
    cpu_s: f64,
    scaled_wall_s: f64,
    scaled_cpu_s: f64,
}

impl Window {
    pub fn start() -> Self {
        stats::reset_peak_rss();
        let rss_start_mb = stats::rss_mb();
        let mut speed = Speed::new();
        speed.sample();
        Self {
            raw: Histogram::default(),
            latency: Histogram::default(),
            speed,
            failed: 0,
            rss_start_mb,
            time: SliceTime::default(),
            started: Instant::now(),
            slice_cpu_s: stats::cpu_s(),
            slice_started: Instant::now(),
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.started.elapsed().saturating_sub(self.speed.spent())
    }

    /// One op completed after `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.raw.record(ns);
        self.latency
            .record((ns as f64 * self.speed.local_scale()) as u64);
        if self.speed.due() {
            self.close_slice();
        }
    }

    /// One op failed; it counts as attempted but has no latency.
    pub fn fail(&mut self) {
        self.failed += 1;
        if self.speed.due() {
            self.close_slice();
        }
    }

    /// End the open slice with a kernel sample, add its times, and open the
    /// next one.
    fn close_slice(&mut self) {
        let wall_s = self.slice_started.elapsed().as_secs_f64();
        let cpu_s = stats::cpu_s() - self.slice_cpu_s;
        self.speed.sample();
        let scale = self.speed.local_scale();
        let t = &mut self.time;
        t.slices += 1;
        t.wall_s += wall_s;
        t.cpu_s += cpu_s;
        t.scaled_wall_s += wall_s * scale;
        t.scaled_cpu_s += cpu_s * scale;
        self.slice_cpu_s = stats::cpu_s();
        self.slice_started = Instant::now();
    }

    pub fn finish(mut self) -> Measured {
        self.close_slice();
        Measured {
            peak_rss_mb: stats::peak_rss_mb(),
            rss_start_mb: self.rss_start_mb,
            ops: self.latency.len() + self.failed,
            failed: self.failed,
            raw: self.raw,
            latency: self.latency,
            time: self.time,
            scale: self.speed.scale(),
        }
    }
}

/// A finished timed window.
#[derive(Debug)]
pub struct Measured {
    /// Peak resident set of the process during the window, and its
    /// resident set when the window opened.
    pub peak_rss_mb: f64,
    pub rss_start_mb: f64,
    pub ops: u64,
    pub failed: u64,
    /// Per-op latency as measured, and at nominal host speed, ns.
    pub raw: Histogram,
    pub latency: Histogram,
    time: SliceTime,
    /// Host-speed factor over the whole window (see [`crate::speed`]).
    pub scale: f64,
}

impl Measured {
    /// A latency percentile in ms, at nominal host speed.
    pub fn latency_ms(&self, q: f64) -> f64 {
        self.latency.percentile(q).unwrap_or(0.0) / 1e6
    }

    fn raw_latency_ms(&self, q: f64) -> f64 {
        self.raw.percentile(q).unwrap_or(0.0) / 1e6
    }

    /// Completed ops per second, at nominal host speed and as measured.
    fn ops_per_s(&self) -> f64 {
        self.latency.len() as f64 / self.time.scaled_wall_s
    }

    fn raw_ops_per_s(&self) -> f64 {
        self.latency.len() as f64 / self.time.wall_s
    }

    /// CPU ms of every thread per op, at nominal host speed and as measured.
    fn cpu_ms_per_op(&self) -> f64 {
        self.time.scaled_cpu_s * 1e3 / self.ops as f64
    }

    fn raw_cpu_ms_per_op(&self) -> f64 {
        self.time.cpu_s * 1e3 / self.ops as f64
    }
}

/// Per-layer numbers of a traced run: name, value, sample count.  Times
/// are scaled to nominal host speed by `scale`.
#[derive(Debug)]
pub struct Layers {
    values: Vec<(&'static str, f64, u64)>,
    scale: f64,
}

impl Layers {
    /// Layers whose times are scaled by `scale` (1 until a traced window
    /// has measured the host's speed).
    pub fn new(scale: f64) -> Self {
        Self {
            values: Vec::new(),
            scale,
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values.push((name, value, samples));
    }

    /// The median of a histogram of counts, in units of `unit`.
    pub fn median(&mut self, name: &'static str, h: &Histogram, unit: f64) {
        self.put(name, h.percentile(0.5).unwrap_or(0.0) / unit, h.len());
    }

    /// The median of a histogram of measured nanoseconds, in units of
    /// `unit_ns`, at nominal host speed.
    pub fn time(&mut self, name: &'static str, ns: &Histogram, unit_ns: f64) {
        let median = ns.percentile(0.5).unwrap_or(0.0) * self.scale;
        self.put(name, median / unit_ns, ns.len());
    }

    fn get(&self, name: &str) -> (f64, u64) {
        self.values
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or((0.0, 0), |&(_, v, n)| (v, n))
    }
}

/// Everything a workload run produced.
#[derive(Debug)]
pub struct Report {
    pub setup: Setup,
    /// The untraced window (end-to-end metrics).
    pub measured: Measured,
    /// The traced window that follows it in a traced run, and its spans.
    pub traced: Option<(Measured, Tracer)>,
    /// Output checks made outside the windows, and how many failed.
    pub checks: u64,
    pub failed_checks: u64,
    /// Whether every op took the path the workload's name claims.
    pub path_check: Result<(), String>,
    pub goodput: f64,
    pub layers: Layers,
}

impl Report {
    pub fn tracer(&self) -> Option<&Tracer> {
        self.traced.as_ref().map(|(_, tracer)| tracer)
    }

    /// Ops attempted and failed, checks included.  Each failed check counts
    /// as one failed op; a run that left its workload's path fails every op.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let traced = self.traced.as_ref().map(|(m, _)| m);
        let attempted = self.measured.ops + traced.map_or(0, |m| m.ops) + self.checks;
        let failed = self.measured.failed + traced.map_or(0, |m| m.failed) + self.failed_checks;
        match self.path_check {
            Ok(()) => (attempted.max(1), failed),
            Err(_) => (attempted.max(1), attempted.max(1)),
        }
    }

    /// `(name, value, unit)` of every end-to-end metric.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let m = &self.measured;
        vec![
            ("setup_s", self.setup.seconds(), "s"),
            ("ops_per_s", m.ops_per_s(), "1/s"),
            ("latency_p50_ms", m.latency_ms(0.5), "ms"),
            ("latency_p90_ms", m.latency_ms(0.9), "ms"),
            ("cpu_ms_per_op", m.cpu_ms_per_op(), "ms"),
            ("peak_rss_mb", m.peak_rss_mb, "MB"),
            ("sim_goodput_samples_per_s", self.goodput, "samples/s"),
        ]
    }

    /// `(name, value, unit)` of every per-layer metric.
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.layer(name).0, unit))
            .collect()
    }

    /// A per-layer metric and its sample count.  The `host.*` and `raw.*`
    /// ones belong to the untraced window: its host-speed scale and its
    /// end-to-end numbers as measured, so that a program change that also
    /// moves the reference kernel shows.
    fn layer(&self, name: &str) -> (f64, u64) {
        let m = &self.measured;
        let ops = m.latency.len();
        match name {
            "trace.overhead_p50_ms" => match &self.traced {
                Some((traced, _)) => (
                    traced.latency_ms(0.5) - m.latency_ms(0.5),
                    traced.latency.len(),
                ),
                None => (0.0, 0),
            },
            "host.scale" => (m.scale, m.time.slices),
            "raw.ops_per_s" => (m.raw_ops_per_s(), ops),
            "raw.latency_p50_ms" => (m.raw_latency_ms(0.5), ops),
            "raw.latency_p90_ms" => (m.raw_latency_ms(0.9), ops),
            "raw.cpu_ms_per_op" => (m.raw_cpu_ms_per_op(), m.ops),
            _ => self.layers.get(name),
        }
    }

    /// A human-readable summary: end-to-end metrics with their op count,
    /// per-layer metrics with their sample counts, and the checks.
    pub fn table(&self, workload: &str) -> String {
        let mut out = String::new();
        let w = &mut out;
        let (attempted, failed) = self.attempted_failed();
        let ok = "writing to a String cannot fail";
        writeln!(w, "== {workload}: {attempted} attempted, {failed} failed").expect(ok);
        let m = &self.measured;
        writeln!(
            w,
            "   set-up: median of {} repeats, host-speed scale {:.3}",
            self.setup.times.len(),
            self.setup.scale
        )
        .expect(ok);
        for (i, (s, scale)) in self.setup.repeats.iter().enumerate() {
            writeln!(w, "     repeat {i}: {s:.6} s at scale {scale:.3}").expect(ok);
        }
        writeln!(
            w,
            "   timed window: {} ops in {:.2} s ({:.2} s scaled), {} slices, host-speed scale {:.3}, RSS {:.2} MB at start",
            m.ops, m.time.wall_s, m.time.scaled_wall_s, m.time.slices, m.scale, m.rss_start_mb
        )
        .expect(ok);
        writeln!(
            w,
            "   as measured: latency p50 {:.6} ms, p90 {:.6} ms, {:.1} ops/s, {:.6} CPU ms/op",
            m.raw_latency_ms(0.5),
            m.raw_latency_ms(0.9),
            m.raw_ops_per_s(),
            m.raw_cpu_ms_per_op()
        )
        .expect(ok);
        writeln!(w, "   at nominal host speed, over {} ops:", m.ops).expect(ok);
        for (name, value, unit) in self.end_to_end() {
            writeln!(w, "   {name:<28} {value:>14.6} {unit}").expect(ok);
        }
        writeln!(
            w,
            "   output checks: {} made, {} failed; path check: {}",
            self.checks,
            self.failed_checks,
            match &self.path_check {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("FAILED ({e})"),
            }
        )
        .expect(ok);
        if let Some((traced, _)) = &self.traced {
            writeln!(
                w,
                "   traced window: {} ops, scale {:.3}, latency p50 {:.6} ms (untraced {:.6} ms)",
                traced.ops,
                traced.scale,
                traced.latency_ms(0.5),
                self.measured.latency_ms(0.5)
            )
            .expect(ok);
            writeln!(
                w,
                "   {:<28} {:>14} {:<6} {:>8}",
                "layer", "value", "unit", "samples"
            )
            .expect(ok);
            for &(name, unit) in &PER_LAYER {
                let (value, samples) = self.layer(name);
                let value = if samples == 0 {
                    "-".to_string()
                } else {
                    format!("{value:.6}")
                };
                writeln!(w, "   {name:<28} {value:>14} {unit:<6} {samples:>8}").expect(ok);
            }
        }
        out
    }
}

/// Set-up times, each scaled to nominal host speed by reference-kernel
/// samples taken just before and after it.
#[derive(Debug)]
pub struct Setup {
    /// Scaled duration of each repeat, ns.
    pub times: Histogram,
    /// Median host-speed factor over the repeats.
    pub scale: f64,
    /// Each repeat's scaled seconds and host-speed factor, in order.
    pub repeats: Vec<(f64, f64)>,
}

impl Setup {
    /// The median repeat, in seconds.
    pub fn seconds(&self) -> f64 {
        self.times.percentile(0.5).unwrap_or(0.0) / 1e9
    }
}

//! What a run records, and the statistics it reports.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// Samples of one request class (or one write class). They are kept as
/// `f32`, which holds microseconds and seconds into a window to well under
/// their noise: the samples are part of the process whose peak resident
/// set is reported.
#[derive(Default)]
pub struct ClassStats {
    pub name: String,
    /// Latencies (µs) of untraced operations.
    pub lat: Vec<f32>,
    /// When each of `lat` was taken (seconds into the measured window).
    pub lat_at: Vec<f32>,
    /// Latencies (µs) of traced operations (traced run only).
    pub traced_lat: Vec<f32>,
    /// Image run times (µs) on the class's dynamic input.
    pub exec: Vec<f32>,
    /// When each of `exec` was taken.
    pub exec_at: Vec<f32>,
    /// Independently measured per-layer times (µs) of traced reads, by
    /// layer.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    /// Successful reads, counted from the start of the run (warm-up
    /// included), to pace exec sampling.
    pub seen: u64,
}

impl ClassStats {
    /// Percentile `p` of the latencies, at the nominal host speed.
    pub fn lat_p(&self, p: f64, host: &Host) -> f64 {
        scaled(&self.lat, &self.lat_at, p, host)
    }

    /// Median image run time, at the nominal host speed.
    pub fn exec_p50(&self, host: &Host) -> f64 {
        scaled(&self.exec, &self.exec_at, 50.0, host)
    }
}

/// Every how many reads of a class an already-verified image is run again
/// for an `exec_us` sample.
pub const EXEC_STRIDE: u64 = 16;

/// The record of one run. Operations are only counted while `measuring`
/// (not during warm-up); `tracing` selects traced blocks in a traced run.
pub struct Rec {
    pub classes: Vec<ClassStats>,
    pub writes: Vec<ClassStats>,
    pub measuring: bool,
    pub tracing: bool,
    /// Time spent inside operations and barriers (the timed phase), by
    /// second of the measured window.
    pub busy: Vec<f64>,
    pub attempted: u64,
    pub ok: u64,
    pub code_sum: u64,
    pub code_n: u64,
    pub failures: Vec<String>,
    pub tracer: Tracer,
    /// Host reference samples taken during the measured window.
    pub host: Host,
    /// Start of the measured window.
    pub start: Instant,
}

impl Rec {
    pub fn new(classes: &[&str], writes: &[&str]) -> Rec {
        let mk = |names: &[&str]| {
            names
                .iter()
                .map(|n| ClassStats {
                    name: n.to_string(),
                    ..ClassStats::default()
                })
                .collect()
        };
        Rec {
            classes: mk(classes),
            writes: mk(writes),
            measuring: false,
            tracing: false,
            busy: Vec::new(),
            attempted: 0,
            ok: 0,
            code_sum: 0,
            code_n: 0,
            failures: Vec::new(),
            tracer: Tracer::default(),
            host: Host::default(),
            start: Instant::now(),
        }
    }

    pub fn class_names(&self) -> Vec<String> {
        self.classes.iter().map(|c| c.name.clone()).collect()
    }

    /// Seconds into the measured window.
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn add_busy(&mut self, dur: Duration) {
        let sec = self.now() as usize;
        if self.busy.len() <= sec {
            self.busy.resize(sec + 1, 0.0);
        }
        self.busy[sec] += dur.as_secs_f64();
    }

    /// The timed phase's length in seconds, at the nominal host speed.
    pub fn busy_scaled(&self) -> f64 {
        self.busy
            .iter()
            .enumerate()
            .map(|(sec, b)| b * self.host.scale(sec as f64, sec as f64 + 1.0))
            .sum()
    }

    /// Records a read. `code` is the delivered image's size when the read
    /// succeeded and its image passed the oracle. A read without a class
    /// is counted, checked and added to the timed phase, but its latency
    /// is not recorded.
    pub fn read(&mut self, class: Option<usize>, dur: Duration, outcome: Result<usize, String>) {
        let name = class.map_or("untimed read", |c| self.classes[c].name.as_str());
        let failure = outcome.as_ref().err().map(|e| format!("{name}: {e}"));
        if let (Some(c), true) = (class, outcome.is_ok()) {
            self.classes[c].seen += 1;
        }
        if !self.measuring {
            if let Some(e) = failure {
                self.failures.push(format!("warm-up {e}"));
            }
            return;
        }
        self.attempted += 1;
        self.add_busy(dur);
        let Ok(code) = outcome else {
            self.failures.extend(failure);
            return;
        };
        self.ok += 1;
        self.code_sum += code as u64;
        self.code_n += 1;
        let at = self.now() as f32;
        let us = (dur.as_secs_f64() * 1e6) as f32;
        if let Some(c) = class {
            let c = &mut self.classes[c];
            if self.tracing {
                c.traced_lat.push(us);
            } else {
                c.lat.push(us);
                c.lat_at.push(at);
            }
        }
    }

    pub fn write(&mut self, class: usize, dur: Duration, outcome: Result<(), String>) {
        if !self.measuring {
            if let Err(e) = outcome {
                self.failures
                    .push(format!("warm-up write {}: {e}", self.writes[class].name));
            }
            return;
        }
        self.attempted += 1;
        self.add_busy(dur);
        match outcome {
            Ok(()) => {
                self.ok += 1;
                if !self.tracing {
                    let at = self.now() as f32;
                    let w = &mut self.writes[class];
                    w.lat.push((dur.as_secs_f64() * 1e6) as f32);
                    w.lat_at.push(at);
                }
            }
            Err(e) => self
                .failures
                .push(format!("write {}: {e}", self.writes[class].name)),
        }
    }

    /// Time the client spent waiting inside the timed phase without an
    /// operation of its own (the tier0 barrier).
    pub fn wait(&mut self, dur: Duration) {
        if self.measuring {
            self.add_busy(dur);
        }
    }

    /// An image run time; recorded in untraced measuring blocks only.
    pub fn exec(&mut self, class: usize, us: f64) {
        if self.measuring && !self.tracing {
            let at = self.now() as f32;
            let c = &mut self.classes[class];
            c.exec.push(us as f32);
            c.exec_at.push(at);
        }
    }

    /// Whether the class's next already-verified delivery should be run
    /// for an exec sample.
    pub fn exec_due(&self, class: usize) -> bool {
        self.classes[class].seen.is_multiple_of(EXEC_STRIDE)
    }

    /// Independently measured per-layer times of one traced read.
    pub fn layers(&mut self, class: usize, parts: &[(&'static str, f64)]) {
        if self.measuring && self.tracing {
            for (name, us) in parts {
                self.classes[class]
                    .layers
                    .entry(name)
                    .or_default()
                    .push(*us);
            }
        }
    }
}

// ---- statistics ---------------------------------------------------------

fn sorted<T: Copy + Into<f64>>(v: &[T]) -> Vec<f64> {
    let mut s: Vec<f64> = v.iter().map(|x| (*x).into()).collect();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile, `p` in `0..=100`.
pub fn percentile<T: Copy + Into<f64>>(v: &[T], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let s = sorted(v);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median<T: Copy + Into<f64>>(v: &[T]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Most chunks a class's samples are cut into.
const MAX_CHUNKS: usize = 20;
/// Fewest samples in a chunk: a p90 keeps at least ten samples beyond it.
const MIN_CHUNK: usize = 100;

/// Percentile `p` of time-ordered samples `v` taken at `at` (seconds into
/// the window), at the nominal host speed: taken in each of up to
/// [`MAX_CHUNKS`] consecutive chunks of at least [`MIN_CHUNK`] samples,
/// scaled by the host reference samples of the chunk's span, and averaged
/// over the chunks. The host's speed moves in phases of seconds to
/// minutes, and every timing moves with it; the scaling takes that out,
/// and a percentile per chunk keeps each one inside a phase.
pub fn scaled(v: &[f32], at: &[f32], p: f64, host: &Host) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let k = (v.len() / MIN_CHUNK).clamp(1, MAX_CHUNKS);
    let per = v.len() / k;
    let parts: Vec<f64> = (0..k)
        .map(|i| {
            let end = if i + 1 == k { v.len() } else { (i + 1) * per };
            let span = (f64::from(at[i * per]), f64::from(at[end - 1]));
            percentile(&v[i * per..end], p) * host.scale(span.0, span.1)
        })
        .collect();
    parts.iter().sum::<f64>() / parts.len() as f64
}

pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() || v.iter().any(|x| *x <= 0.0 || !x.is_finite()) {
        return f64::NAN;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` gives them (the
/// default "exclusive" method).
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let ld = s.len();
    if ld < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

// ---- host ---------------------------------------------------------------

/// The host reference loop's nominal time (µs). Timings are reported as
/// they would read on a host where one reference sample takes this long.
pub const REF_US: f64 = 1000.0;

/// One sample of the host reference loop: allocate a 16Ki-node linked
/// list (about 1 MB) and chase it twice in scrambled order (µs). The work
/// is fixed, so a change in this figure is a change in the host's
/// allocation and memory speed, which are what move the workloads, not in
/// the program.
fn host_ref_once() -> f64 {
    const N: usize = 1 << 14;
    let t = Instant::now();
    let mut next: Vec<Box<usize>> = Vec::with_capacity(N);
    // i -> (1597 i + 1) mod N visits every node once per pass: a linear
    // congruential map with an odd increment and a multiplier = 1 (mod 4)
    // has full period modulo a power of two.
    for i in 0..N {
        next.push(Box::new((i * 1597 + 1) % N));
    }
    let mut at = 0usize;
    for _ in 0..2 * N {
        at = *next[at];
    }
    black_box(at);
    drop(black_box(next));
    t.elapsed().as_secs_f64() * 1e6
}

/// The median of `n` host reference samples.
pub fn host_ref(n: usize) -> f64 {
    let v: Vec<f64> = (0..n).map(|_| host_ref_once()).collect();
    median(&v)
}

/// Host reference samples taken between operations of the measured
/// window, as (seconds into the window, µs).
#[derive(Default)]
pub struct Host {
    samples: Vec<(f64, f64)>,
}

impl Host {
    pub fn sample(&mut self, at: f64) {
        self.samples.push((at, host_ref_once()));
    }

    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|(_, v)| *v).collect()
    }

    /// The factor that brings a time measured during `[t0, t1]` to the
    /// nominal host speed: [`REF_US`] over the median reference sample
    /// taken in that span, or over the sample nearest to it when none was.
    pub fn scale(&self, t0: f64, t1: f64) -> f64 {
        let inside: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| (t0..=t1).contains(t))
            .map(|(_, v)| *v)
            .collect();
        let r = if inside.is_empty() {
            let mid = (t0 + t1) / 2.0;
            self.samples
                .iter()
                .min_by(|a, b| (a.0 - mid).abs().total_cmp(&(b.0 - mid).abs()))
                .map_or(REF_US, |(_, v)| *v)
        } else {
            median(&inside)
        };
        REF_US / r
    }
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// nproc, the checkout's git revision (read from `.git` without running
/// git; "none" outside a repository) and the build profile.
pub fn fingerprint() -> String {
    let nproc = crate::cpu::available();
    let rev = git_rev().unwrap_or_else(|| "none".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("nproc={nproc} rev={rev} profile={profile}")
}

fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Per-second drift of read latency: for each second of the window, the
/// geometric mean over classes of (that second's class median / the whole
/// window's class median).
pub fn drift(classes: &[ClassStats]) -> Vec<f64> {
    let secs = classes
        .iter()
        .flat_map(|c| c.lat_at.last())
        .fold(0.0f64, |a, b| a.max(f64::from(*b)))
        .ceil() as usize;
    (0..secs)
        .map(|w| {
            let ratios: Vec<f64> = classes
                .iter()
                .filter_map(|c| {
                    let v: Vec<f32> = c
                        .lat
                        .iter()
                        .zip(&c.lat_at)
                        .filter(|(_, t)| **t as usize == w)
                        .map(|(l, _)| *l)
                        .collect();
                    (!v.is_empty()).then(|| median(&v) / median(&c.lat))
                })
                .collect();
            geomean(&ratios)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(median(&v), 5.5);
    }
}

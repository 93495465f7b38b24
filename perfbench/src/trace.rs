//! In-memory span recording for the traced run. Spans are kept in a
//! vector while the run lasts and written out as JSON lines at exit.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// No parent.
pub const ROOT: usize = usize::MAX;

struct Span {
    name: &'static str,
    class: usize,
    /// Shared by a read's client-side spans and its in-process replay.
    rid: u64,
    parent: usize,
    start: Instant,
    end: Instant,
}

impl Span {
    fn us(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_rid: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_rid: 1,
        }
    }
}

impl Tracer {
    pub fn rid(&mut self) -> u64 {
        self.next_rid += 1;
        self.next_rid
    }

    /// Records a finished span and returns its index (to parent others).
    pub fn record(
        &mut self,
        name: &'static str,
        class: usize,
        rid: u64,
        parent: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            class,
            rid,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a root span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        class: usize,
        rid: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let i = self.record(name, class, rid, ROOT, t0, t1);
        (out, self.spans[i].us())
    }

    /// Each span's self time: its duration minus the time its children
    /// cover.
    fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::us).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                own[s.parent] -= s.us();
            }
        }
        own
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path, classes: &[String]) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let own = self.self_us();
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let class = classes.get(s.class).map(String::as_str).unwrap_or("-");
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"class\": \"{class}\", \"rid\": {}, \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_us\": {:.3}}}",
                s.name,
                s.rid,
                s.start.duration_since(self.origin).as_nanos(),
                s.end.duration_since(self.origin).as_nanos(),
                own[i],
            )?;
        }
        out.flush()
    }
}

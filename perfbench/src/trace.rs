//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, id)`: `id` is the request id in
//! the replay and the target object in the replica. Spans are kept in a
//! plain vector while the run executes and written out once at the end.
//! A layer's number is its **self time**: the span's duration minus the
//! part covered by its child spans.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    id: u64,
}

/// Self time (ns) and span count per span name.
#[derive(Debug, Default)]
pub struct SelfTimes(pub BTreeMap<&'static str, (u64, u64)>);

impl SelfTimes {
    /// Summed self time of `name`, in milliseconds (0 when never opened).
    pub fn ms(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e6)
    }

    /// How many spans named `name` were recorded.
    pub fn count(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |&(_, n)| n)
    }
}

/// One thread's spans; per-thread traces are merged with [`Trace::absorb`].
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new() }
    }

    /// The instant timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, id: u64) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id });
        (self.spans.len() - 1) as u32
    }

    /// Close span `idx` and return its duration in nanoseconds.
    pub fn close(&mut self, idx: u32) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[idx as usize];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(name, parent, id);
        let out = f();
        self.close(idx);
        out
    }

    /// Append another trace (same origin), re-basing its parent links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time per span name, in nanoseconds, plus the span count.
    pub fn self_times(&self) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(*child);
            e.1 += 1;
        }
        SelfTimes(out)
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one tab-separated line:
    /// `index parent name start_ns end_ns id` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tparent\tname\tstart_ns\tend_ns\tid")?;
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == ROOT {
                writeln!(out, "{i}\t-\t{}\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns, s.id)?;
            } else {
                writeln!(
                    out,
                    "{i}\t{}\t{}\t{}\t{}\t{}",
                    s.parent, s.name, s.start_ns, s.end_ns, s.id
                )?;
            }
        }
        out.flush()
    }
}

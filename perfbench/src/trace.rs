//! In-memory spans recorded around calls into each layer's public
//! functions, rolled up into per-layer self times and written out as CSV
//! when the run ends.
//!
//! The server's internals are not instrumented, so a request's
//! server-side spans come from replaying that request through the same
//! public functions in-process (`serve::serve`, `serve::decode_frame`,
//! `ZigzagService::dispatch`, `SessionStore::append`, …). A replayed
//! child therefore does not sit inside its parent's interval in time; a
//! span's self time is its duration minus the durations of its children
//! (clamped at zero), which is the interval rule applied to the logical
//! call tree.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// The layers spans are attributed to, named after the program's modules.
pub const LAYERS: [&str; 8] = [
    "net", "wire", "serve", "service", "core", "coord", "store", "client",
];

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called (`wire.decode_frame`, `store.append`, …).
    pub name: &'static str,
    /// The layer its self time is billed to (one of [`LAYERS`]).
    pub layer: &'static str,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to; spans of one request share it.
    pub req: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. One per thread; merge with [`Trace::absorb`].
#[derive(Debug, Clone)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Per-layer rollup of a trace.
#[derive(Debug, Default)]
pub struct Rollup {
    /// Total self time per layer, in nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Number of root spans (requests).
    pub roots: u64,
    /// The part of [`Rollup::self_ns`] billed to root spans: a request's
    /// duration minus its replayed children, which no span measured.
    pub root_self_ns: u64,
}

impl Rollup {
    /// Self time of every span below the roots: the time the spans
    /// actually measured.
    pub fn measured_ns(&self) -> u64 {
        self.self_ns.values().sum::<u64>() - self.root_self_ns
    }
}

impl Trace {
    /// An empty trace whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records one span and returns its index (for children's `parent`).
    pub fn push(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Times `f` as one span and returns its result and the span index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        (out, self.push(name, layer, start, end, parent, req))
    }

    /// Moves every span of `other` into this trace (both must share the
    /// epoch), returning the index offset applied to `other`'s spans.
    pub fn absorb(&mut self, other: Trace) -> usize {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        offset
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self time per layer: each span's duration minus its children's,
    /// clamped at zero.
    pub fn rollup(&self) -> Rollup {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = Rollup::default();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.duration_ns().saturating_sub(child_ns[i]);
            *out.self_ns.entry(s.layer).or_default() += own;
            if s.parent.is_none() {
                out.roots += 1;
                out.root_self_ns += own;
            }
        }
        out
    }

    /// Writes the spans as CSV (`index,name,layer,start_ns,end_ns,parent,req`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("index,name,layer,start_ns,end_ns,parent,req\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i},{},{},{},{},{parent},{}",
                s.name, s.layer, s.start_ns, s.end_ns, s.req
            );
        }
        fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        let t0 = Instant::now();
        let at = |ns: u64| t0 + Duration::from_nanos(ns);
        let mut tr = Trace::new(t0);
        let root = tr.push("net.round_trip", "net", at(0), at(100), None, 7);
        let serve = tr.push("serve.frame", "serve", at(200), at(260), Some(root), 7);
        tr.push(
            "service.dispatch",
            "service",
            at(300),
            at(340),
            Some(serve),
            7,
        );
        // A replayed child longer than its parent bills the parent zero.
        tr.push(
            "wire.decode_frame",
            "wire",
            at(400),
            at(430),
            Some(serve),
            7,
        );
        let r = tr.rollup();
        assert_eq!(r.self_ns["net"], 40);
        assert_eq!(r.self_ns["serve"], 0);
        assert_eq!(r.self_ns["service"], 40);
        assert_eq!(r.self_ns["wire"], 30);
        assert_eq!(r.roots, 1);
        // The root's 40 ns is what the replayed spans did not cover.
        assert_eq!(r.root_self_ns, 40);
        assert_eq!(r.measured_ns(), 70);
    }
}

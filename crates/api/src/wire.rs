//! A stable, dependency-free wire encoding for [`Query`] / [`Response`].
//!
//! Future networked serving needs requests and answers that survive a
//! byte pipe. Like the run codec (`zigzag_bcm::codec`, which this module
//! reuses verbatim for the runs embedded in fast-run responses), the
//! format is line-oriented text that diffs well and carries a version
//! header:
//!
//! ```text
//! zigzag-query v1
//! knows 1 2 2 1 2 2 1 1 2 2 1 1 0 4
//! ```
//!
//! General nodes are encoded as `⟨proc, index, path-len, path…⟩`; option
//! values as `.` for `None`. Round-tripping is lossless: decoding an
//! encoded query (or response) yields a value equal to the original, and
//! dispatching a decoded query returns the identical response (pinned by
//! a property test in `tests/service.rs`).
//!
//! # zigzag-frame v1 over stream transports
//!
//! On an in-memory batch, frames and responses are plain strings. On a
//! **stream transport** (TCP, Unix sockets — [`crate::net`]), documents
//! are **length-delimited**: each direction carries a sequence of
//! envelopes
//!
//! ```text
//! ┌────────────────────┬──────────────────────────────┐
//! │ length: u32, BE    │ document: length bytes, UTF-8 │
//! └────────────────────┴──────────────────────────────┘
//! ```
//!
//! where the document is, client→server, a complete `zigzag-frame v1`
//! text ([`crate::serve::encode_frame`]) and, server→client, a
//! `zigzag-response v1` or `zigzag-error v1` text — exactly the strings
//! the in-process [`crate::serve::serve`] loop consumes and produces, so
//! the socket boundary adds framing and nothing else. Responses come
//! back in the connection's frame-arrival order. A length above the
//! server's configured cap, or a payload that is not UTF-8, is
//! unrecoverable (the stream can no longer be re-synchronized): the
//! server answers one `zigzag-error v1` envelope and closes the
//! connection. See [`crate::net`] for the listener.

#![deny(clippy::cast_possible_truncation)]

use std::fmt;

use zigzag_bcm::{codec, NetPath, NodeId, ProcessId, Time};
use zigzag_core::{GeneralNode, MaxXMatrix};

use crate::error::Error;
use crate::query::{CoordReport, FastRunReport, Query, Response, WitnessReport};

const QUERY_HEADER: &str = "zigzag-query v1";
const RESPONSE_HEADER: &str = "zigzag-response v1";

/// Maximum `batch` nesting depth accepted by the decoders. Decoding
/// recurses per nesting level, so an unbounded depth would let a small
/// hostile document (`batch 1\n` repeated) overflow the stack; genuine
/// clients batch flat or near-flat.
const MAX_BATCH_DEPTH: usize = 16;

fn bad(line: usize, detail: impl Into<String>) -> Error {
    Error::Wire {
        line,
        detail: detail.into(),
    }
}

fn push_node<W: fmt::Write>(out: &mut W, n: NodeId) -> fmt::Result {
    write!(out, " {} {}", n.proc().index(), n.index())
}

fn push_theta<W: fmt::Write>(out: &mut W, theta: &GeneralNode) -> fmt::Result {
    push_node(out, theta.base())?;
    let procs = theta.path().procs();
    write!(out, " {}", procs.len())?;
    for p in procs {
        write!(out, " {}", p.index())?;
    }
    Ok(())
}

fn push_opt<W: fmt::Write>(out: &mut W, v: Option<i64>) -> fmt::Result {
    match v {
        Some(v) => write!(out, " {v}"),
        None => out.write_str(" ."),
    }
}

fn push_opt_node<W: fmt::Write>(out: &mut W, n: Option<NodeId>) -> fmt::Result {
    match n {
        Some(n) => push_node(out, n),
        None => out.write_str(" ."),
    }
}

/// Embeds a session snapshot as `snaplines <k>` followed by the complete
/// `zigzag-snap v3` document — the same count-then-lines shape as the
/// `runlines` embed of fast-run responses.
fn push_snapshot<W: fmt::Write>(out: &mut W, snap: &crate::store::SessionSnapshot) -> fmt::Result {
    let encoded = crate::store::encode_snapshot(snap);
    writeln!(out, "snaplines {}", encoded.lines().count())?;
    for l in encoded.lines() {
        out.write_str(l)?;
        out.write_str("\n")?;
    }
    Ok(())
}

/// Reads a `snaplines`-embedded snapshot back, count-validated before
/// any line is consumed.
fn pull_snapshot(lines: &mut Lines<'_>) -> Result<crate::store::SessionSnapshot, Error> {
    let kline = lines.next()?;
    let kno = lines.line_no();
    let mut kt = Tokens::new(kline, kno);
    if kt.next()? != "snaplines" {
        return Err(bad(kno, "expected snaplines"));
    }
    let k = lines.expect_lines(kt.num()?, "embedded snapshot")?;
    kt.done()?;
    let mut encoded = String::new();
    for _ in 0..k {
        encoded.push_str(lines.next()?);
        encoded.push('\n');
    }
    crate::store::decode_snapshot(&encoded)
        .map_err(|e| bad(lines.line_no(), format!("embedded snapshot: {e}")))
}

fn encode_query_into<W: fmt::Write>(out: &mut W, q: &Query) -> fmt::Result {
    match q {
        Query::MaxX {
            sigma,
            theta1,
            theta2,
        } => {
            out.write_str("maxx")?;
            push_node(out, *sigma)?;
            push_theta(out, theta1)?;
            push_theta(out, theta2)?;
            out.write_str("\n")
        }
        Query::Knows {
            sigma,
            theta1,
            theta2,
            x,
        } => {
            out.write_str("knows")?;
            push_node(out, *sigma)?;
            push_theta(out, theta1)?;
            push_theta(out, theta2)?;
            writeln!(out, " {x}")
        }
        Query::Witness {
            sigma,
            theta1,
            theta2,
        } => {
            out.write_str("witness")?;
            push_node(out, *sigma)?;
            push_theta(out, theta1)?;
            push_theta(out, theta2)?;
            out.write_str("\n")
        }
        Query::MaxXMatrix { sigma } => {
            out.write_str("matrix")?;
            push_node(out, *sigma)?;
            out.write_str("\n")
        }
        Query::TightBound { from, to } => {
            out.write_str("tight")?;
            push_node(out, *from)?;
            push_node(out, *to)?;
            out.write_str("\n")
        }
        Query::FastRun {
            sigma,
            theta,
            gamma,
            extra_horizon,
        } => {
            out.write_str("fastrun")?;
            push_node(out, *sigma)?;
            push_theta(out, theta)?;
            writeln!(out, " {gamma} {extra_horizon}")
        }
        Query::CoordDecision => out.write_str("coord\n"),
        Query::Stats => out.write_str("stats\n"),
        Query::Export => out.write_str("export\n"),
        Query::Import(snap) => {
            out.write_str("import\n")?;
            push_snapshot(out, snap)
        }
        Query::Append(ev) => {
            // `append` followed by one `ev …` line in the run codec's
            // event encoding — the same line the session log stores.
            out.write_str("append\n")?;
            out.write_str(&codec::encode_event(ev))?;
            out.write_str("\n")
        }
        Query::EventCount => out.write_str("events\n"),
        Query::Recover => out.write_str("recover\n"),
        Query::QueryBatch(queries) => {
            writeln!(out, "batch {}", queries.len())?;
            for q in queries {
                encode_query_into(out, q)?;
            }
            Ok(())
        }
    }
}

/// Writer-based form of [`encode_query`]: streams the `zigzag-query v1`
/// document (header included) into `out` — byte-identical to the
/// `String`-returning encoder, without allocating an intermediate
/// `String` (the serving loop appends directly onto its response
/// buffers; pinned by a property test in `tests/service.rs`).
///
/// # Errors
///
/// Propagates `out`'s write error (encoding itself cannot fail).
pub fn encode_query_to<W: fmt::Write>(out: &mut W, q: &Query) -> fmt::Result {
    out.write_str(QUERY_HEADER)?;
    out.write_str("\n")?;
    encode_query_into(out, q)
}

/// Encodes a query into the `zigzag-query v1` text format.
pub fn encode_query(q: &Query) -> String {
    let mut out = String::new();
    encode_query_to(&mut out, q).expect("writing to a String is infallible");
    out
}

fn encode_response_into<W: fmt::Write>(out: &mut W, r: &Response) -> fmt::Result {
    match r {
        Response::MaxX(v) => {
            out.write_str("maxx")?;
            push_opt(out, *v)?;
            out.write_str("\n")
        }
        Response::Knows(b) => writeln!(out, "knows {b}"),
        Response::Witness(None) => out.write_str("witness .\n"),
        Response::Witness(Some(WitnessReport { weight, pattern })) => {
            writeln!(out, "witness {weight} {pattern}")
        }
        Response::MaxXMatrix(m) => {
            writeln!(out, "matrix {}", m.len())?;
            out.write_str("mnodes")?;
            for &n in m.nodes() {
                push_node(out, n)?;
            }
            out.write_str("\n")?;
            for i in 0..m.len() {
                out.write_str("mrow")?;
                for j in 0..m.len() {
                    push_opt(out, m.at(i, j))?;
                }
                out.write_str("\n")?;
            }
            Ok(())
        }
        Response::TightBound(v) => {
            out.write_str("tight")?;
            push_opt(out, *v)?;
            out.write_str("\n")
        }
        Response::FastRun(FastRunReport {
            sigma,
            gamma,
            theta_time,
            run,
        }) => {
            out.write_str("fastrun")?;
            push_node(out, *sigma)?;
            writeln!(out, " {gamma} {}", theta_time.ticks())?;
            // The embedded run is a `zigzag-run v2` document, verbatim.
            let encoded = codec::encode(run);
            writeln!(out, "runlines {}", encoded.lines().count())?;
            for l in encoded.lines() {
                out.write_str(l)?;
                out.write_str("\n")?;
            }
            Ok(())
        }
        Response::CoordDecision(CoordReport {
            first_known,
            sigma_c,
        }) => {
            out.write_str("coord")?;
            push_opt_node(out, *first_known)?;
            push_opt_node(out, *sigma_c)?;
            out.write_str("\n")
        }
        Response::Stats(s) => {
            writeln!(
                out,
                "stats {} {} {} {}",
                s.queries, s.observer_hits, s.observer_misses, s.observer_evictions
            )?;
            out.write_str("lat")?;
            for b in &s.latency.buckets {
                write!(out, " {b}")?;
            }
            out.write_str("\nshards")?;
            write!(out, " {}", s.sessions_per_shard.len())?;
            for c in &s.sessions_per_shard {
                write!(out, " {c}")?;
            }
            out.write_str("\nqueues")?;
            write!(out, " {}", s.queue_depths.len())?;
            for d in &s.queue_depths {
                write!(out, " {d}")?;
            }
            let t = &s.transport;
            writeln!(
                out,
                "\nnet 9 {} {} {} {} {} {} {} {} {}",
                t.bytes_in,
                t.bytes_out,
                t.read_syscalls,
                t.write_syscalls,
                t.frames_in,
                t.frames_out,
                t.writer_flushes,
                t.connections,
                t.conn_failures
            )?;
            let d = &s.store;
            writeln!(
                out,
                "store 5 {} {} {} {} {}",
                d.events_logged, d.bytes_written, d.snapshots, d.recoveries, d.migrations
            )
        }
        Response::ResponseBatch(responses) => {
            writeln!(out, "batch {}", responses.len())?;
            for r in responses {
                encode_response_into(out, r)?;
            }
            Ok(())
        }
        Response::Exported(snap) => {
            out.write_str("exported\n")?;
            push_snapshot(out, snap)
        }
        Response::Imported(id) => writeln!(out, "imported {}", id.raw()),
        Response::Appended(n) => writeln!(out, "appended {n}"),
        Response::EventCount(n) => writeln!(out, "events {n}"),
        Response::Recovered(list) => {
            // `recovered <k>` then k `rec <name> <raw-id>` lines; names
            // are token-escaped like the store's own documents.
            writeln!(out, "recovered {}", list.len())?;
            for (name, id) in list {
                writeln!(out, "rec {} {}", codec::escape_token(name), id.raw())?;
            }
            Ok(())
        }
    }
}

/// Writer-based form of [`encode_response`]: streams the
/// `zigzag-response v1` document (header included) into `out` —
/// byte-identical to the `String`-returning encoder, without allocating
/// an intermediate `String` per response (the [`crate::serve`] loop's hot
/// write path; pinned by a property test in `tests/service.rs`).
///
/// # Errors
///
/// Propagates `out`'s write error (encoding itself cannot fail).
pub fn encode_response_to<W: fmt::Write>(out: &mut W, r: &Response) -> fmt::Result {
    out.write_str(RESPONSE_HEADER)?;
    out.write_str("\n")?;
    encode_response_into(out, r)
}

/// Encodes a response into the `zigzag-response v1` text format.
pub fn encode_response(r: &Response) -> String {
    let mut out = String::new();
    encode_response_to(&mut out, r).expect("writing to a String is infallible");
    out
}

/// A cursor over the document's lines, tracking position for errors.
/// Wraps the borrowing line iterator directly — decoding a frame never
/// allocates a line table (the socket fast path decodes one frame per
/// request at steady state; see `tests/netalloc.rs`).
struct Lines<'a> {
    it: std::str::Lines<'a>,
    pos: usize,
    /// Lines not yet consumed, counted once at construction and kept in
    /// step — so count-field validation is O(1) per check. (Walking a
    /// clone of the iterator instead would make a document of N
    /// count-bearing lines cost O(N²) to refuse: a remotely triggerable
    /// CPU sink at 16 MiB frames.)
    left: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        let it = text.lines();
        Lines {
            left: it.clone().count(),
            it,
            pos: 0,
        }
    }

    fn line_no(&self) -> usize {
        self.pos
    }

    /// Lines left in the document — O(1), maintained by [`Lines::try_next`].
    fn remaining(&self) -> usize {
        self.left
    }

    /// Validates a count field that promises `n` further lines: a
    /// malformed document must produce [`Error::Wire`], never a
    /// pre-allocation of attacker-controlled size.
    fn expect_lines(&self, n: usize, what: &str) -> Result<usize, Error> {
        let remaining = self.remaining();
        if n > remaining {
            return Err(bad(
                self.pos,
                format!("{what} promises {n} lines but only {remaining} remain"),
            ));
        }
        Ok(n)
    }

    fn next(&mut self) -> Result<&'a str, Error> {
        let line = self
            .try_next()
            .ok_or_else(|| bad(self.pos, "unexpected end of document"))?;
        Ok(line)
    }

    /// [`Lines::next`] without the error construction — for end-of-input
    /// probes where exhaustion is the expected case (building and
    /// discarding the error there would put an allocation on the decode
    /// fast path).
    fn try_next(&mut self) -> Option<&'a str> {
        let line = self.it.next()?;
        self.pos += 1;
        self.left -= 1;
        Some(line)
    }
}

/// A token cursor over one line.
struct Tokens<'a> {
    it: std::str::SplitWhitespace<'a>,
    line_no: usize,
}

impl<'a> Tokens<'a> {
    fn new(line: &'a str, line_no: usize) -> Self {
        Tokens {
            it: line.split_whitespace(),
            line_no,
        }
    }

    fn next(&mut self) -> Result<&'a str, Error> {
        self.it
            .next()
            .ok_or_else(|| bad(self.line_no, "missing token"))
    }

    fn num<T: std::str::FromStr>(&mut self) -> Result<T, Error> {
        let tok = self.next()?;
        tok.parse()
            .map_err(|_| bad(self.line_no, format!("bad number {tok:?}")))
    }

    fn node(&mut self) -> Result<NodeId, Error> {
        let p: u32 = self.num()?;
        let i: u32 = self.num()?;
        Ok(NodeId::new(ProcessId::new(p), i))
    }

    fn opt(&mut self) -> Result<Option<i64>, Error> {
        let tok = self.next()?;
        if tok == "." {
            return Ok(None);
        }
        tok.parse()
            .map(Some)
            .map_err(|_| bad(self.line_no, format!("bad value {tok:?}")))
    }

    fn opt_node(&mut self) -> Result<Option<NodeId>, Error> {
        let tok = self.next()?;
        if tok == "." {
            return Ok(None);
        }
        let p: u32 = tok
            .parse()
            .map_err(|_| bad(self.line_no, format!("bad process {tok:?}")))?;
        let i: u32 = self.num()?;
        Ok(Some(NodeId::new(ProcessId::new(p), i)))
    }

    /// Number of tokens left on the line — the budget any same-line
    /// count field must respect before anything is allocated for it.
    fn remaining_on_line(&self) -> usize {
        self.it.clone().count()
    }

    fn theta(&mut self) -> Result<GeneralNode, Error> {
        let base = self.node()?;
        let n: usize = self.num()?;
        // The n path tokens must already be on this line; reject the
        // count before allocating for it.
        if n > self.remaining_on_line() {
            return Err(bad(self.line_no, format!("path promises {n} hops")));
        }
        let mut procs = Vec::with_capacity(n);
        for _ in 0..n {
            procs.push(ProcessId::new(self.num()?));
        }
        let path = NetPath::new(procs)
            .map_err(|e| bad(self.line_no, format!("bad general-node path: {e}")))?;
        GeneralNode::new(base, path)
            .map_err(|e| bad(self.line_no, format!("bad general node: {e}")))
    }

    fn done(&mut self) -> Result<(), Error> {
        match self.it.next() {
            Some(tok) => Err(bad(self.line_no, format!("trailing token {tok:?}"))),
            None => Ok(()),
        }
    }
}

fn decode_query_from(lines: &mut Lines<'_>, depth: usize) -> Result<Query, Error> {
    let line = lines.next()?;
    let no = lines.line_no();
    let mut t = Tokens::new(line, no);
    let kind = t.next()?;
    let q = match kind {
        "maxx" => Query::MaxX {
            sigma: t.node()?,
            theta1: t.theta()?,
            theta2: t.theta()?,
        },
        "knows" => Query::Knows {
            sigma: t.node()?,
            theta1: t.theta()?,
            theta2: t.theta()?,
            x: t.num()?,
        },
        "witness" => Query::Witness {
            sigma: t.node()?,
            theta1: t.theta()?,
            theta2: t.theta()?,
        },
        "matrix" => Query::MaxXMatrix { sigma: t.node()? },
        "tight" => Query::TightBound {
            from: t.node()?,
            to: t.node()?,
        },
        "fastrun" => Query::FastRun {
            sigma: t.node()?,
            theta: t.theta()?,
            gamma: t.num()?,
            extra_horizon: t.num()?,
        },
        "coord" => Query::CoordDecision,
        "stats" => Query::Stats,
        "export" => Query::Export,
        "events" => Query::EventCount,
        "recover" => Query::Recover,
        "append" => {
            t.done()?;
            lines.expect_lines(1, "appended event")?;
            let evline = lines.next()?;
            let ev = codec::decode_event(evline)
                .map_err(|e| bad(lines.line_no(), format!("embedded event: {e}")))?;
            return Ok(Query::Append(Box::new(ev)));
        }
        "import" => {
            t.done()?;
            return Ok(Query::Import(Box::new(pull_snapshot(lines)?)));
        }
        "batch" => {
            if depth >= MAX_BATCH_DEPTH {
                return Err(bad(no, format!("batch nesting exceeds {MAX_BATCH_DEPTH}")));
            }
            let k = lines.expect_lines(t.num()?, "query batch")?;
            t.done()?;
            let mut queries = Vec::with_capacity(k);
            for _ in 0..k {
                queries.push(decode_query_from(lines, depth + 1)?);
            }
            return Ok(Query::QueryBatch(queries));
        }
        other => return Err(bad(no, format!("unknown query {other:?}"))),
    };
    t.done()?;
    Ok(q)
}

/// Decodes a `zigzag-query v1` document.
///
/// # Errors
///
/// Returns [`Error::Wire`] on malformed input.
pub fn decode_query(text: &str) -> Result<Query, Error> {
    let mut lines = Lines::new(text);
    let header = lines.next()?;
    if header.trim() != QUERY_HEADER {
        return Err(bad(1, format!("bad header {header:?}")));
    }
    let q = decode_query_from(&mut lines, 0)?;
    match lines.try_next() {
        None => Ok(q),
        Some(extra) => Err(bad(lines.line_no(), format!("trailing line {extra:?}"))),
    }
}

/// Decodes one `<tag> <n> <v0> … <v(n-1)>` gauge line of a stats
/// document, validating the count against the line before allocating.
fn counted_u64s(lines: &mut Lines<'_>, tag: &str) -> Result<Vec<u64>, Error> {
    let line = lines.next()?;
    let no = lines.line_no();
    let mut t = Tokens::new(line, no);
    if t.next()? != tag {
        return Err(bad(no, format!("expected {tag}")));
    }
    let n: usize = t.num()?;
    if n > t.remaining_on_line() {
        return Err(bad(no, format!("{tag} promises {n} values")));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(t.num()?);
    }
    t.done()?;
    Ok(out)
}

fn decode_response_from(lines: &mut Lines<'_>, depth: usize) -> Result<Response, Error> {
    let line = lines.next()?;
    let no = lines.line_no();
    let mut t = Tokens::new(line, no);
    let kind = t.next()?;
    match kind {
        "maxx" => {
            let v = t.opt()?;
            t.done()?;
            Ok(Response::MaxX(v))
        }
        "knows" => {
            let tok = t.next()?;
            let b = match tok {
                "true" => true,
                "false" => false,
                other => return Err(bad(no, format!("bad bool {other:?}"))),
            };
            t.done()?;
            Ok(Response::Knows(b))
        }
        "witness" => {
            let tok = t.next()?;
            if tok == "." {
                t.done()?;
                return Ok(Response::Witness(None));
            }
            let weight: i64 = tok
                .parse()
                .map_err(|_| bad(no, format!("bad weight {tok:?}")))?;
            // The pattern is the remainder of the line, verbatim (it may
            // contain spaces): everything after "witness <weight> ".
            let prefix = format!("witness {weight} ");
            let pattern = line
                .strip_prefix(&prefix)
                .ok_or_else(|| bad(no, "missing witness pattern"))?
                .to_string();
            Ok(Response::Witness(Some(WitnessReport { weight, pattern })))
        }
        "matrix" => {
            // n rows plus the mnodes line must follow.
            let n = lines.expect_lines(t.num::<usize>()?.saturating_add(1), "matrix")? - 1;
            t.done()?;
            let nline = lines.next()?;
            let nno = lines.line_no();
            let mut nt = Tokens::new(nline, nno);
            if nt.next()? != "mnodes" {
                return Err(bad(nno, "expected mnodes"));
            }
            let mut nodes = Vec::with_capacity(n);
            for _ in 0..n {
                nodes.push(nt.node()?);
            }
            nt.done()?;
            // Sized by the document as it is read, not by the promised
            // n² (which a malicious count could inflate quadratically).
            let mut data = Vec::new();
            for _ in 0..n {
                let rline = lines.next()?;
                let rno = lines.line_no();
                let mut rt = Tokens::new(rline, rno);
                if rt.next()? != "mrow" {
                    return Err(bad(rno, "expected mrow"));
                }
                for _ in 0..n {
                    data.push(rt.opt()?);
                }
                rt.done()?;
            }
            MaxXMatrix::from_parts(nodes, data)
                .map(Response::MaxXMatrix)
                .map_err(|e| bad(nno, format!("bad matrix: {e}")))
        }
        "tight" => {
            let v = t.opt()?;
            t.done()?;
            Ok(Response::TightBound(v))
        }
        "fastrun" => {
            let sigma = t.node()?;
            let gamma: u64 = t.num()?;
            let theta_time = Time::new(t.num()?);
            t.done()?;
            let kline = lines.next()?;
            let kno = lines.line_no();
            let mut kt = Tokens::new(kline, kno);
            if kt.next()? != "runlines" {
                return Err(bad(kno, "expected runlines"));
            }
            let k = lines.expect_lines(kt.num()?, "embedded run")?;
            kt.done()?;
            let mut encoded = String::new();
            for _ in 0..k {
                encoded.push_str(lines.next()?);
                encoded.push('\n');
            }
            let run = codec::decode(&encoded)
                .map_err(|e| bad(lines.line_no(), format!("embedded run: {e}")))?;
            Ok(Response::FastRun(FastRunReport {
                sigma,
                gamma,
                theta_time,
                run,
            }))
        }
        "coord" => {
            let first_known = t.opt_node()?;
            let sigma_c = t.opt_node()?;
            t.done()?;
            Ok(Response::CoordDecision(CoordReport {
                first_known,
                sigma_c,
            }))
        }
        "stats" => {
            let queries: u64 = t.num()?;
            let observer_hits: u64 = t.num()?;
            let observer_misses: u64 = t.num()?;
            let observer_evictions: u64 = t.num()?;
            t.done()?;
            let lline = lines.next()?;
            let lno = lines.line_no();
            let mut lt = Tokens::new(lline, lno);
            if lt.next()? != "lat" {
                return Err(bad(lno, "expected lat"));
            }
            let mut latency = crate::stats::LatencyHistogram::new();
            for b in latency.buckets.iter_mut() {
                *b = lt.num()?;
            }
            lt.done()?;
            let sessions_per_shard = counted_u64s(lines, "shards")?;
            let queue_depths = counted_u64s(lines, "queues")?;
            let net = counted_u64s(lines, "net")?;
            let [bytes_in, bytes_out, read_syscalls, write_syscalls, frames_in, frames_out, writer_flushes, connections, conn_failures] =
                net[..]
            else {
                return Err(bad(
                    lines.line_no(),
                    format!("net line carries {} of 9 transport counters", net.len()),
                ));
            };
            let store = counted_u64s(lines, "store")?;
            let [events_logged, bytes_written, snapshots, recoveries, migrations] = store[..]
            else {
                return Err(bad(
                    lines.line_no(),
                    format!("store line carries {} of 5 store counters", store.len()),
                ));
            };
            Ok(Response::Stats(Box::new(crate::stats::StatsReport {
                queries,
                latency,
                observer_hits,
                observer_misses,
                observer_evictions,
                sessions_per_shard,
                queue_depths,
                transport: crate::stats::TransportCounters {
                    bytes_in,
                    bytes_out,
                    read_syscalls,
                    write_syscalls,
                    frames_in,
                    frames_out,
                    writer_flushes,
                    connections,
                    conn_failures,
                },
                store: crate::stats::StoreCounters {
                    events_logged,
                    bytes_written,
                    snapshots,
                    recoveries,
                    migrations,
                },
            })))
        }
        "batch" => {
            if depth >= MAX_BATCH_DEPTH {
                return Err(bad(no, format!("batch nesting exceeds {MAX_BATCH_DEPTH}")));
            }
            let k = lines.expect_lines(t.num()?, "response batch")?;
            t.done()?;
            let mut responses = Vec::with_capacity(k);
            for _ in 0..k {
                responses.push(decode_response_from(lines, depth + 1)?);
            }
            Ok(Response::ResponseBatch(responses))
        }
        "exported" => {
            t.done()?;
            Ok(Response::Exported(Box::new(pull_snapshot(lines)?)))
        }
        "imported" => {
            let raw: u64 = t.num()?;
            t.done()?;
            Ok(Response::Imported(crate::service::SessionId::from_raw(raw)))
        }
        "appended" => {
            let n: u64 = t.num()?;
            t.done()?;
            Ok(Response::Appended(n))
        }
        "events" => {
            let n: u64 = t.num()?;
            t.done()?;
            Ok(Response::EventCount(n))
        }
        "recovered" => {
            let k = lines.expect_lines(t.num()?, "recovered sessions")?;
            t.done()?;
            let mut list = Vec::with_capacity(k);
            for _ in 0..k {
                let rline = lines.next()?;
                let rno = lines.line_no();
                let mut rt = Tokens::new(rline, rno);
                if rt.next()? != "rec" {
                    return Err(bad(rno, "expected rec"));
                }
                let name = codec::unescape_token(rt.next()?)
                    .map_err(|e| bad(rno, format!("bad session name: {e}")))?;
                let raw: u64 = rt.num()?;
                rt.done()?;
                list.push((name, crate::service::SessionId::from_raw(raw)));
            }
            Ok(Response::Recovered(list))
        }
        other => Err(bad(no, format!("unknown response {other:?}"))),
    }
}

/// Decodes a `zigzag-response v1` document.
///
/// # Errors
///
/// Returns [`Error::Wire`] on malformed input.
pub fn decode_response(text: &str) -> Result<Response, Error> {
    let mut lines = Lines::new(text);
    let header = lines.next()?;
    if header.trim() != RESPONSE_HEADER {
        return Err(bad(1, format!("bad header {header:?}")));
    }
    let r = decode_response_from(&mut lines, 0)?;
    match lines.try_next() {
        None => Ok(r),
        Some(extra) => Err(bad(lines.line_no(), format!("trailing line {extra:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zigzag_bcm::ProcessId;

    fn node(p: u32, i: u32) -> NodeId {
        NodeId::new(ProcessId::new(p), i)
    }

    fn theta(p: u32, i: u32, rest: &[u32]) -> GeneralNode {
        let rest: Vec<ProcessId> = rest.iter().map(|&r| ProcessId::new(r)).collect();
        GeneralNode::chain(node(p, i), &rest).unwrap()
    }

    #[test]
    fn queries_round_trip() {
        let queries = vec![
            Query::MaxX {
                sigma: node(1, 2),
                theta1: theta(0, 1, &[2]),
                theta2: theta(1, 2, &[]),
            },
            Query::Knows {
                sigma: node(1, 2),
                theta1: theta(0, 1, &[2, 1]),
                theta2: theta(1, 2, &[]),
                x: -7,
            },
            Query::Witness {
                sigma: node(2, 1),
                theta1: theta(0, 1, &[]),
                theta2: theta(2, 1, &[]),
            },
            Query::MaxXMatrix { sigma: node(0, 3) },
            Query::TightBound {
                from: node(0, 1),
                to: node(2, 4),
            },
            Query::FastRun {
                sigma: node(1, 1),
                theta: theta(1, 1, &[0]),
                gamma: 5,
                extra_horizon: 20,
            },
            Query::CoordDecision,
        ];
        for q in &queries {
            let text = encode_query(q);
            assert_eq!(&decode_query(&text).unwrap(), q, "{text}");
        }
        // Batches nest the same line format.
        let batch = Query::QueryBatch(queries);
        let text = encode_query(&batch);
        assert_eq!(decode_query(&text).unwrap(), batch);
    }

    #[test]
    fn simple_responses_round_trip() {
        let responses = vec![
            Response::MaxX(Some(-4)),
            Response::MaxX(None),
            Response::Knows(true),
            Response::Knows(false),
            Response::Witness(None),
            Response::Witness(Some(WitnessReport {
                weight: 3,
                pattern: "zigzag[1 fork(s): …] visible at p1#2".into(),
            })),
            Response::TightBound(Some(9)),
            Response::TightBound(None),
            Response::CoordDecision(CoordReport {
                first_known: Some(node(2, 1)),
                sigma_c: None,
            }),
            Response::MaxXMatrix(
                MaxXMatrix::from_parts(
                    vec![node(0, 1), node(1, 1)],
                    vec![Some(0), Some(3), None, Some(0)],
                )
                .unwrap(),
            ),
        ];
        for r in &responses {
            let text = encode_response(r);
            assert_eq!(&decode_response(&text).unwrap(), r, "{text}");
        }
        let batch = Response::ResponseBatch(responses);
        let text = encode_response(&batch);
        assert_eq!(decode_response(&text).unwrap(), batch);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(decode_query("").is_err());
        assert!(decode_query("nope").is_err());
        assert!(decode_query("zigzag-query v1\n").is_err());
        assert!(decode_query("zigzag-query v1\nbogus 1\n").is_err());
        assert!(decode_query("zigzag-query v1\nmaxx 1\n").is_err());
        assert!(decode_query("zigzag-query v1\ncoord\ncoord\n").is_err());
        assert!(decode_query("zigzag-query v1\ncoord extra\n").is_err());
        assert!(decode_response("zigzag-response v1\nknows maybe\n").is_err());
        assert!(decode_response("zigzag-response v1\nmatrix 1\nmnodes 0 1\n").is_err());
        assert!(decode_response("zigzag-response v1\nfastrun 0 1 0 5\nrunlines 1\nx\n").is_err());
    }

    #[test]
    fn resilience_documents_round_trip_and_reject_malformations() {
        // Real events to embed: replay a small simulated run's cursor.
        let mut b = zigzag_bcm::Network::builder();
        let c = b.add_process("C");
        let a = b.add_process("A");
        b.add_channel(c, a, 1, 3).unwrap();
        let ctx = b.build().unwrap();
        let mut sim =
            zigzag_bcm::Simulator::new(ctx, zigzag_bcm::SimConfig::with_horizon(Time::new(20)));
        sim.external(Time::new(2), c, "go");
        let run = sim
            .run(
                &mut zigzag_bcm::protocols::Ffip::new(),
                &mut zigzag_bcm::scheduler::EagerScheduler,
            )
            .unwrap();
        for ev in zigzag_bcm::RunCursor::new(&run) {
            let q = Query::Append(Box::new(ev));
            let text = encode_query(&q);
            assert_eq!(decode_query(&text).unwrap(), q, "{text}");
        }
        for q in [Query::EventCount, Query::Recover] {
            let text = encode_query(&q);
            assert_eq!(decode_query(&text).unwrap(), q, "{text}");
        }
        for r in [
            Response::Appended(7),
            Response::EventCount(0),
            Response::Recovered(vec![]),
            Response::Recovered(vec![
                (
                    "alpha.log-like".into(),
                    crate::service::SessionId::from_raw(3),
                ),
                ("b".into(), crate::service::SessionId::from_raw(0)),
            ]),
        ] {
            let text = encode_response(&r);
            assert_eq!(decode_response(&text).unwrap(), r, "{text}");
        }
        // Malformations: missing/garbled event line, trailing tokens,
        // count overrun on the recovered list.
        assert!(decode_query("zigzag-query v1\nappend\n").is_err());
        assert!(decode_query("zigzag-query v1\nappend\nmsg 0 1\n").is_err());
        assert!(decode_query("zigzag-query v1\nappend extra\nev 0 1 0 0 0\n").is_err());
        assert!(decode_query("zigzag-query v1\nevents 3\n").is_err());
        assert!(decode_query("zigzag-query v1\nrecover now\n").is_err());
        assert!(decode_response("zigzag-response v1\nappended\n").is_err());
        assert!(decode_response("zigzag-response v1\nevents x\n").is_err());
        assert!(decode_response("zigzag-response v1\nrecovered 2\nrec a 1\n").is_err());
        assert!(decode_response("zigzag-response v1\nrecovered 1\nrec a\n").is_err());
        assert!(decode_response("zigzag-response v1\nrecovered 1\nwrong a 1\n").is_err());
    }

    #[test]
    fn migration_documents_round_trip_and_reject_malformations() {
        // A real session snapshot (with events, a spec and a warm
        // observer set) to embed in Import/Exported documents.
        let mut b = zigzag_bcm::Network::builder();
        let c = b.add_process("C");
        let a = b.add_process("A");
        let bb = b.add_process("B");
        b.add_channel(c, a, 1, 3).unwrap();
        b.add_channel(c, bb, 7, 9).unwrap();
        let ctx = b.build().unwrap();
        let mut sim =
            zigzag_bcm::Simulator::new(ctx, zigzag_bcm::SimConfig::with_horizon(Time::new(40)));
        sim.external(Time::new(2), c, "go");
        let run = sim
            .run(
                &mut zigzag_bcm::protocols::Ffip::new(),
                &mut zigzag_bcm::scheduler::EagerScheduler,
            )
            .unwrap();
        let service = crate::ZigzagService::new();
        let (id, _) = service
            .open_replay(&run, crate::SessionConfig::new())
            .unwrap();
        let snap = service.export(id).unwrap();

        for q in [Query::Export, Query::Import(Box::new(snap.clone()))] {
            let text = encode_query(&q);
            assert_eq!(decode_query(&text).unwrap(), q, "{text}");
        }
        for r in [
            Response::Exported(Box::new(snap.clone())),
            Response::Imported(crate::service::SessionId::from_raw(41)),
        ] {
            let text = encode_response(&r);
            assert_eq!(decode_response(&text).unwrap(), r, "{text}");
        }

        // Malformations: trailing tokens, a bad embed count, an embedded
        // snapshot that does not decode.
        assert!(decode_query("zigzag-query v1\nexport extra\n").is_err());
        assert!(decode_query("zigzag-query v1\nimport\nsnaplines 2\nzigzag-snap v1\n").is_err());
        assert!(decode_query("zigzag-query v1\nimport\nsnaplines 1\ngarbage\n").is_err());
        assert!(decode_response("zigzag-response v1\nimported x\n").is_err());
        assert!(decode_response("zigzag-response v1\nexported\nsnaplines 1\ngarbage\n").is_err());

        // A stats document missing (or overclaiming) the store line is
        // refused like any other count malformation.
        let stats = encode_response(&service.dispatch(id, &Query::Stats).unwrap());
        assert!(stats.contains("\nstore 5 "));
        assert_eq!(
            decode_response(&stats).unwrap(),
            service.dispatch(id, &Query::Stats).unwrap()
        );
        let chopped = stats.replace("\nstore 5 ", "\nstore 9999 ");
        assert!(decode_response(&chopped).is_err());
        let missing: String = stats
            .lines()
            .filter(|l| !l.starts_with("store "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(decode_response(&missing).is_err());
    }

    #[test]
    fn hostile_counts_are_rejected_without_allocation() {
        // Counts far beyond the document must come back as wire errors,
        // not capacity panics or giant allocations.
        let huge = u64::MAX;
        for doc in [
            format!("zigzag-query v1\nbatch {huge}\n"),
            format!("zigzag-query v1\nmatrix 0 1\nbatch {huge}\n"),
            format!("zigzag-query v1\nmaxx 0 1 0 1 {huge} 0 1 1 1\n"),
            format!("zigzag-query v1\nfastrun 0 1 0 1 {huge} 0 1 2\n"),
        ] {
            assert!(
                matches!(decode_query(&doc), Err(crate::Error::Wire { .. })),
                "{doc}"
            );
        }
        let doc = format!("zigzag-query v1\nimport\nsnaplines {huge}\n");
        assert!(
            matches!(decode_query(&doc), Err(crate::Error::Wire { .. })),
            "{doc}"
        );
        for doc in [
            format!("zigzag-response v1\nbatch {huge}\n"),
            format!("zigzag-response v1\nmatrix {huge}\nmnodes\n"),
            format!("zigzag-response v1\nfastrun 0 1 0 5\nrunlines {huge}\n"),
            format!("zigzag-response v1\nexported\nsnaplines {huge}\n"),
        ] {
            assert!(
                matches!(decode_response(&doc), Err(crate::Error::Wire { .. })),
                "{doc}"
            );
        }
    }

    #[test]
    fn deep_batch_nesting_is_rejected_not_a_stack_overflow() {
        // A small document nesting `batch 1` hundreds of thousands deep
        // must come back as a wire error, not recurse the decoder off the
        // stack.
        let deep_query = format!("zigzag-query v1\n{}coord\n", "batch 1\n".repeat(500_000));
        assert!(matches!(
            decode_query(&deep_query),
            Err(crate::Error::Wire { .. })
        ));
        let deep_response = format!(
            "zigzag-response v1\n{}knows true\n",
            "batch 1\n".repeat(500_000)
        );
        assert!(matches!(
            decode_response(&deep_response),
            Err(crate::Error::Wire { .. })
        ));
        // Nesting at the limit still decodes.
        let ok = format!(
            "zigzag-query v1\n{}coord\n",
            "batch 1\n".repeat(MAX_BATCH_DEPTH)
        );
        assert!(decode_query(&ok).is_ok());
    }

    #[test]
    fn line_counting_is_exact_and_constant_time_per_check() {
        // The cursor's remaining-line count is maintained incrementally.
        let mut lines = Lines::new("a\nb\nc");
        assert_eq!(lines.remaining(), 3);
        assert!(lines.expect_lines(3, "x").is_ok());
        assert!(lines.expect_lines(4, "x").is_err());
        lines.next().unwrap();
        assert_eq!(lines.remaining(), 2);
        lines.next().unwrap();
        lines.next().unwrap();
        assert_eq!(lines.remaining(), 0);
        assert!(lines.expect_lines(1, "x").is_err());

        // A flat run of N count-bearing lines decodes in linear time: an
        // O(remaining) walk per count check would make this frame take
        // minutes, a remotely triggerable CPU sink.
        let n = 300_000;
        let flat = format!("zigzag-query v1\nbatch {n}\n{}", "batch 0\n".repeat(n));
        let start = std::time::Instant::now();
        let decoded = decode_query(&flat).unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "flat count-bearing decode is superlinear: {:?}",
            start.elapsed()
        );
        let Query::QueryBatch(items) = decoded else {
            panic!("expected a batch");
        };
        assert_eq!(items.len(), n);
    }
}

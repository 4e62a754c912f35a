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
//! This module also holds the crate's one document reader: a line cursor
//! and a token cursor that read queries, responses, frames, error
//! documents, snapshots and log headers. A document inside another — a
//! run in a snapshot or a fast-run response, a snapshot in a migration —
//! is written as a `<tag> <k>` line followed by its `k` lines, and read
//! in place from the outer document.
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
//! `zigzag-response v1` or `zigzag-error v2` text — exactly the strings
//! the in-process [`crate::serve::serve`] loop consumes and produces, so
//! the socket boundary adds framing and nothing else. Responses come
//! back in the connection's frame-arrival order. A length above the
//! server's configured cap, or a payload that is not UTF-8, is
//! unrecoverable (the stream can no longer be re-synchronized): the
//! server answers one `zigzag-error v2` envelope and closes the
//! connection. See [`crate::net`] for the listener.

#![deny(clippy::cast_possible_truncation)]

use std::fmt;

use zigzag_bcm::{codec, NetPath, NodeId, ProcessId, Run, Time};
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

/// Embeds a complete document as a `<tag> <k>` line followed by its `k`
/// lines: the one shape of every document inside another — a run in a
/// snapshot or log header (`run`), a snapshot in a migration
/// (`snaplines`), a run in a fast-run response (`runlines`).
/// [`Lines::embed`] reads it back. `doc` ends with a newline, as every
/// encoder's output does.
pub(crate) fn push_embed<W: fmt::Write>(out: &mut W, tag: &str, doc: &str) -> fmt::Result {
    debug_assert!(doc.ends_with('\n'), "embedded documents end with a newline");
    writeln!(out, "{tag} {}", doc.lines().count())?;
    out.write_str(doc)
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
            push_embed(out, "snaplines", &crate::store::encode_snapshot(snap))
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
            push_embed(out, "runlines", &codec::encode(run))
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
            push_embed(out, "snaplines", &crate::store::encode_snapshot(snap))
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

/// A cursor over a document's lines, tracking 1-based line numbers for
/// errors: the crate's one reader. Queries, responses, frames, error
/// documents, snapshots and log headers are all read through it, and a
/// document embedded in another ([`push_embed`]) is read in place by a
/// cursor over its slice of the outer document, numbered as the outer
/// lines. It borrows the document and never allocates (the socket fast
/// path decodes one frame per request at steady state; see
/// `tests/netalloc.rs`). Its errors are [`Error::Wire`]; the store
/// reports them as [`Error::Store`].
pub(crate) struct Lines<'a> {
    /// The document after the lines read so far.
    rest: &'a str,
    pos: usize,
    /// Lines not yet read: counted at the first count check and kept in
    /// step after it, so each check is O(1). (Walking the rest per check
    /// would make a document of N count-bearing lines cost O(N²) to
    /// refuse: a remotely triggerable CPU sink at 16 MiB frames.) A
    /// document without count fields is never counted, which lets routing
    /// read a frame's two header lines without walking its query.
    left: Option<usize>,
}

impl<'a> Lines<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Lines {
            rest: text,
            pos: 0,
            left: None,
        }
    }

    /// The number of the line read last (0 before the first).
    pub(crate) fn line_no(&self) -> usize {
        self.pos
    }

    /// The document after the lines read so far.
    pub(crate) fn rest(&self) -> &'a str {
        self.rest
    }

    /// Lines left in the document — O(1) after the first call.
    fn remaining(&mut self) -> usize {
        let rest = self.rest;
        *self.left.get_or_insert_with(|| rest.lines().count())
    }

    /// Validates a count field that promises `n` further lines: a
    /// malformed document must produce [`Error::Wire`], never a
    /// pre-allocation of attacker-controlled size.
    pub(crate) fn expect_lines(&mut self, n: usize, what: &str) -> Result<usize, Error> {
        let remaining = self.remaining();
        if n > remaining {
            return Err(bad(
                self.pos,
                format!("{what} promises {n} lines but only {remaining} remain"),
            ));
        }
        Ok(n)
    }

    pub(crate) fn next(&mut self) -> Result<&'a str, Error> {
        self.try_next()
            .ok_or_else(|| bad(self.pos, "unexpected end of document"))
    }

    /// [`Lines::next`] without the error construction — for end-of-input
    /// probes where exhaustion is the expected case (building and
    /// discarding the error there would put an allocation on the decode
    /// fast path). Splits lines as [`str::lines`] does.
    pub(crate) fn try_next(&mut self) -> Option<&'a str> {
        if self.rest.is_empty() {
            return None;
        }
        let line = match self.rest.split_once('\n') {
            Some((line, rest)) => {
                self.rest = rest;
                line.strip_suffix('\r').unwrap_or(line)
            }
            None => std::mem::take(&mut self.rest),
        };
        self.pos += 1;
        if let Some(left) = &mut self.left {
            *left -= 1;
        }
        Some(line)
    }

    /// The next line, as tokens.
    pub(crate) fn tokens(&mut self) -> Result<Tokens<'a>, Error> {
        let line = self.next()?;
        Ok(Tokens::new(line, self.pos))
    }

    /// Reads the next line as the version header `header`.
    pub(crate) fn header(&mut self, header: &str) -> Result<(), Error> {
        let line = self.next()?;
        if line.trim() != header {
            return Err(bad(self.pos, format!("bad header {line:?}")));
        }
        Ok(())
    }

    /// Checks that the document ends here.
    pub(crate) fn end(&mut self) -> Result<(), Error> {
        match self.try_next() {
            None => Ok(()),
            Some(extra) => Err(bad(self.pos, format!("trailing line {extra:?}"))),
        }
    }

    /// Reads a document embedded behind `tag` (see [`push_embed`]): a
    /// cursor over its lines, borrowed from this document and numbered
    /// as its lines. The count is validated before any line is read.
    pub(crate) fn embed(&mut self, tag: &str) -> Result<Lines<'a>, Error> {
        let mut t = self.tokens()?;
        t.tag(tag)?;
        let k = self.expect_lines(t.num()?, tag)?;
        t.done()?;
        let (start, pos) = (self.rest, self.pos);
        for _ in 0..k {
            self.try_next();
        }
        Ok(Lines {
            rest: &start[..start.len() - self.rest.len()],
            pos,
            left: Some(k),
        })
    }

    /// Reads a `zigzag-run v2` document embedded behind `tag`, decoding
    /// it in place. Its errors point at the `tag` line.
    pub(crate) fn run(&mut self, tag: &str) -> Result<Run, Error> {
        let embed = self.embed(tag)?;
        codec::decode(embed.rest).map_err(|e| bad(embed.pos, format!("embedded run: {e}")))
    }
}

/// A token cursor over one line.
pub(crate) struct Tokens<'a> {
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

    /// An [`Error::Wire`] at this line.
    pub(crate) fn bad(&self, detail: impl Into<String>) -> Error {
        bad(self.line_no, detail)
    }

    pub(crate) fn next(&mut self) -> Result<&'a str, Error> {
        self.it.next().ok_or_else(|| self.bad("missing token"))
    }

    /// Reads the token `tag`.
    pub(crate) fn tag(&mut self, tag: &str) -> Result<(), Error> {
        if self.next()? != tag {
            return Err(self.bad(format!("expected {tag}")));
        }
        Ok(())
    }

    /// A number of type `T`; one too wide for `T` is refused.
    pub(crate) fn num<T: std::str::FromStr>(&mut self) -> Result<T, Error> {
        let tok = self.next()?;
        tok.parse()
            .map_err(|_| self.bad(format!("bad number {tok:?}")))
    }

    /// A name or free text, [`codec::escape_token`]-escaped.
    pub(crate) fn name(&mut self) -> Result<String, Error> {
        let tok = self.next()?;
        codec::unescape_token(tok).map_err(|e| self.bad(format!("bad name: {e}")))
    }

    pub(crate) fn node(&mut self) -> Result<NodeId, Error> {
        let p: u32 = self.num()?;
        let i: u32 = self.num()?;
        Ok(NodeId::new(ProcessId::new(p), i))
    }

    /// A number of type `T`, or `.` for none.
    pub(crate) fn opt<T: std::str::FromStr>(&mut self) -> Result<Option<T>, Error> {
        let tok = self.next()?;
        if tok == "." {
            return Ok(None);
        }
        tok.parse()
            .map(Some)
            .map_err(|_| self.bad(format!("bad value {tok:?}")))
    }

    /// A node, or `.` for none.
    pub(crate) fn opt_node(&mut self) -> Result<Option<NodeId>, Error> {
        let tok = self.next()?;
        if tok == "." {
            return Ok(None);
        }
        let p: u32 = tok
            .parse()
            .map_err(|_| self.bad(format!("bad process {tok:?}")))?;
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
            return Err(self.bad(format!("path promises {n} hops")));
        }
        let mut procs = Vec::with_capacity(n);
        for _ in 0..n {
            procs.push(ProcessId::new(self.num()?));
        }
        let path =
            NetPath::new(procs).map_err(|e| self.bad(format!("bad general-node path: {e}")))?;
        GeneralNode::new(base, path).map_err(|e| self.bad(format!("bad general node: {e}")))
    }

    /// Checks that the line ends here.
    pub(crate) fn done(&mut self) -> Result<(), Error> {
        match self.it.next() {
            Some(tok) => Err(self.bad(format!("trailing token {tok:?}"))),
            None => Ok(()),
        }
    }
}

fn decode_query_from(lines: &mut Lines<'_>, depth: usize) -> Result<Query, Error> {
    let mut t = lines.tokens()?;
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
            let evline = lines.next()?;
            let ev = codec::decode_event(evline)
                .map_err(|e| bad(lines.line_no(), format!("embedded event: {e}")))?;
            return Ok(Query::Append(Box::new(ev)));
        }
        "import" => {
            t.done()?;
            let mut snap = lines.embed("snaplines")?;
            return Ok(Query::Import(Box::new(crate::store::read_snapshot(
                &mut snap,
            )?)));
        }
        "batch" => {
            if depth >= MAX_BATCH_DEPTH {
                return Err(t.bad(format!("batch nesting exceeds {MAX_BATCH_DEPTH}")));
            }
            let k = lines.expect_lines(t.num()?, "query batch")?;
            t.done()?;
            let mut queries = Vec::with_capacity(k);
            for _ in 0..k {
                queries.push(decode_query_from(lines, depth + 1)?);
            }
            return Ok(Query::QueryBatch(queries));
        }
        other => return Err(t.bad(format!("unknown query {other:?}"))),
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
    read_query(&mut Lines::new(text))
}

/// Reads a complete `zigzag-query v1` document, header to end, from
/// `lines` — on its own, or as the body of a frame.
pub(crate) fn read_query(lines: &mut Lines<'_>) -> Result<Query, Error> {
    lines.header(QUERY_HEADER)?;
    let q = decode_query_from(lines, 0)?;
    lines.end()?;
    Ok(q)
}

/// Decodes one `<tag> <n> <v0> … <v(n-1)>` gauge line of a stats
/// document, validating the count against the line before allocating.
fn counted_u64s(lines: &mut Lines<'_>, tag: &str) -> Result<Vec<u64>, Error> {
    let mut t = lines.tokens()?;
    t.tag(tag)?;
    let n: usize = t.num()?;
    if n > t.remaining_on_line() {
        return Err(t.bad(format!("{tag} promises {n} values")));
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
            let mut nt = lines.tokens()?;
            nt.tag("mnodes")?;
            let mut nodes = Vec::with_capacity(n);
            for _ in 0..n {
                nodes.push(nt.node()?);
            }
            nt.done()?;
            // Sized by the document as it is read, not by the promised
            // n² (which a malicious count could inflate quadratically).
            let mut data = Vec::new();
            for _ in 0..n {
                let mut rt = lines.tokens()?;
                rt.tag("mrow")?;
                for _ in 0..n {
                    data.push(rt.opt()?);
                }
                rt.done()?;
            }
            MaxXMatrix::from_parts(nodes, data)
                .map(Response::MaxXMatrix)
                .map_err(|e| nt.bad(format!("bad matrix: {e}")))
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
            let run = lines.run("runlines")?;
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
            let mut lt = lines.tokens()?;
            lt.tag("lat")?;
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
            let mut snap = lines.embed("snaplines")?;
            Ok(Response::Exported(Box::new(crate::store::read_snapshot(
                &mut snap,
            )?)))
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
                let mut rt = lines.tokens()?;
                rt.tag("rec")?;
                let name = rt.name()?;
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
    lines.header(RESPONSE_HEADER)?;
    let r = decode_response_from(&mut lines, 0)?;
    lines.end()?;
    Ok(r)
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

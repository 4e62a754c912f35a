//! A lossless, dependency-free text codec for recorded runs.
//!
//! Experiments produce [`Run`]s worth keeping — counterexamples found by
//! fuzzing, slow/fast construction witnesses, regression fixtures. The
//! codec round-trips a run (context included) through a line-oriented
//! format that diffs well under version control:
//!
//! ```text
//! zigzag-run v1
//! horizon 40
//! proc 0 C
//! proc 1 A
//! chan 0 1 2 5
//! node 0 1 3            # proc index time
//! recv 0 1 e0
//! act 0 1 send_go
//! ext 0 go              # id name (placement comes from recv lines)
//! msg 0 0 1 1 5 . . .   # id src-proc src-idx dst scheduled [dst-idx dtime]
//! ```
//!
//! Decoding replays the events through [`RunBuilder`] in the engine's
//! canonical `(time, process)` order, so a decoded run is structurally
//! *identical* (`==`) to the original for every run produced by the
//! simulator or the construction engines. A number too wide for the id
//! or count it names is refused, never narrowed to another id.

#![deny(clippy::cast_possible_truncation)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::builder::RunBuilder;
use crate::error::BcmError;
use crate::event::Receipt;
use crate::message::MessageId;
use crate::net::{Network, ProcessId};
use crate::run::{NodeId, Run};
use crate::stream::{ReceiptEvent, RunEvent, SendEvent};
use crate::time::Time;

fn bad(line_no: usize, detail: impl Into<String>) -> BcmError {
    BcmError::IllegalRun {
        detail: format!("codec: line {line_no}: {}", detail.into()),
    }
}

fn bad_event(detail: impl Into<String>) -> BcmError {
    BcmError::IllegalRun {
        detail: format!("event codec: {}", detail.into()),
    }
}

/// Escapes a name into a single whitespace-free token: `%` and every
/// whitespace character are percent-encoded byte-wise (`%XX`), and the
/// empty string becomes the marker `%.` so no token is ever empty. Names
/// escaped this way survive `split_whitespace` tokenization in any
/// line-oriented format (the event log, session snapshots, spec lines).
pub fn escape_token(s: &str) -> String {
    if s.is_empty() {
        return "%.".to_string();
    }
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        if ch == '%' || ch.is_whitespace() {
            let mut buf = [0u8; 4];
            for b in ch.encode_utf8(&mut buf).bytes() {
                let _ = write!(out, "%{b:02x}");
            }
        } else {
            out.push(ch);
        }
    }
    out
}

/// Inverts [`escape_token`].
///
/// # Errors
///
/// Returns [`BcmError::IllegalRun`] on a dangling or non-hex escape, or
/// if the decoded bytes are not valid UTF-8.
pub fn unescape_token(tok: &str) -> Result<String, BcmError> {
    if tok == "%." {
        return Ok(String::new());
    }
    let mut out = Vec::with_capacity(tok.len());
    let bytes = tok.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| bad_event(format!("dangling escape in {tok:?}")))?;
            let hex = std::str::from_utf8(hex).map_err(|_| bad_event("non-ASCII escape"))?;
            let b = u8::from_str_radix(hex, 16)
                .map_err(|_| bad_event(format!("bad escape %{hex} in {tok:?}")))?;
            out.push(b);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| bad_event(format!("escape of {tok:?} is not UTF-8")))
}

/// Encodes one [`RunEvent`] as a single `ev` line (no trailing newline):
///
/// ```text
/// ev <proc> <time> <nr> <receipt>... <ns> <to> <deliver_at>... <na> <action>...
/// ```
///
/// Receipt tokens are `m<id>` (stream-scoped message) or `e<name>`
/// ([`escape_token`]-escaped external); action tokens are escaped names.
/// The three counts make the record self-delimiting and let the decoder
/// validate claimed lengths against the actual token supply.
pub fn encode_event(ev: &RunEvent) -> String {
    let mut out = String::with_capacity(32);
    let _ = write!(
        out,
        "ev {} {} {}",
        ev.proc.index(),
        ev.time.ticks(),
        ev.receipts.len()
    );
    for r in &ev.receipts {
        match r {
            ReceiptEvent::Message(m) => {
                let _ = write!(out, " m{}", m.index());
            }
            ReceiptEvent::External(name) => {
                let _ = write!(out, " e{}", escape_token(name));
            }
        }
    }
    let _ = write!(out, " {}", ev.sends.len());
    for s in &ev.sends {
        let _ = write!(out, " {} {}", s.to.index(), s.deliver_at.ticks());
    }
    let _ = write!(out, " {}", ev.actions.len());
    for a in &ev.actions {
        let _ = write!(out, " {}", escape_token(a));
    }
    out
}

/// Decodes one `ev` line produced by [`encode_event`].
///
/// Every claimed count is validated against the tokens actually present
/// before that section is read, and the line must be fully consumed — a
/// torn or tampered record fails loudly instead of decoding to a
/// different event.
///
/// # Errors
///
/// Returns [`BcmError::IllegalRun`] on any malformed record.
pub fn decode_event(line: &str) -> Result<RunEvent, BcmError> {
    fn take<'a>(it: &mut std::vec::IntoIter<&'a str>, what: &str) -> Result<&'a str, BcmError> {
        it.next()
            .ok_or_else(|| bad_event(format!("truncated record: missing {what}")))
    }
    fn num(t: &str, what: &str) -> Result<u64, BcmError> {
        t.parse()
            .map_err(|_| bad_event(format!("bad {what} {t:?}")))
    }
    fn narrow<T: TryFrom<u64>>(t: &str, what: &str) -> Result<T, BcmError> {
        T::try_from(num(t, what)?).map_err(|_| bad_event(format!("{what} {t:?} out of range")))
    }
    let toks: Vec<&str> = line.split_whitespace().collect();
    let mut it = toks.into_iter();
    if take(&mut it, "tag")? != "ev" {
        return Err(bad_event("record does not start with \"ev\""));
    }
    let proc = ProcessId::new(narrow(take(&mut it, "proc")?, "proc")?);
    let time = Time::new(num(take(&mut it, "time")?, "time")?);

    let nr: usize = narrow(take(&mut it, "receipt count")?, "receipt count")?;
    if nr > it.len() {
        return Err(bad_event(format!(
            "claimed {nr} receipts but only {} tokens remain",
            it.len()
        )));
    }
    let mut receipts = Vec::with_capacity(nr);
    for _ in 0..nr {
        let t = take(&mut it, "receipt")?;
        if let Some(m) = t.strip_prefix('m') {
            receipts.push(ReceiptEvent::Message(MessageId::new(narrow(
                m,
                "message id",
            )?)));
        } else if let Some(e) = t.strip_prefix('e') {
            receipts.push(ReceiptEvent::External(unescape_token(e)?));
        } else {
            return Err(bad_event(format!("bad receipt token {t:?}")));
        }
    }

    let ns: usize = narrow(take(&mut it, "send count")?, "send count")?;
    if ns > it.len() / 2 {
        return Err(bad_event(format!(
            "claimed {ns} sends but only {} tokens remain",
            it.len()
        )));
    }
    let mut sends = Vec::with_capacity(ns);
    for _ in 0..ns {
        let to = ProcessId::new(narrow(take(&mut it, "send target")?, "send target")?);
        let deliver_at = Time::new(num(take(&mut it, "delivery time")?, "delivery time")?);
        sends.push(SendEvent { to, deliver_at });
    }

    let na: usize = narrow(take(&mut it, "action count")?, "action count")?;
    if na > it.len() {
        return Err(bad_event(format!(
            "claimed {na} actions but only {} tokens remain",
            it.len()
        )));
    }
    let mut actions = Vec::with_capacity(na);
    for _ in 0..na {
        actions.push(unescape_token(take(&mut it, "action")?)?);
    }
    if it.len() != 0 {
        return Err(bad_event(format!(
            "{} trailing tokens after a complete record",
            it.len()
        )));
    }
    Ok(RunEvent {
        proc,
        time,
        receipts,
        sends,
        actions,
    })
}

/// Encodes a run (with its context) into the `zigzag-run v1` text format.
pub fn encode(run: &Run) -> String {
    let net = run.context().network();
    let bounds = run.context().bounds();
    let mut out = String::new();
    let _ = writeln!(out, "zigzag-run v1");
    let _ = writeln!(out, "horizon {}", run.horizon().ticks());
    for p in net.processes() {
        let _ = writeln!(out, "proc {} {}", p.index(), net.name(p));
    }
    for ch in net.channels() {
        let cb = bounds.get(*ch).expect("recorded channels bounded");
        let _ = writeln!(
            out,
            "chan {} {} {} {}",
            ch.from.index(),
            ch.to.index(),
            cb.lower(),
            cb.upper()
        );
    }
    for rec in run.nodes() {
        if rec.id().is_initial() {
            continue;
        }
        let _ = writeln!(
            out,
            "node {} {} {}",
            rec.id().proc().index(),
            rec.id().index(),
            rec.time().ticks()
        );
        for r in rec.receipts() {
            match r {
                Receipt::Internal(m) => {
                    let _ = writeln!(
                        out,
                        "recv {} {} m{}",
                        rec.id().proc().index(),
                        rec.id().index(),
                        m.index()
                    );
                }
                Receipt::External(e) => {
                    let _ = writeln!(
                        out,
                        "recv {} {} e{}",
                        rec.id().proc().index(),
                        rec.id().index(),
                        e.index()
                    );
                }
            }
        }
        for a in rec.actions() {
            let _ = writeln!(
                out,
                "act {} {} {}",
                rec.id().proc().index(),
                rec.id().index(),
                a.name()
            );
        }
    }
    for e in run.externals() {
        let _ = writeln!(out, "ext {} {}", e.id().index(), e.name());
    }
    for m in run.messages() {
        let (didx, dtime) = match m.delivery() {
            Some(d) => (d.node.index().to_string(), d.time.ticks().to_string()),
            None => (".".into(), ".".into()),
        };
        let _ = writeln!(
            out,
            "msg {} {} {} {} {} {} {} {}",
            m.id().index(),
            m.src().proc().index(),
            m.src().index(),
            m.channel().to.index(),
            m.sent_at().ticks(),
            m.scheduled_at().ticks(),
            didx,
            dtime
        );
    }
    out
}

#[derive(Debug, Default)]
struct NodeSpec {
    time: u64,
    receipts: Vec<String>,
    actions: Vec<String>,
}

/// Decodes a `zigzag-run v1` document back into a [`Run`].
///
/// # Errors
///
/// Returns [`BcmError::IllegalRun`] on malformed input, or if the event
/// order cannot be replayed canonically (runs hand-built in a
/// non-chronological order may not round-trip; everything the simulator
/// and the construction engines produce does).
pub fn decode(text: &str) -> Result<Run, BcmError> {
    let mut lines = text.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return Err(bad(1, "empty document"));
    };
    if header.trim() != "zigzag-run v1" {
        return Err(bad(1, format!("bad header {header:?}")));
    }

    /// Token `s` of line `line_no` as a number of type `T`.
    fn narrow<T: TryFrom<u64>>(line_no: usize, s: &str) -> Result<T, BcmError> {
        let n: u64 = s
            .parse()
            .map_err(|_| bad(line_no, format!("bad number {s:?}")))?;
        T::try_from(n).map_err(|_| bad(line_no, format!("number {s:?} out of range")))
    }

    let mut horizon: Option<u64> = None;
    let mut procs: Vec<(usize, String)> = Vec::new();
    let mut chans: Vec<(u32, u32, u64, u64)> = Vec::new();
    let mut nodes: BTreeMap<(u32, u32), NodeSpec> = BTreeMap::new();
    let mut exts: BTreeMap<usize, String> = BTreeMap::new();
    #[allow(clippy::type_complexity)]
    let mut msgs: Vec<(usize, u32, u32, u32, u64, u64, Option<(u32, u64)>)> = Vec::new();

    for (ln, raw) in lines {
        let line_no = ln + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let kind = it.next().expect("non-empty line");
        let rest: Vec<&str> = it.collect();
        match kind {
            "horizon" => {
                horizon = Some(narrow(
                    line_no,
                    rest.first()
                        .ok_or_else(|| bad(line_no, "missing horizon"))?,
                )?);
            }
            "proc" => {
                if rest.len() < 2 {
                    return Err(bad(line_no, "proc needs index and name"));
                }
                procs.push((narrow(line_no, rest[0])?, rest[1..].join(" ")));
            }
            "chan" => {
                if rest.len() != 4 {
                    return Err(bad(line_no, "chan needs from to L U"));
                }
                chans.push((
                    narrow(line_no, rest[0])?,
                    narrow(line_no, rest[1])?,
                    narrow(line_no, rest[2])?,
                    narrow(line_no, rest[3])?,
                ));
            }
            "node" => {
                if rest.len() != 3 {
                    return Err(bad(line_no, "node needs proc index time"));
                }
                let key = (narrow(line_no, rest[0])?, narrow(line_no, rest[1])?);
                nodes.entry(key).or_default().time = narrow(line_no, rest[2])?;
            }
            "recv" => {
                if rest.len() != 3 {
                    return Err(bad(line_no, "recv needs proc index ref"));
                }
                let key = (narrow(line_no, rest[0])?, narrow(line_no, rest[1])?);
                nodes
                    .get_mut(&key)
                    .ok_or_else(|| bad(line_no, "recv before node"))?
                    .receipts
                    .push(rest[2].to_string());
            }
            "act" => {
                if rest.len() < 3 {
                    return Err(bad(line_no, "act needs proc index name"));
                }
                let key = (narrow(line_no, rest[0])?, narrow(line_no, rest[1])?);
                nodes
                    .get_mut(&key)
                    .ok_or_else(|| bad(line_no, "act before node"))?
                    .actions
                    .push(rest[2..].join(" "));
            }
            "ext" => {
                if rest.len() < 2 {
                    return Err(bad(line_no, "ext needs id name"));
                }
                exts.insert(narrow(line_no, rest[0])?, rest[1..].join(" "));
            }
            "msg" => {
                if rest.len() != 8 {
                    return Err(bad(line_no, "msg needs 8 fields"));
                }
                let delivery = if rest[6] == "." {
                    None
                } else {
                    Some((narrow(line_no, rest[6])?, narrow(line_no, rest[7])?))
                };
                msgs.push((
                    narrow(line_no, rest[0])?,
                    narrow(line_no, rest[1])?,
                    narrow(line_no, rest[2])?,
                    narrow(line_no, rest[3])?,
                    narrow(line_no, rest[4])?,
                    narrow(line_no, rest[5])?,
                    delivery,
                ));
            }
            other => return Err(bad(line_no, format!("unknown record {other:?}"))),
        }
    }

    // Rebuild the context.
    let mut nb = Network::builder();
    procs.sort_by_key(|(i, _)| *i);
    for (k, (i, name)) in procs.iter().enumerate() {
        if *i != k {
            return Err(bad(0, "proc indices must be dense and ascending"));
        }
        nb.add_process(name.clone());
    }
    for &(f, t, l, u) in &chans {
        nb.add_channel(ProcessId::new(f), ProcessId::new(t), l, u)?;
    }
    let ctx = nb.build()?;
    let horizon = Time::new(horizon.ok_or_else(|| bad(0, "missing horizon"))?);
    let mut rb = RunBuilder::new(ctx, horizon);

    // Replay in canonical (time, process) order, mirroring the engine.
    msgs.sort_by_key(|m| m.0);
    let msgs_by_src: BTreeMap<(u32, u32), Vec<usize>> = {
        let mut map: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
        for (k, m) in msgs.iter().enumerate() {
            map.entry((m.1, m.2)).or_default().push(k);
        }
        map
    };
    let mut order: Vec<(u64, u32, u32)> = nodes
        .iter()
        .map(|(&(p, i), spec)| (spec.time, p, i))
        .collect();
    order.sort();
    let mut next_ext = 0usize;
    for (time, p, i) in order {
        let node = rb.add_node(ProcessId::new(p), Time::new(time))?;
        if node != NodeId::new(ProcessId::new(p), i) {
            return Err(bad(0, format!("non-dense node index {i} for process {p}")));
        }
        let spec = &nodes[&(p, i)];
        for r in &spec.receipts {
            if let Some(m) = r.strip_prefix('m') {
                let id: u32 = m.parse().map_err(|_| bad(0, format!("bad msg ref {r}")))?;
                rb.deliver(crate::message::MessageId::new(id), node)?;
            } else if let Some(e) = r.strip_prefix('e') {
                let id: usize = e.parse().map_err(|_| bad(0, format!("bad ext ref {r}")))?;
                if id != next_ext {
                    return Err(bad(0, "external ids out of canonical order"));
                }
                let name = exts
                    .get(&id)
                    .ok_or_else(|| bad(0, format!("missing ext record {id}")))?;
                rb.add_external(node, name.clone())?;
                next_ext += 1;
            } else {
                return Err(bad(0, format!("bad receipt ref {r:?}")));
            }
        }
        for a in &spec.actions {
            rb.act(node, a.clone())?;
        }
        // Issue this node's sends in recorded id order.
        if let Some(ids) = msgs_by_src.get(&(p, i)) {
            for &k in ids {
                let (id, _, _, dst, sent, scheduled, _) = msgs[k];
                if sent != time {
                    return Err(bad(
                        0,
                        format!("msg {id} send time disagrees with its node"),
                    ));
                }
                let got = rb.send(node, ProcessId::new(dst), Time::new(scheduled))?;
                if got.index() != id {
                    return Err(bad(0, format!("msg ids out of canonical order at {id}")));
                }
            }
        }
    }
    if next_ext != exts.len() {
        return Err(bad(0, "dangling ext records"));
    }
    Ok(rb.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::Ffip;
    use crate::scheduler::RandomScheduler;
    use crate::sim::{SimConfig, Simulator};
    use crate::validate::{validate_run, Strictness};

    fn sample(seed: u64) -> Run {
        let mut b = Network::builder();
        let i = b.add_process("i");
        let j = b.add_process("j");
        let k = b.add_process("k");
        b.add_bidirectional(i, j, 1, 4).unwrap();
        b.add_bidirectional(j, k, 2, 3).unwrap();
        let ctx = b.build().unwrap();
        let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(25)));
        sim.external(Time::new(1), i, "kick");
        sim.external(Time::new(4), k, "other kick");
        sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(seed))
            .unwrap()
    }

    #[test]
    fn round_trip_is_identity() {
        for seed in 0..10 {
            let run = sample(seed);
            let text = encode(&run);
            let back = decode(&text).unwrap();
            assert_eq!(run, back, "seed {seed}: round trip changed the run");
            validate_run(&back, Strictness::Strict).unwrap();
            // Idempotent: encode(decode(x)) == x.
            assert_eq!(encode(&back), text);
        }
    }

    #[test]
    fn names_with_spaces_and_comments_survive() {
        let run = sample(3);
        let mut text = encode(&run);
        text.push_str("\n# trailing comment\n\n");
        let back = decode(&text).unwrap();
        assert_eq!(run, back);
        assert!(text.contains("ext 1 other kick"));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(decode("").is_err());
        assert!(decode("not a run").is_err());
        assert!(decode("zigzag-run v1\n").is_err()); // missing horizon
        assert!(decode("zigzag-run v1\nhorizon 5\nbogus 1 2\n").is_err());
        assert!(decode("zigzag-run v1\nhorizon 5\nproc 0 a\nrecv 0 1 m0\n").is_err());
        assert!(decode("zigzag-run v1\nhorizon 5\nproc 0 a\nchan 0 0 1 2\n").is_err());
        // A bound that cannot be an edge weight.
        let text = encode(&sample(0));
        assert!(text.contains("chan 0 1 1 4\n"));
        let wide = text.replacen("chan 0 1 1 4\n", "chan 0 1 1 9223372036854775808\n", 1);
        assert!(matches!(
            decode(&wide),
            Err(BcmError::InvalidBounds { upper, .. }) if upper == 1 << 63
        ));
        // Tampered message id ordering.
        let run = sample(0);
        let tampered = encode(&run).replace("msg 0 ", "msg 7 ");
        assert!(decode(&tampered).is_err());
    }

    #[test]
    fn event_records_round_trip_and_tokens_escape() {
        use crate::stream::RunCursor;
        let run = sample(5);
        for ev in RunCursor::new(&run).collect_events() {
            let line = encode_event(&ev);
            assert!(!line.contains('\n'), "records are single lines");
            assert_eq!(decode_event(&line).unwrap(), ev);
        }
        for name in ["", "two words", "tab\tand\nnewline", "100% weird %.", "ü ñ"] {
            let tok = escape_token(name);
            assert!(!tok.is_empty() && !tok.chars().any(char::is_whitespace));
            assert_eq!(unescape_token(&tok).unwrap(), name);
        }
    }

    #[test]
    fn hostile_event_records_are_rejected() {
        use crate::stream::{RunEvent, SendEvent};
        let ev = RunEvent {
            proc: ProcessId::new(1),
            time: Time::new(7),
            receipts: vec![
                crate::stream::ReceiptEvent::External("go now".into()),
                crate::stream::ReceiptEvent::Message(crate::message::MessageId::new(3)),
            ],
            sends: vec![SendEvent {
                to: ProcessId::new(0),
                deliver_at: Time::new(9),
            }],
            actions: vec!["fire".into()],
        };
        let line = encode_event(&ev);
        assert_eq!(decode_event(&line).unwrap(), ev);
        // Overclaimed counts fail before the data is trusted.
        assert!(decode_event(&line.replacen(" 2 ", " 4000000 ", 1)).is_err());
        assert!(decode_event("ev 0 1 0 99999999 0").is_err());
        assert!(decode_event("ev 0 1 0 0 18446744073709551615").is_err());
        // Torn tails, trailing garbage, bad escapes, wrong tag.
        assert!(decode_event(line.rsplit_once(' ').unwrap().0).is_err());
        assert!(decode_event(&format!("{line} extra")).is_err());
        assert!(decode_event("ev 0 1 1 e%zz 0 0").is_err());
        assert!(
            decode_event("ev 0 1 1 e%ff 0 0").is_err(),
            "non-UTF-8 escape"
        );
        assert!(decode_event("ev 0 1 1 x3 0 0").is_err());
        assert!(decode_event("msg 0 1").is_err());
        assert!(decode_event("").is_err());
    }

    /// An id too wide for `u32` is refused, where narrowing it would
    /// alias the id 2³² below it: process 2³² sending to 2³² + 1 would
    /// read as process 0 sending to 1, message 2³² + 5 as message 5.
    #[test]
    fn ids_beyond_u32_are_refused() {
        fn refused<T>(r: Result<T, BcmError>) -> bool {
            matches!(r, Err(BcmError::IllegalRun { .. }))
        }
        assert!(decode_event("ev 0 3 1 ego 1 1 9 0").is_ok());
        assert!(refused(decode_event(
            "ev 4294967296 3 1 ego 1 4294967297 9 0"
        )));
        assert!(decode_event("ev 0 3 1 m5 0 0").is_ok());
        assert!(refused(decode_event("ev 0 3 1 m4294967301 0 0")));

        // Token `k` of the first line tagged `tag` of a run document (with
        // an action at `p0#1`), plus 2³² (a receipt reference keeps its
        // `m`).
        let text = encode(&sample(0)) + "act 0 1 fire\n";
        assert!(decode(&text).is_ok());
        let widen = |tag: &str, k: usize| {
            let mut widened = false;
            let doc: String = text
                .lines()
                .map(|line| {
                    let mut toks: Vec<String> = line.split(' ').map(String::from).collect();
                    if !widened && toks[0] == tag {
                        let (prefix, digits) =
                            toks[k].split_at(usize::from(toks[k].starts_with('m')));
                        if let Ok(v) = digits.parse::<u64>() {
                            toks[k] = format!("{prefix}{}", v + (1 << 32));
                            widened = true;
                        }
                    }
                    toks.join(" ") + "\n"
                })
                .collect();
            assert!(widened, "no {tag} token {k}");
            doc
        };
        let sites = [
            ("chan", 1),
            ("chan", 2),
            ("node", 2),
            ("recv", 2),
            ("recv", 3),
            ("act", 2),
            ("msg", 3),
            ("msg", 7),
        ];
        for (tag, k) in sites {
            assert!(refused(decode(&widen(tag, k))), "{tag} token {k}");
        }
    }

    #[test]
    fn constructed_runs_round_trip_too() {
        use crate::builder::RunBuilder;
        let mut b = Network::builder();
        let i = b.add_process("i");
        let j = b.add_process("j");
        b.add_bidirectional(i, j, 1, 3).unwrap();
        let ctx = b.build().unwrap();
        let mut rb = RunBuilder::new(ctx, Time::new(10));
        let ni = rb.add_node(i, Time::new(2)).unwrap();
        rb.add_external(ni, "go").unwrap();
        rb.act(ni, "a").unwrap();
        let m = rb.send(ni, j, Time::new(4)).unwrap();
        let nj = rb.add_node(j, Time::new(4)).unwrap();
        rb.deliver(m, nj).unwrap();
        let _beyond = rb.send(nj, i, Time::new(12)).unwrap(); // in flight
        let run = rb.finish();
        let back = decode(&encode(&run)).unwrap();
        assert_eq!(run, back);
    }
}

//! A lossless, dependency-free text codec for recorded runs.
//!
//! Experiments produce [`Run`]s worth keeping — counterexamples found by
//! fuzzing, slow/fast construction witnesses, regression fixtures — and
//! the serving layer ships them in fast-run responses and durable
//! snapshots. A run document is the run's context and horizon followed
//! by its event feed: one [`encode_event`] line per basic node, in the
//! [`RunCursor`] order the event log and snapshots already use. It diffs
//! well under version control:
//!
//! ```text
//! zigzag-run v2
//! horizon 40
//! proc 0 C
//! proc 1 A
//! chan 0 1 2 5
//! ev 0 3 1 ego 1 1 5 0
//! ev 1 5 1 m0 0 1 send_go
//! ```
//!
//! A `proc` line holds a process's index and its [`escape_token`]-escaped
//! name, a `chan` line a channel's endpoints and bounds `L U`. Names are
//! escaped wherever they appear, so any name survives: empty, or holding
//! spaces, `#` or newlines.
//!
//! Decoding rebuilds the context and replays the `ev` lines through
//! [`StreamingRun::append`], the same append the event log and snapshots
//! replay through. A decoded run is therefore *identical* (`==`) to the
//! original whenever the run's message and external ids follow its
//! feed's `(time, process)` order, as in every run the simulator or the
//! construction engines produce. A document whose events do not replay —
//! a delivery or schedule outside its channel's bounds, a receipt of an
//! unsent message — is refused, and so is a number too wide for the id
//! or count it names.

#![deny(clippy::cast_possible_truncation)]

use std::fmt::Write as _;

use crate::error::BcmError;
use crate::message::MessageId;
use crate::net::{Network, ProcessId};
use crate::run::Run;
use crate::stream::{ReceiptEvent, RunCursor, RunEvent, SendEvent, StreamingRun};
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
/// line-oriented format (run documents, the event log, spec lines).
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

/// Encodes a run (with its context) into the `zigzag-run v2` text format.
pub fn encode(run: &Run) -> String {
    let net = run.context().network();
    let bounds = run.context().bounds();
    let mut out = String::new();
    let _ = writeln!(out, "zigzag-run v2");
    let _ = writeln!(out, "horizon {}", run.horizon().ticks());
    for p in net.processes() {
        let _ = writeln!(out, "proc {} {}", p.index(), escape_token(net.name(p)));
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
    for ev in RunCursor::new(run) {
        out.push_str(&encode_event(&ev));
        out.push('\n');
    }
    out
}

/// Decodes a `zigzag-run v2` document back into a [`Run`].
///
/// # Errors
///
/// Returns [`BcmError::IllegalRun`] on malformed input, the network
/// builder's error on an invalid context, and [`StreamingRun::append`]'s
/// error on an event that does not replay.
pub fn decode(text: &str) -> Result<Run, BcmError> {
    /// Token `s` of line `line_no` as a number of type `T`.
    fn narrow<T: TryFrom<u64>>(line_no: usize, s: &str) -> Result<T, BcmError> {
        let n: u64 = s
            .parse()
            .map_err(|_| bad(line_no, format!("bad number {s:?}")))?;
        T::try_from(n).map_err(|_| bad(line_no, format!("number {s:?} out of range")))
    }

    let mut lines = (1..).zip(text.lines()).peekable();
    match lines.next() {
        Some((_, "zigzag-run v2")) => {}
        Some((no, header)) => return Err(bad(no, format!("bad header {header:?}"))),
        None => return Err(bad(1, "empty document")),
    }
    let horizon = match lines.next() {
        Some((no, line)) => match line.split_whitespace().collect::<Vec<_>>()[..] {
            ["horizon", h] => Time::new(narrow(no, h)?),
            _ => return Err(bad(no, format!("expected horizon, got {line:?}"))),
        },
        None => return Err(bad(2, "missing horizon")),
    };

    // The context: `proc` and `chan` lines up to the first event.
    let mut nb = Network::builder();
    while let Some((no, line)) = lines.next_if(|(_, line)| !line.starts_with("ev ")) {
        match line.split_whitespace().collect::<Vec<_>>()[..] {
            ["proc", i, name] => {
                let name = unescape_token(name).map_err(|e| bad(no, e.to_string()))?;
                if nb.add_process(name).index() != narrow::<usize>(no, i)? {
                    return Err(bad(no, "proc indices must be dense and ascending"));
                }
            }
            ["chan", from, to, lower, upper] => {
                nb.add_channel(
                    ProcessId::new(narrow(no, from)?),
                    ProcessId::new(narrow(no, to)?),
                    narrow(no, lower)?,
                    narrow(no, upper)?,
                )?;
            }
            _ => return Err(bad(no, format!("bad context line {line:?}"))),
        }
    }

    // The events, replayed through the append the event log uses.
    let mut run = StreamingRun::new(nb.build()?, horizon);
    for (no, line) in lines {
        run.append(&decode_event(line).map_err(|e| bad(no, e.to_string()))?)?;
    }
    Ok(run.finish())
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

    /// Every name survives the round trip, whatever it holds: `#` (which
    /// marks no comment), repeated or leading spaces, nothing at all, or
    /// a newline — as a process, an external and an action.
    #[test]
    fn names_with_spaces_and_comments_survive() {
        use crate::builder::RunBuilder;
        let names = ["a#b", "c  d", " lead", "", "new\nline"];
        let mut b = Network::builder();
        let procs: Vec<ProcessId> = names.iter().map(|&name| b.add_process(name)).collect();
        for pair in procs.windows(2) {
            b.add_bidirectional(pair[0], pair[1], 1, 3).unwrap();
        }
        let mut rb = RunBuilder::new(b.build().unwrap(), Time::new(9));
        let mut inbound = None;
        for ((k, &p), (t, name)) in procs.iter().enumerate().zip((1..).zip(names)) {
            let node = rb.add_node(p, Time::new(t)).unwrap();
            rb.add_external(node, name).unwrap();
            if let Some(m) = inbound.take() {
                rb.deliver(m, node).unwrap();
            }
            rb.act(node, name).unwrap();
            if let Some(&next) = procs.get(k + 1) {
                inbound = Some(rb.send(node, next, Time::new(t + 1)).unwrap());
            }
        }
        let run = rb.finish();
        let text = encode(&run);
        assert!(text.contains("proc 0 a#b\nproc 1 c%20%20d\n"), "{text}");
        assert_eq!(decode(&text).unwrap(), run);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(decode("").is_err());
        assert!(decode("not a run").is_err());
        assert!(decode("zigzag-run v2\n").is_err()); // missing horizon
        assert!(decode("zigzag-run v2\nhorizon 5\nbogus 1 2\n").is_err());
        assert!(decode("zigzag-run v2\nhorizon 5\nproc 1 a\n").is_err());
        assert!(decode("zigzag-run v2\nhorizon 5\nproc 0 a\nchan 0 0 1 2\n").is_err());
        assert!(decode("zigzag-run v2\nhorizon 5\nproc 0 a\nev 0 1 0 0 0\nproc 1 b\n").is_err());
        // A bound that cannot be an edge weight.
        let text = encode(&sample(0));
        assert!(text.contains("chan 0 1 1 4\n"));
        let wide = text.replacen("chan 0 1 1 4\n", "chan 0 1 1 9223372036854775808\n", 1);
        assert!(matches!(
            decode(&wide),
            Err(BcmError::InvalidBounds { upper, .. }) if upper == 1 << 63
        ));
        // Version 1 documents and comment lines are refused.
        assert!(decode(&text.replacen("zigzag-run v2", "zigzag-run v1", 1)).is_err());
        assert!(decode(&format!("{text}# trailing comment\n")).is_err());
        // Events that do not replay: a receipt of an unsent message.
        assert!(text.contains(" m0 "));
        assert!(matches!(
            decode(&text.replacen(" m0 ", " m99 ", 1)),
            Err(BcmError::UnknownNode { .. })
        ));
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

        // Token `k` of the first line tagged `tag` of a run document whose
        // token `k` is a number, plus 2³² (a receipt reference keeps its
        // `m`). On `ev` lines token 1 is the process and token 4 the first
        // receipt (every event has one, and an external one holds no
        // number, so a message receipt is widened); the first event has
        // one receipt, so its token 6 is its first send's target.
        let text = encode(&sample(0));
        assert!(decode(&text).is_ok());
        assert!(text.contains("\nev 0 1 1 ekick 1 1 4 0\n"), "{text}");
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
        let sites = [("chan", 1), ("chan", 2), ("ev", 1), ("ev", 4), ("ev", 6)];
        for (tag, k) in sites {
            assert!(refused(decode(&widen(tag, k))), "{tag} token {k}");
        }
    }

    /// A constructed run round-trips, its message in flight past the
    /// horizon included. A run whose in-flight message is due outside
    /// its channel's bounds does not replay, so its document is refused.
    #[test]
    fn constructed_runs_round_trip_too() {
        use crate::builder::RunBuilder;
        let build = |due: u64| {
            let mut b = Network::builder();
            let i = b.add_process("i");
            let j = b.add_process("j");
            b.add_bidirectional(i, j, 1, 3).unwrap();
            let mut rb = RunBuilder::new(b.build().unwrap(), Time::new(5));
            let ni = rb.add_node(i, Time::new(2)).unwrap();
            rb.add_external(ni, "go").unwrap();
            rb.act(ni, "a").unwrap();
            let m = rb.send(ni, j, Time::new(4)).unwrap();
            let nj = rb.add_node(j, Time::new(4)).unwrap();
            rb.deliver(m, nj).unwrap();
            rb.send(nj, i, Time::new(due)).unwrap(); // in flight
            rb.finish()
        };
        let run = build(6);
        validate_run(&run, Strictness::Strict).unwrap();
        assert_eq!(decode(&encode(&run)).unwrap(), run);
        assert!(matches!(
            decode(&encode(&build(12))),
            Err(BcmError::DeliveryOutOfBounds { .. })
        ));
    }
}

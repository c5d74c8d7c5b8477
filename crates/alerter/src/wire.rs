//! The JSONL wire format of the alerter's input stream.
//!
//! One JSON object per line. The alerter understands two dialects with
//! the same field conventions as the sweep engine's event stream
//! (`cell` / `seed` / 16-hex trace coordinates):
//!
//! - **Recorded streams** — the `obs_events.jsonl` a sweep writes with
//!   `--events`: `cell.start` (τ/τ′ policy), `bs.alert` (one delivered
//!   accusation, with the batch path's recorded verdict), `revocation`,
//!   and `cell.complete` (with the cache classification). Replay feeds
//!   these back and cross-checks every recorded decision.
//! - **Live streams** — minimal producer events: `deploy.start`,
//!   `alert`, `deploy.end`, carrying a `deployment` (or `cell`) key.
//!
//! Anything else that parses as a JSON object with a `kind` is ignored
//! (the recorded stream interleaves phases, metrics, and health events
//! the alerter has no use for); anything that doesn't parse is a
//! malformed line, which the service counts and survives.

use secloc_obs::json::{scan_object, JsonRef};
use std::io::{self, BufRead, ErrorKind, Read};

/// One decoded input line, normalized across the two dialects.
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent {
    /// A deployment came online (`cell.start` / `deploy.start`).
    DeployStart {
        /// The demultiplexing key (`cell` or `deployment` field).
        deployment: String,
        /// Per-reporter cap τ, when announced.
        tau: Option<u32>,
        /// Revocation threshold τ′, when announced.
        tau_prime: Option<u32>,
        /// The deployment's seed, echoed onto emitted events.
        seed: Option<u64>,
    },
    /// One delivered accusation (`bs.alert` / `alert`).
    Accusation {
        /// The demultiplexing key; absent on single-deployment live
        /// streams (the service then uses its default key).
        deployment: Option<String>,
        /// The accusing node.
        reporter: u32,
        /// The accused node.
        target: u32,
        /// `detection` / `collusion`, when the producer tagged it.
        source: Option<String>,
        /// The batch path's recorded verdict (`bs.alert` streams only);
        /// replay cross-checks it against the machine's decision.
        recorded_outcome: Option<String>,
    },
    /// A revocation the batch path recorded (`revocation`); replay asserts
    /// the machine agrees.
    RecordedRevocation {
        /// The demultiplexing key, when present.
        deployment: Option<String>,
        /// The node the batch path revoked.
        target: u32,
    },
    /// A deployment went away (`cell.complete` / `deploy.end`).
    DeployEnd {
        /// The demultiplexing key, when present.
        deployment: Option<String>,
        /// The sweep's cache classification (`miss` / `memo` / `hit` /
        /// `resumed`); only `miss` cells carry a full decision history,
        /// so only those are parity-checked against the checkpoint.
        cache: Option<String>,
    },
    /// A well-formed event of no interest to the alerter.
    Ignored,
}

/// The first occurrence of each field the alerter reads (later duplicates
/// are ignored, as [`JsonValue::get`](secloc_obs::json::JsonValue::get)
/// ignores them), borrowed from the line.
#[derive(Default)]
struct Fields<'a> {
    kind: Option<JsonRef<'a>>,
    cell: Option<JsonRef<'a>>,
    deployment: Option<JsonRef<'a>>,
    tau: Option<JsonRef<'a>>,
    tau_prime: Option<JsonRef<'a>>,
    seed: Option<JsonRef<'a>>,
    reporter: Option<JsonRef<'a>>,
    target: Option<JsonRef<'a>>,
    source: Option<JsonRef<'a>>,
    outcome: Option<JsonRef<'a>>,
    cache: Option<JsonRef<'a>>,
}

impl<'a> Fields<'a> {
    fn visit(&mut self, key: &str, value: JsonRef<'a>) {
        let field = match key {
            "kind" => &mut self.kind,
            "cell" => &mut self.cell,
            "deployment" => &mut self.deployment,
            "tau" => &mut self.tau,
            "tau_prime" => &mut self.tau_prime,
            "seed" => &mut self.seed,
            "reporter" => &mut self.reporter,
            "target" => &mut self.target,
            "source" => &mut self.source,
            "outcome" => &mut self.outcome,
            "cache" => &mut self.cache,
            _ => return,
        };
        if field.is_none() {
            *field = Some(value);
        }
    }

    /// The demultiplexing key: `cell` (sweep convention) wins over
    /// `deployment` (live convention).
    fn deployment(&self) -> Option<String> {
        str_of(&self.cell).or_else(|| str_of(&self.deployment))
    }
}

fn str_of(v: &Option<JsonRef>) -> Option<String> {
    v.as_ref().and_then(JsonRef::as_str).map(str::to_string)
}

fn u32_of(v: &Option<JsonRef>, field: &str) -> Result<u32, String> {
    let raw = v
        .as_ref()
        .and_then(JsonRef::as_u64)
        .ok_or_else(|| format!("missing or non-u64 \"{field}\""))?;
    u32::try_from(raw).map_err(|_| format!("\"{field}\" {raw} exceeds u32"))
}

/// An optional `u32` field: absent is `None`, present must be a `u32`.
fn maybe_u32(v: &Option<JsonRef>, field: &str) -> Result<Option<u32>, String> {
    match v {
        None => Ok(None),
        some => u32_of(some, field).map(Some),
    }
}

/// Parses one input line. `Err` is a malformed line (invalid JSON, no
/// `kind`, or a recognized kind missing a contract field) with the reason;
/// the service survives these, counts them, and surfaces them through the
/// malformed-input health detector.
///
/// The line is scanned in place ([`scan_object`]): the fields the alerter
/// reads are kept as borrowed views, and no JSON tree is built.
pub fn parse_line(line: &str) -> Result<WireEvent, String> {
    let mut f = Fields::default();
    let is_object = scan_object(line, |key, value| f.visit(key, value))
        .map_err(|e| format!("invalid JSON: {e}"))?;
    if !is_object {
        return Err("line is not a JSON object".to_string());
    }
    let kind = f
        .kind
        .as_ref()
        .and_then(JsonRef::as_str)
        .ok_or_else(|| "missing or non-string \"kind\"".to_string())?;
    match kind {
        "cell.start" | "deploy.start" => Ok(WireEvent::DeployStart {
            deployment: f
                .deployment()
                .ok_or_else(|| format!("{kind} missing \"cell\"/\"deployment\""))?,
            tau: maybe_u32(&f.tau, "tau")?,
            tau_prime: maybe_u32(&f.tau_prime, "tau_prime")?,
            seed: f.seed.as_ref().and_then(JsonRef::as_u64),
        }),
        "bs.alert" | "alert" => Ok(WireEvent::Accusation {
            deployment: f.deployment(),
            reporter: u32_of(&f.reporter, "reporter")?,
            target: u32_of(&f.target, "target")?,
            source: str_of(&f.source),
            recorded_outcome: str_of(&f.outcome),
        }),
        "revocation" => Ok(WireEvent::RecordedRevocation {
            deployment: f.deployment(),
            target: u32_of(&f.target, "target")?,
        }),
        "cell.complete" | "deploy.end" => Ok(WireEvent::DeployEnd {
            deployment: f.deployment(),
            cache: str_of(&f.cache),
        }),
        _ => Ok(WireEvent::Ignored),
    }
}

/// The longest input line accepted, in bytes, counting its newline. The
/// longest line a recorded sweep writes is a few hundred bytes; the cap
/// keeps one newline-free stream from growing memory without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One line read by [`LineReader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Line<'a> {
    /// A line with its `\n` or `\r\n` terminator trimmed.
    Text(&'a str),
    /// A line that is not UTF-8 or is longer than [`MAX_LINE_BYTES`],
    /// with the reason. The whole line has been consumed.
    Malformed(&'static str),
}

/// Reads lines of at most [`MAX_LINE_BYTES`] bytes into one buffer that
/// never grows past that cap. An overlong line is discarded through the
/// reader's own buffer, so it costs no memory beyond the cap.
#[derive(Debug)]
pub struct LineReader<R> {
    reader: R,
    buf: Vec<u8>,
}

impl<R: BufRead> LineReader<R> {
    /// A reader over `reader`.
    pub fn new(reader: R) -> Self {
        LineReader {
            reader,
            buf: Vec::with_capacity(MAX_LINE_BYTES),
        }
    }

    /// The next line, or `None` at end of input.
    ///
    /// # Errors
    ///
    /// Only I/O errors of the underlying reader; bad bytes are a
    /// [`Line::Malformed`].
    pub fn next_line(&mut self) -> io::Result<Option<Line<'_>>> {
        self.buf.clear();
        let n = (&mut self.reader)
            .take(MAX_LINE_BYTES as u64)
            .read_until(b'\n', &mut self.buf)?;
        if n == 0 {
            return Ok(None);
        }
        if n == MAX_LINE_BYTES && self.buf.last() != Some(&b'\n') && self.discard_line()? > 0 {
            return Ok(Some(Line::Malformed("line longer than MAX_LINE_BYTES")));
        }
        Ok(Some(match std::str::from_utf8(&self.buf) {
            Ok(text) => Line::Text(text.trim_end_matches(['\r', '\n'])),
            Err(_) => Line::Malformed("line is not valid UTF-8"),
        }))
    }

    /// Consumes input through the next newline or end of input, one
    /// buffered chunk at a time; returns the bytes consumed.
    fn discard_line(&mut self) -> io::Result<usize> {
        let mut consumed = 0;
        loop {
            let chunk = match self.reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                return Ok(consumed);
            }
            let (used, done) = match chunk.iter().position(|&b| b == b'\n') {
                Some(i) => (i + 1, true),
                None => (chunk.len(), false),
            };
            self.reader.consume(used);
            consumed += used;
            if done {
                return Ok(consumed);
            }
        }
    }

    /// The line buffer's capacity; at most [`MAX_LINE_BYTES`].
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_recorded_cell_start() {
        let ev = parse_line(
            r#"{"kind":"cell.start","seq":3,"trace":"00000000c0ffee00","cell":"00000000c0ffee00","seed":7,"tau":2,"tau_prime":2}"#,
        )
        .unwrap();
        assert_eq!(
            ev,
            WireEvent::DeployStart {
                deployment: "00000000c0ffee00".to_string(),
                tau: Some(2),
                tau_prime: Some(2),
                seed: Some(7),
            }
        );
    }

    #[test]
    fn parses_recorded_bs_alert_with_verdict() {
        let ev = parse_line(
            r#"{"kind":"bs.alert","seq":9,"cell":"00000000c0ffee00","reporter":4,"target":17,"source":"detection","outcome":"accepted"}"#,
        )
        .unwrap();
        assert_eq!(
            ev,
            WireEvent::Accusation {
                deployment: Some("00000000c0ffee00".to_string()),
                reporter: 4,
                target: 17,
                source: Some("detection".to_string()),
                recorded_outcome: Some("accepted".to_string()),
            }
        );
    }

    #[test]
    fn parses_live_minimal_alert() {
        let ev = parse_line(r#"{"kind":"alert","deployment":"field-7","reporter":1,"target":2}"#)
            .unwrap();
        assert_eq!(
            ev,
            WireEvent::Accusation {
                deployment: Some("field-7".to_string()),
                reporter: 1,
                target: 2,
                source: None,
                recorded_outcome: None,
            }
        );
    }

    #[test]
    fn uninteresting_kinds_are_ignored_not_errors() {
        for line in [
            r#"{"kind":"phase","seq":1,"name":"impact"}"#,
            r#"{"kind":"sweep.end","seq":99,"cells":4,"resumed":0,"cached":0,"executed":4}"#,
            r#"{"kind":"health.stalled_stream","seq":5,"message":"idle"}"#,
        ] {
            assert_eq!(parse_line(line).unwrap(), WireEvent::Ignored);
        }
    }

    #[test]
    fn malformed_lines_error_with_reason() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("[1,2,3]").is_err());
        assert!(parse_line(r#"{"seq":1}"#).is_err());
        assert!(parse_line(r#"{"kind":"alert","reporter":1}"#).is_err());
        assert!(parse_line(r#"{"kind":"alert","reporter":"x","target":2}"#).is_err());
        assert!(parse_line(r#"{"kind":"alert","reporter":5000000000,"target":2}"#).is_err());
        assert!(parse_line(r#"{"kind":"cell.start","tau":2}"#).is_err());
    }
}

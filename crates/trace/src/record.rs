//! Serializable trace records and JSONL round-tripping.
//!
//! The on-disk trace format is one JSON object per line — the same shape a
//! real instrumentation agent would emit — carrying the event tuple
//! `(task, state, queue, arrival, departure)` plus observation flags.
//!
//! Every ingest path — [`read_jsonl`] and the live tail's
//! [`crate::tail::LineAssembler`] — decodes lines with [`decode_line`], a
//! schema-direct scanner that reads each line's bytes once into the
//! seven typed fields without touching the heap. It accepts exactly the
//! lines `serde_json::from_str::<TraceRecord>` accepts, with the same
//! field values bit for bit, except that it also rejects non-finite
//! times; `crates/trace/tests/decode_differential.rs` holds it to that.

use crate::error::TraceError;
use crate::mask::{MaskedLog, ObservedMask};
use qni_model::event::Event;
use qni_model::ids::{EventId, QueueId, StateId, TaskId};
use qni_model::log::EventLog;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{BufRead, Write};

/// One line of a trace file.
///
/// On disk a record is one JSON object on one line, e.g.
/// `{"task":3,"state":1,"queue":1,"arrival":0.5,"departure":0.75,"arrival_observed":true,"departure_observed":false}`.
/// The grammar [`decode_line`] accepts:
///
/// - **Keys.** All seven keys above are required, in any order, with
///   any JSON whitespace (space, tab, `\r`, `\n`) between tokens. Keys
///   may be escaped (`"t\u0061sk"` is `task`). Unknown keys are skipped,
///   but their values must still be well-formed JSON (nested at most
///   [`MAX_NESTING`] deep). For a repeated key the first value wins; a
///   later one is only checked to be well-formed JSON.
/// - **Ids** (`task`, `state`, `queue`) are numbers whose value is a
///   whole number in `0..=u32::MAX`: `7`, `007`, `-0`, `7.0` and `7e0`
///   all read as 7.
/// - **Times** (`arrival`, `departure`) are finite numbers. An integer
///   token is read as `u64`, then `i64`, then `f64`, so `-0` reads as
///   `+0.0` while `-0.0` keeps its sign; a token that overflows to
///   infinity (`1e999`) is rejected.
/// - **Flags** (`arrival_observed`, `departure_observed`) are `true` or
///   `false`.
/// - A line must be valid UTF-8 and hold one object and nothing else but
///   whitespace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// The event tuple.
    #[serde(flatten)]
    pub event: Event,
    /// Whether the arrival time was measured.
    pub arrival_observed: bool,
    /// Whether the departure time was measured.
    pub departure_observed: bool,
}

/// Writes a masked log as JSONL.
pub fn write_jsonl<W: Write>(ml: &MaskedLog, mut w: W) -> Result<(), TraceError> {
    let log = ml.ground_truth();
    for e in log.event_ids() {
        let rec = TraceRecord {
            event: *log.event(e),
            arrival_observed: ml.mask().arrival_observed(e),
            departure_observed: ml.mask().departure_observed(e),
        };
        serde_json::to_writer(&mut w, &rec)?;
        writeln!(w)?;
    }
    Ok(())
}

/// The source label [`read_jsonl`] and
/// [`crate::tail::LineAssembler::push`] put in a [`TraceError::BadLine`];
/// callers that know the file replace it with [`TraceError::in_file`].
pub const STREAM_LABEL: &str = "<stream>";

/// Reads trace records from JSONL, one [`TraceRecord`] per line.
///
/// Lines are decoded by [`decode_line`] (see [`TraceRecord`] for the
/// grammar) as they stream in through one reused buffer, so memory holds
/// the records and one line, never the whole input. A line is blank, and
/// skipped, when it is empty or all whitespace (`str::trim`). The first
/// line that does not decode fails the read with
/// [`TraceError::BadLine`], naming its 1-based line number and the byte
/// offset of its first byte.
pub fn read_jsonl<R: BufRead>(mut r: R) -> Result<Vec<TraceRecord>, TraceError> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    let (mut line, mut offset) = (0u64, 0u64);
    loop {
        buf.clear();
        let n = r.read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(out);
        }
        line += 1;
        let text = buf.strip_suffix(b"\n").unwrap_or(&buf);
        match decode_line(text) {
            Ok(Some(rec)) => out.push(rec),
            Ok(None) => {}
            Err(e) => {
                return Err(TraceError::BadLine {
                    path: STREAM_LABEL.to_string(),
                    line,
                    offset,
                    message: e.to_string(),
                })
            }
        }
        offset += n as u64;
    }
}

/// Why [`decode_line`] rejected a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineError {
    /// The record field whose value was wrong, if the fault is in one.
    pub field: Option<&'static str>,
    /// What was wrong.
    pub what: &'static str,
    /// Byte position within the line where decoding stopped.
    pub at: usize,
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(field) = self.field {
            write!(f, "field `{field}`: ")?;
        }
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for LineError {}

/// How deep [`decode_line`] follows arrays and objects nested inside an
/// unknown key's value; deeper nesting is rejected.
pub const MAX_NESTING: usize = 1024;

/// Decodes one trace line (without its `\n`) into a record.
///
/// Returns `Ok(None)` for a blank line (empty or all whitespace). The
/// accepted grammar is documented on [`TraceRecord`]. Decoding reads the
/// line once and allocates nothing, on success or failure.
pub fn decode_line(line: &[u8]) -> Result<Option<TraceRecord>, LineError> {
    let text = std::str::from_utf8(line).map_err(|e| LineError {
        field: None,
        what: "trace line is not valid UTF-8",
        at: e.valid_up_to(),
    })?;
    if text.trim().is_empty() {
        return Ok(None);
    }
    Decoder { b: line, pos: 0 }.record().map(Some)
}

/// The record's keys, in [`Decoder::record`]'s slot order: three ids,
/// two times, two flags.
const FIELDS: [&str; 7] = [
    "task",
    "state",
    "queue",
    "arrival",
    "departure",
    "arrival_observed",
    "departure_observed",
];

/// Longest key [`Decoder::string`] decodes for matching; a longer key is
/// validated but cannot name a field.
const MAX_KEY: usize = 24;

/// A JSON number token, typed the way the vendored `serde_json` reads it:
/// integer tokens as `u64`, then `i64`, everything else as `f64`.
#[derive(Clone, Copy)]
enum Number {
    U64(u64),
    I64(i64),
    F64(f64),
}

/// A cursor over one UTF-8-validated line.
struct Decoder<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Decoder<'_> {
    fn error(&self, what: &'static str) -> LineError {
        LineError {
            field: None,
            what,
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    /// Consumes `byte`, or fails with `what`.
    fn eat(&mut self, byte: u8, what: &'static str) -> Result<(), LineError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(what))
        }
    }

    /// Consumes `kw` if the input continues with it.
    fn keyword(&mut self, kw: &[u8]) -> bool {
        let hit = self.b[self.pos..].starts_with(kw);
        if hit {
            self.pos += kw.len();
        }
        hit
    }

    /// The whole line: one object, then only whitespace.
    fn record(mut self) -> Result<TraceRecord, LineError> {
        let mut ids: [Option<u32>; 3] = [None; 3];
        let mut times: [Option<f64>; 2] = [None; 2];
        let mut flags: [Option<bool>; 2] = [None; 2];
        self.skip_ws();
        self.eat(b'{', "expected a JSON object")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                let field = self.string()?;
                self.skip_ws();
                self.eat(b':', "expected `:`")?;
                self.skip_ws();
                let name = field.map(|f| FIELDS[f]);
                let tag = |e: LineError| LineError { field: name, ..e };
                match field {
                    Some(f @ 0..=2) if ids[f].is_none() => ids[f] = Some(self.id().map_err(tag)?),
                    Some(f @ 3..=4) if times[f - 3].is_none() => {
                        times[f - 3] = Some(self.time().map_err(tag)?);
                    }
                    Some(f @ 5..=6) if flags[f - 5].is_none() => {
                        flags[f - 5] = Some(self.flag().map_err(tag)?);
                    }
                    _ => self.skip_value()?,
                }
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.error("expected `,` or `}`")),
                }
            }
        }
        self.skip_ws();
        if self.pos != self.b.len() {
            return Err(self.error("trailing characters"));
        }
        let missing = |slot: usize| LineError {
            field: Some(FIELDS[slot]),
            what: "missing field",
            at: self.pos,
        };
        let id = |slot: usize| ids[slot].ok_or_else(|| missing(slot));
        let time = |slot: usize| times[slot - 3].ok_or_else(|| missing(slot));
        let flag = |slot: usize| flags[slot - 5].ok_or_else(|| missing(slot));
        Ok(TraceRecord {
            event: Event {
                task: TaskId(id(0)?),
                state: StateId(id(1)?),
                queue: QueueId(id(2)?),
                arrival: time(3)?,
                departure: time(4)?,
            },
            arrival_observed: flag(5)?,
            departure_observed: flag(6)?,
        })
    }

    /// An id: a number whose value is a whole number that fits a `u32`.
    fn id(&mut self) -> Result<u32, LineError> {
        let whole = match self.number_value("expected an integer id")? {
            Number::U64(v) => Some(v),
            Number::I64(v) => u64::try_from(v).ok(),
            Number::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => {
                Some(v as u64)
            }
            Number::F64(_) => None,
        };
        whole
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| self.error("id is not a whole number in 0..=4294967295"))
    }

    /// A time: any finite number.
    fn time(&mut self) -> Result<f64, LineError> {
        let t = match self.number_value("expected a number")? {
            Number::U64(v) => v as f64,
            Number::I64(v) => v as f64,
            Number::F64(v) => v,
        };
        if t.is_finite() {
            Ok(t)
        } else {
            Err(self.error("time is not finite"))
        }
    }

    fn flag(&mut self) -> Result<bool, LineError> {
        if self.keyword(b"true") {
            Ok(true)
        } else if self.keyword(b"false") {
            Ok(false)
        } else {
            Err(self.error("expected `true` or `false`"))
        }
    }

    /// A number token where a typed field's value starts.
    fn number_value(&mut self, what: &'static str) -> Result<Number, LineError> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error(what)),
        }
    }

    /// A number token starting at `-` or a digit. The token runs over
    /// digits and `.eE+-`; its text then parses as `u64`, `i64` (integer
    /// tokens only) or `f64`, the first that succeeds.
    fn number(&mut self) -> Result<Number, LineError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        // The value of a plain digit run, as `u64` parsing would give it;
        // `None` once it overflows.
        let mut digits = Some(0u64);
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    digits = digits
                        .and_then(|v| v.checked_mul(10))
                        .and_then(|v| v.checked_add(u64::from(b - b'0')));
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        if let (false, b'0'..=b'9', Some(v)) = (is_float, self.b[start], digits) {
            return Ok(Number::U64(v));
        }
        let bad = LineError {
            field: None,
            what: "invalid number",
            at: start,
        };
        let text = std::str::from_utf8(&self.b[start..self.pos]).map_err(|_| bad)?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::I64(i));
            }
        }
        text.parse::<f64>().map(Number::F64).map_err(|_| bad)
    }

    /// A string token; returns the [`FIELDS`] slot its decoded text
    /// names, if any.
    fn string(&mut self) -> Result<Option<usize>, LineError> {
        self.eat(b'"', "expected `\"`")?;
        let start = self.pos;
        // Fast path: no escapes, so the key is the raw bytes. `"` and `\\`
        // are ASCII and never inside a multi-byte UTF-8 sequence, so a
        // byte scan finds them in the already-validated line.
        match self.b[start..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
        {
            None => {
                self.pos = self.b.len();
                return Err(self.error("unterminated string"));
            }
            Some(n) if self.b[start + n] == b'"' => {
                self.pos = start + n + 1;
                return Ok(slot_of(&self.b[start..start + n]));
            }
            Some(n) => self.pos = start + n,
        }
        let mut key = [0u8; MAX_KEY];
        let mut len = self.pos - start;
        if len <= MAX_KEY {
            key[..len].copy_from_slice(&self.b[start..self.pos]);
        }
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(if len <= MAX_KEY {
                        slot_of(&key[..len])
                    } else {
                        None
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    let mut utf8 = [0u8; 4];
                    let bytes = c.encode_utf8(&mut utf8).as_bytes();
                    if len + bytes.len() <= MAX_KEY {
                        key[len..len + bytes.len()].copy_from_slice(bytes);
                    }
                    len += bytes.len();
                }
                Some(c) => {
                    if len < MAX_KEY {
                        key[len] = c;
                    }
                    len += 1;
                    self.pos += 1;
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The character a backslash escape stands for; `pos` is just past
    /// the backslash on entry and past the escape on exit. `\uXXXX`
    /// surrogate halves must pair up.
    fn escape(&mut self) -> Result<char, LineError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let unit = self.hex4()?;
                match unit {
                    0xD800..=0xDBFF => {
                        if self.b.get(self.pos + 1) != Some(&b'\\')
                            || self.b.get(self.pos + 2) != Some(&b'u')
                        {
                            return Err(self.error("unpaired high surrogate in \\u escape"));
                        }
                        self.pos += 2;
                        let low = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&low) {
                            return Err(self.error("expected low surrogate after high"));
                        }
                        let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"))?
                    }
                    0xDC00..=0xDFFF => {
                        return Err(self.error("unpaired low surrogate in \\u escape"))
                    }
                    code => char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"))?,
                }
            }
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The four hex digits of a `\uXXXX` escape, read with
    /// `u32::from_str_radix` as the vendored `serde_json` does. On entry
    /// `pos` is at the `u`; on exit at the last digit.
    fn hex4(&mut self) -> Result<u32, LineError> {
        let code = self
            .b
            .get(self.pos + 1..self.pos + 5)
            .and_then(|hex| std::str::from_utf8(hex).ok())
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Validates one JSON value without keeping it. Arrays and objects
    /// are walked iteratively; `open` is a bit stack of the enclosing
    /// containers (1 = object), so nesting costs no heap and no
    /// recursion.
    fn skip_value(&mut self) -> Result<(), LineError> {
        let mut open = [0u64; MAX_NESTING / 64];
        let mut depth = 0usize;
        loop {
            // A value starts here.
            self.skip_ws();
            match self.peek() {
                Some(b'"') => {
                    self.string()?;
                }
                Some(b'n') if self.keyword(b"null") => {}
                Some(b't') if self.keyword(b"true") => {}
                Some(b'f') if self.keyword(b"false") => {}
                Some(b'-' | b'0'..=b'9') => {
                    self.number()?;
                }
                Some(c @ (b'[' | b'{')) => {
                    self.pos += 1;
                    self.skip_ws();
                    let close = if c == b'[' { b']' } else { b'}' };
                    if self.peek() == Some(close) {
                        self.pos += 1;
                    } else {
                        if depth == MAX_NESTING {
                            return Err(self.error("JSON nested too deeply"));
                        }
                        let bit = 1u64 << (depth % 64);
                        if c == b'{' {
                            open[depth / 64] |= bit;
                            self.member_key()?;
                        } else {
                            open[depth / 64] &= !bit;
                        }
                        depth += 1;
                        continue;
                    }
                }
                Some(b'n' | b't' | b'f') => return Err(self.error("invalid token")),
                Some(_) => return Err(self.error("unexpected byte")),
                None => return Err(self.error("unexpected end of input")),
            }
            // A value ended: close containers until one continues.
            loop {
                if depth == 0 {
                    return Ok(());
                }
                let in_object = (open[(depth - 1) / 64] >> ((depth - 1) % 64)) & 1 == 1;
                self.skip_ws();
                match (self.peek(), in_object) {
                    (Some(b','), true) => {
                        self.pos += 1;
                        self.member_key()?;
                        break;
                    }
                    (Some(b','), false) => {
                        self.pos += 1;
                        break;
                    }
                    (Some(b'}'), true) | (Some(b']'), false) => {
                        self.pos += 1;
                        depth -= 1;
                    }
                    (_, true) => return Err(self.error("expected `,` or `}`")),
                    (_, false) => return Err(self.error("expected `,` or `]`")),
                }
            }
        }
    }

    /// An object member's key and colon, inside a skipped value.
    fn member_key(&mut self) -> Result<(), LineError> {
        self.skip_ws();
        self.string()?;
        self.skip_ws();
        self.eat(b':', "expected `:`")
    }
}

/// The [`FIELDS`] slot `key` names.
fn slot_of(key: &[u8]) -> Option<usize> {
    FIELDS.iter().position(|f| f.as_bytes() == key)
}

/// Reconstructs a [`MaskedLog`] from trace records.
///
/// Records must describe complete tasks (each task's events contiguous in
/// task order, starting with its `q0` initial event), which is how
/// [`write_jsonl`] emits them. Task ids must run densely from 0; a gap
/// fails with [`TraceError::TaskIdGap`]. Every task has at least one
/// record, so an id at or above the record count always leaves a gap
/// and is rejected before anything is allocated for it. A task has
/// exactly one initial record, and no two of its visit records may match
/// field for field (times bit for bit); either kind of repeat fails with
/// [`TraceError::DuplicateRecord`].
pub fn from_records(records: &[TraceRecord], num_queues: usize) -> Result<MaskedLog, TraceError> {
    use qni_model::log::EventLogBuilder;
    for (pos, rec) in records.iter().enumerate() {
        let task = rec.event.task.index();
        if task >= records.len() {
            return Err(TraceError::TaskIdGap {
                task,
                record: Some(pos + 1),
            });
        }
    }
    // Record positions grouped by task. The sort is stable, so each
    // task keeps its records' input order; on the usual task-ordered
    // trace it is one linear pass.
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&p| records[p].event.task);
    let initial_state = records
        .iter()
        .find(|r| r.event.is_initial())
        .map(|r| r.event.state)
        .unwrap_or(qni_model::ids::StateId(0));
    let mut builder = EventLogBuilder::new(num_queues, initial_state);
    let mut flags: Vec<(bool, bool)> = Vec::with_capacity(records.len());
    let mut visits = Vec::new();
    let mut scratch = Vec::new();
    for (task, positions) in order
        .chunk_by(|&a, &b| records[a].event.task == records[b].event.task)
        .enumerate()
    {
        if records[positions[0]].event.task.index() != task {
            return Err(TraceError::TaskIdGap { task, record: None });
        }
        let mut initial = None;
        scratch.clear();
        for &p in positions {
            if !records[p].event.is_initial() {
                scratch.push(p);
            } else if initial.is_none() {
                initial = Some(&records[p]);
            } else {
                return Err(TraceError::DuplicateRecord {
                    task,
                    record: p + 1,
                });
            }
        }
        let initial = initial.ok_or(TraceError::ShapeMismatch {
            expected: 1,
            actual: 0,
        })?;
        visits.clear();
        flags.push((initial.arrival_observed, initial.departure_observed));
        for &p in &scratch {
            let r = &records[p];
            visits.push((
                r.event.state,
                r.event.queue,
                r.event.arrival,
                r.event.departure,
            ));
            flags.push((r.arrival_observed, r.departure_observed));
        }
        if let Some(record) = first_repeat(records, &mut scratch) {
            return Err(TraceError::DuplicateRecord { task, record });
        }
        builder
            .add_task(initial.event.departure, &visits)
            .map_err(|_| TraceError::ShapeMismatch {
                expected: visits.len(),
                actual: 0,
            })?;
    }
    let log = builder.build().map_err(|_| TraceError::ShapeMismatch {
        expected: records.len(),
        actual: 0,
    })?;
    let mut mask = ObservedMask::unobserved(log.num_events());
    for (i, &(a, d)) in flags.iter().enumerate() {
        let e = EventId::from_index(i);
        if a {
            mask.observe_arrival(e);
        }
        if d {
            mask.observe_departure(e);
        }
    }
    MaskedLog::new(log, mask)
}

/// The 1-based position of the earliest record among `positions` that
/// repeats an earlier one field for field, if any. Sorts `positions`.
fn first_repeat(records: &[TraceRecord], positions: &mut [usize]) -> Option<usize> {
    let key = |p: usize| {
        let r = &records[p];
        (
            r.event.state,
            r.event.queue,
            r.event.arrival.to_bits(),
            r.event.departure.to_bits(),
            r.arrival_observed,
            r.departure_observed,
        )
    };
    // Equal records sort next to each other, earliest position first.
    positions.sort_unstable_by_key(|&p| (key(p), p));
    positions
        .windows(2)
        .filter(|w| key(w[0]) == key(w[1]))
        .map(|w| w[1] + 1)
        .min()
}

/// Convenience: extracts the full event list of a log as records with the
/// given mask.
pub fn to_records(log: &EventLog, mask: &ObservedMask) -> Vec<TraceRecord> {
    log.event_ids()
        .map(|e| TraceRecord {
            event: *log.event(e),
            arrival_observed: mask.arrival_observed(e),
            departure_observed: mask.departure_observed(e),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::ObservationScheme;
    use qni_model::topology::tandem;
    use qni_sim::{Simulator, Workload};
    use qni_stats::rng::rng_from_seed;

    fn masked() -> MaskedLog {
        let bp = tandem(2.0, &[5.0, 6.0]).unwrap();
        let mut rng = rng_from_seed(1);
        let log = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(2.0, 40).unwrap(), &mut rng)
            .unwrap();
        ObservationScheme::task_sampling(0.5)
            .unwrap()
            .apply(log, &mut rng_from_seed(2))
            .unwrap()
    }

    #[test]
    fn jsonl_round_trip() {
        let ml = masked();
        let mut buf = Vec::new();
        write_jsonl(&ml, &mut buf).unwrap();
        let records = read_jsonl(std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(records.len(), ml.ground_truth().num_events());
        let rebuilt = from_records(&records, ml.ground_truth().num_queues()).unwrap();
        let (a, b) = (ml.ground_truth(), rebuilt.ground_truth());
        assert_eq!(a.num_events(), b.num_events());
        for e in a.event_ids() {
            assert_eq!(a.event(e), b.event(e));
            assert_eq!(
                ml.mask().arrival_observed(e),
                rebuilt.mask().arrival_observed(e)
            );
            assert_eq!(
                ml.mask().departure_observed(e),
                rebuilt.mask().departure_observed(e)
            );
        }
    }

    #[test]
    fn jsonl_skips_blank_lines() {
        let ml = masked();
        let mut buf = Vec::new();
        write_jsonl(&ml, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("\n\n");
        let records = read_jsonl(std::io::Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(records.len(), ml.ground_truth().num_events());
    }

    #[test]
    fn task_id_gaps_are_typed_errors_naming_the_id() {
        let ml = masked();
        let mut records = to_records(ml.ground_truth(), ml.mask());
        let n = records.len();
        // A claimed id far past the record count fails before `by_task`
        // grows to it, naming the id and the record's position.
        let mut huge = records.clone();
        huge[n - 1].event.task = qni_model::ids::TaskId(4_000_000_000);
        let err = from_records(&huge, 3).unwrap_err();
        assert!(matches!(
            err,
            TraceError::TaskIdGap {
                task: 4_000_000_000,
                record: Some(r)
            } if r == n
        ));
        let msg = err.to_string();
        assert!(msg.contains("task id 4000000000"), "{msg}");
        assert!(msg.contains(&format!("record {n}")), "{msg}");
        // Shifting the last task up by one leaves its old id empty.
        let last = records[n - 1].event.task;
        for r in records.iter_mut().filter(|r| r.event.task == last) {
            r.event.task = qni_model::ids::TaskId(last.0 + 1);
        }
        let err = from_records(&records, 3).unwrap_err();
        assert!(matches!(
            err,
            TraceError::TaskIdGap { task, record: None } if task == last.index()
        ));
        assert!(err.to_string().contains(&format!("task id {}", last.0)));
    }

    #[test]
    fn duplicate_records_are_typed_errors_naming_the_later_one() {
        let ml = masked();
        let records = to_records(ml.ground_truth(), ml.mask());
        assert!(records[0].event.is_initial() && !records[1].event.is_initial());
        // Prepending a copy of task 0's initial record (position 1) or of
        // its first visit (position 2): the original is the later one.
        for copied in [0, 1] {
            let mut dup = vec![records[copied]];
            dup.extend_from_slice(&records);
            let err = from_records(&dup, 3).unwrap_err();
            assert!(
                matches!(err, TraceError::DuplicateRecord { task: 0, record } if record == copied + 2),
                "{err}"
            );
            assert!(err.to_string().contains("task 0"), "{err}");
        }
        // A second initial record need not be identical to be rejected.
        let n = records.len();
        let mut second = records.clone();
        let mut extra = records[0];
        extra.event.departure += 1.0;
        second.push(extra);
        assert!(matches!(
            from_records(&second, 3),
            Err(TraceError::DuplicateRecord { task: 0, record }) if record == n + 1
        ));
        // A visit repeated far from its task is still found.
        let last = records[n - 1];
        let mut repeated = records.clone();
        repeated.insert(0, last);
        repeated.push(last);
        assert!(matches!(
            from_records(&repeated, 3),
            Err(TraceError::DuplicateRecord { task, record })
                if task == last.event.task.index() && record == n + 1
        ));
        // The same visit with a different observation flag is not a
        // repeat: every field counts.
        let mut flipped = records.clone();
        let mut other = records[1];
        other.arrival_observed = !other.arrival_observed;
        flipped.insert(2, other);
        assert!(!matches!(
            from_records(&flipped, 3),
            Err(TraceError::DuplicateRecord { .. })
        ));
    }

    #[test]
    fn rejects_garbage() {
        let r = read_jsonl(std::io::Cursor::new(b"{not json}\n".as_slice()));
        assert!(matches!(
            r,
            Err(TraceError::BadLine {
                line: 1,
                offset: 0,
                ..
            })
        ));
    }

    #[test]
    fn record_fields_flattened() {
        let ml = masked();
        let recs = to_records(ml.ground_truth(), ml.mask());
        let json = serde_json::to_string(&recs[0]).unwrap();
        // The event tuple is inlined, not nested under "event".
        assert!(json.contains("\"task\""));
        assert!(json.contains("\"arrival\""));
        assert!(!json.contains("\"event\""));
    }
}

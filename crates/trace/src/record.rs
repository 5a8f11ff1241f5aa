//! Serializable trace records and JSONL round-tripping.
//!
//! The on-disk trace format is one JSON object per line — the same shape a
//! real instrumentation agent would emit — carrying the event tuple
//! `(task, state, queue, arrival, departure)` plus observation flags.

use crate::error::TraceError;
use crate::mask::{MaskedLog, ObservedMask};
use qni_model::event::Event;
use qni_model::ids::EventId;
use qni_model::log::EventLog;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};

/// One line of a trace file.
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

/// Reads trace records from JSONL.
pub fn read_jsonl<R: BufRead>(r: R) -> Result<Vec<TraceRecord>, TraceError> {
    let mut out = Vec::new();
    for line in r.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        out.push(serde_json::from_str(&line)?);
    }
    Ok(out)
}

/// Reconstructs a [`MaskedLog`] from trace records.
///
/// Records must describe complete tasks (each task's events contiguous in
/// task order, starting with its `q0` initial event), which is how
/// [`write_jsonl`] emits them. Task ids must run densely from 0; a gap
/// fails with [`TraceError::TaskIdGap`]. Every task has at least one
/// record, so an id at or above the record count always leaves a gap
/// and is rejected before anything is allocated for it.
pub fn from_records(records: &[TraceRecord], num_queues: usize) -> Result<MaskedLog, TraceError> {
    use qni_model::log::EventLogBuilder;
    // Group by task preserving order.
    let mut by_task: Vec<Vec<&TraceRecord>> = Vec::new();
    for (pos, rec) in records.iter().enumerate() {
        let idx = rec.event.task.index();
        if idx >= records.len() {
            return Err(TraceError::TaskIdGap {
                task: idx,
                record: Some(pos + 1),
            });
        }
        if by_task.len() <= idx {
            by_task.resize_with(idx + 1, Vec::new);
        }
        by_task[idx].push(rec);
    }
    let initial_state = records
        .iter()
        .find(|r| r.event.is_initial())
        .map(|r| r.event.state)
        .unwrap_or(qni_model::ids::StateId(0));
    let mut builder = EventLogBuilder::new(num_queues, initial_state);
    let mut flags: Vec<(bool, bool)> = Vec::with_capacity(records.len());
    for (task, recs) in by_task.iter().enumerate() {
        if recs.is_empty() {
            return Err(TraceError::TaskIdGap { task, record: None });
        }
        let initial =
            recs.iter()
                .find(|r| r.event.is_initial())
                .ok_or(TraceError::ShapeMismatch {
                    expected: 1,
                    actual: 0,
                })?;
        let visits: Vec<_> = recs
            .iter()
            .filter(|r| !r.event.is_initial())
            .map(|r| {
                (
                    r.event.state,
                    r.event.queue,
                    r.event.arrival,
                    r.event.departure,
                )
            })
            .collect();
        flags.push((initial.arrival_observed, initial.departure_observed));
        for r in recs.iter().filter(|r| !r.event.is_initial()) {
            flags.push((r.arrival_observed, r.departure_observed));
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
    fn rejects_garbage() {
        let r = read_jsonl(std::io::Cursor::new(b"{not json}\n".as_slice()));
        assert!(r.is_err());
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

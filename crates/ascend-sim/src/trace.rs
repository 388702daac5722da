//! Execution-trace records: engine-occupancy intervals and the
//! happens-before event stream, with the `hbEvents` JSON round trip.
//!
//! When recording is enabled on a core's timeline, every instruction's
//! engine occupancy interval is kept as a [`TraceEvent`]; the
//! [`crate::prof`] Perfetto export renders them.

use crate::engine::EngineKind;
use crate::json::{self, Json};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// One engine-occupancy interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Block index the core belongs to.
    pub block: u32,
    /// Core index within the block (0 = cube, 1.. = vector cores).
    pub core: u32,
    /// The engine that executed the instruction.
    pub engine: EngineKind,
    /// Start cycle.
    pub start: u64,
    /// End cycle (exclusive).
    pub end: u64,
}

/// One happens-before-relevant action recorded during a launch — the
/// raw material of the `hb` module's schedule analysis. All byte
/// addresses are absolute GM offsets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HbAction {
    /// An engine read GM bytes `[start, end)`.
    GmRead {
        /// First byte offset of the access.
        start: u64,
        /// One past the last byte of the access.
        end: u64,
    },
    /// An engine wrote GM bytes `[start, end)`.
    GmWrite {
        /// First byte offset of the access.
        start: u64,
        /// One past the last byte of the access.
        end: u64,
    },
    /// `CrossCoreSetFlag`: published the set with the given token.
    FlagSet {
        /// The flag id.
        id: u32,
        /// The set's unique token within the block's flag file.
        token: u64,
    },
    /// `CrossCoreWaitFlag`: consumed the set with the given token.
    FlagWait {
        /// The flag id.
        id: u32,
        /// Token of the consumed set.
        token: u64,
    },
    /// `GridSetFlag`: published a launch-wide mailbox flag set with the
    /// given token (the chained look-back protocol's publish step).
    GridFlagSet {
        /// The grid flag id.
        id: u32,
        /// The set's launch-unique token.
        token: u64,
    },
    /// `GridWaitFlag`: consumed the launch-wide set with the given token.
    GridFlagWait {
        /// The grid flag id.
        id: u32,
        /// Token of the consumed set.
        token: u64,
    },
    /// The core participated in `SyncAll` barrier round `round`.
    Barrier {
        /// Zero-based barrier round within the launch.
        round: u32,
    },
    /// A `TQue` was created.
    QueueCreate {
        /// Launch-unique queue id.
        queue: u32,
    },
    /// A tensor was enqueued on a `TQue`.
    Enque {
        /// The queue's id.
        queue: u32,
    },
    /// A tensor was dequeued from a `TQue`.
    Deque {
        /// The queue's id.
        queue: u32,
    },
    /// A `TQue` was destroyed.
    QueueDestroy {
        /// The queue's id.
        queue: u32,
    },
    /// A local scratchpad buffer was allocated.
    Alloc {
        /// The allocation's unique id.
        id: u64,
        /// Allocation size in bytes.
        bytes: u64,
    },
    /// A local scratchpad buffer was freed.
    Free {
        /// The allocation's unique id.
        id: u64,
    },
}

/// One recorded happens-before event. Events of the same `(block, core)`
/// pair are in program order within the harvested event list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HbEvent {
    /// Block index the event belongs to.
    pub block: u32,
    /// Core index within the block (0 = cube, 1.. = vector cores).
    pub core: u32,
    /// Completion cycle of the instruction that produced the event.
    pub time: u64,
    /// The instruction or operation name (e.g. "DataCopy", "Mmad").
    pub what: &'static str,
    /// What happened.
    pub action: HbAction,
}

/// Shared recorder for happens-before events on one core. Cloning shares
/// the underlying buffer, so a `TQue` created on a core appends into the
/// same program-order stream. Disabled recorders make every call a no-op
/// — kernels record unconditionally at zero cost.
#[derive(Clone, Debug, Default)]
pub struct HbRecorder(Option<HbLog>);

/// The shared program-order event buffer behind an enabled recorder.
type HbLog = Rc<RefCell<Vec<(u64, &'static str, HbAction)>>>;

impl HbRecorder {
    /// A recorder that drops everything.
    pub fn disabled() -> Self {
        HbRecorder(None)
    }

    /// A recorder that keeps events.
    pub fn enabled() -> Self {
        HbRecorder(Some(Rc::new(RefCell::new(Vec::new()))))
    }

    /// Whether events are being kept.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Appends one event (no-op when disabled).
    pub fn record(&self, time: u64, what: &'static str, action: HbAction) {
        if let Some(buf) = &self.0 {
            buf.borrow_mut().push((time, what, action));
        }
    }

    /// Drains the recorded events, stamping them with their block/core
    /// identity.
    pub fn take(&self, block: u32, core: u32) -> Vec<HbEvent> {
        match &self.0 {
            None => Vec::new(),
            Some(buf) => buf
                .borrow_mut()
                .drain(..)
                .map(|(time, what, action)| HbEvent {
                    block,
                    core,
                    time,
                    what,
                    action,
                })
                .collect(),
        }
    }
}

/// Renders happens-before events as a JSON array (the `"hbEvents"` value
/// of the `ascend-trace/v1` schema). Lossless: [`parse_hb_json`] inverts
/// it.
pub fn hb_events_json(events: &[HbEvent]) -> Json {
    Json::Arr(events.iter().map(hb_event_json).collect())
}

fn hb_event_json(e: &HbEvent) -> Json {
    let (action, args) = match e.action {
        HbAction::GmRead { start, end } => ("gmRead", vec![("start", start), ("end", end)]),
        HbAction::GmWrite { start, end } => ("gmWrite", vec![("start", start), ("end", end)]),
        HbAction::FlagSet { id, token } => ("flagSet", vec![("id", id.into()), ("token", token)]),
        HbAction::FlagWait { id, token } => ("flagWait", vec![("id", id.into()), ("token", token)]),
        HbAction::GridFlagSet { id, token } => {
            ("gridFlagSet", vec![("id", id.into()), ("token", token)])
        }
        HbAction::GridFlagWait { id, token } => {
            ("gridFlagWait", vec![("id", id.into()), ("token", token)])
        }
        HbAction::Barrier { round } => ("barrier", vec![("round", round.into())]),
        HbAction::QueueCreate { queue } => ("queueCreate", vec![("queue", queue.into())]),
        HbAction::Enque { queue } => ("enque", vec![("queue", queue.into())]),
        HbAction::Deque { queue } => ("deque", vec![("queue", queue.into())]),
        HbAction::QueueDestroy { queue } => ("queueDestroy", vec![("queue", queue.into())]),
        HbAction::Alloc { id, bytes } => ("alloc", vec![("id", id), ("bytes", bytes)]),
        HbAction::Free { id } => ("free", vec![("id", id)]),
    };
    let mut fields = vec![
        ("block", e.block.into()),
        ("core", e.core.into()),
        ("time", e.time.into()),
        ("what", e.what.into()),
        ("action", action.into()),
    ];
    fields.extend(args.into_iter().map(|(k, v)| (k, Json::from(v))));
    Json::obj(fields)
}

/// Parses happens-before events back out of a JSON document — either a
/// bare [`hb_events_json`] array or a full `ascend-trace/v1` profile
/// document carrying an `"hbEvents"` key.
pub fn parse_hb_json(doc: &str) -> Result<Vec<HbEvent>, String> {
    let root = json::parse(doc)?;
    let events = match &root {
        Json::Arr(items) => items.as_slice(),
        _ => root
            .get("hbEvents")
            .and_then(Json::as_array)
            .ok_or("no hbEvents array found")?,
    };
    // Intern parsed names so `HbEvent::what` stays `&'static str`
    // (recording side uses static literals; the handful of distinct
    // names per document makes the leak bounded).
    let mut interned: HashMap<String, &'static str> = HashMap::new();
    events
        .iter()
        .enumerate()
        .map(|(i, e)| hb_event(e, &mut interned).map_err(|err| format!("hbEvents[{i}]: {err}")))
        .collect()
}

/// Maps one object of [`hb_events_json`] output back to its event.
fn hb_event(e: &Json, interned: &mut HashMap<String, &'static str>) -> Result<HbEvent, String> {
    let num = |key: &str| e.u64_field(key);
    let num32 = |key: &str| {
        u32::try_from(num(key)?).map_err(|err| format!("field {key} out of range: {err}"))
    };
    let action = match e.str_field("action")? {
        "gmRead" => HbAction::GmRead {
            start: num("start")?,
            end: num("end")?,
        },
        "gmWrite" => HbAction::GmWrite {
            start: num("start")?,
            end: num("end")?,
        },
        "flagSet" => HbAction::FlagSet {
            id: num32("id")?,
            token: num("token")?,
        },
        "flagWait" => HbAction::FlagWait {
            id: num32("id")?,
            token: num("token")?,
        },
        "gridFlagSet" => HbAction::GridFlagSet {
            id: num32("id")?,
            token: num("token")?,
        },
        "gridFlagWait" => HbAction::GridFlagWait {
            id: num32("id")?,
            token: num("token")?,
        },
        "barrier" => HbAction::Barrier {
            round: num32("round")?,
        },
        "queueCreate" => HbAction::QueueCreate {
            queue: num32("queue")?,
        },
        "enque" => HbAction::Enque {
            queue: num32("queue")?,
        },
        "deque" => HbAction::Deque {
            queue: num32("queue")?,
        },
        "queueDestroy" => HbAction::QueueDestroy {
            queue: num32("queue")?,
        },
        "alloc" => HbAction::Alloc {
            id: num("id")?,
            bytes: num("bytes")?,
        },
        "free" => HbAction::Free { id: num("id")? },
        other => return Err(format!("unknown action {other:?}")),
    };
    let name = e.str_field("what")?;
    let what: &'static str = match interned.get(name) {
        Some(s) => s,
        None => {
            let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
            interned.insert(name.to_string(), leaked);
            leaked
        }
    };
    Ok(HbEvent {
        block: num32("block")?,
        core: num32("core")?,
        time: num("time")?,
        what,
        action,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One HbEvent per action kind — the round-trip corpus.
    fn every_action_kind() -> Vec<HbEvent> {
        let mk = |i: u32, what: &'static str, action: HbAction| HbEvent {
            block: i % 3,
            core: i % 2,
            time: u64::from(i) * 97,
            what,
            action,
        };
        vec![
            mk(0, "DataCopy", HbAction::GmRead { start: 0, end: 512 }),
            mk(
                1,
                "DataCopy",
                HbAction::GmWrite {
                    start: 1 << 33,
                    end: (1 << 33) + 64,
                },
            ),
            mk(
                2,
                "CrossCoreSetFlag",
                HbAction::FlagSet { id: 3, token: 41 },
            ),
            mk(
                3,
                "CrossCoreWaitFlag",
                HbAction::FlagWait { id: 3, token: 41 },
            ),
            mk(
                4,
                "GridSetFlag",
                HbAction::GridFlagSet {
                    id: 5,
                    token: u64::MAX,
                },
            ),
            mk(
                5,
                "GridWaitFlag",
                HbAction::GridFlagWait {
                    id: 5,
                    token: u64::MAX,
                },
            ),
            mk(4, "SyncAll", HbAction::Barrier { round: 2 }),
            mk(5, "qa(L0A)", HbAction::QueueCreate { queue: 7 }),
            mk(6, "qa(L0A)", HbAction::Enque { queue: 7 }),
            mk(7, "qa(L0A)", HbAction::Deque { queue: 7 }),
            mk(8, "qa(L0A)", HbAction::QueueDestroy { queue: 7 }),
            mk(
                9,
                "AllocLocal",
                HbAction::Alloc {
                    id: 123456789012345,
                    bytes: 65536,
                },
            ),
            mk(
                10,
                "FreeLocal",
                HbAction::Free {
                    id: 123456789012345,
                },
            ),
        ]
    }

    #[test]
    fn hb_events_round_trip_losslessly() {
        let events = every_action_kind();
        let json = hb_events_json(&events).to_string();
        let parsed = parse_hb_json(&json).unwrap();
        assert_eq!(parsed, events);
        // Embedded in a profile-style document under the schema key, the
        // same array still parses.
        let doc = Json::obj([
            ("traceEvents", Json::Arr(Vec::new())),
            ("schema", "ascend-trace/v1".into()),
            ("hbEvents", hb_events_json(&events)),
        ])
        .to_string();
        assert_eq!(parse_hb_json(&doc).unwrap(), events);
    }

    #[test]
    fn hb_round_trip_survives_hostile_names() {
        let hostile: &'static str = "q \"a\\b\"\n{evil]},\u{1}";
        let events = vec![
            HbEvent {
                block: 0,
                core: 1,
                time: 10,
                what: hostile,
                action: HbAction::Enque { queue: 0 },
            },
            HbEvent {
                block: 0,
                core: 1,
                time: 11,
                what: hostile,
                action: HbAction::Deque { queue: 0 },
            },
        ];
        let json = hb_events_json(&events).to_string();
        // No raw control characters escape into the document.
        assert!(!json.chars().any(|c| (c as u32) < 0x20));
        let parsed = parse_hb_json(&json).unwrap();
        assert_eq!(parsed, events);
        // Interning keeps repeated names pointer-identical.
        assert!(std::ptr::eq(parsed[0].what, parsed[1].what));
    }

    #[test]
    fn hb_parse_rejects_malformed_documents() {
        assert!(parse_hb_json("{\"no\":\"array\"}").is_err());
        assert!(parse_hb_json("[{\"block\":0").is_err());
        assert!(parse_hb_json(
            "[{\"block\":0,\"core\":0,\"time\":1,\"what\":\"x\",\"action\":\"warp\"}]"
        )
        .is_err());
        // Missing action fields.
        assert!(parse_hb_json(
            "[{\"block\":0,\"core\":0,\"time\":1,\"what\":\"x\",\"action\":\"gmRead\",\"start\":4}]"
        )
        .is_err());
        assert_eq!(parse_hb_json("[]").unwrap(), Vec::new());
    }

    #[test]
    fn hb_recorder_gates_and_harvests() {
        let off = HbRecorder::disabled();
        assert!(!off.is_enabled());
        off.record(5, "DataCopy", HbAction::GmRead { start: 0, end: 4 });
        assert!(off.take(0, 0).is_empty());

        let on = HbRecorder::enabled();
        assert!(on.is_enabled());
        let clone = on.clone();
        on.record(5, "DataCopy", HbAction::GmRead { start: 0, end: 4 });
        // A clone (e.g. held by a TQue) appends into the same
        // program-order stream.
        clone.record(9, "q", HbAction::Enque { queue: 1 });
        let got = on.take(3, 1);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].block, 3);
        assert_eq!(got[0].core, 1);
        assert_eq!(got[0].time, 5);
        assert_eq!(got[1].action, HbAction::Enque { queue: 1 });
        // take drains: both views now empty.
        assert!(clone.take(3, 1).is_empty());
    }
}

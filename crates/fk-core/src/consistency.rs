//! Validation of the consistency model (Appendix A/B).
//!
//! ZooKeeper's guarantees, restated as checks over recorded histories:
//!
//! * **Z1 Atomicity** — writes never leave partial results. Checked
//!   structurally: [`check_tree_integrity`] verifies that system storage,
//!   user storage and parent/child metadata agree.
//! * **Z2 Linearized writes** — a session's accepted updates receive
//!   strictly increasing txids in submission order.
//! * **Z3 Single system image** — committed txids are globally unique,
//!   and no client ever observes a node's version going backwards.
//! * **Z4 Ordered notifications** — a client never observes data from a
//!   transaction newer than an undelivered notification of one of its
//!   watches.
//!
//! Clients feed a shared [`HistoryRecorder`]; tests run the validators
//! after (or during) a workload.

use crate::system_store::{node_attr, SystemStore};
use crate::user_store::UserStore;
use fk_cloud::trace::Ctx;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One observed event, in a client session's local observation order.
#[derive(Debug, Clone, PartialEq)]
pub enum HEvent {
    /// A write was submitted (before queueing).
    WriteSubmitted {
        /// Session id.
        session: String,
        /// Request id (per-session monotonic).
        request_id: u64,
        /// Target path.
        path: String,
    },
    /// A write was acknowledged as committed.
    WriteCommitted {
        /// Session id.
        session: String,
        /// Request id.
        request_id: u64,
        /// Assigned transaction id.
        txid: u64,
    },
    /// A write failed (validation or system failure).
    WriteFailed {
        /// Session id.
        session: String,
        /// Request id.
        request_id: u64,
    },
    /// A read returned to the application.
    ReadReturned {
        /// Session id.
        session: String,
        /// Path read.
        path: String,
        /// The node's modification txid observed.
        modified_txid: u64,
        /// Epoch marks attached to the observed version.
        epoch_marks: Vec<u64>,
    },
    /// A read returned "no such node" to the application.
    ReadAbsent {
        /// Session id.
        session: String,
        /// Path read.
        path: String,
        /// The txid through which the absence is proven: the gate value
        /// of a read replica's proof from the parent's children list, or
        /// 0 for an absence read from storage or the read cache (which
        /// carry no proof).
        proven_txid: u64,
    },
    /// A watch notification was delivered to the application.
    WatchDelivered {
        /// Session id.
        session: String,
        /// Watch instance id.
        watch_id: u64,
        /// Triggering transaction.
        txid: u64,
    },
}

impl HEvent {
    fn session(&self) -> &str {
        match self {
            HEvent::WriteSubmitted { session, .. }
            | HEvent::WriteCommitted { session, .. }
            | HEvent::WriteFailed { session, .. }
            | HEvent::ReadReturned { session, .. }
            | HEvent::ReadAbsent { session, .. }
            | HEvent::WatchDelivered { session, .. } => session,
        }
    }
}

/// Thread-safe history sink. Cloning shares the sink.
#[derive(Clone, Default)]
pub struct HistoryRecorder {
    events: Arc<Mutex<Vec<(u64, HEvent)>>>,
    seq: Arc<AtomicU64>,
}

impl HistoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event, stamping the global observation order.
    pub fn record(&self, event: HEvent) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.events.lock().push((seq, event));
    }

    /// Snapshot of all events in observation order.
    pub fn events(&self) -> Vec<HEvent> {
        let mut events = self.events.lock().clone();
        events.sort_by_key(|(seq, _)| *seq);
        events.into_iter().map(|(_, e)| e).collect()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A consistency violation found by a validator.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which guarantee was violated.
    pub rule: &'static str,
    /// Human-readable description.
    pub detail: String,
}

/// Z2: per session, committed writes carry strictly increasing txids in
/// submission (request-id) order.
pub fn check_linearized_writes(events: &[HEvent]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut per_session: HashMap<&str, Vec<(u64, u64)>> = HashMap::new();
    for event in events {
        if let HEvent::WriteCommitted {
            session,
            request_id,
            txid,
        } = event
        {
            per_session
                .entry(session)
                .or_default()
                .push((*request_id, *txid));
        }
    }
    for (session, mut writes) in per_session {
        writes.sort_by_key(|(rid, _)| *rid);
        for pair in writes.windows(2) {
            let ((r1, t1), (r2, t2)) = (pair[0], pair[1]);
            if t2 <= t1 {
                violations.push(Violation {
                    rule: "Z2",
                    detail: format!(
                        "session {session}: request {r2} (txid {t2}) not after request {r1} (txid {t1})"
                    ),
                });
            }
        }
    }
    violations
}

/// Z3 (part 1): committed txids are globally unique.
pub fn check_unique_txids(events: &[HEvent]) -> Vec<Violation> {
    let mut seen: HashMap<u64, String> = HashMap::new();
    let mut violations = Vec::new();
    for event in events {
        if let HEvent::WriteCommitted { session, txid, .. } = event {
            if let Some(prev) = seen.insert(*txid, session.clone()) {
                violations.push(Violation {
                    rule: "Z3",
                    detail: format!("txid {txid} assigned to both {prev} and {session}"),
                });
            }
        }
    }
    violations
}

/// Z3 (part 2): per client and node, observed versions never regress —
/// "if a client observes node Z with version V, it cannot later see
/// version V' < V". An absence proven through txid `t`
/// ([`HEvent::ReadAbsent`]) is an observation too: no version of that
/// node existed at `t`, so a later read of it at `modified_txid ≤ t`
/// regresses.
pub fn check_monotonic_reads(events: &[HEvent]) -> Vec<Violation> {
    let mut last: HashMap<(String, String), u64> = HashMap::new();
    let mut absent: HashMap<(String, String), u64> = HashMap::new();
    let mut violations = Vec::new();
    for event in events {
        match event {
            HEvent::ReadReturned {
                session,
                path,
                modified_txid,
                ..
            } => {
                let key = (session.clone(), path.clone());
                let prev = last.get(&key).copied().unwrap_or(0);
                if *modified_txid < prev {
                    violations.push(Violation {
                        rule: "Z3",
                        detail: format!(
                            "session {session} read {path} at txid {modified_txid} after txid {prev}"
                        ),
                    });
                }
                if let Some(&proven) = absent.get(&key).filter(|&&t| *modified_txid <= t) {
                    violations.push(Violation {
                        rule: "Z3",
                        detail: format!(
                            "session {session} read {path} at txid {modified_txid} after its \
                             absence was proven through txid {proven}"
                        ),
                    });
                }
                last.insert(key, prev.max(*modified_txid));
            }
            HEvent::ReadAbsent {
                session,
                path,
                proven_txid,
            } if *proven_txid > 0 => {
                let proven = absent.entry((session.clone(), path.clone())).or_default();
                *proven = (*proven).max(*proven_txid);
            }
            _ => {}
        }
    }
    violations
}

/// Z4: in each session's observation order, once a watch (triggered by
/// txid `t`) is pending for this client, no read may return data from a
/// transaction newer than `t` before the notification is delivered.
///
/// The pending set is derived from epoch marks observed in reads: a read
/// carrying a mark for one of the session's own watches proves the
/// notification was outstanding at that point.
pub fn check_ordered_notifications(
    events: &[HEvent],
    own_watches: &HashMap<String, HashSet<u64>>,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    // Per session: watch_id -> trigger txid (from delivery events; the
    // delivery carries the triggering txid).
    let mut per_session: HashMap<&str, Vec<&HEvent>> = HashMap::new();
    for event in events {
        per_session.entry(event.session()).or_default().push(event);
    }
    for (session, events) in per_session {
        let Some(mine) = own_watches.get(session) else {
            continue;
        };
        let mut delivered: HashSet<u64> = HashSet::new();
        // txid of each delivered watch, learned on delivery.
        let mut trigger_txid: HashMap<u64, u64> = HashMap::new();
        for event in events {
            match event {
                HEvent::WatchDelivered { watch_id, txid, .. } => {
                    delivered.insert(*watch_id);
                    trigger_txid.insert(*watch_id, *txid);
                }
                HEvent::ReadReturned {
                    path,
                    modified_txid,
                    epoch_marks,
                    ..
                } => {
                    for mark in epoch_marks {
                        if mine.contains(mark) && !delivered.contains(mark) {
                            violations.push(Violation {
                                rule: "Z4",
                                detail: format!(
                                    "session {session} read {path} (txid {modified_txid}) while \
                                     own watch {mark} was pending and undelivered"
                                ),
                            });
                        }
                    }
                    // Also: any delivered watch with trigger txid t must
                    // have been delivered before data newer than t — by
                    // construction of observation order this is implied by
                    // the mark check above; keep the explicit check for
                    // deliveries we know about.
                    for (watch, t) in &trigger_txid {
                        if *modified_txid > *t && !delivered.contains(watch) {
                            violations.push(Violation {
                                rule: "Z4",
                                detail: format!(
                                    "session {session} observed txid {modified_txid} before \
                                     delivery of watch {watch} triggered at {t}"
                                ),
                            });
                        }
                    }
                }
                _ => {}
            }
        }
    }
    violations
}

/// Runs all history validators.
pub fn check_history(
    events: &[HEvent],
    own_watches: &HashMap<String, HashSet<u64>>,
) -> Vec<Violation> {
    let mut violations = check_linearized_writes(events);
    violations.extend(check_unique_txids(events));
    violations.extend(check_monotonic_reads(events));
    violations.extend(check_ordered_notifications(events, own_watches));
    violations
}

/// Z1: structural integrity between system storage and a user store —
/// every existing node is present in the user store, every parent lists
/// exactly its children, and no orphaned records remain once all pending
/// transactions have drained.
///
/// System storage keeps no children names on a parent's item: a node's
/// children there are the live `node:` items whose parent it is. A
/// quiescent node's user-store list must be exactly that set, its child
/// count ([`node_attr::NUM_CHILDREN`]) its size, and its pending
/// children log ([`node_attr::PENDING_CHILDREN`]) empty: every change
/// the log held has been folded into the list and popped.
pub fn check_tree_integrity(
    ctx: &Ctx,
    system: &SystemStore,
    user: &dyn UserStore,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut nodes: BTreeMap<String, fk_cloud::Item> = BTreeMap::new();
    for (key, item) in system.kv().scan_prefix(ctx, "") {
        if let Some(path) = key.strip_prefix("node:") {
            if SystemStore::node_exists(Some(&item)) {
                nodes.insert(path.to_owned(), item);
            }
        }
    }
    let mut children: HashMap<&str, HashSet<String>> = HashMap::new();
    for path in nodes.keys() {
        if let Some(parent) = crate::path::parent(path) {
            let name = crate::path::basename(path).to_owned();
            children.entry(parent).or_default().insert(name);
        }
    }
    let none = HashSet::new();
    for (path, item) in &nodes {
        let pending = item
            .list(node_attr::TXQ)
            .map(|q| !q.is_empty())
            .unwrap_or(false);
        if pending {
            // In-flight transactions may legitimately differ; integrity is
            // defined over quiescent state.
            continue;
        }
        if let Some(parent) = crate::path::parent(path).filter(|p| !nodes.contains_key(*p)) {
            violations.push(Violation {
                rule: "Z1",
                detail: format!("{path} exists under missing parent {parent}"),
            });
        }
        let sys_children = children.get(path.as_str()).unwrap_or(&none);
        let count = item.num(node_attr::NUM_CHILDREN).unwrap_or(0);
        if count != sys_children.len() as i64 {
            violations.push(Violation {
                rule: "Z1",
                detail: format!(
                    "{path}: child count {count}, but {} children in system storage",
                    sys_children.len()
                ),
            });
        }
        let logged = item.list(node_attr::PENDING_CHILDREN).unwrap_or_default();
        if !logged.is_empty() {
            violations.push(Violation {
                rule: "Z1",
                detail: format!(
                    "{path}: {} pending children-log entries at quiescence",
                    logged.len()
                ),
            });
        }
        // Verification reads absorb transient store errors (throttles,
        // injected chaos) with a bounded retry; only a persistent
        // failure counts as a violation.
        let mut read = user.read_node(ctx, path);
        for _ in 0..16 {
            if read.is_ok() {
                break;
            }
            read = user.read_node(ctx, path);
        }
        let record = match read {
            Ok(Some(rec)) => rec,
            Ok(None) => {
                violations.push(Violation {
                    rule: "Z1",
                    detail: format!("{path} exists in system storage but not in user storage"),
                });
                continue;
            }
            Err(e) => {
                violations.push(Violation {
                    rule: "Z1",
                    detail: format!("{path}: user storage error {e}"),
                });
                continue;
            }
        };
        // Children agreement (ignoring order).
        let user_children: HashSet<String> = record.children.iter().cloned().collect();
        if *sys_children != user_children {
            violations.push(Violation {
                rule: "Z1",
                detail: format!(
                    "{path}: children diverge (system {sys_children:?} vs user {user_children:?})"
                ),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(session: &str, rid: u64, txid: u64) -> HEvent {
        HEvent::WriteCommitted {
            session: session.into(),
            request_id: rid,
            txid,
        }
    }

    fn read(session: &str, path: &str, txid: u64, marks: Vec<u64>) -> HEvent {
        HEvent::ReadReturned {
            session: session.into(),
            path: path.into(),
            modified_txid: txid,
            epoch_marks: marks,
        }
    }

    #[test]
    fn z2_accepts_increasing_txids() {
        let events = vec![
            committed("s", 1, 10),
            committed("s", 2, 11),
            committed("s", 3, 20),
        ];
        assert!(check_linearized_writes(&events).is_empty());
    }

    #[test]
    fn z2_rejects_reordered_txids() {
        let events = vec![committed("s", 1, 10), committed("s", 2, 9)];
        let violations = check_linearized_writes(&events);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "Z2");
    }

    #[test]
    fn z2_is_per_session() {
        // Cross-session ordering is explicitly undefined (Appendix A).
        let events = vec![committed("a", 1, 10), committed("b", 1, 5)];
        assert!(check_linearized_writes(&events).is_empty());
    }

    #[test]
    fn z3_rejects_duplicate_txids() {
        let events = vec![committed("a", 1, 10), committed("b", 1, 10)];
        let violations = check_unique_txids(&events);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "Z3");
    }

    #[test]
    fn z3_rejects_version_regression() {
        let events = vec![read("s", "/n", 10, vec![]), read("s", "/n", 8, vec![])];
        let violations = check_monotonic_reads(&events);
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn z3_accepts_monotone_reads_across_paths() {
        let events = vec![
            read("s", "/a", 10, vec![]),
            read("s", "/b", 3, vec![]), // different node: fine
            read("s", "/a", 10, vec![]),
            read("s", "/a", 12, vec![]),
        ];
        assert!(check_monotonic_reads(&events).is_empty());
    }

    fn absent(session: &str, path: &str, proven_txid: u64) -> HEvent {
        HEvent::ReadAbsent {
            session: session.into(),
            path: path.into(),
            proven_txid,
        }
    }

    #[test]
    fn z3_rejects_a_version_at_or_below_a_proven_absence() {
        let events = vec![absent("s", "/n", 10), read("s", "/n", 10, vec![])];
        let violations = check_monotonic_reads(&events);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "Z3");
    }

    #[test]
    fn z3_accepts_a_recreate_after_a_proven_absence() {
        let events = vec![
            // Unproven (storage) absence, another session's proof, and a
            // version created after the proof: all fine.
            absent("s", "/n", 0),
            read("s", "/n", 3, vec![]),
            absent("t", "/n", 10),
            absent("s", "/n", 10),
            read("s", "/n", 11, vec![]),
            read("s", "/m", 4, vec![]),
        ];
        assert!(check_monotonic_reads(&events).is_empty());
    }

    #[test]
    fn z4_rejects_read_past_pending_own_watch() {
        let mut own = HashMap::new();
        own.insert("s".to_owned(), HashSet::from([7u64]));
        let events = vec![read("s", "/n", 12, vec![7])];
        let violations = check_ordered_notifications(&events, &own);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "Z4");
    }

    #[test]
    fn z4_accepts_read_after_delivery() {
        let mut own = HashMap::new();
        own.insert("s".to_owned(), HashSet::from([7u64]));
        let events = vec![
            HEvent::WatchDelivered {
                session: "s".into(),
                watch_id: 7,
                txid: 10,
            },
            read("s", "/n", 12, vec![7]),
        ];
        assert!(check_ordered_notifications(&events, &own).is_empty());
    }

    #[test]
    fn z4_ignores_other_clients_watches() {
        let mut own = HashMap::new();
        own.insert("s".to_owned(), HashSet::from([99u64]));
        // Mark 7 belongs to someone else; no stall required.
        let events = vec![read("s", "/n", 12, vec![7])];
        assert!(check_ordered_notifications(&events, &own).is_empty());
    }

    #[test]
    fn recorder_preserves_order() {
        let rec = HistoryRecorder::new();
        rec.record(committed("s", 1, 1));
        rec.record(committed("s", 2, 2));
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            &events[0],
            HEvent::WriteCommitted { request_id: 1, .. }
        ));
        assert!(!rec.is_empty());
    }

    /// A quiescent tree: `/` and `/a` in system storage and in a user
    /// store, `/` with child count 1 and an empty pending children log.
    /// `tamper` edits `/`'s item first.
    fn z1_of(tamper: fk_cloud::expr::Update) -> Vec<Violation> {
        use crate::system_store::keys;
        use crate::user_store::{NodeRecord, UserStore};
        use fk_cloud::{Condition, Item, KvStore, MemStore, Meter, Region};
        let ctx = Ctx::disabled();
        let system = SystemStore::new(KvStore::new("sys", Region::US_EAST_1, Meter::new()));
        let user = MemStore::new(Region::US_EAST_1, Meter::new());
        for (path, children) in [("/", vec!["a".to_owned()]), ("/a", vec![])] {
            let item = Item::new()
                .with(node_attr::CREATED, 1i64)
                .with(node_attr::NUM_CHILDREN, children.len() as i64)
                .with(node_attr::PENDING_CHILDREN, Vec::<fk_cloud::Value>::new());
            let key = keys::node(path);
            system
                .kv()
                .put(&ctx, &key, item, Condition::Always)
                .unwrap();
            let record = NodeRecord {
                path: path.into(),
                data: Default::default(),
                created_txid: 1,
                modified_txid: 1,
                version: 0,
                children: Arc::new(children),
                children_txid: 1,
                ephemeral_owner: None,
                epoch_marks: Arc::default(),
            };
            user.write_node(&ctx, &record).unwrap();
        }
        let root = keys::node("/");
        system
            .kv()
            .update(&ctx, &root, &tamper, Condition::Always)
            .unwrap();
        check_tree_integrity(&ctx, &system, &user)
    }

    /// Z1 takes a node's children from the live items below it: a child
    /// count that disagrees with them and a pending children-log entry
    /// left at quiescence are both reported.
    #[test]
    fn z1_reports_a_wrong_child_count_and_a_leftover_log_entry() {
        use crate::system_store::ChildEntry;
        use fk_cloud::expr::Update;
        assert!(z1_of(Update::new()).is_empty());
        let wrong = z1_of(Update::new().set(node_attr::NUM_CHILDREN, 2i64));
        assert_eq!(wrong.len(), 1, "{wrong:?}");
        assert!(wrong[0].detail.contains("child count 2"), "{wrong:?}");
        let entry = ChildEntry {
            txid: 7,
            name: "b".into(),
            added: true,
        };
        let leftover =
            Update::new().list_append(node_attr::PENDING_CHILDREN, vec![entry.to_value()]);
        let leftover = z1_of(leftover);
        assert_eq!(leftover.len(), 1, "{leftover:?}");
        assert!(
            leftover[0].detail.contains("pending children-log"),
            "{leftover:?}"
        );
    }

    #[test]
    fn full_history_check_composes() {
        let events = vec![
            HEvent::WriteSubmitted {
                session: "s".into(),
                request_id: 1,
                path: "/n".into(),
            },
            committed("s", 1, 10),
            read("s", "/n", 10, vec![]),
        ];
        assert!(check_history(&events, &HashMap::new()).is_empty());
    }
}

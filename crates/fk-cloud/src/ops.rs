//! Operation taxonomy for latency sampling and metering.
//!
//! Every simulated cloud operation is tagged with an [`Op`]; the latency
//! model maps the tag (plus payload size, caller region and execution
//! environment) to a sampled duration, and the meter maps it to billing
//! units. Keeping the taxonomy in one place ensures the benchmark harness,
//! the cost model and the services agree on what was executed.
//!
//! A key-value read is one tag, [`Op::KvGet`]: system storage serves
//! only strongly consistent reads (§2.1). Its label stays
//! `kv_get_strong`, so calibration tables and traces keep their names.

/// Queue service flavour (Figure 7 compares these head-to-head).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// SQS FIFO: ordered per message group, batch ≤ 10, lowest latency in
    /// the paper's measurements (Table 7a).
    Fifo,
    /// SQS standard: unordered, long batching under load, bursty.
    Standard,
    /// DynamoDB-Streams-like: shard polling, highest latency (~240 ms p50).
    Stream,
    /// GCP Pub/Sub without ordering keys.
    PubSub,
    /// GCP Pub/Sub with ordering keys (FIFO); adds >170 ms overhead
    /// (Table 7c).
    PubSubOrdered,
}

impl QueueKind {
    /// Whether this queue preserves FIFO order within a message group.
    pub fn is_fifo(self) -> bool {
        matches!(
            self,
            QueueKind::Fifo | QueueKind::Stream | QueueKind::PubSubOrdered
        )
    }

    /// Maximum receive batch size (SQS FIFO restricts batches to 10).
    pub fn max_batch(self) -> usize {
        match self {
            QueueKind::Fifo => 10,
            QueueKind::Standard => 10_000,
            QueueKind::Stream => 1_000,
            QueueKind::PubSub | QueueKind::PubSubOrdered => 1_000,
        }
    }
}

/// A simulated cloud operation, used as the latency/metering key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Key-value store read. Always strongly consistent: system storage
    /// serves no other read mode (§2.1).
    KvGet,
    /// Key-value store blind put.
    KvPut,
    /// Key-value store update expression; `conditional` adds the
    /// condition-evaluation overhead measured in Table 6a (~2.5 ms).
    KvUpdate {
        /// Whether a condition expression guards the update.
        conditional: bool,
    },
    /// Key-value store delete.
    KvDelete,
    /// Multi-item transactional write (GCP Datastore-style primitives).
    KvTransact,
    /// Full-table scan (heartbeat function lists sessions this way).
    KvScan,
    /// Object store GET (whole object).
    ObjGet,
    /// Object store PUT (whole object; no partial updates, §4.1/R6).
    ObjPut,
    /// Object store DELETE.
    ObjDelete,
    /// In-memory cache read (Redis-like user-store variant, Fig 8).
    MemGet,
    /// In-memory cache write.
    MemPut,
    /// Enqueue a message.
    QueueSend(QueueKind),
    /// Queue-to-function delivery overhead (trigger dispatch + batching).
    QueueDispatch(QueueKind),
    /// Synchronous "free function" invocation over the cloud API gateway.
    FnInvokeDirect,
    /// Sandbox allocation on a cold invocation.
    FnColdStart,
    /// Fixed per-invocation runtime overhead of a warm sandbox.
    FnWarmOverhead,
    /// CPU-bound work inside a function (serialization, base64, sorting);
    /// scaled by the sandbox's CPU allocation.
    FnCompute,
    /// TCP reply from a function back to the client (the paper measures
    /// 864 µs median for a cached connection).
    TcpReply,
    /// Heartbeat ping round-trip to a client.
    Ping,
    /// Client-side processing (deserialize, sort results, watch checks —
    /// 1.9–2.5 % overhead per §5.3.1).
    ClientWork,
}

impl Op {
    /// Short label used in span breakdowns and reports.
    pub fn label(self) -> &'static str {
        match self {
            Op::KvGet => "kv_get_strong",
            Op::KvPut => "kv_put",
            Op::KvUpdate { conditional: true } => "kv_update_cond",
            Op::KvUpdate { conditional: false } => "kv_update",
            Op::KvDelete => "kv_delete",
            Op::KvTransact => "kv_transact",
            Op::KvScan => "kv_scan",
            Op::ObjGet => "obj_get",
            Op::ObjPut => "obj_put",
            Op::ObjDelete => "obj_delete",
            Op::MemGet => "mem_get",
            Op::MemPut => "mem_put",
            Op::QueueSend(QueueKind::Fifo) => "queue_send_fifo",
            Op::QueueSend(QueueKind::Standard) => "queue_send_std",
            Op::QueueSend(QueueKind::Stream) => "queue_send_stream",
            Op::QueueSend(QueueKind::PubSub) => "queue_send_pubsub",
            Op::QueueSend(QueueKind::PubSubOrdered) => "queue_send_pubsub_fifo",
            Op::QueueDispatch(QueueKind::Fifo) => "queue_dispatch_fifo",
            Op::QueueDispatch(QueueKind::Standard) => "queue_dispatch_std",
            Op::QueueDispatch(QueueKind::Stream) => "queue_dispatch_stream",
            Op::QueueDispatch(QueueKind::PubSub) => "queue_dispatch_pubsub",
            Op::QueueDispatch(QueueKind::PubSubOrdered) => "queue_dispatch_pubsub_fifo",
            Op::FnInvokeDirect => "fn_invoke_direct",
            Op::FnColdStart => "fn_cold_start",
            Op::FnWarmOverhead => "fn_warm_overhead",
            Op::FnCompute => "fn_compute",
            Op::TcpReply => "tcp_reply",
            Op::Ping => "ping",
            Op::ClientWork => "client_work",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_classification() {
        assert!(QueueKind::Fifo.is_fifo());
        assert!(QueueKind::Stream.is_fifo());
        assert!(QueueKind::PubSubOrdered.is_fifo());
        assert!(!QueueKind::Standard.is_fifo());
        assert!(!QueueKind::PubSub.is_fifo());
    }

    #[test]
    fn fifo_batch_limit_is_ten() {
        assert_eq!(QueueKind::Fifo.max_batch(), 10);
        assert!(QueueKind::Standard.max_batch() > 10);
    }

    #[test]
    fn labels_are_distinct_for_variants() {
        assert_ne!(
            Op::KvUpdate { conditional: true }.label(),
            Op::KvUpdate { conditional: false }.label()
        );
        assert_ne!(
            Op::QueueSend(QueueKind::Fifo).label(),
            Op::QueueSend(QueueKind::Standard).label()
        );
    }
}

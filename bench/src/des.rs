//! DES direct drive: the harness is the cloud's scheduler.
//!
//! The follower tier is elastic (FaaS scales out), so a session's
//! follower invocation starts the instant its messages are sent and the
//! session's previous invocation has returned. The leader tier is the
//! serial resource: each shard group is one lane with a persistent
//! virtual clock that only advances by processing. A lane picks up the
//! records that are ready at its start instant, so when load exceeds
//! lane capacity a backlog builds in the real leader queue and modeled
//! latency grows. A lane whose head record waits for a predecessor in
//! another lane is parked until another lane completes a record.
//!
//! Everything runs on one thread and on virtual time, so the modeled
//! metrics are a pure function of the seed.

use crate::adapter::{Clock, Outcome, PhaseTime, Tier, WriteSpec, LANE_BATCH};
use crate::trace::{ClockKind, Tracer, HOPS};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

/// One write on its way through the pipeline.
struct Flight {
    due_ns: u64,
    sent_ns: u64,
    follower_start_ns: u64,
    follower_end_ns: u64,
}

/// A write the leader tier completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completed {
    pub session: usize,
    pub request_id: u64,
    pub due_ns: u64,
    pub done_ns: u64,
}

struct SessionState {
    name: String,
    next_request: u64,
    /// Requests sent but not yet through a follower, oldest first.
    queued: VecDeque<u64>,
    follower_free_ns: u64,
}

struct Lane {
    clock: Clock,
    busy_until_ns: u64,
    /// Ready instants of the records in the lane's queue, in queue
    /// order.
    ready: VecDeque<u64>,
    parked: bool,
}

/// Sums of the program's phase labels, per function.
#[derive(Debug, Default)]
pub struct PhaseSums(pub BTreeMap<String, u64>);

impl PhaseSums {
    fn add(&mut self, phases: &[PhaseTime]) {
        for phase in phases {
            *self.0.entry(phase.label.clone()).or_insert(0) += phase.covered_ns;
        }
    }

    pub fn get(&self, label: &str) -> u64 {
        self.0.get(label).copied().unwrap_or(0)
    }
}

/// Counts and times taken at the layer boundaries of the write path.
#[derive(Debug, Default)]
pub struct WriteLayers {
    pub submits: u64,
    pub submit_host: Duration,
    pub request_bytes: u64,
    pub follower_invocations: u64,
    pub follower_msgs: u64,
    pub follower_host: Duration,
    pub follower_vns: u64,
    pub follower_failed_msgs: u64,
    pub follower_deferred_msgs: u64,
    pub follower_phases: PhaseSums,
    pub leader_invocations: u64,
    pub leader_delivered: u64,
    pub leader_completed: u64,
    pub leader_host: Duration,
    pub leader_vns: u64,
    pub leader_deferrals: u64,
    pub leader_failures: u64,
    pub leader_deferred_host: Duration,
    pub leader_phases: PhaseSums,
    pub queue_host: Duration,
    pub write_wait_ns: Vec<u64>,
    pub leader_wait_ns: Vec<u64>,
}

/// The scheduler: sessions, the write queue, the lanes.
pub struct Engine {
    pub tier: Tier,
    lanes: Vec<Lane>,
    sessions: Vec<SessionState>,
    index: HashMap<String, usize>,
    flights: HashMap<(usize, u64), Flight>,
    clocks_made: u64,
    pub layers: WriteLayers,
    pub tracer: Option<Tracer>,
    epoch: Instant,
}

impl Engine {
    pub fn new(tier: Tier, traced: bool) -> Engine {
        let lanes = (0..tier.lanes())
            .map(|g| Lane {
                clock: tier.clock(0x1A7E_0000 + g as u64),
                busy_until_ns: 0,
                ready: VecDeque::new(),
                parked: false,
            })
            .collect();
        Engine {
            tier,
            lanes,
            sessions: Vec::new(),
            index: HashMap::new(),
            flights: HashMap::new(),
            clocks_made: 0,
            layers: WriteLayers::default(),
            tracer: traced.then(Tracer::new),
            epoch: Instant::now(),
        }
    }

    /// A fresh clock at `at_ns`, with its own latency stream.
    pub fn clock_at(&mut self, at_ns: u64) -> Clock {
        self.clocks_made += 1;
        let clock = self.tier.clock(0xC10C_0000_0000 + self.clocks_made);
        clock.advance_to(at_ns);
        clock
    }

    /// Registers a session in the system store; returns its index.
    pub fn add_session(&mut self, name: &str) -> usize {
        let clock = self.clock_at(0);
        self.tier.register_session(&clock, name);
        let index = self.sessions.len();
        self.sessions.push(SessionState {
            name: name.to_owned(),
            next_request: 1,
            queued: VecDeque::new(),
            follower_free_ns: 0,
        });
        self.index.insert(name.to_owned(), index);
        index
    }

    pub fn session_name(&self, session: usize) -> &str {
        &self.sessions[session].name
    }

    /// Writes sent and not yet completed.
    pub fn in_flight(&self) -> usize {
        self.flights.len()
    }

    /// The latest instant any lane is busy until.
    pub fn lanes_busy_until(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.busy_until_ns)
            .max()
            .unwrap_or(0)
    }

    /// The client side of one write, due at `due_ns`, followed by the
    /// session's follower invocations. Returns the request id.
    pub fn issue(&mut self, session: usize, due_ns: u64, spec: &WriteSpec) -> u64 {
        let request_id = self.send(session, due_ns, spec);
        self.run_followers();
        request_id
    }

    /// The client side only: encode and enqueue. The caller runs the
    /// followers once every write due at this instant is sent, so that a
    /// session's writes reach its follower as one batch.
    pub fn send(&mut self, session: usize, due_ns: u64, spec: &WriteSpec) -> u64 {
        let clock = self.clock_at(due_ns);
        let state = &mut self.sessions[session];
        let request_id = state.next_request;
        state.next_request += 1;
        let (bytes, host) = self.tier.submit(&clock, &state.name, request_id, spec);
        clock.drop_spans();
        state.queued.push_back(request_id);
        self.layers.submits += 1;
        self.layers.submit_host += host;
        self.layers.request_bytes += bytes as u64;
        self.flights.insert(
            (session, request_id),
            Flight {
                due_ns,
                sent_ns: clock.now_ns(),
                follower_start_ns: 0,
                follower_end_ns: 0,
            },
        );
        request_id
    }

    /// Drains the write queue through the follower, one invocation per
    /// received batch.
    pub fn run_followers(&mut self) {
        while let Some(batch) = self.tier.receive_writes() {
            let session = self.index[batch.session()];
            let n = batch.messages();
            let start_ns = {
                let state = &self.sessions[session];
                let last_sent = state
                    .queued
                    .iter()
                    .take(n)
                    .map(|id| self.flights[&(session, *id)].sent_ns)
                    .max()
                    .unwrap_or(0);
                last_sent.max(state.follower_free_ns)
            };
            let clock = self.clock_at(start_ns);
            let host_start = self.epoch.elapsed();
            let run = self.tier.run_follower(&clock, batch);
            let processed = run.outcome.processed(n);
            let phases = self.drain(&clock);
            self.layers.follower_phases.add(&phases);
            let state = &self.sessions[session];
            trace_invocation(
                &mut self.tracer,
                "follower",
                (&state.name, state.queued[0]),
                (run.start_ns, run.end_ns),
                (host_start, run.host_fn),
                &phases,
            );
            let layers = &mut self.layers;
            layers.follower_invocations += 1;
            layers.follower_msgs += n as u64;
            layers.follower_host += run.host_fn;
            layers.follower_vns += run.end_ns - run.start_ns;
            layers.queue_host += run.host_queue;
            match run.outcome {
                Outcome::Done => {}
                Outcome::Deferred(_) => layers.follower_deferred_msgs += (n - processed) as u64,
                Outcome::Failed(_) => layers.follower_failed_msgs += (n - processed) as u64,
            }
            let state = &mut self.sessions[session];
            state.follower_free_ns = run.end_ns;
            for _ in 0..processed {
                let request_id = state.queued.pop_front().expect("queued request");
                if let Some(flight) = self.flights.get_mut(&(session, request_id)) {
                    flight.follower_start_ns = run.start_ns;
                    flight.follower_end_ns = run.end_ns;
                    self.layers
                        .write_wait_ns
                        .push(run.start_ns.saturating_sub(flight.sent_ns));
                }
            }
            // The invocation's pushes become visible to their lanes when
            // it returns.
            for (g, lane) in self.lanes.iter_mut().enumerate() {
                let pending = self.tier.lane_pending(g);
                while lane.ready.len() < pending {
                    lane.ready.push_back(run.end_ns);
                }
            }
        }
    }

    /// The lane that starts next and its start instant.
    pub fn next_lane_start(&self) -> Option<(u64, usize)> {
        self.lanes
            .iter()
            .enumerate()
            .filter(|(_, lane)| !lane.parked && !lane.ready.is_empty())
            .map(|(g, lane)| (lane.busy_until_ns.max(lane.ready[0]), g))
            .min()
    }

    /// Runs every lane invocation that starts at or before `until_ns`,
    /// in start order.
    pub fn advance_lanes(&mut self, until_ns: u64, done: &mut Vec<Completed>) {
        while let Some((start_ns, _)) = self.next_lane_start() {
            if start_ns > until_ns {
                break;
            }
            self.step_lane(done);
        }
    }

    /// Runs the lanes until their queues are empty.
    pub fn drain_lanes(&mut self, done: &mut Vec<Completed>) {
        self.advance_lanes(u64::MAX, done);
    }

    /// Runs the one lane invocation that starts next; there must be one
    /// (see [`Engine::next_lane_start`]).
    pub fn step_lane(&mut self, done: &mut Vec<Completed>) {
        let (start_ns, g) = self.next_lane_start().expect("a lane that can start");
        let ready_now = self.lanes[g]
            .ready
            .iter()
            .take(LANE_BATCH)
            .take_while(|ready| **ready <= start_ns)
            .count();
        self.lanes[g].clock.advance_to(start_ns);
        let host_start = self.epoch.elapsed();
        let (records, run) = self
            .tier
            .invoke_leader(g, &self.lanes[g].clock, ready_now)
            .expect("a lane with ready records has a deliverable batch");
        let n = records.len();
        let processed = run.outcome.processed(n);
        let phases = self.drain(&self.lanes[g].clock);
        self.layers.leader_phases.add(&phases);
        let first = &records[0];
        trace_invocation(
            &mut self.tracer,
            "leader",
            (&first.session, first.request_id),
            (run.start_ns, run.end_ns),
            (host_start, run.host_fn),
            &phases,
        );
        let layers = &mut self.layers;
        layers.leader_invocations += 1;
        layers.leader_delivered += n as u64;
        layers.leader_completed += processed as u64;
        layers.leader_host += run.host_fn;
        layers.leader_vns += run.end_ns - run.start_ns;
        layers.queue_host += run.host_queue;
        let lane = &mut self.lanes[g];
        lane.busy_until_ns = run.end_ns;
        lane.ready.drain(..processed);
        match run.outcome {
            Outcome::Done => {}
            Outcome::Deferred(_) => {
                layers.leader_deferrals += 1;
                layers.leader_deferred_host += run.host_fn;
                lane.parked = true;
            }
            Outcome::Failed(_) => layers.leader_failures += 1,
        }
        if processed > 0 {
            // Progress here is what a parked lane waits for.
            for (other, lane) in self.lanes.iter_mut().enumerate() {
                if other != g && lane.parked {
                    lane.parked = false;
                    lane.busy_until_ns = lane.busy_until_ns.max(run.end_ns);
                }
            }
        }
        for record in &records[..processed] {
            let session = self.index[&record.session];
            let Some(flight) = self.flights.remove(&(session, record.request_id)) else {
                // A redelivered record the lane already completed.
                continue;
            };
            self.layers
                .leader_wait_ns
                .push(run.start_ns.saturating_sub(flight.follower_end_ns));
            if let Some(tracer) = &mut self.tracer {
                let request = (tracer.session(&record.session), record.request_id);
                let root = tracer.span(
                    0,
                    request,
                    "write",
                    ClockKind::Virtual,
                    flight.due_ns,
                    run.end_ns,
                );
                let edges = [
                    flight.due_ns,
                    flight.sent_ns,
                    flight.follower_start_ns,
                    flight.follower_end_ns,
                    run.start_ns,
                    run.end_ns,
                ];
                for (hop, edge) in HOPS.iter().zip(edges.windows(2)) {
                    tracer.span(root, request, *hop, ClockKind::Virtual, edge[0], edge[1]);
                }
            }
            done.push(Completed {
                session,
                request_id: record.request_id,
                due_ns: flight.due_ns,
                done_ns: run.end_ns,
            });
        }
    }

    /// Ends an invocation on `clock`: the charge records it appended
    /// are aggregated on a traced run and dropped otherwise.
    fn drain(&self, clock: &Clock) -> Vec<PhaseTime> {
        if self.tracer.is_some() {
            clock.drain_phases()
        } else {
            clock.drop_spans();
            Vec::new()
        }
    }
}

/// Records one function invocation on a traced run: its virtual
/// extent, with its host extent and the program's phase labels as
/// children. `request` is the first request of the batch it served;
/// the batch's `follower` / `leader` hop spans share its extent.
fn trace_invocation(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    request: (&str, u64),
    virtual_ns: (u64, u64),
    host: (Duration, Duration),
    phases: &[PhaseTime],
) {
    let Some(tracer) = tracer else {
        return;
    };
    let request = (tracer.session(request.0), request.1);
    let id = tracer.span(
        0,
        request,
        format!("{name}.invocation"),
        ClockKind::Virtual,
        virtual_ns.0,
        virtual_ns.1,
    );
    let host_start = host.0.as_nanos() as u64;
    tracer.span(
        id,
        request,
        format!("{name}.host"),
        ClockKind::Host,
        host_start,
        host_start + host.1.as_nanos() as u64,
    );
    for phase in phases {
        tracer.span(
            id,
            request,
            phase.label.clone(),
            ClockKind::Virtual,
            phase.start_ns,
            phase.end_ns,
        );
    }
}

//! Minimal discrete-event simulator: a deterministic event loop over a
//! user state (events at one instant run in schedule order). The
//! leader's multi-lane hold-back convergence test
//! (`leader::tests::multi_leader_holdback_always_converges_in_des`)
//! schedules its lanes on it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in nanoseconds.
pub type SimTime = u64;

/// An event callback. Receives the user state and the scheduler.
pub type EventFn<S> = Box<dyn FnOnce(&mut S, &mut Scheduler<S>)>;

struct ScheduledEvent<S> {
    time: SimTime,
    action: EventFn<S>,
}

/// The scheduler half of the simulator: schedules future events.
pub struct Scheduler<S> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    pending: Vec<Option<ScheduledEvent<S>>>,
    free_slots: Vec<usize>,
    slot_of: std::collections::HashMap<(SimTime, u64), usize>,
}

impl<S> Scheduler<S> {
    fn new() -> Self {
        Scheduler {
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            pending: Vec::new(),
            free_slots: Vec::new(),
            slot_of: std::collections::HashMap::new(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `action` to run `delay` ns from now.
    pub fn schedule(
        &mut self,
        delay: SimTime,
        action: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) {
        let time = self.now + delay;
        let seq = self.seq;
        self.seq += 1;
        let ev = ScheduledEvent {
            time,
            action: Box::new(action),
        };
        let slot = if let Some(slot) = self.free_slots.pop() {
            self.pending[slot] = Some(ev);
            slot
        } else {
            self.pending.push(Some(ev));
            self.pending.len() - 1
        };
        self.slot_of.insert((time, seq), slot);
        self.heap.push(Reverse((time, seq)));
    }

    fn pop(&mut self) -> Option<ScheduledEvent<S>> {
        let Reverse(key) = self.heap.pop()?;
        let slot = self.slot_of.remove(&key).expect("scheduled event present");
        let ev = self.pending[slot].take().expect("event slot filled");
        self.free_slots.push(slot);
        self.now = ev.time;
        Some(ev)
    }
}

/// Runs the simulation until `until` (ns) or event exhaustion; returns the
/// final state.
pub fn run<S>(mut state: S, until: SimTime, init: impl FnOnce(&mut S, &mut Scheduler<S>)) -> S {
    let mut sched = Scheduler::new();
    init(&mut state, &mut sched);
    while let Some(ev) = sched.pop() {
        if ev.time > until {
            break;
        }
        (ev.action)(&mut state, &mut sched);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let order = run(Vec::new(), u64::MAX, |_state, sched| {
            sched.schedule(300, |s: &mut Vec<u32>, _| s.push(3));
            sched.schedule(100, |s: &mut Vec<u32>, _| s.push(1));
            sched.schedule(200, |s: &mut Vec<u32>, _| s.push(2));
        });
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_events_run_in_schedule_order() {
        let order = run(Vec::new(), u64::MAX, |_state, sched| {
            sched.schedule(100, |s: &mut Vec<u32>, _| s.push(1));
            sched.schedule(100, |s: &mut Vec<u32>, _| s.push(2));
        });
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn chained_scheduling_advances_clock() {
        let times = run(Vec::new(), u64::MAX, |_state, sched| {
            sched.schedule(50, |s: &mut Vec<u64>, sched| {
                s.push(sched.now());
                sched.schedule(25, |s: &mut Vec<u64>, sched| s.push(sched.now()));
            });
        });
        assert_eq!(times, vec![50, 75]);
    }

    #[test]
    fn run_until_cuts_off_late_events() {
        let order = run(Vec::new(), 150, |_state, sched| {
            sched.schedule(100, |s: &mut Vec<u32>, _| s.push(1));
            sched.schedule(200, |s: &mut Vec<u32>, _| s.push(2));
        });
        assert_eq!(order, vec![1]);
    }
}

//! The scheduling policy: who is served next, who is admitted, who is shed
//! — as functions over plain data. Nothing here locks, blocks, spawns or
//! reads a clock (`now` is always an argument), so every decision can be
//! unit-tested, and later enumerated by a simulator, without an engine.
//!
//! The engine keeps one [`RunSlot`] per live run, in `sched_key` order,
//! under its one scheduler lock; `R` is the engine's per-run payload
//! (run context + published task), opaque to the policy.

use crate::CancelReason;
use std::cmp::Reverse;
use std::time::Instant;

/// Relative urgency of a run: workers always claim from the
/// highest-priority runnable run first. Within one priority band runs
/// order earliest-deadline-first, then FIFO by submission.
///
/// Priority changes *which run advances next*, never what a run computes:
/// completed runs stay bit-identical at every priority mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background work; yields to everything else.
    Low,
    /// The default; equivalent to plain FIFO when every run uses it.
    #[default]
    Normal,
    /// Latency-sensitive work; claims workers ahead of all other bands.
    High,
}

impl Priority {
    /// Stable lower-case label (used in diag span fields and reports).
    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// What [`Engine::submit`](crate::Engine::submit) does when the engine is
/// at its `max_inflight` admission cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OverloadPolicy {
    /// Wait for a slot. A submission with a deadline gives up —
    /// `Err(Cancelled{Deadline})` — if the deadline expires while still
    /// blocked.
    #[default]
    Block,
    /// Return `Err(Cancelled{Shed})` immediately instead of waiting.
    FailFast,
    /// Cancel one inflight run to make room, then wait for the freed
    /// slot: preferably a run already past its deadline (any priority),
    /// otherwise the newest run of the lowest band strictly below the
    /// incoming priority. If no such victim exists this behaves like
    /// [`OverloadPolicy::Block`].
    Shed,
}

/// What a run currently needs from the worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Phase {
    /// A worker must pick the run up and advance it (initial setup).
    Advance,
    /// One worker is inside the advance logic; nobody else may touch it.
    Advancing,
    /// A task is published: its units (strips or reduction chunks) are
    /// claimable one by one.
    Claimable,
}

/// The claim state of one live run.
#[derive(Debug)]
pub(super) struct RunSlot<R> {
    pub run_id: u64,
    pub priority: Priority,
    pub deadline: Option<Instant>,
    pub submitted: Instant,
    /// At most this many distinct pool workers ever join the run.
    pub effective: usize,
    pub phase: Phase,
    /// Tiles per unit of the published task (1 per reduction chunk); its
    /// length is the task's total claim count.
    pub unit_tiles: Vec<u64>,
    /// Next unit to hand out.
    pub next_unit: usize,
    /// Units handed out but not yet finished.
    pub outstanding: usize,
    /// Pool worker id per participation slot (slot = index).
    pub slots: Vec<usize>,
    /// Latched by cancellation, deadline expiry or a failed unit: the run
    /// is granted no further units, only the advance that completes it.
    pub halted: bool,
    /// Tiles of units the halt left unclaimed.
    pub skipped: u64,
    pub run: R,
}

/// One unit of work granted to a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ClaimKind {
    /// Advance the run; `finalize` when a drained task awaits finalization.
    Advance { finalize: bool },
    /// Execute unit `unit` of the published task at participation `slot`.
    Unit { unit: usize, slot: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Claim {
    /// Index of the granted run in the scanned slice.
    pub run: usize,
    pub kind: ClaimKind,
    /// The policy served this run ahead of an earlier live submission.
    pub preempts: bool,
}

impl<R> RunSlot<R> {
    pub fn new(
        run_id: u64,
        priority: Priority,
        deadline: Option<Instant>,
        submitted: Instant,
        effective: usize,
        run: R,
    ) -> RunSlot<R> {
        RunSlot {
            run_id,
            priority,
            deadline,
            submitted,
            effective,
            phase: Phase::Advance,
            unit_tiles: Vec::new(),
            next_unit: 0,
            outstanding: 0,
            slots: Vec::new(),
            halted: false,
            skipped: 0,
            run,
        }
    }

    /// The scan order: priority band first (high before low), earliest
    /// deadline within the band (deadline-less runs last), submission
    /// order as the tiebreak — so an all-default workload is plain FIFO.
    /// Every component is fixed at submission, so the order never changes.
    fn sched_key(&self) -> (Reverse<Priority>, bool, Instant, u64) {
        (
            Reverse(self.priority),
            self.deadline.is_none(),
            self.deadline.unwrap_or(self.submitted),
            self.run_id,
        )
    }

    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    fn skip_unclaimed(&mut self) {
        self.skipped += self.unit_tiles[self.next_unit..].iter().sum::<u64>();
        self.next_unit = self.unit_tiles.len();
    }

    /// Stops granting units; what is still unclaimed counts as skipped.
    pub fn halt(&mut self) {
        self.halted = true;
        self.skip_unclaimed();
    }

    /// The advancing worker publishes the next task's units.
    pub fn publish(&mut self, unit_tiles: Vec<u64>) {
        debug_assert_eq!(self.phase, Phase::Advancing);
        self.phase = Phase::Claimable;
        self.unit_tiles = unit_tiles;
        self.next_unit = 0;
        self.outstanding = 0;
        if self.halted {
            self.skip_unclaimed();
        }
    }

    /// Closes one granted unit (a failed one halts the run). Returns
    /// whether the task drained — then the caller owns the advance.
    pub fn finish_unit(&mut self, failed: bool) -> bool {
        self.outstanding -= 1;
        if failed {
            self.halt();
        }
        let drained = self.outstanding == 0 && self.next_unit == self.unit_tiles.len();
        if drained {
            self.phase = Phase::Advancing;
        }
        drained
    }

    /// This run's participation slot for a pool worker; `None` when the
    /// worker cap is exhausted by other workers.
    fn slot_for(&mut self, worker: usize) -> Option<usize> {
        if let Some(i) = self.slots.iter().position(|&w| w == worker) {
            return Some(i);
        }
        (self.slots.len() < self.effective).then(|| {
            self.slots.push(worker);
            self.slots.len() - 1
        })
    }

    fn claim(&mut self, worker: usize, now: Instant) -> Option<ClaimKind> {
        if !self.halted && self.expired(now) {
            self.halt();
        }
        match self.phase {
            Phase::Advance => {
                self.phase = Phase::Advancing;
                Some(ClaimKind::Advance { finalize: false })
            }
            Phase::Advancing => None,
            Phase::Claimable if self.next_unit < self.unit_tiles.len() => {
                let slot = self.slot_for(worker)?;
                let unit = self.next_unit;
                self.next_unit += 1;
                self.outstanding += 1;
                Some(ClaimKind::Unit { unit, slot })
            }
            // Nothing left to grant: a halt emptied the task (otherwise the
            // last unit's `finish_unit` takes the advance).
            Phase::Claimable if self.outstanding == 0 => {
                self.phase = Phase::Advancing;
                Some(ClaimKind::Advance { finalize: true })
            }
            Phase::Claimable => None,
        }
    }
}

/// Adds a run at its place in the scan order.
pub(super) fn insert<R>(runs: &mut Vec<RunSlot<R>>, slot: RunSlot<R>) {
    let at = runs.partition_point(|r| r.sched_key() < slot.sched_key());
    runs.insert(at, slot);
}

/// Grants `worker` the next unit of work from the most urgent run that
/// has any, latching deadline expiry (`now`) on the runs it passes.
pub(super) fn next_claim<R>(runs: &mut [RunSlot<R>], worker: usize, now: Instant) -> Option<Claim> {
    for i in 0..runs.len() {
        if let Some(kind) = runs[i].claim(worker, now) {
            let id = runs[i].run_id;
            let preempts = runs[i + 1..].iter().any(|r| r.run_id < id);
            return Some(Claim {
                run: i,
                kind,
                preempts,
            });
        }
    }
    None
}

/// When an idle worker must rescan without being notified: the earliest
/// deadline that is still ahead and not yet latched. An expired run that
/// is still draining needs no timer — its last unit drives it on.
pub(super) fn next_wakeup<R>(runs: &[RunSlot<R>], now: Instant) -> Option<Instant> {
    runs.iter()
        .filter(|r| !r.halted)
        .filter_map(|r| r.deadline)
        .filter(|&d| d > now)
        .min()
}

/// The run admission control sacrifices under [`OverloadPolicy::Shed`],
/// with the reason to cancel it for: a live run already past its deadline
/// (lowest priority first — it is pure waste either way), else the
/// *newest* run of the lowest band strictly below the incoming one
/// (newest loses the least sunk work), else none.
pub(super) fn shed_victim<R>(
    runs: &[RunSlot<R>],
    incoming: Priority,
    now: Instant,
) -> Option<(usize, CancelReason)> {
    let live = || runs.iter().enumerate().filter(|(_, r)| !r.halted);
    if let Some((i, _)) = live()
        .filter(|(_, r)| r.expired(now))
        .min_by_key(|(_, r)| r.priority)
    {
        return Some((i, CancelReason::Deadline));
    }
    live()
        .filter(|(_, r)| r.priority < incoming)
        .min_by_key(|(_, r)| (r.priority, Reverse(r.run_id)))
        .map(|(i, _)| (i, CancelReason::Shed))
}

/// What a submission asks of admission control.
#[derive(Debug, Clone, Copy)]
pub(super) struct Incoming {
    pub priority: Priority,
    pub deadline: Option<Instant>,
    pub overload: OverloadPolicy,
}

/// An admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Admission {
    /// Take a slot.
    Admit,
    /// Sleep until a slot frees up, at the latest until the instant given.
    Wait(Option<Instant>),
    /// Turn the submission away.
    Reject(CancelReason),
    /// Cancel run `victim` (index) for `reason`, then ask again.
    Shed { victim: usize, reason: CancelReason },
}

/// Decides one round of admission. `may_shed` is false once the
/// submission has shed its one victim (it then waits like `Block`).
pub(super) fn admit<R>(
    runs: &[RunSlot<R>],
    has_room: bool,
    shutdown: bool,
    req: Incoming,
    may_shed: bool,
    now: Instant,
) -> Admission {
    if shutdown {
        return Admission::Reject(CancelReason::Shutdown);
    }
    if has_room {
        return Admission::Admit;
    }
    if req.deadline.is_some_and(|d| now >= d) {
        return Admission::Reject(CancelReason::Deadline);
    }
    match req.overload {
        OverloadPolicy::FailFast => return Admission::Reject(CancelReason::Shed),
        OverloadPolicy::Shed if may_shed => {
            if let Some((victim, reason)) = shed_victim(runs, req.priority, now) {
                return Admission::Shed { victim, reason };
            }
        }
        OverloadPolicy::Shed | OverloadPolicy::Block => {}
    }
    Admission::Wait(req.deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Builds slots in submission order (run ids 1, 2, …) from
    /// `(priority, deadline offset in ms)`, each with a published task of
    /// three 2-tile units and a worker cap of 2.
    fn runs(t0: Instant, specs: &[(Priority, Option<u64>)]) -> Vec<RunSlot<()>> {
        let mut runs = Vec::new();
        for (i, &(priority, dl)) in specs.iter().enumerate() {
            let deadline = dl.map(|ms| t0 + Duration::from_millis(ms));
            let mut slot = RunSlot::new(i as u64 + 1, priority, deadline, t0, 2, ());
            slot.phase = Phase::Advancing;
            slot.publish(vec![2, 2, 2]);
            insert(&mut runs, slot);
        }
        runs
    }

    fn order(runs: &[RunSlot<()>]) -> Vec<u64> {
        runs.iter().map(|r| r.run_id).collect()
    }

    /// The id of the run the next claim goes to.
    fn served(runs: &mut [RunSlot<()>], worker: usize, now: Instant) -> Option<u64> {
        next_claim(runs, worker, now).map(|c| runs[c.run].run_id)
    }

    use Priority::{High, Low, Normal};

    #[test]
    fn bands_then_deadlines_then_fifo() {
        let t0 = Instant::now();
        let specs = [
            (Low, None),
            (Normal, None),
            (Normal, Some(50)),
            (High, None),
            (Normal, Some(20)),
            (Normal, None),
        ];
        let mut rs = runs(t0, &specs);
        // High first; inside Normal the earlier deadline, then the later,
        // then the deadline-less ones in submission order; Low last.
        assert_eq!(order(&rs), [4, 5, 3, 2, 6, 1]);
        // Claims follow that order as each run's units are exhausted.
        let mut got = Vec::new();
        while let Some(id) = served(&mut rs, 0, t0) {
            got.push(id);
        }
        let want: Vec<u64> = [4, 5, 3, 2, 6, 1].iter().flat_map(|&id| [id; 3]).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn fifo_within_a_band() {
        // Three deadline-less Normal runs, submitted 1 ms apart and
        // inserted out of order: scanned by submission, and a queued run
        // gets no unit before every unit of the runs ahead of it is out.
        let t0 = Instant::now();
        let mut rs = Vec::new();
        for id in [3u64, 1, 2] {
            let submitted = t0 + Duration::from_millis(id);
            let mut slot = RunSlot::new(id, Normal, None, submitted, 2, ());
            slot.phase = Phase::Advancing;
            slot.publish(vec![1, 1]);
            insert(&mut rs, slot);
        }
        assert_eq!(order(&rs), [1, 2, 3]);
        let got: Vec<u64> = std::iter::from_fn(|| served(&mut rs, 0, t0)).collect();
        assert_eq!(got, [1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn fresh_run_is_advanced_once() {
        let t0 = Instant::now();
        let mut rs = vec![RunSlot::new(1, Normal, None, t0, 1, ())];
        let claim = next_claim(&mut rs, 0, t0).unwrap();
        assert_eq!(claim.kind, ClaimKind::Advance { finalize: false });
        assert_eq!(next_claim(&mut rs, 1, t0), None, "one worker advances");
    }

    #[test]
    fn worker_cap_refuses_an_extra_participant() {
        let t0 = Instant::now();
        let mut rs = runs(t0, &[(Normal, None)]);
        let kind = |rs: &mut [RunSlot<()>], w| next_claim(rs, w, t0).map(|c| c.kind);
        assert_eq!(kind(&mut rs, 7), Some(ClaimKind::Unit { unit: 0, slot: 0 }));
        assert_eq!(kind(&mut rs, 3), Some(ClaimKind::Unit { unit: 1, slot: 1 }));
        assert_eq!(
            kind(&mut rs, 5),
            None,
            "cap of 2 is taken by workers 7 and 3"
        );
        assert_eq!(kind(&mut rs, 7), Some(ClaimKind::Unit { unit: 2, slot: 0 }));
    }

    #[test]
    fn last_finished_unit_owns_the_advance() {
        let t0 = Instant::now();
        let mut rs = runs(t0, &[(Normal, None)]);
        for _ in 0..3 {
            served(&mut rs, 0, t0).unwrap();
        }
        assert!(!rs[0].finish_unit(false));
        assert!(!rs[0].finish_unit(false));
        assert_eq!(next_claim(&mut rs, 0, t0), None, "a unit is still out");
        assert!(rs[0].finish_unit(false), "the last one drains the task");
        assert_eq!(rs[0].phase, Phase::Advancing);
        assert_eq!(rs[0].skipped, 0);
    }

    #[test]
    fn halted_run_grants_nothing_and_reports_what_it_skipped() {
        let t0 = Instant::now();
        let mut rs = runs(t0, &[(Normal, None)]);
        served(&mut rs, 0, t0).unwrap(); // unit 0 is out
        rs[0].halt();
        assert_eq!(rs[0].skipped, 4, "units 1 and 2, two tiles each");
        assert_eq!(next_claim(&mut rs, 1, t0), None, "no units, and one is out");
        assert!(rs[0].finish_unit(false), "its return drains the task");

        // Halted with nothing out: the scan itself takes the advance.
        let mut rs = runs(t0, &[(Normal, None)]);
        rs[0].halt();
        let claim = next_claim(&mut rs, 0, t0).unwrap();
        assert_eq!(claim.kind, ClaimKind::Advance { finalize: true });
        assert_eq!(rs[0].skipped, 6);

        // A failed unit halts; a task published after the halt is skipped whole.
        let mut rs = runs(t0, &[(Normal, None)]);
        served(&mut rs, 0, t0).unwrap();
        assert!(rs[0].finish_unit(true));
        assert!(rs[0].halted);
        rs[0].publish(vec![5, 5]);
        assert_eq!(rs[0].skipped, 4 + 10);
    }

    #[test]
    fn deadline_is_latched_by_the_scan() {
        let t0 = Instant::now();
        let mut rs = runs(t0, &[(Normal, Some(10)), (Normal, Some(30)), (Low, None)]);
        assert_eq!(next_wakeup(&rs, t0), Some(t0 + Duration::from_millis(10)));
        let late = t0 + Duration::from_millis(10);
        let claim = next_claim(&mut rs, 0, late).unwrap();
        assert_eq!(
            (claim.run, claim.kind),
            (0, ClaimKind::Advance { finalize: true })
        );
        assert!(rs[0].halted && !rs[1].halted);
        // The expired run no longer sets the timer, draining or not.
        assert_eq!(next_wakeup(&rs, late), Some(t0 + Duration::from_millis(30)));
        assert_eq!(next_wakeup(&rs[2..], late), None);
    }

    #[test]
    fn preempt_is_a_grant_ahead_of_an_earlier_submission() {
        let t0 = Instant::now();
        let mut rs = runs(t0, &[(Low, None), (High, None), (High, None)]);
        let mut preempts = 0;
        while let Some(c) = next_claim(&mut rs, 0, t0) {
            preempts += c.preempts as u64;
        }
        // Runs 2 and 3 are each served ahead of run 1 for all 3 units;
        // run 1 itself, last in line, jumps nobody.
        assert_eq!(preempts, 6);
        let mut fifo = runs(t0, &[(Normal, None), (Normal, None)]);
        assert!(std::iter::from_fn(|| next_claim(&mut fifo, 0, t0)).all(|c| !c.preempts));
    }

    #[test]
    fn shed_victim_choice() {
        let t0 = Instant::now();
        let now = t0 + Duration::from_millis(5);
        let pick = |rs: &[RunSlot<()>], p| shed_victim(rs, p, now).map(|(i, r)| (rs[i].run_id, r));
        // An expired run goes first, whatever its band.
        let rs = runs(t0, &[(Low, None), (High, Some(1)), (Low, None)]);
        assert_eq!(pick(&rs, Normal), Some((2, CancelReason::Deadline)));
        // Else the newest run of the lowest band strictly below the incoming.
        let mut rs = runs(
            t0,
            &[(Low, None), (Normal, None), (Low, None), (High, None)],
        );
        assert_eq!(pick(&rs, High), Some((3, CancelReason::Shed)));
        assert_eq!(pick(&rs, Normal), Some((3, CancelReason::Shed)));
        assert_eq!(pick(&rs, Low), None, "nothing is strictly below Low");
        // Already-halted runs are not shed twice.
        rs.iter_mut()
            .filter(|r| r.priority == Low)
            .for_each(|r| r.halt());
        assert_eq!(pick(&rs, High), Some((2, CancelReason::Shed)));
        assert_eq!(pick(&rs, Normal), None);
    }

    #[test]
    fn admission_by_overload_policy() {
        let t0 = Instant::now();
        let rs = runs(t0, &[(Low, None)]);
        let req = |overload, deadline| Incoming {
            priority: High,
            deadline,
            overload,
        };
        let full = |r, may_shed| admit(&rs, false, false, r, may_shed, t0);
        use OverloadPolicy::{Block, FailFast, Shed};
        assert_eq!(
            admit(&rs, true, false, req(FailFast, None), true, t0),
            Admission::Admit
        );
        assert_eq!(
            admit(&rs, true, true, req(Block, None), true, t0),
            Admission::Reject(CancelReason::Shutdown)
        );
        assert_eq!(full(req(Block, None), true), Admission::Wait(None));
        let dl = t0 + Duration::from_millis(3);
        assert_eq!(full(req(Block, Some(dl)), true), Admission::Wait(Some(dl)));
        assert_eq!(
            full(req(Block, Some(t0)), true),
            Admission::Reject(CancelReason::Deadline)
        );
        assert_eq!(
            full(req(FailFast, None), true),
            Admission::Reject(CancelReason::Shed)
        );
        let shed = Admission::Shed {
            victim: 0,
            reason: CancelReason::Shed,
        };
        assert_eq!(full(req(Shed, None), true), shed);
        assert_eq!(
            full(req(Shed, None), false),
            Admission::Wait(None),
            "one victim only"
        );
        let peer = Incoming {
            priority: Low,
            ..req(Shed, None)
        };
        assert_eq!(
            full(peer, true),
            Admission::Wait(None),
            "no victim: like Block"
        );
    }
}

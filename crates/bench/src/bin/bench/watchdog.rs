//! A work-around for an engine liveness defect the benchmark exposed, kept
//! here until the engine is fixed (see "Known engine defect" in the README).
//!
//! `RunHandle::join*` briefly holds the run's state lock. A worker whose
//! scan `try_lock`s that state at the same instant treats the run as busy
//! and goes to sleep on the work condvar; nothing notifies it again, so
//! when every eligible worker does this the run never progresses and the
//! join never returns. On the two-core reference host a tight
//! compile–submit–join loop hangs this way about once per 10³–10⁵ runs.
//!
//! Any wake-up of the workers rescues such a run. The only side-effect-free
//! wake-up the public surface offers is `CancelToken::cancel` on a run that
//! has already *completed*: it latches a flag nobody reads any more and
//! notifies the workers. So every join goes through [`Watchdog::join`],
//! which keeps the tokens of recently completed runs; a background thread
//! spends one whenever joins are pending and none has completed for a
//! while. A kick that was not needed costs the workers one empty scan.

use polymage_vm::{Buffer, CancelToken, RunHandle, RunStats, VmError};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the background thread looks.
const TICK: Duration = Duration::from_millis(10);
/// Pending joins with no completion for this long get the first kick; the
/// wait doubles after every kick until something completes.
const FIRST_KICK: Duration = Duration::from_millis(50);
/// Tokens kept. Each completed run brings one and each kick spends one, and
/// the doubling wait bounds the kicks one long run can draw.
const SPARE_TOKENS: usize = 16;

struct Shared {
    pending: AtomicUsize,
    completed: AtomicU64,
    kicks: AtomicU64,
    spare: Mutex<Vec<CancelToken>>,
    stop: AtomicBool,
}

pub struct Watchdog {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    pub fn new() -> Watchdog {
        let shared = Arc::new(Shared {
            pending: AtomicUsize::new(0),
            completed: AtomicU64::new(0),
            kicks: AtomicU64::new(0),
            spare: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || watch(&shared))
        };
        Watchdog {
            shared,
            thread: Some(thread),
        }
    }

    /// `RunHandle::join_outcome`, watched.
    pub fn join(&self, handle: RunHandle) -> (Result<Vec<Buffer>, VmError>, RunStats) {
        let token = handle.cancel_token();
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        let outcome = handle.join_outcome();
        self.shared.pending.fetch_sub(1, Ordering::SeqCst);
        self.shared.completed.fetch_add(1, Ordering::SeqCst);
        let mut spare = self
            .shared
            .spare
            .lock()
            .expect("watchdog never panics holding this");
        if spare.len() == SPARE_TOKENS {
            spare.remove(0);
        }
        spare.push(token);
        outcome
    }

    /// Kicks so far, needed or not.
    pub fn kicks(&self) -> u64 {
        self.shared.kicks.load(Ordering::SeqCst)
    }
}

fn watch(shared: &Shared) {
    let mut seen = 0;
    let mut quiet_since = Instant::now();
    let mut wait = FIRST_KICK;
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(TICK);
        let completed = shared.completed.load(Ordering::SeqCst);
        if completed != seen || shared.pending.load(Ordering::SeqCst) == 0 {
            seen = completed;
            quiet_since = Instant::now();
            wait = FIRST_KICK;
        } else if quiet_since.elapsed() >= wait {
            let token = shared.spare.lock().expect("see Watchdog::join").pop();
            if let Some(token) = token {
                token.cancel();
                shared.kicks.fetch_add(1, Ordering::SeqCst);
            }
            quiet_since = Instant::now();
            wait *= 2;
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            // The thread only sleeps, loads and cancels; it cannot panic.
            let _ = t.join();
        }
    }
}

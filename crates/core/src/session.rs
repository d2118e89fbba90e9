//! Long-lived compile-and-run sessions: a persistent [`Engine`] plus a
//! two-level LRU compile cache (size-independent plans × bound instances).
//!
//! [`compile`](crate::compile) is cheap (microseconds) but not free, and a
//! fresh [`Engine`] spawns its worker threads. Code that executes
//! pipelines repeatedly — frame loops, autotuners, benchmarks — should
//! hold a [`Session`]: compiled programs are cached by
//! a *stable content hash* of the `(Pipeline, CompileOptions)` pair, and
//! every run reuses the session's pooled workers and recycled buffers.
//!
//! The cache has two levels, mirroring the phase split of
//! [`plan`](crate::plan) / [`instantiate`](crate::instantiate):
//!
//! - **plans** are keyed by `content_hash ×`
//!   [`CompileOptions::cache_key_structural`] — everything *except* the
//!   bound parameter values. Pin the heuristics with
//!   [`CompileOptions::with_estimates`] and one
//!   [`ParametricPlan`](crate::ParametricPlan) serves every size: a serving
//!   loop that sees a new image resolution pays only the cheap bind.
//! - **instances** (the executable [`Compiled`]s) are keyed by the full
//!   [`CompileOptions::cache_key`], i.e. structural key plus the bound
//!   params.
//!
//! Both levels are the same single-flight LRU: N threads racing a cold key
//! run phase 1 once and phase 2 once. Instance lookups surface as the
//! `session.instance_{hit,miss}` diagnostics counters, plan lookups as
//! `session.plan_{hit,miss}`.
//!
//! Cache keying rules:
//!
//! - the pipeline participates via [`polymage_ir::Pipeline::content_hash`]
//!   (deterministic structural hash — names, domains, expressions,
//!   live-outs);
//! - the options participate via [`CompileOptions::cache_key`], which
//!   includes every field (params, estimates, tile spec, threshold bits,
//!   mode, schedule and the resolved SIMD level), since each can change
//!   the produced program;
//! - errors are never cached — a failed compilation is retried on the
//!   next call. The static bounds check runs on every bind, plan-cache
//!   hits included, so a size that reads out of bounds is rejected even
//!   when its plan is shared with valid sizes.

use crate::options::{OptionsKey, StructuralKey};
use crate::plan::{plan_with, ParametricPlan};
use crate::{instantiate_with, CompileError, CompileOptions, Compiled};
use polymage_diag::{Counter, Diag};
use polymage_ir::Pipeline;
use polymage_vm::{Buffer, Engine, RunRequest, RunStats, VmError};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Default number of cached compilations per session (each level).
const DEFAULT_CACHE_CAPACITY: usize = 32;

/// An error from [`Session::run`]: compilation or execution failed.
#[derive(Debug)]
pub enum RunError {
    /// The pipeline failed to compile.
    Compile(CompileError),
    /// The compiled program failed to execute.
    Execute(VmError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Compile(e) => write!(f, "compilation failed: {e}"),
            RunError::Execute(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Compile(e) => Some(e),
            RunError::Execute(e) => Some(e),
        }
    }
}

impl From<CompileError> for RunError {
    fn from(e: CompileError) -> Self {
        RunError::Compile(e)
    }
}

impl From<VmError> for RunError {
    fn from(e: VmError) -> Self {
        RunError::Execute(e)
    }
}

/// Hit/miss counters of a session's two-level compile cache.
///
/// `hits`/`misses`/`evictions` are the *instance* level (bound programs) —
/// the counters the cache has always reported. The `plan_*` fields count
/// the size-independent plan level underneath: a serving loop that binds
/// one pipeline at many sizes shows `plan_misses == 1` with
/// `plan_hits` growing, while `misses` ticks once per distinct size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Compilations served without running the compiler in the calling
    /// thread: cache hits, plus threads that blocked on another thread's
    /// in-flight compilation of the same key (single-flight followers).
    pub hits: u64,
    /// Compilations that actually ran phase 2 (instantiate) — exactly one
    /// per single-flight group, counted whether or not the compile
    /// succeeds.
    pub misses: u64,
    /// Cached instances evicted by the LRU policy.
    pub evictions: u64,
    /// Plan lookups served from the plan cache (including single-flight
    /// followers of an in-flight planning run).
    pub plan_hits: u64,
    /// Plan lookups that ran phase 1 (the expensive analyses) — exactly
    /// one per single-flight group.
    pub plan_misses: u64,
    /// Cached plans evicted by the LRU policy.
    pub plan_evictions: u64,
}

#[derive(Clone, PartialEq, Eq)]
struct CacheKey {
    pipe_hash: u64,
    opts: OptionsKey,
}

#[derive(Clone, PartialEq, Eq)]
struct PlanKey {
    pipe_hash: u64,
    structural: StructuralKey,
}

/// Rendezvous for racing computations of one key: the leader computes and
/// publishes; followers block here instead of computing again.
struct FlightSlot<T> {
    /// `None` = pending, `Some(None)` = leader failed (followers retry),
    /// `Some(Some(_))` = done.
    state: Mutex<Option<Option<T>>>,
    cv: Condvar,
}

impl<T: Clone> FlightSlot<T> {
    fn resolve(&self, result: Option<T>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *state = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = &*state {
                return result.clone();
            }
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// How a [`SingleFlight`] lookup was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    /// The value was cached.
    Hit,
    /// Another thread was computing the key; this one waited for it.
    Followed,
    /// This thread computed the key (`evicted`: caching the value pushed
    /// the least recently used entry out).
    Led { evicted: bool },
}

struct Level<K, V> {
    /// LRU: least recently used first, most recent last.
    entries: Vec<(K, Arc<V>)>,
    /// Keys being computed right now, one rendezvous per key.
    inflight: Vec<(K, Arc<FlightSlot<Arc<V>>>)>,
    capacity: usize,
    /// Lookups served without computing in the calling thread.
    hits: u64,
    /// Computations led — one per single-flight group, success or error.
    misses: u64,
    evictions: u64,
}

/// One cache level: an LRU of `Arc<V>` whose misses are single-flight.
/// Errors are returned to the thread that computed them and never cached.
struct SingleFlight<K, V>(Mutex<Level<K, V>>);

impl<K: Clone + PartialEq, V> SingleFlight<K, V> {
    fn new() -> SingleFlight<K, V> {
        SingleFlight(Mutex::new(Level {
            entries: Vec::new(),
            inflight: Vec::new(),
            capacity: DEFAULT_CACHE_CAPACITY,
            hits: 0,
            misses: 0,
            evictions: 0,
        }))
    }

    fn lock(&self) -> MutexGuard<'_, Level<K, V>> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the cached value for `key`, or waits for the thread already
    /// computing it, or runs `compute` — outside the lock, so a slow
    /// computation blocks neither hits nor other keys' flights — and
    /// caches its success. A follower whose leader failed retries (and
    /// possibly leads).
    fn get_or_try_insert_with<E>(
        &self,
        key: &K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> (Result<Arc<V>, E>, Served) {
        loop {
            let flight = {
                let mut level = self.lock();
                if let Some(i) = level.entries.iter().position(|(k, _)| k == key) {
                    let entry = level.entries.remove(i);
                    let hit = Arc::clone(&entry.1);
                    level.entries.push(entry); // most recently used
                    level.hits += 1;
                    return (Ok(hit), Served::Hit);
                }
                let flight = level.inflight.iter().find(|(k, _)| k == key);
                let flight = flight.map(|(_, slot)| Arc::clone(slot));
                if flight.is_none() {
                    // Become the leader; the miss counts whatever happens.
                    let slot = FlightSlot {
                        state: Mutex::new(None),
                        cv: Condvar::new(),
                    };
                    level.inflight.push((key.clone(), Arc::new(slot)));
                    level.misses += 1;
                }
                flight
            };
            match flight {
                None => {
                    // The guard fails the flight if `compute` unwinds, so
                    // followers never block on a leader that died.
                    let mut landing = Landing {
                        cache: self,
                        key,
                        landed: false,
                    };
                    let result = compute().map(Arc::new);
                    let evicted = landing.land(result.as_ref().ok().cloned());
                    return (result, Served::Led { evicted });
                }
                Some(slot) => {
                    if let Some(value) = slot.wait() {
                        self.lock().hits += 1;
                        return (Ok(value), Served::Followed);
                    }
                }
            }
        }
    }

    /// Sets the capacity (minimum 1), evicting least recently used entries
    /// down to it; returns how many went.
    fn set_capacity(&self, capacity: usize) -> u64 {
        let mut level = self.lock();
        level.capacity = capacity.max(1);
        let excess = level.entries.len().saturating_sub(level.capacity);
        level.entries.drain(..excess);
        level.evictions += excess as u64;
        excess as u64
    }
}

/// A leader's hold on its in-flight slot.
struct Landing<'a, K: Clone + PartialEq, V> {
    cache: &'a SingleFlight<K, V>,
    key: &'a K,
    landed: bool,
}

impl<K: Clone + PartialEq, V> Landing<'_, K, V> {
    /// Caches a success, retires the in-flight slot and releases its
    /// followers. Returns whether an entry was evicted to make room.
    fn land(&mut self, result: Option<Arc<V>>) -> bool {
        self.landed = true;
        let mut level = self.cache.lock();
        let mut evicted = false;
        if let Some(value) = &result {
            if level.entries.len() >= level.capacity {
                level.entries.remove(0);
                level.evictions += 1;
                evicted = true;
            }
            level.entries.push((self.key.clone(), Arc::clone(value)));
        }
        let flight = level.inflight.iter().position(|(k, _)| k == self.key);
        let slot = flight.map(|i| level.inflight.swap_remove(i).1);
        drop(level);
        if let Some(slot) = slot {
            slot.resolve(result);
        }
        evicted
    }
}

impl<K: Clone + PartialEq, V> Drop for Landing<'_, K, V> {
    fn drop(&mut self) {
        if !self.landed {
            self.land(None); // unwinding: fail the flight
        }
    }
}

/// A long-lived compile-and-run session.
///
/// Owns a persistent [`Engine`] (pooled worker threads, recycled buffers)
/// and a two-level LRU cache: size-independent
/// [`ParametricPlan`](crate::ParametricPlan)s keyed by the structural
/// options, and bound programs keyed by the full options (see the module
/// docs for the split).
///
/// Sessions are built for concurrent serving: every method takes `&self`,
/// so one `Session` (behind an `Arc` or a plain reference) can be shared
/// across request threads. Runs execute **concurrently** on the engine's
/// shared worker pool — each gets its own run context, and results are
/// bit-identical to an idle engine. Racing compilations of the same
/// pipeline are deduplicated (single-flight) at both levels, so a
/// thundering herd on a cold cache plans once and binds once.
pub struct Session {
    engine: Engine,
    /// Size-independent plans, keyed without the bound parameter values.
    plans: SingleFlight<PlanKey, ParametricPlan>,
    /// Bound programs, keyed by the full options.
    instances: SingleFlight<CacheKey, Compiled>,
    diag: Diag,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("nthreads", &self.engine.nthreads())
            .field("cache_stats", &self.cache_stats())
            .finish()
    }
}

impl Session {
    /// A session with one engine worker per available hardware thread.
    pub fn new() -> Session {
        Session::with_engine(Engine::new())
    }

    /// A session whose engine has exactly `nthreads` pooled workers.
    pub fn with_threads(nthreads: usize) -> Session {
        Session::with_engine(Engine::with_threads(nthreads))
    }

    /// Wraps an existing engine in a session.
    pub fn with_engine(engine: Engine) -> Session {
        Session {
            engine,
            plans: SingleFlight::new(),
            instances: SingleFlight::new(),
            diag: Diag::noop(),
        }
    }

    /// Attaches a diagnostics sink: every compilation (phase spans, merge
    /// decisions), cache lookup (hit/miss/evict counters, plan/instance
    /// counters) and engine run (group/worker spans, pool and evaluator
    /// counters) flows through it. The default is the zero-cost no-op
    /// sink.
    pub fn with_diag(mut self, diag: Diag) -> Session {
        self.diag = diag;
        self
    }

    /// The session's diagnostics handle (clones share the same sink).
    pub fn diag(&self) -> &Diag {
        &self.diag
    }

    /// Sets the cache capacity (entries per level; minimum 1). Shrinking
    /// evicts the least recently used entries immediately.
    pub fn with_cache_capacity(self, capacity: usize) -> Session {
        let evicted = self.instances.set_capacity(capacity);
        self.diag.count(Counter::CacheEvict, evicted);
        self.plans.set_capacity(capacity);
        self
    }

    /// The session's execution engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of pooled engine workers.
    pub fn nthreads(&self) -> usize {
        self.engine.nthreads()
    }

    /// Builds (or fetches) the size-independent
    /// [`ParametricPlan`](crate::ParametricPlan) for a pipeline — phase 1
    /// only. The key ignores `opts.params`: two option sets differing only
    /// in the bound values share one plan (provided the estimates agree —
    /// pin them with [`CompileOptions::with_estimates`]).
    ///
    /// Misses are **single-flight**: when N threads race the same key,
    /// exactly one runs the planner (one [`CacheStats::plan_misses`]
    /// tick); the others block and share its result, counting as plan
    /// hits. Errors are never cached.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::plan`]; errors are not cached.
    pub fn plan(
        &self,
        pipe: &Pipeline,
        opts: &CompileOptions,
    ) -> Result<Arc<ParametricPlan>, CompileError> {
        let key = PlanKey {
            pipe_hash: pipe.content_hash(),
            structural: opts.cache_key_structural(),
        };
        let planner = || plan_with(pipe, opts, &self.diag);
        let (result, served) = self.plans.get_or_try_insert_with(&key, planner);
        let counter = match served {
            Served::Led { .. } => Counter::PlanMiss,
            Served::Hit | Served::Followed => Counter::PlanHit,
        };
        self.diag.count(counter, 1);
        result
    }

    /// Compiles a pipeline, consulting the cache first. On a hit the
    /// cached [`Compiled`] is returned (shared via [`Arc`]) and the
    /// compiler does not run at all. On an instance miss, the plan level
    /// is consulted next — with a cached plan only the cheap
    /// [`instantiate`](crate::instantiate) bind runs.
    ///
    /// Misses are **single-flight**: when N threads race the same key,
    /// exactly one runs the compiler (one [`CacheStats::misses`] tick);
    /// the others block on the in-flight entry and share its result,
    /// counting as hits. If the leader's compilation fails, followers
    /// retry — errors are never cached or shared.
    ///
    /// # Errors
    ///
    /// Same conditions as [`compile`](crate::compile); errors are not cached.
    pub fn compile(
        &self,
        pipe: &Pipeline,
        opts: &CompileOptions,
    ) -> Result<Arc<Compiled>, CompileError> {
        let key = CacheKey {
            pipe_hash: pipe.content_hash(),
            opts: opts.cache_key(),
        };
        // The plan level has its own single-flight, so racing binds of
        // *different* sizes share one planning run.
        let bind = || instantiate_with(&*self.plan(pipe, opts)?, &opts.params, &self.diag);
        let (result, served) = self.instances.get_or_try_insert_with(&key, bind);
        match served {
            Served::Led { evicted } => {
                self.diag.count(Counter::InstanceMiss, 1);
                self.diag.count(Counter::CacheEvict, evicted as u64);
            }
            Served::Hit | Served::Followed => self.diag.count(Counter::InstanceHit, 1),
        }
        result
    }

    /// Compiles (cached) and runs a pipeline on the session's engine.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Compile`] for invalid specifications and
    /// [`RunError::Execute`] for input mismatches or executor faults.
    pub fn run(
        &self,
        pipe: &Pipeline,
        opts: &CompileOptions,
        inputs: &[Buffer],
    ) -> Result<Vec<Buffer>, RunError> {
        let compiled = self.compile(pipe, opts)?;
        Ok(self.run_compiled(&compiled, inputs)?)
    }

    /// Like [`Session::run`], additionally returning execution statistics
    /// (tile/chunk/point counters and per-group wall-clock durations; pair
    /// them with the report via
    /// [`CompileReport::with_timings`](crate::CompileReport::with_timings)).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::run`].
    pub fn run_stats(
        &self,
        pipe: &Pipeline,
        opts: &CompileOptions,
        inputs: &[Buffer],
    ) -> Result<(Vec<Buffer>, RunStats), RunError> {
        let compiled = self.compile(pipe, opts)?;
        Ok(self
            .engine
            .submit(
                RunRequest::new(&compiled.program, inputs)
                    .threads(self.nthreads())
                    .trace(&self.diag),
            )?
            .join_stats()?)
    }

    /// Runs an already-compiled program on the session's engine.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] for input mismatches or executor faults.
    pub fn run_compiled(
        &self,
        compiled: &Compiled,
        inputs: &[Buffer],
    ) -> Result<Vec<Buffer>, VmError> {
        self.engine
            .submit(
                RunRequest::new(&compiled.program, inputs)
                    .threads(self.nthreads())
                    .trace(&self.diag)
                    .group_stats(false),
            )?
            .join()
    }

    /// Hit/miss/eviction counters of both cache levels.
    pub fn cache_stats(&self) -> CacheStats {
        let (hits, misses, evictions) = {
            let level = self.instances.lock();
            (level.hits, level.misses, level.evictions)
        };
        let plans = self.plans.lock();
        CacheStats {
            hits,
            misses,
            evictions,
            plan_hits: plans.hits,
            plan_misses: plans.misses,
            plan_evictions: plans.evictions,
        }
    }

    /// Number of currently cached instances (bound programs).
    pub fn cache_len(&self) -> usize {
        self.instances.lock().entries.len()
    }

    /// Number of currently cached size-independent plans.
    pub fn plan_cache_len(&self) -> usize {
        self.plans.lock().entries.len()
    }

    /// Drops every cached plan and instance (counters are kept).
    pub fn clear_cache(&self) {
        self.instances.lock().entries.clear();
        self.plans.lock().entries.clear();
    }
}

//! `kstat`: kernel statistics and the unified metrics registry.
//!
//! Two layers live here:
//!
//! 1. [`Stats`] — the *live* counters the kernel increments on its hot
//!    paths. Every number the paper's tables report is derived from these
//!    fields; there is exactly one live counter per fact (the former
//!    `stats.rs` surface, absorbed whole).
//! 2. [`KstatRegistry`] — a deterministic, on-demand *snapshot* of every
//!    observable kernel metric under one hierarchical dot-separated
//!    namespace (`kernel.tlb.hits`, `kernel.syscall.<entrypoint>.count`,
//!    `kernel.mem.kstacks_bytes`, …), in the spirit of Solaris `kstat`.
//!    [`Kernel::kstat`] builds it by *reading* the single live sources —
//!    [`Stats`], the software-TLB view ([`Kernel::tlb_stats`]), the
//!    atomicity auditor's per-entrypoint hit counters
//!    ([`crate::kernel::block_audit_hits`]), the live-thread memory
//!    gauges ([`Kernel::mem_gauges`]), the tracer, and the `kprof`
//!    profiler — so nothing is double-counted and the hot paths never
//!    touch a string or a hash map.
//!
//! Registry names obey the `[a-z0-9_.]+` grammar, are unique, and every
//! name is an instance of a static *pattern* (`<entrypoint>` standing for
//! a syscall name, `<kind>` for a contended object kind, `<class>` for a
//! kernel-lock class) listed in the DESIGN.md §13 metrics inventory; a
//! hygiene test parses the doc so the inventory cannot rot. Snapshots are
//! `BTreeMap`-ordered, so the JSON and text exports are bit-deterministic.

use std::collections::BTreeMap;

use fluke_api::{Sys, SYSCALLS, SYSCALL_COUNT};
use fluke_arch::cost::{cycles_to_us, Cycles};
use fluke_json::Json;

use crate::kernel::{block_audit_hits, Kernel, LockClass};
use crate::kspan::{Contended, ObjectContention};
use crate::thread::ObjKind;
use crate::tlb::TlbStats;
use crate::trace::Histogram;

/// Which side of an IPC transfer a fault occurred on (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSide {
    /// The fault was in the client's address space.
    Client,
    /// The fault was in the server's address space.
    Server,
    /// The fault was outside any IPC transfer.
    Other,
}

/// Fault severity (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The kernel derived a page-table entry from an entry higher in the
    /// memory mapping hierarchy.
    Soft,
    /// An RPC to a user-level memory manager was required.
    Hard,
}

/// One fault event during the run, with its measured costs.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// Side of the transfer the faulting address belonged to.
    pub side: FaultSide,
    /// Soft or hard.
    pub kind: FaultKind,
    /// Cycles spent servicing the fault (hierarchy walk, or the full pager
    /// round trip for hard faults).
    pub remedy_cycles: Cycles,
    /// Cycles of previously-done work thrown away and re-executed because
    /// the operation rolled back to its register continuation.
    pub rollback_cycles: Cycles,
    /// Whether the fault interrupted an IPC transfer.
    pub during_ipc: bool,
    /// Simulated time the fault was raised.
    pub at: Cycles,
}

/// Per-entrypoint dispatch counts, indexed by [`Sys::num`]. One slot per
/// entrypoint, allocated up front: the hot-path increment is an array
/// store, never a map lookup.
#[derive(Debug, Clone)]
pub struct PerSysCounts(Vec<u64>);

impl Default for PerSysCounts {
    fn default() -> Self {
        PerSysCounts(vec![0; SYSCALL_COUNT])
    }
}

impl PerSysCounts {
    /// Count one dispatch of `sys`.
    #[inline]
    pub fn bump(&mut self, sys: Sys) {
        self.0[sys.num() as usize] += 1;
    }

    /// Dispatches of `sys` so far.
    pub fn get(&self, sys: Sys) -> u64 {
        self.0[sys.num() as usize]
    }

    /// Total dispatches across all entrypoints.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// Aggregated kernel statistics for one run.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Total system calls dispatched (including restarts).
    pub syscalls: u64,
    /// System call restarts after a block, fault or preemption.
    pub restarts: u64,
    /// Per-entrypoint dispatch counts (`kernel.syscall.<entrypoint>.count`).
    pub per_sys: PerSysCounts,
    /// Context switches performed.
    pub ctx_switches: u64,
    /// Address-space switches performed.
    pub space_switches: u64,
    /// Soft page faults resolved.
    pub soft_faults: u64,
    /// Hard page faults (pager RPCs) raised.
    pub hard_faults: u64,
    /// Fatal (unresolvable) faults.
    pub fatal_faults: u64,
    /// `kfault` adversarial injections fired, indexed by
    /// [`crate::kfault::KfaultKind::index`] (all zero unless armed).
    pub faults_injected: [u64; 4],
    /// Cycles spent executing user-mode instructions.
    pub user_cycles: Cycles,
    /// Cycles spent in the kernel.
    pub kernel_cycles: Cycles,
    /// Cycles the CPU sat idle waiting for an event.
    pub idle_cycles: Cycles,
    /// Cycles spent re-executing rolled-back work.
    pub rollback_cycles: Cycles,
    /// Cycles spent acquiring/releasing kernel locks (Full preemption).
    pub klock_cycles: Cycles,
    /// The *waiting* part of [`Stats::klock_cycles`]: cycles stalled on a
    /// lock another CPU held, excluding the fixed acquire/release costs.
    /// Near zero under fine-grained locking; dominant under the big lock.
    pub klock_wait_cycles: Cycles,
    /// Bytes moved by the IPC copy path.
    pub ipc_bytes: u64,
    /// IPC messages completed.
    pub ipc_messages: u64,
    /// Explicit preemption points taken on the IPC copy path.
    pub preempt_points_taken: u64,
    /// In-kernel preemptions (Full preemption configuration).
    pub kernel_preemptions: u64,
    /// Preemptions of user-mode execution.
    pub user_preemptions: u64,
    /// Latency-probe observations: cycles from wakeup to dispatch,
    /// aggregated into a constant-memory histogram (exact count/sum/max;
    /// log-linear percentiles for Table 6's p50/p95/p99 columns).
    pub probe_hist: Histogram,
    /// Times the latency probe ran.
    pub probe_runs: u64,
    /// Times the probe was still pending when its next period arrived.
    pub probe_misses: u64,
    /// Every fault, with measured remedy/rollback costs (Table 3).
    pub fault_records: Vec<FaultRecord>,
    /// Current kernel memory charged for thread management (TCBs + stacks).
    pub thread_kmem: u64,
    /// Peak of [`Stats::thread_kmem`] over the run.
    pub thread_kmem_peak: u64,
    /// Threads created over the run.
    pub threads_created: u64,
    /// Kernel objects created over the run.
    pub objects_created: u64,
    /// Software-TLB counters retired from destroyed spaces (host-side
    /// observability only; live spaces' counters are added on top by
    /// [`crate::Kernel::tlb_stats`]).
    pub tlb_retired: TlbStats,
    /// Enqueues onto the ready queues (the per-CPU queues, or the one
    /// shared queue under `big_lock`).
    pub sched_pushes: u64,
    /// Threads stolen from another CPU's ready queue.
    pub sched_steals: u64,
    /// Steal sweeps attempted by an idle CPU (counted even when every
    /// other queue was empty).
    pub sched_steal_attempts: u64,
    /// Cross-CPU reschedule IPIs requested by priority wakeups.
    pub sched_ipis: u64,
    /// Cycles spent waiting on a contended per-CPU run-queue lock.
    pub runq_wait_cycles: Cycles,
    /// Contended run-queue lock acquisitions.
    pub runq_waits: u64,
    /// Cross-CPU TLB-shootdown IPIs delivered (one per remote CPU with
    /// the mutated space loaded).
    pub tlb_shootdown_ipis: u64,
    /// Total cycles consumed by TLB shootdowns: IPI sends on the
    /// initiating CPU plus ack/invalidate work on the remotes.
    pub tlb_shootdown_cycles: Cycles,
    /// Unified wait-queue operation counters (`kernel.waitq.*`), aggregated
    /// across every queue in the kernel. Host-side observability only.
    pub waitq: crate::waitq::WaitqStats,
    /// Port-handle resolutions through the shared port-namespace lookup
    /// (`kernel.port.index.lookups`).
    pub port_lookups: u64,
    /// Port lookups that chased a cross-space `Ref` indirection
    /// (`kernel.port.index.ref_chases`).
    pub port_ref_chases: u64,
    /// Connection unlinks from a port's connect queue, each an O(1)
    /// indexed tombstone (`kernel.port.index.unlinks_fast`).
    pub conn_unlinks_fast: u64,
    /// One-way messages buffered in the kernel by the batched-submission
    /// path (`kernel.ipc.submit.buffered`).
    pub ipc_submit_buffered: u64,
    /// Descriptor operations completed by `ipc_submit`
    /// (`kernel.ipc.submit.ops`).
    pub ipc_submit_ops: u64,
    /// `ipc_submit` batches fully completed in one return
    /// (`kernel.ipc.submit.batches`).
    pub ipc_submit_batches: u64,
}

impl Stats {
    /// Record a change in thread-management kernel memory.
    pub fn kmem_delta(&mut self, delta: i64) {
        self.thread_kmem = self.thread_kmem.saturating_add_signed(delta);
        self.thread_kmem_peak = self.thread_kmem_peak.max(self.thread_kmem);
    }

    /// Average probe latency in microseconds (Table 6 "avg"). Exact: the
    /// histogram keeps the true count and sum.
    pub fn probe_avg_us(&self) -> f64 {
        if self.probe_hist.is_empty() {
            return 0.0;
        }
        cycles_to_us(self.probe_hist.sum()) / self.probe_hist.count() as f64
    }

    /// Maximum probe latency in microseconds (Table 6 "max"). Exact.
    pub fn probe_max_us(&self) -> f64 {
        cycles_to_us(self.probe_hist.max())
    }

    /// A probe-latency percentile in microseconds (Table 6 p50/p95/p99).
    /// Within the histogram's ~3% bucket error.
    pub fn probe_percentile_us(&self, p: f64) -> f64 {
        cycles_to_us(self.probe_hist.percentile(p))
    }
}

/// Live kernel-memory gauges for thread management, computed from the
/// thread table on demand (Table 7 as a time series). These are *views*:
/// the only live counter behind them is the thread table itself plus the
/// aggregate [`Stats::thread_kmem`], which the invariant
/// `tcb_bytes + kstacks_bytes == thread_kmem` ties together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemGauges {
    /// Live (non-halted) threads.
    pub live_threads: u64,
    /// Bytes of thread control blocks charged (interrupt model; the
    /// process model folds the TCB into the stack page, Table 7).
    pub tcb_bytes: u64,
    /// Bytes of per-thread kernel stacks charged (process model).
    pub kstacks_bytes: u64,
    /// Bytes of kernel stacks *retained* across an in-kernel preemption
    /// (process model only; always 0 under the interrupt model).
    pub retained_kstack_bytes: u64,
}

/// The value of one registered metric.
#[derive(Debug, Clone)]
pub enum KstatValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time level (can go up and down).
    Gauge(u64),
    /// A log-linear latency histogram (the PR-1 [`Histogram`]).
    Hist(Histogram),
}

impl KstatValue {
    /// The kind name used by the text and JSON exports.
    pub fn kind(&self) -> &'static str {
        match self {
            KstatValue::Counter(_) => "counter",
            KstatValue::Gauge(_) => "gauge",
            KstatValue::Hist(_) => "hist",
        }
    }

    /// Scalar payload for counters and gauges (`None` for histograms).
    pub fn scalar(&self) -> Option<u64> {
        match self {
            KstatValue::Counter(v) | KstatValue::Gauge(v) => Some(*v),
            KstatValue::Hist(_) => None,
        }
    }
}

/// One registry entry: the metric's value plus the static inventory
/// pattern it instantiates (`kernel.syscall.<entrypoint>.count` for the
/// per-entrypoint families; identical to the name for singletons).
#[derive(Debug, Clone)]
pub struct KstatEntry {
    /// The DESIGN.md §13 inventory pattern this name instantiates.
    pub pattern: &'static str,
    /// The snapshotted value.
    pub value: KstatValue,
}

/// A deterministic snapshot of every kernel metric, keyed by full
/// dot-separated name. Built on demand by [`Kernel::kstat`]; never held
/// live, so registering costs the hot paths nothing.
#[derive(Debug, Clone, Default)]
pub struct KstatRegistry {
    entries: BTreeMap<String, KstatEntry>,
}

/// True iff `name` matches the registry grammar `[a-z0-9_.]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'.')
}

impl KstatRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn insert(&mut self, name: String, pattern: &'static str, value: KstatValue) {
        assert!(
            valid_name(&name),
            "kstat name {name:?} violates [a-z0-9_.]+"
        );
        let dup = self
            .entries
            .insert(name.clone(), KstatEntry { pattern, value });
        assert!(dup.is_none(), "duplicate kstat name {name:?}");
    }

    /// Register a counter. `name` doubles as its inventory pattern.
    pub fn counter(&mut self, name: &'static str, v: u64) {
        self.insert(name.to_string(), name, KstatValue::Counter(v));
    }

    /// Register a gauge. `name` doubles as its inventory pattern.
    pub fn gauge(&mut self, name: &'static str, v: u64) {
        self.insert(name.to_string(), name, KstatValue::Gauge(v));
    }

    /// Register a histogram. `name` doubles as its inventory pattern.
    pub fn hist(&mut self, name: &'static str, h: Histogram) {
        self.insert(name.to_string(), name, KstatValue::Hist(h));
    }

    /// Register one member of a per-entrypoint counter family: `name` is
    /// the concrete instance, `pattern` the inventory row it belongs to.
    pub fn family_counter(&mut self, name: String, pattern: &'static str, v: u64) {
        self.insert(name, pattern, KstatValue::Counter(v));
    }

    /// All entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &KstatEntry)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a metric by full name.
    pub fn get(&self, name: &str) -> Option<&KstatValue> {
        self.entries.get(name).map(|e| &e.value)
    }

    /// Scalar value of a counter/gauge metric (`None` if absent or a
    /// histogram).
    pub fn scalar(&self, name: &str) -> Option<u64> {
        self.get(name).and_then(|v| v.scalar())
    }

    /// The flat text dump: one `name kind value` line per metric, sorted.
    /// With `include_zeros` false, zero-valued counters/gauges and empty
    /// histograms are elided (the dashboard view).
    pub fn dump_text(&self, include_zeros: bool) -> String {
        let mut out = String::new();
        for (name, e) in &self.entries {
            match &e.value {
                KstatValue::Counter(v) | KstatValue::Gauge(v) => {
                    if *v == 0 && !include_zeros {
                        continue;
                    }
                    out.push_str(&format!("{name} {} {v}\n", e.value.kind()));
                }
                KstatValue::Hist(h) => {
                    if h.is_empty() && !include_zeros {
                        continue;
                    }
                    out.push_str(&format!(
                        "{name} hist count={} sum={} min={} max={} p50={} p95={} p99={}\n",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max(),
                        h.percentile(50.0),
                        h.percentile(95.0),
                        h.percentile(99.0),
                    ));
                }
            }
        }
        out
    }

    /// Export as a nested JSON tree: each dot segment becomes an object
    /// level, each leaf an object with `kind` and its payload. Key order
    /// is deterministic ([`Json::Obj`] is a `BTreeMap`).
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj();
        for (name, e) in &self.entries {
            let leaf = match &e.value {
                KstatValue::Counter(v) | KstatValue::Gauge(v) => {
                    let mut o = Json::obj();
                    o.set("kind", Json::Str(e.value.kind().to_string()));
                    o.set("value", Json::from_u64(*v));
                    o
                }
                KstatValue::Hist(h) => {
                    let mut o = Json::obj();
                    o.set("kind", Json::Str("hist".to_string()));
                    o.set("count", Json::from_u64(h.count()));
                    o.set("sum", Json::from_u64(h.sum()));
                    o.set("min", Json::from_u64(h.min()));
                    o.set("max", Json::from_u64(h.max()));
                    o.set("p50", Json::from_u64(h.percentile(50.0)));
                    o.set("p95", Json::from_u64(h.percentile(95.0)));
                    o.set("p99", Json::from_u64(h.percentile(99.0)));
                    o
                }
            };
            // Walk/create the object spine for all but the last segment.
            let segs: Vec<&str> = name.split('.').collect();
            let mut node = &mut root;
            for s in &segs[..segs.len() - 1] {
                if node.get(s).is_none() {
                    node.set(s, Json::obj());
                }
                let Json::Obj(m) = node else { unreachable!() };
                node = m.get_mut(*s).expect("just inserted");
            }
            node.set(segs[segs.len() - 1], leaf);
        }
        root
    }
}

impl Kernel {
    /// Live kernel-memory gauges, computed from the thread table (see
    /// [`MemGauges`]).
    pub fn mem_gauges(&self) -> MemGauges {
        let mut g = MemGauges::default();
        for (_, th) in self.threads.iter() {
            if th.is_halted() {
                continue;
            }
            g.live_threads += 1;
            match self.cfg.model {
                crate::config::ExecModel::Process => {
                    g.kstacks_bytes += self.cfg.kstack_bytes as u64;
                    if th.kstack_retained {
                        g.retained_kstack_bytes += self.cfg.kstack_bytes as u64;
                    }
                }
                crate::config::ExecModel::Interrupt => g.tcb_bytes += self.cfg.tcb_bytes as u64,
            }
        }
        g
    }

    /// Snapshot every kernel metric into a [`KstatRegistry`].
    ///
    /// The registry is a pure *view*: each entry is read from its single
    /// live source (see the module docs), so building it perturbs nothing
    /// and two snapshots of identical kernels are identical.
    pub fn kstat(&self) -> KstatRegistry {
        let mut r = KstatRegistry::new();
        let s = &self.stats;

        r.counter("kernel.syscall.count", s.syscalls);
        r.counter("kernel.syscall.restarts", s.restarts);
        for d in SYSCALLS {
            let n = s.per_sys.get(d.sys);
            if n > 0 {
                r.family_counter(
                    format!("kernel.syscall.{}.count", d.sys.name()),
                    "kernel.syscall.<entrypoint>.count",
                    n,
                );
            }
            // Process-wide auditor hits (accumulated across every kernel
            // this process built — the coverage view, not a per-run one).
            let hits = block_audit_hits(d.sys);
            if hits > 0 {
                r.family_counter(
                    format!("kernel.syscall.{}.audit_blocks", d.sys.name()),
                    "kernel.syscall.<entrypoint>.audit_blocks",
                    hits,
                );
            }
        }

        r.counter("kernel.sched.ctx_switches", s.ctx_switches);
        r.counter("kernel.sched.space_switches", s.space_switches);
        r.counter("kernel.sched.user_preemptions", s.user_preemptions);
        r.counter("kernel.sched.kernel_preemptions", s.kernel_preemptions);
        r.counter("kernel.sched.preempt_points_taken", s.preempt_points_taken);
        r.counter("kernel.sched.percpu.pushes", s.sched_pushes);
        r.counter("kernel.sched.percpu.steals", s.sched_steals);
        r.counter("kernel.sched.percpu.steal_attempts", s.sched_steal_attempts);
        r.counter("kernel.sched.percpu.ipis", s.sched_ipis);
        r.counter("kernel.contention.runq.wait_cycles", s.runq_wait_cycles);
        r.counter("kernel.contention.runq.waits", s.runq_waits);

        r.counter("kernel.fault.soft", s.soft_faults);
        r.counter("kernel.fault.hard", s.hard_faults);
        r.counter("kernel.fault.fatal", s.fatal_faults);
        r.counter("kernel.fault.injected.timer", s.faults_injected[0]);
        r.counter(
            "kernel.fault.injected.extract_restore",
            s.faults_injected[1],
        );
        r.counter("kernel.fault.injected.page_flush", s.faults_injected[2]);
        r.counter("kernel.fault.injected.transient", s.faults_injected[3]);

        r.counter("kernel.cycles.user", s.user_cycles);
        r.counter("kernel.cycles.kernel", s.kernel_cycles);
        r.counter("kernel.cycles.idle", s.idle_cycles);
        r.counter("kernel.cycles.rollback", s.rollback_cycles);
        r.counter("kernel.cycles.klock", s.klock_cycles);
        r.counter("kernel.cycles.klock_wait", s.klock_wait_cycles);

        r.counter("kernel.ipc.bytes", s.ipc_bytes);
        r.counter("kernel.ipc.messages", s.ipc_messages);
        r.counter("kernel.ipc.submit.buffered", s.ipc_submit_buffered);
        r.counter("kernel.ipc.submit.ops", s.ipc_submit_ops);
        r.counter("kernel.ipc.submit.batches", s.ipc_submit_batches);

        r.counter("kernel.waitq.enqueues", s.waitq.enqueues);
        r.counter("kernel.waitq.requeues", s.waitq.requeues);
        r.counter("kernel.waitq.wakes", s.waitq.wakes);
        r.counter("kernel.waitq.wake_alls", s.waitq.wake_alls);
        r.counter("kernel.waitq.cancels", s.waitq.cancels);
        r.counter(
            "kernel.waitq.tombstones_skipped",
            s.waitq.tombstones_skipped,
        );
        r.counter("kernel.waitq.compactions", s.waitq.compactions);

        r.counter("kernel.port.index.lookups", s.port_lookups);
        r.counter("kernel.port.index.ref_chases", s.port_ref_chases);
        r.counter("kernel.port.index.unlinks_fast", s.conn_unlinks_fast);

        let tlb = self.tlb_stats();
        r.counter("kernel.tlb.hits", tlb.hits);
        r.counter("kernel.tlb.misses", tlb.misses);
        r.counter("kernel.tlb.shootdowns", tlb.shootdowns);
        r.counter("kernel.tlb.shootdown.ipis", s.tlb_shootdown_ipis);
        r.counter("kernel.tlb.shootdown.cycles", s.tlb_shootdown_cycles);

        let mem = self.mem_gauges();
        r.gauge("kernel.mem.kmem_bytes", s.thread_kmem);
        r.gauge("kernel.mem.kmem_peak_bytes", s.thread_kmem_peak);
        r.gauge("kernel.mem.tcb_bytes", mem.tcb_bytes);
        r.gauge("kernel.mem.kstacks_bytes", mem.kstacks_bytes);
        r.gauge(
            "kernel.mem.kstacks_retained_bytes",
            mem.retained_kstack_bytes,
        );

        r.gauge("kernel.thread.live", mem.live_threads);
        r.counter("kernel.thread.created", s.threads_created);
        r.counter("kernel.object.created", s.objects_created);

        // Snapshot-engine counters: live in the recorder (outside every
        // snapshot, so a restored kernel replays bit-identically), emitted
        // always — zeros when recording is off — so the inventory has
        // deterministic instances.
        let (snap_taken, snap_dropped, snap_bytes, snap_windows) = self
            .krec
            .as_ref()
            .map(|k| {
                (
                    k.taken(),
                    k.dropped(),
                    k.bytes_total(),
                    k.windows().len() as u64,
                )
            })
            .unwrap_or((0, 0, 0, 0));
        r.counter("kernel.snap.taken", snap_taken);
        r.counter("kernel.snap.dropped", snap_dropped);
        r.counter("kernel.snap.bytes", snap_bytes);
        r.counter("kernel.snap.windows", snap_windows);

        r.counter("kernel.probe.runs", s.probe_runs);
        r.counter("kernel.probe.misses", s.probe_misses);
        r.hist("kernel.probe.latency_cycles", s.probe_hist.clone());

        let recorded: u64 = (0..self.cfg.num_cpus)
            .filter_map(|c| self.trace.ring(c))
            .map(|ring| ring.total_recorded())
            .sum();
        r.counter("kernel.trace.recorded", recorded);
        r.counter("kernel.trace.dropped", self.trace.dropped_total());

        r.hist(
            "kernel.kprof.preempt_latency_cycles",
            self.kprof.preempt_latency().clone(),
        );

        // Flow-integrity checking (zeros when the checker is off, so the
        // rows — and the documented inventory — are always present).
        r.counter("kernel.flowcheck.checks", self.flowcheck.checks);
        r.counter(
            "kernel.flowcheck.violations",
            self.flowcheck.violations_total,
        );
        // Process-wide kfuzz campaign counters (like the auditor coverage
        // counters above: they accumulate across every kernel this
        // process built, and read zero outside a fuzzing run).
        r.counter("kernel.fuzz.programs", crate::kfuzz::programs_run());
        r.counter("kernel.fuzz.signatures", crate::kfuzz::signatures_seen());
        r.counter("kernel.fuzz.findings", crate::kfuzz::findings_seen());

        if self.kspan.enabled {
            r.counter("kernel.kspan.requests", self.kspan.completed().len() as u64);
            r.counter("kernel.kspan.aborted", self.kspan.aborted());
            r.counter("kernel.kspan.flows", self.kspan.flows());
            r.hist(
                "kernel.kspan.e2e_cycles",
                self.kspan.e2e_histogram().clone(),
            );
            // One row pair per object kind and per lock class, zeros
            // included, so the row set never depends on the workload.
            let mut objects = [ObjectContention::default(); ObjKind::NAMES.len()];
            let mut locks = [ObjectContention::default(); LockClass::NAMES.len()];
            for (key, c) in self.kspan.contention() {
                let sum = match *key {
                    Contended::Object(kind, _) => &mut objects[kind as usize],
                    Contended::Lock(class) => &mut locks[class as usize],
                };
                sum.wait_cycles += c.wait_cycles;
                sum.waits += c.waits;
            }
            for (kind, c) in ObjKind::NAMES.iter().zip(objects) {
                r.family_counter(
                    format!("kernel.contention.object.{kind}.wait_cycles"),
                    "kernel.contention.object.<kind>.wait_cycles",
                    c.wait_cycles,
                );
                r.family_counter(
                    format!("kernel.contention.object.{kind}.waits"),
                    "kernel.contention.object.<kind>.waits",
                    c.waits,
                );
            }
            for (class, c) in LockClass::NAMES.iter().zip(locks) {
                r.family_counter(
                    format!("kernel.contention.lock.{class}.wait_cycles"),
                    "kernel.contention.lock.<class>.wait_cycles",
                    c.wait_cycles,
                );
                r.family_counter(
                    format!("kernel.contention.lock.{class}.waits"),
                    "kernel.contention.lock.<class>.waits",
                    c.waits,
                );
            }
        }

        r
    }
}

// --- krec snapshot support ------------------------------------------------

use crate::krec::{snap_enum, snap_struct, Snap, SnapError, SnapReader, SnapWriter};

snap_enum!(FaultSide {
    0 => Client,
    1 => Server,
    2 => Other,
});

snap_enum!(FaultKind {
    0 => Soft,
    1 => Hard,
});

snap_struct!(FaultRecord {
    side,
    kind,
    remedy_cycles,
    rollback_cycles,
    during_ipc,
    at,
});

impl Snap for PerSysCounts {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v: Vec<u64> = Snap::restore(r)?;
        if v.len() != SYSCALL_COUNT {
            return Err(SnapError::Invalid("per-entrypoint count width"));
        }
        Ok(PerSysCounts(v))
    }
}

snap_struct!(MemGauges {
    live_threads,
    tcb_bytes,
    kstacks_bytes,
    retained_kstack_bytes,
});

snap_struct!(Stats {
    syscalls,
    restarts,
    per_sys,
    ctx_switches,
    space_switches,
    soft_faults,
    hard_faults,
    fatal_faults,
    faults_injected,
    user_cycles,
    kernel_cycles,
    idle_cycles,
    rollback_cycles,
    klock_cycles,
    klock_wait_cycles,
    ipc_bytes,
    ipc_messages,
    preempt_points_taken,
    kernel_preemptions,
    user_preemptions,
    probe_hist,
    probe_runs,
    probe_misses,
    fault_records,
    thread_kmem,
    thread_kmem_peak,
    threads_created,
    objects_created,
    tlb_retired,
    sched_pushes,
    sched_steals,
    sched_steal_attempts,
    sched_ipis,
    runq_wait_cycles,
    runq_waits,
    tlb_shootdown_ipis,
    tlb_shootdown_cycles,
    waitq,
    port_lookups,
    port_ref_chases,
    conn_unlinks_fast,
    ipc_submit_buffered,
    ipc_submit_ops,
    ipc_submit_batches,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmem_tracks_peak() {
        let mut s = Stats::default();
        s.kmem_delta(4096);
        s.kmem_delta(4096);
        assert_eq!(s.thread_kmem, 8192);
        assert_eq!(s.thread_kmem_peak, 8192);
        s.kmem_delta(-4096);
        assert_eq!(s.thread_kmem, 4096);
        assert_eq!(s.thread_kmem_peak, 8192);
    }

    #[test]
    fn probe_latency_summaries() {
        let mut s = Stats::default();
        assert_eq!(s.probe_avg_us(), 0.0);
        for c in [200, 400, 600] {
            s.probe_hist.record(c); // 1µs, 2µs, 3µs
        }
        assert!((s.probe_avg_us() - 2.0).abs() < 1e-9);
        assert!((s.probe_max_us() - 3.0).abs() < 1e-9);
        // p100 is the exact max; lower percentiles stay within bucket error.
        assert!((s.probe_percentile_us(100.0) - 3.0).abs() < 1e-9);
        assert!(s.probe_percentile_us(50.0) <= s.probe_percentile_us(99.0));
    }

    #[test]
    fn kmem_never_underflows() {
        let mut s = Stats::default();
        s.kmem_delta(-100);
        assert_eq!(s.thread_kmem, 0);
    }

    #[test]
    fn per_sys_counts_cover_every_entrypoint() {
        let mut p = PerSysCounts::default();
        for d in SYSCALLS {
            p.bump(d.sys);
        }
        assert_eq!(p.total(), SYSCALL_COUNT as u64);
        assert_eq!(p.get(Sys::ThreadSelf), 1);
    }

    #[test]
    fn name_grammar() {
        assert!(valid_name("kernel.tlb.hits"));
        assert!(valid_name("kernel.syscall.ipc_send_oneway.count"));
        assert!(!valid_name(""));
        assert!(!valid_name("Kernel.tlb"));
        assert!(!valid_name("kernel tlb"));
        assert!(!valid_name("kernel-tlb"));
    }

    #[test]
    #[should_panic(expected = "duplicate kstat name")]
    fn duplicate_names_rejected() {
        let mut r = KstatRegistry::new();
        r.counter("kernel.x", 1);
        r.counter("kernel.x", 2);
    }

    #[test]
    fn registry_exports_nested_json_and_flat_text() {
        let mut r = KstatRegistry::new();
        r.counter("kernel.tlb.hits", 7);
        r.gauge("kernel.mem.kmem_bytes", 4096);
        let mut h = Histogram::new();
        h.record(10);
        r.hist("kernel.probe.latency_cycles", h);

        let text = r.dump_text(true);
        assert!(text.contains("kernel.tlb.hits counter 7"));
        assert!(text.contains("kernel.mem.kmem_bytes gauge 4096"));
        assert!(text.contains("kernel.probe.latency_cycles hist count=1"));

        let j = r.to_json();
        let hits = j
            .get("kernel")
            .and_then(|k| k.get("tlb"))
            .and_then(|t| t.get("hits"))
            .expect("nested path");
        assert_eq!(hits.get("kind").and_then(|k| k.as_str()), Some("counter"));
        assert_eq!(hits.get("value").and_then(|v| v.as_u64()), Some(7));
    }

    #[test]
    fn zero_elision_in_text_dump() {
        let mut r = KstatRegistry::new();
        r.counter("kernel.a", 0);
        r.counter("kernel.b", 3);
        r.hist("kernel.h", Histogram::new());
        assert_eq!(r.dump_text(false), "kernel.b counter 3\n");
        assert_eq!(r.dump_text(true).lines().count(), 3);
    }
}

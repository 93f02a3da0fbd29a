//! Kernel build configuration: execution model × preemption.
//!
//! The paper's Table 4 defines five kernel configurations. Fluke selected
//! among them with compile-time options touching only the entry/exit,
//! context-switch and locking code; we reproduce that with a runtime
//! [`Config`] consulted at exactly those points, so a single kernel source
//! serves every configuration (the paper's point (iii)).

use fluke_arch::cost::{ms_to_cycles, Cycles};

use crate::kfault::KfaultConfig;

/// Largest supported simulated-CPU count. The conservative discrete-event
/// scheduler is O(`num_cpus`) per action, so the cap is a cost guard, not
/// a correctness limit; 64 covers the MP-scaling headline experiment.
pub const MAX_CPUS: usize = 64;

/// A structured configuration-validation failure ([`Config::validate`]).
///
/// Carried as data (not a panic) so embedders — benches sweeping CPU
/// counts, config fuzzers — can reject bad configurations gracefully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// Full kernel preemption relies on preempted threads retaining
    /// kernel stacks, which the interrupt model does not have (§5.2).
    InterruptModelWithFullPreemption,
    /// `num_cpus == 0`.
    NoCpus,
    /// `num_cpus` above [`MAX_CPUS`].
    TooManyCpus {
        /// The requested CPU count.
        requested: usize,
        /// The supported maximum ([`MAX_CPUS`]).
        max: usize,
    },
    /// Process model with `kstack_bytes == 0`.
    ProcessModelWithoutKstack,
    /// Tracing enabled with a zero-capacity ring.
    ZeroCapacityTraceRing,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InterruptModelWithFullPreemption => {
                write!(
                    f,
                    "full kernel preemption is incompatible with the interrupt model"
                )
            }
            ConfigError::NoCpus => write!(f, "at least one CPU required"),
            ConfigError::TooManyCpus { requested, max } => {
                write!(f, "{requested} CPUs requested; at most {max} supported")
            }
            ConfigError::ProcessModelWithoutKstack => {
                write!(f, "process model requires a per-thread kernel stack")
            }
            ConfigError::ZeroCapacityTraceRing => {
                write!(f, "tracing enabled with a zero-capacity ring")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The kernel's internal execution model (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecModel {
    /// One kernel stack per thread; blocked threads retain kernel context,
    /// and context switches save/restore kernel-mode registers.
    Process,
    /// One kernel stack per processor; blocked threads hold *no* kernel
    /// state beyond their user-visible registers, which the atomic API
    /// guarantees are always a complete continuation.
    Interrupt,
}

impl ExecModel {
    /// True for the interrupt model.
    pub fn is_interrupt(self) -> bool {
        matches!(self, ExecModel::Interrupt)
    }
}

/// Kernel preemptibility (paper Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preemption {
    /// No kernel preemption: timer interrupts arriving in kernel mode are
    /// latched and delivered at kernel exit.
    None,
    /// Partial: one explicit preemption point on the IPC data-copy path,
    /// checked after every 8KB transferred. No kernel locking needed.
    Partial,
    /// Full: kernel code preemptible outside the scheduler core; kernel
    /// data protected by blocking mutexes (process model only — full
    /// preemption relies on preempted threads retaining kernel stacks).
    Full,
}

/// Bytes transferred between explicit preemption-point checks in the
/// `Partial` configuration (paper Table 4: "checked after every 8k").
pub const PP_CHUNK_BYTES: u32 = 8192;

/// Configuration of the `ktrace` flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether kernel events are recorded. Off by default: a disabled
    /// tracer costs one predictable branch per emission site and
    /// allocates nothing.
    pub enabled: bool,
    /// Per-CPU ring capacity in records; overflow drops the oldest
    /// records and counts them.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            ring_capacity: 65_536,
        }
    }
}

/// A complete kernel configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Execution model.
    pub model: ExecModel,
    /// Preemption style.
    pub preempt: Preemption,
    /// Number of simulated processors.
    pub num_cpus: usize,
    /// Per-thread kernel stack size in bytes (process model only). The
    /// paper's Table 7 measures both the 4K "debug/driver" and the 1K
    /// "production" stack size.
    pub kstack_bytes: u32,
    /// Thread control block size in bytes charged per thread (the paper's
    /// interrupt-model Fluke TCB is 300 bytes).
    pub tcb_bytes: u32,
    /// Scheduler timeslice in cycles.
    pub timeslice: Cycles,
    /// Kernel tracing (`ktrace`) knob.
    pub trace: TraceConfig,
    /// Cycle-attribution profiling (`kprof`) knob. Off by default: a
    /// disabled profiler costs one predictable branch per hook and never
    /// perturbs simulated quantities either way (the attribution reads
    /// the same charges the kernel makes regardless).
    pub kprof: bool,
    /// Causal request tracing and critical-path attribution (`kspan`)
    /// knob. Off by default: a disabled layer costs one predictable
    /// branch per hook; enabled, it observes the same simulated clocks
    /// and transitions the kernel performs regardless, so runs are
    /// bit-identical either way (the golden-digest proof obligation).
    pub kspan: bool,
    /// Syscall-flow integrity checking (`flowcheck`) knob. Off by
    /// default: a disabled checker costs one predictable branch per
    /// syscall completion. Enabled, it shadows every object lifecycle
    /// (create → use → move → destroy, per the `SysDesc`-derived flow
    /// graph) and every blocked call's restart re-entry against
    /// `fluke_api::flow`, recording violations as structured data on the
    /// host side — it never changes simulated state, charges, or
    /// results, so runs are bit-identical either way.
    pub flowcheck: bool,
    /// Use the software-TLB + page-run bulk memory fast path (host-side
    /// only: simulated cycle charges, traces and stats are bit-identical
    /// with this on or off). Off selects the uncached byte-at-a-time
    /// reference implementation, kept as a differential-testing oracle and
    /// benchmark baseline.
    pub fast_mem: bool,
    /// Adversarial fault injection (`kfault`) arming. `None` by default:
    /// a disarmed engine is a single predictable branch per hook; an
    /// engine armed in count-only mode changes no simulated quantity
    /// either (the golden-digest proof obligation).
    pub kfault: Option<KfaultConfig>,
    /// Serialize every kernel entry on the legacy big kernel lock and use
    /// one global ready queue. Off by default: multiprocessor kernels use
    /// the fine-grained per-object-class lock model with per-CPU run
    /// queues and deterministic work stealing. Kept (like
    /// `fast_mem(false)`) as a differential oracle and the baseline the
    /// MP-scaling experiment is measured against. Uniprocessor behavior
    /// is bit-identical either way.
    pub big_lock: bool,
    /// Use the O(1) generation-tagged port-namespace index: wait-queue
    /// cancels tombstone instead of linearly sweeping, and connection
    /// unlinks from port connect queues are hash-indexed (host-side only:
    /// simulated cycle charges, traces and stats are bit-identical with
    /// this on or off). Off selects the linear eager-removal reference
    /// path, kept as a differential-testing oracle and benchmark baseline.
    pub port_index: bool,
    /// A short human-readable label ("Process NP" etc.).
    pub label: &'static str,
    /// Deterministic whole-kernel snapshot recording (`krec`) arming.
    /// `None` by default: an unarmed kernel's `run` is byte-for-byte the
    /// pre-krec code path. Armed, the recorder serializes kernel state at
    /// dispatch boundaries into a bounded host-side ring and logs every
    /// `run` call as a digest-bracketed window — all outside the simulated
    /// machine, so runs are bit-identical either way (the golden-digest
    /// proof obligation, pinned by `krec_zero_perturbation.rs`).
    pub krec: Option<crate::krec::KrecConfig>,
}

impl Config {
    /// Process model, no kernel preemption (the paper's baseline;
    /// "comparable to a uniprocessor Unix system").
    pub fn process_np() -> Self {
        Config {
            model: ExecModel::Process,
            preempt: Preemption::None,
            num_cpus: 1,
            kstack_bytes: 4096,
            tcb_bytes: 690, // process-model TCB, folded into stack page in Table 7
            timeslice: ms_to_cycles(10),
            trace: TraceConfig::default(),
            kprof: false,
            kspan: false,
            flowcheck: false,
            fast_mem: true,
            kfault: None,
            big_lock: false,
            port_index: true,
            label: "Process NP",
            krec: None,
        }
    }

    /// Process model with the partial-preemption IPC copy point.
    pub fn process_pp() -> Self {
        Config {
            preempt: Preemption::Partial,
            label: "Process PP",
            ..Self::process_np()
        }
    }

    /// Process model with full kernel preemption (blocking kernel locks).
    pub fn process_fp() -> Self {
        Config {
            preempt: Preemption::Full,
            label: "Process FP",
            ..Self::process_np()
        }
    }

    /// Interrupt model, no kernel preemption.
    pub fn interrupt_np() -> Self {
        Config {
            model: ExecModel::Interrupt,
            preempt: Preemption::None,
            num_cpus: 1,
            kstack_bytes: 0,
            tcb_bytes: 300, // paper Table 7: Fluke interrupt-model TCB
            timeslice: ms_to_cycles(10),
            trace: TraceConfig::default(),
            kprof: false,
            kspan: false,
            flowcheck: false,
            fast_mem: true,
            kfault: None,
            big_lock: false,
            port_index: true,
            label: "Interrupt NP",
            krec: None,
        }
    }

    /// Interrupt model with the partial-preemption IPC copy point.
    pub fn interrupt_pp() -> Self {
        Config {
            preempt: Preemption::Partial,
            label: "Interrupt PP",
            ..Self::interrupt_np()
        }
    }

    /// All five Table 4 configurations, in the paper's order.
    pub fn all_five() -> Vec<Config> {
        vec![
            Self::process_np(),
            Self::process_pp(),
            Self::process_fp(),
            Self::interrupt_np(),
            Self::interrupt_pp(),
        ]
    }

    /// The four comparable configurations: process vs interrupt model ×
    /// no vs partial preemption. Full preemption exists only in the
    /// process model, so it has no cross-model partner; the differential
    /// checkers (see [`crate::oracle`]) run these four.
    pub fn comparable() -> Vec<Config> {
        vec![
            Self::process_np(),
            Self::interrupt_np(),
            Self::process_pp(),
            Self::interrupt_pp(),
        ]
    }

    /// Validate the configuration. Full preemption fundamentally relies on
    /// preempted threads retaining kernel stacks, so it is incompatible
    /// with the interrupt model (paper §5.2). Out-of-range values come
    /// back as structured [`ConfigError`]s, never panics.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.model.is_interrupt() && self.preempt == Preemption::Full {
            return Err(ConfigError::InterruptModelWithFullPreemption);
        }
        if self.num_cpus == 0 {
            return Err(ConfigError::NoCpus);
        }
        if self.num_cpus > MAX_CPUS {
            return Err(ConfigError::TooManyCpus {
                requested: self.num_cpus,
                max: MAX_CPUS,
            });
        }
        if self.model == ExecModel::Process && self.kstack_bytes == 0 {
            return Err(ConfigError::ProcessModelWithoutKstack);
        }
        if self.trace.enabled && self.trace.ring_capacity == 0 {
            return Err(ConfigError::ZeroCapacityTraceRing);
        }
        Ok(())
    }

    /// Kernel memory charged per thread (Table 7 accounting): in the
    /// process model each thread owns a kernel stack; in the interrupt
    /// model only the TCB.
    pub fn per_thread_kmem(&self) -> u64 {
        match self.model {
            ExecModel::Process => self.kstack_bytes as u64,
            ExecModel::Interrupt => self.tcb_bytes as u64,
        }
    }

    /// Use the small "production" 1K kernel stacks (process model).
    pub fn with_small_stacks(mut self) -> Self {
        self.kstack_bytes = 1024;
        self
    }

    /// Select or deselect the memory fast path (see [`Config::fast_mem`]).
    pub fn with_fast_mem(mut self, fast: bool) -> Self {
        self.fast_mem = fast;
        self
    }

    /// Enable the `kprof` cycle-attribution profiler.
    pub fn with_kprof(mut self) -> Self {
        self.kprof = true;
        self
    }

    /// Enable the `kspan` causal request-tracing layer.
    pub fn with_kspan(mut self) -> Self {
        self.kspan = true;
        self
    }

    /// Enable the `flowcheck` syscall-flow integrity checker (see
    /// [`Config::flowcheck`]).
    pub fn with_flowcheck(mut self) -> Self {
        self.flowcheck = true;
        self
    }

    /// Arm the `kfault` deterministic fault-injection engine.
    pub fn with_kfault(mut self, kf: KfaultConfig) -> Self {
        self.kfault = Some(kf);
        self
    }

    /// Arm the `krec` deterministic snapshot recorder (see [`Config::krec`]).
    pub fn with_krec(mut self, kr: crate::krec::KrecConfig) -> Self {
        self.krec = Some(kr);
        self
    }

    /// Enable `ktrace` with per-CPU rings of `ring_capacity` records.
    pub fn with_tracing(mut self, ring_capacity: usize) -> Self {
        self.trace = TraceConfig {
            enabled: true,
            ring_capacity,
        };
        self
    }

    /// Select or deselect the O(1) port-namespace index (see
    /// [`Config::port_index`]). `false` runs the linear eager-removal
    /// reference path as a differential oracle.
    pub fn with_port_index(mut self, indexed: bool) -> Self {
        self.port_index = indexed;
        self
    }

    /// Select the legacy big-kernel-lock execution (see
    /// [`Config::big_lock`]): every kernel entry serializes on one lock
    /// and all CPUs share one global ready queue.
    pub fn with_big_lock(mut self, big: bool) -> Self {
        self.big_lock = big;
        self
    }

    /// Run on `n` simulated processors (up to [`MAX_CPUS`]).
    /// Multiprocessor kernels default to fine-grained per-object-class
    /// locking with per-CPU run queues; `with_big_lock(true)` restores
    /// the serialized legacy behavior (the NP/PP rows of Table 4 need no
    /// locking only on a uniprocessor).
    pub fn with_cpus(mut self, n: usize) -> Self {
        self.num_cpus = n;
        self.label = match (self.label, n > 1) {
            (l, false) => l,
            ("Process NP", _) => "Process NP (MP)",
            ("Process PP", _) => "Process PP (MP)",
            ("Process FP", _) => "Process FP (MP)",
            ("Interrupt NP", _) => "Interrupt NP (MP)",
            ("Interrupt PP", _) => "Interrupt PP (MP)",
            (l, _) => l,
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_configurations_validate() {
        let all = Config::all_five();
        assert_eq!(all.len(), 5);
        for c in &all {
            c.validate().unwrap();
        }
        assert_eq!(all[0].label, "Process NP");
        assert_eq!(all[4].label, "Interrupt PP");
    }

    #[test]
    fn interrupt_full_preemption_rejected() {
        let mut c = Config::interrupt_np();
        c.preempt = Preemption::Full;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_cpus_rejected() {
        let mut c = Config::process_np();
        c.num_cpus = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoCpus));
    }

    #[test]
    fn cpu_cap_is_sixty_four_with_structured_error() {
        // Regression: the cap used to be a silent 16; it is now MAX_CPUS
        // (64) and overruns come back as structured data, not a panic.
        assert_eq!(MAX_CPUS, 64);
        for n in [1, 2, 16, 17, 32, 64] {
            Config::process_pp().with_cpus(n).validate().unwrap();
            Config::interrupt_np().with_cpus(n).validate().unwrap();
        }
        let err = Config::process_np().with_cpus(65).validate();
        assert_eq!(
            err,
            Err(ConfigError::TooManyCpus {
                requested: 65,
                max: 64
            })
        );
        let msg = err.unwrap_err().to_string();
        assert!(msg.contains("65") && msg.contains("64"), "{msg}");
    }

    #[test]
    fn big_lock_knob_defaults_off() {
        for c in Config::all_five() {
            assert!(!c.big_lock, "{}", c.label);
        }
        let c = Config::process_pp().with_cpus(4).with_big_lock(true);
        assert!(c.big_lock);
        c.validate().unwrap();
    }

    #[test]
    fn port_index_knob_defaults_on() {
        for c in Config::all_five() {
            assert!(c.port_index, "{}", c.label);
        }
        let c = Config::process_pp().with_port_index(false);
        assert!(!c.port_index);
        c.validate().unwrap();
    }

    #[test]
    fn per_thread_memory_matches_table_7() {
        assert_eq!(Config::process_np().per_thread_kmem(), 4096);
        assert_eq!(
            Config::process_np().with_small_stacks().per_thread_kmem(),
            1024
        );
        assert_eq!(Config::interrupt_np().per_thread_kmem(), 300);
    }

    #[test]
    fn tracing_knob_defaults_off_and_validates() {
        let c = Config::process_np();
        assert!(!c.trace.enabled);
        let c = c.with_tracing(1 << 12);
        assert!(c.trace.enabled);
        assert_eq!(c.trace.ring_capacity, 1 << 12);
        c.validate().unwrap();
        let mut bad = Config::process_np().with_tracing(0);
        assert!(bad.validate().is_err());
        bad.trace.enabled = false;
        bad.validate().unwrap();
    }

    #[test]
    fn kprof_knob_defaults_off() {
        for c in Config::all_five() {
            assert!(!c.kprof, "{}", c.label);
        }
        let c = Config::process_np().with_kprof();
        assert!(c.kprof);
        c.validate().unwrap();
    }

    #[test]
    fn kspan_knob_defaults_off() {
        for c in Config::all_five() {
            assert!(!c.kspan, "{}", c.label);
        }
        let c = Config::process_np().with_kspan();
        assert!(c.kspan);
        c.validate().unwrap();
        let c = Config::interrupt_pp().with_kprof().with_kspan();
        assert!(c.kprof && c.kspan);
        c.validate().unwrap();
    }

    #[test]
    fn flowcheck_knob_defaults_off() {
        for c in Config::all_five() {
            assert!(!c.flowcheck, "{}", c.label);
        }
        let c = Config::process_np().with_flowcheck();
        assert!(c.flowcheck);
        c.validate().unwrap();
        let c = Config::interrupt_pp().with_flowcheck().with_kprof();
        assert!(c.flowcheck && c.kprof);
        c.validate().unwrap();
    }

    #[test]
    fn kfault_knob_defaults_off() {
        use crate::kfault::KfaultKind;
        for c in Config::all_five() {
            assert!(c.kfault.is_none(), "{}", c.label);
        }
        let c = Config::process_np().with_kfault(KfaultConfig::at(KfaultKind::Timer, 3));
        assert_eq!(c.kfault, Some(KfaultConfig::at(KfaultKind::Timer, 3)));
        c.validate().unwrap();
        let c =
            Config::interrupt_pp().with_kfault(KfaultConfig::count_sites(KfaultKind::Transient));
        assert_eq!(c.kfault.unwrap().site, KfaultConfig::COUNT_ONLY);
        c.validate().unwrap();
    }

    #[test]
    fn process_model_without_stack_rejected() {
        let mut c = Config::process_np();
        c.kstack_bytes = 0;
        assert!(c.validate().is_err());
    }
}

//! Snapshot round-trip property tests: `snapshot → restore → snapshot` is
//! byte-identical for kernels paused in rich mid-flight states — arena
//! holes and destroyed-handle tombstones, mid-IPC transfers, non-empty
//! wait queues — and restored kernels re-execute to bit-identical digests.
//!
//! Randomization is a seeded LCG (deterministic in CI, varied shapes): it
//! picks run-slice lengths and snapshot points, so the states captured are
//! not hand-chosen quiescent ones.

use fluke_api::Sys;
use fluke_arch::Assembler;
use fluke_bench::kfault_sweep::SweepWorkload;
use fluke_core::krec::{fnv64, Snap, SnapError, SnapWriter, FNV_OFFSET};
use fluke_core::{Config, Kernel, KrecConfig, Replayer, Snapshot};
use fluke_user::proc::ChildProc;
use fluke_user::FlukeAsm;

/// Restore a snapshot and prove the re-encode is byte-identical and the
/// hash-only digest agrees with the trailer.
fn assert_roundtrip(s: &Snapshot, what: &str) {
    let k =
        Kernel::restore_from(&s.bytes).unwrap_or_else(|e| panic!("{what}: restore failed: {e}"));
    let again = k
        .snapshot_bytes()
        .unwrap_or_else(|e| panic!("{what}: re-encode failed: {e}"));
    assert_eq!(
        again, s.bytes,
        "{what}: snapshot→restore→snapshot not byte-identical"
    );
    assert_eq!(
        k.state_digest().unwrap(),
        s.digest(),
        "{what}: hash-only digest disagrees with trailer"
    );
}

/// Mid-IPC, multi-stage, restartable states: snapshots taken every few
/// dispatch sites across the echo workload under all four comparable
/// configurations round-trip byte-identically.
#[test]
fn echo_site_snapshots_roundtrip() {
    for cfg in Config::comparable() {
        let armed = cfg
            .clone()
            .with_krec(KrecConfig::every_sites(3).with_ring(4096));
        let (_, _, _, mut k) = SweepWorkload::IpcEcho
            .run_kernel(&armed, None)
            .unwrap_or_else(|e| panic!("{}: {e}", cfg.label));
        let rec = k.take_recording().expect("recorder armed");
        assert!(
            rec.snapshots.len() >= 3,
            "{}: expected several site snapshots, got {}",
            cfg.label,
            rec.snapshots.len()
        );
        for (i, s) in rec.snapshots.iter().enumerate() {
            assert_roundtrip(s, &format!("{} echo snapshot {i}", cfg.label));
        }
    }
}

/// The checkpoint workload destroys a thread mid-run (arena tombstone) and
/// drives blocked-on-mutex states; its snapshots round-trip too.
#[test]
fn checkpoint_site_snapshots_roundtrip() {
    let cfg = Config::interrupt_pp();
    let armed = cfg
        .clone()
        .with_krec(KrecConfig::every_sites(40).with_ring(4096));
    let (_, _, _, mut k) = SweepWorkload::Checkpoint
        .run_kernel(&armed, None)
        .unwrap_or_else(|e| panic!("{e}"));
    let rec = k.take_recording().expect("recorder armed");
    assert!(!rec.snapshots.is_empty());
    for (i, s) in rec.snapshots.iter().enumerate() {
        assert_roundtrip(s, &format!("checkpoint snapshot {i}"));
    }
}

/// LCG-randomized pause points over a contended-mutex workload: three
/// threads fight over one mutex (non-empty wait queues), a fourth is
/// destroyed after halting (thread tombstone), and a destroyed mutex
/// leaves an object-table hole. Manual snapshots at ~20 random cycle
/// points all round-trip.
#[test]
fn randomized_pause_points_roundtrip() {
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut rand = move |m: u64| {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 33) % m
    };
    for cfg in [Config::process_pp(), Config::interrupt_np()] {
        let mut k = Kernel::new(
            cfg.clone()
                .with_tracing(1 << 12)
                .with_krec(KrecConfig::manual().with_ring(64)),
        );
        let mut p = ChildProc::with_mem(&mut k, 0x0030_0000, 0x4000);
        let h_mutex = p.alloc_obj();
        let h_short = p.alloc_obj();
        let h_victim = p.alloc_obj();

        // Founder: create both objects, destroy one (object tombstone),
        // then join the contention loop.
        let mut a = Assembler::new("rt-founder");
        a.sys_h(Sys::MutexCreate, h_mutex);
        a.sys_h(Sys::MutexCreate, h_short);
        a.sys_h(Sys::MutexDestroy, h_short);
        for _ in 0..8 {
            a.mutex_lock(h_mutex);
            a.compute(400);
            a.mutex_unlock(h_mutex);
        }
        a.halt();
        let founder = p.start(&mut k, a.finish(), 8);
        // Let the founder create the mutex before contenders arrive.
        k.run(Some(k.now() + 20_000));

        let mut contenders = vec![founder];
        for i in 0..2 {
            let mut a = Assembler::new("rt-contender");
            for _ in 0..8 {
                a.mutex_lock(h_mutex);
                a.compute(300 + i * 50);
                a.mutex_unlock(h_mutex);
            }
            a.halt();
            contenders.push(p.start(&mut k, a.finish(), 8));
        }
        // Victim halts immediately; the reaper destroys it (thread
        // tombstone in the arena).
        let mut a = Assembler::new("rt-victim");
        a.halt();
        let victim = p.start(&mut k, a.finish(), 8);
        k.loader_thread_object(p.space, h_victim, victim);
        let mut a = Assembler::new("rt-reaper");
        a.sys_h(Sys::ThreadDestroy, h_victim);
        a.halt();
        contenders.push(p.start(&mut k, a.finish(), 8));

        for i in 0..20 {
            let slice = 2_000 + rand(60_000);
            k.run(Some(k.now() + slice));
            k.snapshot_now()
                .unwrap_or_else(|e| panic!("{} pause {i}: snapshot failed: {e}", cfg.label));
        }
        let _ = contenders;
        let rec = k.take_recording().expect("recorder armed");
        assert_eq!(rec.snapshots.len(), 20);
        for (i, s) in rec.snapshots.iter().enumerate() {
            assert_roundtrip(s, &format!("{} pause {i}", cfg.label));
        }
    }
}

/// The batched-submission workload snapshots kernels with submit rings in
/// flight (descriptor cursors, port queues mid-drain); those round-trip
/// byte-identically too.
#[test]
fn submit_ring_snapshots_roundtrip() {
    use fluke_bench::krec_sweep::KrecWorkload;
    for cfg in [Config::process_np(), Config::interrupt_pp()] {
        let armed = cfg
            .clone()
            .with_krec(KrecConfig::every_sites(5).with_ring(4096));
        let (_, mut k) = KrecWorkload::Server
            .run(&armed)
            .unwrap_or_else(|e| panic!("{}: {e}", cfg.label));
        let rec = k.take_recording().expect("recorder armed");
        assert!(
            !rec.snapshots.is_empty(),
            "{}: no submit-ring snapshots",
            cfg.label
        );
        for (i, s) in rec.snapshots.iter().enumerate() {
            assert_roundtrip(s, &format!("{} submit-ring snapshot {i}", cfg.label));
        }
    }
}

/// Restored kernels don't just re-encode identically — they *re-execute*
/// identically: replaying every echo snapshot to its epoch end verifies
/// each recorded window's end digest, cycle, and exit reason. The
/// multiprocessor kernels cover per-CPU run queues and lock stamps, and
/// the big-lock kernel its one shared queue and global lock.
#[test]
fn echo_snapshots_replay_to_identical_digests() {
    let mp = Config::process_pp().with_cpus(4);
    for cfg in [
        Config::process_np(),
        Config::interrupt_pp(),
        mp.clone(),
        mp.with_big_lock(true),
    ] {
        let armed = cfg
            .clone()
            .with_krec(KrecConfig::every_sites(11).with_ring(4096));
        let (_, _, _, mut k) = SweepWorkload::IpcEcho
            .run_kernel(&armed, None)
            .unwrap_or_else(|e| panic!("{}: {e}", cfg.label));
        let final_digest = k.state_digest().unwrap();
        let rec = k.take_recording().expect("recorder armed");
        assert!(!rec.snapshots.is_empty(), "{}: no snapshots", cfg.label);
        for i in 0..rec.snapshots.len() {
            let mut rp = Replayer::start(&rec, i)
                .unwrap_or_else(|e| panic!("{} snapshot {i}: {e}", cfg.label));
            rp.run_to_epoch_end()
                .unwrap_or_else(|e| panic!("{} snapshot {i}: {e}", cfg.label));
            if rp.epoch_end() == rec.windows.len() {
                // Epoch reaches the end of the recording: the replayed
                // kernel must be bit-identical to the original's end state.
                assert_eq!(
                    rp.kernel.state_digest().unwrap(),
                    final_digest,
                    "{} snapshot {i}: end state diverged",
                    cfg.label
                );
            }
        }
    }
}

/// A snapshot whose run-queue count disagrees with its config (a 2-CPU
/// image with the `big_lock` flag flipped, digest re-stamped) is rejected
/// as invalid at restore instead of panicking on the first `run`.
#[test]
fn restore_rejects_run_queue_count_mismatch() {
    let cfg = Config::process_pp().with_cpus(2);
    // The config is encoded first, right after the magic and version; the
    // one byte two encodings differing only in `big_lock` disagree on is
    // the flag.
    let encode = |c: &Config| {
        let mut w = SnapWriter::new();
        c.snap(&mut w);
        w.finish()
    };
    let (fine, big) = (encode(&cfg), encode(&cfg.clone().with_big_lock(true)));
    let flag = 8 + (0..fine.len()).find(|&i| fine[i] != big[i]).unwrap();
    for big_lock in [true, false] {
        let mut k = Kernel::new(cfg.clone().with_big_lock(big_lock));
        let p = ChildProc::with_mem(&mut k, 0x0030_0000, 0x1000);
        let mut a = Assembler::new("runq-count");
        a.compute(100);
        a.halt();
        p.start(&mut k, a.finish(), 8);
        let mut bytes = k.snapshot_bytes().unwrap();
        assert!(Kernel::restore_from(&bytes).is_ok());
        assert_eq!(bytes[flag], big_lock as u8);
        bytes[flag] ^= 1;
        let n = bytes.len() - 8;
        let digest = fnv64(FNV_OFFSET, &bytes[..n]);
        bytes[n..].copy_from_slice(&digest.to_le_bytes());
        assert_eq!(
            Kernel::restore_from(&bytes).err(),
            Some(SnapError::Invalid("run-queue count")),
            "big_lock={big_lock} image restored with the flag flipped"
        );
    }
}

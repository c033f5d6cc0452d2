//! What the process can learn about itself and its host: allocation
//! counts, CPU time, peak memory, a noise probe, and where scratch files
//! may go.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Counts allocations per thread on top of the system allocator. The
/// engine workload runs on one thread, so its thread's counters are exact;
/// a thread-local `Cell` costs a load and a store, no atomics.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local cells with a
// const initialiser and no destructor, so touching them never allocates
// and never runs after thread-local teardown has freed anything.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + new_size as u64));
        // SAFETY: forwarded with the caller's own arguments.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` by the calling thread so far.
pub fn thread_allocs() -> (u64, u64) {
    (ALLOCS.with(|c| c.get()), ALLOC_BYTES.with(|c| c.get()))
}

/// User + system CPU seconds of the whole process.
pub fn process_cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks (100 Hz on every
    // Linux this runs on). The command name may hold spaces: skip past it.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set of the process, MB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The allocate-and-hash loop whose speed swings 8–15 Mops/s on this host
/// with nothing else running: each step allocates a small key, hashes it
/// FNV-1a and frees it. Used as the noise probe (`load.host_probe_mops`)
/// and, on its own thread, as the synthetic noisy neighbour.
pub fn alloc_hash_step(i: u64, acc: &mut u64) {
    let key = format!("k{:04}", i & 1023);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    *acc = acc.wrapping_add(std::hint::black_box(h));
}

/// Million probe steps per second over `for_time`.
pub fn host_probe_mops(for_time: Duration) -> f64 {
    let start = Instant::now();
    let (mut i, mut acc) = (0u64, 0u64);
    while start.elapsed() < for_time {
        for _ in 0..1000 {
            alloc_hash_step(i, &mut acc);
            i += 1;
        }
    }
    std::hint::black_box(acc);
    i as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// `$CARGO_TARGET_DIR/benchmark` (or, unset, the directory two above the
/// running executable): the one place on disk this package writes to.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .or_else(|| {
            let exe = std::env::current_exe().ok()?;
            Some(exe.parent()?.parent()?.to_path_buf())
        })
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("benchmark")
}

/// Where the engine's WAL files live: `/dev/shm` when it is a tmpfs (an
/// fsync there costs 0.3 µs, so the workload stays a CPU measurement; on
/// this host's disk one costs 225 µs and would drown it), else under
/// [`out_dir`]. The bool says whether the tmpfs was used.
pub fn wal_root() -> (PathBuf, bool) {
    let shm_is_tmpfs = std::fs::read_to_string("/proc/mounts").is_ok_and(|m| {
        m.lines().any(|l| {
            let mut f = l.split_whitespace();
            f.next().is_some() && f.next() == Some("/dev/shm") && f.next() == Some("tmpfs")
        })
    });
    let probe = PathBuf::from("/dev/shm").join(format!("omni-bench-probe-{}", std::process::id()));
    if shm_is_tmpfs && std::fs::write(&probe, b"x").is_ok() {
        let _ = std::fs::remove_file(&probe);
        (PathBuf::from("/dev/shm"), true)
    } else {
        (out_dir(), false)
    }
}

/// Remove `omni-bench-<pid>-*` directories under `root` whose process is
/// gone: what a run killed from outside (a time-out) could not remove.
pub fn sweep_stale(root: &std::path::Path) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let pid = name
            .to_str()
            .and_then(|n| n.strip_prefix("omni-bench-"))
            .and_then(|rest| rest.split('-').next())
            .and_then(|pid| pid.parse::<u32>().ok());
        if let Some(pid) = pid {
            if !std::path::Path::new(&format!("/proc/{pid}")).exists() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

/// A directory removed when the guard drops — on every path out, a failed
/// check or a panic included.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn create(root: &std::path::Path, tag: &str) -> std::io::Result<TempDir> {
        let dir = root.join(format!("omni-bench-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

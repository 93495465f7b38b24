//! CPU placement. The benchmark's client and every server thread share one
//! CPU: on a small VM, waking a thread on another, idle vCPU costs a
//! hypervisor round trip whose length follows the host's load, and that
//! cost set the latency tails and moved them by up to 3x between runs.

use std::sync::OnceLock;

/// CPUs the process could run on before it pinned itself.
static ALLOWED: OnceLock<usize> = OnceLock::new();

/// How many CPUs the process could use before it pinned itself.
pub fn available() -> usize {
    *ALLOWED.get_or_init(|| std::thread::available_parallelism().map_or(0, |n| n.get()))
}

const MASK_WORDS: usize = 16;

/// Pins the calling thread, and so every thread it starts later, to the
/// highest-numbered CPU it may run on; returns that CPU.
#[cfg(target_os = "linux")]
pub fn pin() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; MASK_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, and pid
    // 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let allowed: Vec<usize> = (0..MASK_WORDS * 64)
        .filter(|c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect();
    ALLOWED.get_or_init(|| allowed.len());
    let cpu = *allowed.last()?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes, and pid
    // 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, size, one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin() -> Option<usize> {
    None
}

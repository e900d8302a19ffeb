//! Confines every thread of the process to one core for the `lat`
//! phase.
//!
//! With one request in flight, client, connection and worker threads
//! run strictly one after the other. Spread over cores, each hand-off
//! wakes a core from idle, and on the 2-vCPU guest the benchmark runs
//! on what that costs depends on the hypervisor's halt-polling state:
//! the same depth-1 get measured 12 µs or 88 µs, flipping between runs
//! and, with busy-loop threads keeping cores awake, between rounds. On
//! one core every hand-off is a context switch and the core never
//! idles, so the number is the software path and repeats.

use std::fs;

type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn set_all_threads(mask: &CpuSet) {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return;
    };
    for tid in tasks
        .flatten()
        .filter_map(|t| t.file_name().to_str()?.parse::<i32>().ok())
    {
        // SAFETY: `mask` points to `size_of::<CpuSet>()` readable
        // bytes, which is the size passed. A thread that has exited
        // makes the call fail with ESRCH, which is harmless.
        unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), mask.as_ptr()) };
    }
}

/// While alive, every thread that existed when it was made runs on the
/// lowest core the process is allowed. Dropping it gives all threads
/// the process's original cores back.
pub struct OneCore {
    original: CpuSet,
}

impl OneCore {
    pub fn confine() -> OneCore {
        let mut original: CpuSet = [0; 16];
        // SAFETY: `original` is `size_of::<CpuSet>()` writable bytes,
        // which is the size passed; pid 0 is the calling thread.
        let got =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), original.as_mut_ptr()) };
        let mut one: CpuSet = [0; 16];
        if got == 0 {
            if let Some((word, bits)) = original.iter().enumerate().find(|(_, w)| **w != 0) {
                one[word] = 1 << bits.trailing_zeros();
                set_all_threads(&one);
            }
        }
        OneCore { original }
    }
}

impl Drop for OneCore {
    fn drop(&mut self) {
        if self.original.iter().any(|w| *w != 0) {
            set_all_threads(&self.original);
        }
    }
}

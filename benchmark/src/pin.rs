//! Confines the process, and so every thread it starts, to one CPU.
//!
//! On the two-CPU virtual machine the benchmark was built on, waking
//! an idle CPU costs tens of microseconds, and whether two threads
//! that hand work to each other share a CPU is the scheduler's choice
//! of the moment. Unpinned, `serve_query` passes took 150 ms or 430 ms
//! by that choice alone and the farm half of `archive_analyze` spread
//! three times as wide. On one CPU a hand-over is a context switch and
//! nothing else. Pinning must not change what the program does, so
//! the workloads fix every thread count the program would otherwise
//! derive from the CPUs it sees (`serve_query` the server's, at its
//! two-core defaults; `archive_analyze` the farm's two workers). What
//! one CPU cannot show is parallel speed-up: the executor and farm
//! hand-offs are measured, their overlap is not.

use std::os::raw::{c_int, c_ulong};

/// Words of a `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 1024 / c_ulong::BITS as usize;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
}

/// Pins the calling process to the lowest-numbered CPU it may run on
/// and returns that CPU's number, or `None` if the kernel refuses
/// (the run goes on unpinned and the header says so).
pub fn to_one_cpu() -> Option<usize> {
    let mut mask = [0 as c_ulong; MASK_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size`
    // bytes, which is the size the call is told; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|w| *w != 0)?;
    let bit = mask[word].trailing_zeros() as usize;
    let mut one = [0 as c_ulong; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of `size` bytes that the call
    // only reads. It is made before any other thread is started, so
    // every later thread inherits the mask.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0)
        .then_some(word * c_ulong::BITS as usize + bit)
}

//! Pins the service phase to one core.
//!
//! One request of the closed loop passes from the client thread to the
//! daemon's threads and back, and only one of them runs at a time. Spread
//! over the guest's cores, every hand-off has to wake an idle virtual CPU,
//! and how long the host takes to do that swings by several times with the
//! host's load (p95 latencies tripled between runs of the same code). On
//! one core the hand-offs are plain context switches, so the latencies
//! measure the daemon's own path. The pin is inherited by every thread and
//! process started after it: the daemon and the load generator.

/// Bits of a `cpu_set_t`.
const SET_WORDS: usize = 1024 / 64;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to the lowest-numbered core it may run on and
/// returns that core, or `None` (leaving it unpinned) if the system refuses.
pub fn pin_to_one_core() -> Option<usize> {
    let mut mask = [0u64; SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let core = (0..SET_WORDS * 64).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; SET_WORDS];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(core)
}

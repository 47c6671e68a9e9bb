//! Pins the benchmark process to one CPU.
//!
//! On a small shared host, a process that keeps two vCPUs busy draws far
//! more hypervisor steal than one that keeps a single vCPU busy (measured
//! on a 2-vCPU guest: 15–17% against 0.3–6% of machine time), and
//! cross-CPU thread wake-ups on the loopback path stretch by whole
//! scheduler slices. Every workload routes with `Parallelism::Serial`, so
//! one CPU is all the measured work uses; pinning it there keeps the host's
//! noise out of the numbers. Threads spawned later inherit the mask.

/// Words in the kernel's fixed-size `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

type Mask = [u64; MASK_WORDS];

fn affinity() -> std::io::Result<Mask> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(mask)
}

fn set_affinity(mask: &Mask) -> std::io::Result<()> {
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// The CPU the process runs on, and the CPUs it was allowed at start.
pub struct Pinned {
    pub cpu: usize,
    allowed: Mask,
}

impl Pinned {
    /// Lets the calling thread, and threads it spawns afterwards, use every
    /// CPU allowed at start again: for checking work after a timed window.
    pub fn release(&self) -> std::io::Result<()> {
        set_affinity(&self.allowed)
    }
}

/// Restricts the calling thread (and every thread it spawns afterwards)
/// to the lowest-numbered CPU it may run on.
pub fn to_first_allowed_cpu() -> std::io::Result<Pinned> {
    let allowed = affinity()?;
    let cpu = (0..MASK_WORDS * 64)
        .find(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    set_affinity(&one)?;
    Ok(Pinned { cpu, allowed })
}

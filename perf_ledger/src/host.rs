//! Host facts printed with every run, and CPU placement.
//!
//! The load generator pins its threads to the last CPU it may use and
//! the nodes run on the other CPUs ([`avoid_inherited_cpus`]). Sharing
//! CPUs made results depend on where the kernel happened to wake the
//! node's event loop: next to a busy generator thread it waited for a
//! scheduler tick, and small-request p90 swung from 20 µs to 2.6 ms
//! between otherwise identical runs on a 2-vCPU VM.

/// CPUs this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` as glibc and musl lay it out: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }

    /// Sets the calling thread's mask; `false` when the kernel refused.
    pub fn set(mask: &CpuSet) -> bool {
        // SAFETY: `mask` is a valid, initialised buffer of exactly the
        // size passed, borrowed for the whole call; pid 0 names the
        // calling thread and the kernel only reads the buffer.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) == 0 }
    }

    /// The calling thread's mask, when the kernel reports it.
    pub fn get() -> Option<CpuSet> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a valid, exclusively borrowed buffer of
        // exactly the size passed; the kernel writes at most that many
        // bytes into it.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) };
        (rc >= 0).then_some(mask)
    }
}

/// Pins the calling thread to the highest-numbered CPU in its current
/// mask and returns that CPU, or `None` where placement is unsupported
/// or refused.
#[cfg(target_os = "linux")]
pub fn pin_to_last_cpu() -> Option<usize> {
    let mask = sys::get()?;
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut only: sys::CpuSet = [0; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    sys::set(&only).then_some(cpu)
}

/// Moves the calling thread — and every thread it starts afterwards —
/// off the CPUs it inherited and onto the rest of the CPUs the process
/// may use. A node calls this first: it inherits the generator's
/// one-CPU mask, and this gives it every other CPU. With a single CPU,
/// or an unpinned parent, the mask ends up covering every CPU.
#[cfg(target_os = "linux")]
pub fn avoid_inherited_cpus() {
    let Some(inherited) = sys::get() else { return };
    // The kernel clips the all-ones mask to the CPUs the cgroup allows.
    if !sys::set(&[u64::MAX; 16]) {
        return;
    }
    let Some(all) = sys::get() else { return };
    let mut rest = all;
    for (word, taken) in rest.iter_mut().zip(inherited) {
        *word &= !taken;
    }
    if rest.iter().any(|&w| w != 0) {
        sys::set(&rest);
    }
}

/// Placement is Linux-only; elsewhere the generator runs unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_last_cpu() -> Option<usize> {
    None
}

/// Placement is Linux-only; elsewhere nodes keep the inherited mask.
#[cfg(not(target_os = "linux"))]
pub fn avoid_inherited_cpus() {}

/// Aggregate CPU time from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// Reads the counters now; `None` off Linux or when unreadable.
    #[must_use]
    pub fn now() -> Option<CpuTimes> {
        let text = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = text
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted inside user and nice.
        Some(CpuTimes {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        })
    }

    /// Share of CPU time the hypervisor gave to other guests between
    /// `earlier` and `self`, in percent.
    #[must_use]
    pub fn steal_pct_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

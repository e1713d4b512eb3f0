//! Pinning the calling thread to one CPU at a time.
//!
//! On a shared host the cores a process runs on can differ in speed by a
//! third, and a single-threaded step stays on whichever core the scheduler
//! picked. Timing such a step once on every allowed core and taking the
//! mean makes the figure independent of that pick.

use std::os::raw::c_int;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

fn set(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a valid, fully initialised cpu_set_t of the size
    // passed; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
}

/// At most this many CPUs are visited per timing, spread over the set.
const MAX_CPUS: usize = 8;

/// The calling thread's allowed CPUs.
pub struct Cores {
    allowed: CpuSet,
    /// The CPUs a timing visits; empty when the affinity cannot be read,
    /// and then timings run unpinned.
    cpus: Vec<usize>,
}

impl Cores {
    pub fn of_this_thread() -> Self {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is writable and exactly the size passed.
        let read = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
        let cpus: Vec<usize> = (0..1024)
            .filter(|&c| read == 0 && allowed[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        let step = cpus.len().div_ceil(MAX_CPUS).max(1);
        Cores {
            allowed,
            cpus: cpus.into_iter().step_by(step).collect(),
        }
    }

    /// Run `f` once pinned to each CPU of the set; the mean of its timings
    /// in seconds. The thread's affinity is restored after each run.
    pub fn mean_over_each<E>(&self, mut f: impl FnMut() -> Result<(), E>) -> Result<f64, E> {
        if self.cpus.is_empty() {
            let t = std::time::Instant::now();
            f()?;
            return Ok(t.elapsed().as_secs_f64());
        }
        let mut total = 0.0;
        for &cpu in &self.cpus {
            let mut one: CpuSet = [0; 16];
            one[cpu / 64] |= 1 << (cpu % 64);
            let pinned = set(&one);
            let t = std::time::Instant::now();
            let out = f();
            total += t.elapsed().as_secs_f64();
            if pinned {
                set(&self.allowed);
            }
            out?;
        }
        Ok(total / self.cpus.len() as f64)
    }
}

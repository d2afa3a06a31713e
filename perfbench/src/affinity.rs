//! Thread placement.
//!
//! On a small virtual machine a thread that blocks lets its virtual CPU
//! halt, and waking a halted virtual CPU waits on the host's scheduler, so
//! cross-CPU wake-ups made figures swing severalfold with other tenants'
//! load. Workloads therefore pin their threads: `wire-hot` keeps client and
//! server on one CPU, `relearn` gives each of its two busy threads its own.
//! Threads inherit their creator's affinity, so pinning a thread before it
//! starts a server pins the server's threads too.

use std::io;

/// Bits in a `cpu_set_t` (glibc and musl both use 1024).
const CPU_SET_BITS: usize = 1024;

#[repr(C)]
struct CpuSet {
    bits: [u64; CPU_SET_BITS / 64],
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPU the calling thread is running on.
pub fn current() -> io::Result<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads the
    // calling thread's state.
    let cpu = unsafe { sched_getcpu() };
    usize::try_from(cpu).map_err(|_| io::Error::last_os_error())
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed() -> io::Result<Vec<usize>> {
    let mut set = CpuSet {
        bits: [0; CPU_SET_BITS / 64],
    };
    // SAFETY: `set` is a live `cpu_set_t`-sized buffer and the size passed
    // is exactly its size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..CPU_SET_BITS)
        .filter(|&cpu| set.bits[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect())
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to `cpu`.
pub fn pin(cpu: usize) -> io::Result<()> {
    if cpu >= CPU_SET_BITS {
        return Err(io::Error::other(format!(
            "cpu {cpu} is beyond the affinity mask"
        )));
    }
    let mut set = CpuSet {
        bits: [0; CPU_SET_BITS / 64],
    };
    set.bits[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live, initialised `cpu_set_t`-sized buffer and
    // the size passed is exactly its size; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Pins the calling thread to the CPU it is on; returns that CPU and
/// another allowed one, if any, for a second thread.
pub fn pin_here() -> io::Result<(usize, Option<usize>)> {
    let here = current()?;
    let other = allowed()?.into_iter().find(|&c| c != here);
    pin(here)?;
    Ok((here, other))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_thread_stays_on_its_cpu() {
        std::thread::spawn(|| {
            let cpus = allowed().unwrap();
            assert!(!cpus.is_empty());
            let (here, other) = pin_here().unwrap();
            assert_eq!(allowed().unwrap(), vec![here]);
            assert_eq!(current().unwrap(), here);
            assert_eq!(other.is_some(), cpus.len() > 1);
        })
        .join()
        .unwrap();
    }
}

//! Process-wide settings made before the benchmark starts any thread.

use std::os::raw::c_int;

/// `cpu_set_t` of glibc: 1024 CPUs, one bit each.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn mallopt(param: c_int, value: c_int) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: c_int = -8;

/// Make every thread allocate from glibc's main arena.  With an arena per
/// thread, which arenas the daemon's threads reuse depends on when earlier
/// threads exited, and so does the memory set-up leaves resident.
pub fn one_malloc_arena() {
    // SAFETY: mallopt only sets an allocator parameter; it takes no
    // pointers.
    let set = unsafe { mallopt(M_ARENA_MAX, 1) };
    assert_eq!(set, 1, "glibc accepts M_ARENA_MAX");
}

/// Pin the calling thread, and so every thread it starts later, to the
/// lowest-numbered CPU it may run on, and return that CPU.  A daemon-fleet
/// request then wakes the daemon's thread, and the reply the client, on the
/// same CPU.  A wake-up on another vCPU costs an inter-processor interrupt,
/// whose price depends on how busy the VM's host is, and the reference
/// kernel cannot see it.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `allowed` is a writable cpu_set_t of `size` bytes; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024)
        .find(|&c| allowed.0[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("no CPU is allowed")?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid cpu_set_t of `size` bytes naming an allowed
    // CPU; pid 0 is the calling thread.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_exactly_one_allowed_cpu() {
        // Only this test's thread is pinned.
        let cpu = pin_to_one_cpu().expect("pinning to an allowed CPU works");
        let mut allowed = CpuSet([0; 16]);
        // SAFETY: as in `pin_to_one_cpu`.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
        assert_eq!(rc, 0);
        let set: Vec<usize> = (0..1024)
            .filter(|&c| allowed.0[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        assert_eq!(set, vec![cpu]);
    }
}

//! Moving the whole benchmark process onto one CPU. On the shared host
//! each CPU switches, second by second, between a fast and a slow
//! state; every measuring pass runs on whichever CPU the gauge finds
//! fastest at its start, with all of the process's threads (the
//! program's pipeline and server threads too) moved there with it.

use std::sync::OnceLock;

/// Words of the CPU mask passed to the kernel: room for 1024 CPUs.
const WORDS: usize = 16;
type Mask = [u64; WORDS];

/// `ESRCH`: the thread exited between listing and pinning it.
const ESRCH: i32 = 3;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, as it was started: read once, on
/// the first call, before anything is pinned.
pub fn allowed() -> Result<&'static [usize], String> {
    static ALLOWED: OnceLock<Result<Vec<usize>, String>> = OnceLock::new();
    let cpus = ALLOWED.get_or_init(|| {
        let mut mask: Mask = [0; WORDS];
        // SAFETY: `mask` is a live, writable array of exactly
        // `size_of::<Mask>()` bytes for the whole call, and pid 0 names
        // the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        if rc != 0 {
            return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
        }
        let cpus = cpus_in(&mask);
        if cpus.is_empty() {
            return Err("no CPU is allowed".into());
        }
        Ok(cpus)
    });
    cpus.as_deref().map_err(Clone::clone)
}

fn cpus_in(mask: &Mask) -> Vec<usize> {
    (0..WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Confines thread `tid` (0: the calling thread) to `cpu`. A thread
/// that has exited meanwhile is not an error.
fn pin(tid: i32, cpu: usize) -> Result<(), String> {
    if cpu >= WORDS * 64 {
        return Err(format!("CPU {cpu} is beyond the mask"));
    }
    let mut mask: Mask = [0; WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised array of exactly
    // `size_of::<Mask>()` bytes for the whole call; the kernel only
    // reads it.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    if rc == 0 {
        return Ok(());
    }
    let err = std::io::Error::last_os_error();
    match err.raw_os_error() {
        Some(ESRCH) => Ok(()),
        _ => Err(format!("sched_setaffinity({tid}, CPU {cpu}): {err}")),
    }
}

/// Confines the calling thread to `cpu`.
pub fn pin_self(cpu: usize) -> Result<(), String> {
    pin(0, cpu)
}

/// Confines every thread of the process to `cpu`. Threads started
/// later inherit the mask of the thread that starts them.
pub fn pin_process(cpu: usize) -> Result<(), String> {
    let tasks =
        std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    for task in tasks {
        let task = task.map_err(|e| e.to_string())?;
        let Some(tid) = task.file_name().to_str().and_then(|t| t.parse::<i32>().ok()) else {
            continue;
        };
        pin(tid, cpu)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_a_thread_and_everything_it_starts() {
        let cpus = allowed().expect("affinity is readable");
        let cpu = *cpus.last().expect("at least one CPU");
        std::thread::spawn(move || {
            pin_self(cpu).expect("pin");
            let child = std::thread::spawn(|| {
                let mut mask: Mask = [0; WORDS];
                // SAFETY: as in `allowed`.
                let rc =
                    unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
                assert_eq!(rc, 0);
                mask
            });
            let mask = child.join().expect("child thread");
            assert_eq!(cpus_in(&mask), vec![cpu]);
        })
        .join()
        .expect("pinned thread");
        assert!(pin(0, WORDS * 64).is_err());
    }
}

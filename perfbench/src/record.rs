//! The run record printed with every result, so that a run on a busy
//! or different host can be told apart from a regression.

use sw_kernels::KernelIsa;

/// Host and run facts.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Tracing on.
    pub trace: bool,
    /// Threads the host offers.
    pub nproc: usize,
    /// `KernelIsa::detect()`.
    pub isa_detected: KernelIsa,
    /// Every ISA that can run here.
    pub isa_available: Vec<KernelIsa>,
    /// 1, 5 and 15 minute load averages at start.
    pub loadavg: String,
    /// Commit of the checkout, or `unknown`.
    pub commit: String,
}

/// Put every thread's allocations in glibc's one main malloc arena.
/// By default a thread that mallocs while the other arenas are held gets
/// an arena of its own (up to 8 per core), each keeping its own freed
/// memory, so the peak resident set follows how the daemon's short-lived
/// threads happened to overlap: ±15% across runs of the same code on
/// serve-short. With one arena it follows what the program holds. Must
/// run before the first thread starts. Returns whether the allocator
/// took the setting (false off glibc).
pub fn single_malloc_arena() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        /// `M_ARENA_MAX` of glibc's `<malloc.h>`.
        const M_ARENA_MAX: std::ffi::c_int = -8;
        extern "C" {
            fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
        }
        // SAFETY: mallopt only sets an allocator parameter; it is called
        // before any other thread exists.
        unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// Peak resident set (VmHWM) of this process, MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit `.git` in the working directory points at, if there is one.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

impl RunRecord {
    /// Capture the record at the start of a run.
    pub fn capture(
        workload: &str,
        seed: u64,
        seconds: u64,
        trace: bool,
        nproc: usize,
    ) -> RunRecord {
        RunRecord {
            workload: workload.into(),
            seed,
            seconds,
            trace,
            nproc,
            isa_detected: KernelIsa::detect(),
            isa_available: [KernelIsa::Portable, KernelIsa::Sse2, KernelIsa::Avx2]
                .into_iter()
                .filter(|i| i.is_available())
                .collect(),
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
                .unwrap_or_else(|_| "unknown".into()),
            commit: commit(),
        }
    }

    /// One JSON object.
    pub fn json(&self) -> String {
        let isas: Vec<String> = self
            .isa_available
            .iter()
            .map(|i| format!("\"{i}\""))
            .collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
             \"isa_detected\":\"{}\",\"isa_available\":[{}],\"loadavg\":\"{}\",\"commit\":\"{}\"}}",
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            self.nproc,
            self.isa_detected,
            isas.join(","),
            self.loadavg,
            self.commit
        )
    }
}

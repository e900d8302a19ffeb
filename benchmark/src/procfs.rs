//! Process-level readings from `/proc/self`.

use std::fs;

fn status_field(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Live server threads of this process (named `phserve-*` by the
/// server) and the voluntary and involuntary context switches of all
/// its threads, clients included.
pub fn threads_and_switches() -> (u64, u64) {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    let (mut threads, mut switches) = (0, 0);
    for t in tasks.flatten() {
        let Ok(status) = fs::read_to_string(t.path().join("status")) else {
            continue; // the thread ended between listing and reading
        };
        let comm = fs::read_to_string(t.path().join("comm")).unwrap_or_default();
        threads += comm.starts_with("phserve-") as u64;
        switches += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
            + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    (threads, switches)
}

//! What the operating system knows about this process, read from `/proc`.

use std::fs;

/// The kernel reports process times in `USER_HZ` ticks, which is 100 on
/// every Linux ABI.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process (all threads, exited ones
/// included). The kernel scales the two so that their sum is the
/// scheduler's exact run time; only the 10 ms tick of each field is lost.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ")".
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    // After the name: state is field 0, utime field 11, stime field 12.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set of the process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Live threads of the process.
pub fn thread_count() -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "Threads").unwrap_or(0)
}

/// Voluntary + involuntary context switches summed over the live threads
/// (`/proc/self/status` alone covers only the main thread).
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join("status")).ok())
        .map(|status| {
            status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
                + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t   12345 kB\nThreads:\t7\nvoluntary_ctxt_switches:\t42\n";
        assert_eq!(status_field(status, "VmHWM"), Some(12345));
        assert_eq!(status_field(status, "Threads"), Some(7));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(42));
        assert_eq!(status_field(status, "Missing"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        assert!(thread_count() >= 1);
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() >= before);
    }
}

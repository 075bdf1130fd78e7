//! Process and thread resource readings from `/proc`.

use std::fs;

/// Clock ticks per second of `/proc/*/stat` CPU fields (`USER_HZ`, 100
/// on every Linux architecture this benchmark runs on).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of every thread of this process.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat")
}

/// CPU seconds the calling thread has run, from the scheduler's
/// nanosecond account (falls back to tick-granular `stat`).
pub fn thread_cpu_s() -> f64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map(|ns| ns as f64 / 1e9)
        .unwrap_or_else(|| stat_cpu_s("/proc/thread-self/stat"))
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        })
        .map(|kib| kib as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// utime + stime of a `stat` file; the command name may hold spaces, so
/// fields are counted from the closing parenthesis.
fn stat_cpu_s(path: &str) -> f64 {
    let Ok(stat) = fs::read_to_string(path) else {
        return 0.0;
    };
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    // After ")": state is field 3, utime field 14, stime field 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_grow() {
        let before = thread_cpu_s();
        // Spin well past a scheduler tick: the runtime account is
        // updated at ticks and context switches.
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed() < std::time::Duration::from_millis(200) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        assert!(thread_cpu_s() > before);
        assert!(process_cpu_s() > 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}

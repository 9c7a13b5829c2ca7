//! Process resource usage from `/proc`, with the standard library only.

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, which
/// Linux fixes at 100 for user space).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of the whole process, all threads included.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Peak resident set of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_cpu_and_rss() {
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}

//! `/proc` readers: CPU time and peak resident memory of the program under
//! test, observed from outside it.

use std::fs;

/// `sysconf(_SC_CLK_TCK)`; 100 on every Linux this repo targets.
const TICKS_PER_SEC: f64 = 100.0;

/// The four CPU-time fields of a `/proc/<pid>/stat` line, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTimes {
    /// utime + stime of the process itself.
    pub own_s: f64,
    /// cutime + cstime: children it has waited for.
    pub children_s: f64,
}

/// Parse a `/proc/<pid>/stat` line. The command name (field 2) may contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat(line: &str) -> Option<CpuTimes> {
    let rest = &line[line.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime..cstime are fields 14..17.
    let ticks: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if ticks.len() < 4 {
        return None;
    }
    Some(CpuTimes {
        own_s: (ticks[0] + ticks[1]) / TICKS_PER_SEC,
        children_s: (ticks[2] + ticks[3]) / TICKS_PER_SEC,
    })
}

/// Parse the `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in MB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU times of a live process (`"self"` or a pid).
pub fn cpu_times(pid: &str) -> Option<CpuTimes> {
    parse_stat(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident set of a live process, in MB. `None` once it has exited.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    parse_vm_hwm_mb(&fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "4242 (air) fedga (x)) S 1 4242 4242 0 -1 4194304 1234 5678 0 0 \
                    150 25 900 75 20 0 3 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(
            parse_stat(line),
            Some(CpuTimes {
                own_s: 1.75,
                children_s: 9.75
            })
        );
        assert_eq!(parse_stat("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat("no parens here"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_megabytes() {
        let status =
            "Name:\tairfedga-run\nVmPeak:\t  200000 kB\nVmHWM:\t   60416 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(59.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tzombie\nState:\tZ (zombie)\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(cpu_times("self").is_some());
        assert!(vm_hwm_mb(std::process::id()).is_some_and(|mb| mb > 0.0));
    }
}

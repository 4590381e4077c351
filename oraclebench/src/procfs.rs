//! CPU accounting from `/proc`, with no dependencies.
//!
//! The process total comes from `/proc/self/stat` (user + system clock
//! ticks). The per-thread split comes from `/proc/self/task/*/schedstat`
//! (nanoseconds on CPU and waiting on a run queue) and
//! `/proc/self/task/*/status` (context switches).

use std::collections::HashMap;
use std::fs;

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`,
/// fixed at 100 on every Linux architecture this runs on).
pub const TICKS_PER_S: f64 = 100.0;

/// User and system CPU of the process, in clock ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcCpu {
    /// `utime`.
    pub user: u64,
    /// `stime`.
    pub sys: u64,
}

impl ProcCpu {
    /// Total CPU in milliseconds.
    pub fn total_ms(&self) -> f64 {
        (self.user + self.sys) as f64 * 1000.0 / TICKS_PER_S
    }

    /// `self - earlier`, saturating.
    pub fn since(&self, earlier: &ProcCpu) -> ProcCpu {
        ProcCpu {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
        }
    }
}

/// Parses `utime` and `stime` out of a `/proc/<pid>/stat` line.
///
/// The second field is the command name in parentheses, and the name
/// itself may contain spaces and `)`; the fields after it start after
/// the *last* `)` of the line.
pub fn parse_stat(line: &str) -> Option<ProcCpu> {
    let rest = &line[line.rfind(')')? + 1..];
    // Fields after the name, 1-based from `state` (field 3 of the line):
    // utime is field 14 and stime field 15 of the line.
    let mut fields = rest.split_whitespace();
    let user = fields.nth(11)?.parse().ok()?;
    let sys = fields.next()?.parse().ok()?;
    Some(ProcCpu { user, sys })
}

/// Parses `/proc/<pid>/task/<tid>/schedstat`: nanoseconds on CPU,
/// nanoseconds waiting on a run queue, and timeslices run.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64, u64)> {
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    let run = fields.next()?.ok()?;
    let wait = fields.next()?.ok()?;
    let slices = fields.next()?.ok()?;
    Some((run, wait, slices))
}

/// Parses the voluntary and involuntary context-switch counts out of a
/// `/proc/<pid>/task/<tid>/status` file.
pub fn parse_status_switches(text: &str) -> Option<(u64, u64)> {
    let field = |key: &str| {
        text.lines().find_map(|l| l.strip_prefix(key)).and_then(|v| v.trim().parse::<u64>().ok())
    };
    Some((field("voluntary_ctxt_switches:")?, field("nonvoluntary_ctxt_switches:")?))
}

/// Parses the machine-wide `cpu` line of `/proc/stat` into (ticks
/// stolen by the hypervisor, all ticks): the first eight counters are
/// user, nice, system, idle, iowait, irq, softirq and steal.
pub fn parse_host_ticks(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> =
        line.split_whitespace().skip(1).take(8).map(|v| v.parse().ok()).collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// Host ticks so far: (stolen, all). A share of stolen ticks over a run
/// shows how much CPU other tenants of the machine took from it.
pub fn host_ticks() -> (u64, u64) {
    fs::read_to_string("/proc/stat").ok().and_then(|s| parse_host_ticks(&s)).unwrap_or_default()
}

/// This process's CPU so far.
pub fn process_cpu() -> ProcCpu {
    fs::read_to_string("/proc/self/stat").ok().and_then(|s| parse_stat(&s)).unwrap_or_default()
}

/// The calling thread's kernel thread id.
pub fn current_tid() -> u32 {
    // `/proc/thread-self` links to `<pid>/task/<tid>`.
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// CPU on the calling thread so far, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .map_or(0, |(run, _, _)| run)
}

/// One thread's counters at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadSample {
    /// Nanoseconds on CPU.
    pub run_ns: u64,
    /// Nanoseconds runnable but waiting for a CPU.
    pub wait_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub switches: u64,
}

/// Every live thread of this process, by thread id. Context switches are
/// read only `with_switches` (the status file costs more to generate than
/// the schedstat line).
pub fn thread_samples(with_switches: bool) -> HashMap<u32, ThreadSample> {
    let mut out = HashMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return out };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let path = entry.path();
        let Some((run_ns, wait_ns, _)) =
            fs::read_to_string(path.join("schedstat")).ok().and_then(|s| parse_schedstat(&s))
        else {
            continue; // the thread exited between listing and reading
        };
        let switches = if with_switches {
            fs::read_to_string(path.join("status"))
                .ok()
                .and_then(|s| parse_status_switches(&s))
                .map_or(0, |(v, nv)| v + nv)
        } else {
            0
        };
        out.insert(tid, ThreadSample { run_ns, wait_ns, switches });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parses_plain_names() {
        let line = "4242 (oraclebench) S 1 4242 4242 0 -1 4194560 2095 0 0 0 731 58 0 0 \
                    20 0 9 0 123456 1000000 500 18446744073709551615";
        assert_eq!(parse_stat(line), Some(ProcCpu { user: 731, sys: 58 }));
    }

    #[test]
    fn stat_parses_names_with_spaces_and_parens() {
        let line = "77 (my prog) (x) R 1 77 77 0 -1 4194560 10 0 0 0 12 3 0 0 20 0 1 0 5 0 0";
        assert_eq!(parse_stat(line), Some(ProcCpu { user: 12, sys: 3 }));
        let line = "78 ()) ) S 1 78 78 0 -1 0 0 0 0 0 900 100 0 0 20 0 1 0 5 0 0";
        assert_eq!(parse_stat(line), Some(ProcCpu { user: 900, sys: 100 }));
        assert_eq!(parse_stat("79 (truncated"), None);
        assert_eq!(parse_stat("80 (short) S 1 2"), None);
    }

    #[test]
    fn cpu_deltas_and_units() {
        let a = ProcCpu { user: 100, sys: 20 };
        let b = ProcCpu { user: 250, sys: 30 };
        assert_eq!(b.since(&a), ProcCpu { user: 150, sys: 10 });
        assert_eq!(b.since(&a).total_ms(), 1600.0);
        assert_eq!(a.since(&b), ProcCpu::default());
    }

    #[test]
    fn schedstat_and_status_parse() {
        assert_eq!(parse_schedstat("123456789 4567 89\n"), Some((123_456_789, 4567, 89)));
        assert_eq!(parse_schedstat("1 2"), None);
        assert_eq!(parse_schedstat("x 2 3"), None);
        let status = "Name:\ttokio-stub-task\nState:\tS (sleeping)\nThreads:\t40\n\
                      voluntary_ctxt_switches:\t1500\nnonvoluntary_ctxt_switches:\t42\n";
        assert_eq!(parse_status_switches(status), Some((1500, 42)));
        assert_eq!(parse_status_switches("Name:\tx\n"), None);
    }

    #[test]
    fn host_ticks_parse() {
        let stat = "cpu  813708 0 130288 508123 443 0 19391 37905 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(parse_host_ticks(stat), Some((37905, 1_509_858)));
        assert_eq!(parse_host_ticks("cpu  1 2 3\n"), None);
        assert_eq!(parse_host_ticks("intr 5\n"), None);
    }

    #[test]
    fn live_proc_reads_work() {
        assert!(current_tid() > 0);
        let threads = thread_samples(true);
        assert!(threads.contains_key(&current_tid()));
        let _ = process_cpu();
        let _ = thread_cpu_ns();
        assert!(host_ticks().1 > 0);
    }
}
